"""Copositivity classification through the Pareto spectrum.

A symmetric tensor is copositive when A x^m >= 0 for every x >= 0, and
strictly copositive when the inequality is strict for x != 0.  Both
properties are equivalent to sign conditions on the smallest Pareto
eigenvalue, and the sign does not depend on which kind (H or Z) is used,
even though the minimum values themselves differ for order > 2.

Classification places |smallest eigenvalue| against a zero band: values
inside the band classify as copositive_boundary, values above as
strictly_copositive, values below zero (beyond the band) as not_copositive.
With route="both" the two kinds must agree on the classification; a
disagreement (a heuristic miss on one side) is reported as inconclusive
with per-route diagnostics rather than silently trusting either side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigen import Kind, SolverConfig
from .spectrum import DEFAULT_SLACK_TOL, EmptySpectrumError, min_pareto
from .tensor import Tensor

DEFAULT_ZERO_BAND = 1e-7
# Two kinds' minima within this much (relative to the larger of 1 and their
# magnitudes) tie: rounding, not the spectra, orders them.
_TIE_TOL = 64 * np.finfo(np.float64).eps

Route = str  # "H", "Z", or "both"


@dataclass(frozen=True)
class CopositivityVerdict:
    """Classification with the eigenvalue evidence that produced it.

    min_eigenvalue is the smallest Pareto eigenvalue seen on the route (for
    route="both", the smaller of the two kinds, or H's when the two tie
    within rounding, 64 machine epsilons relative to max(1, |value|));
    certificate is its eigenvector.  margin = |min_eigenvalue| - zero_band
    measures how far the decision sits from the band edge: negative margin
    means the value landed inside the band (classified as boundary).  notes
    carries per-route diagnostics, mainly for inconclusive verdicts.
    """

    classification: str
    route: Route
    min_eigenvalue: float
    certificate: np.ndarray
    margin: float
    zero_band: float
    notes: tuple[str, ...] = ()


def _classify_value(value: float, zero_band: float) -> str:
    if abs(value) <= zero_band:
        return "copositive_boundary"
    return "strictly_copositive" if value > 0 else "not_copositive"


def classify(
    t: Tensor,
    route: Route = "both",
    config: SolverConfig | None = None,
    slack_tol: float = DEFAULT_SLACK_TOL,
    zero_band: float = DEFAULT_ZERO_BAND,
) -> CopositivityVerdict:
    """Classify copositivity of a symmetric tensor from its Pareto spectrum.

    route "H" or "Z" trusts that single spectrum; "both" computes the two
    and requires the classifications to agree.
    """
    if route not in ("H", "Z", "both"):
        raise ValueError(f"route must be 'H', 'Z', or 'both', got {route!r}")
    if not zero_band > 0:
        raise ValueError(f"zero_band must be positive, got {zero_band}")
    if not t.symmetric:
        raise ValueError("copositivity classification requires a symmetric tensor")

    kinds: tuple[Kind, ...] = ("H", "Z") if route == "both" else (route,)
    results: dict[Kind, tuple[float, np.ndarray]] = {}
    for kind in kinds:
        results[kind] = min_pareto(t, kind, config=config, slack_tol=slack_tol)

    notes: list[str] = [
        f"{kind}: min Pareto eigenvalue {value:.12g}" for kind, (value, _) in results.items()
    ]
    classes = {kind: _classify_value(value, zero_band) for kind, (value, _) in results.items()}
    lead_kind = kinds[0]
    for kind in kinds[1:]:
        lead, other = results[lead_kind][0], results[kind][0]
        if other < lead - _TIE_TOL * max(1.0, abs(lead), abs(other)):
            lead_kind = kind
    value, certificate = results[lead_kind]
    margin = abs(value) - zero_band

    classification = classes[lead_kind]
    if len(set(classes.values())) > 1:
        classification = "inconclusive"
        notes.append(
            "kinds disagree: " + ", ".join(f"{kd}={cl}" for kd, cl in classes.items())
        )
    return CopositivityVerdict(
        classification=classification,
        route=route,
        min_eigenvalue=value,
        certificate=certificate,
        margin=float(margin),
        zero_band=float(zero_band),
        notes=tuple(notes),
    )
