"""Pareto spectra through principal sub-tensor enumeration.

A pair (value, y) with y >= 0, y != 0 is a Pareto H-eigenpair of A when

    A y^m = value * sum_i y_i^m,    A y^{m-1} - value * y^{[m-1]} >= 0,

and a Pareto Z-eigenpair when the same holds with y^{[m-1]} replaced by
(y.y)^{(m-2)/2} y and the scalar equation uses (y.y)^{m/2}.  Every such pair
is an interior eigenpair of the principal sub-tensor on its support N,
embedded by zero-filling, and is admissible exactly when the complement
components of A y^{m-1} are nonnegative.  Enumerating all nonempty subsets
N of the index set therefore produces the complete spectrum, up to the
completeness of the per-subset interior solver.

Subsets are enumerated by cardinality.  The sub-problems of one cardinality
that have a closed form (one or two indices, order 2, or a diagonal
sub-tensor, which bitmasks of the parent's off-diagonal slices detect) are
solved as one batch on the parent tensor, and their complement slacks are
read from the parent contraction of that solve.  Only the remaining
sub-problems, of three or more indices and solved by multistart Newton,
build a principal sub-tensor.  So a dimension-2 tensor is solved exactly.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .eigen import VECTOR_DEDUP_TOL, EigenPair, SolverConfig, solve_closed_forms, solve_interior
from .tensor import Kind, Sphere, Tensor, embed

DEFAULT_SLACK_TOL = 1e-9
# A complement slack counts as negative for the `boundary` flag only below
# this multiple of its own magnitude: the rounding of a slack that is zero
# in exact arithmetic stays within a few ulps of that scale.
_BOUNDARY_EPS = 64 * np.finfo(np.float64).eps
# 2^16 subsets is the largest enumeration accepted by default.
DIM_GUARD = 16


class EmptySpectrumError(RuntimeError):
    """No Pareto eigenpair was found where at least one was requested."""


@dataclass(frozen=True)
class SubsetCertificate:
    """One admissible Pareto eigenpair, tied to the subset that produced it.

    `pair` is the interior eigenpair of the principal sub-tensor; `vector` is
    its zero-filled embedding (unit m-norm for H, unit 2-norm for Z).
    `slacks` holds the complement components of A y^{m-1} - value * rhs in
    ascending index order; `boundary` marks a slack inside (-slack_tol, 0)
    beyond the rounding of a zero slack, admitted by tolerance only.
    """

    subset: tuple[int, ...]
    pair: EigenPair
    vector: np.ndarray
    slacks: np.ndarray
    boundary: bool

    @property
    def value(self) -> float:
        return self.pair.value


@dataclass(frozen=True)
class ParetoSpectrum:
    """All certificates found for one kind, ordered by (|subset|, subset, value)."""

    kind: Kind
    items: tuple[SubsetCertificate, ...]
    min_value: float | None
    complete: bool

    def values(self) -> list[float]:
        return [c.value for c in self.items]


def complement_slacks(t: Tensor, subset, w: np.ndarray) -> np.ndarray:
    """Components of A y^{m-1} off the subset, for y the zero-filled embedding of w.

    For an interior eigenpair of the sub-tensor these are exactly the
    quantities whose nonnegativity makes the embedded pair admissible; the
    on-subset components already match value * rhs by the eigen equations.
    """
    sub = tuple(sorted(int(i) for i in subset))
    y = embed(np.asarray(w, dtype=np.float64), sub, t.dim)
    c = t.apply_contract(y)
    return np.delete(c, sub)


def pareto_spectrum(
    t: Tensor,
    kind: Kind,
    config: SolverConfig | None = None,
    slack_tol: float = DEFAULT_SLACK_TOL,
    dim_guard: int = DIM_GUARD,
) -> ParetoSpectrum:
    """Enumerate subsets in increasing cardinality and collect admissible pairs.

    Duplicate pairs reachable from several subsets keep the certificate of
    the smallest (then lexicographically first) subset.  The `complete` flag
    is True only when every sub-problem was solved by an exhaustive method
    (see `solved_exhaustively`: dimension 1 or 2, order 2, or diagonal,
    without a positive-dimensional family or a near-double root); any
    multistart sub-solve withdraws the claim.
    """
    Sphere(kind, t.order)  # rejects an unknown kind before any subset is solved
    if not slack_tol > 0:
        raise ValueError(f"slack_tol must be positive, got {slack_tol}")
    if t.dim > dim_guard:
        raise ValueError(
            f"dimension {t.dim} exceeds the enumeration guard {dim_guard}: "
            f"2^{t.dim} principal sub-tensors"
        )
    cfg = config if config is not None else SolverConfig()
    diagonal = t.diagonal_subsets() if t.order > 2 else None
    items: list[SubsetCertificate] = []
    # values and vectors of the kept items, in rows 0..len(items)-1
    values, vectors = np.empty(16), np.empty((16, t.dim))
    complete = True
    for card in range(1, t.dim + 1):
        subsets = np.array(list(itertools.combinations(range(t.dim), card)), dtype=np.intp)
        closed = np.ones(len(subsets), dtype=bool)
        if card > 2 and diagonal is not None:
            closed = diagonal[np.left_shift(1, subsets).sum(axis=1)]
        # (subset, pair, contraction of t at the pair's zero-filled vector or None)
        found, exhaustive = solve_closed_forms(t, kind, subsets[closed], cfg)
        complete &= exhaustive
        for subset in map(tuple, subsets[~closed].tolist()):
            complete = False  # multistart Newton carries no completeness claim
            found.extend((subset, pair, None) for pair in solve_interior(t.principal_subtensor(subset), kind, cfg))
        found.sort(key=lambda f: f[0])  # stable, so each subset keeps its value order
        for subset, pair, contraction in found:
            if contraction is None:
                slacks = complement_slacks(t, subset, pair.vector)
            else:
                slacks = np.delete(contraction, subset)
            if slacks.size and float(slacks.min()) < -slack_tol:
                continue
            y = embed(pair.vector, subset, t.dim)
            cert = SubsetCertificate(
                subset=subset, pair=pair, vector=y, slacks=slacks, boundary=_boundary(t, subset, y, slacks)
            )
            n = len(items)
            if not _duplicates_earlier(cert, values[:n], vectors[:n], cfg.dedup_tol):
                if n == values.size:
                    values, vectors = np.resize(values, 2 * n), np.resize(vectors, (2 * n, t.dim))
                values[n], vectors[n] = cert.value, cert.vector
                items.append(cert)
    min_value = min((c.value for c in items), default=None)
    return ParetoSpectrum(kind=kind, items=tuple(items), min_value=min_value, complete=complete)


def _boundary(t: Tensor, subset: tuple[int, ...], y: np.ndarray, slacks: np.ndarray) -> bool:
    """Whether a complement slack at the zero-filled y is negative beyond its rounding.

    A slack that is zero in exact arithmetic comes out as a few ulps of
    either sign; only one below -_BOUNDARY_EPS times the magnitude of its
    own monomials counts.
    """
    if not slacks.size or slacks.min() >= 0.0:
        return False
    scale = np.delete(t.contract_magnitude_batch(y[None, :])[0], subset)
    return bool((slacks < -_BOUNDARY_EPS * scale).any())


def _duplicates_earlier(cert: SubsetCertificate, values: np.ndarray, vectors: np.ndarray, dedup_tol: float) -> bool:
    """Whether a kept item, given by its value and embedded vector, matches `cert`."""
    near = np.flatnonzero(np.abs(values - cert.value) <= dedup_tol)
    return bool((np.abs(vectors[near] - cert.vector).max(axis=1) <= VECTOR_DEDUP_TOL).any())


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of checking a claimed Pareto pair against the definition.

    Violations: `nonneg` is the largest negative part of y; `value_eq` is the
    scalar equation residual relative to max(1, |lhs|, |rhs|); `slack` is the
    largest negative component of A y^{m-1} - value * rhs(y).  The first
    condition whose violation exceeds the tolerance is reported.
    """

    ok: bool
    failed_condition: str | None
    worst_violation: float
    nonneg_violation: float
    value_violation: float
    slack_violation: float
    slacks: np.ndarray


def verify_pareto_pair(t: Tensor, value: float, y: np.ndarray, kind: Kind, tol: float = 1e-8) -> VerifyReport:
    """Check the defining inequalities of a Pareto pair at tolerance `tol`.

    Scale-invariant in y by design of the violations; y must be nonzero.
    """
    sph = Sphere(kind, t.order)
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (t.dim,):
        raise ValueError(f"vector shape {y.shape} incompatible with dimension {t.dim}")
    if not np.isfinite(y).all():
        raise ValueError("vector has non-finite entries")
    if np.abs(y).max() == 0.0:
        raise ValueError("vector must be nonzero")
    value = float(value)

    nonneg_violation = float(max(0.0, -y.min()))

    lhs = t.apply_full(y)
    rhs = value * float(sph.level(y)) ** (t.order / sph.k)
    value_violation = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))

    slacks = t.apply_contract(y) - value * sph.rhs(y)
    slack_violation = float(max(0.0, -slacks.min()))

    failed = None
    if nonneg_violation > tol:
        failed = "nonnegativity"
    elif value_violation > tol:
        failed = "value-equation"
    elif slack_violation > tol:
        failed = "complement-slacks"
    return VerifyReport(
        ok=failed is None,
        failed_condition=failed,
        worst_violation=float(max(nonneg_violation, value_violation, slack_violation)),
        nonneg_violation=nonneg_violation,
        value_violation=float(value_violation),
        slack_violation=slack_violation,
        slacks=slacks,
    )


def min_pareto(
    t: Tensor,
    kind: Kind,
    config: SolverConfig | None = None,
    slack_tol: float = DEFAULT_SLACK_TOL,
) -> tuple[float, np.ndarray]:
    """Smallest Pareto eigenvalue found, with its eigenvector.

    For symmetric tensors this equals the minimum of A x^m over the
    nonnegative part of the unit sphere of the matching norm; for
    non-symmetric input that identity has no guarantee, so a warning is
    issued and the raw spectrum minimum is returned.
    """
    if not t.symmetric:
        warnings.warn(
            "minimum Pareto eigenvalue of a non-symmetric tensor does not certify "
            "the constrained polynomial minimum",
            stacklevel=2,
        )
    spec = pareto_spectrum(t, kind, config=config, slack_tol=slack_tol)
    if not spec.items:
        raise EmptySpectrumError(
            f"no Pareto {kind}-eigenpair found (dimension {t.dim}, order {t.order})"
        )
    best = min(spec.items, key=lambda c: c.value)
    return best.value, best.vector
