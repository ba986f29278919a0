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

Subsets are enumerated by cardinality.  All sub-problems of one cardinality
go to `solve_closed_forms`, whose route table (`eigen._closed_form`) solves
the ones with an exact route (one to three indices, order 2, or a diagonal
sub-tensor) as one batch on the parent tensor and marks the others for
multistart; only those build a principal sub-tensor, solved by
`solve_interior`.  Both give arrays of supports, vectors, values, residuals
and A y^{m-1} at the zero-filled vectors y, whose off-support entries are
the complement slacks.  One mask admits rows, and only admitted rows become
certificates.  A tensor of dimension 3 or less is solved exactly, up to the
withdrawals of `solved_exhaustively`.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .eigen import VECTOR_DEDUP_TOL, EigenPair, SolverConfig, solve_closed_forms, solve_interior
from .tensor import Kind, Sphere, Tensor, embed, embed_rows

DEFAULT_SLACK_TOL = 1e-9
# A complement slack counts as negative for the `boundary` flag only below
# this multiple of its own magnitude: the rounding of a slack that is zero
# in exact arithmetic stays within a few ulps of that scale.
_BOUNDARY_EPS = 64 * np.finfo(np.float64).eps
# 2^16 subsets is the largest enumeration accepted; nothing overrides it.
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
) -> ParetoSpectrum:
    """Enumerate subsets in increasing cardinality and collect admissible pairs.

    Duplicate pairs reachable from several subsets keep the certificate of
    the smallest (then lexicographically first) subset.  The `complete` flag
    is True only when the route table marks every sub-problem exhaustive
    (see `solved_exhaustively`); any multistart sub-solve withdraws the
    claim.
    """
    Sphere(kind, t.order)  # rejects an unknown kind before any subset is solved
    if not slack_tol > 0:
        raise ValueError(f"slack_tol must be positive, got {slack_tol}")
    if t.dim > DIM_GUARD:
        raise ValueError(
            f"dimension {t.dim} exceeds the enumeration guard {DIM_GUARD}: "
            f"2^{t.dim} principal sub-tensors"
        )
    cfg = config if config is not None else SolverConfig()
    items: list[SubsetCertificate] = []
    complete = True
    for card in range(1, t.dim + 1):
        subsets = np.array(list(itertools.combinations(range(t.dim), card)), dtype=np.intp)
        (S, W, L, res, C), exhaustive, multistart = solve_closed_forms(t, kind, subsets, cfg)
        complete &= bool(exhaustive.all())
        newton = subsets[multistart]
        if newton.size:
            found = [(s, pair) for s in newton for pair in solve_interior(t.principal_subtensor(s), kind, cfg)]
            NS = np.array([s for s, _ in found], dtype=np.intp).reshape(-1, card)
            NW = np.array([pair.vector for _, pair in found]).reshape(-1, card)
            S, W = np.concatenate([S, NS]), np.concatenate([W, NW])
            L = np.concatenate([L, [pair.value for _, pair in found]])
            res = np.concatenate([res, [pair.residual for _, pair in found]])
            C = np.concatenate([C, t.contract_batch(embed_rows(NW, NS, t.dim))])
            order = np.lexsort(S.T[::-1])  # stable, so each subset keeps its value order
            S, W, L, res, C = S[order], W[order], L[order], res[order], C[order]
        Y = embed_rows(W, S, t.dim)
        # every support entry exceeds POS_TOL, so the zeros of Y are the complement
        slacks = C[Y == 0.0].reshape(len(L), t.dim - card)
        keep = np.flatnonzero(~(slacks < -slack_tol).any(axis=1))
        suspect = W.min(axis=1) <= VECTOR_DEDUP_TOL  # the only rows `_duplicates_kept` can match
        subs, values, residuals = S.tolist(), L.tolist(), res.tolist()
        for r, boundary in zip(keep.tolist(), _boundary(t, Y[keep], slacks[keep]).tolist()):
            if not (suspect[r] and _duplicates_kept(items, values[r], Y[r], cfg.dedup_tol)):
                pair = EigenPair(values[r], W[r], kind, residuals[r])
                items.append(SubsetCertificate(tuple(subs[r]), pair, Y[r], slacks[r], boundary))
    min_value = min((c.value for c in items), default=None)
    return ParetoSpectrum(kind=kind, items=tuple(items), min_value=min_value, complete=complete)


def _boundary(t: Tensor, Y: np.ndarray, slacks: np.ndarray) -> np.ndarray:
    """Per zero-filled row of Y, whether a complement slack is negative beyond its rounding.

    slacks[r] holds the components of A y^{m-1} at the zeros of Y[r].  A
    slack that is zero in exact arithmetic comes out as a few ulps of either
    sign; only one below -_BOUNDARY_EPS times the magnitude of its own
    monomials counts.
    """
    flag = np.zeros(len(Y), dtype=bool)
    neg = np.flatnonzero((slacks < 0.0).any(axis=1))
    if neg.size:
        scale = t.contract_magnitude_batch(Y[neg])[Y[neg] == 0.0].reshape(slacks[neg].shape)
        flag[neg] = (slacks[neg] < -_BOUNDARY_EPS * scale).any(axis=1)
    return flag


def _duplicates_kept(items: list[SubsetCertificate], value: float, y: np.ndarray, dedup_tol: float) -> bool:
    """Whether a kept item lies within dedup_tol of `value` and VECTOR_DEDUP_TOL of `y`.

    Only a pair with a support entry of at most VECTOR_DEDUP_TOL can match:
    pairs of one support are deduplicated by the solvers, and an earlier
    item of another support lacks an index of the pair's support, where the
    pair's entry faces a zero.
    """
    return any(abs(c.value - value) <= dedup_tol and np.abs(c.vector - y).max() <= VECTOR_DEDUP_TOL for c in items)


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

    Scale-invariant in y by design of the violations.  value must be finite,
    and y finite and nonzero.
    """
    sph = Sphere(kind, t.order)
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (t.dim,):
        raise ValueError(f"vector shape {y.shape} incompatible with dimension {t.dim}")
    if not np.isfinite(y).all():
        raise ValueError("vector has non-finite entries")
    value = float(value)
    if not np.isfinite(value):
        raise ValueError("value must be finite")
    if np.abs(y).max() == 0.0:
        raise ValueError("vector must be nonzero")

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
