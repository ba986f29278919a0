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

`solve_closed_forms` routes the subsets of each cardinality through the
route table (`eigen._closed_form`), which solves the sub-problems with an
exact route (order 2 or a diagonal sub-tensor, every singleton among them,
or two or three coupled indices) on the parent tensor and marks the others
for multistart; only those build a principal sub-tensor, solved by
`solve_interior`.  The exact candidates of all cardinalities take one
finalize pass as zero-filled vectors y on the parent, flushed whenever
they fill a batch, and come back with A y^{m-1}, whose off-support entries
are the complement slacks.  The multistart pairs of the batch join them
and one mask admits rows.  The admitted rows of all batches, concatenated
once, lose their cross-support duplicates in one pass and are the arrays
of `ParetoSpectrum`, which builds the certificates from them.  A tensor of dimension 3 or less is
solved exactly, up to the withdrawals of `solved_exhaustively`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .eigen import VECTOR_DEDUP_TOL, EigenPair, SolverConfig, _support_key, solve_closed_forms, solve_interior
from .tensor import Kind, Sphere, Tensor, embed

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
    """All certificates found for one kind, ordered by (|subset|, subset, value).

    Row r of the arrays is items[r]: its zero-filled vector, nonzero on the
    support, value, residual, A y^{m-1} - value * rhs(y) with 0 on the
    support, and boundary flag.  `min_value` is the first smallest value.
    """

    kind: Kind
    vectors: np.ndarray
    eigenvalues: np.ndarray
    residuals: np.ndarray
    slacks: np.ndarray
    boundary: np.ndarray
    complete: bool
    items: tuple[SubsetCertificate, ...] = field(init=False)

    def __post_init__(self) -> None:
        # one reshape per support size; certificates hold views of the rows
        on, n = self.vectors != 0.0, self.vectors.shape[1]
        size, items = on.sum(axis=1), []
        for c in np.flatnonzero(np.bincount(size)).tolist():
            a, b = np.searchsorted(size, [c, c + 1]).tolist()
            Y, at = self.vectors[a:b], on[a:b]
            rows = zip(np.nonzero(at)[1].reshape(-1, c).tolist(), Y[at].reshape(-1, c), Y,
                       self.slacks[a:b][~at].reshape(b - a, n - c), self.eigenvalues[a:b].tolist(),
                       self.residuals[a:b].tolist(), self.boundary[a:b].tolist())
            items.extend(SubsetCertificate(tuple(subset), EigenPair(value, w, self.kind, residual), y, off, flag)
                         for subset, w, y, off, value, residual, flag in rows)
        object.__setattr__(self, "items", tuple(items))

    @property
    def min_value(self) -> float | None:
        return float(self.eigenvalues[self.eigenvalues.argmin()]) if self.eigenvalues.size else None

    def values(self) -> list[float]:
        return self.eigenvalues.tolist()


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
    complete, admitted = True, []
    for (Y, L, res, slacks), exhaustive, multistart in solve_closed_forms(t, kind, cfg):
        complete &= exhaustive
        found = [(s, pair) for s in multistart for pair in solve_interior(t.principal_subtensor(s), kind, cfg)]
        if found:
            NY = np.array([embed(pair.vector, s, t.dim) for s, pair in found])
            Y, slacks = np.concatenate([Y, NY]), np.concatenate([slacks, t.contract_batch(NY)])
            L = np.concatenate([L, [pair.value for _, pair in found]])
            res = np.concatenate([res, [pair.residual for _, pair in found]])
            order = np.argsort(_support_key(Y != 0.0), kind="stable")  # each subset keeps its value order
            Y, L, res, slacks = Y[order], L[order], res[order], slacks[order]
        # A y^{m-1} holds the slacks off the support, which is where Y is
        # nonzero: every support entry exceeds POS_TOL
        slacks[Y != 0.0] = 0.0
        keep = ~(slacks < -slack_tol).any(axis=1)
        Y, slacks = Y[keep], slacks[keep]
        admitted.append((Y, L[keep], res[keep], slacks, _boundary(t, Y, slacks)))
    # the batches come in subset order, so the rows are sorted by support
    Y, L, res, slacks, boundary = (np.concatenate(arrays) for arrays in zip(*admitted))
    del admitted  # the batches go before the certificates are built
    # A row is dropped when it lies within dedup_tol in value and
    # VECTOR_DEDUP_TOL in vector of an earlier kept row.  The solvers
    # deduplicate each support, and an earlier row of another support is
    # zero at an index of the row's support, so only a row with a support
    # entry of at most VECTOR_DEDUP_TOL can match; only those are compared.
    kept = np.ones(L.size, dtype=bool)
    for r in np.flatnonzero(np.where(Y != 0.0, Y, 1.0).min(axis=1) <= VECTOR_DEDUP_TOL).tolist():
        near = np.flatnonzero(kept[:r] & (np.abs(L[:r] - L[r]) <= cfg.dedup_tol))
        kept[r] = not (np.abs(Y[near] - Y[r]).max(axis=1) <= VECTOR_DEDUP_TOL).any()
    if not kept.all():
        Y, L, res, slacks, boundary = Y[kept], L[kept], res[kept], slacks[kept], boundary[kept]
    return ParetoSpectrum(kind, Y, L, res, slacks, boundary, complete)


def _boundary(t: Tensor, Y: np.ndarray, slacks: np.ndarray) -> np.ndarray:
    """Per zero-filled row of Y, whether a complement slack is negative beyond its rounding.

    slacks[r] holds the components of A y^{m-1} at the zeros of Y[r], and 0
    on its support.  A slack that is zero in exact arithmetic comes out as
    a few ulps of either sign; only one below -_BOUNDARY_EPS times the
    magnitude of its own monomials counts.
    """
    flag = np.zeros(len(Y), dtype=bool)
    neg = np.flatnonzero((slacks < 0.0).any(axis=1))
    if neg.size:
        flag[neg] = (slacks[neg] < -_BOUNDARY_EPS * t.contract_magnitude_batch(Y[neg])).any(axis=1)
    return flag


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

    c, level = t.apply_contract(y), sph.level(y)
    lhs = float(y @ c)  # A y^m, as `Tensor.apply_full` evaluates it
    rhs = value * sph.norm_power(float(level))
    slacks = c - value * sph.rhs(y, level)
    # in the order of the report's fields, which is the order of precedence
    violations = {
        "nonnegativity": float(max(0.0, -y.min())),
        "value-equation": abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)),
        "complement-slacks": float(max(0.0, -slacks.min())),
    }
    failed = next((name for name, v in violations.items() if v > tol), None)
    return VerifyReport(failed is None, failed, max(violations.values()), *violations.values(), slacks)


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
    if spec.min_value is None:
        raise EmptySpectrumError(
            f"no Pareto {kind}-eigenpair found (dimension {t.dim}, order {t.order})"
        )
    return spec.min_value, spec.vectors[spec.eigenvalues.argmin()]
