"""Interior eigenpair solvers for the two tensor eigenvalue kinds.

An interior H-pair of an order-m tensor B (dimension d) is a solution of

    B w^{m-1} = lambda w^{[m-1]},   w > 0,   sum_i w_i^m = 1,

and an interior Z-pair solves

    B w^{m-1} = mu (w.w)^{(m-2)/2} w,   w > 0,   sum_i w_i^2 = 1.

Both are square polynomial systems in (w, lambda) once the normalization row
is appended.  One route table, `_closed_form`, decides how each sub-problem
is solved, and special structure is solved exactly:

  * m = 2: dense eigendecomposition; the two kinds coincide.
  * diagonal tensors, m >= 3, any d: closed forms (H-pairs exist only when
    all diagonal entries are equal; Z-pairs exactly when they share a
    strict sign, with w_i proportional to |d_i|^(-1/(m-2))).
  * d = 2, m >= 3, not diagonal: with w = (1, s) the system reduces to one
    univariate polynomial of degree <= 2(m-1) (H) or <= m (Z), the generic
    eigenvalue counts for d = 2, whose roots come from a companion-matrix
    eigensolve.
  * d = 3, m >= 3, not diagonal: with w = (1, s, t) in each of three charts
    the system reduces to two polynomials in (s, t).  Their Sylvester
    resultant in s, a matrix polynomial in t, is linearized by a block
    companion matrix; its eigenvalues give t and its null vectors s.  The
    roots kept across the charts must number c (m-1)^(c-1) (H) or
    ((m-1)^c - 1) / (m-2) (Z) at c = 3, the generic eigenvector counts;
    otherwise the claim is withdrawn and the sub-problem also runs
    multistart (below), both candidate sets merging.

These exact routes also solve all principal sub-tensors of one parent at
once (`solve_closed_forms`), without building one: the candidates of every
size become zero-filled rows on the parent, and one `_finalize` pass reads
each sub-problem off the parent's contraction there, its polish gathering
the rows of each support size.  The matrix and diagonal roots are exact up
to rounding and skip the polish.

The route table runs no multistart: it marks the rows that need it (d >= 4
and not diagonal, or an uncertified d = 3), and `solve_interior` is the one
place that runs it, a damped Newton iteration from many random starts at
once; the whole batch moves in lockstep through vectorized contraction
kernels.  As in `minimize`, the loop carries only its running members and
returns the roots in start order.  Multistart is a heuristic: it can miss
roots, so no completeness claim is attached to its output.

The damping is a backtracking line search over the step lengths 2^-r,
r = 0..6, and each member takes the first one that cuts its residual
enough (Armijo).  The ladder ends where the stagnation rule would take
over: a member is dropped when it fails to cut its residual by 10% within
10 successive iterations, and to first order steps shorter than 2^-6 cannot
do that, so a member that passes no rung up to 2^-6 is dropped at once.
`_backtrack` tries a block of rungs per call instead of one: every pending
member gets the next B // pending rungs (at least one), B being the start
count, so a call never holds more rows than the first full evaluation, and
a straggler walks the whole ladder in one or two calls instead of one call
per halving.  It returns the members that pass, with their accepted trial
rows, which the loop carries on: the steps a rung-by-rung loop would take.
`minimize` uses the same helper for its projected-gradient backtracking.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .tensor import Kind, Sphere, Tensor, embed_rows

# A candidate is interior when every entry of its unit vector exceeds this.
POS_TOL = 1e-8
# Two pairs are duplicates when their values differ by at most the value
# dedup tolerance and their vectors by at most this much in infinity norm.
VECTOR_DEDUP_TOL = 1e-6

# Cells (candidate rows x per-row Jacobian and gather cells) in one batch of
# closed-form sub-problems: 8 MB per float array of that size.
_BATCH_CELLS = 1 << 20
# Newton iterations per multistart member.
_MAX_ITERS = 200
# A member that fails to cut its residual to _STAGNATION_CUT of its best
# within _STAGNATION_WINDOW successive iterations is cycling, not
# converging; Newton inside a basin contracts much faster, so such members
# are dropped early.
_STAGNATION_CUT = 0.9
_STAGNATION_WINDOW = 10
# Line search halvings before a Newton member is abandoned.  To first order
# a step of length a scales the residual by (1 - a), so steps shorter than
# 1 - cut^(1/window) = 0.0105 cannot make the cut within the window: the
# ladder ends at the last rung above that, 2^-6.
_MAX_HALVINGS = int(-np.log2(1 - _STAGNATION_CUT ** (1 / _STAGNATION_WINDOW)))
# The hidden variable t of `_three_index` is rotated by this fixed angle,
# t = (tau cos a - sin a) / (tau sin a + cos a): the kept roots, t in [0, 1],
# land at |tau| <= 0.43 and t = infinity at tau = 2.37.  Any angle whose
# cotangent is not a root would do; 0.3, 0.7, -0.8, -1.0 and 1.2 gave the
# same output on 1,600 dense sub-problems.
_ROTATION = -0.4
# The charts of `_three_index`: (pivot p, q, r), with w_p = 1, w_q = s, w_r = t.
_CHARTS = np.array([[0, 1, 2], [1, 0, 2], [2, 0, 1]])
# Relative margin of the pivot rule that keeps each root of `_three_index`
# in exactly one chart.
_PIVOT_MARGIN = 1e-6
# A leading coefficient of `_three_index` counts as singular when its
# smallest singular value is at most _SINGULAR times its largest, and a
# Sylvester null space as more than one-dimensional when its second smallest
# one is at most _NULL_GAP times the largest.  A double eigenvalue of the
# companion comes back split by about sqrt(eps) = 1.5e-8, so the gap of
# such a pair is near that; on 1,600 dense sub-problems the gap of a simple
# root was 7.8e-6 or more.
_SINGULAR = 1e-12
_NULL_GAP = 1e-7
# Extra full Newton steps applied to accepted roots after renormalization.
_POLISH_STEPS = 2
# A root is genuine only if every eigen row cancels to this fraction of the
# magnitude of its own monomials; near-boundary pseudo-roots have rows that
# are small in absolute terms but O(1) relative to their shrinking scale.
_REL_ROOT_TOL = 1e-6


@dataclass(frozen=True)
class SolverConfig:
    """Multistart size, residual tolerance and seed shared by the solvers.

    starts=None means 200 per dimension of the tensor actually being solved.
    A root is accepted when its normalization row is within tol and each
    eigen row within tol times the magnitude of its terms, where that
    magnitude exceeds 1.
    """

    starts: int | None = None
    tol: float = 1e-10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.starts is not None and self.starts < 1:
            raise ValueError(f"starts must be >= 1, got {self.starts}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")

    @property
    def dedup_tol(self) -> float:
        """Value tolerance of the pair dedup: 1e-8, or tol when larger.

        Converged copies of one root agree in value only to about tol.
        """
        return max(1e-8, self.tol)

    def resolve_starts(self, dim: int) -> int:
        return self.starts if self.starts is not None else 200 * dim


@dataclass(frozen=True)
class EigenPair:
    """One eigenvalue with a unit eigenvector (m-norm for H, 2-norm for Z)."""

    value: float
    vector: np.ndarray
    kind: Kind
    residual: float


def residual(t: Tensor, pair: EigenPair) -> float:
    """Infinity norm of the defining system at the stored pair.

    Covers both the eigenvalue equation and the unit normalization row.
    """
    W = np.asarray(pair.vector, dtype=np.float64)[None, :]
    return float(np.abs(_system_eval(t, Sphere(pair.kind, t.order), W, np.array([pair.value]))).max())


def solve_interior(t: Tensor, kind: Kind, config: SolverConfig | None = None) -> list[EigenPair]:
    """All interior pairs of the kind found for `t`, deduplicated and sorted.

    `_closed_form` routes the whole index set; when it marks the row for
    multistart, the converged Newton members join its exact candidates (if
    any) in one `_finalize`.
    """
    sph = Sphere(kind, t.order)
    cfg = config if config is not None else SolverConfig()
    _, W, L, polish, _, multistart = _closed_form(t, sph, np.arange(t.dim)[None, :], cfg)
    if multistart[0]:
        NL, NW = _newton_candidates(t, sph, cfg)
        W, L, polish = np.concatenate([W, NW]), np.concatenate([L, NL]), np.r_[polish, np.ones(NL.size, dtype=bool)]
    interior = W.min(axis=1) > POS_TOL  # a zero entry would read as off the support
    W, L, res, _ = _finalize(t, sph, W[interior], L[interior], polish[interior], cfg)
    return [EigenPair(float(v), w.copy(), kind, float(r)) for v, w, r in zip(L, W, res)]


def solve_closed_forms(
    t: Tensor, kind: Kind, config: SolverConfig | None = None
) -> Iterator[tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], bool, list[np.ndarray]]]:
    """Interior pairs of all principal sub-tensors of `t` that have an exact route.

    The subsets of each size, sorted index sets in lexicographic order, are
    routed by `_closed_form` on `t`, without building a sub-tensor, in
    consecutive chunks of at most _BATCH_CELLS cells of candidate rows,
    table scans and linearizations.  The positive candidates of all sizes
    collect as zero-filled rows on `t` and take one `_finalize` whenever the
    next chunk would carry them past _BATCH_CELLS cells, and at the end.
    Yields per batch ((Y, L, residual, C), exhaustive, multistart) in subset
    order: the rows of `_finalize`, whether every sub-problem of the batch
    was solved exhaustively, and the subsets of the batch marked for
    multistart, which contribute no pairs here: the caller solves them with
    `solve_interior`.
    """
    sph = Sphere(kind, t.order)
    cfg = config if config is not None else SolverConfig()
    # Per row, t's kernels hold the placed dim^2 Jacobian, its touched
    # cells, and one monomial product (and gather) per kernel
    mono, cells, _ = t._jacobian_tables
    row_cells = t.dim**2 + cells.size + mono.shape[0] + t._mono.shape[0]
    batch, rows, exhaustive, multistart = [], 0, True, []

    def flush():  # the batch leaves the generator before the caller takes it on
        Y, L, polish = (np.concatenate(arrays) for arrays in zip(*batch))
        batch.clear()
        return _finalize(t, sph, Y, L, polish, cfg)

    for size in range(1, t.dim + 1):
        flat = itertools.chain.from_iterable(itertools.combinations(range(t.dim), size))
        subsets = np.array(list(flat), dtype=np.intp).reshape(-1, size)
        # a matrix sub-problem gives up to `size` rows, a 2-index one up to
        # 2(m-1), a 3-index one up to the generic root count and any other
        # at most one
        per_subset = size if t.order == 2 else 2 * (t.order - 1) if size == 2 else 1
        # the mask gather of `_off_diagonal`: order cells per nonzero cell of t._P
        subset_cells = t.order * np.count_nonzero(t._P) if t.order > 2 else 0
        if size == 3 and t.order > 2:
            # per 3-index row one gather of the mask at the monomials' m-1
            # indices, then three charts: the Sylvester coefficients before
            # and after the rotation, and the complex (two cells a number)
            # companion matrix of size ns D
            ns, D = _sylvester_shape(sph)
            per_subset = _generic_count(sph, 3)
            subset_cells += (t.order - 1) * t._mono.shape[0] + 3 * (2 * ns * ns * (D + 1) + 2 * (ns * D) ** 2)
        step = max(1, _BATCH_CELLS // (per_subset * row_cells + subset_cells))
        for lo in range(0, subsets.shape[0], step):
            chunk = subsets[lo : lo + step]
            R, W, L, polish, done, newton = _closed_form(t, sph, chunk, cfg)
            keep = ~newton[R] & (W.min(axis=1) > POS_TOL)  # zero-filling keeps only positive supports
            # a subset marked for multistart counts as one row of the batch
            more = np.count_nonzero(keep) + np.count_nonzero(newton)
            if rows and (rows + more) * row_cells > _BATCH_CELLS:
                yield flush(), exhaustive, multistart
                rows, exhaustive, multistart = 0, True, []
            batch.append((embed_rows(W[keep], chunk[R[keep]], t.dim), L[keep], polish[keep]))
            rows, exhaustive = rows + more, exhaustive and bool(done.all())
            multistart.extend(chunk[newton])
    yield flush(), exhaustive, multistart


def solved_exhaustively(t: Tensor, kind: Kind, config: SolverConfig | None = None) -> bool:
    """True when solve_interior returns every interior pair, not a heuristic subset.

    Reads the flag of `_closed_form` on the whole index set, which runs no
    multistart: a tensor that it marks for multistart is not exhaustive,
    and the exact routes withdraw the claim where the interior pairs may
    form a positive-dimensional family (the solver reports at most one
    representative) or where a near-double root or a short root count
    leaves the output to rounding; see `_closed_form` and its routes.
    """
    cfg = config if config is not None else SolverConfig()
    return bool(_closed_form(t, Sphere(kind, t.order), np.arange(t.dim)[None, :], cfg)[4][0])


def _system_eval(t: Tensor, sph: Sphere, W: np.ndarray, L: np.ndarray, C: np.ndarray | None = None) -> np.ndarray:
    """Stacked residual F(w, value): eigen rows then the normalization row.

    C is t.contract_batch(W) when the caller already has it.
    """
    F = np.empty((W.shape[0], W.shape[1] + 1))
    level = sph.level(W)
    F[:, :-1] = (t.contract_batch(W) if C is None else C) - L[:, None] * sph.rhs(W, level)
    F[:, -1] = level - 1.0
    return F


def _system_jac(t: Tensor, sph: Sphere, W: np.ndarray, L: np.ndarray, JC: np.ndarray | None = None) -> np.ndarray:
    """Jacobian of F; JC is t.contract_jacobian_batch(W) when the caller already has it."""
    B, d = W.shape
    J = np.zeros((B, d + 1, d + 1))
    J[:, :d, :d] = (t.contract_jacobian_batch(W) if JC is None else JC) - L[:, None, None] * sph.rhs_jacobian(W)
    J[:, :d, d] = -sph.rhs(W)
    J[:, d, :d] = sph.k * W ** (sph.k - 1)
    return J


# -- principal sub-problems on the parent tensor ------------------------------
#
# Row r of a support array S (R, c) names the c indices of t on which row r
# of W lives; the vector of t is zero elsewhere.  The interior system of the
# principal sub-tensor on S[r] is then rows S[r] of t's contraction and the
# S[r] x S[r] block of its Jacobian at that vector: every slice with an index
# outside S[r] has a zero monomial there.


def _support_system(
    t: Tensor, sph: Sphere, S: np.ndarray, W: np.ndarray, L: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """F of the sub-problems on S at (W, L), and t's contraction at the zero-filled rows."""
    C = t.contract_batch(embed_rows(W, S, t.dim))
    return _system_eval(t, sph, W, L, np.take_along_axis(C, S, axis=1)), C


def _support_jac(t: Tensor, sph: Sphere, S: np.ndarray, W: np.ndarray, L: np.ndarray) -> np.ndarray:
    JC = t.contract_jacobian_batch(embed_rows(W, S, t.dim))
    return _system_jac(t, sph, W, L, JC[np.arange(W.shape[0])[:, None, None], S[:, :, None], S[:, None, :]])


# -- closed-form routes -------------------------------------------------------


def _matrix(t: Tensor) -> np.ndarray:
    """Dense form of an order-2 tensor."""
    M = np.zeros((t.dim, t.dim))
    M[:, t._mono[:, 0]] = t._P.T
    return M


def _off_diagonal(t: Tensor, member: np.ndarray) -> np.ndarray:
    """Per row of the support mask `member`, whether an off-diagonal slice of t has all its indices in the row.

    The rows without one give diagonal principal sub-tensors: one gather of
    order cells per off-diagonal slice and row.
    """
    return member[:, t._off_diagonal_slices].all(axis=2).any(axis=1)


def _closed_form(
    t: Tensor, sph: Sphere, subsets: np.ndarray, cfg: SolverConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The route table: exact candidates of the principal sub-tensors on the rows of `subsets`.

    Returns (R, W, L, polish, exhaustive, multistart): per candidate its row
    R in `subsets`, its vector and value and whether it still needs
    `_polish`; per row whether its sub-problem is solved exhaustively and
    whether it needs multistart, which is left to the caller.  All rows
    have one size c and are routed so:
      * order 2: eigendecomposition of the stacked principal sub-matrices;
        the H and Z systems coincide.  Eigenvectors are signed to a positive
        largest entry, and complex or non-positive ones are dropped.  The
        claim is withdrawn when two eigenvalues lie within the tolerance.
      * order >= 3: one support mask of the rows feeds `_off_diagonal`,
        which splits them, and the routes.  Diagonal rows (singletons too)
        take `_diagonal`.  The others take `_two_index` at c = 2 and
        `_three_index` at c = 3, whose uncertified rows are marked for
        multistart with their exact candidates still returned; at c >= 4
        they are marked for multistart and get no candidate.
    The matrix and diagonal candidates are exact up to rounding and skip
    the polish; the 2- and 3-index ones come from companion eigenvalues and
    take it.  A row marked for multistart is not exhaustive.
    """
    N, c = subsets.shape
    exhaustive, multistart = np.ones(N, dtype=bool), np.zeros(N, dtype=bool)
    if t.order == 2:
        M = _matrix(t)[subsets[:, :, None], subsets[:, None, :]]
        if t.symmetric:
            ev, vecs = np.linalg.eigh(M)
            real = np.ones((N, c), dtype=bool)
        else:
            ev, cvecs = np.linalg.eig(M)
            real = (np.abs(ev.imag) <= 1e-10) & (np.abs(cvecs.imag).max(axis=1) <= 1e-10)
            vecs = cvecs.real
        gaps = np.abs(ev[:, :, None] - ev[:, None, :]) + np.diag(np.full(c, np.inf))
        exhaustive = gaps.min(axis=(1, 2)) > cfg.tol * np.maximum(1.0, np.abs(ev).max(axis=1))
        V = np.swapaxes(vecs, 1, 2)  # V[s, k] is eigenvector k of sub-matrix s
        lead = np.take_along_axis(V, np.abs(V).argmax(axis=2)[:, :, None], axis=2)
        V = np.where(lead < 0, -V, V)
        rows, k = np.nonzero(real & (V.min(axis=2) > POS_TOL))
        return rows, V[rows, k], ev.real[rows, k], np.zeros(rows.size, dtype=bool), exhaustive, multistart
    member = np.zeros((N, t.dim), dtype=bool)  # the support mask: row r holds subsets[r]
    member[np.arange(N)[:, None], subsets] = True
    off = _off_diagonal(t, member)
    diagonal, rest = np.flatnonzero(~off), np.flatnonzero(off)
    parts = [(rest[:0], np.empty((0, c)), np.empty(0), np.empty(0, dtype=bool))]
    if diagonal.size:
        R, W, L, exhaustive[diagonal] = _diagonal(t, sph, subsets[diagonal])
        parts.append((diagonal[R], W, L, np.zeros(R.size, dtype=bool)))
    if c > 3:
        exhaustive[rest], multistart[rest] = False, True
    elif rest.size:
        R, W, L, exhaustive[rest] = (_two_index if c == 2 else _three_index)(t, sph, subsets[rest], member[rest], cfg)
        parts.append((rest[R], W, L, np.ones(R.size, dtype=bool)))
        if c == 3:
            multistart[rest] = ~exhaustive[rest]
    R, W, L, polish = (np.concatenate(arrays) for arrays in zip(*parts))
    return R, W, L, polish, exhaustive, multistart


def _diagonal(t: Tensor, sph: Sphere, subsets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The `_closed_form` route for diagonal principal sub-tensors of order m >= 3.

    On a strictly positive vector the i-th eigen row reads
    d_i w_i^{m-1} = value * rhs_i(w).  For H this forces d_i = lambda for
    every i, so a pair exists only when all entries coincide, and then the
    whole sphere is a family.  For Z it forces d_i w_i^{m-2} = mu for all i,
    solvable exactly when the entries share a strict sign, with w_i
    proportional to |d_i|^(-1/(m-2)); when all entries are zero every vector
    pairs with 0.  A family (not the point w = (1) of one index) is reported
    by one representative and withdraws the claim.  Returns (R, W, L,
    exhaustive) as `_two_index` does.
    """
    N, c = subsets.shape
    m = t.order
    d = t.diagonal_entries()[subsets]
    if sph.k == m:  # H
        family = (d == d[:, :1]).all(axis=1)
        rows = np.flatnonzero(family)
        W, L, exhaustive = np.full((rows.size, c), c ** (-1.0 / m)), d[rows, 0], ~family
    else:
        zero = (d == 0.0).all(axis=1)
        rows = np.flatnonzero(zero | (d > 0).all(axis=1) | (d < 0).all(axis=1))
        # u = 1 on one index too: w = (1) whatever the entry, and u * u cannot overflow
        u = np.where(zero[rows, None] | (c == 1), 1.0, np.abs(d[rows])) ** (-1.0 / (m - 2))
        W = u / np.sqrt(np.sum(u * u, axis=1))[:, None]
        L, exhaustive = d[rows, 0] * W[:, 0] ** (m - 2), ~zero
    return rows, W, L, exhaustive | (c == 1)


def _two_index(
    t: Tensor, sph: Sphere, subsets: np.ndarray, member: np.ndarray, cfg: SolverConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The `_closed_form` route for 2-index subsets (i, j) of an order m >= 3 tensor.

    On w = (1, s) the eigen rows read p_i(s) = value * rhs_i(w) and
    p_j(s) = value * rhs_j(w), with p_a(s) = (A w^{m-1})_a.  Eliminating the
    value leaves one polynomial, p_j - s^{m-1} p_i (H, degree <= 2(m-1)) or
    p_j - s p_i (Z, degree <= m), whose positive roots are the interior
    pairs.  Monomial r of t._mono, when the support mask `member` holds its
    indices, feeds p_a with t._P[r, a] at the power of s counting its j's.
    Exact-zero end coefficients are roots at w = (1, 0) or (0, 1), off the
    interior, so they are divided out.  What is left takes one companion-matrix
    eigensolve per degree, and a root is kept when its real part is positive
    and its imaginary part is within sqrt(tol) of its modulus: a double root
    comes back split by about the square root of the rounding, as a real or
    a complex pair.  The claim is withdrawn when two kept roots lie within
    sqrt(tol) in angle arctan(s) (a conjugate pair always does), and when
    the polynomial vanishes, a family of pairs reported by w = (1, 1).
    Returns (R, W, L, exhaustive): per candidate its row R in `subsets`,
    its vector and value, and per row whether its sub-problem is exhaustive.
    """
    N, m = subsets.shape[0], t.order
    rows, r = np.nonzero(member[:, t._mono].all(axis=2))
    P = np.zeros((N, 2, m))  # P[n, a, k]: coefficient of s^k in p_a, a = 0 for i, 1 for j
    P[rows, :, (t._mono[r] == subsets[rows, 1:]).sum(axis=1)] = t._P[r[:, None], subsets[rows]]
    shift = sph.k - 1
    q = np.zeros((N, m + shift))  # ascending coefficients of p_j - s^shift p_i
    q[:, :m] += P[:, 1]
    q[:, shift:] -= P[:, 0]

    nonzero = q != 0.0
    family = ~nonzero.any(axis=1)
    lo = nonzero.argmax(axis=1)
    hi = q.shape[1] - 1 - nonzero[:, ::-1].argmax(axis=1)
    deg = np.where(family, 0, hi - lo)
    sep = np.sqrt(cfg.tol)
    owner, roots = [np.flatnonzero(family)], [np.ones(family.sum())]
    for dd in np.flatnonzero(np.bincount(deg)[1:]) + 1:  # the degrees above 0; np.unique imports numpy.ma
        g = np.flatnonzero(deg == dd)
        coef = np.take_along_axis(q[g], lo[g, None] + np.arange(dd + 1), axis=1)
        comp = np.zeros((g.size, dd, dd))
        comp[:, 0, :] = -coef[:, dd - 1 :: -1] / coef[:, dd:]
        comp[:, np.arange(1, dd), np.arange(dd - 1)] = 1.0
        z = np.linalg.eigvals(comp)
        member, k = np.nonzero((z.real > 0) & (np.abs(z.imag) <= sep * np.abs(z)))
        owner.append(g[member])
        roots.append(z.real[member, k])
    owner, s = np.concatenate(owner), np.concatenate(roots)

    by_root = np.lexsort((s, owner))
    owner, s = owner[by_root], s[by_root]
    angle = np.arctan(s)
    close = np.zeros(N, dtype=bool)
    close[owner[1:][(owner[1:] == owner[:-1]) & (np.diff(angle) <= sep)]] = True
    W = np.stack([np.ones_like(s), s], axis=1)
    p_i = np.zeros_like(s)
    for k in reversed(range(m)):  # Horner
        p_i = p_i * s + P[owner, 0, k]
    L = p_i / sph.rhs(W)[:, 0]
    return owner, W, L, ~(family | close)


def _generic_count(sph: Sphere, c: int) -> int:
    """Eigenvector count of a generic order-m tensor of dimension c, complex roots included.

    c (m-1)^(c-1) for H (Qi 2005) and ((m-1)^c - 1) / (m-2) for Z
    (Cartwright & Sturmfels 2013).
    """
    m = sph.order
    return c * (m - 1) ** (c - 1) if sph.k == m else ((m - 1) ** c - 1) // (m - 2)


def _sylvester_shape(sph: Sphere) -> tuple[int, int]:
    """(ns, D) of `_three_index`: the Sylvester matrix's size and its degree in t."""
    m = sph.order
    D = m + sph.k - 2
    return D + m - 1, D


def _sylvester(t: Tensor, sph: Sphere, subsets: np.ndarray, member: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P, syl): the chart polynomials and Sylvester matrices of `_three_index`.

    Both hold three charts of each row of `subsets`, batch row b being
    chart b // N of row b % N.  P[b, a, i, j] is the coefficient of
    s^i t^j in the eigen row p_a, a = 0, 1, 2 for the chart's (p, q, r), and
    syl[b, row, col, e] the coefficient of t^e in the Sylvester matrix of f
    and g in s: rows s^k f (k < m-1), then s^k g (k < D); column col for
    s^col.  The monomials of a row are those whose indices the support
    mask `member` all holds.
    """
    m, N = t.order, subsets.shape[0]
    n, r = np.nonzero(member[:, t._mono].all(axis=2))
    power = (t._mono[r, :, None] == subsets[n, None, :]).sum(axis=1)  # (R, 3): each local index's multiplicity
    coef = t._P[r[:, None], subsets[n]]  # (R, 3): the coefficient in each local row
    P = np.zeros((3, N, 3, m, m))
    for c, (_, q, rr) in enumerate(_CHARTS):
        P[c, n[:, None], np.argsort(_CHARTS[c]), power[:, q, None], power[:, rr, None]] = coef
    P = P.reshape(3 * N, 3, m, m)
    ns, D = _sylvester_shape(sph)
    shift = D - (m - 1)
    f = np.zeros((3 * N, D + 1, D + 1))
    f[:, :m, :m] += P[:, 1]
    f[:, shift:, :m] -= P[:, 0]
    g = np.zeros((3 * N, m, D + 1))
    g[:, :, :m] += P[:, 2]
    g[:, :, shift:] -= P[:, 0]
    syl = np.zeros((3 * N, ns, ns, D + 1))
    for k in range(m - 1):
        syl[:, k, k : k + D + 1] = f
    for k in range(D):
        syl[:, m - 1 + k, k : k + m] = g
    return P, syl


def _hidden_roots(syl: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(roots, singular): every t at which the Sylvester matrices syl are singular.

    Rotates t by _ROTATION, so the leading coefficient of each matrix
    polynomial in tau is the Sylvester matrix at t = cot a, and solves the
    block companions of all rows with one eigensolve.  roots has ns D
    entries per row, those of the missing degree of the resultant at or
    near t = infinity; `singular` marks the rows whose leading coefficient
    is singular, whose roots are meaningless.
    """
    B, ns, _, D1 = syl.shape
    D = D1 - 1
    co, si = np.cos(_ROTATION), np.sin(_ROTATION)
    R = np.zeros((D + 1, D + 1))  # R[e, k]: coefficient of tau^k in (tau co - si)^e (tau si + co)^(D - e)
    for e in range(D + 1):
        poly = np.ones(1)
        for factor in [(-si, co)] * e + [(co, si)] * (D - e):
            poly = np.convolve(poly, factor)
        R[e] = poly
    rot = np.einsum("brce,ek->bkrc", syl, R)
    sv = np.linalg.svd(rot[:, D], compute_uv=False)
    singular = ~(sv[:, -1] > _SINGULAR * sv[:, 0])
    rot[singular, D] = np.eye(ns)
    comp = np.zeros((B, ns * D, ns * D))
    comp[:, : ns * (D - 1), ns:] = np.eye(ns * (D - 1))
    comp[:, ns * (D - 1) :] = -np.linalg.solve(rot[:, D], np.concatenate(list(np.moveaxis(rot[:, :D], 1, 0)), axis=2))
    tau = np.linalg.eigvals(comp)
    with np.errstate(all="ignore"):
        return (tau * co - si) / (tau * si + co), singular


def _null_roots(syl: np.ndarray, b: np.ndarray, tr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s, gap) for root tr[i] of row b[i] of syl.

    s fits the Sylvester null vector (1, s, s^2, ...) in least squares;
    gap is the second smallest singular value over the largest, near zero
    when the null space is not one-dimensional.
    """
    D = syl.shape[3] - 1
    X = syl[b, :, :, D].astype(complex)
    for e in reversed(range(D)):  # Horner
        X = X * tr[:, None, None] + syl[b, :, :, e]
    _, sv, vh = np.linalg.svd(X)
    x = vh[:, -1].conj()
    with np.errstate(all="ignore"):  # x = (0, ..., 0, 1) is a root at s = infinity; X = 0 a family
        return (x[:, :-1].conj() * x[:, 1:]).sum(axis=1) / (np.abs(x[:, :-1]) ** 2).sum(axis=1), sv[:, -2] / sv[:, 0]


def _three_index(
    t: Tensor, sph: Sphere, subsets: np.ndarray, member: np.ndarray, cfg: SolverConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The `_closed_form` route for non-diagonal 3-index subsets of an order m >= 3 tensor.

    Each row is solved in three charts, one per pivot index p with the
    other two q < r: on w = (1, s, t) (w_p, w_q, w_r) the eigen rows
    p_a(s, t) = (A w^{m-1})_a match value * rhs_a(w), and eliminating the
    value leaves
    f = p_q - s^{m-1} p_p and g = p_r - t^{m-1} p_p (H), or f = p_q - s p_p
    and g = p_r - t p_p (Z).  Monomials feed the p_a as in `_two_index`.  The
    Sylvester matrix of f and g in s, of size ns = deg f + deg g, is a
    matrix polynomial of degree D = deg f in t, singular exactly at the t
    of the common roots, and its null vector there is (1, s, s^2, ...).
    `_hidden_roots` linearizes it (companion size ns D: 24, 15, 54 and 28
    for H and Z at m = 3 and 4) and `_null_roots` reads s off.

    A root with |t| <= 1 + _PIVOT_MARGIN is kept in the chart of its largest
    entry: no entry exceeds the pivot by the margin, and an index below the
    pivot stays under it by the margin, so a tie goes to the lower index.
    The kept roots of the three charts are the complex eigenvectors, each
    once, and the real positive ones are the candidates, polished like
    those of `_two_index`.  The claim is withdrawn, and `_closed_form`
    marks the row for multistart, when a chart's leading coefficient is
    singular (as when the resultant vanishes identically), when the count
    of kept roots is not the generic one (`_generic_count`: a root was
    lost, or is multiple), when a kept root's Sylvester null space is not
    one-dimensional, or when two candidates of a chart lie within sqrt(tol)
    in angle arctan(t).  Returns (R, W, L, exhaustive) as `_two_index` does.
    """
    m, N = t.order, subsets.shape[0]
    P, syl = _sylvester(t, sph, subsets, member)
    t_all, singular = _hidden_roots(syl)
    b, k = np.nonzero(np.abs(t_all) <= 1.0 + _PIVOT_MARGIN)
    tr = t_all[b, k]
    sr, gap = _null_roots(syl, b, tr)
    chart = b // N
    size = np.stack([np.ones(b.size), np.abs(sr), np.abs(tr)], axis=1)  # |w_p|, |w_q|, |w_r|
    below = _CHARTS[chart] < chart[:, None]  # entries of an index below the pivot
    kept = (size <= np.where(below, 1.0 - _PIVOT_MARGIN, 1.0 + _PIVOT_MARGIN)).all(axis=1)
    b, chart, tr, sr = b[kept], chart[kept], tr[kept], sr[kept]
    owner = b % N
    ok = np.bincount(owner, minlength=N) == _generic_count(sph, 3)
    ok &= ~singular.reshape(3, N).any(axis=0)
    ok[owner[~(gap[kept] > _NULL_GAP)]] = False

    sep = np.sqrt(cfg.tol)
    real = (sr.real > 0) & (tr.real > 0) & (np.abs(sr.imag) <= sep * np.abs(sr)) & (np.abs(tr.imag) <= sep * np.abs(tr))
    real &= ~singular[b]
    by_root = np.flatnonzero(real)[np.lexsort((tr.real[real], b[real]))]
    b, chart, owner, s, tk = b[by_root], chart[by_root], owner[by_root], sr.real[by_root], tr.real[by_root]
    ok[owner[1:][(b[1:] == b[:-1]) & (np.diff(np.arctan(tk)) <= sep)]] = False

    Wc = np.stack([np.ones_like(s), s, tk], axis=1)  # (w_p, w_q, w_r)
    p_p = np.einsum("rij,ri,rj->r", P[b, 0], s[:, None] ** np.arange(m), tk[:, None] ** np.arange(m))
    L = p_p / sph.rhs(Wc)[:, 0]
    W = np.empty_like(Wc)
    np.put_along_axis(W, _CHARTS[chart], Wc, axis=1)
    return owner, W, L, ok


# -- multistart Newton --------------------------------------------------------


def _solve_steps(J: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Newton steps solve(J, -F) per batch member, with a least-squares fallback."""
    try:
        s = np.linalg.solve(J, -F[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        s = np.empty_like(F)
        for r in range(F.shape[0]):
            try:
                s[r] = np.linalg.solve(J[r], -F[r])
            except np.linalg.LinAlgError:
                s[r] = np.linalg.lstsq(J[r], -F[r], rcond=None)[0]
    return s


# trial(rows, alpha) -> (ok, values) for one batch of line-search trials
_Trial = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, tuple[np.ndarray, ...]]]


def _backtrack(
    members: np.ndarray, last_rung: int, budget: int, trial: _Trial
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Backtracking line search over the step lengths 2^-r, r = 0..last_rung.

    trial(rows, alpha) tries member rows[i] at step length alpha[i] and
    returns (ok, values): ok marks the trials that pass the acceptance test
    and values holds arrays with one row per trial.  Every member takes the
    first rung it passes, the step a loop halving one rung at a time would
    stop at.  Instead of one rung per call, each call tries the next
    max(1, budget // pending) rungs of every pending member at once, so a
    call evaluates at most `budget` rows while that many are pending, and
    few calls remain once most members have passed.  Returns (passed,
    values): the ascending `members` that pass some rung, and the trial rows
    they accept.  With no members no trial runs, and values is ().
    """
    hits, picks, pend, rung = [], [], members, 0
    while pend.size and rung <= last_rung:
        b = min(max(1, budget // pend.size), last_rung + 1 - rung)
        alpha = np.full((pend.size, b), np.ldexp(1.0, -np.arange(rung, rung + b))).ravel()
        ok, values = trial(np.repeat(pend, b), alpha)
        ok = ok.reshape(pend.size, b)
        hit = ok.any(axis=1)
        first = hit.nonzero()[0] * b + ok.argmax(axis=1)[hit]
        hits.append(pend[hit])
        picks.append(tuple(v.take(first, 0) for v in values))
        pend = pend[~hit]
        rung += b
    if len(hits) <= 1:
        return (hits[0], picks[0]) if hits else (members, ())
    passed = np.concatenate(hits)
    order = np.argsort(passed)
    return passed.take(order), tuple(np.concatenate(v).take(order, 0) for v in zip(*picks))


def _newton_candidates(t: Tensor, sph: Sphere, cfg: SolverConfig) -> tuple[np.ndarray, np.ndarray]:
    """Values (R,) and vectors (R, dim) of the converged multistart members, in start order.

    The loop keeps only its running members, ids mapping them to their
    starts, and writes each root once.
    """
    d = t.dim
    B = cfg.resolve_starts(d)
    rng = np.random.default_rng(cfg.seed)
    W = sph.normalize(rng.uniform(0.1, 1.0, size=(B, d)))
    L = t.apply_full_batch(W)
    ids, streak, keep = np.arange(B), np.zeros(B, dtype=np.int64), np.ones(B, dtype=bool)
    found, W_end, L_end = np.zeros(B, dtype=bool), np.empty_like(W), np.empty_like(L)

    with np.errstate(all="ignore"):
        # residual rows at (W, L); an accepted line-search trial brings its own
        F = _system_eval(t, sph, W, L)
        Fnorm = np.abs(F).max(axis=1)
        best = Fnorm.copy()
        for it in range(_MAX_ITERS + 1):
            root = keep & (Fnorm <= cfg.tol)
            found[ids[root]], W_end[ids[root]], L_end[ids[root]] = True, W[root], L[root]
            run = keep & ~root
            W, L, F, Fnorm, best, streak, ids = (v.compress(run, 0) for v in (W, L, F, Fnorm, best, streak, ids))
            if ids.size == 0 or it == _MAX_ITERS:  # members still running are not roots
                break
            step = _solve_steps(_system_jac(t, sph, W, L), F)

            def trial(rows, alpha):
                tW = W[rows] + alpha[:, None] * step[rows, :d]
                tL = L[rows] + alpha * step[rows, d]
                tF = _system_eval(t, sph, tW, tL)
                tn = np.abs(tF).max(axis=1)
                ok = np.isfinite(tn) & (tn < (1.0 - 1e-4 * alpha) * Fnorm[rows])
                return ok, (tW, tL, tF, tn)

            # a non-finite step, or a search that passes no rung, stops its
            # member; the others run on from their accepted trial
            finite = np.flatnonzero(np.isfinite(step).all(axis=1))
            if finite.size == 0:
                break
            passed, (W, L, F, Fnorm) = _backtrack(finite, _MAX_HALVINGS, B, trial)
            ids, streak, best = ids.take(passed), streak.take(passed), best.take(passed)
            streak = np.where(Fnorm < _STAGNATION_CUT * best, 0, streak + 1)
            best = np.minimum(best, Fnorm)
            # a member runs on while it stays bounded and does not stagnate
            keep = (np.abs(W).max(axis=1) <= 1e8) & (streak < _STAGNATION_WINDOW)
    return L_end[found], W_end[found]


def _polish(
    t: Tensor, sph: Sphere, S: np.ndarray, W: np.ndarray, L: np.ndarray, F: np.ndarray, C: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A couple of undamped Newton steps to tighten renormalized roots on supports S.

    (F, C) is `_support_system` at (W, L).  Returns the new W and L, the
    system F(W, L) there and t's contraction at the zero-filled rows.
    """
    c = S.shape[1]
    with np.errstate(all="ignore"):
        for _ in range(_POLISH_STEPS):
            step = _solve_steps(_support_jac(t, sph, S, W, L), F)
            nW = W + step[:, :c]
            nL = L + step[:, c]
            better = np.isfinite(nW).all(axis=1) & np.isfinite(nL)
            nF, nC = _support_system(t, sph, S, np.where(better[:, None], nW, W), np.where(better, nL, L))
            take = better & (np.abs(nF).max(axis=1) <= np.abs(F).max(axis=1))
            W = np.where(take[:, None], nW, W)
            L = np.where(take, nL, L)
            F = np.where(take[:, None], nF, F)
            C = np.where(take[:, None], nC, C)
    return W, L, F, C


def _support_key(on: np.ndarray) -> np.ndarray:
    """Per row of a support mask, an integer in the order of (size, sorted index tuple).

    Of two supports of one size, the earlier holds the first index where
    they differ, so the complement is read as binary digits, index 0 first.
    """
    n = on.shape[1]
    return (on.sum(axis=1) << n) + (~on) @ (1 << np.arange(n - 1, -1, -1))


def _finalize(
    t: Tensor,
    sph: Sphere,
    Y: np.ndarray,
    L: np.ndarray,
    polish: np.ndarray,
    cfg: SolverConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Positivity filter, exact renormalization, polish, residual test, dedup, stable order.

    Candidate r is (L[r], Y[r]) on the support where Y[r] is nonzero, and
    supports of any sizes mix.  Only the rows marked in `polish` take
    `_polish`, gathered as (S, W) per support size; the others are exact up
    to rounding already.  Returns the rows that pass and survive
    `_keep_first` as (Y, L, residual, C), C being t's contraction at Y,
    sorted by support (`_support_key`), then value, then vector.  A
    returned row's support entries exceed POS_TOL.
    """
    n, on = t.dim, Y != 0.0
    interior = np.where(on, Y, np.inf).min(axis=1) > POS_TOL
    Y, on, L = Y[interior], on[interior], L[interior]
    polish = np.flatnonzero(polish[interior])
    if Y.shape[0] == 0:
        return Y, L, np.empty(0), np.empty((0, n))
    Y = sph.normalize(Y)
    C = t.contract_batch(Y)
    F = _system_eval(t, sph, Y, L, C)
    F[:, :n][~on] = 0.0  # C off the support holds complement slacks, not eigen rows
    card = on.sum(axis=1)
    for c in np.flatnonzero(np.bincount(card[polish])).tolist():
        rows = polish[card[polish] == c]
        S = np.nonzero(on[rows])[1].reshape(-1, c)
        at = (rows[:, None], S)
        FS = np.concatenate([F[at], F[rows, n:]], axis=1)
        Y[at], L[rows], FS, C[rows] = _polish(t, sph, S, Y[at], L[rows], FS, C[rows])
        F[at], F[rows, n] = FS[:, :c], FS[:, c]

    with np.errstate(all="ignore"):
        res = np.abs(F).max(axis=1)
        scale = t.contract_magnitude_batch(Y) + np.abs(L)[:, None] * np.abs(sph.rhs(Y))
        genuine = (np.abs(F[:, :n]) <= _REL_ROOT_TOL * scale + 1e-14).all(axis=1)
        # tol bounds an eigen row relative to its scale once that exceeds 1:
        # a polished root keeps the rounding of its entries' size
        converged = (np.abs(F[:, :n]) <= cfg.tol * np.maximum(1.0, scale)).all(axis=1) & (np.abs(F[:, n]) <= cfg.tol)
    keep = np.isfinite(res) & converged & (np.where(on, Y, np.inf).min(axis=1) > POS_TOL) & genuine
    order = np.flatnonzero(keep)[np.lexsort((*Y[keep].T[::-1], L[keep], _support_key(on[keep])))]
    Y, on, L, res, C = Y[order], on[order], L[order], res[order], C[order]
    kept = _keep_first(on, Y, L, cfg.dedup_tol)
    return Y[kept], L[kept], res[kept], C[kept]


def _keep_first(S: np.ndarray, W: np.ndarray, L: np.ndarray, dedup_tol: float) -> np.ndarray:
    """Mask of the rows that keep-first dedup keeps within each support.

    Rows sharing a support (equal rows of the mask S) are contiguous.  A
    row is dropped when an earlier kept row of its support lies within
    dedup_tol in value and VECTOR_DEDUP_TOL in vector.  Each round keeps
    the first remaining row of every support and drops the remaining rows
    of that support within tolerance of it, itself included, so there is
    one round per kept row of the largest group, not one Python step per
    row.
    """
    group = np.cumsum(np.r_[True, (S[1:] != S[:-1]).any(axis=1)])
    kept, left = np.zeros(L.size, dtype=bool), np.ones(L.size, dtype=bool)
    while left.any():
        rows = np.flatnonzero(left)
        first = rows[np.r_[True, group[rows[1:]] != group[rows[:-1]]]]
        lead = first[np.searchsorted(group[first], group[rows])]
        kept[first] = True
        near = (np.abs(L[rows] - L[lead]) <= dedup_tol) & (np.abs(W[rows] - W[lead]).max(axis=1) <= VECTOR_DEDUP_TOL)
        left[rows[near]] = False
    return kept
