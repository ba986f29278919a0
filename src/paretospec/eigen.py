"""Interior eigenpair solvers for the two tensor eigenvalue kinds.

An interior H-pair of an order-m tensor B (dimension d) is a solution of

    B w^{m-1} = lambda w^{[m-1]},   w > 0,   sum_i w_i^m = 1,

and an interior Z-pair solves

    B w^{m-1} = mu (w.w)^{(m-2)/2} w,   w > 0,   sum_i w_i^2 = 1.

Both are square polynomial systems in (w, lambda) once the normalization row
is appended.  Special structure is solved exactly:

  * d = 1: the single diagonal coefficient with w = (1).
  * m = 2: dense eigendecomposition; the two kinds coincide.
  * d = 2, m >= 3: with w = (1, s) the system reduces to one univariate
    polynomial of degree <= 2(m-1) (H) or <= m (Z), the generic eigenvalue
    counts for d = 2, whose roots come from a companion-matrix eigensolve
    (or a closed form when it has two terms).
  * diagonal tensors, m >= 3: closed forms (H-pairs exist only when all
    diagonal entries are equal; Z-pairs exactly when they share a strict
    sign, with w_i proportional to |d_i|^(-1/(m-2))).

These closed forms also solve many principal sub-tensors of one parent at
once (`solve_closed_forms`): candidate rows carry their index subset, and
the polish and filters read each sub-problem off the parent's contraction at
the zero-filled vector, so no sub-tensor is built.

Everything else (d >= 3, not diagonal) goes through a damped Newton
iteration run from many random starts at once; the whole batch moves in
lockstep through vectorized contraction kernels.  Multistart is a heuristic:
it can miss roots, so no completeness claim is attached to its output.

The damping is a backtracking line search over the step lengths 2^-r,
r = 0..30, and each member takes the first one that cuts its residual
enough (Armijo).  `_backtrack` tries a block of rungs per call instead of
one: every pending member gets the next B // pending rungs (at least one),
B being the start count, so a call never holds more rows than the first
full evaluation, and a straggler walks the whole ladder in one or two calls
instead of one call per halving.  The accepted steps are the ones a
rung-by-rung loop would take.  `minimize` uses the same helper for its
projected-gradient backtracking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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
# Line search halvings before a Newton member is abandoned.
_MAX_HALVINGS = 30
# A member that fails to cut its residual by 10% within this many successive
# iterations is cycling, not converging; Newton inside a basin contracts much
# faster, so such members are dropped early.
_STAGNATION_WINDOW = 10
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
    """All interior pairs of the kind found for `t`, deduplicated and sorted."""
    sph = Sphere(kind, t.order)
    cfg = config if config is not None else SolverConfig()
    if _has_closed_form(t):
        (_, W, L, res, _), _ = solve_closed_forms(t, kind, np.arange(t.dim)[None, :], cfg)
    else:
        L, W = _newton_candidates(t, sph, cfg)
        _, W, L, res, _ = _finalize(t, sph, np.broadcast_to(np.arange(t.dim), W.shape), W, L, cfg)
    return [EigenPair(float(v), w.copy(), kind, float(r)) for v, w, r in zip(L, W, res)]


def solve_closed_forms(
    t: Tensor, kind: Kind, subsets: np.ndarray, config: SolverConfig | None = None
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray], bool]:
    """Interior pairs of the principal sub-tensors of `t` on the rows of `subsets`.

    The rows, sorted index sets of one size, must each give a sub-tensor
    with a closed form: one or two indices, order 2, or diagonal.  They are
    solved together on `t`, without building a sub-tensor, in consecutive
    chunks of at most _BATCH_CELLS candidate-row cells.  Returns the arrays
    (S, W, L, residual, C) of `_finalize` for all chunks, concatenated in
    subset order (no rows when nothing is found), and whether every
    sub-problem was solved exhaustively (see `solved_exhaustively`).
    """
    sph = Sphere(kind, t.order)
    cfg = config if config is not None else SolverConfig()
    size = subsets.shape[1]
    # a matrix sub-problem gives up to `size` rows and a 2-index one up to
    # 2(m-1).  Per row, t's kernels hold the placed dim^2 Jacobian, its
    # touched cells, and one monomial product (and gather) per kernel
    mono, cells, _ = t._jacobian_tables
    row_cells = t.dim**2 + cells.size + mono.shape[0] + t._mono.shape[0]
    per_subset = size if t.order == 2 else 2 * (t.order - 1) if size == 2 else 1
    step = max(1, _BATCH_CELLS // (per_subset * row_cells))
    chunks = [(subsets[:0], np.empty((0, size)), np.empty(0), np.empty(0), np.empty((0, t.dim)))]
    exhaustive = True
    for lo in range(0, subsets.shape[0], step):
        S, W, L, chunk_exhaustive = _closed_form(t, sph, subsets[lo : lo + step], cfg)
        exhaustive &= bool(chunk_exhaustive.all())
        chunks.append(_finalize(t, sph, S, W, L, cfg))
    return tuple(np.concatenate(arrays) for arrays in zip(*chunks)), exhaustive


def solved_exhaustively(t: Tensor, kind: Kind, config: SolverConfig | None = None) -> bool:
    """True when solve_interior returns every interior pair, not a heuristic subset.

    Mirrors its dispatch: dimension 1 or 2, order 2 and diagonal tensors
    are solved exactly.  Where the interior pairs may form a
    positive-dimensional family, the solver reports at most one
    representative, so the claim is withdrawn: a matrix with a repeated
    eigenvalue (two eigenvalues closer than the solver tolerance, relative
    to the largest), whose eigenspace gets one basis vector per copy; a
    dimension-2 tensor whose reduced polynomial vanishes identically (this
    includes equal diagonal entries for H and the zero tensor); a diagonal
    tensor with all entries equal on the m-norm sphere (H), or all entries
    zero on any sphere.  A dimension-2 tensor also withdraws it when two
    positive roots of its polynomial lie within sqrt(tol) of each other, as
    a near-double root does: whether such a pair is real is decided by
    rounding.
    """
    if not _has_closed_form(t):
        return False
    cfg = config if config is not None else SolverConfig()
    return bool(_closed_form(t, Sphere(kind, t.order), np.arange(t.dim)[None, :], cfg)[3][0])


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


def _has_closed_form(t: Tensor) -> bool:
    return t.dim <= 2 or t.order == 2 or t.is_diagonal()


def _matrix(t: Tensor) -> np.ndarray:
    """Dense form of an order-2 tensor."""
    M = np.zeros((t.dim, t.dim))
    for (i, (j,)), v in t.slices.items():
        M[i, j] = v
    return M


def _closed_form(
    t: Tensor, sph: Sphere, subsets: np.ndarray, cfg: SolverConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Candidates (S, W, L) of the principal sub-tensors on the rows of `subsets`,
    and per row whether its sub-problem is solved exhaustively.

    All rows have one size c and take one route:
      * c = 1: the value a_{i...i} with w = (1).
      * c = 2, order >= 3: the roots of one polynomial (`_two_index`).
      * order 2: eigendecomposition of the stacked principal sub-matrices;
        the H and Z systems coincide.  Eigenvectors are signed to a positive
        largest entry, and complex or non-positive ones are dropped.  The
        claim is withdrawn when two eigenvalues lie within the tolerance.
      * diagonal, order >= 3, c >= 3: on a strictly positive vector the
        i-th eigen row reads d_i w_i^{m-1} = value * rhs_i(w).  For H this forces
        d_i = lambda for every i, so a pair exists only when all entries
        coincide, and then the whole sphere is a family.  For Z it forces
        d_i w_i^{m-2} = mu for all i, solvable exactly when the entries
        share a strict sign, with w_i proportional to |d_i|^(-1/(m-2)); when
        all entries are zero every vector pairs with 0.  A family is reported
        by one representative and withdraws the claim.
    """
    N, c = subsets.shape
    d = t.diagonal_entries()[subsets]
    if c == 1:
        return subsets, np.ones((N, 1)), d[:, 0], np.ones(N, dtype=bool)
    if c == 2 and t.order > 2:
        return _two_index(t, sph, subsets, cfg)
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
        return subsets[rows], V[rows, k], ev.real[rows, k], exhaustive
    m = t.order
    if sph.k == m:  # H
        family = (d == d[:, :1]).all(axis=1)
        rows = np.flatnonzero(family)
        return subsets[rows], np.full((rows.size, c), c ** (-1.0 / m)), d[rows, 0], ~family
    zero = (d == 0.0).all(axis=1)
    rows = np.flatnonzero(zero | (d > 0).all(axis=1) | (d < 0).all(axis=1))
    u = np.where(zero[rows, None], 1.0, np.abs(d[rows])) ** (-1.0 / (m - 2))
    w = u / np.sqrt(np.sum(u * u, axis=1))[:, None]
    return subsets[rows], w, d[rows, 0] * w[:, 0] ** (m - 2), ~zero


def _two_index(
    t: Tensor, sph: Sphere, subsets: np.ndarray, cfg: SolverConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The `_closed_form` route for 2-index subsets (i, j) of an order m >= 3 tensor.

    On w = (1, s) the eigen rows read p_i(s) = value * rhs_i(w) and
    p_j(s) = value * rhs_j(w), with p_a(s) = (A w^{m-1})_a.  Eliminating the
    value leaves one polynomial, p_j - s^{m-1} p_i (H, degree <= 2(m-1)) or
    p_j - s p_i (Z, degree <= m), whose positive roots are the interior
    pairs.  Slice r feeds p_a when its lead is a and its trailing indices lie
    in {i, j}, at the power of s that counts the j's among them.  Exact-zero
    end coefficients are roots at w = (1, 0) or (0, 1), off the interior, so
    they are divided out.  What is left of a binomial, such as the
    polynomial of every diagonal sub-tensor, has its one positive root in
    closed form.  The other polynomials take one companion-matrix eigensolve
    per degree, and a root is kept when its real part is positive and its
    imaginary part is within sqrt(tol) of its modulus: a double root comes
    back split by about the square root of the rounding, as a real or a
    complex pair.  The claim is withdrawn when two kept roots lie within
    sqrt(tol) in angle arctan(s) (a conjugate pair always does), and when
    the polynomial vanishes, a family of pairs reported by w = (1, 1).
    """
    N, m = subsets.shape[0], t.order
    i, j = subsets[:, :1], subsets[:, 1:]
    trail_inside = ((t._trail == i[:, :, None]) | (t._trail == j[:, :, None])).all(axis=2)
    rows, r = np.nonzero(trail_inside & ((t._lead == i) | (t._lead == j)))
    P = np.zeros((N, 2, m))  # P[n, a, k]: coefficient of s^k in p_a, a = 0 for i, 1 for j
    P[rows, (t._lead[r] == j[rows, 0]).astype(np.intp), (t._trail[r] == j[rows]).sum(axis=1)] = t._coef[r]
    shift = m - 1 if sph.k == m else 1
    q = np.zeros((N, m + shift))  # ascending coefficients of p_j - s^shift p_i
    q[:, :m] += P[:, 1]
    q[:, shift:] -= P[:, 0]

    nonzero = q != 0.0
    family = ~nonzero.any(axis=1)
    lo = nonzero.argmax(axis=1)
    hi = q.shape[1] - 1 - nonzero[:, ::-1].argmax(axis=1)
    deg = np.where(family, 0, hi - lo)
    # c_lo + c_hi s^deg (every diagonal sub-tensor's polynomial) has at most
    # one positive root, and its other roots lie 2 pi / deg or more off the axis
    two = np.flatnonzero(nonzero.sum(axis=1) == 2)
    deg[two] = 0
    ratio = -q[two, lo[two]] / q[two, hi[two]]
    two, ratio = two[ratio > 0], ratio[ratio > 0]
    sep = np.sqrt(cfg.tol)
    owner, roots = [np.flatnonzero(family), two], [np.ones(family.sum()), ratio ** (1.0 / (hi - lo)[two])]
    for dd in np.unique(deg[deg > 0]):
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
    return subsets[owner], W, L, ~(family | close)


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
    members: np.ndarray, last_rung: int, budget: int, trial: _Trial, out: tuple[np.ndarray, ...]
) -> np.ndarray:
    """Backtracking line search over the step lengths 2^-r, r = 0..last_rung.

    trial(rows, alpha) tries member rows[i] at step length alpha[i] and
    returns (ok, values): ok marks the trials that pass the acceptance test
    and values holds arrays with one entry per trial.  Every member takes the
    first rung it passes, the step a loop halving one rung at a time would
    stop at, and its values are written to out[j][member].  Instead of one
    rung per call, each call tries the next max(1, budget // pending) rungs
    of every pending member at once, so a call evaluates at most `budget`
    rows while that many are pending, and few calls remain once most members
    have passed.  Returns a mask, over the rows of out, of the members that
    passed some rung.
    """
    passed = np.zeros(out[0].shape[0], dtype=bool)
    pend, rung = members, 0
    while pend.size and rung <= last_rung:
        b = min(max(1, budget // pend.size), last_rung + 1 - rung)
        alpha = np.ldexp(1.0, -np.tile(np.arange(rung, rung + b), pend.size))
        ok, values = trial(np.repeat(pend, b), alpha)
        ok = ok.reshape(pend.size, b)
        hit = ok.any(axis=1)
        first = np.flatnonzero(hit) * b + ok.argmax(axis=1)[hit]
        for dst, v in zip(out, values):
            dst[pend[hit]] = v[first]
        passed[pend[hit]] = True
        pend = pend[~hit]
        rung += b
    return passed


def _newton_candidates(t: Tensor, sph: Sphere, cfg: SolverConfig) -> tuple[np.ndarray, np.ndarray]:
    """Values (R,) and vectors (R, dim) of the converged multistart members."""
    d = t.dim
    B = cfg.resolve_starts(d)
    rng = np.random.default_rng(cfg.seed)
    W = sph.normalize(rng.uniform(0.1, 1.0, size=(B, d)))
    L = t.apply_full_batch(W)
    alive = np.ones(B, dtype=bool)
    done = np.zeros(B, dtype=bool)
    streak = np.zeros(B, dtype=np.int64)

    with np.errstate(all="ignore"):
        # residual rows at (W, L); an accepted line-search trial brings its own
        F = _system_eval(t, sph, W, L)
        Fnorm = np.abs(F).max(axis=1)
        best_seen = Fnorm.copy()
        done |= Fnorm <= cfg.tol
        for _ in range(_MAX_ITERS):
            act = np.flatnonzero(alive & ~done)
            if act.size == 0:
                break
            Wa, La, Fa = W[act], L[act], F[act]
            step = _solve_steps(_system_jac(t, sph, Wa, La), Fa)
            bad = ~np.isfinite(step).all(axis=1)
            base = Fnorm[act]

            def trial(rows, alpha):
                tW = Wa[rows] + alpha[:, None] * step[rows, :d]
                tL = La[rows] + alpha * step[rows, d]
                tF = _system_eval(t, sph, tW, tL)
                tn = np.abs(tF).max(axis=1)
                ok = np.isfinite(tn) & (tn < (1.0 - 1e-4 * alpha) * base[rows])
                return ok, (tW, tL, tF, tn)

            nW, nL, nF, nn = np.empty_like(Wa), np.empty_like(La), np.empty_like(Fa), np.empty_like(base)
            accepted = _backtrack(np.flatnonzero(~bad), _MAX_HALVINGS, B, trial, (nW, nL, nF, nn))
            hit = act[accepted]
            W[hit], L[hit], F[hit], Fnorm[hit] = nW[accepted], nL[accepted], nF[accepted], nn[accepted]
            alive[act[~accepted]] = False
            grown = np.abs(W[act]).max(axis=1) > 1e8
            alive[act[grown]] = False
            done[act] = Fnorm[act] <= cfg.tol

            improved = Fnorm[act] < 0.9 * best_seen[act]
            streak[act] = np.where(improved, 0, streak[act] + 1)
            best_seen[act] = np.minimum(best_seen[act], Fnorm[act])
            alive[act[streak[act] >= _STAGNATION_WINDOW]] = False

    roots = np.flatnonzero(alive & done)
    return L[roots], W[roots]


def _polish(
    t: Tensor, sph: Sphere, S: np.ndarray, W: np.ndarray, L: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A couple of undamped Newton steps to tighten renormalized roots on supports S.

    Returns the new W and L, the system F(W, L) there and t's contraction at
    the zero-filled rows.
    """
    c = S.shape[1]
    with np.errstate(all="ignore"):
        F, C = _support_system(t, sph, S, W, L)
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


def _finalize(
    t: Tensor, sph: Sphere, S: np.ndarray, W: np.ndarray, L: np.ndarray, cfg: SolverConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Positivity filter, exact renormalization, polish, dedup, stable order.

    Candidate r is (L[r], W[r]) on the support S[r].  Returns the rows that
    pass and survive `_keep_first` as (S, W, L, residual, C), C being t's
    contraction at the zero-filled vectors, sorted by support, then value,
    then vector.
    """
    c = S.shape[1]
    interior = W.min(axis=1) > POS_TOL
    S, W, L = S[interior], W[interior], L[interior]
    if W.shape[0] == 0:
        return S, W, L, np.empty(0), np.empty((0, t.dim))
    W = sph.normalize(W)
    W, L, F, C = _polish(t, sph, S, W, L)

    with np.errstate(all="ignore"):
        res = np.abs(F).max(axis=1)
        magnitude = np.take_along_axis(t.contract_magnitude_batch(embed_rows(W, S, t.dim)), S, axis=1)
        scale = magnitude + np.abs(L)[:, None] * np.abs(sph.rhs(W))
        genuine = (np.abs(F[:, :c]) <= _REL_ROOT_TOL * scale + 1e-14).all(axis=1)
    keep = np.isfinite(res) & (res <= cfg.tol) & (W.min(axis=1) > POS_TOL) & genuine
    keys = tuple(W[keep, j] for j in reversed(range(c))) + (L[keep],) + tuple(S[keep, j] for j in reversed(range(c)))
    order = np.flatnonzero(keep)[np.lexsort(keys)]
    S, W, L, res, C = S[order], W[order], L[order], res[order], C[order]
    kept = _keep_first(S, W, L, cfg.dedup_tol)
    return S[kept], W[kept], L[kept], res[kept], C[kept]


def _keep_first(S: np.ndarray, W: np.ndarray, L: np.ndarray, dedup_tol: float) -> np.ndarray:
    """Mask of the rows that keep-first dedup keeps within each support.

    Rows sharing a support are contiguous.  A row is dropped when an earlier
    kept row of its support lies within dedup_tol in value and
    VECTOR_DEDUP_TOL in vector.  Each round keeps the first remaining row of
    every support and drops the remaining rows of that support within
    tolerance of it, itself included, so there is one round per kept row of
    the largest group, not one Python step per row.
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
