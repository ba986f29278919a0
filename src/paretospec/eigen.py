"""Interior eigenpair solvers for the two tensor eigenvalue kinds.

An interior H-pair of an order-m tensor B (dimension d) is a solution of

    B w^{m-1} = lambda w^{[m-1]},   w > 0,   sum_i w_i^m = 1,

and an interior Z-pair solves

    B w^{m-1} = mu (w.w)^{(m-2)/2} w,   w > 0,   sum_i w_i^2 = 1.

Both are square polynomial systems in (w, lambda) once the normalization row
is appended.  Special structure is solved exactly:

  * d = 1: the single diagonal coefficient with w = (1).
  * m = 2: dense eigendecomposition; the two kinds coincide.
  * diagonal tensors, m >= 3: closed forms (H-pairs exist only when all
    diagonal entries are equal; Z-pairs exactly when they share a strict
    sign, with w_i proportional to |d_i|^(-1/(m-2))).

Everything else goes through a damped Newton iteration run from many random
starts at once; the whole batch moves in lockstep through vectorized
contraction kernels.  Multistart is a heuristic: it can miss roots, so no
completeness claim is attached to its output.

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

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .tensor import Kind, Sphere, Tensor

# Two pairs are duplicates when their values differ by at most the value
# dedup tolerance and their vectors by at most this much in infinity norm.
VECTOR_DEDUP_TOL = 1e-6

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
    """Multistart and tolerance knobs shared by the solvers.

    starts=None means 200 per dimension of the tensor actually being solved.
    """

    starts: int | None = None
    max_iters: int = 200
    tol: float = 1e-10
    pos_tol: float = 1e-8
    dedup_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.starts is not None and self.starts < 1:
            raise ValueError(f"starts must be >= 1, got {self.starts}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        for name in ("tol", "pos_tol", "dedup_tol"):
            v = getattr(self, name)
            if not v > 0:
                raise ValueError(f"{name} must be positive, got {v}")
        if self.dedup_tol < self.tol:
            warnings.warn(
                f"dedup_tol={self.dedup_tol} below tol={self.tol}: converged copies of "
                "one root may survive deduplication",
                stacklevel=2,
            )

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
    if t.dim == 1:
        a = t.slices.get((0, (0,) * (t.order - 1)), 0.0)
        return [EigenPair(float(a), np.array([1.0]), kind, 0.0)]
    if t.order == 2:
        cands = _matrix_candidates(t, cfg)
    elif t.is_diagonal():
        cands = _diagonal_candidates(t, sph)
    else:
        cands = _newton_candidates(t, sph, cfg)
    return _finalize(t, sph, cands, cfg)


def solved_exhaustively(t: Tensor, kind: Kind, config: SolverConfig | None = None) -> bool:
    """True when solve_interior returns every interior pair, not a heuristic subset.

    Mirrors its dispatch: dimension 1, order 2 and diagonal tensors are
    solved exactly.  Where the interior pairs may form a positive-dimensional
    family, the solver reports at most one representative, so the claim is
    withdrawn: a matrix with a repeated eigenvalue (two eigenvalues closer
    than the solver tolerance, relative to the largest), whose eigenspace
    gets one basis vector per copy; a diagonal tensor of dimension >= 2 with
    all entries equal on the m-norm sphere (H), or all entries zero on any
    sphere.
    """
    if t.dim == 1:
        return True
    if t.order == 2:
        cfg = config if config is not None else SolverConfig()
        M = _matrix(t)
        ev = np.linalg.eigvalsh(M) if t.symmetric else np.linalg.eigvals(M)
        gaps = np.abs(ev[:, None] - ev[None, :]) + np.diag(np.full(ev.size, np.inf))
        return bool(gaps.min() > cfg.tol * max(1.0, float(np.abs(ev).max())))
    if not t.is_diagonal():
        return False
    d = t.diagonal_entries()
    family_value = d[0] if Sphere(kind, t.order).k == t.order else 0.0
    return not bool(np.all(d == family_value))


def _system_eval(t: Tensor, sph: Sphere, W: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Stacked residual F(w, value): eigen rows then the normalization row."""
    F = np.empty((W.shape[0], t.dim + 1))
    level = sph.level(W)
    F[:, : t.dim] = t.contract_batch(W) - L[:, None] * sph.rhs(W, level)
    F[:, t.dim] = level - 1.0
    return F


def _system_jac(t: Tensor, sph: Sphere, W: np.ndarray, L: np.ndarray) -> np.ndarray:
    B, d = W.shape
    J = np.zeros((B, d + 1, d + 1))
    J[:, :d, :d] = t.contract_jacobian_batch(W) - L[:, None, None] * sph.rhs_jacobian(W)
    J[:, :d, d] = -sph.rhs(W)
    J[:, d, :d] = sph.k * W ** (sph.k - 1)
    return J


# -- closed-form routes -------------------------------------------------------


def _matrix(t: Tensor) -> np.ndarray:
    """Dense form of an order-2 tensor."""
    M = np.zeros((t.dim, t.dim))
    for (i, (j,)), v in t.slices.items():
        M[i, j] = v
    return M


def _matrix_candidates(t: Tensor, cfg: SolverConfig) -> list[tuple[float, np.ndarray]]:
    """Order 2: classical eigendecomposition; H and Z systems coincide."""
    M = _matrix(t)
    if t.symmetric:
        vals, vecs = np.linalg.eigh(M)
    else:
        cvals, cvecs = np.linalg.eig(M)
        keep = np.abs(cvals.imag) <= 1e-10
        keep &= np.abs(cvecs.imag).max(axis=0) <= 1e-10
        vals, vecs = cvals[keep].real, cvecs[:, keep].real
    out = []
    for k in range(vals.size):
        v = vecs[:, k].copy()
        if v[np.argmax(np.abs(v))] < 0:
            v = -v
        if v.min() > cfg.pos_tol:
            out.append((float(vals[k]), v))
    return out


def _diagonal_candidates(t: Tensor, sph: Sphere) -> list[tuple[float, np.ndarray]]:
    """Diagonal tensors of order >= 3; exact interior pairs or none.

    On a strictly positive vector the i-th eigen row reads d_i w_i^{m-1} =
    value * rhs_i(w).  For H this forces d_i = lambda for every i, so pairs
    exist only when all diagonal entries coincide.  For Z it forces
    d_i w_i^{m-2} = mu for all i, solvable exactly when the entries share a
    strict sign, with w_i proportional to |d_i|^(-1/(m-2)).
    """
    d = t.diagonal_entries()
    m = t.order
    if sph.k == m:  # H
        if np.all(d == d[0]):
            w = np.full(t.dim, t.dim ** (-1.0 / m))
            return [(float(d[0]), w)]
        return []
    if np.all(d == 0.0):
        # every positive unit vector pairs with 0; report one representative
        return [(0.0, np.full(t.dim, t.dim**-0.5))]
    if np.all(d > 0) or np.all(d < 0):
        u = np.abs(d) ** (-1.0 / (m - 2))
        w = u / np.sqrt(np.sum(u * u))
        mu = float(d[0] * w[0] ** (m - 2))
        return [(mu, w)]
    return []


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


def _newton_candidates(t: Tensor, sph: Sphere, cfg: SolverConfig) -> list[tuple[float, np.ndarray]]:
    d = t.dim
    B = cfg.resolve_starts(d)
    rng = np.random.default_rng(cfg.seed)
    W = sph.normalize(rng.uniform(0.1, 1.0, size=(B, d)))
    L = t.apply_full_batch(W)
    alive = np.ones(B, dtype=bool)
    done = np.zeros(B, dtype=bool)
    streak = np.zeros(B, dtype=np.int64)

    with np.errstate(all="ignore"):
        Fnorm = np.abs(_system_eval(t, sph, W, L)).max(axis=1)
        best_seen = Fnorm.copy()
        done |= Fnorm <= cfg.tol
        for _ in range(cfg.max_iters):
            act = np.flatnonzero(alive & ~done)
            if act.size == 0:
                break
            Wa, La = W[act], L[act]
            F = _system_eval(t, sph, Wa, La)
            J = _system_jac(t, sph, Wa, La)
            step = _solve_steps(J, F)
            bad = ~np.isfinite(step).all(axis=1)
            base = Fnorm[act]

            def trial(rows, alpha):
                tW = Wa[rows] + alpha[:, None] * step[rows, :d]
                tL = La[rows] + alpha * step[rows, d]
                tn = np.abs(_system_eval(t, sph, tW, tL)).max(axis=1)
                ok = np.isfinite(tn) & (tn < (1.0 - 1e-4 * alpha) * base[rows])
                return ok, (tW, tL, tn)

            nW, nL, nF = np.empty_like(Wa), np.empty_like(La), np.empty_like(base)
            accepted = _backtrack(np.flatnonzero(~bad), _MAX_HALVINGS, B, trial, (nW, nL, nF))
            hit = act[accepted]
            W[hit], L[hit], Fnorm[hit] = nW[accepted], nL[accepted], nF[accepted]
            alive[act[~accepted]] = False
            grown = np.abs(W[act]).max(axis=1) > 1e8
            alive[act[grown]] = False
            done[act] = Fnorm[act] <= cfg.tol

            improved = Fnorm[act] < 0.9 * best_seen[act]
            streak[act] = np.where(improved, 0, streak[act] + 1)
            best_seen[act] = np.minimum(best_seen[act], Fnorm[act])
            alive[act[streak[act] >= _STAGNATION_WINDOW]] = False

    roots = np.flatnonzero(alive & done)
    return [(float(L[r]), W[r].copy()) for r in roots]


def _polish(t: Tensor, sph: Sphere, W: np.ndarray, L: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A couple of undamped Newton steps to tighten renormalized roots.

    Returns the new W and L and the system F(W, L) there.
    """
    with np.errstate(all="ignore"):
        F = _system_eval(t, sph, W, L)
        for _ in range(_POLISH_STEPS):
            J = _system_jac(t, sph, W, L)
            step = _solve_steps(J, F)
            nW = W + step[:, : t.dim]
            nL = L + step[:, t.dim]
            better = np.isfinite(nW).all(axis=1) & np.isfinite(nL)
            nF = _system_eval(t, sph, np.where(better[:, None], nW, W), np.where(better, nL, L))
            take = better & (np.abs(nF).max(axis=1) <= np.abs(F).max(axis=1))
            W = np.where(take[:, None], nW, W)
            L = np.where(take, nL, L)
            F = np.where(take[:, None], nF, F)
    return W, L, F


def _finalize(t: Tensor, sph: Sphere, cands: list[tuple[float, np.ndarray]], cfg: SolverConfig) -> list[EigenPair]:
    """Positivity filter, exact renormalization, polish, dedup, stable order."""
    if not cands:
        return []
    W = np.array([w for _, w in cands])
    L = np.array([v for v, _ in cands])
    interior = W.min(axis=1) > cfg.pos_tol
    W, L = W[interior], L[interior]
    if W.shape[0] == 0:
        return []
    W = sph.normalize(W)
    W, L, F = _polish(t, sph, W, L)

    with np.errstate(all="ignore"):
        res = np.abs(F).max(axis=1)
        rows = F[:, : t.dim]
        rhs = sph.rhs(W)
        scale = t.contract_magnitude_batch(W) + np.abs(L)[:, None] * np.abs(rhs)
        genuine = (np.abs(rows) <= _REL_ROOT_TOL * scale + 1e-14).all(axis=1)
    keep = np.isfinite(res) & (res <= cfg.tol) & (W.min(axis=1) > cfg.pos_tol) & genuine
    W, L, res = W[keep], L[keep], res[keep]
    if W.shape[0] == 0:
        return []

    order_idx = np.lexsort(tuple(W[:, j] for j in reversed(range(t.dim))) + (L,))
    pairs: list[EigenPair] = []
    for i in order_idx:
        dup = any(
            abs(L[i] - p.value) <= cfg.dedup_tol and np.abs(W[i] - p.vector).max() <= VECTOR_DEDUP_TOL
            for p in pairs
        )
        if not dup:
            pairs.append(EigenPair(float(L[i]), W[i].copy(), sph.kind, float(res[i])))
    return pairs
