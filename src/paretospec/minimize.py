"""Minimize the homogeneous form A x^m over the nonnegative unit sphere.

The feasible set is {x >= 0, ||x||_k = 1} with k = m for the H geometry and
k = 2 for the Z geometry.  The optimizer is projected gradient descent with
Armijo backtracking, run from many random starts in one vectorized batch.
Each iteration tries the step lengths bb * 2^-r, r = 0..50, from the
Barzilai-Borwein length bb down, and each member takes the first that
decreases the objective enough, or stops; the rungs are tried in blocks of
at most as many rows as there are starts (`eigen._backtrack`).  The
projection is the componentwise clamp at zero followed by rescaling to the
sphere; a trial row that clamps to zero comes back NaN, and the Armijo
comparisons reject it.  Each trial contracts once, C = A x^{m-1}, with
objective x . C, and the accepted trial's C gives the next gradient m C: one
contraction per start and per trial point, and none besides.  Gradients use
the symmetric part of the tensor, which leaves the objective unchanged; KKT
quantities are reported against the tensor as given.

This module is the independent check on the spectral route: for symmetric
tensors the minimum value must match the smallest Pareto eigenvalue of the
matching kind.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .eigen import SolverConfig, _backtrack
from .tensor import Kind, Sphere, Tensor, _ipow, knorm

# Projected-gradient stationarity target (infinity norm).
PG_TOL = 1e-9
# Projected-gradient iterations per start.
_MAX_ITERS = 200
# Armijo sufficient-decrease fraction and backtracking limit.
_ARMIJO = 1e-4
_MAX_BACKTRACKS = 50
# Spectral step clamp.
_BB_MIN = 1e-10
_BB_MAX = 1e6

# grid_lower_bound guards: full simplex grids get huge fast.
_GRID_MAX_DIM = 4
_GRID_MIN_RESOLUTION = 8
_GRID_MAX_POINTS = 10**7
# feasibility slop accepted by kkt_residual before declaring x infeasible
_FEAS_TOL = 1e-6


@dataclass(frozen=True)
class MinimizeResult:
    """Best point found over all starts; a heuristic global minimum."""

    value: float
    argmin: np.ndarray
    kkt_residual: float
    kind: Kind
    starts_used: int


def _project(X: np.ndarray, sph: Sphere) -> np.ndarray:
    """Clamp negatives, rescale rows to the unit sphere.

    Rows that clamp to zero have no defined projection: they come back NaN,
    so does their objective, and the Armijo comparisons reject them.  The
    level is summed column by column, left to right as np.sum does below 8
    columns, at a third of its cost on a few hundred rows.
    """
    P = np.maximum(X, 0.0)
    return P / (functools.reduce(np.add, _ipow(P, sph.k).T) ** (1.0 / sph.k))[:, None]


def _tangential(G: np.ndarray, X: np.ndarray, k: int) -> np.ndarray:
    """G minus its component along the k-norm sphere normal at each feasible row of X.

    The sphere {sum x_i^k = 1} has Euclidean normal x^{[k-1]} at x, while the
    rescaling in _project corrects along x itself.  For k > 2 those differ:
    stepping down the raw gradient and rescaling can increase the objective,
    so the descent direction must be tangent before the retraction.  The
    removal keeps the k-norm constant to first order, making the rescale a
    second-order correction.
    """
    N = _ipow(X, k - 1)
    coef = np.einsum("bi,bi->b", G, N) / np.einsum("bi,bi->b", N, N)
    return G - coef[:, None] * N


def minimize(t: Tensor, kind: Kind, config: SolverConfig | None = None) -> MinimizeResult:
    """Heuristic minimum of A x^m over the nonnegative unit sphere of the kind.

    Multistart projected gradient; deterministic for a fixed config.  The
    reported kkt_residual is computed against the tensor as given, so for
    non-symmetric input it may stay large even at a true minimizer of the
    (symmetrized) objective.
    """
    sph = Sphere(kind, t.order)
    cfg = config if config is not None else SolverConfig()
    if not t.symmetric:
        warnings.warn(
            "minimizing a non-symmetric tensor: the objective uses its symmetric part",
            stacklevel=2,
        )
    s = t if t.symmetric else t.symmetrized()
    m, d, k = t.order, t.dim, sph.k
    B = cfg.resolve_starts(d)
    rng = np.random.default_rng(cfg.seed)
    X = _project(rng.uniform(0.1, 1.0, size=(B, d)), sph)
    # C = A x^{m-1} per member: the objective is x . C and the gradient m C
    C = s.contract_batch(X)
    F = np.einsum("bi,bi->b", X, C)
    # the loop keeps the running members only; a member that stops leaves
    # its iterate and value in `ends`
    ends = []
    # previous iterate and gradient feed the spectral (Barzilai-Borwein)
    # step length that seeds each Armijo backtrack; the first step, with
    # no previous move, has length 1
    prev_X, prev_G = X, np.zeros_like(X)

    with np.errstate(all="ignore"):
        for _ in range(_MAX_ITERS):
            G = _tangential(m * C, X, k)
            live = (np.abs(X - _project(X - G, sph)).max(axis=1) > PG_TOL).nonzero()[0]
            if live.size == 0:
                break
            sv, yv = X - prev_X, G - prev_G
            num = np.einsum("bi,bi->b", sv, sv)
            den = np.einsum("bi,bi->b", sv, yv)
            bb = np.where((den > 1e-30) & np.isfinite(den), num / den, 1.0)
            # every step length alpha is a power of two, so alpha * (bb G)
            # is exactly (alpha bb) G
            S = np.clip(bb, _BB_MIN, _BB_MAX)[:, None] * G

            # row gathers use take: fancy indexing costs ~10x more at this size
            def trial(rows, alpha):
                x, f = X.take(rows, 0), F.take(rows)
                tX = _project(x - alpha[:, None] * S.take(rows, 0), sph)
                tC = s.contract_batch(tX)
                tF = np.einsum("bi,bi->b", tX, tC)
                decrease = np.einsum("bi,bi->b", G.take(rows, 0), x - tX)
                return (tF <= f - _ARMIJO * decrease) & (tF < f), (tX, tF, tC)

            passed, (tX, tF, tC) = _backtrack(live, _MAX_BACKTRACKS, B, trial)
            # members stationary, or unable to decrease along the projected
            # path, stop at their iterate; the rest move to their accepted trial
            stop = np.bincount(passed, minlength=F.size) == 0
            ends.append((X.compress(stop, 0), F.compress(stop)))
            prev_X, prev_G, X, F, C = X.take(passed, 0), G.take(passed, 0), tX, tF, tC
    X_end, F_end = (np.concatenate(v) for v in zip(*ends, (X, F)))

    # the least (F, x) in lexicographic order: one point, whatever the row order
    best = np.lexsort(np.vstack([X_end.T[::-1], F_end]))[0]
    x_best = X_end[best].copy()
    _, _, kkt = kkt_residual(t, x_best, kind)
    return MinimizeResult(value=float(F_end[best]), argmin=x_best, kkt_residual=kkt, kind=kind, starts_used=B)


def kkt_residual(t: Tensor, x: np.ndarray, kind: Kind) -> tuple[float, np.ndarray, float]:
    """First-order optimality data at a feasible point.

    Returns (lambda_est, y_est, residual): the Rayleigh-style multiplier
    estimate, the dual slack vector A x^{m-1} - lambda_est * rhs(x), and
    max(negative slack part, |x . y_est|).  Zero residual is the KKT system
    of the constrained minimization, i.e. a Pareto eigenpair.
    """
    sph = Sphere(kind, t.order)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (t.dim,):
        raise ValueError(f"vector shape {x.shape} incompatible with dimension {t.dim}")
    if not np.isfinite(x).all():
        raise ValueError("point has non-finite entries")
    if x.min() < -_FEAS_TOL or abs(knorm(x, sph.k) - 1.0) > _FEAS_TOL:
        raise ValueError("infeasible point: needs x >= 0 on the unit sphere of the kind")

    c, level = t.apply_contract(x), sph.level(x)
    lambda_est = float(x @ c) / sph.norm_power(float(level))  # A x^m as `Tensor.apply_full` evaluates it
    y_est = c - lambda_est * sph.rhs(x, level)
    residual = float(max(max(0.0, -y_est.min()), abs(float(x @ y_est))))
    return float(lambda_est), y_est, residual


@functools.lru_cache(maxsize=1)
def _simplex_grid(dim: int, resolution: int) -> np.ndarray:
    """All nonnegative integer compositions of `resolution` into `dim` parts, scaled to the simplex.

    Rows come in ascending lexicographic order, filled into one array.  The
    compositions into the last k parts grow in its leading rows, k = 1..dim:
    those whose first part is p > 0 repeat the last rows of those whose
    first part is 0, the ones whose next part is at least p, with p moved
    from that part to the first.  The last grid is kept, read-only, for
    both kinds and the next tensor of its dimension.
    """
    _simplex_grid.cache_clear()  # a new shape: drop the last grid before building
    grid = np.empty((math.comb(resolution + dim - 1, dim - 1), dim))
    grid[0, -1], top = resolution, 1
    for j in reversed(range(dim - 1)):
        grid[:top, j], lo = 0.0, top
        for part in range(1, resolution + 1):
            rows = math.comb(resolution - part + dim - j - 2, dim - j - 2)
            grid[lo : lo + rows, j + 1 :] = grid[top - rows : top, j + 1 :]
            grid[lo : lo + rows, j] = part
            grid[lo : lo + rows, j + 1] -= part
            lo += rows
        top = lo
    grid /= resolution
    grid.flags.writeable = False
    return grid


def check_grid(dim: int, resolution: int) -> None:
    """Raise ValueError unless grid_lower_bound accepts this dimension and resolution."""
    if dim > _GRID_MAX_DIM:
        raise ValueError(f"grid evaluation limited to dimension {_GRID_MAX_DIM}, got {dim}")
    if int(resolution) != resolution or resolution < _GRID_MIN_RESOLUTION:
        raise ValueError(f"resolution must be an integer >= {_GRID_MIN_RESOLUTION}")
    points = math.comb(int(resolution) + dim - 1, dim - 1)
    if points > _GRID_MAX_POINTS:
        raise ValueError(f"resolution {resolution} in dimension {dim} gives a grid of {points:,} points, "
                         f"over the limit of {_GRID_MAX_POINTS:,}")


def grid_lower_bound(t: Tensor, kind: Kind, resolution: int = 64) -> float:
    """Smallest objective value over a dense simplex grid mapped to the sphere.

    A coarse certificate to sanity-check the optimizer: every grid point is
    feasible, so the result can never fall below the true minimum, and for
    fine grids it lands close above it.  Guarded by check_grid.
    """
    sph = Sphere(kind, t.order)
    check_grid(t.dim, resolution)
    grid = _simplex_grid(t.dim, int(resolution))
    best = np.inf
    # rows normalize independently, so no normalized copy of the grid is held
    for lo in range(0, grid.shape[0], 8192):
        vals = t.apply_full_batch(sph.normalize(grid[lo : lo + 8192]))
        best = min(best, float(vals.min()))
    return best
