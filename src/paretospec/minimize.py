"""Minimize the homogeneous form A x^m over the nonnegative unit sphere.

The feasible set is {x >= 0, ||x||_k = 1} with k = m for the H geometry and
k = 2 for the Z geometry.  The optimizer is projected gradient descent with
Armijo backtracking, run from many random starts in one vectorized batch.
Each iteration tries the step lengths bb * 2^-r, r = 0..50, from the
Barzilai-Borwein length bb down, and each member takes the first that
decreases the objective enough.  The rungs are tried in blocks
(`eigen._backtrack`): a call evaluates several rungs of every pending
member, at most as many rows as there are starts.  The projection is the
componentwise clamp at zero followed by rescaling to the sphere.  Gradients
use the symmetric part of the tensor, which leaves the objective unchanged;
KKT quantities are reported against the tensor as given.

This module is the independent check on the spectral route: for symmetric
tensors the minimum value must match the smallest Pareto eigenvalue of the
matching kind.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .eigen import SolverConfig, _backtrack
from .tensor import Kind, Sphere, Tensor, knorm

# Projected-gradient stationarity target (infinity norm).
PG_TOL = 1e-9
# Armijo sufficient-decrease fraction and backtracking limit.
_ARMIJO = 1e-4
_MAX_BACKTRACKS = 50
# Spectral step clamp.
_BB_MIN = 1e-10
_BB_MAX = 1e6

# grid_lower_bound guards: full simplex grids get huge fast.
_GRID_MAX_DIM = 4
_GRID_MIN_RESOLUTION = 8
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

    Rows that clamp to zero have no defined projection; they come back NaN
    and the caller treats them as rejected trial points.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        return sph.normalize(np.maximum(X, 0.0))


def _tangential_gradient(s: Tensor, X: np.ndarray, m: int, k: float) -> np.ndarray:
    """Objective gradient minus its component along the k-norm sphere normal.

    The sphere {sum x_i^k = 1} has Euclidean normal x^{[k-1]} at x, while the
    rescaling in _project corrects along x itself.  For k > 2 those differ:
    stepping down the raw gradient and rescaling can increase the objective,
    so the descent direction must be tangent before the retraction.  The
    removal keeps the k-norm constant to first order, making the rescale a
    second-order correction.
    """
    G = m * s.contract_batch(X)
    N = X ** (k - 1.0)
    gn = np.einsum("bi,bi->b", G, N)
    nn = np.einsum("bi,bi->b", N, N)
    with np.errstate(invalid="ignore", divide="ignore"):
        coef = np.where(nn > 0, gn / nn, 0.0)
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
    F = s.apply_full_batch(X)
    active = np.ones(B, dtype=bool)
    # previous iterate and gradient feed the spectral (Barzilai-Borwein)
    # step length that seeds each Armijo backtrack
    prev_X = X.copy()
    prev_G = _tangential_gradient(s, X, m, k)

    with np.errstate(all="ignore"):
        for _ in range(cfg.max_iters):
            idx = np.flatnonzero(active)
            if idx.size == 0:
                break
            Xa = X[idx]
            G = _tangential_gradient(s, Xa, m, k)
            stat = Xa - _project(Xa - G, sph)
            stat_norm = np.abs(stat).max(axis=1)
            stat_norm = np.where(np.isfinite(stat_norm), stat_norm, np.inf)
            done = stat_norm <= PG_TOL
            active[idx[done]] = False
            keep = ~done
            idx = idx[keep]
            if idx.size == 0:
                continue
            Xa, Ga, Fa = X[idx], G[keep], F[idx]

            sv = Xa - prev_X[idx]
            yv = Ga - prev_G[idx]
            num = np.einsum("bi,bi->b", sv, sv)
            den = np.einsum("bi,bi->b", sv, yv)
            bb = np.where((den > 1e-30) & np.isfinite(den), num / np.maximum(den, 1e-300), 1.0)
            bb = np.clip(np.nan_to_num(bb, nan=1.0), _BB_MIN, _BB_MAX)

            def trial(rows, alpha):
                tP = _project(Xa[rows] - (bb[rows] * alpha)[:, None] * Ga[rows], sph)
                tX = np.nan_to_num(tP, nan=0.0)
                tF = s.apply_full_batch(tX)
                finite = np.isfinite(tP).all(axis=1)
                decrease = np.einsum("bi,bi->b", Ga[rows], Xa[rows] - tX)
                ok = finite & (tF <= Fa[rows] - _ARMIJO * decrease) & (tF < Fa[rows])
                return ok, (tP, tF)

            nX, nF = np.empty_like(Xa), np.empty_like(Fa)
            moved = _backtrack(np.arange(idx.size), _MAX_BACKTRACKS, B, trial, (nX, nF))
            hit = idx[moved]
            prev_X[hit], prev_G[hit] = Xa[moved], Ga[moved]
            X[hit], F[hit] = nX[moved], nF[moved]
            # members that cannot decrease along the projected path are parked
            active[idx[~moved]] = False

    # lexicographic tie-break on exactly equal values keeps the result stable
    best = min(range(B), key=lambda b: (F[b], tuple(X[b])))
    x_best = X[best].copy()
    _, _, kkt = kkt_residual(t, x_best, kind)
    return MinimizeResult(
        value=float(F[best]),
        argmin=x_best,
        kkt_residual=kkt,
        kind=kind,
        starts_used=B,
    )


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

    lambda_est = t.apply_full(x) / float(sph.level(x)) ** (t.order / sph.k)
    y_est = t.apply_contract(x) - lambda_est * sph.rhs(x)
    residual = float(max(max(0.0, -y_est.min()), abs(float(x @ y_est))))
    return float(lambda_est), y_est, residual


def _simplex_grid(dim: int, resolution: int) -> np.ndarray:
    """All nonnegative integer compositions of `resolution` into `dim` parts, scaled to the simplex.

    Rows come in ascending lexicographic order.  Column by column, each
    partial row with r units left becomes r + 1 rows whose next part runs
    0..r, in order; the last part takes what is left.
    """
    parts = np.zeros((1, 0), dtype=np.int64)
    left = np.array([resolution], dtype=np.int64)
    for _ in range(dim - 1):
        counts = left + 1
        owner = np.repeat(np.arange(left.size), counts)
        part = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
        parts = np.column_stack([parts[owner], part])
        left = left[owner] - part
    return np.column_stack([parts, left]).astype(np.float64) / float(resolution)


def grid_lower_bound(t: Tensor, kind: Kind, resolution: int = 64) -> float:
    """Smallest objective value over a dense simplex grid mapped to the sphere.

    A coarse certificate to sanity-check the optimizer: every grid point is
    feasible, so the result can never fall below the true minimum, and for
    fine grids it lands close above it.  Guarded to dimension <= 4.
    """
    sph = Sphere(kind, t.order)
    if t.dim > _GRID_MAX_DIM:
        raise ValueError(f"grid evaluation limited to dimension {_GRID_MAX_DIM}, got {t.dim}")
    if int(resolution) != resolution or resolution < _GRID_MIN_RESOLUTION:
        raise ValueError(f"resolution must be an integer >= {_GRID_MIN_RESOLUTION}")
    X = sph.normalize(_simplex_grid(t.dim, int(resolution)))
    best = np.inf
    for lo in range(0, X.shape[0], 8192):
        vals = t.apply_full_batch(X[lo : lo + 8192])
        best = min(best, float(vals.min()))
    return best
