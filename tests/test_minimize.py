"""Projected-gradient minimizer, KKT residual, and grid cross-check."""

import itertools
import tracemalloc

import numpy as np
import pytest

from paretospec import fixtures
from paretospec.eigen import SolverConfig
from paretospec.minimize import MinimizeResult, _project, _simplex_grid, check_grid, grid_lower_bound, kkt_residual, minimize
from paretospec.spectrum import min_pareto
from paretospec.tensor import Sphere, build, knorm

from conftest import random_symmetric_tensor
from test_eigen import cubic_h_oracle, cubic_z_oracle

FAST = SolverConfig(starts=150, seed=2)

GROUPED_H_MIN = (3.0 - np.sqrt(10.0)) / 2.0  # closed form, checked by hand
GROUPED_Z_MIN = -1.0 / 24.0


def test_matrix_minimum_both_kinds():
    t = build(2, 2, [((0, 0), 1.0), ((0, 1), -2.0), ((1, 0), -2.0), ((1, 1), 1.0)])
    for kind in ("H", "Z"):
        res = minimize(t, kind, FAST)
        assert res.value == pytest.approx(-1.0, abs=1e-9)
        np.testing.assert_allclose(res.argmin, [2**-0.5, 2**-0.5], atol=1e-6)
        assert res.kkt_residual <= 1e-6
        assert res.kind == kind
        assert res.starts_used == 150


def test_parametric_quartic_interior_minimum():
    t, expected = fixtures.parametric_quartic(-1.0)
    res = minimize(t, "H", FAST)
    assert res.value == pytest.approx(1.0 - 27.0 ** 0.25, abs=1e-9)
    np.testing.assert_allclose(res.argmin, expected["interior_vector"], atol=1e-5)
    assert res.kkt_residual <= 1e-6


def test_parametric_quartic_vertex_minimum():
    t, _ = fixtures.parametric_quartic(1.0)
    res = minimize(t, "H", FAST)
    assert res.value == pytest.approx(1.0, abs=1e-9)
    # argmin is one of the axis vertices
    assert res.argmin.max() == pytest.approx(1.0, abs=1e-6)
    assert res.argmin.min() == pytest.approx(0.0, abs=1e-6)


def test_grouped_quartic_minima_closed_form():
    t, _ = fixtures.grouped_quartic()
    with pytest.warns(UserWarning, match="symmetric part"):
        res_h = minimize(t, "H", FAST)
    assert res_h.value == pytest.approx(GROUPED_H_MIN, abs=1e-9)
    with pytest.warns(UserWarning):
        res_z = minimize(t, "Z", FAST)
    assert res_z.value == pytest.approx(GROUPED_Z_MIN, abs=1e-9)


def test_cubic_minimum_equals_smallest_pareto_value_both_kinds():
    t, _ = fixtures.shifted_cubic()
    want_h = min(lam for lam, _ in cubic_h_oracle())
    want_z = min(mu for mu, _ in cubic_z_oracle())
    res_h = minimize(t, "H", FAST)
    res_z = minimize(t, "Z", FAST)
    assert res_h.value == pytest.approx(want_h, abs=1e-8)
    assert res_z.value == pytest.approx(want_z, abs=1e-8)
    # the spectral route lands on the same values
    assert min_pareto(t, "H", FAST)[0] == pytest.approx(res_h.value, abs=1e-7)
    assert min_pareto(t, "Z", FAST)[0] == pytest.approx(res_z.value, abs=1e-7)


def test_minimizer_feasible_and_deterministic():
    t, _ = fixtures.shifted_cubic()
    a = minimize(t, "H", FAST)
    b = minimize(t, "H", FAST)
    assert a.value == b.value
    np.testing.assert_array_equal(a.argmin, b.argmin)
    assert a.argmin.min() >= 0.0
    assert knorm(a.argmin, 3) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("kind, order", [("H", 3), ("H", 4), ("Z", 3)])
def test_projection_matches_sphere_normalize(kind, order):
    # the column-by-column level sum is np.sum's order below 8 columns, and
    # within a rounding per column above
    sph = Sphere(kind, order)
    rng = np.random.default_rng(order)
    for dim in range(1, 11):
        X = rng.normal(size=(300, dim))
        X[0] = -1.0  # clamps to zero: no projection
        with np.errstate(invalid="ignore"):
            got, want = _project(X, sph), sph.normalize(np.maximum(X[1:], 0.0))
        assert np.isnan(got[0]).all()
        if dim < 8:
            np.testing.assert_array_equal(got[1:], want)
        else:
            np.testing.assert_allclose(got[1:], want, rtol=dim * np.finfo(float).eps, atol=0)


def test_exact_ties_go_to_the_lexicographically_smallest_argmin():
    # both vertices reach -1 exactly; (value, x_1, ..., x_n) order picks (0, 1)
    t = build(3, 2, [((0, 0, 0), -1.0), ((1, 1, 1), -1.0)])
    res = minimize(t, "Z")
    assert res.value == -1.0
    np.testing.assert_array_equal(res.argmin, [0.0, 1.0])


def test_dim_one_minimize():
    t = build(3, 1, [((0, 0, 0), -2.5)])
    res = minimize(t, "H")
    assert res.value == pytest.approx(-2.5)
    np.testing.assert_allclose(res.argmin, [1.0])


def test_kkt_residual_at_minimizer_and_at_vertex():
    t, _ = fixtures.shifted_cubic()
    res = minimize(t, "H", FAST)
    lam, y, r = kkt_residual(t, res.argmin, "H")
    assert lam == pytest.approx(res.value, abs=1e-8)
    assert r <= 1e-7
    # vertex of the cubic: multiplier 1, dual slack (0, -2/3), residual 2/3
    lam, y, r = kkt_residual(t, np.array([1.0, 0.0]), "H")
    assert lam == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(y, [0.0, -2.0 / 3.0], atol=1e-12)
    assert r == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_kkt_residual_rejects_infeasible_points():
    t, _ = fixtures.shifted_cubic()
    with pytest.raises(ValueError, match="infeasible"):
        kkt_residual(t, np.array([-0.5, 1.0]), "H")
    with pytest.raises(ValueError, match="infeasible"):
        kkt_residual(t, np.array([2.0, 2.0]), "H")
    with pytest.raises(ValueError):
        kkt_residual(t, np.array([1.0, 0.0, 0.0]), "H")


def test_kkt_zero_residual_is_pareto_condition():
    # on the uniform diagonal tensor every feasible uniform point is optimal
    t = build(3, 2, [((0, 0, 0), 1.0), ((1, 1, 1), 1.0)])
    x = np.full(2, 2.0 ** (-1.0 / 3.0))
    lam, y, r = kkt_residual(t, x, "H")
    assert lam == pytest.approx(1.0, abs=1e-12)
    assert r <= 1e-12


def test_grid_bound_brackets_minimum():
    t, _ = fixtures.grouped_quartic()
    with pytest.warns(UserWarning):
        res = minimize(t, "H", FAST)
    g = grid_lower_bound(t, "H", resolution=64)
    assert g >= res.value - 1e-9
    assert g <= res.value + 1e-2
    gz = grid_lower_bound(t, "Z", resolution=64)
    assert gz >= GROUPED_Z_MIN - 1e-9
    assert gz <= GROUPED_Z_MIN + 1e-2


def test_grid_finer_resolution_tightens_toward_minimum():
    t, _ = fixtures.shifted_cubic()
    res = minimize(t, "H", FAST)
    coarse = grid_lower_bound(t, "H", resolution=8)
    fine = grid_lower_bound(t, "H", resolution=128)
    assert coarse >= res.value - 1e-9
    assert fine >= res.value - 1e-9
    assert fine - res.value <= coarse - res.value + 1e-12


def test_grid_guards():
    t5 = build(3, 5, [])
    with pytest.raises(ValueError, match="dimension"):
        grid_lower_bound(t5, "H")
    t, _ = fixtures.shifted_cubic()
    with pytest.raises(ValueError, match="resolution"):
        grid_lower_bound(t, "H", resolution=7)
    with pytest.raises(ValueError):
        grid_lower_bound(t, "Q")


def test_grid_point_guard_states_the_count():
    # C(r + 3, 3) points in dimension 4: 9,962,680 at r = 389, 10,039,316 at r = 390
    check_grid(4, 389)
    with pytest.raises(ValueError, match="10,039,316 points"):
        check_grid(4, 390)
    with pytest.raises(ValueError, match="10,827,401 points"):
        grid_lower_bound(build(3, 4, [((0, 0, 0), 1.0)]), "H", resolution=400)


def _compositions_by_bars(dim, resolution):
    """Compositions of `resolution` into `dim` parts from stars and bars, one row per bar placement."""
    rows = []
    for bars in itertools.combinations(range(resolution + dim - 1), dim - 1):
        edges = (-1,) + bars + (resolution + dim - 1,)
        rows.append([b - a - 1 for a, b in zip(edges, edges[1:])])
    return np.array(rows, dtype=np.float64).reshape(-1, dim) / resolution


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("resolution", [1, 2, 5, 8, 13])
def test_simplex_grid_matches_stars_and_bars(dim, resolution):
    grid = _simplex_grid(dim, resolution)
    np.testing.assert_array_equal(grid, _compositions_by_bars(dim, resolution))


def _stacked_simplex_grid(dim, resolution):
    """The grid as it was built before it was filled in place: each column stacked onto copies of the last."""
    parts = np.zeros((1, 0), dtype=np.int64)
    left = np.array([resolution], dtype=np.int64)
    for _ in range(dim - 1):
        counts = left + 1
        owner = np.repeat(np.arange(left.size), counts)
        part = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
        parts = np.column_stack([parts[owner], part])
        left = left[owner] - part
    return np.column_stack([parts, left]).astype(np.float64) / float(resolution)


def test_simplex_grid_fills_one_array_with_the_stacked_rows():
    for dim, resolution in itertools.product(range(1, 7), (1, 3, 16, 40)):
        _simplex_grid.cache_clear()
        assert _simplex_grid(dim, resolution).tobytes() == _stacked_simplex_grid(dim, resolution).tobytes()
    _simplex_grid.cache_clear()
    tracemalloc.start()
    try:
        grid = _simplex_grid(4, 100)  # 176,851 points
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * grid.nbytes


def test_simplex_grid_is_shared_and_read_only():
    grid = _simplex_grid(3, 8)
    assert grid is _simplex_grid(3, 8)
    with pytest.raises(ValueError, match="read-only"):
        grid[0, 0] = 1.0


def test_grid_bound_from_shared_grid_matches_fresh_build():
    # 47,905 points at n = 4, resolution 64: several normalized chunks
    t = random_symmetric_tensor(np.random.default_rng(5), 3, 4)
    kinds = ("H", "Z", "H")
    fresh = []
    for kind in kinds:
        _simplex_grid.cache_clear()
        fresh.append(grid_lower_bound(t, kind, resolution=64))
    assert [grid_lower_bound(t, kind, resolution=64) for kind in kinds] == fresh
    assert _simplex_grid.cache_info().hits == len(kinds)


def test_grid_three_and_four_dims_run():
    rng = np.random.default_rng(12)
    t3 = build(3, 3, [((i, j, k), float(rng.uniform(-1, 1))) for i in range(3) for j in range(3) for k in range(3)])
    g = grid_lower_bound(t3, "H", resolution=16)
    assert np.isfinite(g)
    t4 = build(2, 4, [((i, j), float(rng.uniform(-1, 1))) for i in range(4) for j in range(4)])
    g4 = grid_lower_bound(t4, "Z", resolution=16)
    assert np.isfinite(g4)


def test_minimize_validation():
    t, _ = fixtures.shifted_cubic()
    with pytest.raises(ValueError):
        minimize(t, "Q")
    with pytest.raises(ValueError, match="kind"):
        kkt_residual(t, np.array([1.0, 0.0]), "Q")
