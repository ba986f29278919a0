"""Interior eigenpair solver tests.

Oracles: classical eigendecomposition for order 2, and hand-reduced
univariate polynomials for the dim-2 cubic and quartic fixtures (their
interior pairs reduce to real roots of explicit quartics/cubics, solved
here with numpy.roots).
"""

import dataclasses
import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

import paretospec.eigen as eigen_mod
from paretospec import fixtures, pareto_spectrum, verify_pareto_pair
from paretospec.eigen import (
    POS_TOL,
    EigenPair,
    SolverConfig,
    residual,
    solve_interior,
    solved_exhaustively,
)
from paretospec.eigen import (
    VECTOR_DEDUP_TOL,
    _MAX_HALVINGS,
    _backtrack,
    _closed_form,
    _finalize,
    _generic_count,
    _hidden_roots,
    _keep_first,
    _matrix,
    _newton_candidates,
    _null_roots,
    _off_diagonal,
    _solve_steps,
    _sylvester,
    _sylvester_shape,
    _system_eval,
    _system_jac,
)
from paretospec.minimize import _MAX_BACKTRACKS
from paretospec.tensor import Sphere, Tensor, build, embed_rows, knorm

from conftest import dense_contract, dense_from_entries, dense_symmetrize, random_entries, random_symmetric_tensor

FAST = SolverConfig(starts=150, seed=1)


def values(pairs):
    return sorted(p.value for p in pairs)


def assert_value_sets_close(got, want, tol=1e-8):
    got, want = sorted(got), sorted(want)
    assert len(got) == len(want), f"{got} vs {want}"
    for g, w in zip(got, want):
        assert g == pytest.approx(w, abs=tol), f"{got} vs {want}"


# -- closed-form routes ------------------------------------------------------


def test_dim_one_returns_single_coefficient():
    t = build(3, 1, [((0, 0, 0), -1.5)])
    for kind in ("H", "Z"):
        pairs = solve_interior(t, kind)
        assert len(pairs) == 1
        assert pairs[0].value == -1.5
        np.testing.assert_array_equal(pairs[0].vector, [1.0])
        assert pairs[0].residual == 0.0


def test_matrix_route_keeps_only_positive_eigenvectors():
    # eigh basis of [[1,-2],[-2,1]]: value -1 with positive vector, 3 with mixed
    t = build(2, 2, [((0, 0), 1.0), ((0, 1), -2.0), ((1, 0), -2.0), ((1, 1), 1.0)])
    assert t.symmetric
    for kind in ("H", "Z"):
        pairs = solve_interior(t, kind)
        assert len(pairs) == 1
        assert pairs[0].value == pytest.approx(-1.0, abs=1e-12)
        np.testing.assert_allclose(pairs[0].vector, [2**-0.5, 2**-0.5], atol=1e-12)


def test_matrix_route_matches_eigh_oracle_on_random_symmetric():
    rng = np.random.default_rng(42)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        m = rng.uniform(-1, 1, size=(n, n))
        m = (m + m.T) / 2
        t = build(2, n, [((i, j), float(m[i, j])) for i in range(n) for j in range(n)])
        vals, vecs = np.linalg.eigh(m)
        want = []
        for k in range(n):
            v = vecs[:, k].copy()
            if v[np.argmax(np.abs(v))] < 0:
                v = -v
            if v.min() > 1e-8:
                want.append(vals[k])
        assert_value_sets_close(values(solve_interior(t, "H")), want, tol=1e-10)


def test_nonsymmetric_matrix_route_drops_complex_pairs():
    # rotation-like matrix: complex spectrum, no interior pairs
    t = build(2, 2, [((0, 1), -1.0), ((1, 0), 1.0)])
    assert solve_interior(t, "H") == []
    # and a positive matrix keeps its Perron pair
    t2 = build(2, 2, [((0, 0), 1.0), ((0, 1), 2.0), ((1, 0), 3.0), ((1, 1), 1.0)])
    pairs = solve_interior(t2, "H")
    assert len(pairs) == 1
    assert pairs[0].value == pytest.approx(1.0 + np.sqrt(6.0), abs=1e-10)


def test_matrix_reads_the_dense_form_off_the_monomial_table():
    rng = np.random.default_rng(43)
    for n in (1, 2, 5):
        a = rng.uniform(-1, 1, size=(n, n))
        a[rng.uniform(size=(n, n)) < 0.3] = 0.0
        t = build(2, n, [((i, j), float(a[i, j])) for i in range(n) for j in range(n)])
        np.testing.assert_array_equal(_matrix(t), a)
    np.testing.assert_array_equal(_matrix(build(2, 3, [])), np.zeros((3, 3)))


def test_diagonal_h_pairs_require_equal_entries():
    t_eq = build(3, 3, [((i, i, i), 2.0) for i in range(3)])
    pairs = solve_interior(t_eq, "H")
    assert len(pairs) == 1
    assert pairs[0].value == pytest.approx(2.0, abs=1e-14)
    np.testing.assert_allclose(pairs[0].vector, np.full(3, 3.0 ** (-1.0 / 3.0)), atol=1e-14)

    t_neq = build(3, 3, [((i, i, i), float(1 + i)) for i in range(3)])
    assert solve_interior(t_neq, "H") == []


def test_diagonal_z_pair_same_sign_closed_form():
    # diag(3, 5, 7), order 4: mu = 1 / (1/3 + 1/5 + 1/7) = 105/71
    t = build(4, 3, [((0,) * 4, 3.0), ((1,) * 4, 5.0), ((2,) * 4, 7.0)])
    pairs = solve_interior(t, "Z")
    assert len(pairs) == 1
    assert pairs[0].value == pytest.approx(105.0 / 71.0, abs=1e-12)
    assert pairs[0].residual <= 1e-12

    t_neg = build(4, 2, [((0,) * 4, -1.0), ((1,) * 4, -2.0)])
    pairs = solve_interior(t_neg, "Z")
    assert len(pairs) == 1
    assert pairs[0].value == pytest.approx(-2.0 / 3.0, abs=1e-12)

    # order 3 at far scales, where the squares of w_i ~ 1 / d_i leave the
    # float range: the value scales with the entries, 2 / sqrt(5) at scale 1
    for scale in (1e-200, 1e200):
        t_far = build(3, 2, [((0,) * 3, scale), ((1,) * 3, 2 * scale)])
        pairs = solve_interior(t_far, "Z")
        assert len(pairs) == 1
        assert pairs[0].value == pytest.approx(scale * 2 / np.sqrt(5), rel=1e-12)
        [cert] = [c for c in pareto_spectrum(t_far, "Z").items if c.subset == (0, 1)]
        assert cert.value == pytest.approx(scale * 2 / np.sqrt(5), rel=1e-12)
        assert verify_pareto_pair(t_far, cert.value, cert.vector, "Z").ok


def test_diagonal_z_mixed_sign_or_partial_zero_has_no_interior_pair():
    assert solve_interior(build(3, 2, [((0, 0, 0), 1.0), ((1, 1, 1), -1.0)]), "Z") == []
    assert solve_interior(build(3, 2, [((0, 0, 0), 1.0)]), "Z") == []


def test_zero_tensor_interior_pairs():
    t = build(4, 3, [])
    for kind in ("H", "Z"):
        pairs = solve_interior(t, kind)
        assert len(pairs) == 1
        assert pairs[0].value == 0.0


def test_unit_cubic_identity_z_value():
    # diag(1, 1), order 3: both rows force mu = w_i, so w uniform on the circle
    t = build(3, 2, [((0, 0, 0), 1.0), ((1, 1, 1), 1.0)])
    pairs = solve_interior(t, "Z")
    assert len(pairs) == 1
    assert pairs[0].value == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-12)


# -- Newton route against reduced-polynomial oracles -------------------------


def test_solve_steps_falls_back_per_row_on_a_singular_jacobian():
    rng = np.random.default_rng(11)
    J, F = rng.normal(size=(4, 3, 3)), rng.normal(size=(4, 3))
    J[2] = [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [0.0, 1.0, 1.0]]  # exactly singular
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(J, -F[:, :, None])
    steps = _solve_steps(J, F)
    for r in (0, 1, 3):
        np.testing.assert_array_equal(steps[r], np.linalg.solve(J[r], -F[r]))
    np.testing.assert_array_equal(steps[2], np.linalg.lstsq(J[2], -F[2], rcond=None)[0])


def cubic_h_oracle():
    """Interior H-pairs of the shifted cubic reduce to s^4 - 4 s^3 - 3 s^2 - 2 s + 2 = 0."""
    out = []
    for s in np.roots([1.0, -4.0, -3.0, -2.0, 2.0]):
        if abs(s.imag) < 1e-12 and s.real > 1e-10:
            s = s.real
            lam = 1.0 - 4.0 * s / 3.0 + s * s / 3.0
            w = np.array([1.0, s])
            out.append((lam, w / knorm(w, 3)))
    return out


def cubic_z_oracle():
    """Interior Z-pairs of the shifted cubic reduce to r^3 - 10 r^2 + r + 2 = 0."""
    out = []
    for r in np.roots([1.0, -10.0, 1.0, 2.0]):
        if abs(r.imag) < 1e-12 and r.real > 1e-10:
            r = r.real
            c = 1.0 / np.sqrt(1.0 + r * r)
            s = r * c
            mu = (c * c - 4.0 * c * s / 3.0 + s * s / 3.0) / c
            out.append((mu, np.array([c, s])))
    return out


def test_newton_matches_cubic_h_oracle():
    t, _ = fixtures.shifted_cubic()
    pairs = solve_interior(t, "H", FAST)
    want = cubic_h_oracle()
    assert_value_sets_close(values(pairs), [lam for lam, _ in want], tol=1e-9)
    for lam, w in want:
        close = [p for p in pairs if abs(p.value - lam) < 1e-8]
        assert len(close) == 1
        np.testing.assert_allclose(close[0].vector, w, atol=1e-9)


def test_newton_matches_cubic_z_oracle():
    t, _ = fixtures.shifted_cubic()
    pairs = solve_interior(t, "Z", FAST)
    want = cubic_z_oracle()
    assert_value_sets_close(values(pairs), [mu for mu, _ in want], tol=1e-9)


def test_grouped_quartic_unique_interior_pairs():
    t, _ = fixtures.grouped_quartic()
    h = solve_interior(t, "H", FAST)
    assert len(h) == 1
    assert h[0].value == pytest.approx(0.0, abs=1e-10)
    np.testing.assert_allclose(h[0].vector, [fixtures.UNIF4, fixtures.UNIF4], atol=1e-9)
    z = solve_interior(t, "Z", FAST)
    assert len(z) == 1
    assert z[0].value == pytest.approx(0.0, abs=1e-10)
    np.testing.assert_allclose(z[0].vector, [fixtures.ROOT2_HALF, fixtures.ROOT2_HALF], atol=1e-9)


def test_parametric_quartic_interior_h_pair():
    t, expected = fixtures.parametric_quartic(-1.0)
    pairs = solve_interior(t, "H", FAST)
    assert len(pairs) == 1
    assert pairs[0].value == pytest.approx(1.0 - 27.0 ** 0.25, abs=1e-10)
    np.testing.assert_allclose(pairs[0].vector, expected["interior_vector"], atol=1e-9)


def two_index_polynomial(a: np.ndarray, kind: str) -> np.ndarray:
    """Coefficients, ascending in s, of the polynomial of a dense dimension-2 tensor.

    With p_a(s) = (A w^{m-1})_a at w = (1, s), summed entry by entry, its
    positive roots give the interior pairs: p_1 - s^{m-1} p_0 (H) or
    p_1 - s p_0 (Z).
    """
    m = a.ndim
    p = np.zeros((2, m))
    for idx in np.ndindex(a.shape):
        p[idx[0], sum(idx[1:])] += a[idx]
    shift = m - 1 if kind == "H" else 1
    q = np.zeros(m + shift)
    q[:m] += p[1]
    q[shift:] -= p[0]
    return q


def two_index_oracle(a: np.ndarray, kind: str, imag_tol: float = 1e-9) -> list[tuple[float, np.ndarray]]:
    """Interior (value, unit vector) pairs of a dense dimension-2 tensor from numpy.roots."""
    m = a.ndim
    q = two_index_polynomial(a, kind)
    out = []
    for z in np.roots(q[::-1]):
        if z.real > 0 and abs(z.imag) <= imag_tol * abs(z):
            w = np.array([1.0, z.real])
            w /= knorm(w, m if kind == "H" else 2)
            # the value from the row of the larger entry, on the unit vector
            k = int(w.argmax())
            rhs = w[k] ** (m - 1) if kind == "H" else w[k]
            out.append((dense_contract(a, w)[k] / rhs, w))
    return out


def assert_pairs_match(pairs, want, tol=1e-9):
    """The pairs equal the wanted (value, vector) list up to order, within tol."""
    got = [(p.value, p.vector) for p in pairs]
    assert len(got) == len(want), (got, want)
    for wv, ww in want:
        near = [abs(gv - wv) <= tol * max(1.0, abs(wv)) and np.abs(gw - ww).max() <= tol for gv, gw in got]
        assert sum(near) == 1, (wv, ww, got)


@pytest.mark.parametrize("order", [3, 4, 5])
def test_two_index_route_matches_newton_and_roots_oracle(order):
    rng = np.random.default_rng(300 + order)
    cases = [True, True, False, False, False]  # symmetrized or not; few entries leave zero coefficients
    for symmetric in cases:
        entries = random_entries(rng, order, 2, int(rng.integers(2, 4 * order)))
        t = build(order, 2, entries, symmetrize=symmetric)
        a = dense_from_entries(order, 2, entries)
        if symmetric:
            a = dense_symmetrize(a)
        for kind in ("H", "Z"):
            exact = solve_interior(t, kind)
            assert solved_exhaustively(t, kind) is True
            assert_pairs_match(exact, two_index_oracle(a, kind))
            sph = Sphere(kind, order)
            L, W = _newton_candidates(t, sph, FAST)
            W, L, _, _ = _finalize(t, sph, W, L, np.ones(L.size, dtype=bool), FAST)
            assert_pairs_match([EigenPair(v, w, kind, 0.0) for v, w in zip(L, W)], two_index_oracle(a, kind))


def test_two_index_zero_polynomial_withdraws_complete():
    # A x^4 = (x.x)^2: A x^3 = (x.x) x, so every vector is a Z-eigenvector with
    # value 1, reported by w = (1, 1); its H-pairs are isolated
    entries = [((0, 0, 0, 0), 1.0), ((0, 0, 1, 1), 2.0), ((1, 1, 1, 1), 1.0)]
    t = build(4, 2, entries, symmetrize=True)
    pairs = solve_interior(t, "Z")
    assert [p.value for p in pairs] == [pytest.approx(1.0, abs=1e-14)]
    np.testing.assert_allclose(pairs[0].vector, [fixtures.ROOT2_HALF] * 2, atol=1e-14)
    assert solved_exhaustively(t, "Z") is False
    assert solved_exhaustively(t, "H") is True
    assert_pairs_match(solve_interior(t, "H"), two_index_oracle(dense_symmetrize(dense_from_entries(4, 2, entries)), "H"))
    # equal diagonal entries (H) and the zero tensor (both kinds) are families too
    for order in (3, 4, 5):
        assert solved_exhaustively(build(order, 2, [((0,) * order, 2.0), ((1,) * order, 2.0)]), "H") is False
        for kind in ("H", "Z"):
            zero = build(order, 2, [])
            assert solved_exhaustively(zero, kind) is False
            assert [p.value for p in solve_interior(zero, kind)] == [pytest.approx(0.0, abs=1e-14)]


def test_two_index_close_roots_withdraw_complete():
    # H, order 3, p_0 = 0 and p_1 = (s - 1)^2 + eps: eps = 0 is a double root at
    # s = 1, eps < 0 splits it into two real roots 2e-6 apart and eps > 0 into a
    # complex pair; none of them is resolved, so each withdraws the claim
    for eps in (0.0, -1e-12, 1e-12):
        t = build(3, 2, [((1, 0, 0), 1.0 + eps), ((1, 0, 1), -1.0), ((1, 1, 0), -1.0), ((1, 1, 1), 1.0)])
        assert solved_exhaustively(t, "H") is False
        pairs = solve_interior(t, "H")
        assert pairs and all(abs(p.value) < 1e-9 for p in pairs)
        assert all(np.abs(p.vector - 2 ** (-1 / 3)).max() < 1e-5 for p in pairs)
    # two simple roots 0.1 apart are resolved
    t = build(3, 2, [((1, 0, 0), 1.1), ((1, 0, 1), -2.1), ((1, 1, 1), 1.0)])
    assert solved_exhaustively(t, "H") is True
    assert sorted(round(p.vector[1] / p.vector[0], 9) for p in solve_interior(t, "H")) == [1.0, 1.1]


def test_spectrum_does_not_import_numpy_ma():
    # On numpy 2.x the first np.unique imports numpy.ma (about 0.9 MB); the
    # README quickstart tensor, shifted_cubic, takes the 2-index route
    code = ("import sys, numpy\n"
            "if 'numpy.ma' in sys.modules: sys.exit(3)\n"
            "from paretospec import fixtures, pareto_spectrum\n"
            "for kind in 'HZ': pareto_spectrum(fixtures.shifted_cubic()[0], kind)\n"
            "sys.exit(4 if 'numpy.ma' in sys.modules else 0)\n")
    src = os.path.dirname(os.path.dirname(eigen_mod.__file__))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    status = subprocess.run([sys.executable, "-c", code], env=env).returncode
    if status == 3:
        pytest.skip("import numpy loads numpy.ma on this numpy")
    assert status == 0


def test_newton_route_agrees_with_diagonal_closed_form():
    rng = np.random.default_rng(8)
    d = rng.uniform(0.5, 2.0, size=3)
    t = build(4, 3, [((i,) * 4, float(d[i])) for i in range(3)])
    closed = solve_interior(t, "Z")
    values, vectors = _newton_candidates(t, Sphere("Z", 4), SolverConfig(starts=200, seed=3))
    assert values.size, "multistart found nothing on a solvable diagonal"
    vals = {round(v, 9) for v, w in zip(values, vectors) if w.min() > 1e-8}
    assert any(abs(v - closed[0].value) < 1e-8 for v in vals)


def _spectrum_key(spec):
    return spec.complete, [(c.subset, c.value, c.vector.tolist()) for c in spec.items]


@pytest.mark.parametrize("order", [3, 4])
def test_off_diagonal_scan_matches_principal_subtensors(order):
    # oracle: the route table's scan against each sub-tensor's own check
    rng = np.random.default_rng(60 + order)
    tensors = []
    for dim in (2, 3, 4, 5):
        for count in (1, 2, 4, 8):
            entries = random_entries(rng, order, dim, count)
            entries += [((i,) * order, 1.0) for i in range(dim)]
            tensors.append(build(order, dim, entries, symmetrize=bool(rng.integers(2))))
    # a slice stored as exactly 0.0 couples nothing: the tensor stays diagonal
    diagonal = {(i, (i,) * (order - 1)): float(i + 1) for i in range(3)}
    zero_slice = Tensor(order, 3, {**diagonal, (0, (1,) * (order - 2) + (2,)): 0.0})
    tensors.append(zero_slice)
    for t in tensors:
        for card in range(1, t.dim + 1):
            subsets = np.array(list(itertools.combinations(range(t.dim), card)), dtype=np.intp)
            member = np.zeros((subsets.shape[0], t.dim), dtype=bool)
            member[np.arange(subsets.shape[0])[:, None], subsets] = True
            want = [not t.principal_subtensor(row).is_diagonal() for row in subsets]
            assert _off_diagonal(t, member).tolist() == want, (t.slices, card)
    assert zero_slice.is_diagonal()
    for kind in ("H", "Z"):
        assert solved_exhaustively(zero_slice, kind) is True
        want = _spectrum_key(pareto_spectrum(Tensor(order, 3, diagonal), kind))
        assert _spectrum_key(pareto_spectrum(zero_slice, kind)) == want
        assert want[0] is True


# -- exact 3-index route -------------------------------------------------------


def _complex_contract(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(A x^{m-1})_i of a dense array at a complex vector."""
    out = a.astype(complex)
    for _ in range(a.ndim - 1):
        out = np.tensordot(out, x, axes=([out.ndim - 1], [0]))
    return out


@pytest.mark.parametrize("order", [3, 4])
@pytest.mark.parametrize("kind", ["H", "Z"])
def test_three_index_chart_finds_the_generic_root_count(kind, order):
    """One chart of a random dense tensor has 12 / 7 / 27 / 13 finite complex roots.

    Each root (1, s, t) of the chart with pivot 0 is checked on the dense
    array: A w^{m-1} must be parallel to w^[m-1] (H) or w (Z).  The
    generic counts are 3 (m-1)^2 and ((m-1)^3 - 1) / (m-2); the other
    eigenvalues of the companion lie at t = infinity and fail the check.
    """
    t = random_symmetric_tensor(np.random.default_rng(1), order, 3)
    sph = Sphere(kind, order)
    _, syl = _sylvester(t, sph, np.array([[0, 1, 2]]), np.ones((1, 3), dtype=bool))
    roots, singular = _hidden_roots(syl)
    assert not singular.any()
    ns, D = _sylvester_shape(sph)
    assert roots.shape == (3, ns * D)  # three charts, each its block companion's eigenvalues
    assert ns * D == {(3, "H"): 24, (3, "Z"): 15, (4, "H"): 54, (4, "Z"): 28}[order, kind]
    tr = roots[0]
    s, _ = _null_roots(syl, np.zeros(tr.size, dtype=np.intp), tr)
    a = dense_from_entries(order, 3, [((lead,) + trail, v) for (lead, trail), v in t.slices.items()])
    power = order - 1 if kind == "H" else 1
    relative = []
    for si, ti in zip(s, tr):
        w = np.array([1.0, si, ti])
        c = _complex_contract(a, w)
        scale = _complex_contract(np.abs(a), np.abs(w)).real + np.abs(c[0]) * np.abs(w) ** power
        relative.append(np.max(np.abs(c - c[0] * w**power) / scale))
    relative = np.array(relative)
    want = {(3, "H"): 12, (3, "Z"): 7, (4, "H"): 27, (4, "Z"): 13}[order, kind]
    assert _generic_count(sph, 3) == want
    assert (relative < 1e-6).sum() == want
    assert (relative[relative >= 1e-6] > 1e-2).all()


@pytest.mark.parametrize("order", [3, 4])
def test_three_index_route_is_exhaustive_and_finds_the_multistart_pairs(order):
    # symmetric tensors, and dense non-symmetric ones, whose leads each
    # carry their own coefficient of a monomial
    rng = np.random.default_rng(40 + order)
    tensors = [random_symmetric_tensor(rng, order, 3) for _ in range(3)]
    for _ in range(3):
        entries = [(idx, float(rng.uniform(-1.0, 1.0))) for idx in itertools.product(range(3), repeat=order)]
        tensors.append(build(order, 3, entries))
    for t in tensors:
        for kind in ("H", "Z"):
            assert solved_exhaustively(t, kind) is True
            exact = solve_interior(t, kind)
            sph = Sphere(kind, order)
            L, W = _newton_candidates(t, sph, SolverConfig(starts=3000, seed=5))
            W, L, _, _ = _finalize(t, sph, W, L, np.ones(L.size, dtype=bool), FAST)
            for value, vector in zip(L, W):
                assert any(abs(p.value - value) <= 1e-9 and np.abs(p.vector - vector).max() <= 1e-7 for p in exact)
            for p in exact:
                assert p.residual <= FAST.tol
                assert knorm(p.vector, sph.k) == pytest.approx(1.0, abs=1e-12)


def test_three_index_family_falls_back_to_multistart(monkeypatch):
    # (x.x)^2 pairs every vector with the Z-value 1: f = p_1 - s p_0 and
    # g = p_2 - t p_0 vanish identically, and so does their resultant
    entries = [((i, i, j, j), 1.0) for i in range(3) for j in range(3)]
    t = build(4, 3, entries, symmetrize=True)
    calls = []
    newton = eigen_mod._newton_candidates
    monkeypatch.setattr(eigen_mod, "_newton_candidates", lambda *a: calls.append(a) or newton(*a))
    assert solved_exhaustively(t, "Z") is False
    pairs = solve_interior(t, "Z", FAST)
    assert len(calls) == 1  # the solve only: the flag is read off the route table
    assert len(pairs) > 1
    for p in pairs:
        assert p.value == pytest.approx(1.0, abs=1e-10)
        assert residual(t, p) <= FAST.tol


@pytest.mark.parametrize("kind", ["H", "Z"])
def test_masked_polish_keeps_each_support(kind):
    # coupling entries far above 1: where the polish masked only the eigen
    # rows off the support, partial pivoting would take a support row as the
    # pivot of an off-support column and the zeros would leak
    rng = np.random.default_rng(12)
    entries = [(key, float(rng.uniform(-1.0, 1.0)) * (0.1 if len(set(key)) == 1 else 10.0))
               for key in itertools.combinations_with_replacement(range(5), 3)]
    t = build(3, 5, entries, symmetrize=True)
    sph = Sphere(kind, 3)
    Ys, Ls, want = [], [], {}
    for size in (2, 3):
        subsets = np.array(list(itertools.combinations(range(5), size)))
        R, W, L, _, exhaustive, _ = _closed_form(t, sph, subsets, FAST)
        keep = exhaustive[R] & (W.min(axis=1) > POS_TOL)
        Ys.append(embed_rows(W[keep], subsets[R[keep]], 5))
        Ls.append(L[keep])
        want.update((tuple(s), solve_interior(t.principal_subtensor(s), kind)) for s in subsets[exhaustive].tolist())
    Y, L = np.concatenate(Ys), np.concatenate(Ls)
    assert {np.count_nonzero(y) for y in Y} == {2, 3}
    # every support size polished in one call, from 1e-7 off the roots
    Y = Y * (1.0 + 1e-7 * rng.standard_normal(Y.shape))
    Y, L, _, _ = _finalize(t, sph, Y, L, np.ones(L.size, dtype=bool), FAST)
    got = {}
    for y, value in zip(Y, L):  # a row's support is where it is nonzero: exact 0.0 elsewhere
        got.setdefault(tuple(np.flatnonzero(y).tolist()), []).append(value)
    assert got.keys() == {s for s, pairs in want.items() if pairs}
    for s, vals in got.items():
        np.testing.assert_allclose(vals, [p.value for p in want[s]], rtol=0, atol=1e-12)


def test_solved_exhaustively_runs_no_multistart(monkeypatch):
    # an uncertified 3-index tensor and a dense dimension-4 one both need
    # multistart to be solved, but not to tell that they are not exhaustive
    def fail(*args):
        raise AssertionError("solved_exhaustively ran multistart")

    monkeypatch.setattr(eigen_mod, "_newton_candidates", fail)
    family = build(4, 3, [((i, i, j, j), 1.0) for i in range(3) for j in range(3)], symmetrize=True)
    assert solved_exhaustively(family, "Z") is False
    dense = random_symmetric_tensor(np.random.default_rng(8), 3, 4)
    for kind in ("H", "Z"):
        assert solved_exhaustively(dense, kind) is False


def _halving_ladder(members, last_rung, trial, out):
    """Reference line search: one call per rung, halving every pending step."""
    passed = np.zeros(out[0].shape[0], dtype=bool)
    alpha = np.ones(out[0].shape[0])
    pend = members
    for _ in range(last_rung + 1):
        if pend.size == 0:
            break
        ok, values = trial(pend, alpha[pend])
        for dst, v in zip(out, values):
            dst[pend[ok]] = v[ok]
        passed[pend[ok]] = True
        pend = pend[~ok]
        alpha[pend] *= 0.5
    return passed


def _patterned_trial(passes, nonfinite, rows_per_call):
    """Trial whose member r passes at rung j iff passes[r, j] and its value there is finite."""

    def trial(rows, alpha):
        rows_per_call.append(rows.size)
        rung = np.rint(-np.log2(alpha)).astype(int)
        assert np.array_equal(np.ldexp(1.0, -rung), alpha), "step lengths must be exact powers of two"
        value = rows * 1000.0 + rung
        value[nonfinite[rows, rung]] = np.nan
        ok = passes[rows, rung] & np.isfinite(value)
        return ok, (value, alpha)

    return trial


# Newton's ladder, a 30-rung one, and minimize's
@pytest.mark.parametrize("last_rung", [_MAX_HALVINGS, 30, _MAX_BACKTRACKS])
def test_blocked_backtracking_matches_halving_ladder(last_rung):
    rng = np.random.default_rng(last_rung)
    n, rungs = 40, last_rung + 1
    passes = rng.uniform(size=(n, rungs)) < rng.uniform(0.0, 0.6, size=(n, 1))
    nonfinite = rng.uniform(size=(n, rungs)) < 0.2
    passes[0] = True  # rung 0
    passes[1] = False
    passes[1, -1] = True  # only the last rung
    passes[2] = False  # never
    passes[3] = True
    nonfinite[3, :-1] = True  # non-finite until the last rung
    nonfinite[4] = True  # non-finite everywhere
    passes[5] = False
    passes[5, [last_rung // 2, last_rung - 1]] = True  # not monotone in the rung
    nonfinite[[0, 1, 2, 5]] = False
    member_sets = [np.arange(n), np.arange(0, n, 3), np.array([1]), np.array([2]), np.array([], dtype=np.intp)]
    # the budget is the solve's start count, never below the pending members
    for members in member_sets:
        for budget in {max(members.size, 1), n, 3 * n}:
            got_rows, want_rows = [], []
            want = (np.full(n, -1.0), np.full(n, -1.0))
            got_passed, got = _backtrack(members, last_rung, budget, _patterned_trial(passes, nonfinite, got_rows))
            want_passed = _halving_ladder(members, last_rung, _patterned_trial(passes, nonfinite, want_rows), want)
            assert np.array_equal(got_passed, np.flatnonzero(want_passed))
            assert (np.diff(got_passed) > 0).all() and np.isin(got_passed, members).all()
            # one value array per trial output; with no members no trial runs
            assert len(got) == (len(want) if members.size else 0)
            for g, w in zip(got, want):
                assert np.array_equal(g, w[want_passed])
            assert max(got_rows, default=0) <= budget


# -- properties --------------------------------------------------------------


@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("kind", ["H", "Z"])
def test_system_jacobian_matches_finite_differences(kind, order):
    rng = np.random.default_rng(10 * order + (kind == "Z"))
    t = build(order, 3, random_entries(rng, order, 3, 20))
    sph = Sphere(kind, order)
    # mixed-sign rows: Newton iterates leave the orthant
    W = rng.uniform(0.4, 1.2, size=(4, 3)) * np.array([1.0, -1.0, 1.0])
    L = rng.uniform(-1.0, 1.0, size=4)
    J = _system_jac(t, sph, W, L)
    h = 1e-6
    for j in range(4):
        e = np.zeros(4)
        e[j] = h
        fd = (_system_eval(t, sph, W + e[:3], L + e[3]) - _system_eval(t, sph, W - e[:3], L - e[3])) / (2 * h)
        np.testing.assert_allclose(J[:, :, j], fd, rtol=1e-6, atol=1e-6)


def test_pair_residuals_below_tolerance_and_unit_norm():
    t, _ = fixtures.shifted_cubic()
    for kind, k in (("H", 3.0), ("Z", 2.0)):
        for p in solve_interior(t, kind, FAST):
            assert p.residual <= FAST.tol
            assert residual(t, p) <= FAST.tol
            assert knorm(p.vector, k) == pytest.approx(1.0, abs=1e-12)
            assert p.vector.min() > POS_TOL


def test_defining_equation_scale_consistency():
    t, _ = fixtures.shifted_cubic()
    p = solve_interior(t, "H", FAST)[0]
    for c in (0.3, 2.0, 17.0):
        y = c * p.vector
        lhs = t.apply_contract(y)
        rhs = p.value * y ** (t.order - 1)
        np.testing.assert_allclose(lhs, rhs, atol=1e-8 * max(1.0, c ** (t.order - 1)))


def test_matrix_h_and_z_spectra_coincide():
    rng = np.random.default_rng(77)
    t = random_symmetric_tensor(rng, 2, 4)
    h = solve_interior(t, "H")
    z = solve_interior(t, "Z")
    assert_value_sets_close(values(h), values(z), tol=1e-12)


def test_solver_is_deterministic():
    cfg = SolverConfig(starts=120, seed=9)
    # dimension 2, and dimension 3 on the exact 3-index route
    for t in (fixtures.shifted_cubic()[0], random_symmetric_tensor(np.random.default_rng(9), 4, 3)):
        a = solve_interior(t, "H", cfg)
        b = solve_interior(t, "H", cfg)
        assert [p.value for p in a] == [p.value for p in b]
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.vector, pb.vector)


def test_results_sorted_by_value_then_vector():
    t, _ = fixtures.shifted_cubic()
    pairs = solve_interior(t, "H", FAST)
    vals = [p.value for p in pairs]
    assert vals == sorted(vals)


def test_exhaustiveness_marker():
    for kind in ("H", "Z"):
        assert solved_exhaustively(build(5, 1, [((0,) * 5, 1.0)]), kind)
        # one index is one point, never a family: a zero entry (the H family
        # rule and the Z zero rule of the diagonal closed form), a negative
        # one, and a 1 x 1 matrix through eigh
        assert solved_exhaustively(build(3, 1, []), kind) is True
        assert solved_exhaustively(build(4, 1, [((0,) * 4, -2.0)]), kind) is True
        assert solved_exhaustively(build(2, 1, [((0, 0), -1.5)]), kind) is True
        assert solved_exhaustively(build(2, 2, [((0, 0), 1.0), ((0, 1), 0.5), ((1, 0), 0.5)]), kind)
        # a repeated eigenvalue: every positive vector pairs with 0
        assert not solved_exhaustively(build(2, 4, []), kind)
        assert not solved_exhaustively(build(2, 2, [((0, 0), 1.0), ((1, 1), 1.0 + 1e-12)]), kind)
        # dimension 2: one polynomial with simple roots
        assert solved_exhaustively(fixtures.shifted_cubic()[0], kind) is True
        assert solved_exhaustively(build(3, 3, [((0,) * 3, 1.0), ((1,) * 3, 2.0), ((2,) * 3, -1.0)]), kind)
        # the zero tensor pairs every positive vector with 0 on either sphere
        assert not solved_exhaustively(build(4, 3, []), kind)
    # equal entries: every positive vector is an H-pair, the Z-pair is unique
    equal = build(3, 2, [((0,) * 3, 2.0), ((1,) * 3, 2.0)])
    assert not solved_exhaustively(equal, "H")
    assert solved_exhaustively(equal, "Z")


def test_residual_function_flags_perturbed_pair():
    t, _ = fixtures.shifted_cubic()
    p = solve_interior(t, "H", FAST)[0]
    bad = EigenPair(p.value + 1e-3, p.vector, "H", 0.0)
    assert residual(t, bad) > 1e-6


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(starts=0)
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        solve_interior(fixtures.shifted_cubic()[0], "Q")
    assert [f.name for f in dataclasses.fields(SolverConfig)] == ["starts", "tol", "seed"]
    for removed in ("max_iters", "pos_tol", "dedup_tol"):
        with pytest.raises(TypeError):
            SolverConfig(**{removed: 1e-8})
    # the dedup tolerance follows tol once tol exceeds 1e-8
    assert SolverConfig().dedup_tol == 1e-8
    assert SolverConfig(tol=1e-12).dedup_tol == 1e-8
    assert SolverConfig(tol=1e-10).dedup_tol == 1e-8
    assert SolverConfig(tol=1e-7).dedup_tol == 1e-7


def test_keep_first_matches_greedy_loop():
    # Clusters straddle both tolerances, and chains a~b, b~c with a !~ c keep
    # a and c; rows sharing a support are contiguous, as _finalize sorts them.
    rng = np.random.default_rng(12)
    tol = 1e-8
    S = np.repeat(np.array([[0, 1], [0, 2], [1, 2], [1, 3]]), [1, 9, 30, 40], axis=0)
    L = np.round(rng.uniform(0, 3, size=S.shape[0]), 0) + rng.choice([0.0, 0.6, 0.9, 1.1, 1.6], size=S.shape[0]) * tol
    W = 0.5 + rng.choice([0.0, 0.6, 0.9, 1.1, 1.6], size=S.shape) * VECTOR_DEDUP_TOL
    kept = _keep_first(S, W, L, tol)

    want = np.zeros(S.shape[0], dtype=bool)
    for i in range(S.shape[0]):
        same = (S[:i] == S[i]).all(axis=1) & want[:i]
        want[i] = not any(
            abs(L[i] - L[k]) <= tol and np.abs(W[i] - W[k]).max() <= VECTOR_DEDUP_TOL for k in np.flatnonzero(same)
        )
    np.testing.assert_array_equal(kept, want)
    assert 4 < kept.sum() < S.shape[0] - 4
    assert _keep_first(S[:0], W[:0], L[:0], tol).shape == (0,)
