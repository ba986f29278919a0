"""Storage and contraction tests against dense-array oracles."""

import numpy as np
import pytest

from paretospec import fixtures
from paretospec.tensor import Sphere, Tensor, build, embed, knorm

from conftest import (
    dense_contract,
    dense_from_entries,
    dense_full,
    dense_jacobian,
    dense_symmetrize,
    random_entries,
)


def test_matrix_case_matches_quadratic_form():
    rng = np.random.default_rng(7)
    m = rng.uniform(-1, 1, size=(4, 4))
    entries = [((i, j), float(m[i, j])) for i in range(4) for j in range(4)]
    t = build(2, 4, entries)
    for _ in range(20):
        x = rng.uniform(-1, 1, size=4)
        assert t.apply_full(x) == pytest.approx(float(x @ m @ x), abs=1e-12)
        np.testing.assert_allclose(t.apply_contract(x), m @ x, atol=1e-12)


@pytest.mark.parametrize(
    "order,dim,count",
    [(3, 3, 25), (4, 3, 40), (3, 5, 60), (5, 2, 20), (2, 4, 12), (4, 1, 3), (3, 3, 0)],
)
def test_contractions_match_dense_oracle(order, dim, count):
    rng = np.random.default_rng(100 * order + dim)
    entries = random_entries(rng, order, dim, count)
    a = dense_from_entries(order, dim, entries)
    t = build(order, dim, entries)
    # The magnitude kernel sums |coefficient| per stored slice, so its oracle
    # is |A| for the dense tensor holding each slice at one index.
    a_slices = dense_from_entries(order, dim, [((lead,) + trail, v) for (lead, trail), v in t.slices.items()])
    # mixed signs: Newton iterates leave the orthant
    X = rng.uniform(-1.5, 1.5, size=(10, dim))
    magnitude = t.contract_magnitude_batch(X)
    jacobian = t.contract_jacobian_batch(X)
    for x, mag, jac in zip(X, magnitude, jacobian):
        assert t.apply_full(x) == pytest.approx(dense_full(a, x), rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(t.apply_contract(x), dense_contract(a, x), atol=1e-11)
        np.testing.assert_allclose(mag, dense_contract(np.abs(a_slices), np.abs(x)), atol=1e-11)
        np.testing.assert_allclose(jac, dense_jacobian(a, x), atol=1e-11)


def test_full_contraction_is_vector_dot_partial():
    rng = np.random.default_rng(3)
    entries = random_entries(rng, 4, 3, 30)
    t = build(4, 3, entries)
    for _ in range(10):
        x = rng.uniform(-1, 1, size=3)
        assert t.apply_full(x) == pytest.approx(float(x @ t.apply_contract(x)), abs=1e-13)


def test_batch_matches_single_vector_path():
    rng = np.random.default_rng(11)
    entries = random_entries(rng, 3, 4, 30)
    t = build(3, 4, entries)
    X = rng.uniform(-1, 1, size=(17, 4))
    C = t.contract_batch(X)
    F = t.apply_full_batch(X)
    for b in range(17):
        np.testing.assert_allclose(C[b], t.apply_contract(X[b]), atol=1e-13)
        assert F[b] == pytest.approx(t.apply_full(X[b]), abs=1e-13)


def test_entries_with_equal_lead_and_trailing_multiset_are_summed():
    entries = [((0, 1, 2), 1.0), ((0, 2, 1), 2.5), ((0, 1, 2), -0.5)]
    t = build(3, 3, entries)
    assert t.slices == {(0, (1, 2)): 3.0}
    a = dense_from_entries(3, 3, entries)
    x = np.array([0.3, -1.2, 0.7])
    np.testing.assert_allclose(t.apply_contract(x), dense_contract(a, x), atol=1e-14)


def test_zero_sum_slices_are_dropped():
    t = build(3, 2, [((0, 0, 1), 1.0), ((0, 1, 0), -1.0)])
    assert t.slices == {}
    assert t.apply_full(np.array([1.0, 2.0])) == 0.0
    # entries that cancel only across orderings leave no zero slice either,
    # which would make the tensor look non-diagonal
    sym = build(3, 2, [((0, 0, 1), -0.75), ((1, 0, 0), 0.75), ((1, 1, 1), 2.0)], symmetrize=True)
    assert sym.slices == {(1, (1, 1)): 2.0}
    assert sym.is_diagonal()


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(5)
    for order, dim in [(3, 2), (4, 3), (5, 2)]:
        entries = random_entries(rng, order, dim, 25)
        t = build(order, dim, entries)
        x = rng.uniform(0.3, 1.2, size=dim)
        jac = t.contract_jacobian_batch(x[None])[0]
        h = 1e-6
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = h
            fd = (t.apply_contract(x + e) - t.apply_contract(x - e)) / (2 * h)
            np.testing.assert_allclose(jac[:, j], fd, rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("order", [3, 4])
def test_sparse_tensor_tables_are_sized_by_its_slices(order):
    """A 200-entry tensor at n = 2000: no table grows with n^2, and the kernels still agree per slice."""
    rng = np.random.default_rng(21)
    n = 2000
    t = build(order, n, random_entries(rng, order, n, 200))
    k, m = len(t.slices), order
    mono, cells, Q = t._jacobian_tables
    assert t._mono.shape[0] <= k and t._P.shape == (t._mono.shape[0], n)
    assert mono.shape[0] <= k * (m - 1) and cells.size <= k * (m - 1)
    assert Q.shape == (mono.shape[0], cells.size)
    assert t._mono.size + mono.size + cells.size <= k * m * m
    # the oracle works slice by slice: a dense n^m array would not fit
    x = rng.uniform(-1.0, 1.0, size=n)
    want_c, want_j = np.zeros(n), np.zeros((n, n))
    for (lead, trail), v in t.slices.items():
        want_c[lead] += v * np.prod(x[list(trail)])
        for p in range(m - 1):
            want_j[lead, trail[p]] += v * np.prod(x[list(trail[:p] + trail[p + 1 :])])
    np.testing.assert_allclose(t.apply_contract(x), want_c, rtol=0, atol=1e-12)
    np.testing.assert_allclose(t.contract_jacobian_batch(x[None])[0], want_j, rtol=0, atol=1e-12)


def test_principal_subtensor_matches_dense_slicing():
    rng = np.random.default_rng(9)
    entries = random_entries(rng, 3, 5, 70)
    t = build(3, 5, entries)
    a = dense_from_entries(3, 5, entries)
    subset = (1, 3, 4)
    sub = t.principal_subtensor(subset)
    asub = a[np.ix_(subset, subset, subset)]
    assert sub.dim == 3 and sub.order == 3
    for _ in range(8):
        w = rng.uniform(-1, 1, size=3)
        assert sub.apply_full(w) == pytest.approx(dense_full(asub, w), abs=1e-12)
        np.testing.assert_allclose(sub.apply_contract(w), dense_contract(asub, w), atol=1e-12)


def test_principal_subtensor_full_set_is_identity():
    t, _ = fixtures.grouped_quartic()
    sub = t.principal_subtensor((0, 1))
    assert sub.slices == dict(t.slices)


def test_principal_subtensor_rejects_bad_subsets():
    t, _ = fixtures.grouped_quartic()
    with pytest.raises(ValueError):
        t.principal_subtensor(())
    with pytest.raises(ValueError):
        t.principal_subtensor((0, 0))
    with pytest.raises(ValueError):
        t.principal_subtensor((0, 2))


def test_embed_scatters_and_validates():
    y = embed(np.array([2.0, 3.0]), (0, 2), 4)
    np.testing.assert_array_equal(y, [2.0, 0.0, 3.0, 0.0])
    with pytest.raises(ValueError):
        embed(np.array([1.0]), (0, 1), 3)
    with pytest.raises(ValueError):
        embed(np.array([1.0, 2.0]), (0, 3), 3)


def test_knorm_values():
    x = np.array([3.0, -4.0])
    assert knorm(x, 2) == pytest.approx(5.0)
    assert knorm(x, 1) == pytest.approx(7.0)
    # (2^4 + 2^4)^(1/4) = 32^(1/4)
    assert knorm(np.array([2.0, 2.0]), 4) == pytest.approx(32.0 ** 0.25)
    with pytest.raises(ValueError):
        knorm(x, 0.5)


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_symmetrize_matches_dense_average_over_permutations(order):
    rng = np.random.default_rng(21)
    entries = random_entries(rng, order, 3, 40)
    t = build(order, 3, entries, symmetrize=True)
    a_sym = dense_symmetrize(dense_from_entries(order, 3, entries))
    assert t.symmetric
    for _ in range(8):
        x = rng.uniform(-1, 1, size=3)
        assert t.apply_full(x) == pytest.approx(dense_full(a_sym, x), abs=1e-12)
        np.testing.assert_allclose(t.apply_contract(x), dense_contract(a_sym, x), atol=1e-12)


def test_symmetrize_preserves_full_contraction():
    rng = np.random.default_rng(22)
    entries = random_entries(rng, 4, 3, 40)
    plain = build(4, 3, entries)
    sym = build(4, 3, entries, symmetrize=True)
    for _ in range(8):
        x = rng.uniform(-1, 1, size=3)
        assert sym.apply_full(x) == pytest.approx(plain.apply_full(x), rel=1e-12, abs=1e-12)


def test_symmetric_flag_detection():
    grouped, _ = fixtures.grouped_quartic()
    assert not grouped.symmetric
    cubic, _ = fixtures.shifted_cubic()
    assert cubic.symmetric
    quartic, _ = fixtures.parametric_quartic(-0.7)
    assert quartic.symmetric


def test_grouped_quartic_contractions_closed_form():
    t, _ = fixtures.grouped_quartic()
    rng = np.random.default_rng(2)
    for _ in range(10):
        x1, x2 = rng.uniform(-2, 2, size=2)
        full = x1**4 + 2 * x2**4 - 3 * x1**2 * x2**2
        part = np.array([x1**3 - x1 * x2**2, 2 * x2**3 - 2 * x1**2 * x2])
        assert t.apply_full(np.array([x1, x2])) == pytest.approx(full, abs=1e-12)
        np.testing.assert_allclose(t.apply_contract(np.array([x1, x2])), part, atol=1e-12)


def test_diagonal_detection_and_entries():
    t = build(3, 3, [((0, 0, 0), 2.0), ((2, 2, 2), -1.0)])
    assert t.is_diagonal()
    np.testing.assert_array_equal(t.diagonal_entries(), [2.0, 0.0, -1.0])
    t2 = build(3, 3, [((0, 0, 0), 2.0), ((0, 1, 1), 1.0)])
    assert not t2.is_diagonal()


def test_build_validation_errors():
    with pytest.raises(ValueError):
        build(2, 2, [((0,), 1.0)])
    with pytest.raises(ValueError):
        build(2, 2, [((0, 2), 1.0)])
    with pytest.raises(ValueError):
        build(2, 2, [((0, 0), float("nan"))])
    with pytest.raises(ValueError):
        build(1, 2, [])
    with pytest.raises(ValueError):
        build(2, 0, [])
    with pytest.raises(ValueError):
        Tensor(3, 2, {(0, (1, 0)): 1.0})


def test_vector_shape_errors():
    t, _ = fixtures.shifted_cubic()
    with pytest.raises(ValueError):
        t.apply_contract(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        t.contract_batch(np.array([1.0, 2.0]))


@pytest.mark.parametrize("order", [2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["H", "Z"])
def test_sphere_matches_float_power_formulas(kind, order):
    # Sphere takes integer powers by repeated multiplication; the reference
    # is the same formula through numpy's pow (rhs_jacobian is checked by
    # test_system_jacobian_matches_finite_differences)
    rng = np.random.default_rng(order)
    W = rng.uniform(-1.5, 1.5, size=(50, 3))
    sph = Sphere(kind, order)
    k = sph.k
    level = np.sum(W**k, axis=1)
    rhs = (level ** ((order - k) / k))[:, None] * W ** (k - 1)
    np.testing.assert_allclose(sph.level(W), level, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(sph.rhs(W), rhs, rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(
        sph.normalize(W), W / (np.sum(np.abs(W) ** k, axis=1) ** (1.0 / k))[:, None], rtol=1e-13, atol=1e-15
    )
