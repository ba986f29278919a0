"""Spectrum enumeration, slack admissibility, verification, minimum."""

import itertools
import tracemalloc

import numpy as np
import pytest

import paretospec.eigen as eigen_mod
import paretospec.spectrum as spectrum_mod
from paretospec import cli, fixtures, serialize_document, tensor_to_document
from paretospec.copositivity import classify
from paretospec.eigen import VECTOR_DEDUP_TOL, SolverConfig, solve_interior, solved_exhaustively
from paretospec.spectrum import (
    _BOUNDARY_EPS,
    DEFAULT_SLACK_TOL,
    EmptySpectrumError,
    _boundary,
    complement_slacks,
    min_pareto,
    pareto_spectrum,
    verify_pareto_pair,
)
from paretospec.tensor import Sphere, _ipow, build, embed, knorm

from conftest import dense_contract, dense_from_entries, random_entries, random_symmetric_tensor

from test_eigen import assert_value_sets_close, cubic_h_oracle, cubic_z_oracle

FAST = SolverConfig(starts=150, seed=1)


def test_grouped_quartic_h_spectrum_structure():
    t, _ = fixtures.grouped_quartic()
    spec = pareto_spectrum(t, "H", FAST)
    assert [c.subset for c in spec.items] == [(0,), (1,), (0, 1)]
    assert_value_sets_close(spec.values(), [1.0, 2.0, 0.0], tol=1e-10)
    by_subset = {c.subset: c for c in spec.items}
    np.testing.assert_allclose(by_subset[(0,)].vector, [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(by_subset[(1,)].vector, [0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(
        by_subset[(0, 1)].vector, [fixtures.UNIF4, fixtures.UNIF4], atol=1e-9
    )
    assert spec.min_value == pytest.approx(0.0, abs=1e-10)
    assert spec.complete is True  # every sub-problem has one or two indices
    # singleton slacks of this tensor vanish identically
    np.testing.assert_allclose(by_subset[(0,)].slacks, [0.0], atol=1e-14)
    assert not by_subset[(0,)].boundary


def test_grouped_quartic_z_spectrum_structure():
    t, _ = fixtures.grouped_quartic()
    spec = pareto_spectrum(t, "Z", FAST)
    assert_value_sets_close(spec.values(), [1.0, 2.0, 0.0], tol=1e-10)
    full = [c for c in spec.items if c.subset == (0, 1)]
    assert len(full) == 1
    np.testing.assert_allclose(full[0].vector, [fixtures.ROOT2_HALF] * 2, atol=1e-9)


def test_shifted_cubic_h_spectrum_values_and_rejection():
    t, expected = fixtures.shifted_cubic()
    spec = pareto_spectrum(t, "H", FAST)
    want = [2.0] + [lam for lam, _ in cubic_h_oracle()]
    assert_value_sets_close(spec.values(), want, tol=1e-9)
    # the value 1 (first diagonal entry) is not a Pareto eigenvalue here
    assert all(abs(v - 1.0) > 1e-6 for v in spec.values())
    assert all(c.subset != (0,) for c in spec.items)
    # and the slack that rejects the first singleton is exactly -2/3
    s = complement_slacks(t, (0,), np.array([1.0]))
    assert s.shape == (1,)
    assert s[0] == pytest.approx(expected["rejected_slack"], abs=1e-12)


def test_shifted_cubic_z_spectrum_values():
    t, _ = fixtures.shifted_cubic()
    spec = pareto_spectrum(t, "Z", FAST)
    want = [2.0] + [mu for mu, _ in cubic_z_oracle()]
    assert_value_sets_close(spec.values(), want, tol=1e-9)


def test_complement_slacks_against_dense_oracle():
    rng = np.random.default_rng(31)
    entries = random_entries(rng, 3, 5, 60)
    t = build(3, 5, entries)
    a = dense_from_entries(3, 5, entries)
    subset = (0, 2, 3)
    w = rng.uniform(0.2, 1.0, size=3)
    got = complement_slacks(t, subset, w)
    y = embed(w, subset, 5)
    full = dense_contract(dense_contract(a, y), y)
    np.testing.assert_allclose(got, full[[1, 4]], atol=1e-12)


def test_certificate_vectors_unit_norm_and_supported():
    t, _ = fixtures.shifted_cubic()
    for kind, k in (("H", 3.0), ("Z", 2.0)):
        for c in pareto_spectrum(t, kind, FAST).items:
            assert knorm(c.vector, k) == pytest.approx(1.0, abs=1e-10)
            off = [i for i in range(t.dim) if i not in c.subset]
            assert all(c.vector[i] == 0.0 for i in off)
            assert all(c.vector[i] > 0.0 for i in c.subset)


def test_all_emitted_certificates_verify():
    for builder in (fixtures.grouped_quartic, fixtures.shifted_cubic):
        t, _ = builder()
        for kind in ("H", "Z"):
            for c in pareto_spectrum(t, kind, FAST).items:
                rep = verify_pareto_pair(t, c.value, c.vector, kind, tol=1e-8)
                assert rep.ok, (builder.__name__, kind, c.subset, rep)


def test_verify_rejects_slack_violation_with_magnitude():
    t, _ = fixtures.shifted_cubic()
    rep = verify_pareto_pair(t, 1.0, np.array([1.0, 0.0]), "H")
    assert not rep.ok
    assert rep.failed_condition == "complement-slacks"
    assert rep.worst_violation == pytest.approx(2.0 / 3.0, abs=1e-12)
    np.testing.assert_allclose(rep.slacks, [0.0, -2.0 / 3.0], atol=1e-12)


def test_verify_rejects_negative_vector_and_wrong_value():
    t, _ = fixtures.shifted_cubic()
    rep = verify_pareto_pair(t, 2.0, np.array([-0.1, 1.0]), "H")
    assert not rep.ok and rep.failed_condition == "nonnegativity"
    rep2 = verify_pareto_pair(t, 2.5, np.array([0.0, 1.0]), "H")
    assert not rep2.ok and rep2.failed_condition == "value-equation"


def test_verify_is_scale_invariant():
    t, _ = fixtures.shifted_cubic()
    spec = pareto_spectrum(t, "H", FAST)
    c = spec.items[0]
    for s in (1e-3, 1.0, 1e3):
        rep = verify_pareto_pair(t, c.value, s * c.vector, "H")
        assert rep.ok


def test_verify_input_validation():
    t, _ = fixtures.shifted_cubic()
    for y in (np.zeros(2), np.array([-0.0, 0.0]), np.array([-0.0, -0.0])):
        with pytest.raises(ValueError, match="vector must be nonzero"):
            verify_pareto_pair(t, 1.0, y, "H")
    for bad in (np.nan, np.inf, -np.inf):
        for y in (np.array([1.0, bad]), np.array([bad, -1.0]), np.array([0.0, bad])):
            with pytest.raises(ValueError, match="vector has non-finite entries"):
                verify_pareto_pair(t, 1.0, y, "H")
    for y in (np.array([1.0]), np.ones(3), np.ones((2, 1))):
        with pytest.raises(ValueError, match="incompatible with dimension 2"):
            verify_pareto_pair(t, 1.0, y, "H")
    with pytest.raises(ValueError, match="kind must be"):
        verify_pareto_pair(t, 1.0, np.array([1.0, 1.0]), "X")
    for tol in (0.0, -1e-8, np.nan):
        with pytest.raises(ValueError, match="tol must be positive"):
            verify_pareto_pair(t, 1.0, np.array([1.0, 1.0]), "H", tol=tol)
    # NaN compares false with every tolerance, so a non-finite value would pass
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="value must be finite"):
            verify_pareto_pair(t, value, np.array([0.0, 1.0]), "H")


def _verify_reference(t, value, y, kind, tol):
    """verify_pareto_pair's report fields as computed with one numpy pass per check."""
    sph = Sphere(kind, t.order)
    c, level = t.apply_contract(y), np.sum(_ipow(y, sph.k), axis=-1)
    lhs = float(y @ c)
    rhs = value * sph.norm_power(float(level))
    slacks = c - value * sph.rhs(y, level)
    v = (float(max(0.0, -y.min())), abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)), float(max(0.0, -slacks.min())))
    failed = next((name for name, x in zip(("nonnegativity", "value-equation", "complement-slacks"), v) if x > tol), None)
    return failed is None, failed, max(v), *v, slacks


def test_verify_reports_match_the_reference_bit_for_bit():
    rng = np.random.default_rng(33)
    failed = set()
    for case in range(400):
        order, dim, kind = int(rng.integers(2, 6)), int(rng.integers(1, 6)), ("H", "Z")[case % 2]
        t = random_symmetric_tensor(rng, order, dim) if case % 3 else build(order, dim, random_entries(rng, order, dim, 6))
        y = rng.normal(size=dim) * 10.0 ** rng.integers(-3, 4)
        if case % 4 == 0:
            y = np.abs(y)
        y[rng.uniform(size=dim) < 0.3] = rng.choice([0.0, -0.0])
        if not y.any():
            y[0] = 1.0
        value, tol = float(rng.normal()), float(10.0 ** rng.uniform(-12, 0))
        rep = verify_pareto_pair(t, value, y, kind, tol=tol)
        want = _verify_reference(t, value, y, kind, tol)
        got = (rep.ok, rep.failed_condition, rep.worst_violation, rep.nonneg_violation, rep.value_violation,
               rep.slack_violation, rep.slacks)
        assert got[:2] == want[:2]
        assert [float(x).hex() for x in got[2:6]] == [float(x).hex() for x in want[2:6]]
        assert got[6].tobytes() == want[6].tobytes()
        failed.add(rep.failed_condition)
    assert failed == {None, "nonnegativity", "value-equation", "complement-slacks"}


def test_matrix_spectrum_matches_principal_submatrix_oracle():
    rng = np.random.default_rng(55)
    n = 4
    m = rng.uniform(-1, 1, size=(n, n))
    m = (m + m.T) / 2
    t = build(2, n, [((i, j), float(m[i, j])) for i in range(n) for j in range(n)])
    spec = pareto_spectrum(t, "H")
    assert spec.complete

    want = []
    for card in range(1, n + 1):
        for subset in itertools.combinations(range(n), card):
            ms = m[np.ix_(subset, subset)]
            vals, vecs = np.linalg.eigh(ms)
            for k in range(card):
                v = vecs[:, k].copy()
                if v[np.argmax(np.abs(v))] < 0:
                    v = -v
                if v.min() > 1e-8:
                    y = np.zeros(n)
                    y[list(subset)] = v
                    rest = [i for i in range(n) if i not in subset]
                    if not rest or (m @ y)[rest].min() >= -1e-9:
                        want.append(float(vals[k]))
    assert_value_sets_close(spec.values(), want, tol=1e-10)


@pytest.mark.parametrize("symmetric", [True, False])
def test_order_two_h_and_z_spectra_coincide(symmetric):
    # at order 2 both kinds normalize with k = 2, and every route reads only
    # k and the order, so the two spectra agree bit for bit
    rng = np.random.default_rng(56)
    for n in range(2, 6):
        a = rng.uniform(-1, 1, size=(n, n))
        a = (a + a.T) / 2 if symmetric else a
        t = build(2, n, [((i, j), float(a[i, j])) for i in range(n) for j in range(n)])
        h, z = pareto_spectrum(t, "H"), pareto_spectrum(t, "Z")
        assert h.complete == z.complete
        assert [c.subset for c in h.items] == [c.subset for c in z.items]
        assert [c.boundary for c in h.items] == [c.boundary for c in z.items]
        assert h.values() == z.values()
        for ch, cz in zip(h.items, z.items):
            np.testing.assert_array_equal(ch.vector, cz.vector)


def test_uniform_diagonal_has_a_certificate_per_subset():
    t = build(3, 3, [((i, i, i), 2.0) for i in range(3)])
    spec = pareto_spectrum(t, "H")
    assert len(spec.items) == 7
    assert all(c.value == pytest.approx(2.0, abs=1e-12) for c in spec.items)
    assert all(not c.boundary for c in spec.items)
    assert not spec.complete


def test_diagonal_three_subsets_keep_their_closed_form(monkeypatch):
    # every subset of a diagonal tensor is diagonal, whatever its size: no
    # polynomial, no chart and no multistart
    def fail(*args):
        raise AssertionError("a diagonal sub-problem left the diagonal closed form")

    monkeypatch.setattr(eigen_mod, "_newton_candidates", fail)
    monkeypatch.setattr(eigen_mod, "_hidden_roots", fail)
    monkeypatch.setattr(eigen_mod, "_two_index", fail)
    t = build(3, 3, [((i, i, i), 2.0) for i in range(3)])
    spec = pareto_spectrum(t, "H")
    assert len(spec.items) == 7
    assert spec.complete is False  # equal entries: every subset holds an H family

    # Z-pairs of a diagonal order-4 tensor live on the same-sign subsets, with
    # w_i^2 proportional to 1 / |d_i| and value 1 / sum_i (1 / d_i)
    d = [1.0, 2.0, -1.0, -3.0]
    spec = pareto_spectrum(build(4, 4, [((i,) * 4, d[i]) for i in range(4)]), "Z")
    want = {(0,): 1.0, (1,): 2.0, (2,): -1.0, (3,): -3.0, (0, 1): 2.0 / 3.0, (2, 3): -0.75}
    assert {c.subset: c.value for c in spec.items} == pytest.approx(want, abs=1e-14)
    for c in spec.items:
        w = np.sqrt(1.0 / np.abs(np.array(d)[list(c.subset)]))
        np.testing.assert_allclose(c.pair.vector, w / np.linalg.norm(w), rtol=0, atol=1e-15)
    assert spec.complete is True


def test_diagonal_spectrum_is_complete():
    # every principal sub-tensor is diagonal without a family, so each is solved exactly
    t = build(3, 3, [((0,) * 3, 1.0), ((1,) * 3, 2.0), ((2,) * 3, -1.0)])
    for kind in ("H", "Z"):
        assert pareto_spectrum(t, kind).complete is True


def test_singletons_take_the_one_index_matrix_and_diagonal_routes():
    # a one-index sub-problem is the c = 1 case of the matrix route (order 2;
    # a non-symmetric matrix goes through eig) or of the diagonal closed form
    # (order >= 3, with a zero and a negative entry): its pair is (a_ii, e_i)
    # bit for bit, 1e-200 included, whose 1e200 ** 2 would overflow in the Z
    # closed form's norm.  Off-diagonal entries are nonnegative, so every
    # singleton is admitted.
    m = np.array([[-1.0, 2.0, 0.5], [0.25, 3.0, 1.0], [4.0, 0.0, 0.0]])
    matrix = build(2, 3, [((i, j), float(m[i, j])) for i in range(3) for j in range(3)])
    assert not matrix.symmetric
    cubic = build(3, 4, [((1,) * 3, -1.5), ((2,) * 3, 0.5), ((3,) * 3, 2.0)])
    quartic = build(4, 3, [((0,) * 4, -2.0), ((2,) * 4, 0.5)])
    tiny = build(3, 1, [((0,) * 3, 1e-200)])
    for t in (matrix, cubic, quartic, tiny):
        d = t.diagonal_entries()
        for kind in ("H", "Z"):
            singles = [c for c in pareto_spectrum(t, kind).items if len(c.subset) == 1]
            assert [c.subset for c in singles] == [(i,) for i in range(t.dim)]
            for c in singles:
                assert c.value == d[c.subset[0]]
                assert c.vector.tobytes() == np.eye(t.dim)[c.subset[0]].tobytes()


def test_repeated_matrix_eigenvalue_withdraws_complete():
    # eigenvalue 1 has the eigenspace u-perp, which holds a whole family of
    # positive vectors; eigh reports one basis vector of it
    u = np.array([1.0, 1.0, -2.0])
    m = np.eye(3) - 0.1 * np.outer(u, u)
    t = build(2, 3, [((i, j), float(m[i, j])) for i in range(3) for j in range(3)])
    spec = pareto_spectrum(t, "H")
    y = np.full(3, 3**-0.5)
    assert verify_pareto_pair(t, 1.0, y, "H").ok
    assert not any(abs(c.value - 1.0) < 1e-9 and np.abs(c.vector - y).max() < 1e-6 for c in spec.items)
    assert spec.complete is False


def test_boundary_flag_marks_tolerated_negative_slack():
    t = build(2, 2, [((0, 0), 1.0), ((1, 0), -1e-10), ((1, 1), 2.0)])
    spec = pareto_spectrum(t, "H")
    first = [c for c in spec.items if c.subset == (0,)]
    assert len(first) == 1
    assert first[0].boundary

    t2 = build(2, 2, [((0, 0), 1.0), ((1, 0), -5e-8), ((1, 1), 2.0)])
    spec2 = pareto_spectrum(t2, "H")
    assert all(c.subset != (0,) for c in spec2.items)


def test_boundary_flag_ignores_rounding_of_zero_slacks():
    # Eigenvalue 1 of I - 0.1 uu^T has the eigenspace u-perp.  On subsets (0, 2)
    # and (1, 2) it meets a face of the orthant, and the slack of the pair there
    # is zero in exact arithmetic, so its sign is rounding only.
    u = np.array([1.0, 1.0, -2.0, 0.5])
    m = np.eye(4) - 0.1 * np.outer(u, u)
    t = build(2, 4, [((i, j), float(m[i, j])) for i in range(4) for j in range(4)])
    by_subset = {c.subset: c for c in pareto_spectrum(t, "H").items}
    for subset in ((0, 2), (1, 2)):
        cert = by_subset[subset]
        assert abs(cert.slacks).min() < 1e-15
        assert cert.boundary is False
        assert verify_pareto_pair(t, cert.value, cert.vector, "H").ok
        # the pair solved on the principal sub-matrix rounds differently
        for pair in solve_interior(t.principal_subtensor(subset), "H"):
            y = embed(pair.vector, subset, 4)
            slacks = np.where(y == 0.0, t.apply_contract(y), 0.0)
            assert (slacks[y == 0.0] == complement_slacks(t, subset, pair.vector)).all()
            assert not _boundary(t, y[None, :], slacks[None, :])[0]


def test_shifted_cubic_and_quartics_are_complete():
    # every sub-problem of a dimension-2 tensor has one or two indices and is
    # solved exactly, unless its polynomial vanishes: ex4.1 at t = 0 is
    # x1^4 + x2^4, whose H-pairs on the full support form a family
    cases = [fixtures.grouped_quartic()[0], fixtures.shifted_cubic()[0]]
    cases += [fixtures.parametric_quartic(tv)[0] for tv in (-1.0, -(27.0**-0.25), 1.0)]
    for t in cases:
        for kind in ("H", "Z"):
            assert pareto_spectrum(t, kind).complete is True
    quartic0 = fixtures.parametric_quartic(0.0)[0]
    assert pareto_spectrum(quartic0, "Z").complete is True
    assert pareto_spectrum(quartic0, "H").complete is False


def test_duplicate_policy_keeps_smaller_subset():
    # The pair of (0, 1) at value 1 - 1e-14 has the vector (1, 1e-7) up to
    # scale, within VECTOR_DEDUP_TOL of e_0, the vector of the singleton (0,).
    # The singleton's slack -1e-7 admits it only at slack_tol=1e-6, and then
    # it comes first and keeps the certificate.
    t = build(2, 2, [((0, 0), 1.0), ((0, 1), -1e-7), ((1, 0), -1e-7), ((1, 1), 2.0)])
    near_one = [c for c in pareto_spectrum(t, "H", slack_tol=1e-6).items if abs(c.value - 1.0) < 1e-6]
    assert [c.subset for c in near_one] == [(0,)]
    assert near_one[0].value == 1.0 and near_one[0].boundary
    near_one = [c for c in pareto_spectrum(t, "H").items if abs(c.value - 1.0) < 1e-6]
    assert [c.subset for c in near_one] == [(0, 1)]
    assert 0.0 < 1.0 - near_one[0].value < 1e-12
    assert 0.0 < near_one[0].vector[1] <= VECTOR_DEDUP_TOL


def test_certificates_are_the_array_rows():
    # a dense order-3 tensor of dimension 4 mixes exact rows of sizes 2 and 3
    # with multistart rows of size 4, and the matrix's singleton (0,) is
    # admitted on the boundary
    cases = [random_symmetric_tensor(np.random.default_rng(4), 3, 4),
             _matrix_tensor(np.array([[1.0, 0.2, 0.1], [-1e-10, 2.0, 0.3], [0.0, 0.4, 3.0]]))]
    for t in cases:
        for kind in ("H", "Z"):
            spec = pareto_spectrum(t, kind, FAST)
            assert len(spec.items) == len(spec.vectors) > 0
            assert type(spec.min_value) is float and type(spec.values()[0]) is float
            for r, c in enumerate(spec.items):
                on = spec.vectors[r] != 0.0
                assert c.subset == tuple(np.flatnonzero(on).tolist())
                assert c.value == c.pair.value == spec.eigenvalues[r] and type(c.value) is float
                assert c.pair.residual == spec.residuals[r] and type(c.pair.residual) is float
                assert c.boundary is bool(spec.boundary[r])
                assert np.shares_memory(c.vector, spec.vectors)
                for got, want in ((c.vector, spec.vectors[r]), (c.pair.vector, spec.vectors[r][on]),
                                  (c.slacks, spec.slacks[r][~on])):
                    assert got.tobytes() == want.tobytes()
                assert not spec.slacks[r][on].any()
    assert any(c.boundary for c in spec.items)


def test_certificates_are_built_on_first_read(monkeypatch, tmp_path):
    made = []

    def recording(*args, **kwargs):
        made.append(pareto_spectrum(*args, **kwargs))
        return made[-1]

    # min_pareto, and through it classify, looks pareto_spectrum up in its module
    monkeypatch.setattr(spectrum_mod, "pareto_spectrum", recording)
    monkeypatch.setattr(cli, "pareto_spectrum", recording)
    t, _ = fixtures.shifted_cubic()
    path = tmp_path / "cubic.json"
    path.write_text(serialize_document(tensor_to_document(t, "cubic")))
    recording(t, "H", FAST)
    min_pareto(t, "Z", FAST)
    classify(t, config=FAST)
    for command in ("spectrum", "copositive"):
        assert cli.main([command, str(path), "--no-timing"]) == 0
    assert len(made) == 8
    assert not any("items" in vars(spec) for spec in made)
    spec = made[0]
    assert spec.items is spec.items and "items" in vars(spec)
    assert [c.value for c in spec.items] == spec.values()


def test_unread_certificates_are_not_kept():
    # 65,535 pairs: the arrays take about 17 MB, their certificates three
    # times that again
    t = build(4, 16, [((i,) * 4, 1.0 + i / 16) for i in range(16)])
    tracemalloc.start()
    try:
        spec = pareto_spectrum(t, "Z")
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert spec.eigenvalues.size == 2**16 - 1 and spec.complete
    assert "items" not in vars(spec)
    assert retained <= 25e6


def test_items_sorted_by_cardinality_then_subset():
    t, _ = fixtures.shifted_cubic()
    spec = pareto_spectrum(t, "H", FAST)
    keys = [(len(c.subset), c.subset, c.value) for c in spec.items]
    assert keys == sorted(keys)


def test_dimension_guard():
    t = build(2, 17, [])
    with pytest.raises(ValueError, match="guard"):
        pareto_spectrum(t, "H")


def test_spectrum_argument_validation():
    t, _ = fixtures.shifted_cubic()
    with pytest.raises(ValueError):
        pareto_spectrum(t, "Q")
    with pytest.raises(ValueError):
        pareto_spectrum(t, "H", slack_tol=0.0)


def test_spectrum_is_deterministic():
    t, _ = fixtures.shifted_cubic()
    a = pareto_spectrum(t, "H", FAST)
    b = pareto_spectrum(t, "H", FAST)
    assert a.values() == b.values()
    for ca, cb in zip(a.items, b.items):
        np.testing.assert_array_equal(ca.vector, cb.vector)


def test_min_pareto_returns_smallest_certificate():
    t, _ = fixtures.shifted_cubic()
    val, vec = min_pareto(t, "H", FAST)
    want = min(lam for lam, _ in cubic_h_oracle())
    assert val == pytest.approx(want, abs=1e-9)
    assert vec.min() > 0  # attained on the full subset here
    # value 1 on (1,), (2,) and, as the representative of a family, (1, 2):
    # the first of the tied rows is taken
    t = build(3, 3, [((0, 0, 0), 2.0), ((1, 1, 1), 1.0), ((2, 2, 2), 1.0)])
    spec = pareto_spectrum(t, "H", FAST)
    assert spec.values().count(1.0) == 3
    val, vec = min_pareto(t, "H", FAST)
    assert val == spec.min_value == 1.0
    assert vec.tobytes() == spec.items[spec.values().index(1.0)].vector.tobytes() == np.eye(3)[1].tobytes()


def test_min_pareto_warns_on_nonsymmetric():
    t, _ = fixtures.grouped_quartic()
    with pytest.warns(UserWarning, match="non-symmetric"):
        val, _ = min_pareto(t, "H", FAST)
    assert val == pytest.approx(0.0, abs=1e-10)


def test_min_pareto_empty_spectrum_error(monkeypatch):
    t, _ = fixtures.shifted_cubic()
    import paretospec.spectrum as spectrum_mod

    # closed-form sub-problems are solved in batches, the ones marked for
    # multistart (here the pair) one by one; neither route finds anything
    def nothing(t, kind, config=None):
        empty = (np.empty((0, t.dim)), np.empty(0), np.empty(0), np.empty((0, t.dim)))
        yield empty, False, [np.array([0, 1])]

    monkeypatch.setattr(spectrum_mod, "solve_closed_forms", nothing)
    monkeypatch.setattr(spectrum_mod, "solve_interior", lambda *a, **k: [])
    with pytest.raises(EmptySpectrumError):
        min_pareto(t, "H", FAST)


def _reference_spectrum(t, kind, cfg, slack_tol=DEFAULT_SLACK_TOL):
    """The spectrum built one subset at a time, from its principal sub-tensor.

    Returns (subset, value, vector, slacks, boundary) per kept pair, keeping
    the first of any two pairs within dedup_tol in value and VECTOR_DEDUP_TOL
    in vector, and whether every sub-problem was solved exhaustively.  A pair
    is on the boundary when a slack lies below -_BOUNDARY_EPS times the
    magnitude of its complement row.
    """
    items, complete = [], True
    dense = _dense(t)
    for card in range(1, t.dim + 1):
        for subset in itertools.combinations(range(t.dim), card):
            sub = t.principal_subtensor(subset)
            complete &= solved_exhaustively(sub, kind, cfg)
            for pair in solve_interior(sub, kind, cfg):
                slacks = complement_slacks(t, subset, pair.vector)
                if slacks.size and slacks.min() < -slack_tol:
                    continue
                y = embed(pair.vector, subset, t.dim)
                if any(abs(pair.value - v) <= cfg.dedup_tol and np.abs(y - w).max() <= VECTOR_DEDUP_TOL
                       for _, v, w, _, _ in items):
                    continue
                rest = [i for i in range(t.dim) if i not in subset]
                scale = dense_contract(np.abs(dense), np.abs(y))[rest]
                items.append((subset, pair.value, y, slacks, bool((slacks < -_BOUNDARY_EPS * scale).any())))
    return items, complete


def _dense(t):
    """Dense array with each slice's coefficient on one of its index tuples."""
    return dense_from_entries(t.order, t.dim, [((lead,) + trail, v) for (lead, trail), v in t.slices.items()])


def _matrix_tensor(m):
    n = m.shape[0]
    return build(2, n, [((i, j), float(m[i, j])) for i in range(n) for j in range(n)])


def _equivalence_cases():
    """(name, tensor, slack_tol) per case."""
    tol = DEFAULT_SLACK_TOL
    rng = np.random.default_rng(77)
    sym = rng.uniform(-1, 1, size=(5, 5))
    # Perron-like: a positive eigenvector on most subsets, complex pairs on some
    nonsym = rng.uniform(0.0, 1.0, size=(5, 5)) - 0.3 * np.eye(5)
    yield "matrix-symmetric", _matrix_tensor((sym + sym.T) / 2), tol
    # Eigenvalue 1 is repeated on every principal sub-matrix of size >= 3, so
    # those withdraw `complete`.  Its eigenspace, the vectors summing to zero,
    # holds no nonnegative vector.
    yield "matrix-repeated-eigenvalue", _matrix_tensor(np.eye(5) + 0.1 * np.ones((5, 5))), tol
    # Here the repeated eigenspace u-perp meets faces of the orthant: pairs on
    # (0, 2) and (1, 2) have slacks that are zero in exact arithmetic, and the
    # two routes round them to opposite signs.
    u = np.array([1.0, 1.0, -2.0, 0.5])
    yield "matrix-repeated-eigenvalue-on-a-face", _matrix_tensor(np.eye(4) - 0.1 * np.outer(u, u)), tol
    yield "matrix-nonsymmetric", _matrix_tensor(nonsym), tol
    # the singleton (0,) is admitted with the tolerated slack -1e-10
    yield "matrix-boundary", _matrix_tensor(np.array([[1.0, 0.2, 0.1], [-1e-10, 2.0, 0.3], [0.0, 0.4, 3.0]])), tol
    for order, d in (
        (3, [1.5, 1.5, 1.5, 1.5, 1.5]),
        (3, [0.0, 0.0, 2.0, 0.0, -1.0]),
        (4, [1.0, -2.0, 0.5, 3.0, -0.25]),
        (5, [2.0, 2.0, -1.0, 0.0, 0.75]),
    ):
        yield f"diagonal-m{order}-{d}", build(order, 5, [((i,) * order, v) for i, v in enumerate(d)]), tol
    # off-diagonal slices only on {0, 1} and {1, 2, 3}: subsets without 0 and 1
    # together and without 1, 2 and 3 together stay diagonal
    yield "sparse-m3", build(
        3, 4, [((0, 0, 0), 1.0), ((1, 1, 1), 2.0), ((2, 2, 2), -1.0), ((3, 3, 3), 0.5),
               ((0, 0, 1), -0.7), ((1, 2, 3), 0.4)], symmetrize=True), tol
    yield "sparse-m4", build(
        4, 4, [((0, 0, 0, 0), 1.0), ((1, 1, 1, 1), 1.0), ((2, 2, 2, 2), 2.0), ((3, 3, 3, 3), 3.0),
               ((0, 1, 1, 1), -0.5), ((2, 2, 3, 3), 0.3)], symmetrize=True), tol
    # every cardinality of dimensions 8 and 9 in one pass, c >= 8 included,
    # where numpy's row sums turn pairwise: the positive matrix admits its
    # Perron pair on each of its 511 subsets, and the Z-spectrum of the
    # positive diagonal a pair on each of its 255
    big = rng.uniform(0, 1, size=(9, 9))
    yield "matrix-symmetric-n9", _matrix_tensor((big + big.T) / 2), tol
    yield "diagonal-m4-n8-positive", build(4, 8, [((i,) * 4, float(v)) for i, v in enumerate(rng.uniform(0.5, 2, 8))]), tol
    # the pair of (0, 1) duplicates the singleton (0,), admitted by its slack
    # -1e-7 at this slack_tol only, so the cross-support dedup drops it; at
    # one-subset chunks the two come in different batches
    yield "matrix-cross-support-duplicate", _matrix_tensor(np.array([[1.0, -1e-7], [-1e-7, 2.0]])), 1e-6


@pytest.mark.parametrize("batch_cells", [None, 1, 200], ids=["default-chunks", "one-subset-chunks", "small-chunks"])
def test_batched_spectrum_matches_per_subset_reference(monkeypatch, batch_cells):
    if batch_cells is not None:
        monkeypatch.setattr(eigen_mod, "_BATCH_CELLS", batch_cells)
    for name, t, slack_tol in _equivalence_cases():
        for kind in ("H", "Z"):
            want, want_complete = _reference_spectrum(t, kind, FAST, slack_tol)
            spec = pareto_spectrum(t, kind, FAST, slack_tol)
            where = f"{name} {kind}"
            assert [(c.subset, c.boundary) for c in spec.items] == [(w[0], w[4]) for w in want], where
            for c, (_, value, vector, slacks, _) in zip(spec.items, want):
                assert abs(c.value - value) <= 1e-12, (where, c.subset)
                np.testing.assert_allclose(c.vector, vector, rtol=0, atol=1e-12, err_msg=where)
                np.testing.assert_allclose(c.slacks, slacks, rtol=0, atol=1e-12, err_msg=where)
            assert spec.complete == want_complete, where


def test_closed_form_batches_stay_within_the_cell_budget(monkeypatch):
    # 255 Z pairs of every support size; each row costs at least dim^2 cells
    t = build(4, 8, [((i,) * 4, 1.0 + i / 8) for i in range(8)])
    whole = [batch for batch, _, _ in eigen_mod.solve_closed_forms(t, "Z")]
    monkeypatch.setattr(eigen_mod, "_BATCH_CELLS", 4096)
    parts = [batch for batch, _, _ in eigen_mod.solve_closed_forms(t, "Z")]
    assert len(whole) == 1 and len(parts) > 1
    assert max(len(L) for _, L, _, _ in parts) <= 4096 // t.dim**2
    for want, got in zip(whole[0], (np.concatenate(arrays) for arrays in zip(*parts))):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)  # row counts may reach BLAS apart


# Bench `spectra` seed 3, item m4n3#23: the coefficient of each index multiset,
# symmetrized.  Its Z-spectrum holds the pair near -0.723959 on (0, 1, 2) that
# a Newton ladder without halvings misses.
_LADDER_PROBE_M4N3 = (
    -0.07507687327379764, 0.7037159818909293, 0.6225901728488239, 0.6992636734909103,
    -0.33615793027237406, -0.0660125999480412, -0.6794440509715087, 0.16912289960177707,
    -0.9152629334882252, -0.060974952164871254, -0.672784330059377, -0.04459013581142979,
    -0.6374428930672225, -0.9969910752774049, -0.15648773135987404,
)


def _ladder_cases():
    rng = np.random.default_rng(23)
    for order in (3, 4):
        for dim in (3, 4):
            t = random_symmetric_tensor(rng, order, dim)
            yield f"dense-m{order}n{dim}", t, ("H", "Z")
    for order in (3, 4):
        yield f"nonsymmetric-m{order}n3", build(order, 3, random_entries(rng, order, 3, 25)), ("H", "Z")
    keys = itertools.combinations_with_replacement(range(3), 4)
    yield "m4n3#23", build(4, 3, list(zip(keys, _LADDER_PROBE_M4N3)), symmetrize=True), ("Z",)


def _multistart_pairs(t, kind):
    """Multistart Newton on the whole index set, which spectra solve exactly up to dimension 3."""
    sph, cfg = Sphere(kind, t.order), SolverConfig()
    L, W = eigen_mod._newton_candidates(t, sph, cfg)
    return eigen_mod._finalize(t, sph, W, L, np.ones(L.size, dtype=bool), cfg)[:2]


def test_newton_ladder_cut_at_stagnation_rung_keeps_every_pair(monkeypatch):
    """The short ladder emits what a 30-rung ladder emits, on Newton-solved inputs."""
    for name, t, kinds in _ladder_cases():
        for kind in kinds:
            short = pareto_spectrum(t, kind)
            short_w, short_l = _multistart_pairs(t, kind)
            with monkeypatch.context() as patch:
                patch.setattr(eigen_mod, "_MAX_HALVINGS", 30)
                long = pareto_spectrum(t, kind)
                long_w, long_l = _multistart_pairs(t, kind)
            where = f"{name} {kind}"
            assert short_l.size == long_l.size, where
            np.testing.assert_allclose(short_l, long_l, rtol=0, atol=1e-12, err_msg=where)
            np.testing.assert_allclose(short_w, long_w, rtol=0, atol=1e-9, err_msg=where)
            assert [(c.subset, c.boundary) for c in short.items] == [(c.subset, c.boundary) for c in long.items], where
            assert short.complete == long.complete, where
            for s, g in zip(short.items, long.items):
                assert abs(s.value - g.value) <= 1e-12, (where, s.subset)
                np.testing.assert_allclose(s.vector, g.vector, rtol=0, atol=1e-9, err_msg=where)


# Pairs that multistart Newton (default starts) misses on dense n = 3 tensors
# and the exact 3-index route finds: (seed, order, kind, value, vector), the
# tensor drawing uniform[-1, 1] per index multiset from default_rng(seed).
# All lie near a face of the orthant.
_MULTISTART_MISSES = (
    (239, 3, "Z", -0.4199392629, (0.0123244453, 0.9662108826, 0.2574580322)),
    (87, 3, "H", 0.0775619587, (0.0338480244, 0.9999870721, 0.0015807619)),
    (87, 3, "Z", 0.0773973369, (0.0426942705, 0.9990760531, 0.0049233562)),
    (97, 4, "H", 0.3430650287, (0.9999736799, 0.1008516154, 0.0367601042)),
    (233, 4, "Z", -0.1244052833, (0.0256539001, 0.0345278160, 0.9990744253)),
)


@pytest.mark.parametrize("seed, order, kind, value, vector", _MULTISTART_MISSES)
def test_three_index_route_recovers_pairs_multistart_misses(seed, order, kind, value, vector):
    rng = np.random.default_rng(seed)
    keys = itertools.combinations_with_replacement(range(3), order)
    t = build(order, 3, [(key, float(rng.uniform(-1.0, 1.0))) for key in keys], symmetrize=True)
    spec = pareto_spectrum(t, kind)
    found = [c for c in spec.items if abs(c.value - value) <= 1e-8 and np.abs(c.vector - vector).max() <= 1e-6]
    assert len(found) == 1, spec.items
    assert found[0].subset == (0, 1, 2)
    assert verify_pareto_pair(t, found[0].value, found[0].vector, kind).ok
    assert spec.complete is True


@pytest.mark.parametrize("seed, order, kind", [(0, 3, "H"), (1, 3, "H"), (3, 4, "Z"), (4, 4, "H")])
def test_spectrum_of_a_scaled_tensor_is_scaled(seed, order, kind):
    # entries near 1e6 leave polished residuals near 1e-10 by rounding alone;
    # the residual test must not drop those pairs
    rng = np.random.default_rng(seed)
    entries = [(key, float(rng.uniform(-1.0, 1.0))) for key in itertools.combinations_with_replacement(range(3), order)]
    unit = pareto_spectrum(build(order, 3, entries, symmetrize=True), kind)
    scaled = pareto_spectrum(build(order, 3, [(key, 1e6 * v) for key, v in entries], symmetrize=True), kind)
    assert [c.subset for c in scaled.items] == [c.subset for c in unit.items]
    for s, u in zip(scaled.items, unit.items):
        assert s.value / 1e6 == pytest.approx(u.value, abs=1e-9)
        np.testing.assert_allclose(s.vector, u.vector, rtol=0, atol=1e-9)
    assert scaled.complete == unit.complete
