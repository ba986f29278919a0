"""Property tests over drawn tensors.

The oracles are the dense-array helpers of conftest, for dimension 2
numpy.roots on the reduced polynomial built entry by entry in test_eigen,
for exhaustive dimension-3 solves multistart Newton, and for whole spectra
the subset-by-subset reference of test_spectrum.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from paretospec.eigen import POS_TOL, SolverConfig, _finalize, _newton_candidates, solve_interior, solved_exhaustively
from paretospec.minimize import minimize
from paretospec.spectrum import DEFAULT_SLACK_TOL, complement_slacks, pareto_spectrum, verify_pareto_pair
from paretospec.tensor import Sphere, Tensor, build, knorm
from paretospec.tensorio import parse_document, serialize_document, tensor_to_document

from conftest import dense_contract, dense_from_entries, dense_full, dense_jacobian, dense_symmetrize

from test_eigen import assert_pairs_match, two_index_oracle, two_index_polynomial
from test_spectrum import _reference_spectrum

SETTINGS = settings(max_examples=60, deadline=None)
# sub-problems of four or more indices, and 3-index ones the exact route
# cannot certify, still run multistart Newton
CHEAP = SolverConfig(starts=60, seed=2)

# exact zeros, quarter-integers (exact cancellations, repeated roots) and
# general floats kept away from the underflow range
coefficients = st.one_of(
    st.just(0.0),
    st.integers(-8, 8).map(lambda k: k / 4),
    st.floats(1e-3, 2.0),
    st.floats(-2.0, -1e-3),
)


@st.composite
def entry_lists(draw, orders=(2, 3, 4), dims=(1, 2, 3)):
    order = draw(st.sampled_from(orders))
    dim = draw(st.sampled_from(dims))
    index = st.tuples(*[st.integers(0, dim - 1)] * order)
    entries = draw(st.lists(st.tuples(index, coefficients), max_size=12))
    return order, dim, entries


@st.composite
def spectrum_tensors(draw):
    """Matrices, diagonal tensors of order 3-5 and sparse order-3/4 tensors, dimension <= 4.

    A sparse tensor has a diagonal and at most three off-diagonal entries,
    so most of its sub-problems are diagonal and the rest run Newton.
    Off-diagonal entries of +-1e-7 give pairs with a support entry near
    1e-7, which match the pair of a smaller support within the vector
    dedup tolerance when slack_tol admits both.
    """
    style = draw(st.sampled_from(["matrix", "diagonal", "sparse"]))
    dim = draw(st.integers(1, 4))
    diag = draw(st.lists(coefficients, min_size=dim, max_size=dim))
    coupling = st.one_of(coefficients, st.sampled_from([-1e-7, 1e-7]))
    if style == "matrix":
        off = draw(st.lists(coupling, min_size=dim * dim, max_size=dim * dim))
        entries = [((i, j), off[i * dim + j] if i != j else diag[i]) for i in range(dim) for j in range(dim)]
        return build(2, dim, entries, symmetrize=draw(st.booleans()))
    order = draw(st.integers(3, 5) if style == "diagonal" else st.integers(3, 4))
    entries = [((i,) * order, v) for i, v in enumerate(diag)]
    if style == "sparse":
        index = st.tuples(*[st.integers(0, dim - 1)] * order)
        entries += draw(st.lists(st.tuples(index, coupling), max_size=3))
    return build(order, dim, entries, symmetrize=style == "sparse" and draw(st.booleans()))


@st.composite
def slice_tensors(draw):
    """A tensor of order 2-5 and dimension 1-5 made by Tensor(...) from drawn slices.

    Slices skip `build`, so a zero coefficient stays stored; small
    dimensions make repeated trailing indices common.
    """
    order = draw(st.integers(2, 5))
    dim = draw(st.integers(1, 5))
    index = st.integers(0, dim - 1)
    trail = st.lists(index, min_size=order - 1, max_size=order - 1).map(lambda tr: tuple(sorted(tr)))
    return Tensor(order, dim, draw(st.dictionaries(st.tuples(index, trail), coefficients, max_size=12)))


@st.composite
def two_index_tensors(draw):
    """(order, entries, symmetric) of a dimension-2 tensor of order 3-5.

    Non-symmetric and sparse inputs set the coefficient of s^k in p_a, one
    slice each; sparse ones may zero the coefficients that become the
    leading (p_0 at s^{m-1}) and trailing (p_1 at s^0) ones of the reduced
    polynomial.
    """
    order = draw(st.integers(3, 5))
    style = draw(st.sampled_from(["symmetric", "nonsymmetric", "sparse", "zero"]))
    if style == "zero":
        return order, [], False
    if style == "symmetric":
        values = draw(st.lists(coefficients, min_size=order + 1, max_size=order + 1))
        return order, [((0,) * (order - k) + (1,) * k, v) for k, v in enumerate(values)], True
    p = np.array(draw(st.lists(coefficients, min_size=2 * order, max_size=2 * order))).reshape(2, order)
    if style == "sparse":
        keep = np.array(draw(st.lists(st.booleans(), min_size=2 * order, max_size=2 * order))).reshape(2, order)
        p = np.where(keep, p, 0.0)
        if draw(st.booleans()):
            p[0, order - 1] = 0.0
        if draw(st.booleans()):
            p[1, 0] = 0.0
    entries = [((a,) + (0,) * (order - 1 - k) + (1,) * k, float(p[a, k])) for a in (0, 1) for k in range(order)]
    return order, entries, False


@SETTINGS
@given(entry_lists(), st.data())
def test_symmetrization_keeps_the_form(drawn, data):
    order, dim, entries = drawn
    x = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim)))
    t = build(order, dim, entries)
    sym = t.symmetrized()
    want = dense_full(dense_from_entries(order, dim, entries), x)
    size = sum(abs(v) for _, v in entries) * max(1.0, np.abs(x).max()) ** order
    assert t.apply_full(x) == pytest.approx(want, abs=1e-12 * max(1.0, size))
    assert sym.apply_full(x) == pytest.approx(want, abs=1e-12 * max(1.0, size))
    assert sym.symmetric


@st.composite
def kernel_batches(draw):
    """A drawn slice tensor and a batch of 1-4 rows with mixed signs."""
    t = draw(slice_tensors())
    rows = draw(st.integers(1, 4))
    X = draw(st.lists(st.floats(-1.5, 1.5), min_size=rows * t.dim, max_size=rows * t.dim))
    return t, np.array(X).reshape(rows, t.dim)


@SETTINGS
@given(kernel_batches())
@example((Tensor(3, 2, {}), np.array([[0.5, -1.0]])))
@example((Tensor(4, 3, {(0, (1, 1, 1)): 0.0, (2, (0, 2, 2)): -1.5, (1, (1, 1, 2)): 0.75}), np.array([[0.3, -1.2, 0.9]])))
@example((Tensor(2, 1, {(0, (0,)): 2.0}), np.array([[-0.7], [1.5]])))
def test_kernels_match_dense_oracles(drawn):
    """Contraction, magnitude and Jacobian against the dense tensor holding each slice at one index."""
    t, X = drawn
    m, n = t.order, t.dim
    a = dense_from_entries(m, n, [((lead,) + trail, v) for (lead, trail), v in t.slices.items()])
    tol = 1e-12 * max(1.0, sum(abs(v) for v in t.slices.values())) * max(1.0, np.abs(X).max()) ** m
    C, M, J = t.contract_batch(X), t.contract_magnitude_batch(X), t.contract_jacobian_batch(X)
    assert C.shape == M.shape == X.shape and J.shape == X.shape + (n,)
    for x, c, mag, jac in zip(X, C, M, J):
        np.testing.assert_allclose(c, dense_contract(a, x), rtol=0, atol=tol)
        np.testing.assert_allclose(mag, dense_contract(np.abs(a), np.abs(x)), rtol=0, atol=tol)
        np.testing.assert_allclose(jac, dense_jacobian(a, x), rtol=0, atol=(m - 1) * tol)


def _near_degenerate(a: np.ndarray, kind: str) -> bool:
    """Whether a positive-real-part root is near the route's thresholds.

    The route keeps roots with |Im z| <= 1e-5 |z| and withdraws `complete`
    when two kept roots are within 1e-5 in arctan(s); roots near a
    threshold, or with a unit vector near the 1e-8 positivity filter, may
    land on either side of it.
    """
    q = two_index_polynomial(a, kind)
    z = np.roots(q[::-1])
    z = z[z.real > 0]
    ratio = np.abs(z.imag) / np.abs(z)
    if ((ratio > 1e-7) & (ratio < 1e-3)).any():
        return True
    angle = np.sort(np.arctan(z.real[ratio <= 1e-7]))
    gaps = np.diff(angle)
    if ((gaps > 1e-7) & (gaps < 1e-3)).any():
        return True
    m = a.ndim
    for s in z.real[ratio <= 1e-7]:
        w = np.array([1.0, s])
        for k in (m, 2):
            if 1e-10 < (w / knorm(w, k)).min() < 1e-6:
                return True
    return False


@settings(max_examples=200, deadline=None)
@given(two_index_tensors())
def test_two_index_route_matches_roots_oracle(drawn):
    order, entries, symmetric = drawn
    t = build(order, 2, entries, symmetrize=symmetric)
    a = dense_from_entries(order, 2, entries)
    if symmetric:
        a = dense_symmetrize(a)
    for kind in ("H", "Z"):
        assume(not _near_degenerate(a, kind))
        q = two_index_polynomial(a, kind)
        pairs = solve_interior(t, kind)
        exhaustive = solved_exhaustively(t, kind)
        if not q.any():
            # a family, reported by w = (1, 1)
            assert exhaustive is False
            assert len(pairs) == 1
            np.testing.assert_allclose(pairs[0].vector[0], pairs[0].vector[1], rtol=1e-12)
            continue
        z = np.roots(q[::-1])
        z = z[z.real > 0]
        real = np.abs(z.imag) <= 1e-7 * np.abs(z)
        near_real = ~real & (np.abs(z.imag) <= 1e-3 * np.abs(z))
        unresolved = near_real.any() or (np.diff(np.sort(np.arctan(z.real[real]))) <= 1e-7).any()
        assert exhaustive is (not unresolved)
        if exhaustive:
            assert_pairs_match(pairs, two_index_oracle(a, kind, imag_tol=1e-7), tol=1e-8)
        else:
            # every reported pair sits on a positive root of the oracle
            for p in pairs:
                s = p.vector[1] / p.vector[0]
                assert np.abs(z - s).min() <= 1e-4 * max(1.0, s)


@st.composite
def three_index_tensors(draw):
    """A symmetric order-3/4 tensor of dimension 3 with one drawn coefficient per index multiset."""
    order = draw(st.integers(3, 4))
    keys = list(itertools.combinations_with_replacement(range(3), order))
    values = draw(st.lists(coefficients, min_size=len(keys), max_size=len(keys)))
    return build(order, 3, list(zip(keys, values)), symmetrize=True)


@SETTINGS
@given(three_index_tensors(), st.sampled_from(["H", "Z"]))
def test_exhaustive_three_index_route_keeps_every_multistart_pair(t, kind):
    # the claim under test: an exhaustive 3-index solve misses no root that
    # multistart (other seed and start count than any fallback) converges to
    assume(solved_exhaustively(t, kind))
    exact = solve_interior(t, kind)
    sph, cfg = Sphere(kind, t.order), SolverConfig(starts=400, seed=3)
    L, W = _newton_candidates(t, sph, cfg)
    W, L, _, _ = _finalize(t, sph, W, L, np.ones(L.size, dtype=bool), cfg)
    for value, vector in zip(L, W):
        assume(vector.min() > 1e-6)  # near the positivity filter either side may drop it
        assert any(
            abs(p.value - value) <= 1e-8 * max(1.0, abs(value)) and np.abs(p.vector - vector).max() <= 1e-6
            for p in exact
        ), (value, vector)


@settings(max_examples=50, deadline=None)
@given(entry_lists(orders=(3, 4), dims=(2, 3)), st.sampled_from(["H", "Z"]))
def test_minimize_lands_on_the_smallest_pareto_value(drawn, kind):
    # the paper's theorem: min of A x^m over {x >= 0, ||x||_k = 1} is the
    # smallest Pareto eigenvalue of the matching kind
    order, dim, entries = drawn
    t = build(order, dim, entries, symmetrize=True)
    res = minimize(t, kind)
    x = res.argmin
    assert x.min() >= 0.0
    assert abs(knorm(x, Sphere(kind, order).k) - 1.0) <= 1e-12
    assert abs(res.value - t.apply_full(x)) <= 1e-12 * (1.0 + abs(res.value))
    spec = pareto_spectrum(t, kind)
    if spec.complete:
        assert abs(res.value - spec.min_value) <= 1e-6, (res.value, spec.min_value)
        assert res.value >= spec.min_value - 1e-9


@SETTINGS
@given(two_index_tensors(), st.sampled_from(["H", "Z"]), st.floats(0.1, 10.0))
def test_verify_is_scale_invariant_on_emitted_pairs(drawn, kind, scale):
    order, entries, symmetric = drawn
    t = build(order, 2, entries, symmetrize=symmetric)
    for c in pareto_spectrum(t, kind).items:
        assume(not c.slacks.size or c.slacks.min() > -1e-12)  # tolerated negatives grow with the scale
        rep = verify_pareto_pair(t, c.value, scale * c.vector, kind)
        assert rep.ok, (c.subset, rep)
        assert verify_pareto_pair(t, c.value, c.vector, kind).ok


@SETTINGS
@given(entry_lists(orders=(2, 3, 4), dims=(2, 3)), st.sampled_from(["H", "Z"]))
def test_certificate_slacks_match_complement_slacks(drawn, kind):
    order, dim, entries = drawn
    t = build(order, dim, entries)
    for c in pareto_spectrum(t, kind, CHEAP).items:
        np.testing.assert_allclose(c.slacks, complement_slacks(t, c.subset, c.pair.vector), rtol=0, atol=1e-12)
        rest = [i for i in range(dim) if i not in c.subset]
        np.testing.assert_array_equal(c.vector[rest], 0.0)
        np.testing.assert_array_equal(c.vector[list(c.subset)], c.pair.vector)


@settings(max_examples=80, deadline=None)
@given(spectrum_tensors(), st.sampled_from(["H", "Z"]), st.sampled_from([DEFAULT_SLACK_TOL, 1e-6]))
def test_spectrum_matches_per_subset_reference(t, kind, slack_tol):
    cfg = SolverConfig(starts=30, seed=2)
    want, want_complete = _reference_spectrum(t, kind, cfg, slack_tol)
    spec = pareto_spectrum(t, kind, cfg, slack_tol)
    # a pair within rounding of a filter threshold may land on either side of
    # it; the 1e-12 slack window leaves out no exactly-zero slack
    for vector, slacks in [(c.vector, c.slacks) for c in spec.items] + [(w[2], w[3]) for w in want]:
        assume(not (np.abs(slacks + slack_tol) <= 1e-12).any())
        assume(not (np.abs(vector - POS_TOL) <= 1e-9).any())
    assert [(c.subset, c.boundary) for c in spec.items] == [(w[0], w[4]) for w in want]
    for c, (_, value, vector, slacks, _) in zip(spec.items, want):
        assert abs(c.value - value) <= 1e-12
        np.testing.assert_allclose(c.vector, vector, rtol=0, atol=1e-12)
        np.testing.assert_allclose(c.slacks, slacks, rtol=0, atol=1e-12)
    assert spec.complete == want_complete


@settings(max_examples=100, deadline=None)
@given(entry_lists(), st.booleans())
def test_document_round_trip(drawn, symmetrize):
    order, dim, entries = drawn
    t = build(np.int64(order), np.int64(dim), entries, symmetrize=symmetrize)
    back = parse_document(serialize_document(tensor_to_document(t))).to_tensor()
    assert (back.order, back.dim) == (order, dim)
    assert back.slices == t.slices
    assert back.symmetric == t.symmetric
