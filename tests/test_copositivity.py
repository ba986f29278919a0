"""Copositivity classification."""

import numpy as np
import pytest

from paretospec import fixtures
from paretospec.copositivity import CopositivityVerdict, classify
from paretospec.eigen import SolverConfig
from paretospec.tensor import build

FAST = SolverConfig(starts=150, seed=3)

QUARTIC_CASES = [
    (-1.0, "not_copositive"),
    (-(27.0 ** -0.25), "copositive_boundary"),
    (-0.5 * 27.0 ** -0.25, "strictly_copositive"),
    (0.0, "strictly_copositive"),
    (1.0, "strictly_copositive"),
]


@pytest.mark.parametrize("t_param,want", QUARTIC_CASES)
def test_parametric_quartic_sweep_route_both(t_param, want):
    t, expected = fixtures.parametric_quartic(t_param)
    verdict = classify(t, route="both", config=FAST)
    assert verdict.classification == want
    assert verdict.route == "both"
    # the reported minimum is the smaller of the two kinds, here the Z side
    # for positive gamma; it must never exceed the H minimum
    assert verdict.min_eigenvalue <= expected["gamma"] + 1e-8


@pytest.mark.parametrize("t_param,want", QUARTIC_CASES)
def test_parametric_quartic_sweep_route_h(t_param, want):
    t, expected = fixtures.parametric_quartic(t_param)
    verdict = classify(t, route="H", config=FAST)
    assert verdict.classification == want
    assert verdict.min_eigenvalue == pytest.approx(expected["gamma"], abs=1e-8)


def test_margin_sign_tracks_band():
    t, _ = fixtures.parametric_quartic(0.0)
    v = classify(t, route="H", config=FAST)
    assert v.min_eigenvalue == pytest.approx(1.0, abs=1e-9)
    assert v.margin == pytest.approx(1.0 - v.zero_band, abs=1e-8)

    tb, _ = fixtures.parametric_quartic(-(27.0 ** -0.25))
    vb = classify(tb, route="H", config=FAST)
    assert vb.classification == "copositive_boundary"
    assert vb.margin <= 0.0


def test_matrix_classifications():
    strict = build(2, 2, [((0, 0), 2.0), ((0, 1), -1.0), ((1, 0), -1.0), ((1, 1), 2.0)])
    assert classify(strict, config=FAST).classification == "strictly_copositive"

    boundary = build(2, 2, [((0, 0), 1.0), ((0, 1), -1.0), ((1, 0), -1.0), ((1, 1), 1.0)])
    vb = classify(boundary, config=FAST)
    assert vb.classification == "copositive_boundary"
    assert vb.min_eigenvalue == pytest.approx(0.0, abs=1e-12)

    neg = build(2, 2, [((0, 0), 1.0), ((0, 1), -3.0), ((1, 0), -3.0), ((1, 1), 1.0)])
    vn = classify(neg, config=FAST)
    assert vn.classification == "not_copositive"
    assert vn.min_eigenvalue == pytest.approx(-2.0, abs=1e-10)
    # order 2: the two kinds produce the same minimum, no inconclusive downgrade
    assert "inconclusive" not in (vb.classification, vn.classification)


def test_diagonal_classifications_agree_across_kinds():
    pos = build(3, 3, [((i, i, i), float(i + 1)) for i in range(3)])
    v = classify(pos, config=FAST)
    assert v.classification == "strictly_copositive"

    mixed = build(3, 2, [((0, 0, 0), -1.0), ((1, 1, 1), 2.0)])
    v2 = classify(mixed, config=FAST)
    assert v2.classification == "not_copositive"
    assert v2.min_eigenvalue == pytest.approx(-1.0, abs=1e-12)
    np.testing.assert_allclose(v2.certificate, [1.0, 0.0], atol=1e-12)


def test_zero_tensor_is_boundary():
    t = build(4, 2, [], symmetrize=True)
    v = classify(t, config=FAST)
    assert v.classification == "copositive_boundary"
    assert v.min_eigenvalue == 0.0


def test_nonsymmetric_input_rejected():
    t, _ = fixtures.grouped_quartic()
    with pytest.raises(ValueError, match="symmetric"):
        classify(t)


def test_route_and_band_validation():
    t, _ = fixtures.parametric_quartic(0.0)
    with pytest.raises(ValueError):
        classify(t, route="X")
    with pytest.raises(ValueError):
        classify(t, zero_band=0.0)


def test_disagreement_is_inconclusive(monkeypatch):
    t, _ = fixtures.parametric_quartic(0.0)
    import paretospec.copositivity as cop

    def fake_min_pareto(_t, kind, config=None, slack_tol=None):
        return (1.0, np.array([1.0, 0.0])) if kind == "H" else (-1.0, np.array([0.0, 1.0]))

    monkeypatch.setattr(cop, "min_pareto", fake_min_pareto)
    v = classify(t, route="both")
    assert v.classification == "inconclusive"
    assert any("disagree" in n for n in v.notes)
    assert v.min_eigenvalue == -1.0


def test_verdict_notes_carry_both_kinds():
    t, _ = fixtures.parametric_quartic(0.0)
    v = classify(t, route="both", config=FAST)
    assert len(v.notes) == 2
    assert v.notes[0].startswith("H:")
    assert v.notes[1].startswith("Z:")


def test_classify_deterministic():
    t, _ = fixtures.parametric_quartic(-1.0)
    a = classify(t, config=FAST)
    b = classify(t, config=FAST)
    assert a.min_eigenvalue == b.min_eigenvalue
    np.testing.assert_array_equal(a.certificate, b.certificate)
