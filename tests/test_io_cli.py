"""Document parsing/serialization and the command-line front end."""

import json
from dataclasses import fields

import numpy as np
import pytest

from paretospec import (
    DocumentError,
    TensorDocument,
    parse_document,
    serialize_document,
    tensor_to_document,
)
from paretospec.cli import main
from paretospec.copositivity import CopositivityVerdict
from paretospec.spectrum import VerifyReport
from paretospec.fixtures import grouped_quartic, shifted_cubic

CUBIC_DOC = {
    "name": "shifted cubic",
    "order": 3,
    "dim": 2,
    "symmetric": False,
    "entries": [
        {"index": [1, 1, 1], "value": 1.0},
        {"index": [2, 2, 2], "value": 2.0},
        {"index": [1, 2, 2], "value": 1.0 / 3.0},
        {"index": [2, 1, 2], "value": 1.0 / 3.0},
        {"index": [2, 2, 1], "value": 1.0 / 3.0},
        {"index": [1, 1, 2], "value": -2.0 / 3.0},
        {"index": [1, 2, 1], "value": -2.0 / 3.0},
        {"index": [2, 1, 1], "value": -2.0 / 3.0},
    ],
}


@pytest.fixture
def cubic_file(tmp_path):
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps(CUBIC_DOC))
    return str(path)


# ---------------------------------------------------------------- documents


def test_parse_matches_fixture_tensor():
    doc = parse_document(json.dumps(CUBIC_DOC))
    assert doc.order == 3 and doc.dim == 2 and doc.name == "shifted cubic"
    t = doc.to_tensor()
    ref, _ = shifted_cubic()
    assert t.slices.keys() == ref.slices.keys()
    for key, v in ref.slices.items():
        assert t.slices[key] == pytest.approx(v, abs=1e-15)
    assert t.symmetric


def test_serialize_parse_round_trip():
    doc = parse_document(json.dumps(CUBIC_DOC))
    assert parse_document(serialize_document(doc)) == doc


def test_tensor_document_round_trip_preserves_slices():
    t, _ = grouped_quartic()
    doc = tensor_to_document(t, name="grouped")
    back = doc.to_tensor()
    assert back.slices == t.slices
    assert back.symmetric == t.symmetric


def test_symmetric_flag_symmetrizes_on_build():
    text = json.dumps(
        {
            "order": 2,
            "dim": 2,
            "symmetric": True,
            "entries": [{"index": [1, 2], "value": 2.0}],
        }
    )
    t = parse_document(text).to_tensor()
    x = np.array([1.0, 1.0])
    assert t.apply_full(x) == pytest.approx(2.0)
    assert t.symmetric


def test_syntax_error_carries_position():
    with pytest.raises(DocumentError) as err:
        parse_document('{"order": 3,\n "dim": }')
    assert err.value.line == 2
    assert err.value.column is not None
    assert "line 2" in str(err.value)


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.pop("order"), "missing required key 'order'"),
        (lambda d: d.update(order=1), "'order' must be an integer >= 2"),
        (lambda d: d.update(dim=0), "'dim' must be an integer >= 1"),
        (lambda d: d.update(extra=1), "unknown document keys"),
        (lambda d: d.update(symmetric="yes"), "'symmetric' must be true or false"),
        (lambda d: d.update(entries="nope"), "'entries' must be a list"),
        (
            lambda d: d["entries"].append({"index": [1, 1], "value": 1.0}),
            "entries[8]: index length 2, expected order 3",
        ),
        (
            lambda d: d["entries"].append({"index": [0, 1, 1], "value": 1.0}),
            "entries[8]: index [0, 1, 1] out of range 1..2",
        ),
        (
            lambda d: d["entries"].append({"index": [1, 1, 1], "value": "x"}),
            "entries[8]: 'value' must be a number",
        ),
        (
            lambda d: d["entries"].append({"index": [1, 1, 1]}),
            "entries[8]: each entry needs exactly 'index' and 'value'",
        ),
        (
            lambda d: d["entries"].append({"index": [1.5, 1, 1], "value": 1.0}),
            "entries[8]: 'index' must be a list of integers",
        ),
    ],
)
def test_schema_errors_name_the_problem(mutate, fragment):
    doc = json.loads(json.dumps(CUBIC_DOC))
    mutate(doc)
    with pytest.raises(DocumentError, match=None) as err:
        parse_document(json.dumps(doc))
    assert fragment in str(err.value)


def test_non_object_document_rejected():
    with pytest.raises(DocumentError, match="must be a JSON object"):
        parse_document("[1, 2]")


def test_nan_value_rejected():
    text = '{"order": 2, "dim": 1, "entries": [{"index": [1, 1], "value": NaN}]}'
    with pytest.raises(DocumentError, match="non-finite"):
        parse_document(text)


def test_duplicate_indices_warn_and_sum():
    text = json.dumps(
        {
            "order": 2,
            "dim": 1,
            "entries": [
                {"index": [1, 1], "value": 1.0},
                {"index": [1, 1], "value": 2.0},
            ],
        }
    )
    with pytest.warns(UserWarning, match="duplicate indices are summed"):
        doc = parse_document(text)
    assert doc.to_tensor().apply_full(np.array([1.0])) == pytest.approx(3.0)


def test_document_equality_is_structural():
    a = TensorDocument(order=2, dim=1, entries=(((1, 1), 1.0),))
    b = TensorDocument(order=2, dim=1, entries=(((1, 1), 1.0),))
    assert a == b


# ---------------------------------------------------------------------- cli


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json", "--no-timing")
    assert err == ""
    return code, json.loads(out)


def test_cli_spectrum_reports_known_values(capsys, cubic_file):
    code, report = run_json(capsys, "spectrum", cubic_file)
    assert code == 0
    assert report["command"] == "spectrum"
    assert report["input"]["symmetric"] is True
    h = report["results"]["h"]
    z = report["results"]["z"]
    top = max(i["value"] for i in h["items"])
    assert top == pytest.approx(2.1115216984370666, abs=1e-8)
    assert h["min_value"] == pytest.approx(0.442539579328, abs=1e-8)
    assert z["min_value"] == pytest.approx(0.357239640503, abs=1e-8)
    subsets = [tuple(i["subset"]) for i in h["items"]]
    assert subsets == [(2,), (1, 2), (1, 2)]  # 1-based in reports
    assert all(i["residual"] <= 1e-10 for i in h["items"])


def test_cli_spectrum_single_kind(capsys, cubic_file):
    code, report = run_json(capsys, "spectrum", cubic_file, "--kind", "z")
    assert code == 0
    assert set(report["results"]) == {"z"}


def test_cli_minimize_with_grid_crosscheck(capsys, cubic_file):
    code, report = run_json(
        capsys, "minimize", cubic_file, "--kind", "h", "--resolution", "32"
    )
    assert code == 0
    res = report["results"]["h"]
    assert res["value"] == pytest.approx(0.442539579328, abs=1e-8)
    assert res["grid_bound"] >= res["value"] - 1e-9
    assert res["kkt_residual"] <= 1e-6
    assert report["config"]["resolution"] == 32


def test_cli_shared_parser_keeps_each_runs_options(capsys, cubic_file):
    # the parser is built once per process; the second run must not see the first's options
    code, first = run_json(capsys, "minimize", cubic_file, "--seed", "3", "--starts", "50", "--resolution", "16")
    assert code == 0
    code, second = run_json(capsys, "minimize", cubic_file)
    assert code == 0
    assert first["config"] == {"kind": "both", "seed": 3, "starts": 50, "tol": 1e-10, "resolution": 16}
    assert second["config"] == {"kind": "both", "seed": 0, "starts": None, "tol": 1e-10, "resolution": None}
    assert first["results"]["h"]["starts_used"] == 50
    assert second["results"]["h"]["starts_used"] == 400
    assert "grid_bound" not in second["results"]["h"]


@pytest.mark.parametrize(
    "order, dim, resolution, message",
    [(3, 2, "7", "resolution must be"), (3, 5, "16", "dimension 4"), (3, 4, "400", "10,827,401 points")],
)
def test_cli_minimize_grid_guards_fail_before_minimizing(capsys, monkeypatch, tmp_path, order, dim, resolution, message):
    import paretospec.cli as cli_mod
    from paretospec.tensor import build

    def never(*a, **k):
        raise RuntimeError("minimize ran before the grid guards")

    monkeypatch.setattr(cli_mod, "minimize", never)
    path = tmp_path / "doc.json"
    path.write_text(serialize_document(tensor_to_document(build(order, dim, [((0,) * order, 1.0)]))))
    code, out, err = run_cli(capsys, "minimize", str(path), "--resolution", resolution)
    assert code == 2
    assert message in err
    assert out == ""


def test_cli_copositive_verdict(capsys, cubic_file):
    code, report = run_json(capsys, "copositive", cubic_file)
    assert code == 0
    res = report["results"]
    assert list(res) == [f.name for f in fields(CopositivityVerdict)]
    assert res["classification"] == "strictly_copositive"
    assert res["route"] == "both"
    assert res["min_eigenvalue"] == pytest.approx(0.357239640503, abs=1e-8)
    assert len(res["notes"]) == 2


def test_cli_verify_accepts_true_pair(capsys, cubic_file):
    code, report = run_json(
        capsys, "verify", cubic_file, "--kind", "h", "--value", "2.0",
        "--vector", "0,1",
    )
    assert code == 0
    assert report["results"]["ok"] is True


def test_cli_verify_rejects_false_pair_with_exit_1(capsys, cubic_file):
    code, report = run_json(
        capsys, "verify", cubic_file, "--kind", "h", "--value", "1.0",
        "--vector", "1,0",
    )
    assert code == 1
    res = report["results"]
    assert list(res) == ["kind", "value", "vector"] + [f.name for f in fields(VerifyReport)]
    assert res["ok"] is False
    assert res["failed_condition"] == "complement-slacks"
    assert res["slacks"][1] == pytest.approx(-2.0 / 3.0, abs=1e-10)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_cli_verify_non_finite_value_exit_2(capsys, cubic_file, value):
    # argparse alone would take a separate "-inf" for an option
    for given in ([f"--value={value}"], ["--value", value]):
        code, out, err = run_cli(capsys, "verify", cubic_file, "--kind", "h", *given, "--vector", "0,1")
        assert code == 2
        assert "value must be finite" in err
        assert out == ""


def test_cli_verify_reads_a_separate_negative_vector(capsys, cubic_file):
    code, report = run_json(capsys, "verify", cubic_file, "--kind", "h", "--value", "1e0", "--vector", "-1e-1,1")
    assert code == 1
    assert report["results"]["vector"] == [-0.1, 1.0]
    assert report["results"]["failed_condition"] == "nonnegativity"


def test_cli_verify_bad_vector_string(capsys, cubic_file):
    code, out, err = run_cli(
        capsys, "verify", cubic_file, "--kind", "h", "--value", "1.0",
        "--vector", "1,oops",
    )
    assert code == 2
    assert "comma-separated numbers" in err


@pytest.mark.parametrize("name", ["ex3.1", "ex3.2"])
def test_cli_example_fixtures_pass(capsys, name):
    code, report = run_json(capsys, "example", name)
    assert code == 0
    assert report["results"]["all_ok"] is True
    assert all(c["ok"] for c in report["results"]["checks"])
    if name == "ex3.2":  # the value 2 is checked with its vector (0, 1)
        names = {c["name"] for c in report["results"]["checks"]}
        assert {"h_vector_at_2", "z_vector_at_2"} <= names


# the last t is the band edge: gamma = 1 + 27^(1/4) t is zero up to rounding
@pytest.mark.parametrize("t", ["-1.0", "-1e-3", "0.0", "0.25", repr(-(27.0 ** -0.25))])
def test_cli_example_parametric_sweep(capsys, t):
    code, report = run_json(capsys, "example", "ex4.1", "--t", t)
    assert code == 0
    assert report["results"]["all_ok"] is True
    assert report["results"]["t"] == float(t)
    if float(t) == -(27.0 ** -0.25):
        (check,) = [c for c in report["results"]["checks"] if c["name"] == "classification"]
        assert check["expected"] == check["got"] == "copositive_boundary"


def test_cli_example_rejects_t_elsewhere(capsys):
    code, out, err = run_cli(capsys, "example", "ex3.2", "--t", "1.0")
    assert code == 2
    assert "only applies to ex4.1" in err


def test_cli_malformed_document_exit_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"order": 3,\n "dim": }')
    code, out, err = run_cli(capsys, "spectrum", str(path))
    assert code == 2
    assert "line 2" in err


def test_cli_missing_file_exit_2(capsys, tmp_path):
    code, out, err = run_cli(capsys, "spectrum", str(tmp_path / "none.json"))
    assert code == 2
    assert "cannot read" in err


def test_cli_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum"])
    assert exc.value.code == 2


def test_cli_internal_failure_exit_3(capsys, cubic_file, monkeypatch):
    import paretospec.cli as cli_mod

    def boom(*a, **k):
        raise RuntimeError("solver blew up")

    monkeypatch.setattr(cli_mod, "pareto_spectrum", boom)
    code, out, err = run_cli(capsys, "spectrum", cubic_file)
    assert code == 3
    assert "internal error" in err


def test_cli_duplicate_warning_lands_in_report(capsys, tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(
        json.dumps(
            {
                "order": 2,
                "dim": 2,
                "entries": [
                    {"index": [1, 1], "value": 1.0},
                    {"index": [1, 1], "value": 1.0},
                    {"index": [2, 2], "value": 1.0},
                ],
            }
        )
    )
    code, report = run_json(capsys, "spectrum", str(path))
    assert code == 0
    assert any("duplicate indices" in w for w in report["warnings"])


@pytest.mark.parametrize("command", ["spectrum", "copositive"])
def test_cli_loose_tol_reports_no_warning(capsys, cubic_file, command):
    # the dedup tolerance follows --tol, so a loose tol is not a misconfiguration
    code, report = run_json(capsys, command, cubic_file, "--tol", "1e-7")
    assert code == 0
    assert report["config"]["tol"] == 1e-7
    assert report["warnings"] == []


def test_cli_nonsymmetric_minimize_warning_in_report(capsys, tmp_path):
    path = tmp_path / "grouped.json"
    t, _ = grouped_quartic()
    from paretospec import serialize_document, tensor_to_document

    path.write_text(serialize_document(tensor_to_document(t)))
    code, report = run_json(capsys, "minimize", str(path), "--kind", "h")
    assert code == 0
    assert any("symmetric" in w for w in report["warnings"])
    assert report["results"]["h"]["value"] == pytest.approx(
        (3.0 - np.sqrt(10.0)) / 2.0, abs=1e-8
    )


def test_cli_determinism_byte_identical(capsys, cubic_file):
    _, out1, _ = run_cli(capsys, "spectrum", cubic_file, "--format", "json", "--no-timing")
    _, out2, _ = run_cli(capsys, "spectrum", cubic_file, "--format", "json", "--no-timing")
    assert out1 == out2
    _, txt1, _ = run_cli(capsys, "spectrum", cubic_file, "--no-timing")
    _, txt2, _ = run_cli(capsys, "spectrum", cubic_file, "--no-timing")
    assert txt1 == txt2


def test_cli_timing_present_by_default(capsys, cubic_file):
    code, out, err = run_cli(capsys, "spectrum", cubic_file, "--format", "json")
    report = json.loads(out)
    assert "timing_ms" in report
    assert report["timing_ms"] >= 0.0


def test_cli_text_format_mentions_key_fields(capsys, cubic_file):
    code, out, err = run_cli(capsys, "copositive", cubic_file, "--no-timing")
    assert code == 0
    assert "classification: \"strictly_copositive\"" in out
    assert "min_eigenvalue:" in out


def test_cli_report_key_order_stable(capsys, cubic_file):
    code, report = run_json(capsys, "minimize", cubic_file, "--kind", "h")
    assert list(report) == ["command", "input", "config", "results", "warnings"]
