"""Command-line front end.

Subcommands: spectrum, minimize, copositive, verify, example.  Every run
prints one report (json or text) with a fixed key order: command, input,
config, results, warnings, and a timing field unless --no-timing is given,
so repeated runs with the same arguments produce byte-identical output.

Exit codes: 0 for a successful run (a not_copositive verdict is still a
success), 1 when a verify or example check fails, 2 for usage errors and
malformed input, 3 for internal failures.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings

import numpy as np

from .copositivity import DEFAULT_ZERO_BAND, classify
from .eigen import SolverConfig
from .fixtures import EXAMPLES
from .minimize import grid_lower_bound, minimize
from .spectrum import (
    DEFAULT_SLACK_TOL,
    EmptySpectrumError,
    ParetoSpectrum,
    complement_slacks,
    min_pareto,
    pareto_spectrum,
    verify_pareto_pair,
)
from .tensor import Tensor
from .tensorio import DocumentError, load_document

_KINDS = {"h": ("H",), "z": ("Z",), "both": ("H", "Z")}
_ROUTES = {"h": "H", "z": "Z", "both": "both"}
_EXAMPLE_TOL = 1e-8
_EXAMPLE_SLACK_TOL = 1e-10


def _solver_config(args: argparse.Namespace) -> SolverConfig:
    return SolverConfig(starts=args.starts, tol=args.tol, seed=args.seed)


def _floats(x) -> list[float]:
    return [float(v) for v in np.asarray(x, dtype=np.float64)]


def _tensor_info(t: Tensor, name: str | None) -> dict:
    return {
        "name": name,
        "order": t.order,
        "dim": t.dim,
        "symmetric": bool(t.symmetric),
        "stored_slices": len(t.slices),
    }


def _load(args: argparse.Namespace) -> tuple[Tensor, dict]:
    """The document's tensor and the report's input dict for it."""
    doc = load_document(args.file)
    t = doc.to_tensor()
    return t, {**_tensor_info(t, doc.name), "path": args.file}


def _spectrum_dict(spec: ParetoSpectrum) -> dict:
    items = [
        {
            "value": float(cert.value),
            "subset": [int(i) + 1 for i in cert.subset],
            "vector": _floats(cert.vector),
            "residual": float(cert.pair.residual),
            "slacks": _floats(cert.slacks),
            "boundary": bool(cert.boundary),
        }
        for cert in spec.items
    ]
    return {
        "count": len(items),
        "min_value": None if spec.min_value is None else float(spec.min_value),
        "complete": bool(spec.complete),
        "items": items,
    }


def _cmd_spectrum(args: argparse.Namespace) -> tuple[dict, dict, int]:
    t, info = _load(args)
    cfg = _solver_config(args)
    results = {}
    for kind in _KINDS[args.kind]:
        spec = pareto_spectrum(t, kind, config=cfg, slack_tol=args.slack_tol)
        results[kind.lower()] = _spectrum_dict(spec)
    return info, results, 0


def _cmd_minimize(args: argparse.Namespace) -> tuple[dict, dict, int]:
    t, info = _load(args)
    cfg = _solver_config(args)
    results = {}
    for kind in _KINDS[args.kind]:
        res = minimize(t, kind, config=cfg)
        entry = {
            "value": float(res.value),
            "argmin": _floats(res.argmin),
            "kkt_residual": float(res.kkt_residual),
            "starts_used": int(res.starts_used),
        }
        if args.resolution is not None:
            bound = grid_lower_bound(t, kind, resolution=args.resolution)
            entry["grid_bound"] = float(bound)
            entry["grid_gap"] = float(res.value - bound)
        results[kind.lower()] = entry
    return info, results, 0


def _cmd_copositive(args: argparse.Namespace) -> tuple[dict, dict, int]:
    t, info = _load(args)
    cfg = _solver_config(args)
    verdict = classify(
        t,
        route=_ROUTES[args.kind],
        config=cfg,
        slack_tol=args.slack_tol,
        zero_band=args.zero_band,
    )
    results = {
        "classification": verdict.classification,
        "route": verdict.route,
        "min_eigenvalue": float(verdict.min_eigenvalue),
        "certificate": _floats(verdict.certificate),
        "margin": float(verdict.margin),
        "zero_band": float(verdict.zero_band),
        "notes": list(verdict.notes),
    }
    return info, results, 0


def _parse_vector(text: str) -> np.ndarray:
    parts = [p for p in text.replace(",", " ").split() if p]
    try:
        return np.array([float(p) for p in parts], dtype=np.float64)
    except ValueError:
        raise ValueError(f"--vector must be comma-separated numbers, got {text!r}") from None


def _cmd_verify(args: argparse.Namespace) -> tuple[dict, dict, int]:
    t, info = _load(args)
    y = _parse_vector(args.vector)
    report = verify_pareto_pair(t, args.value, y, _KINDS[args.kind][0], tol=args.tol)
    results = {
        "kind": args.kind,
        "value": float(args.value),
        "vector": _floats(y),
        "ok": bool(report.ok),
        "failed_condition": report.failed_condition,
        "worst_violation": float(report.worst_violation),
        "nonneg_violation": float(report.nonneg_violation),
        "value_violation": float(report.value_violation),
        "slack_violation": float(report.slack_violation),
        "slacks": _floats(report.slacks),
    }
    return info, results, 0 if report.ok else 1


def _check(name: str, expected, got, ok: bool) -> dict:
    return {"name": name, "expected": expected, "got": got, "ok": bool(ok)}


def _match_values(found: list[float], wanted: list[float], tol: float) -> bool:
    if len(found) != len(wanted):
        return False
    return all(abs(f - w) <= tol for f, w in zip(sorted(found), sorted(wanted)))


def _vector_at(spec: ParetoSpectrum, value: float, tol: float) -> np.ndarray | None:
    near = [cert for cert in spec.items if abs(cert.value - value) <= tol]
    return min(near, key=lambda cert: abs(cert.value - value)).vector if near else None


def _checks_grouped_quartic(t: Tensor, expected: dict, cfg: SolverConfig) -> list[dict]:
    checks = []
    for kind in ("H", "Z"):
        spec = pareto_spectrum(t, kind, config=cfg)
        wanted = expected[f"{kind.lower()}_values"]
        got = spec.values()
        checks.append(
            _check(
                f"{kind.lower()}_values",
                wanted,
                sorted(got),
                _match_values(got, wanted, _EXAMPLE_TOL),
            )
        )
        vec_ok = True
        for value, vec in expected[f"{kind.lower()}_vectors"].items():
            found = _vector_at(spec, value, _EXAMPLE_TOL)
            if found is None or np.max(np.abs(found - np.array(vec))) > _EXAMPLE_TOL:
                vec_ok = False
        checks.append(
            _check(f"{kind.lower()}_vectors", "match", "match" if vec_ok else "mismatch", vec_ok)
        )
    return checks


def _checks_shifted_cubic(t: Tensor, expected: dict, cfg: SolverConfig) -> list[dict]:
    checks = []
    present, absent = expected["present_value"], expected["absent_value"]
    for kind in ("H", "Z"):
        spec = pareto_spectrum(t, kind, config=cfg)
        got = spec.values()
        has = any(abs(v - present) <= _EXAMPLE_TOL for v in got)
        checks.append(_check(f"{kind.lower()}_contains_{present:g}", True, has, has))
        hasnt = all(abs(v - absent) > _EXAMPLE_TOL for v in got)
        checks.append(_check(f"{kind.lower()}_excludes_{absent:g}", True, hasnt, hasnt))
    sub = expected["rejected_subset"]
    slack = float(complement_slacks(t, sub, np.ones(len(sub)))[0])
    ok = abs(slack - expected["rejected_slack"]) <= _EXAMPLE_SLACK_TOL
    checks.append(_check("rejected_singleton_slack", expected["rejected_slack"], slack, ok))
    return checks


def _checks_parametric_quartic(t: Tensor, expected: dict, cfg: SolverConfig) -> list[dict]:
    checks = []
    gamma, vec = min_pareto(t, "H", config=cfg)
    ok = abs(gamma - expected["gamma"]) <= _EXAMPLE_TOL
    checks.append(_check("gamma", expected["gamma"], float(gamma), ok))
    if expected["t"] < 0.0:
        want = np.array(expected["interior_vector"])
        vok = bool(np.max(np.abs(vec - want)) <= 1e-6)
        checks.append(_check("interior_vector", _floats(want), _floats(vec), vok))
    verdict = classify(t, route="both", config=cfg)
    if abs(expected["gamma"]) <= DEFAULT_ZERO_BAND:
        want_cls = "copositive_boundary"
    elif expected["gamma"] > 0:
        want_cls = "strictly_copositive"
    else:
        want_cls = "not_copositive"
    cok = verdict.classification == want_cls
    checks.append(_check("classification", want_cls, verdict.classification, cok))
    return checks


def _cmd_example(args: argparse.Namespace) -> tuple[dict, dict, int]:
    if args.t is not None and args.name != "ex4.1":
        raise ValueError("--t only applies to ex4.1")
    cfg = _solver_config(args)
    if args.name == "ex4.1":
        t, expected = EXAMPLES[args.name](0.0 if args.t is None else args.t)
        checks = _checks_parametric_quartic(t, expected, cfg)
    elif args.name == "ex3.1":
        t, expected = EXAMPLES[args.name]()
        checks = _checks_grouped_quartic(t, expected, cfg)
    else:
        t, expected = EXAMPLES[args.name]()
        checks = _checks_shifted_cubic(t, expected, cfg)
    all_ok = all(c["ok"] for c in checks)
    results = {"example": args.name, "checks": checks, "all_ok": all_ok}
    if args.name == "ex4.1":
        results["t"] = float(expected["t"])
    info = _tensor_info(t, args.name)
    return info, results, 0 if all_ok else 1


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "minimize": _cmd_minimize,
    "copositive": _cmd_copositive,
    "verify": _cmd_verify,
    "example": _cmd_example,
}

_CONFIG_KEYS = ("kind", "seed", "starts", "tol", "slack_tol", "zero_band", "resolution")


def _config_echo(args: argparse.Namespace) -> dict:
    return {k: getattr(args, k) for k in _CONFIG_KEYS if hasattr(args, k)}


def _inline(v) -> bool:
    if isinstance(v, dict):
        return not v
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list)) for x in v)
    return True


def _text_lines(obj, indent: int) -> list[str]:
    pad = "  " * indent
    out: list[str] = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            if _inline(v):
                out.append(f"{pad}{k}: {json.dumps(v)}")
            else:
                out.append(f"{pad}{k}:")
                out.extend(_text_lines(v, indent + 1))
    else:
        for item in obj:
            if _inline(item):
                out.append(f"{pad}- {json.dumps(item)}")
            else:
                sub = _text_lines(item, indent + 1)
                out.append(f"{pad}- {sub[0].lstrip()}")
                out.extend(sub[1:])
    return out


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2)
    return "\n".join(_text_lines(report, 0))


def build_parser() -> argparse.ArgumentParser:
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--format", choices=("json", "text"), default="text",
                     help="report format (default text)")
    out.add_argument("--no-timing", action="store_true",
                     help="omit the timing field so identical runs print identical bytes")
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--seed", type=int, default=0, help="multistart seed (default 0)")
    solver.add_argument("--starts", type=int, default=None,
                        help="multistart count per Newton sub-problem, which only those of 3 or more "
                             "indices without a closed form take, and per minimize run "
                             "(default 200 per dimension)")
    solver.add_argument("--tol", type=float, default=1e-10,
                        help="solver residual tolerance; values within max(1e-8, tol) of each "
                             "other count as one root, so the dedup tolerance is never below "
                             "tol (default 1e-10)")

    parser = argparse.ArgumentParser(
        prog="paretospec",
        description="Pareto eigenvalues of tensors: spectra, constrained minima, copositivity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", parents=[out, solver],
                       help="enumerate the Pareto spectrum of a tensor document")
    p.add_argument("file", help="JSON tensor document")
    p.add_argument("--kind", choices=("h", "z", "both"), default="both")
    p.add_argument("--slack-tol", type=float, default=DEFAULT_SLACK_TOL,
                   help="tolerance on complement slacks (default 1e-9)")

    p = sub.add_parser("minimize", parents=[out, solver],
                       help="minimize the tensor form over the nonnegative unit sphere")
    p.add_argument("file", help="JSON tensor document")
    p.add_argument("--kind", choices=("h", "z", "both"), default="both")
    p.add_argument("--resolution", type=int, default=None,
                   help="also report a simplex-grid lower-bound crosscheck")

    p = sub.add_parser("copositive", parents=[out, solver],
                       help="classify copositivity from the Pareto spectrum")
    p.add_argument("file", help="JSON tensor document")
    p.add_argument("--kind", choices=("h", "z", "both"), default="both",
                   help="spectral route (default both, requiring agreement)")
    p.add_argument("--slack-tol", type=float, default=DEFAULT_SLACK_TOL)
    p.add_argument("--zero-band", type=float, default=DEFAULT_ZERO_BAND,
                   help="half-width of the boundary band around zero (default 1e-7)")

    p = sub.add_parser("verify", parents=[out],
                       help="check a claimed Pareto eigenpair against its conditions")
    p.add_argument("file", help="JSON tensor document")
    p.add_argument("--kind", choices=("h", "z"), required=True)
    p.add_argument("--value", type=float, required=True, help="claimed eigenvalue")
    p.add_argument("--vector", required=True,
                   help="claimed eigenvector, comma-separated components")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="verification tolerance (default 1e-8)")

    p = sub.add_parser("example", parents=[out, solver],
                       help="run a built-in example and check its known values")
    p.add_argument("name", choices=sorted(EXAMPLES))
    p.add_argument("--t", type=float, default=None,
                   help="family parameter, ex4.1 only (default 0)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            info, results, code = _COMMANDS[args.command](args)
        except DocumentError as e:
            print(f"paretospec: {e}", file=sys.stderr)
            return 2
        except EmptySpectrumError as e:
            print(f"paretospec: {e}", file=sys.stderr)
            return 3
        except ValueError as e:
            print(f"paretospec: {e}", file=sys.stderr)
            return 2
        except Exception as e:
            print(f"paretospec: internal error: {type(e).__name__}: {e}", file=sys.stderr)
            return 3
    messages: list[str] = []
    for w in caught:
        text = str(w.message)
        if text not in messages:
            messages.append(text)
    report = {
        "command": args.command,
        "input": info,
        "config": _config_echo(args),
        "results": results,
        "warnings": messages,
    }
    if not args.no_timing:
        report["timing_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    print(render_report(report, args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
