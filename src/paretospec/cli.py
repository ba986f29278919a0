"""Command-line front end.

Subcommands: spectrum, minimize, copositive, verify, example, each run by
the handler its subparser names with set_defaults(run=...).  Every run
prints one report (json or text) with a fixed key order: command, input,
config, results, warnings, and a timing field unless --no-timing is given,
so repeated runs with the same arguments produce byte-identical output.
The copositive and verify results carry the fields of CopositivityVerdict
and VerifyReport in declaration order.

Exit codes: 0 for a successful run (a not_copositive verdict is still a
success), 1 when a verify or example check fails, 2 for usage errors and
malformed input, 3 for internal failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time
import warnings

import numpy as np

from .copositivity import DEFAULT_ZERO_BAND, _classify_value, classify
from .eigen import SolverConfig
from .fixtures import EXAMPLES
from .minimize import check_grid, grid_lower_bound, minimize
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
from .tensorio import load_document

_KINDS = {"h": ("H",), "z": ("Z",), "both": ("H", "Z")}
_EXAMPLE_TOL = 1e-8
_EXAMPLE_SLACK_TOL = 1e-10


def _solver_config(args: argparse.Namespace) -> SolverConfig:
    return SolverConfig(starts=args.starts, tol=args.tol, seed=args.seed)


def _floats(x) -> list[float]:
    return [float(v) for v in np.asarray(x, dtype=np.float64)]


def _fields(result) -> dict:
    """A result dataclass's fields in declaration order, arrays as float lists."""
    fields = dataclasses.asdict(result)
    return {k: _floats(v) if isinstance(v, np.ndarray) else v for k, v in fields.items()}


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
    """The spectrum's rows, read off its arrays, with 1-based subsets and the off-support slacks."""
    rows = zip(spec.eigenvalues.tolist(), spec.vectors != 0.0, spec.vectors, spec.residuals.tolist(), spec.slacks,
               spec.boundary.tolist())
    items = [
        {"value": value, "subset": (np.flatnonzero(on) + 1).tolist(), "vector": y.tolist(), "residual": residual,
         "slacks": slacks[~on].tolist(), "boundary": flag}
        for value, on, y, residual, slacks, flag in rows
    ]
    return {"count": len(items), "min_value": spec.min_value, "complete": bool(spec.complete), "items": items}


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
    if args.resolution is not None:
        check_grid(t.dim, args.resolution)  # before any minimization runs
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
        route="both" if args.kind == "both" else args.kind.upper(),
        config=cfg,
        slack_tol=args.slack_tol,
        zero_band=args.zero_band,
    )
    return info, _fields(verdict), 0


def _parse_vector(text: str) -> np.ndarray:
    parts = [p for p in text.replace(",", " ").split() if p]
    try:
        return np.array([float(p) for p in parts], dtype=np.float64)
    except ValueError:
        raise ValueError(f"--vector must be comma-separated numbers, got {text!r}") from None


def _cmd_verify(args: argparse.Namespace) -> tuple[dict, dict, int]:
    t, info = _load(args)
    y = _parse_vector(args.vector)
    report = verify_pareto_pair(t, args.value, y, args.kind.upper(), tol=args.tol)
    results = {"kind": args.kind, "value": float(args.value), "vector": _floats(y), **_fields(report)}
    return info, results, 0 if report.ok else 1


def _check(name: str, expected, got, ok: bool) -> dict:
    return {"name": name, "expected": expected, "got": got, "ok": bool(ok)}


def _match_values(found: list[float], wanted: list[float], tol: float) -> bool:
    if len(found) != len(wanted):
        return False
    return all(abs(f - w) <= tol for f, w in zip(sorted(found), sorted(wanted)))


def _vector_matches(spec: ParetoSpectrum, value: float, want: list[float]) -> bool:
    """Whether the pair nearest `value`, within _EXAMPLE_TOL, has the vector `want`."""
    gap = np.abs(spec.eigenvalues - value)
    near = gap.size and gap.min() <= _EXAMPLE_TOL
    return bool(near and np.abs(spec.vectors[gap.argmin()] - np.array(want)).max() <= _EXAMPLE_TOL)


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
        vectors = expected[f"{kind.lower()}_vectors"].items()
        vec_ok = all(_vector_matches(spec, value, vec) for value, vec in vectors)
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
        vok = _vector_matches(spec, present, expected["present_vector"])
        checks.append(_check(f"{kind.lower()}_vector_at_{present:g}", True, vok, vok))
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
    want_cls = _classify_value(expected["gamma"], DEFAULT_ZERO_BAND)
    cok = verdict.classification == want_cls
    checks.append(_check("classification", want_cls, verdict.classification, cok))
    return checks


_EXAMPLE_CHECKS = {
    "ex3.1": _checks_grouped_quartic,
    "ex3.2": _checks_shifted_cubic,
    "ex4.1": _checks_parametric_quartic,
}


def _cmd_example(args: argparse.Namespace) -> tuple[dict, dict, int]:
    if args.t is not None and args.name != "ex4.1":
        raise ValueError("--t only applies to ex4.1")
    cfg = _solver_config(args)
    t, expected = EXAMPLES[args.name]() if args.t is None else EXAMPLES[args.name](args.t)
    checks = _EXAMPLE_CHECKS[args.name](t, expected, cfg)
    all_ok = all(c["ok"] for c in checks)
    results = {"example": args.name, "checks": checks, "all_ok": all_ok}
    if args.name == "ex4.1":
        results["t"] = float(expected["t"])
    return _tensor_info(t, args.name), results, 0 if all_ok else 1


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; each parse_args call returns a fresh namespace."""
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--format", choices=("json", "text"), default="text",
                     help="report format (default text)")
    out.add_argument("--no-timing", action="store_true",
                     help="omit the timing field so identical runs print identical bytes")
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--seed", type=int, default=0, help="multistart seed (default 0)")
    solver.add_argument("--starts", type=int, default=None,
                        help="multistart count per Newton sub-problem, which only those of 4 or more "
                             "indices without a closed form take, and 3-index ones whose exact solve "
                             "falls short, and per minimize run (default 200 per dimension)")
    solver.add_argument("--tol", type=float, default=1e-10,
                        help="solver residual tolerance, relative to the size of an equation's "
                             "terms where that exceeds 1; values within max(1e-8, tol) of each "
                             "other count as one root, so the dedup tolerance is never below "
                             "tol (default 1e-10)")
    kinds = argparse.ArgumentParser(add_help=False)
    kinds.add_argument("--kind", choices=("h", "z", "both"), default="both",
                       help="H, Z or both (default both; copositive requires the two to agree)")
    document = argparse.ArgumentParser(add_help=False)
    document.add_argument("file", help="JSON tensor document")
    slack = argparse.ArgumentParser(add_help=False)
    slack.add_argument("--slack-tol", type=float, default=DEFAULT_SLACK_TOL,
                       help="tolerance on complement slacks (default 1e-9)")

    parser = argparse.ArgumentParser(
        prog="paretospec",
        description="Pareto eigenvalues of tensors: spectra, constrained minima, copositivity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", parents=[document, kinds, out, solver, slack],
                       help="enumerate the Pareto spectrum of a tensor document")
    p.set_defaults(run=_cmd_spectrum)

    p = sub.add_parser("minimize", parents=[document, kinds, out, solver],
                       help="minimize the tensor form over the nonnegative unit sphere")
    p.set_defaults(run=_cmd_minimize)
    p.add_argument("--resolution", type=int, default=None,
                   help="also report the smallest value over a simplex grid of this "
                        "resolution, an upper bound on the minimum")

    p = sub.add_parser("copositive", parents=[document, kinds, out, solver, slack],
                       help="classify copositivity from the Pareto spectrum")
    p.set_defaults(run=_cmd_copositive)
    p.add_argument("--zero-band", type=float, default=DEFAULT_ZERO_BAND,
                   help="half-width of the boundary band around zero (default 1e-7)")

    p = sub.add_parser("verify", parents=[document, out],
                       help="check a claimed Pareto eigenpair against its conditions")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("--kind", choices=("h", "z"), required=True)
    p.add_argument("--value", type=float, required=True, help="claimed eigenvalue")
    p.add_argument("--vector", required=True,
                   help="claimed eigenvector, comma-separated components")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="verification tolerance (default 1e-8)")

    p = sub.add_parser("example", parents=[out, solver],
                       help="run a built-in example and check its known values")
    p.set_defaults(run=_cmd_example)
    p.add_argument("name", choices=sorted(EXAMPLES))
    p.add_argument("--t", type=float, default=None,
                   help="family parameter, ex4.1 only (default 0)")
    return parser


def _attach_negative_values(argv: list[str]) -> list[str]:
    """argv with `--option -X` joined into `--option=-X` where X reads as numbers.

    argparse takes a token that starts with '-' for an option unless it is a
    plain negative decimal, so `--t -1e-3` or `--value -inf` would lose the value.
    """
    out: list[str] = []
    for tok in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and len(prev) > 2 and "=" not in prev and tok.startswith("-") and _numbers(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _numbers(text: str) -> bool:
    try:
        _parse_vector(text)
    except ValueError:
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    started = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            info, results, code = args.run(args)
        except EmptySpectrumError as e:
            print(f"paretospec: {e}", file=sys.stderr)
            return 3
        except ValueError as e:
            print(f"paretospec: {e}", file=sys.stderr)
            return 2
        except Exception as e:
            print(f"paretospec: internal error: {type(e).__name__}: {e}", file=sys.stderr)
            return 3
    report = {
        "command": args.command,
        "input": info,
        "config": _config_echo(args),
        "results": results,
        "warnings": list(dict.fromkeys(str(w.message) for w in caught)),
    }
    if not args.no_timing:
        report["timing_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    print(render_report(report, args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
