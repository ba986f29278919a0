"""paretospec benchmark runner.

    python3 bench/run.py --workload spectra|subsets|copositivity --seed N \
        --seconds S --trace 0|1 [--spans FILE]

Run from the repository root; the package is imported from ./src and from
nowhere else, so a directory without it fails with a nonzero exit code.

--trace 0 (end to end): set-up is timed in fresh child processes (the median
of several, run between the passes), one warm-up item runs untimed, then
whole passes over the workload's items repeat until the next one would pass
--seconds.  Every output is checked after its pass, outside the timed region.

Times are reported at reference speed.  The shared host's speed swings by
up to 1.5x over tens of seconds as other work loads it, and a run is too
short to average that out.  So a fixed reference kernel (small-matrix numpy
calls and interpreter work, the mix of the solvers' inner loops) is timed
before every item, and each item and pass time is multiplied by
REF_S / mean(reference time) of the run: a time is what it would be on a host
where the kernel takes REF_S.  On a 2-core Xeon VM the kernel takes
0.9-1.7 ms, and over 30 s windows the scaled times vary half as much as the
raw ones.  Set-up (process start, imports, file reads) does not follow the
kernel, so setup_s stays as measured.  The raw times and the scale are in
the details line.

--trace 1 (per layer): one untraced pass, then one pass with every traced
function wrapped (see tracing.py).  The per-layer numbers come from the
traced pass; trace.overhead_frac compares its wall time with the untraced
one.  --spans writes the raw spans as JSON lines.

The last line of standard output is the result object; the line before it
holds machine facts and the details of the run, including the end-to-end
metrics that can be zero (fail_frac, complete_frac) and so are not in the
result.
"""

from __future__ import annotations

import os

# One thread for BLAS and OpenMP, set before numpy loads in this process and
# inherited by the set-up children.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".bench_work"
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 60
REF_S = 1e-3
_REF_RNG = np.random.default_rng(0)
_REF_A = _REF_RNG.standard_normal((8, 8))
_REF_V = _REF_RNG.standard_normal(8)


def reference_seconds() -> float:
    """Time one run of the host-speed reference kernel."""
    t0 = time.perf_counter()
    x, acc = _REF_V.copy(), 0.0
    for _ in range(150):
        x = _REF_A @ x
        x /= np.linalg.norm(x)
        acc += float(x.max()) + sum(range(40))
    return time.perf_counter() - t0


def import_package():
    """Import paretospec from ROOT/src only; exit nonzero when it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import paretospec
    except ImportError as e:
        sys.exit(f"bench: cannot import paretospec from {src}: {e}")
    if not Path(paretospec.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"bench: paretospec resolved to {paretospec.__file__}, not under {src}")
    return paretospec


def setup_workload(name: str, seed: int):
    """Build the workload's inputs in a fresh directory under WORK_ROOT."""
    import workloads

    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=WORK_ROOT)
    return workloads.build_workload(name, seed, work_dir), work_dir


def child_setup(args) -> None:
    """Set-up probe: report the seconds since the parent spawned this process."""
    import_package()
    _, work_dir = setup_workload(args.workload, args.seed)
    ready = time.time() - args.spawned_at
    shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({"setup_s": ready}))


def measure_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh set-up process until its inputs are ready."""
    argv = [sys.executable, __file__, "--setup-child", "--workload", workload,
            "--seed", str(seed), "--spawned-at", repr(time.time())]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit(f"bench: set-up child failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_pass(items, ref_times: list[float] | None = None) -> tuple[float, list[float], list]:
    """Run every item once; pass seconds, per-item seconds and outputs.

    An exception stands in for a failed output.  With ref_times, the
    reference kernel runs before each item, untimed in the pass, and its
    times are appended there.
    """
    times, outputs = [], []
    for item in items:
        if ref_times is not None:
            ref_times.append(reference_seconds())
        t0 = time.perf_counter()
        try:
            out = item.run()
        except Exception as e:  # an item that raises is counted as failed
            out = e
        times.append(time.perf_counter() - t0)
        outputs.append(out)
    return sum(times), times, outputs


def check_pass(items, outputs):
    """Outcome per item; raised exceptions and failed checks become failing outcomes."""
    from workloads import Outcome

    results = []
    for item, out in zip(items, outputs):
        if isinstance(out, Exception):
            results.append(Outcome(False, f"raised {type(out).__name__}: {out}"))
            continue
        try:
            results.append(item.check(out))
        except Exception as e:  # a check that cannot read the output fails the item
            results.append(Outcome(False, f"check raised {type(e).__name__}: {e}"))
    return results


def tail(values: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with at least ten values above it.

    Returns (value, percentile, values beyond); needs more than ten values.
    """
    ordered = sorted(values)
    rank = len(ordered) - 10
    if rank < 1:
        raise ValueError(f"a tail needs more than 10 items, got {len(ordered)}")
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def machine_facts() -> dict:
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, workload) -> tuple[dict, dict]:
    setup_times, ref_times = [], []
    items = workload.items
    run_pass(items[:1], [])  # warm-up, untimed

    passes, per_item, outcomes = [], [[] for _ in items], []
    while True:
        wall, times, outputs = run_pass(items, ref_times)
        passes.append(wall)
        for acc, t in zip(per_item, times):
            acc.append(t)
        outcomes.append(check_pass(items, outputs))
        del outputs  # one pass's outputs alive at a time, so peak_rss_mb does not grow with passes
        # set-up runs between passes, so that it meets the same host load as they do
        if len(setup_times) < SETUP_REPEATS:
            setup_times.append(measure_setup(args.workload, args.seed))
        if sum(passes) + statistics.median(passes) > args.seconds:
            break
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(measure_setup(args.workload, args.seed))

    scale = REF_S / statistics.mean(ref_times)
    item_ms = [1000.0 * scale * statistics.mean(ts) for ts in per_item]
    tail_ms, tail_pct, beyond = tail(item_ms)
    first = outcomes[0]
    attempted = sum(len(o) for o in outcomes)
    failed = sum(not r.ok for o in outcomes for r in o)
    spectra = sum(r.spectra for r in first)
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "wall_s": metric(scale * statistics.mean(passes), "s"),
        "item_p50_ms": metric(statistics.median(item_ms), "ms"),
        "item_tail_ms": metric(tail_ms, "ms"),
        "pairs_verified": metric(sum(r.pairs_verified for r in first), "count"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {
        "fail_frac": metric(failed / attempted, "ratio"),
        "complete_frac": metric(sum(r.complete for r in first) / spectra, "ratio") if spectra else None,
        "item_tail_percentile": tail_pct,
        "items_beyond_tail": beyond,
        "items": len(items),
        "passes": len(passes),
        "scale": scale,
        "reference_mean_ms": 1000.0 * statistics.mean(ref_times),
        "reference_runs": len(ref_times),
        "raw_wall_s": statistics.mean(passes),
        "raw_item_p50_ms": 1000.0 * statistics.median(statistics.mean(ts) for ts in per_item),
        "pass_s": passes,
        "setup_runs_s": setup_times,
        "failures": sorted({f"{item.name}: {r.problem}" for o in outcomes
                            for item, r in zip(items, o) if not r.ok}),
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, details


def per_layer(args, workload, tracer) -> tuple[dict, dict]:
    import tracing

    items = workload.items
    run_pass(items[:1])  # warm-up, untimed
    untraced, _, _ = run_pass(items)

    tracer.install()
    tracer.phase = "pass"
    traced, _, outputs = run_pass(items)
    tracer.phase = "check"
    results = check_pass(items, outputs)
    tracer.uninstall()
    if args.spans:
        tracer.dump(args.spans)

    layers = tracing.layer_metrics(tracer.spans)
    layers["trace.overhead_frac"] = traced / untraced - 1.0
    units = {"calls": "count", "rows": "count", "pairs": "count", "self_s": "s"}
    metrics = {k: metric(v, units.get(k.rsplit(".", 1)[1], "ratio")) for k, v in layers.items()}
    failed = sum(not r.ok for r in results)
    details = {
        "wall_untraced_s": untraced,
        "wall_traced_s": traced,
        "spans": len(tracer.spans),
        "failures": [f"{item.name}: {r.problem}" for item, r in zip(items, results) if not r.ok],
    }
    return {"attempted": len(results), "failed": failed, "metrics": metrics}, details


def main() -> None:
    parser = argparse.ArgumentParser(description="paretospec benchmark")
    parser.add_argument("--workload", required=True, choices=("spectra", "subsets", "copositivity"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="with --trace 1, write the raw spans here as JSON lines")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_child:
        child_setup(args)
        return

    import_package()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    workload, work_dir = setup_workload(args.workload, args.seed)
    if tracer is not None:
        tracer.uninstall()
    try:
        if tracer is None:
            result, details = end_to_end(args, workload)
        else:
            result, details = per_layer(args, workload, tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run still has its directory there
            pass
    details.update(workload=args.workload, seed=args.seed, trace=args.trace,
                   inputs=workload.facts, machine=machine_facts())
    print(json.dumps(details))
    print(json.dumps({"correct": result["failed"] == 0, **result}))


if __name__ == "__main__":
    main()
