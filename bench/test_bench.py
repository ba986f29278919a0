"""Checks on the benchmark itself: counts repeat for a fixed seed, tracing restores what it patched.

Run from the repository root with ``python3 -m pytest bench -q``.  Each
workload is cut to its first few items to keep the test short.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import paretospec  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ITEMS = 4
SEED = 3


def traced_counts(name: str, work_dir: Path) -> dict:
    """Count and ratio metrics of a traced pass over the first items, plus the checks' tallies."""
    work_dir.mkdir()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        items = workloads.build_workload(name, SEED, str(work_dir)).items[:ITEMS]
        tracer.phase = "pass"
        outputs = [item.run() for item in items]
        tracer.phase = "check"
        outcomes = [item.check(out) for item, out in zip(items, outputs)]
    finally:
        tracer.uninstall()
    assert all(o.ok for o in outcomes), [o.problem for o in outcomes if not o.ok]
    counts = {k: v for k, v in tracing.layer_metrics(tracer.spans).items() if not k.endswith("self_s")}
    counts["pairs_verified"] = sum(o.pairs_verified for o in outcomes)
    counts["complete"] = sum(o.complete for o in outcomes)
    return counts


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_counts_repeat_for_a_fixed_seed(name, tmp_path):
    first = traced_counts(name, tmp_path / "a")
    second = traced_counts(name, tmp_path / "b")
    assert first == second
    assert first["spectrum.pareto_spectrum.calls"] > 0


def test_inputs_repeat_for_a_fixed_seed(tmp_path):
    a, b, c = (workloads.build_workload("spectra", seed, str(tmp_path)).items[0].run().values()
               for seed in (SEED, SEED, SEED + 1))
    assert a == b
    assert a != c


def test_tracer_patches_every_lookup_site_and_restores_it():
    original = tracing.spectrum.solve_interior
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracing.spectrum.solve_interior is tracing.eigen.solve_interior
        assert tracing.spectrum.solve_interior is not original
        assert paretospec.solve_interior is tracing.eigen.solve_interior
        assert tracing.cli.minimize is tracing.minimize.minimize is paretospec.minimize
    finally:
        tracer.uninstall()
    assert tracing.spectrum.solve_interior is original
    assert tracing.eigen.solve_interior is original
