"""Span tracing of paretospec's public functions, from outside the package.

``Tracer.install()`` replaces each traced function with a wrapper in every
paretospec module that holds it under its own name (``spectrum`` and ``cli``
import ``solve_interior``, ``pareto_spectrum``, ``classify`` and ``minimize``
by name, so patching only the defining module would miss those calls).
Tensor methods are patched on the class.  Spans stay in memory as tuples

    (name, parent index, start, end, phase, attribute)

and are aggregated at the end: a span's self time is its duration minus the
durations of its direct children, which nest strictly on one thread.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# Submodules by import: the package re-exports functions named like its
# modules (paretospec.minimize is the function), so attribute access won't do.
cli, copositivity, eigen, minimize, spectrum, tensor, tensorio = (
    importlib.import_module(f"paretospec.{name}")
    for name in ("cli", "copositivity", "eigen", "minimize", "spectrum", "tensor", "tensorio")
)

NAME, PARENT, START, END, PHASE, ATTR = range(6)


def _rows(args, kwargs, result):
    return int(args[1].shape[0])


def _route(t) -> str:
    """The solve_interior dispatch, judged from its argument."""
    if t.dim == 1:
        return "dim1"
    if t.order == 2:
        return "matrix"
    if t.is_diagonal():
        return "diagonal"
    return "newton"


def _solve_attr(args, kwargs, result):
    return (_route(args[0]), len(result))


def _spectrum_attr(args, kwargs, result):
    return (len(result.items), bool(result.complete))


# (layer name, defining module, attribute, attribute recorder)
FUNCTIONS = (
    ("tensor.build", tensor, "build", None),
    ("eigen.solve_interior", eigen, "solve_interior", _solve_attr),
    ("spectrum.pareto_spectrum", spectrum, "pareto_spectrum", _spectrum_attr),
    ("spectrum.complement_slacks", spectrum, "complement_slacks", None),
    ("spectrum.verify_pareto_pair", spectrum, "verify_pareto_pair", None),
    ("minimize.minimize", minimize, "minimize", None),
    ("minimize.grid_lower_bound", minimize, "grid_lower_bound", None),
    ("copositivity.classify", copositivity, "classify", None),
    ("tensorio.load_document", tensorio, "load_document", None),
    ("cli.main", cli, "main", None),
)
METHODS = (
    ("tensor.contract_batch", "contract_batch", _rows),
    ("tensor.contract_jacobian_batch", "contract_jacobian_batch", _rows),
    ("tensor.contract_magnitude_batch", "contract_magnitude_batch", _rows),
    ("tensor.principal_subtensor", "principal_subtensor", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, attr):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                value = attr(args, kwargs, result) if attr is not None and result is not None else None
                spans[sid] = (name, parent, start, end, self.phase, value)

        return traced

    def _patch(self, owner, attr_name: str, new) -> None:
        self._undo.append((owner, attr_name, getattr(owner, attr_name)))
        setattr(owner, attr_name, new)

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "paretospec" or key.startswith("paretospec.")]
        for name, module, attr_name, attr in FUNCTIONS:
            original = getattr(module, attr_name)
            wrapped = self._wrap(name, original, attr)
            for mod in modules:
                if getattr(mod, attr_name, None) is original:
                    self._patch(mod, attr_name, wrapped)
        for name, attr_name, attr in METHODS:
            self._patch(tensor.Tensor, attr_name, self._wrap(name, getattr(tensor.Tensor, attr_name), attr))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr_name, original = self._undo.pop()
            setattr(owner, attr_name, original)

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines, one per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ancestor(spans, sid: int, name: str) -> int:
    """Index of the nearest enclosing span called `name`, or -1."""
    p = spans[sid][PARENT]
    while p >= 0 and spans[p][NAME] != name:
        p = spans[p][PARENT]
    return p


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer counts, self times and ratios.

    The solve phase (the traced pass) gives every metric except
    tensor.build.self_s, taken from set-up, and verify_pareto_pair, which
    only the benchmark's own checks call.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    calls: dict[tuple[str, str], int] = defaultdict(int)
    self_s: dict[tuple[str, str], float] = defaultdict(float)
    rows: dict[str, int] = defaultdict(int)
    for sid, s in enumerate(spans):
        key = (s[PHASE], s[NAME])
        calls[key] += 1
        self_s[key] += s[END] - s[START] - child[sid]
        if s[PHASE] == "pass" and s[NAME].startswith("tensor.contract"):
            rows[s[NAME]] += s[ATTR]

    solves = [s for s in spans if s[PHASE] == "pass" and s[NAME] == "eigen.solve_interior" and s[ATTR]]
    newton = {sid for sid, s in enumerate(spans)
              if s[PHASE] == "pass" and s[NAME] == "eigen.solve_interior" and s[ATTR] and s[ATTR][0] == "newton"}
    newton_contracts = sum(
        1 for sid, s in enumerate(spans)
        if s[PHASE] == "pass" and s[NAME] == "tensor.contract_batch"
        and _ancestor(spans, sid, "eigen.solve_interior") in newton
    )
    specs = [s for s in spans if s[PHASE] == "pass" and s[NAME] == "spectrum.pareto_spectrum" and s[ATTR]]
    classified_specs = sum(
        1 for sid, s in enumerate(spans)
        if s[PHASE] == "pass" and s[NAME] == "spectrum.pareto_spectrum"
        and _ancestor(spans, sid, "copositivity.classify") >= 0
    )

    def c(name):
        return calls[("pass", name)]

    def t(name, phase="pass"):
        return self_s[(phase, name)]

    return {
        "tensor.contract_batch.calls": c("tensor.contract_batch"),
        "tensor.contract_batch.rows": rows["tensor.contract_batch"],
        "tensor.contract_batch.self_s": t("tensor.contract_batch"),
        "tensor.contract_jacobian_batch.calls": c("tensor.contract_jacobian_batch"),
        "tensor.contract_jacobian_batch.rows": rows["tensor.contract_jacobian_batch"],
        "tensor.contract_jacobian_batch.self_s": t("tensor.contract_jacobian_batch"),
        "tensor.contract_magnitude_batch.self_s": t("tensor.contract_magnitude_batch"),
        "tensor.principal_subtensor.calls": c("tensor.principal_subtensor"),
        "tensor.principal_subtensor.self_s": t("tensor.principal_subtensor"),
        "tensor.build.self_s": t("tensor.build", "setup"),
        "eigen.solve_interior.calls": c("eigen.solve_interior"),
        "eigen.solve_interior.pairs": sum(s[ATTR][1] for s in solves),
        "eigen.solve_interior.self_s": t("eigen.solve_interior"),
        "eigen.newton_share": _ratio(len(newton), c("eigen.solve_interior")),
        "eigen.contract_calls_per_newton_solve": _ratio(newton_contracts, len(newton)),
        "spectrum.pareto_spectrum.calls": c("spectrum.pareto_spectrum"),
        "spectrum.pareto_spectrum.self_s": t("spectrum.pareto_spectrum"),
        "spectrum.complement_slacks.calls": c("spectrum.complement_slacks"),
        "spectrum.complement_slacks.self_s": t("spectrum.complement_slacks"),
        "spectrum.admit_ratio": _ratio(sum(s[ATTR][0] for s in specs), sum(s[ATTR][1] for s in solves)),
        "spectrum.complete_frac": _ratio(sum(s[ATTR][1] for s in specs), len(specs)),
        "spectrum.verify_pareto_pair.self_s": t("spectrum.verify_pareto_pair", "check"),
        "minimize.minimize.calls": c("minimize.minimize"),
        "minimize.minimize.self_s": t("minimize.minimize"),
        "minimize.grid_lower_bound.self_s": t("minimize.grid_lower_bound"),
        "copositivity.classify.calls": c("copositivity.classify"),
        "copositivity.classify.self_s": t("copositivity.classify"),
        "copositivity.spectra_per_classify": _ratio(classified_specs, c("copositivity.classify")),
        "tensorio.load_document.self_s": t("tensorio.load_document"),
        "cli.main.calls": c("cli.main"),
        "cli.main.self_s": t("cli.main"),
    }
