"""Benchmark inputs, the work done on each, and the checks on its output.

A workload is a fixed list of items built from a seed.  An item is one timed
unit of work: ``run`` calls the public paretospec API (or ``paretospec.cli.main``
in-process) and returns its raw output, and ``check`` judges that output
against an independent oracle outside the timed region.

Every call goes through a module attribute looked up at call time
(``paretospec.pareto_spectrum``, ``cli.main``), so the traced run sees the
wrappers it installs.

The composition of each workload (orders, dimensions, counts) is fixed; the
seed draws only the coefficients, sign positions and shifts.  That keeps the
cost of a pass comparable across seeds, which the run-to-run spread needs.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import paretospec
from paretospec import cli

KINDS = ("H", "Z")
VERIFY_TOL = 1e-8
# Value-set tolerance of the matrix oracle, as in acceptance criterion 7.
MATRIX_TOL = 1e-8
# Diagonal H values are copied from the input; the closed-form Z values go
# through renormalization and a Newton polish.
DIAG_H_TOL = 1e-12
DIAG_Z_RTOL = 1e-9
# Spectral minimum against the minimized value, and the grid bound below it.
MIN_GAP_TOL = 1e-6
GRID_SLACK = 1e-9
GRID_RESOLUTION = 64

# (order, dim, tensors); every tensor runs H and Z.  Dimension 5 is left out:
# one order-4, n=5 spectrum takes 6-12 s, half a run on its own.
SPECTRA_LADDER = ((3, 2, 2), (4, 2, 2), (3, 3, 24), (4, 3, 24), (3, 4, 1))
# Matrix dimensions, then (order, dim, negatives) of the diagonal tensors.
# The set is short (about 4.5 s at reference speed) so that it repeats
# several times per run.  n = 9 appears all positive and with four entries
# negative for every order; at n = 10 the mixed-sign inputs (four or five
# negative) are cheap, and one all-positive input brings the 1023-item dedup.  Item costs fall in
# clusters; these counts put the median item inside the n = 10 H cluster and
# the tail item (ten items beyond it) inside the n = 10 mixed Z cluster,
# away from the gaps between clusters.
SUBSETS_MATRICES = (9, 10)
SUBSETS_DIAGONALS = (
    *((order, 9, neg) for order in (3, 4, 5) for neg in (0, 4)),
    *((order, 10, neg) for order in (3, 4, 5) for neg in (4, 5)),
    (4, 10, 0),
)
# (order, dim, documents) of dense random documents, alternating strictly
# copositive / not.  They make most of the items, so the median and tail
# items fall among them.  They stop at n = 2: a dense n = 3 document costs
# 0.4-1.3 s and an n = 4 one 2-3 s, depending on the random tensor, so a few
# of them would set wall_s.
COPOSITIVITY_LADDER = ((3, 2, 12), (4, 2, 12))
# (order, dim) of diagonal documents, each once strictly copositive and once
# not.  Their spectra take the closed form, so their cost hardly depends on
# the seed, and they bring the three- and four-dimensional grid check and
# minimizer.
COPOSITIVITY_DIAGONALS = tuple(itertools.product((3, 4), (3, 4)))
# The ex4.1 family x1^4 + x2^4 + 4 t x1^3 x2 at the five points of criterion 3.
SWEEP_T = (-1.0, -(27.0**-0.25), -0.5 * 27.0**-0.25, 0.0, 1.0)
EXAMPLES = ("ex3.1", "ex3.2", "ex4.1")


@dataclass
class Outcome:
    """Result of checking one item's output."""

    ok: bool
    problem: str = ""
    pairs_verified: int = 0
    spectra: int = 0
    complete: int = 0


@dataclass
class Item:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


@dataclass
class Workload:
    items: list[Item]
    # input properties reported beside the results
    facts: dict


# -------------------------------------------------------------- generators


def random_symmetric(rng: np.random.Generator, order: int, dim: int) -> paretospec.Tensor:
    """Independent uniform[-1, 1] coefficient per index multiset, symmetrized."""
    entries = [
        (key, float(rng.uniform(-1.0, 1.0)))
        for key in itertools.combinations_with_replacement(range(dim), order)
    ]
    return paretospec.build(order, dim, entries, symmetrize=True)


def random_matrix(rng: np.random.Generator, dim: int) -> tuple[np.ndarray, paretospec.Tensor]:
    raw = rng.uniform(-1.0, 1.0, size=(dim, dim))
    mat = (raw + raw.T) / 2.0
    entries = [((a, b), float(mat[a, b])) for a in range(dim) for b in range(dim)]
    return mat, paretospec.build(2, dim, entries)


def random_diagonal(rng: np.random.Generator, order: int, dim: int, negatives: int):
    """Diagonal entries with magnitudes in [0.5, 2] and `negatives` of them negative."""
    d = rng.uniform(0.5, 2.0, size=dim)
    d[rng.permutation(dim)[:negatives]] *= -1.0
    entries = [((i,) * order, float(d[i])) for i in range(dim)]
    return d, paretospec.build(order, dim, entries)


# ----------------------------------------------------------------- oracles


def verify_pairs(t: paretospec.Tensor, spec) -> tuple[int, str]:
    """Replay every emitted pair through verify_pareto_pair; count the passes."""
    good = 0
    first_bad = ""
    for cert in spec.items:
        report = paretospec.verify_pareto_pair(t, cert.value, cert.vector, spec.kind, tol=VERIFY_TOL)
        if report.ok:
            good += 1
        elif not first_bad:
            first_bad = f"pair {cert.value:.10g} on {cert.subset} fails {report.failed_condition}"
    return good, first_bad


def _value_set(vals, tol: float) -> list[float]:
    out: list[float] = []
    for v in sorted(float(v) for v in vals):
        if not out or v - out[-1] > tol:
            out.append(v)
    return out


def matrix_oracle_values(mat: np.ndarray) -> list[float]:
    """Pareto values of a symmetric matrix from principal submatrices and eigh.

    Keeps classical eigenpairs whose eigenvector is strictly positive after
    sign normalization and whose zero-filled embedding has nonnegative
    residual rows off the subset (the rule of acceptance criterion 7).
    """
    n = mat.shape[0]
    vals = []
    for card in range(1, n + 1):
        for subset in itertools.combinations(range(n), card):
            lam, vecs = np.linalg.eigh(mat[np.ix_(subset, subset)])
            comp = [i for i in range(n) if i not in subset]
            for j in range(card):
                v = vecs[:, j].copy()
                if v[int(np.argmax(np.abs(v)))] < 0.0:
                    v = -v
                if float(v.min()) <= 1e-8:
                    continue
                if comp:
                    y = np.zeros(n)
                    y[list(subset)] = v
                    if float((mat @ y)[comp].min()) < -1e-9:
                        continue
                vals.append(float(lam[j]))
    return vals


def diagonal_z_oracle(d: np.ndarray, order: int) -> dict[tuple[int, ...], float]:
    """Exact Pareto Z-spectrum of diag(d): one value per same-sign subset.

    sign * (sum_{i in S} |d_i|^(-2/(m-2)))^(-(m-2)/2); mixed-sign subsets
    contribute nothing.  Entries are nonzero by construction.
    """
    m = order
    out = {}
    for card in range(1, d.size + 1):
        for subset in itertools.combinations(range(d.size), card):
            sub = d[list(subset)]
            if np.all(sub > 0) or np.all(sub < 0):
                total = float(np.sum(np.abs(sub) ** (-2.0 / (m - 2))))
                out[subset] = float(np.sign(sub[0])) * total ** (-(m - 2) / 2.0)
    return out


# ------------------------------------------------------------- spectra


def _spectrum_item(name: str, t: paretospec.Tensor, kind: str, oracle=None) -> Item:
    def run():
        return paretospec.pareto_spectrum(t, kind)

    def check(spec) -> Outcome:
        good, bad = verify_pairs(t, spec)
        out = Outcome(ok=True, pairs_verified=good, spectra=1, complete=int(spec.complete))
        if bad:
            out.ok, out.problem = False, bad
        elif not spec.items:
            out.ok, out.problem = False, "empty spectrum"
        elif oracle is not None:
            problem = oracle(spec)
            if problem:
                out.ok, out.problem = False, problem
        return out

    return Item(f"{name}:{kind}", run, check)


def spectra_workload(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    items = []
    for order, dim, count in SPECTRA_LADDER:
        for i in range(count):
            t = random_symmetric(rng, order, dim)
            items.extend(_spectrum_item(f"m{order}n{dim}#{i}", t, kind) for kind in KINDS)
    return Workload(items, {"tensors": len(items) // 2})


def _matrix_oracle(mat: np.ndarray):
    # oracles are computed on first use, outside set-up
    expected = functools.cache(lambda: _value_set(matrix_oracle_values(mat), MATRIX_TOL))

    def oracle(spec) -> str:
        want = expected()
        got = _value_set(spec.values(), MATRIX_TOL)
        if len(got) != len(want) or any(abs(g - w) > MATRIX_TOL for g, w in zip(got, want)):
            return f"values {got} differ from the eigh oracle {want}"
        return ""

    return oracle


def _diagonal_h_oracle(d: np.ndarray):
    def oracle(spec) -> str:
        if len(spec.items) != d.size:
            return f"{len(spec.items)} values for {d.size} diagonal entries"
        for cert in spec.items:
            if len(cert.subset) != 1:
                return f"pair on subset {cert.subset}, wanted singletons only"
            i = cert.subset[0]
            basis = np.zeros(d.size)
            basis[i] = 1.0
            if abs(cert.value - d[i]) > DIAG_H_TOL or np.abs(cert.vector - basis).max() > DIAG_H_TOL:
                return f"pair on {cert.subset} is not (d_i, e_i)"
        return ""

    return oracle


def _diagonal_z_oracle(d: np.ndarray, order: int):
    expected = functools.cache(lambda: diagonal_z_oracle(d, order))

    def oracle(spec) -> str:
        want = expected()
        got = {cert.subset: cert.value for cert in spec.items}
        if len(got) != len(spec.items) or set(got) != set(want):
            return f"{len(spec.items)} pairs on {len(got)} subsets, oracle has {len(want)} subsets"
        for subset, value in want.items():
            if abs(got[subset] - value) > DIAG_Z_RTOL * max(1.0, abs(value)):
                return f"subset {subset}: {got[subset]!r} vs closed form {value!r}"
        return ""

    return oracle


def subsets_workload(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    items = []
    for dim in SUBSETS_MATRICES:
        mat, t = random_matrix(rng, dim)
        oracle = _matrix_oracle(mat)
        items.extend(_spectrum_item(f"matrix-n{dim}", t, kind, oracle) for kind in KINDS)
    for order, dim, negatives in SUBSETS_DIAGONALS:
        d, t = random_diagonal(rng, order, dim, negatives)
        name = f"diag-m{order}n{dim}-{negatives}neg"
        items.append(_spectrum_item(name, t, "H", _diagonal_h_oracle(d)))
        items.append(_spectrum_item(name, t, "Z", _diagonal_z_oracle(d, order)))
    return Workload(items, {"inputs": len(items) // 2})


# --------------------------------------------------------- copositivity


def run_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main in-process; its exit code and captured standard output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _report(output: tuple[int, str]) -> dict | None:
    """The JSON report of a run that exited 0, else None."""
    code, text = output
    return json.loads(text) if code == 0 and text.strip() else None


def _row_sums(t: paretospec.Tensor) -> np.ndarray:
    """sum_{i2..im} |a_{i i2..im}| per row; one slice holds all orderings of its trailing indices."""
    sums = np.zeros(t.dim)
    for (lead, _), v in t.slices.items():
        sums[lead] += abs(v)
    return sums


def known_class_coefficients(rng: np.random.Generator, order: int, dim: int, strict: bool):
    """Multiset coefficients of a symmetric tensor whose class is known.

    strict: add s * (diagonal identity) with s above the largest absolute
    row sum, which shifts every H-value by s and lifts the H-minimum above
    s - max row sum > 0.  Otherwise one diagonal entry is set to a value
    in [-1, -0.5], so a coordinate vector is a negative witness.
    """
    keys = list(itertools.combinations_with_replacement(range(dim), order))
    coef = {k: float(rng.uniform(-1.0, 1.0)) for k in keys}
    if strict:
        t = paretospec.build(order, dim, list(coef.items()), symmetrize=True)
        s = float(_row_sums(t).max() + rng.uniform(0.1, 0.5))
        for i in range(dim):
            coef[(i,) * order] += s
        return coef, "strictly_copositive"
    i = int(rng.integers(dim))
    coef[(i,) * order] = -float(rng.uniform(0.5, 1.0))
    return coef, "not_copositive"


def known_class_diagonal(rng: np.random.Generator, order: int, dim: int, strict: bool):
    """Multiset coefficients of a diagonal tensor whose class is known.

    Entries in [0.5, 2]; when not strict, one of them is set to a value in
    [-1, -0.5], so its coordinate vector is a negative witness.
    """
    d = rng.uniform(0.5, 2.0, size=dim)
    if not strict:
        d[int(rng.integers(dim))] = -float(rng.uniform(0.5, 1.0))
    coef = {(i,) * order: float(d[i]) for i in range(dim)}
    return coef, "strictly_copositive" if strict else "not_copositive"


def document_text(name: str, order: int, dim: int, coef: dict) -> str:
    doc = paretospec.TensorDocument(
        order=order,
        dim=dim,
        entries=tuple((tuple(i + 1 for i in k), v) for k, v in coef.items()),
        symmetric=True,
        name=name,
    )
    return paretospec.serialize_document(doc)


def _per_kind_minima(notes: list[str]) -> dict[str, float]:
    """Per-kind spectral minima from the verdict notes ("H: min Pareto eigenvalue v")."""
    out = {}
    for note in notes:
        head, sep, tail = note.partition(": min Pareto eigenvalue ")
        if sep:
            out[head] = float(tail)
    return out


def _verdict_item(name: str, path: str, t: paretospec.Tensor, want: str, gamma: float | None) -> Item:
    def run():
        common = ["--kind", "both", "--format", "json", "--no-timing"]
        verdict = run_cli(["copositive", path, *common])
        return verdict, run_cli(["minimize", path, *common, "--resolution", str(GRID_RESOLUTION)])

    def check(output) -> Outcome:
        rep_c, rep_m = _report(output[0]), _report(output[1])
        if rep_c is None or rep_m is None:
            return Outcome(False, f"exit codes {output[0][0]}/{output[1][0]}")
        res = rep_c["results"]
        if res["classification"] != want:
            return Outcome(False, f"classified {res['classification']}, built {want}")
        minima = _per_kind_minima(res["notes"])
        if set(minima) != set(KINDS):
            return Outcome(False, f"notes carry minima for {sorted(minima)}")
        for kind in KINDS:
            entry = rep_m["results"][kind.lower()]
            if abs(minima[kind] - entry["value"]) > MIN_GAP_TOL:
                return Outcome(False, f"{kind}: spectrum min {minima[kind]} vs minimized {entry['value']}")
            if entry["grid_bound"] < entry["value"] - GRID_SLACK:
                return Outcome(False, f"{kind}: grid bound {entry['grid_bound']} below {entry['value']}")
        if gamma is not None and abs(minima["H"] - gamma) > VERIFY_TOL:
            return Outcome(False, f"H minimum {minima['H']} vs gamma {gamma}")
        # the certificate is the eigenvector of the smaller minimum; on a tie
        # either kind may own it
        value = res["min_eigenvalue"]
        y = np.array(res["certificate"])
        leads = [k for k in KINDS if abs(minima[k] - value) <= 1e-9 * max(1.0, abs(value))]
        if not any(paretospec.verify_pareto_pair(t, value, y, k, tol=VERIFY_TOL).ok for k in leads):
            return Outcome(False, "certificate fails verify_pareto_pair")
        return Outcome(True, pairs_verified=1)

    return Item(name, run, check)


def _example_item(argv: list[str]) -> Item:
    def run():
        return run_cli(argv + ["--format", "json", "--no-timing"])

    def check(output) -> Outcome:
        rep = _report(output)
        if rep is None or not rep["results"]["all_ok"]:
            return Outcome(False, f"exit code {output[0]}")
        return Outcome(True)

    return Item(" ".join(argv), run, check)


def _sweep_class(gamma: float) -> str:
    if abs(gamma) <= paretospec.DEFAULT_ZERO_BAND:
        return "copositive_boundary"
    return "strictly_copositive" if gamma > 0 else "not_copositive"


def copositivity_workload(seed: int, work_dir: str) -> Workload:
    """Documents written to work_dir and parsed back; the CLI reads them again per item."""
    rng = np.random.default_rng(seed)
    items = []
    not_copositive = 0

    def add(name: str, text: str, want: str, gamma: float | None = None) -> None:
        path = os.path.join(work_dir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        t = paretospec.load_document(path).to_tensor()
        items.append(_verdict_item(name, path, t, want, gamma))

    for order, dim, count in COPOSITIVITY_LADDER:
        for i in range(count):
            coef, want = known_class_coefficients(rng, order, dim, strict=len(items) % 2 == 0)
            not_copositive += want == "not_copositive"
            name = f"m{order}n{dim}#{i}"
            add(name, document_text(name, order, dim, coef), want)
    for order, dim in COPOSITIVITY_DIAGONALS:
        for strict in (True, False):
            coef, want = known_class_diagonal(rng, order, dim, strict)
            not_copositive += want == "not_copositive"
            name = f"diag-m{order}n{dim}-{'strict' if strict else 'not'}"
            add(name, document_text(name, order, dim, coef), want)
    for i, tv in enumerate(SWEEP_T):
        t, expected = paretospec.parametric_quartic(tv)
        want = _sweep_class(expected["gamma"])
        not_copositive += want == "not_copositive"
        doc = paretospec.tensor_to_document(t, name=f"ex4.1 t={tv:.6g}")
        add(f"sweep#{i}", paretospec.serialize_document(doc), want, expected["gamma"])
    documents = len(items)
    items.extend(_example_item(["example", name]) for name in EXAMPLES)
    return Workload(
        items,
        {"documents": documents, "not_copositive_share": not_copositive / documents},
    )


WORKLOADS = ("spectra", "subsets", "copositivity")


def build_workload(name: str, seed: int, work_dir: str) -> Workload:
    if name == "spectra":
        return spectra_workload(seed)
    if name == "subsets":
        return subsets_workload(seed)
    if name == "copositivity":
        return copositivity_workload(seed, work_dir)
    raise ValueError(f"unknown workload {name!r}")
