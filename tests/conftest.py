"""Shared oracles and generators for the test suite.

The dense-array helpers here are the independent reference implementations:
they hold every coefficient explicitly and contract with numpy, bypassing the
package's slice storage entirely.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from paretospec.tensor import Tensor, build


def dense_from_entries(order: int, dim: int, entries) -> np.ndarray:
    a = np.zeros((dim,) * order)
    for idx, v in entries:
        a[tuple(idx)] += v
    return a


def dense_full(a: np.ndarray, x: np.ndarray) -> float:
    """A x^m by contracting every axis of the dense array."""
    out = a
    for _ in range(a.ndim):
        out = np.tensordot(out, x, axes=([out.ndim - 1], [0]))
    return float(out)


def dense_contract(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(A x^{m-1})_i by contracting all trailing axes of the dense array."""
    out = a
    for _ in range(a.ndim - 1):
        out = np.tensordot(out, x, axes=([out.ndim - 1], [0]))
    return np.asarray(out, dtype=float)


def dense_jacobian(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """d(A x^{m-1})_i / dx_j: one term per trailing axis, the others contracted with x."""
    jac = np.zeros((a.shape[0], a.shape[0]))
    for p in range(1, a.ndim):
        out = np.moveaxis(a, p, 1)
        for _ in range(a.ndim - 2):
            out = np.tensordot(out, x, axes=([out.ndim - 1], [0]))
        jac += out
    return jac


def dense_symmetrize(a: np.ndarray) -> np.ndarray:
    m = a.ndim
    out = np.zeros_like(a)
    for perm in itertools.permutations(range(m)):
        out += np.transpose(a, perm)
    return out / math.factorial(m)


def random_entries(rng: np.random.Generator, order: int, dim: int, count: int):
    """Random sparse entry list; duplicate raw indices are produced on purpose."""
    entries = []
    for _ in range(count):
        idx = tuple(int(i) for i in rng.integers(0, dim, size=order))
        entries.append((idx, float(rng.uniform(-2.0, 2.0))))
    return entries


def random_symmetric_tensor(rng: np.random.Generator, order: int, dim: int) -> Tensor:
    """Symmetric tensor with independent uniform[-1, 1] coefficients per index multiset."""
    entries = []
    for key in itertools.combinations_with_replacement(range(dim), order):
        entries.append((key, float(rng.uniform(-1.0, 1.0))))
    return build(order, dim, entries, symmetrize=True)


def random_diagonal_entries(rng: np.random.Generator, order: int, dim: int):
    d = rng.uniform(-2.0, 2.0, size=dim)
    return [((i,) * order, float(d[i])) for i in range(dim)], d
