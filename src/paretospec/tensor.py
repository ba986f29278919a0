"""Core storage and evaluation for real tensors of order m and dimension n.

A tensor A = (a_{i1...im}) acts on a vector x through two contractions:

    full contraction   A x^m     = sum_{i1..im} a_{i1...im} x_{i1} ... x_{im}
    partial contraction (A x^{m-1})_i = sum_{i2..im} a_{i,i2...im} x_{i2} ... x_{im}

Only these two maps matter for eigenvalue analysis, so entries are stored in
"slice" form: coefficients with the same leading index and the same multiset
of trailing indices are summed into a single record.  The key is
(lead, trailing) with the trailing indices sorted ascending.  This is the
coarsest storage that still determines both contractions exactly.

The kernels evaluate on distinct monomials, not on slices: slices that share
a trailing multiset share its monomial x_{i2} ... x_{im}, so A x^{m-1} is one
gather-product over the distinct trailing monomials and one matmul with
their (monomials x n) coefficient matrix.  The Jacobian is the same over the
distinct monomials of degree m-2, with a coefficient matrix over the
(lead, j) cells that the slices touch; the magnitude kernel is the
contraction at |x| with the absolute coefficients.

Indices are 0-based throughout this package; the document parser is the only
place where 1-based input indices are translated.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Literal, Mapping, Sequence

import numpy as np

SliceKey = tuple[int, tuple[int, ...]]
Kind = Literal["H", "Z"]

# Relative tolerance used when checking whether stored slices already agree
# with their symmetrization.
_SYM_CHECK_RTOL = 1e-12


def _validate_index(idx: Sequence[int], order: int, dim: int) -> tuple[int, ...]:
    idx = tuple(int(i) for i in idx)
    if len(idx) != order:
        raise ValueError(f"index {idx} has length {len(idx)}, expected order {order}")
    for i in idx:
        if not 0 <= i < dim:
            raise ValueError(f"index {idx} out of range for dimension {dim}")
    return idx


def _multiset_permutations(counts: Counter[int], length: int) -> int:
    """Number of distinct orderings of a multiset given by `counts`."""
    total = math.factorial(length)
    for c in counts.values():
        total //= math.factorial(c)
    return total


@dataclass(frozen=True)
class Tensor:
    """Immutable order-m, dimension-n tensor in slice storage.

    slices maps (lead, sorted-trailing-tuple) -> summed coefficient.  The
    symmetric flag is set when the stored slices are consistent with a fully
    symmetric coefficient table (verified at build time, or forced by
    symmetrizing).
    """

    order: int
    dim: int
    slices: Mapping[SliceKey, float]
    symmetric: bool = False

    # Evaluation tables derived from slices in __post_init__, read by the
    # kernels and by the exact routes' scans alike: row r of _mono holds the
    # sorted indices of a distinct trailing monomial of degree m-1, and
    # _P[r, i] is the coefficient of that monomial in component i (the slice
    # (i, _mono[r]), 0 when absent), so A x^{m-1} is prod(x[_mono]) @ _P.
    # The Jacobian's table is `_jacobian_tables`.
    _mono: np.ndarray = field(init=False, repr=False, compare=False)
    _P: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # numpy integers become ints, so the tensor serializes to JSON
        object.__setattr__(self, "order", operator.index(self.order))
        object.__setattr__(self, "dim", operator.index(self.dim))
        if self.order < 2:
            raise ValueError(f"order must be >= 2, got {self.order}")
        if self.dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dim}")
        keys = sorted(self.slices)
        n, m = self.dim, self.order
        for lead, trail in keys:
            if not 0 <= lead < n:
                raise ValueError(f"slice lead {lead} out of range for dimension {n}")
            if len(trail) != m - 1 or tuple(sorted(trail)) != trail:
                raise ValueError(f"malformed trailing multiset {trail}")
            if any(not 0 <= j < n for j in trail):
                raise ValueError(f"trailing index out of range in {trail}")
            v = self.slices[(lead, trail)]
            if not math.isfinite(v):
                raise ValueError(f"non-finite coefficient for slice ({lead}, {trail})")

        lead = np.array([i for i, _ in keys], dtype=np.intp)
        coef = np.array([self.slices[key] for key in keys], dtype=np.float64)
        # a slice is the only one with its (monomial, lead), so P needs no sums
        ids: dict[tuple[int, ...], int] = {}
        row = [ids.setdefault(tr, len(ids)) for _, tr in keys]
        P = np.zeros((len(ids), n))
        P[row, lead] = coef
        object.__setattr__(self, "_mono", np.array(list(ids), dtype=np.intp).reshape(len(ids), m - 1))
        object.__setattr__(self, "_P", P)

    @functools.cached_property
    def _jacobian_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(mono, cells, Q) with d(A x^{m-1})_i / dx_j = (prod(x[mono]) @ Q)[c] at cells[c] = i*n + j.

        mono lists the distinct monomials of degree m-2 that the slices leave
        when one trailing index is dropped, and cells the (lead, j) cells the
        slices touch, so Q is sized by the slices, never monomials x n^2.
        Slice (i, T), a nonzero cell of _P read in key order, puts coef * c_j
        at Q[T - {j}, i*n + j] for every distinct j in T, c_j being the
        multiplicity of j in T; no other slice reaches that entry.  Built on
        first use: only the solvers need it, on tensors under the enumeration
        guard, and on a large sparse tensor Q (up to (slices * (m-1))^2
        entries) can outgrow P.
        """
        m, n = self.order, self.dim
        lead, k = np.nonzero(self._P.T)  # slice (lead, _mono[k])
        key = np.lexsort((*self._mono[k].T[::-1], lead))
        lead, k = lead[key], k[key]
        trail, coef = self._mono[k], self._P[k, lead]
        first = np.ones(trail.shape, dtype=bool)  # first position of each distinct index
        first[:, 1:] = trail[:, 1:] != trail[:, :-1]
        mult = (trail[:, :, None] == trail[:, None, :]).sum(axis=2)
        r, p = np.nonzero(first)
        # row p lists the trailing positions other than p; trails stay sorted
        others = np.array([[q for q in range(m - 1) if q != pp] for pp in range(m - 1)], dtype=np.intp)
        ids: dict[tuple[int, ...], int] = {}
        row = [ids.setdefault(tuple(rest), len(ids)) for rest in trail[r[:, None], others[p]].tolist()]
        cells, col = np.unique(lead[r] * n + trail[r, p], return_inverse=True)
        Q = np.zeros((len(ids), cells.size))
        Q[row, col] = coef[r] * mult[r, p]
        return np.array(list(ids), dtype=np.intp).reshape(len(ids), m - 2), cells, Q

    @functools.cached_property
    def _off_diagonal_slices(self) -> np.ndarray:
        """(K, m) index rows (i, *_mono[r]) of the nonzero cells (r, i) of _P with _mono[r] not (i, ..., i)."""
        r, lead = np.nonzero(self._P)
        off = (self._mono[r] != lead[:, None]).any(axis=1)
        return np.concatenate([lead[off, None], self._mono[r[off]]], axis=1)

    # -- evaluation --------------------------------------------------------

    @staticmethod
    def _monomials(X: np.ndarray, mono: np.ndarray) -> np.ndarray:
        """(B, M) products of the batch columns named by each row of `mono` (M, degree).

        One factor column at a time: np.prod over a last axis of a few
        entries took 1.3-2.6 times as long on 600-800 rows of dimension 3-4.
        Degree 0 gives the empty product 1.
        """
        if mono.shape[1] == 0:
            return np.ones((X.shape[0], mono.shape[0]))
        out = X[:, mono[:, 0]]
        for q in range(1, mono.shape[1]):
            out *= X[:, mono[:, q]]
        return out

    def contract_batch(self, X: np.ndarray) -> np.ndarray:
        """Partial contraction A x^{m-1} for a batch of row vectors.

        :param X: array of shape (B, dim).
        :return: array of shape (B, dim) with (A x^{m-1})_i per row.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"batch shape {X.shape} incompatible with dimension {self.dim}")
        return self._monomials(X, self._mono) @ self._P

    def contract_magnitude_batch(self, X: np.ndarray) -> np.ndarray:
        """Row-wise sum over slices of |coef| times the slice monomial at |x|, per lead.

        Natural scale of each component of A x^{m-1} before cancellation;
        used to tell true interior roots from near-boundary pseudo-roots.
        """
        return self._monomials(np.abs(np.asarray(X, dtype=np.float64)), self._mono) @ np.abs(self._P)

    def contract_jacobian_batch(self, X: np.ndarray) -> np.ndarray:
        """Jacobian d(A x^{m-1})/dx for a batch; shape (B, dim, dim)."""
        X = np.asarray(X, dtype=np.float64)
        n = self.dim
        mono, cells, Q = self._jacobian_tables
        R = self._monomials(X, mono) @ Q
        if cells.size < n * n:
            J = np.zeros((X.shape[0], n * n))
            J[:, cells] = R
            R = J
        # else the sorted cells are all n^2 of them, in place already
        return R.reshape(-1, n, n)

    def apply_contract(self, x: np.ndarray) -> np.ndarray:
        """A x^{m-1} for a single vector of length dim."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dim,):
            raise ValueError(f"vector shape {x.shape} incompatible with dimension {self.dim}")
        return self.contract_batch(x[None, :])[0]

    def apply_full(self, x: np.ndarray) -> float:
        """Full contraction A x^m, evaluated as x . (A x^{m-1})."""
        x = np.asarray(x, dtype=np.float64)
        return float(x @ self.apply_contract(x))

    def apply_full_batch(self, X: np.ndarray) -> np.ndarray:
        return np.einsum("bi,bi->b", np.asarray(X, dtype=np.float64), self.contract_batch(X))

    # -- structure ---------------------------------------------------------

    def principal_subtensor(self, subset: Sequence[int]) -> "Tensor":
        """Restriction of the tensor to the index subset, reindexed to 0..|N|-1.

        Keeps exactly the slices all of whose indices lie in `subset`.
        """
        sub = tuple(int(i) for i in subset)
        if len(sub) == 0:
            raise ValueError("index subset must be nonempty")
        if len(set(sub)) != len(sub):
            raise ValueError(f"index subset {sub} has duplicates")
        if any(not 0 <= i < self.dim for i in sub):
            raise ValueError(f"index subset {sub} out of range for dimension {self.dim}")
        sub = tuple(sorted(sub))
        pos = {i: p for p, i in enumerate(sub)}
        members = set(sub)
        new_slices: dict[SliceKey, float] = {}
        for (lead, trail), v in self.slices.items():
            if lead in members and all(j in members for j in trail):
                new_slices[(pos[lead], tuple(pos[j] for j in trail))] = v
        return Tensor(self.order, len(sub), new_slices, symmetric=self.symmetric)

    def is_diagonal(self) -> bool:
        return all(v == 0.0 or trail == (lead,) * (self.order - 1) for (lead, trail), v in self.slices.items())

    def diagonal_entries(self) -> np.ndarray:
        return np.array([self.slices.get((i, (i,) * (self.order - 1)), 0.0) for i in range(self.dim)])

    def symmetrized(self) -> "Tensor":
        return Tensor(self.order, self.dim, _symmetrize_slices(self.order, self.slices), symmetric=True)


def _symmetrize_slices(order: int, slices: Mapping[SliceKey, float]) -> dict[SliceKey, float]:
    """Slice table of the symmetric part of a tensor given in slice form.

    Coefficients sharing one full index multiset K are averaged over all N
    orderings of K; the result depends only on the totals already stored, so
    symmetrization is exact at the slice level.  The slice led by i, with
    trail K less one i, sums the N c_i / m orderings that begin with i, c_i
    being the multiplicity of i in K.  A multiset whose coefficients cancel
    stores no slice, as `build` stores no zero entry.
    """
    totals: dict[tuple[int, ...], float] = {}
    for (lead, trail), v in slices.items():
        key = tuple(sorted((lead,) + trail))
        totals[key] = totals.get(key, 0.0) + v
    out: dict[SliceKey, float] = {}
    for key, total in totals.items():
        if total == 0.0:
            continue
        counts = Counter(key)
        n_orderings = _multiset_permutations(counts, order)
        per_ordering = total / n_orderings
        for i, c in counts.items():
            p = key.index(i)
            out[(i, key[:p] + key[p + 1 :])] = per_ordering * (n_orderings * c // order)
    return out


def _slices_symmetric(order: int, slices: Mapping[SliceKey, float]) -> bool:
    sym = _symmetrize_slices(order, slices)
    keys = set(slices) | set(sym)
    for k in keys:
        a = slices.get(k, 0.0)
        b = sym.get(k, 0.0)
        if abs(a - b) > _SYM_CHECK_RTOL * max(1.0, abs(a), abs(b)):
            return False
    return True


def build(
    order: int,
    dim: int,
    entries: Iterable[tuple[Sequence[int], float]],
    symmetrize: bool = False,
) -> Tensor:
    """Build a tensor from raw (index, value) entries, 0-based indices.

    Entries with the same lead and the same trailing multiset are summed.
    With symmetrize=True the symmetric part is stored instead and the result
    is flagged symmetric; otherwise the flag is set by checking whether the
    aggregated slices already match their own symmetrization.

    :param entries: iterable of (index tuple of length `order`, value).
    """
    slices: dict[SliceKey, float] = {}
    for idx, v in entries:
        idx = _validate_index(idx, order, dim)
        v = float(v)
        if not math.isfinite(v):
            raise ValueError(f"non-finite value {v!r} at index {idx}")
        key = (idx[0], tuple(sorted(idx[1:])))
        slices[key] = slices.get(key, 0.0) + v
    slices = {k: v for k, v in slices.items() if v != 0.0}
    if symmetrize:
        return Tensor(order, dim, _symmetrize_slices(order, slices), symmetric=True)
    return Tensor(order, dim, slices, symmetric=_slices_symmetric(order, slices))


def embed(w: np.ndarray, subset: Sequence[int], dim: int) -> np.ndarray:
    """Scatter a sub-vector on `subset` into a length-`dim` vector, zeros elsewhere."""
    w = np.asarray(w, dtype=np.float64)
    sub = tuple(int(i) for i in subset)
    if w.shape != (len(sub),):
        raise ValueError(f"vector length {w.shape} does not match subset size {len(sub)}")
    if len(set(sub)) != len(sub) or any(not 0 <= i < dim for i in sub):
        raise ValueError(f"bad index subset {sub} for dimension {dim}")
    y = np.zeros(dim)
    y[list(sub)] = w
    return y


def embed_rows(W: np.ndarray, S: np.ndarray, dim: int) -> np.ndarray:
    """Row r of W scattered onto the indices S[r] of a length-`dim` row, zeros elsewhere."""
    Y = np.zeros((W.shape[0], dim))
    Y[np.arange(W.shape[0])[:, None], S] = W
    return Y


def knorm(x: np.ndarray, k: float) -> float:
    """The k-norm (sum_i |x_i|^k)^(1/k), k >= 1."""
    if k < 1:
        raise ValueError(f"norm exponent must be >= 1, got {k}")
    x = np.asarray(x, dtype=np.float64)
    return float(np.sum(np.abs(x) ** k) ** (1.0 / k))


@dataclass(frozen=True)
class Sphere:
    """Unit sphere {sum_i w_i^k = 1} on which the pairs of one kind live.

    The kinds differ only in the norm exponent: k = m for H and k = 2 for Z.
    An interior pair of an order-m tensor solves A w^{m-1} = value * rhs(w)
    with level(w) = 1, where rhs(w) = level(w)^((m-k)/k) w^[k-1] is w^[m-1]
    for H and (w.w)^((m-2)/2) w for Z.  level, rhs and normalize act on the
    last axis, so they take one vector or a batch of rows.
    """

    kind: Kind
    order: int

    def __post_init__(self) -> None:
        if self.kind not in ("H", "Z"):
            raise ValueError(f"kind must be 'H' or 'Z', got {self.kind!r}")

    @property
    def k(self) -> int:
        return self.order if self.kind == "H" else 2

    def level(self, W: np.ndarray) -> np.ndarray:
        return np.sum(_ipow(W, self.k), axis=-1)

    def rhs(self, W: np.ndarray, level: np.ndarray | None = None) -> np.ndarray:
        """rhs(w) per row; `level` is level(W) when the caller already has it."""
        m, k = self.order, self.k
        s = self.level(W) if level is None else level
        return (s ** ((m - k) / k))[..., None] * _ipow(W, k - 1)

    def rhs_jacobian(self, W: np.ndarray) -> np.ndarray:
        """d rhs / dw for a batch of rows; shape (B, n, n)."""
        m, k = self.order, self.k
        B, n = W.shape
        s = self.level(W)
        if k == m:
            # The (m-k) outer-product term vanishes; it is skipped, not scaled
            # by zero, because its factor level^(-1) is inf at w = 0.
            J = np.zeros((B, n, n))
        else:
            P = _ipow(W, k - 1)
            J = (m - k) * (s ** ((m - 2 * k) / k))[:, None, None] * (P[:, :, None] * P[:, None, :])
        J[:, np.arange(n), np.arange(n)] += (s ** ((m - k) / k))[:, None] * ((k - 1) * _ipow(W, k - 2))
        return J

    def normalize(self, W: np.ndarray) -> np.ndarray:
        """Rows scaled to unit k-norm; an all-zero row comes back NaN."""
        return W / (np.sum(_ipow(np.abs(W), self.k), axis=-1) ** (1.0 / self.k))[..., None]


def _ipow(W: np.ndarray, p: int) -> np.ndarray:
    """W**p for an integer p >= 0 by repeated multiplication.

    numpy sends an integer exponent above 2 through the general pow, which
    costs about three times W*W*W.
    """
    if p < 2:
        return np.ones_like(W) if p == 0 else W
    out = W * W
    for _ in range(p - 2):
        out *= W  # in place: no third array alive at once
    return out
