"""Immutable CSR matrices and the small kernel set the graph code needs.

A SparseMatrix is three read-only numpy arrays (indptr, indices, values) in
canonical form: duplicates summed, strictly increasing column indices per
row, no stored zeros. Stored means finite and nonzero: every builder and @
refuse a nan or inf entry, pattern, rank, nullity and reachability read
every stored entry, and @ refuses a product of stored entries that
underflows to 0.0. Every kernel is numpy;
from_coo, transpose and @ canonicalize through _canonical, whose duplicate
sums run in input order as scipy's csr_matmat does, so products keep their
bits; from_sorted_rows only checks 0/1 rows that are canonical already.
Indices are int64, except from_dense's, int32 when they fit. scipy.sparse is
imported only by the csgraph traversals, breadth_first_order and component_labels.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import IndexOutOfRangeError, MagError, ShapeMismatchError, TooLargeForDenseError

# side length cap for dense conversions (to_dense, inverse reachability) and
# for exact rank, whose elimination can fill in to a dense n x n of big ints
DENSE_CAP = 512


def _size(value) -> int:
    """value as a matrix side; ShapeMismatchError unless it is a non-negative integer."""
    if not isinstance(value, (int, np.integer)) or value < 0:
        raise ShapeMismatchError(f"matrix size {value!r} is not a non-negative integer")
    return int(value)


def _csr(shape, rows, cols, values, index=np.int64) -> "SparseMatrix":
    """Wrap fresh row-major triplets with no duplicates and no zeros; MagError at the first nan or inf."""
    finite = np.isfinite(values)
    if not finite.all():
        k = int(finite.argmin())
        raise MagError(f"entry ({int(rows[k]) + 1},{int(cols[k]) + 1}) = {float(values[k])} is not finite")
    indptr = np.zeros(shape[0] + 1, index)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])  # O(rows + nnz) row starts
    return SparseMatrix(shape, indptr, cols.astype(index, copy=False), values)


def _keys(shape, rows, cols) -> np.ndarray:
    """Row-major int64 keys row·cols + col; MagError where the cells would overflow them."""
    if shape[0] * shape[1] > np.iinfo(np.int64).max:
        raise MagError(f"a {shape[0]}x{shape[1]} matrix has too many cells for int64 keys")
    return rows * shape[1] + cols


def _canonical(shape, keys, values) -> "SparseMatrix":
    """CSR of fresh (key, value) arrays: a stable sort on the key unless the
    keys ascend, duplicates summed by np.bincount in input order, exact zeros dropped."""
    if np.any(keys[1:] < keys[:-1]):
        bits = len(keys).bit_length()
        if shape[0] * shape[1] <= 1 << (63 - bits):  # np.sort of (key, position) packed in one int64
            order = np.sort(keys << bits | np.arange(len(keys))) & ((1 << bits) - 1)  # 5-15x a stable argsort
        else:
            order = np.argsort(keys, kind="stable")
        keys, values = keys[order], values[order]
    repeat = keys[1:] == keys[:-1]
    if repeat.any():
        first = np.concatenate([[True], ~repeat])
        values = np.bincount(np.cumsum(first) - 1, values)
        keys = keys[first]
    keep = values != 0
    if not keep.all():
        keys, values = keys[keep], values[keep]
    rows = keys // max(shape[1], 1)  # floor division by a scalar: 7x faster than np.divmod
    return _csr(shape, rows, keys - rows * shape[1], values)


class SparseMatrix:
    """Real CSR matrix, immutable after construction."""

    __slots__ = ("rows", "cols", "indptr", "indices", "values", "_scipy")

    def __init__(self, shape, indptr, indices, values):
        """Own canonical arrays that no one else writes; outside data goes through the from_* builders."""
        for name, value in zip(self.__slots__, (*map(int, shape), indptr, indices, values, None)):
            object.__setattr__(self, name, value)
        for array in (indptr, indices, values):
            array.flags.writeable = False

    def __setattr__(self, *_):
        raise AttributeError("SparseMatrix is immutable")

    # construction -----------------------------------------------------

    @classmethod
    def from_coo(cls, rows: int, cols: int, row_index, col_index, values) -> "SparseMatrix":
        """Build from parallel 0-based row, column and value arrays; duplicates are summed.

        ShapeMismatchError for a size that is not a non-negative integer, and
        IndexOutOfRangeError for an index that is not an integer inside it.
        """
        shape = (_size(rows), _size(cols))
        r, c = np.asarray(row_index), np.asarray(col_index)
        data = np.array(values, dtype=np.float64)  # a copy, which the matrix owns
        if r.ndim != 1 or not r.shape == c.shape == data.shape:
            raise ShapeMismatchError(f"row, column and value arrays of shapes {r.shape}, {c.shape}, {data.shape}")
        for axis, index, size in (("row", r, shape[0]), ("column", c, shape[1])):
            if len(index) and index.dtype.kind not in "iu":
                raise IndexOutOfRangeError(f"{axis} index {index[0]} is not an integer ({index.dtype})")
            if len(index) and not 0 <= index.min() <= index.max() < size:
                raise IndexOutOfRangeError(f"{axis} index outside 0..{size - 1}")
        return _canonical(shape, _keys(shape, r.astype(np.int64, copy=False), c.astype(np.int64, copy=False)), data)

    @classmethod
    def from_sorted_rows(cls, rows: int, cols: int, counts, columns) -> "SparseMatrix":
        """0/1 matrix whose row i is the next counts[i] of the fresh columns, O(nnz + rows·log rows) with no sort:
        refuses bad counts (ShapeMismatchError), columns outside (IndexOutOfRangeError) or out of order (MagError)."""
        shape = (_size(rows), _size(cols))
        counts, indices = np.asarray(counts), np.asarray(columns)
        if (counts.shape != (shape[0],) or indices.ndim != 1 or len(counts) and counts.dtype.kind not in "iu"
                or counts.min(initial=0) < 0 or counts.sum() != len(indices)):
            raise ShapeMismatchError(f"need {shape[0]} non-negative integer row counts summing to {len(indices)}")
        if len(indices) and (indices.dtype.kind not in "iu" or not 0 <= indices.min() <= indices.max() < shape[1]):
            raise IndexOutOfRangeError(f"column index outside 0..{shape[1] - 1} or not an integer ({indices.dtype})")
        indptr = np.append(0, np.cumsum(counts, dtype=np.int64))
        descents = np.flatnonzero(indices[1:] <= indices[:-1]) + 1  # one byte per entry, where np.diff takes eight
        if not np.isin(descents, indptr).all():  # only a row may start at or below where the last one ended
            raise MagError("columns must ascend strictly within each row")
        return cls(shape, indptr, indices.astype(np.int64, copy=False), np.ones(len(indices)))

    @classmethod
    def from_dense(cls, array) -> "SparseMatrix":
        """Build from a dense 2-D array; indices are int32 when they fit."""
        dense = np.asarray(array, dtype=np.float64)
        if dense.ndim != 2:
            raise ShapeMismatchError(f"expected a 2-D array, got shape {dense.shape}")
        rows, cols = np.nonzero(dense)
        wide = max(*dense.shape, len(rows)) > np.iinfo(np.int32).max
        return _csr(dense.shape, rows, cols, dense[rows, cols], np.int64 if wide else np.int32)

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        return cls.from_diagonal(np.ones(_size(n)))

    @classmethod
    def from_diagonal(cls, values: Sequence[float]) -> "SparseMatrix":
        k = np.arange(len(values))
        return cls.from_coo(len(k), len(k), k, k, values)

    # shape / storage --------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows, self.cols

    @property
    def nnz(self) -> int:
        return len(self.values)

    @property
    def entry_rows(self) -> np.ndarray:
        """Row index of each stored entry, parallel to indices and values."""
        return np.repeat(np.arange(self.rows), np.diff(self.indptr))

    def diagonal(self) -> np.ndarray:
        out = np.zeros(min(self.shape))
        on = self.entry_rows == self.indices
        out[self.indices[on]] = self.values[on]
        return out

    # algebra ------------------------------------------------------------

    def transpose(self) -> "SparseMatrix":
        keys = _keys(self.shape[::-1], self.indices.astype(np.int64), self.entry_rows)
        return _canonical(self.shape[::-1], keys, self.values)

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        """One product per pair of a stored (i, j) and a stored (j, k), summed in ascending j.

        MagError if a product underflows to 0.0, which would drop its entry silently."""
        if self.cols != other.rows:
            raise ShapeMismatchError(f"cannot multiply {self.shape} by {other.shape}")
        counts = np.diff(other.indptr)[self.indices]
        left = np.repeat(np.arange(self.nnz), counts)
        right = np.arange(len(left)) + np.repeat(other.indptr[self.indices] - np.cumsum(counts) + counts, counts)
        products = self.values[left] * other.values[right]
        if not products.all():  # stored entries are nonzero, so a 0.0 product underflowed
            raise MagError(f"a product of two stored entries underflows to 0.0 in {self.shape} @ {other.shape}")
        shape = (self.rows, other.cols)
        return _canonical(shape, _keys(shape, self.entry_rows[left], other.indices[right]), products)

    def matvec(self, x: Sequence[float]) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.cols,):
            raise ShapeMismatchError(f"vector of length {x.shape} against {self.shape}")
        sums = np.bincount(self.entry_rows, self.values * x[self.indices], self.rows)  # in input order
        return sums.astype(np.float64, copy=False)  # bincount gives int64 zeros for no entries

    def pattern(self) -> "SparseMatrix":
        """0/1 matrix with a 1 at every stored entry; shares the read-only indptr and indices."""
        return SparseMatrix(self.shape, self.indptr, self.indices, np.ones(self.nnz))

    def _csgraph_view(self):
        """self as a scipy csr_array, built once per matrix: the closure runs n BFS on one."""
        if self._scipy is None:
            import scipy.sparse as sp  # slow to import; only traversals need it

            object.__setattr__(self, "_scipy", sp.csr_array((self.values, self.indices, self.indptr), shape=self.shape))
        return self._scipy

    def component_labels(self) -> tuple[int, np.ndarray]:
        """(count, label per row) of the connected components of the symmetrized stored entries; the values are not read."""
        from scipy.sparse import csgraph  # slow to import; only traversals need it

        count, labels = csgraph.connected_components(self._csgraph_view(), connection="weak")
        return int(count), labels

    def breadth_first_order(self, start: int) -> tuple[np.ndarray, np.ndarray]:
        """(order, parent) of a FIFO BFS over the stored entries from 0-based start.

        Rows are scanned in ascending column order; parent is negative for
        start and unreached vertices. Square matrices only. O(n + nnz).
        """
        from scipy.sparse import csgraph  # slow to import; only traversals need it

        return csgraph.breadth_first_order(self._csgraph_view(), start, directed=True, return_predecessors=True)

    def to_dense(self) -> np.ndarray:
        if max(self.rows, self.cols) > DENSE_CAP:
            raise TooLargeForDenseError(f"{self.shape} exceeds the dense cap of {DENSE_CAP}")
        out = np.zeros(self.shape)
        out[self.entry_rows, self.indices] = self.values
        return out

    # comparison ---------------------------------------------------------

    def equals(self, other: "SparseMatrix") -> bool:
        """Exact equality of shape and canonical storage."""
        pairs = zip((self.indptr, self.indices, self.values), (other.indptr, other.indices, other.values))
        return self.shape == other.shape and all(np.array_equal(*pair) for pair in pairs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return self.equals(other)

    __hash__ = None

    def __repr__(self) -> str:
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz})"
