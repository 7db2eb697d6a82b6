"""Immutable CSR matrices and the small kernel set the graph code needs.

Outside data enters through two builders, from_coo (which from_entries,
identity, zeros and from_diagonal call) and from_dense; each imports
scipy.sparse there, so a program that builds no matrix never loads it.
Every matrix is canonical (summed duplicates, strictly increasing column
indices per row, no stored zeros), so row scans are deterministic and
pattern comparisons are well defined.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import ShapeMismatchError, TooLargeForDenseError

# |x| below this counts as zero in pattern extraction and comparisons
ZERO_TOLERANCE = 1e-12

# side length cap for dense conversions (to_dense, inverse reachability) and
# for exact rank, whose elimination can fill in to a dense n x n of big ints
DENSE_CAP = 512


class SparseMatrix:
    """Real CSR matrix, immutable after construction."""

    __slots__ = ("_m",)

    def __init__(self, raw):
        """Own a fresh scipy.sparse result, canonicalized in place: no other matrix
        may hold its arrays. Outside data goes through from_coo or from_dense."""
        m = raw.tocsr().astype(np.float64, copy=False)
        m.sum_duplicates()  # sorts the indices unless already canonical
        m.eliminate_zeros()
        for array in (m.indptr, m.indices, m.data):
            array.flags.writeable = False
        object.__setattr__(self, "_m", m)

    def __setattr__(self, *_):
        raise AttributeError("SparseMatrix is immutable")

    # construction -----------------------------------------------------

    @classmethod
    def from_entries(
        cls, rows: int, cols: int, entries: Iterable[tuple[int, int, float]]
    ) -> "SparseMatrix":
        """Build from 0-based (row, col, value) triplets; duplicates are summed."""
        triples = list(entries)
        ii, jj, vv = zip(*triples) if triples else ((), (), ())
        return cls.from_coo(rows, cols, ii, jj, vv)

    @classmethod
    def from_coo(cls, rows: int, cols: int, row_index, col_index, values) -> "SparseMatrix":
        """Build from parallel 0-based row, column and value arrays; duplicates are summed."""
        import scipy.sparse as sp  # slow to import; only matrix builds need it

        data = np.asarray(values, dtype=np.float64)
        coords = (np.asarray(row_index, dtype=np.int64), np.asarray(col_index, dtype=np.int64))
        return cls(sp.coo_array((data, coords), shape=(rows, cols)))

    @classmethod
    def from_dense(cls, array) -> "SparseMatrix":
        """Build from a dense 2-D array; the CSR keeps scipy's own index dtype (int32 when it fits)."""
        import scipy.sparse as sp  # slow to import; only matrix builds need it

        return cls(sp.csr_array(np.asarray(array, dtype=np.float64)))

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        return cls.from_diagonal(np.ones(n))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "SparseMatrix":
        return cls.from_coo(rows, cols, [], [], [])

    @classmethod
    def from_diagonal(cls, values: Sequence[float]) -> "SparseMatrix":
        k = np.arange(len(values))
        return cls.from_coo(len(k), len(k), k, k, values)

    # shape / storage --------------------------------------------------

    @property
    def rows(self) -> int:
        return self._m.shape[0]

    @property
    def cols(self) -> int:
        return self._m.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._m.shape

    @property
    def nnz(self) -> int:
        return self._m.nnz

    @property
    def indptr(self) -> np.ndarray:
        return self._m.indptr

    @property
    def indices(self) -> np.ndarray:
        return self._m.indices

    @property
    def values(self) -> np.ndarray:
        return self._m.data

    @property
    def entry_rows(self) -> np.ndarray:
        """Row index of each stored entry, parallel to indices and values."""
        return np.repeat(np.arange(self.rows), np.diff(self._m.indptr))

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """(column indices, values) of row i; columns are strictly increasing."""
        lo, hi = self._m.indptr[i], self._m.indptr[i + 1]
        return self._m.indices[lo:hi], self._m.data[lo:hi]

    def entry(self, i: int, j: int) -> float:
        cols, vals = self.row(i)
        k = np.searchsorted(cols, j)
        if k < len(cols) and cols[k] == j:
            return float(vals[k])
        return 0.0

    def diagonal(self) -> np.ndarray:
        return self._m.diagonal()

    # algebra ------------------------------------------------------------

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(self._m.transpose())

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise ShapeMismatchError(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        return SparseMatrix(self._m @ other._m)

    def matvec(self, x: Sequence[float]) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.cols,):
            raise ShapeMismatchError(f"vector of length {x.shape} against {self.shape}")
        return self._m @ x

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.shape != other.shape:
            raise ShapeMismatchError(f"cannot add {self.shape} and {other.shape}")
        return SparseMatrix(self._m + other._m)

    def pattern(self, tol: float = ZERO_TOLERANCE) -> "SparseMatrix":
        """0/1 matrix marking entries with |x| >= tol."""
        data = np.where(np.abs(self._m.data) >= tol, 1.0, 0.0)
        index = (self._m.indices.copy(), self._m.indptr.copy())  # self's arrays are read-only
        return SparseMatrix(type(self._m)((data, *index), shape=self.shape))

    def difference(self, other: "SparseMatrix") -> "SparseMatrix":
        """0/1 matrix of the positions in self's pattern that other does not store.

        One merge per row of the two canonical matrices; O(nnz(self) + nnz(other)).
        """
        if self.shape != other.shape:
            raise ShapeMismatchError(f"cannot subtract {other.shape} from {self.shape}")
        stored = type(other._m)((np.ones(other.nnz), other._m.indices, other._m.indptr), shape=other.shape)
        return SparseMatrix(self.pattern()._m > stored)

    def component_count(self) -> int:
        """Connected components of the symmetrized nonzero pattern."""
        from scipy.sparse import csgraph  # slow to import; only traversals need it

        return int(csgraph.connected_components(self.pattern()._m, connection="weak")[0])

    def breadth_first_order(self, start: int) -> tuple[np.ndarray, np.ndarray]:
        """(order, parent) of a FIFO BFS over the stored entries from 0-based start.

        Rows are scanned in ascending column order; parent is negative for
        start and unreached vertices. Square matrices only. O(n + nnz).
        """
        from scipy.sparse import csgraph  # slow to import; only traversals need it

        return csgraph.breadth_first_order(self._m, start, directed=True, return_predecessors=True)

    def to_dense(self) -> np.ndarray:
        if max(self.rows, self.cols) > DENSE_CAP:
            raise TooLargeForDenseError(
                f"{self.shape} exceeds the dense cap of {DENSE_CAP}"
            )
        return self._m.toarray()

    # comparison ---------------------------------------------------------

    def equals(self, other: "SparseMatrix") -> bool:
        """Exact equality of shape and canonical storage."""
        return (
            self.shape == other.shape
            and np.array_equal(self._m.indptr, other._m.indptr)
            and np.array_equal(self._m.indices, other._m.indices)
            and np.array_equal(self._m.data, other._m.data)
        )

    def allclose(self, other: "SparseMatrix", tol: float = ZERO_TOLERANCE) -> bool:
        if self.shape != other.shape:
            return False
        diff = self._m - other._m
        return bool(np.all(np.abs(diff.data) <= tol)) if diff.nnz else True

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return self.equals(other)

    __hash__ = None

    def __repr__(self) -> str:
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz})"
