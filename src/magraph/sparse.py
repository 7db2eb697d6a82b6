"""Immutable CSR matrices and the small kernel set the graph code needs.

Backed by scipy.sparse; every constructor canonicalizes the storage (summed
duplicates, strictly increasing column indices per row, no stored zeros) so
row scans are deterministic and pattern comparisons are well defined.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import ShapeMismatchError, TooLargeForDenseError

# |x| below this counts as zero in pattern extraction and comparisons
ZERO_TOLERANCE = 1e-12

# side length cap for dense conversions (inverse reachability, exact rank)
DENSE_CAP = 512


class SparseMatrix:
    """Real CSR matrix, immutable after construction."""

    __slots__ = ("_m",)

    def __init__(self, raw):
        m = sp.csr_array(raw, dtype=np.float64, copy=True)
        m.sum_duplicates()
        m.sort_indices()
        m.eliminate_zeros()
        m.indptr.flags.writeable = False
        m.indices.flags.writeable = False
        m.data.flags.writeable = False
        object.__setattr__(self, "_m", m)

    def __setattr__(self, *_):
        raise AttributeError("SparseMatrix is immutable")

    # construction -----------------------------------------------------

    @classmethod
    def from_entries(
        cls, rows: int, cols: int, entries: Iterable[tuple[int, int, float]]
    ) -> "SparseMatrix":
        """Build from 0-based (row, col, value) triplets; duplicates are summed."""
        ii, jj, vv = [], [], []
        for i, j, v in entries:
            ii.append(i)
            jj.append(j)
            vv.append(v)
        return cls.from_coo(rows, cols, ii, jj, vv)

    @classmethod
    def from_coo(cls, rows: int, cols: int, row_index, col_index, values) -> "SparseMatrix":
        """Build from parallel 0-based row, column and value arrays; duplicates are summed."""
        data = np.asarray(values, dtype=np.float64)
        coords = (np.asarray(row_index, dtype=np.int64), np.asarray(col_index, dtype=np.int64))
        coo = sp.coo_array((data, coords), shape=(rows, cols))
        return cls(coo.tocsr())

    @classmethod
    def from_dense(cls, array) -> "SparseMatrix":
        return cls(sp.csr_array(np.asarray(array, dtype=np.float64)))

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        return cls(sp.eye_array(n, format="csr"))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "SparseMatrix":
        return cls(sp.csr_array((rows, cols)))

    @classmethod
    def from_diagonal(cls, values: Sequence[float]) -> "SparseMatrix":
        values = np.asarray(values, dtype=np.float64)
        return cls(sp.diags_array(values, format="csr"))

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

    def entries(self) -> Iterator[tuple[int, int, float]]:
        """Stored entries in row-major order."""
        indptr, indices, data = self._m.indptr, self._m.indices, self._m.data
        for i in range(self.rows):
            for k in range(indptr[i], indptr[i + 1]):
                yield i, int(indices[k]), float(data[k])

    def diagonal(self) -> np.ndarray:
        return self._m.diagonal()

    # algebra ------------------------------------------------------------

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(self._m.transpose().tocsr())

    @property
    def T(self) -> "SparseMatrix":
        return self.transpose()

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

    def scale(self, alpha: float) -> "SparseMatrix":
        return SparseMatrix(self._m * float(alpha))

    def pattern(self, tol: float = ZERO_TOLERANCE) -> "SparseMatrix":
        """0/1 matrix marking entries with |x| >= tol."""
        m = self._m.copy()
        keep = np.abs(m.data) >= tol
        m.data = np.where(keep, 1.0, 0.0)
        return SparseMatrix(m)

    def component_count(self) -> int:
        """Connected components of the symmetrized nonzero pattern."""
        from scipy.sparse import csgraph  # slow to import; only this needs it

        return int(csgraph.connected_components(self.pattern()._m, connection="weak")[0])

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
