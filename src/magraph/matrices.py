"""Matrix representations of a multi-aspect graph.

Adjacency and incidence matrices are always paired with the companion tuple;
the pair is lossless (mag_from_adjacency inverts adjacency_matrix exactly).
Row/column numbers are the 1-based vertex indices shifted down by one.

Also here: the trivial-component elimination matrix and its products, the
three Laplacians, the aggregation matrix of a sub-determination, and exact
(rational) rank/nullspace for desk-scale matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import (
    Aspect,
    AspectList,
    CompanionTuple,
    Mag,
    MagEdge,
    SubDetermination,
    companion_tuple,
    composite_vertex_count,
    sub_companion_tuple,
    subdet_image,
)
from .errors import (
    NonBinaryEntryError,
    NonPositiveWeightError,
    NonzeroDiagonalError,
    ShapeMismatchError,
    TooLargeForDenseError,
    WeightCountError,
)
from .sparse import DENSE_CAP, ZERO_TOLERANCE, SparseMatrix


@dataclass(frozen=True)
class MatrixWithTuple:
    """A matrix plus the companion tuple that names its rows/columns."""

    matrix: SparseMatrix
    tau: CompanionTuple


def adjacency_matrix(mag: Mag) -> MatrixWithTuple:
    """n x n 0/1 matrix with a 1 at (origin, destination) of every edge; O(n + |E|)."""
    tau = companion_tuple(mag)
    n = composite_vertex_count(tau)
    ones = np.ones(len(mag.origin))
    return MatrixWithTuple(
        SparseMatrix.from_coo(n, n, mag.origin, mag.destination, ones), tau
    )


def mag_from_adjacency(jm: MatrixWithTuple, name: str = "mag") -> Mag:
    """Rebuild a graph from (adjacency, tuple) with canonical integer labels.

    Aspects come back named a1..ap with elements "1".."tau_i"; one edge per
    nonzero entry, in row-major order. adjacency_matrix of the result equals
    the input exactly.
    """
    tau = jm.tau
    if not tau.is_full():
        raise ShapeMismatchError("companion tuple must be full (all sizes >= 1)")
    n = composite_vertex_count(tau)
    m = jm.matrix
    if m.shape != (n, n):
        raise ShapeMismatchError(
            f"matrix is {m.shape}, tuple {tau.sizes} implies {n}x{n}"
        )
    aspects = AspectList(
        tuple(
            Aspect(f"a{k + 1}", tuple(str(i + 1) for i in range(s)))
            for k, s in enumerate(tau.sizes)
        )
    )
    rows = np.repeat(np.arange(n), np.diff(m.indptr))
    cols = m.indices
    bad = (m.values != 1.0) | (rows == cols)
    if bad.any():
        k = int(bad.argmax())
        r, c = int(rows[k]) + 1, int(cols[k]) + 1
        if m.values[k] != 1.0:
            raise NonBinaryEntryError(f"entry ({r},{c}) = {float(m.values[k])} is not 0/1")
        raise NonzeroDiagonalError(f"diagonal entry at {r}")
    return Mag(aspects, rows, cols, np.ones(len(rows)), name)


def _incidence(mag: Mag) -> MatrixWithTuple:
    """m x n incidence matrix: row i has +1 at edge i's origin, -1 at its destination."""
    tau = companion_tuple(mag)
    m = len(mag.origin)
    rows = np.arange(m)
    matrix = SparseMatrix.from_coo(
        m,
        composite_vertex_count(tau),
        np.concatenate([rows, rows]),
        np.concatenate([mag.origin, mag.destination]),
        np.concatenate([np.ones(m), -np.ones(m)]),
    )
    return MatrixWithTuple(matrix, tau)


def incidence_matrix(mag: Mag) -> tuple[MatrixWithTuple, tuple[MagEdge, ...]]:
    """m x n incidence matrix (+1 origin, -1 destination) and the row-order edge list.

    Row i is the i-th edge in input order. The matrix is O(n + |E|); the
    edge list is ``mag.edges``, built as MagEdge objects on first access.
    """
    return _incidence(mag), mag.edges


def _touched(mag: Mag) -> np.ndarray:
    """Boolean per composite vertex (0-based): has at least one incident edge."""
    touched = np.zeros(mag.vertex_count, dtype=bool)
    touched[mag.origin] = True
    touched[mag.destination] = True
    return touched


def trivial_components(mag: Mag) -> tuple[int, ...]:
    """1-based indices of composite vertices with no incident edge; O(n + |E|)."""
    return tuple((np.flatnonzero(~_touched(mag)) + 1).tolist())


def elimination_matrix(mag: Mag) -> SparseMatrix:
    """n x (n-r) identity with the trivial-component columns deleted.

    With no trivial components this is the n x n identity.
    """
    kept = np.flatnonzero(_touched(mag))
    return SparseMatrix.from_coo(
        mag.vertex_count, len(kept), kept, np.arange(len(kept)), np.ones(len(kept))
    )


def main_identity(mag: Mag) -> SparseMatrix:
    """Diagonal 0/1 matrix R·R^T: 1 exactly at non-trivial components."""
    r = elimination_matrix(mag)
    return r @ r.transpose()


def main_components(matrix: SparseMatrix, elimination: SparseMatrix, kind: str) -> SparseMatrix:
    """Remove trivial rows/columns via the elimination matrix.

    kind="adjacency" applies R^T·X·R (square, both sides); kind="incidence"
    applies X·R (columns only). Multiplying back by R / R^T restores the
    original, since the removed rows/columns were zero.
    """
    if kind == "adjacency":
        return elimination.transpose() @ matrix @ elimination
    if kind == "incidence":
        return matrix @ elimination
    raise ValueError(f"kind must be 'adjacency' or 'incidence', got {kind!r}")


def combinatorial_laplacian(incidence: SparseMatrix) -> SparseMatrix:
    """C^T·C: symmetric positive-semidefinite with zero column sums."""
    return incidence.transpose() @ incidence


def weighted_laplacian(incidence: SparseMatrix, edge_weights: Sequence[float]) -> SparseMatrix:
    """C^T·W·C with W the diagonal of per-edge positive weights (one per row of C)."""
    weights = np.asarray(edge_weights, dtype=np.float64)
    if weights.shape != (incidence.rows,):
        raise WeightCountError(
            f"{weights.size} weights for {incidence.rows} edges"
        )
    if not np.all(weights > 0):
        raise NonPositiveWeightError("edge weights must be positive")
    w = SparseMatrix.from_diagonal(weights)
    return incidence.transpose() @ w @ incidence


def normalized_laplacian(incidence: SparseMatrix) -> SparseMatrix:
    """N·(C^T·C)·N where N_ii is the inverse Euclidean norm of column i of C.

    Columns of an incidence matrix hold one ±1 per incident edge, so the norm
    is sqrt(total degree); zero columns (trivial components) get N_ii = 0.
    The result has unit diagonal at every non-trivial vertex.
    """
    lap = combinatorial_laplacian(incidence)
    degrees = lap.diagonal()
    inv_norm = np.where(degrees > ZERO_TOLERANCE, 1.0 / np.sqrt(np.maximum(degrees, 1e-300)), 0.0)
    n = SparseMatrix.from_diagonal(inv_norm)
    return n @ lap @ n


def sub_determination_matrix(tau: CompanionTuple, zeta: SubDetermination) -> SparseMatrix:
    """m_z x n aggregation matrix: column j has a single 1 in the row of j's image.

    Multiplying by it sums per-composite-vertex quantities into the
    sub-determined vertices; O(n) build.
    """
    image = subdet_image(tau, zeta)
    m = composite_vertex_count(sub_companion_tuple(tau, zeta))
    n = len(image)
    return SparseMatrix.from_coo(m, n, image, np.arange(n), np.ones(n))


def sub_determined_adjacency(adjacency: SparseMatrix, aggregation: SparseMatrix) -> SparseMatrix:
    """M·J·M^T: integer multiplicities of superposed edges; diagonal counts self-loops."""
    if adjacency.rows != adjacency.cols:
        raise ShapeMismatchError(f"adjacency must be square, got {adjacency.shape}")
    if aggregation.cols != adjacency.rows:
        raise ShapeMismatchError(
            f"aggregation {aggregation.shape} does not match adjacency {adjacency.shape}"
        )
    return aggregation @ adjacency @ aggregation.transpose()


def _exact_fraction(x: float) -> Fraction:
    return Fraction(*float(x).as_integer_ratio())


def matrix_rank(matrix: SparseMatrix) -> int:
    """Exact rank by rational Gaussian elimination (largest-pivot), dense form.

    Only for matrices within the dense cap. Input entries below the zero
    tolerance are snapped to zero first (they are float noise from the
    sparse products); the elimination itself is exact.
    """
    if max(matrix.rows, matrix.cols) > DENSE_CAP:
        raise TooLargeForDenseError(
            f"{matrix.shape} exceeds the dense cap of {DENSE_CAP}"
        )
    a = [
        [_exact_fraction(x) if abs(x) >= ZERO_TOLERANCE else Fraction(0) for x in row]
        for row in matrix.to_dense()
    ]
    rows, cols = matrix.rows, matrix.cols
    rank = 0
    r = 0
    for c in range(cols):
        pivot = max(range(r, rows), key=lambda i: abs(a[i][c]), default=None)
        if pivot is None or a[pivot][c] == 0:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = 1 / a[r][c]
        for i in range(r + 1, rows):
            if a[i][c]:
                factor = a[i][c] * inv
                a[i] = [x - factor * y for x, y in zip(a[i], a[r])]
        rank += 1
        r += 1
        if r == rows:
            break
    return rank


def nullspace_dimension(matrix: SparseMatrix) -> int:
    """Nullspace dimension of a square matrix.

    Within the dense cap this is cols - exact rank; beyond it the matrix is
    assumed Laplacian-like and the count of connected components of the
    symmetrized pattern is reported instead.
    """
    if matrix.rows != matrix.cols:
        raise ShapeMismatchError(f"expected a square matrix, got {matrix.shape}")
    if matrix.rows <= DENSE_CAP:
        return matrix.cols - matrix_rank(matrix)
    return matrix.component_count()
