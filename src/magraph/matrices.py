"""Matrix representations of a multi-aspect graph.

Adjacency and incidence matrices are always paired with the companion tuple;
the pair is lossless (mag_from_adjacency inverts adjacency_matrix exactly).
Row/column numbers are the 1-based vertex indices shifted down by one.

Also here: the trivial-component elimination matrix and its products, the
three Laplacians, the aggregation matrix of a sub-determination, and exact
rank and nullity (cols - rank), which read every stored entry at its exact
value, however small, and refuse nan and inf. An incidence-form matrix
(every row empty or x and -x) or a Laplacian (D - A, A >= 0 symmetric, zero
row sums) has rank cols - its component count, at any size in
O(nnz·log nnz), as from_coo sorts; every other matrix is eliminated on
sparse integer rows and refused beyond the dense cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    Aspect,
    AspectList,
    CompanionTuple,
    Mag,
    MagEdge,
    SubDetermination,
    _finite_positive,
    companion_tuple,
    composite_vertex_count,
    sub_companion_tuple,
    subdet_image,
)
from .errors import (
    MagError,
    NonBinaryEntryError,
    NonPositiveWeightError,
    NonzeroDiagonalError,
    ShapeMismatchError,
    TooLargeForDenseError,
    WeightCountError,
)
from .sparse import DENSE_CAP, SparseMatrix


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
    rows = m.entry_rows
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
    """C^T·W·C with W the diagonal of finite positive edge weights, one per row of C; refuses an inf sum."""
    weights = np.asarray(edge_weights, dtype=np.float64)
    if weights.shape != (incidence.rows,):
        raise WeightCountError(
            f"{weights.size} weights for {incidence.rows} edges"
        )
    if not np.all(_finite_positive(weights)):
        rule = "finite" if np.all(weights > 0) else "positive"
        raise NonPositiveWeightError(f"edge weights must be {rule}")
    w = SparseMatrix.from_diagonal(weights)
    return _require_finite(incidence.transpose() @ w @ incidence)


def normalized_laplacian(incidence: SparseMatrix) -> SparseMatrix:
    """N·(C^T·C)·N where N_ii is the inverse Euclidean norm of column i of C.

    Columns of an incidence matrix hold one ±1 per incident edge, so the norm
    is sqrt(total degree). A column is trivial exactly when its degree is 0,
    and then N_ii = 0. The result has unit diagonal at every non-trivial vertex.
    """
    lap = combinatorial_laplacian(incidence)
    degrees = lap.diagonal()
    inv_norm = np.divide(1.0, np.sqrt(degrees), out=np.zeros(len(degrees)), where=degrees != 0)
    n = SparseMatrix.from_diagonal(inv_norm)
    return n @ lap @ n


def sub_determination_matrix(tau: CompanionTuple, zeta: SubDetermination) -> SparseMatrix:
    """m_z x n aggregation matrix: column j has a single 1 in the row of j's image.

    Multiplying by it sums per-composite-vertex quantities into the
    sub-determined vertices; O(p·n) build.
    """
    image = subdet_image(tau, zeta)
    m = composite_vertex_count(sub_companion_tuple(tau, zeta))
    n = len(image)
    return SparseMatrix.from_coo(m, n, image, np.arange(n), np.ones(n))


def _square_size(matrix: SparseMatrix) -> int:
    if matrix.rows != matrix.cols:
        raise ShapeMismatchError(f"expected a square matrix, got {matrix.shape}")
    return matrix.rows


def sub_determined_adjacency(adjacency: SparseMatrix, aggregation: SparseMatrix) -> SparseMatrix:
    """M·J·M^T: integer multiplicities of superposed edges; diagonal counts self-loops."""
    if aggregation.cols != _square_size(adjacency):
        raise ShapeMismatchError(
            f"aggregation {aggregation.shape} does not match adjacency {adjacency.shape}"
        )
    return aggregation @ adjacency @ aggregation.transpose()


def _require_finite(matrix: SparseMatrix) -> SparseMatrix:
    bad = ~np.isfinite(matrix.values)
    if bad.any():
        k = int(bad.argmax())
        r, c = int(matrix.entry_rows[k]) + 1, int(matrix.indices[k]) + 1
        raise MagError(f"entry ({r},{c}) = {float(matrix.values[k])} is not finite")
    return matrix


def _certified_rank(matrix: SparseMatrix) -> int | None:
    """cols - the component count of a graph-shaped matrix, which is its rank; None for any other. O(nnz·log nnz).

    Incidence form: every row is empty or x·(e_i - e_j), stored entries x and
    -x, so the rows span the edges i-j of a graph on the columns (Biggs,
    Algebraic Graph Theory, Prop. 4.3). Laplacian: symmetric, off-diagonals
    <= 0, every row sums to exactly zero (math.fsum is exact), so it is D - A
    with A >= 0 like every C^T·W·C with W > 0, and x^T·L·x = 1/2·sum
    a_ij·(x_i - x_j)^2 vanishes exactly on the vectors constant on each component.
    """
    counts = np.diff(matrix.indptr)
    if np.all((counts == 0) | (counts == 2)):  # each nonempty row is then one consecutive pair of entries
        ends, scales = matrix.indices.reshape(-1, 2), matrix.values.reshape(-1, 2)
        if np.array_equal(scales[:, 0], -scales[:, 1]):  # bit-exact, as no zero, nan or inf is stored here
            edges = SparseMatrix.from_coo(matrix.cols, matrix.cols, *ends.T, np.ones(len(ends)))
            return matrix.cols - edges.component_count()
    if matrix.rows != matrix.cols or np.any(matrix.values[matrix.entry_rows != matrix.indices] > 0):
        return None
    data, indptr = matrix.values.tolist(), matrix.indptr.tolist()
    if matrix.equals(matrix.transpose()) and all(math.fsum(data[lo:hi]) == 0.0 for lo, hi in zip(indptr, indptr[1:])):
        return matrix.cols - matrix.component_count()
    return None


def matrix_rank(matrix: SparseMatrix) -> int:
    """Exact rank: by certificate for an incidence-form matrix or a Laplacian, by elimination otherwise.

    The certificate (_certified_rank) answers at any size in O(nnz·log nnz).
    Elimination is fraction-free on sparse integer rows: every stored entry
    is read at its exact value k/2^e, so a row scaled by its largest
    denominator is an exact int row. Each step pivots on the smallest
    leading column (the row there with the fewest entries) and updates only
    the rows that lead there: row = p·row - f·pivot, over its gcd. O(nnz)
    while rows stay sparse; fill-in can cost O(r·n^2) big-int operations, so
    elimination refuses a side beyond the dense cap. A nan or inf entry
    raises MagError.
    """
    _require_finite(matrix)
    certified = _certified_rank(matrix)
    if certified is not None:
        return certified
    if max(matrix.rows, matrix.cols) > DENSE_CAP:
        raise TooLargeForDenseError(f"{matrix.shape} exceeds the dense cap of {DENSE_CAP}")
    leading: dict[int, list[dict[int, int]]] = {}
    indptr, cols, values = (a.tolist() for a in (matrix.indptr, matrix.indices, matrix.values))
    for lo, hi in zip(indptr, indptr[1:]):
        ratios = {c: x.as_integer_ratio() for c, x in zip(cols[lo:hi], values[lo:hi])}
        if ratios:
            scale = max(d for _, d in ratios.values())
            row = {c: k * (scale // d) for c, (k, d) in ratios.items()}
            leading.setdefault(min(row), []).append(row)
    rank = 0
    for c in range(matrix.cols):
        rows = leading.pop(c, [])
        if not rows:
            continue
        rank += 1
        pivot = min(rows, key=len)
        for row in rows:
            if row is pivot:
                continue
            g = math.gcd(pivot[c], row[c])
            p, f = pivot[c] // g, row[c] // g
            new = {k: p * v for k, v in row.items()}
            for k, v in pivot.items():
                new[k] = new.get(k, 0) - f * v
            g = math.gcd(*new.values())
            new = {k: v // g for k, v in new.items() if v}
            if new:
                leading.setdefault(min(new), []).append(new)
    return rank


def nullspace_dimension(matrix: SparseMatrix) -> int:
    """Exact nullspace dimension of a square matrix: cols - matrix_rank.

    A Laplacian or an incidence-form matrix answers by its component count at
    any size; any other matrix is eliminated and refused beyond the dense
    cap. A nan or inf entry raises MagError.
    """
    return _square_size(matrix) - matrix_rank(matrix)
