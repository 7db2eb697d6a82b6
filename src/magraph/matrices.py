"""Matrix representations of a multi-aspect graph.

Adjacency and incidence matrices are always paired with the companion tuple;
the pair is lossless (mag_from_adjacency inverts adjacency_matrix exactly).
Row/column numbers are the 1-based vertex indices shifted down by one.

Also here: the trivial-component elimination matrix and its products, the
three Laplacians, the aggregation matrix of a sub-determination, and exact
rank and nullity (cols - rank), which read every stored entry at its exact
value, however small. An incidence-form matrix, a Laplacian and the float
image of a normalized Laplacian have rank cols - their component count, by
certificate (see matrix_rank); every other matrix is eliminated on sparse
integer rows and refused beyond the dense cap.
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
    NonBinaryEntryError,
    NonPositiveWeightError,
    NonzeroDiagonalError,
    ShapeMismatchError,
    TooLargeForDenseError,
    UnknownOptionError,
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
    original, since the removed rows/columns were zero. Any other kind raises
    UnknownOptionError.
    """
    if kind == "adjacency":
        return elimination.transpose() @ matrix @ elimination
    if kind == "incidence":
        return matrix @ elimination
    raise UnknownOptionError(f"kind must be 'adjacency' or 'incidence', got {kind!r}")


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
    return incidence.transpose() @ w @ incidence


def normalized_laplacian(incidence: SparseMatrix) -> SparseMatrix:
    """N·(C^T·C)·N where N_ii is the inverse Euclidean norm of column i of C.

    Columns of an incidence matrix hold one ±1 per incident edge, so the norm
    is sqrt(total degree). A column is trivial exactly when its degree is 0,
    and then N_ii = 0. The result has unit diagonal at every non-trivial vertex.
    """
    return _normalize(combinatorial_laplacian(incidence))


def _normalize(lap: SparseMatrix) -> SparseMatrix:
    """N·lap·N with N_ii = 1/sqrt(lap_ii), or 0 where lap_ii = 0: the one float
    normalization, which the normalized certificate rebuilds bit for bit."""
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


# the normalized certificate tries the scales m = 1..12, and refuses a degree
# ratio that could make some d_i·d_j exceed 2^52, where float64 stops being exact
_MAX_SCALE = 12
_MAX_DEGREE = 2.0**26


def _certified_rank(matrix: SparseMatrix) -> int | None:
    """cols - the component count of a graph-shaped matrix, which is its rank; None for any other.

    Incidence form: every row is empty or x·(e_i - e_j), stored entries x and
    -x, so the rows span the edges i-j of a graph on the columns (Biggs,
    Algebraic Graph Theory, Prop. 4.3); O(rows + cols + nnz·log nnz), as a
    cols x cols CSR sorts its entries. Laplacian: symmetric, off-diagonals
    <= 0, every row sums to exactly zero (math.fsum is exact), so it is D - A
    with A >= 0 like every C^T·W·C with W > 0, and x^T·L·x = 1/2·sum
    a_ij·(x_i - x_j)^2 vanishes exactly on the vectors constant on each
    component; O(n + nnz·log nnz) for the transpose. Normalized Laplacian:
    symmetric, and bit for bit _normalize(D - A) of an integer Laplacian
    (_normalized_rank), whose real form D^-1/2·(D - A)·D^-1/2 has nullity the
    component count (Chung, Spectral Graph Theory, Lemma 1.7).
    """
    counts = np.diff(matrix.indptr)
    if np.all((counts == 0) | (counts == 2)):  # each nonempty row is then one consecutive pair of entries
        ends, scales = matrix.indices.reshape(-1, 2), matrix.values.reshape(-1, 2)
        if np.array_equal(scales[:, 0], -scales[:, 1]):  # bit-exact, as no zero, nan or inf is stored here
            edges = SparseMatrix.from_coo(matrix.cols, matrix.cols, *ends.T, np.ones(len(ends)))
            return matrix.cols - edges.component_labels()[0]
    if matrix.rows != matrix.cols or np.any(matrix.values[matrix.entry_rows != matrix.indices] > 0):
        return None
    if not matrix.equals(matrix.transpose()):
        return None
    data, indptr = matrix.values.tolist(), matrix.indptr.tolist()
    if all(math.fsum(data[lo:hi]) == 0.0 for lo, hi in zip(indptr, indptr[1:])):
        return matrix.cols - matrix.component_labels()[0]
    return _normalized_rank(matrix)


def _normalized_rank(matrix: SparseMatrix) -> int | None:
    """cols - the component count if the symmetric matrix with off-diagonals <= 0
    is bit for bit _normalize(D - A) of an integer Laplacian; None otherwise.

    Every nonempty row must hold a diagonal within 4 ulps of 1 and every column
    index a nonempty row. Let s be the null vector of a component's dense
    block. Each component tries m = 1..12: d = rint(m·(s/s_min)^2) and
    A_ij = rint(-N_ij·sqrt(d_i·d_j)) on its stored off-diagonals. It is
    accepted at the first m where A >= 1, its rows of A sum to d and its rows
    of _normalize(diag(d) - A) equal the stored ones bit for bit; a single m
    for all components would not do, as a triangle needs m = 2 and a path of
    three vertices fails at 2. Only the bit-exact rebuild accepts, so s can be
    any guess. None for a component above the dense cap.
    """
    n, rows, cols, values = matrix.rows, matrix.entry_rows, matrix.indices, matrix.values
    nonempty = np.diff(matrix.indptr) > 0
    if not nonempty[cols].all() or np.any(np.abs(matrix.diagonal()[nonempty] - 1.0) > 4 * np.finfo(float).eps):
        return None
    count, labels = matrix.component_labels()
    sizes = np.bincount(labels, minlength=count)
    if sizes.max(initial=0) > DENSE_CAP:
        return None
    ratios = _degree_ratios(matrix, labels, sizes)
    if not np.all(ratios <= _MAX_DEGREE / _MAX_SCALE):  # also refuses the nan of an s_min of 0
        return None
    on, off = rows == cols, rows != cols
    i, j = rows[off], cols[off]
    accepted = np.zeros(count, dtype=bool)
    accepted[labels[~nonempty]] = True  # an empty row is a component of its own with nothing to rebuild
    for m in range(1, _MAX_SCALE + 1):
        d = np.rint(m * ratios)
        a = np.rint(-values[off] * np.sqrt(d[i] * d[j]))
        lap = np.empty(len(values))
        lap[on], lap[off] = d[rows[on]], -np.maximum(a, 1.0)
        # on the matrix's own pattern every product is nonzero, so the rebuild stores its entries in the same places
        rebuilt = _normalize(SparseMatrix(matrix.shape, matrix.indptr, cols, lap))
        wrong = np.bincount(rows, rebuilt.values != values, n) + np.bincount(i, a < 1, n) > 0
        wrong |= np.bincount(i, a, n) != d
        accepted |= np.bincount(labels, wrong & nonempty, count) == 0
        if accepted.all():
            return matrix.cols - count
    return None


def _degree_ratios(matrix: SparseMatrix, labels: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """(s/s_min)^2 per vertex, s = |the eigenvector at the least eigenvalue| of its component's dense block.

    Components of k vertices share batched eigh calls of at most 2^20 cells,
    after vertices and entries are sorted by component.
    """
    order = np.argsort(sizes[labels] * len(sizes) + labels, kind="stable")  # by component, components by size
    at = np.empty_like(order)
    at[order] = np.arange(len(order))
    block_sizes = sizes[labels[order]]
    rows, cols = at[matrix.entry_rows], at[matrix.indices]
    by_row = np.argsort(rows, kind="stable")
    sorted_rows = rows[by_row]
    ratios = np.empty(len(order))
    for k in np.unique(sizes).tolist():
        lo, hi = np.searchsorted(block_sizes, [k, k + 1])
        step = k * max(1, 2**20 // k**2)
        for start in range(lo, hi, step):
            stop = min(start + step, hi)
            e = by_row[slice(*np.searchsorted(sorted_rows, [start, stop]))]
            blocks = np.zeros(((stop - start) // k, k, k))
            blocks[(rows[e] - start) // k, (rows[e] - start) % k, (cols[e] - start) % k] = matrix.values[e]
            s = np.abs(np.linalg.eigh(blocks)[1][:, :, 0])
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios[order[start:stop]] = (s / s.min(axis=1, keepdims=True)).ravel() ** 2
    return ratios


def matrix_rank(matrix: SparseMatrix) -> int:
    """Exact rank: by certificate for a graph-shaped matrix, by elimination otherwise.

    The certificate (_certified_rank) answers an incidence-form matrix or a
    Laplacian at any size in O(rows + cols + nnz·log nnz). It answers the
    float image of a normalized Laplacian, bit for bit _normalize(D - A) of an
    integer Laplacian, in O(n·log n + nnz·log nnz + Σ k_c^3) when each of its
    components has k_c <= DENSE_CAP vertices, and none otherwise. That answer
    is the rank of the real normalized Laplacian whose float image the matrix
    is, cols - its component count, not the rank of the rounded matrix.
    Elimination is fraction-free on sparse integer rows: every stored entry
    is read at its exact value k/2^e, so a row scaled by its largest
    denominator is an exact int row. Each step pivots on the smallest
    leading column (the row there with the fewest entries) and updates only
    the rows that lead there: row = p·row - f·pivot, over its gcd. O(nnz)
    while rows stay sparse; fill-in can cost O(r·n^2) big-int operations, so
    elimination refuses a side beyond the dense cap.
    """
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
    any size, and a normalized Laplacian's float image does when no component
    exceeds the dense cap; any other matrix is eliminated and refused beyond
    the dense cap.
    """
    return _square_size(matrix) - matrix_rank(matrix)
