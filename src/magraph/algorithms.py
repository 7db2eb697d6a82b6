"""Degree, breadth-first and depth-first search, and reachability.

Each operation exists both for composite vertices and in sub-determined form.
The sub-determined traversals run on the FULL graph and project discoveries
down, so aggregation cannot invent paths that the original graph lacks; a
search on the aggregated graph itself would (the matrix identity M·B·M^T vs
the closure of M·J·M^T exhibits the difference).

Iteration-order contract: successors are visited in ascending vertex index
(CSR row order), and outer loops run over ascending indices. Results are
1-based; unreached distances are math.inf and absent predecessors are None.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    CompanionTuple,
    CompositeVertex,
    Mag,
    SubDetermination,
    companion_tuple,
    composite_vertex_count,
    sub_companion_tuple,
    subdet_image,
    vertex_from_index,
    vertex_index,
)
from .errors import (
    IndexOutOfRangeError,
    MagError,
    ShapeMismatchError,
    TooLargeForDenseError,
    UnknownVertexError,
)
from .matrices import MatrixWithTuple, sub_determination_matrix, sub_determined_adjacency
from .sparse import DENSE_CAP, ZERO_TOLERANCE, SparseMatrix

WHITE, GRAY, BLACK = 0, 1, 2


@dataclass(frozen=True)
class DegreeResult:
    """Per-vertex in/out degrees; selfdegree only for the loop-separated form."""

    indegree: tuple[int, ...]
    outdegree: tuple[int, ...]
    selfdegree: tuple[int, ...] | None
    tau: CompanionTuple


@dataclass(frozen=True)
class BfsResult:
    """vertices: discovery-ordered 1-based indices; distance/pred per vertex."""

    vertices: tuple[int, ...]
    distance: tuple[float, ...]
    pred: tuple[int | None, ...]
    tau: CompanionTuple


@dataclass(frozen=True)
class DfsResult:
    """Discovery/finish timestamps (0..2n-1, all distinct) and predecessors."""

    disc_time: tuple[int, ...]
    fin_time: tuple[int, ...]
    pred: tuple[int | None, ...]
    tau: CompanionTuple


@dataclass(frozen=True)
class ReachabilityMatrix:
    """0/1 pattern with (u,v) nonzero iff v is reachable from u; unit diagonal."""

    pattern: SparseMatrix
    rho: float


# ---------------------------------------------------------------------------
# degree


def degree(mag: Mag) -> DegreeResult:
    """In/out degree of every composite vertex, counted from the edge arrays; O(n + |E|)."""
    tau = companion_tuple(mag)
    n = composite_vertex_count(tau)
    return DegreeResult(
        tuple(np.bincount(mag.destination, minlength=n).tolist()),
        tuple(np.bincount(mag.origin, minlength=n).tolist()),
        None,
        tau,
    )


def degree_from_adjacency(jm: MatrixWithTuple) -> DegreeResult:
    """Algebraic route: outdegree = J·1, indegree = J^T·1."""
    ones = np.ones(jm.matrix.cols)
    outdeg = jm.matrix.matvec(ones)
    indeg = jm.matrix.transpose().matvec(ones)
    return DegreeResult(
        tuple(int(round(x)) for x in indeg),
        tuple(int(round(x)) for x in outdeg),
        None,
        jm.tau,
    )


def sub_det_degree(
    mag: Mag, zeta: SubDetermination, separate_loops: bool = False
) -> DegreeResult:
    """Degrees of sub-determined vertices.

    Edges whose endpoints collapse together become self-loops; without
    separation each loop counts once in indegree and once in outdegree, with
    separation loops move to selfdegree and in/out exclude them.
    """
    tau = companion_tuple(mag)
    image = subdet_image(tau, zeta)
    tz = sub_companion_tuple(tau, zeta)
    n = composite_vertex_count(tz)
    o, d = image[mag.origin], image[mag.destination]
    selfdeg = None
    if separate_loops:
        loop = o == d
        selfdeg = tuple(np.bincount(o[loop], minlength=n).tolist())
        o, d = o[~loop], d[~loop]
    return DegreeResult(
        tuple(np.bincount(d, minlength=n).tolist()),
        tuple(np.bincount(o, minlength=n).tolist()),
        selfdeg,
        tz,
    )


def sub_det_degree_from_adjacency(
    jm: MatrixWithTuple, zeta: SubDetermination, separate_loops: bool = False
) -> DegreeResult:
    """Algebraic route: M·J^T·1 and M·J·1; selfdegree is the diagonal of M·J·M^T."""
    agg = sub_determination_matrix(jm.tau, zeta)
    ones = np.ones(jm.matrix.cols)
    indeg = agg.matvec(jm.matrix.transpose().matvec(ones))
    outdeg = agg.matvec(jm.matrix.matvec(ones))
    tz = sub_companion_tuple(jm.tau, zeta)
    if not separate_loops:
        return DegreeResult(
            tuple(int(round(x)) for x in indeg),
            tuple(int(round(x)) for x in outdeg),
            None,
            tz,
        )
    selfdeg = sub_determined_adjacency(jm.matrix, agg).diagonal()
    return DegreeResult(
        tuple(int(round(x)) for x in indeg - selfdeg),
        tuple(int(round(x)) for x in outdeg - selfdeg),
        tuple(int(round(x)) for x in selfdeg),
        tz,
    )


# ---------------------------------------------------------------------------
# BFS


def _source_index(source: CompositeVertex | Sequence[int], tau: CompanionTuple) -> int:
    try:
        return vertex_index(source, tau)
    except IndexOutOfRangeError as exc:
        raise UnknownVertexError(str(exc)) from None


def _successors(matrix: SparseMatrix, u: int):
    """0-based successor indices of 0-based u, ascending."""
    return matrix.row(u)[0]


def bfs(jm: MatrixWithTuple, source: CompositeVertex | Sequence[int]) -> BfsResult:
    """Queue BFS over the adjacency structure from one composite vertex; O(n+|E|)."""
    tau = jm.tau
    n = composite_vertex_count(tau)
    src = _source_index(source, tau) - 1
    distance = [math.inf] * n
    pred: list[int | None] = [None] * n
    color = [WHITE] * n
    order = [src + 1]
    distance[src] = 0
    color[src] = GRAY
    queue = deque([src])
    while queue:
        u = queue[0]
        for v in _successors(jm.matrix, u):
            v = int(v)
            if color[v] == WHITE:
                color[v] = GRAY
                order.append(v + 1)
                distance[v] = distance[u] + 1
                pred[v] = u + 1
                queue.append(v)
        queue.popleft()
        color[u] = BLACK
    return BfsResult(tuple(order), tuple(distance), tuple(pred), tau)


def bfs_sub(
    jm: MatrixWithTuple,
    zeta: SubDetermination,
    source: CompositeVertex | Sequence[int],
) -> BfsResult:
    """BFS seeded with every composite vertex that collapses onto the source.

    The walk itself runs on the full graph; discoveries are recorded per
    sub-determined vertex on first touch, so only paths that exist in the
    original graph can reach a sub-determined vertex. The source is given
    over the kept aspects only. O(n+|E|).
    """
    tau = jm.tau
    zeta.require_valid(tau.order)
    tz = sub_companion_tuple(tau, zeta)
    n = composite_vertex_count(tau)
    ns = composite_vertex_count(tz)
    src = _source_index(source, tz.restricted()) - 1

    image_array = subdet_image(tau, zeta)
    image = image_array.tolist()

    distance = [math.inf] * ns
    pred: list[int | None] = [None] * ns
    color_sub = [WHITE] * ns
    order = [src + 1]
    distance[src] = 0
    color_sub[src] = GRAY

    color = [WHITE] * n
    queue = deque(np.flatnonzero(image_array == src).tolist())
    for j in queue:
        color[j] = GRAY
    while queue:
        u = queue[0]
        for v in _successors(jm.matrix, u):
            v = int(v)
            if color[v] == WHITE:
                color[v] = GRAY
                queue.append(v)
                vs = image[v]
                if color_sub[vs] == WHITE:
                    color_sub[vs] = GRAY
                    order.append(vs + 1)
                    distance[vs] = distance[image[u]] + 1
                    pred[vs] = image[u] + 1
        queue.popleft()
        color[u] = BLACK
    return BfsResult(tuple(order), tuple(distance), tuple(pred), tz)


# ---------------------------------------------------------------------------
# reachability


def _spectral_bound(matrix: SparseMatrix) -> float:
    """rho below 1/spectral radius: half the inverse max row sum (at least 1)."""
    if matrix.nnz == 0:
        return 0.5
    row_sums = matrix.matvec(np.ones(matrix.cols))
    return 1.0 / (2.0 * max(1.0, float(row_sums.max())))


def transitive_closure_pattern(matrix: SparseMatrix) -> SparseMatrix:
    """Reflexive-transitive closure pattern by BFS from every vertex."""
    n = matrix.rows
    entries = []
    for s in range(n):
        seen = [False] * n
        seen[s] = True
        stack = [s]
        while stack:
            u = stack.pop()
            for v in matrix.row(u)[0]:
                v = int(v)
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        entries.extend((s, v, 1.0) for v in range(n) if seen[v])
    return SparseMatrix.from_entries(n, n, entries)


def reachability(jm: MatrixWithTuple, method: str = "closure") -> ReachabilityMatrix:
    """0/1 reachability pattern: entry (u,v) nonzero iff v is reachable from u.

    method="closure" (default, exact at any size) runs BFS per vertex;
    "series" iterates the scaled Neumann sum I + (rho·J) + (rho·J)^2 + ...
    to its pattern fixpoint, re-binarizing each iterate (values are
    irrelevant, only the pattern is kept); "inverse" densely inverts
    I - rho·J (only within the dense cap) and keeps the entries above
    0.5·rho^(n-1). All methods produce the same pattern, or "inverse" raises.

    The cutoff rests on this: the transpose of I - rho·J is an M-matrix
    with column sums >= 1/2, so LU with partial pivoting makes no row
    interchanges, and every update adds same-signed terms. An unreachable
    pair's entry is then exactly 0.0, and a reachable one (>= rho^(n-1))
    has a small relative error. Once the cutoff underflows (dense graphs,
    n in the hundreds), a reachable entry below 2^-1074 rounds to 0.0, so
    the pattern is checked to be closed under J; MagError if it is not.
    """
    matrix = jm.matrix
    if matrix.rows != matrix.cols:
        raise ShapeMismatchError(f"adjacency must be square, got {matrix.shape}")
    n = matrix.rows
    rho = _spectral_bound(matrix)
    if method == "closure":
        pattern = transitive_closure_pattern(matrix)
    elif method == "series":
        scaled = matrix.scale(rho).pattern(ZERO_TOLERANCE)
        acc = SparseMatrix.identity(n)
        for _ in range(n):
            grown = (acc + (acc @ scaled)).pattern(ZERO_TOLERANCE)
            if grown.nnz == acc.nnz:
                break
            acc = grown
        pattern = acc
    elif method == "inverse":
        if n > DENSE_CAP:
            raise TooLargeForDenseError(
                f"inverse method needs a dense {n}x{n} solve (cap {DENSE_CAP})"
            )
        walks = np.linalg.inv(np.eye(n) - rho * matrix.to_dense().T).T
        pattern = SparseMatrix.from_dense(walks > 0.5 * rho ** max(n - 1, 1))
        if (pattern + pattern @ matrix.pattern()).pattern().nnz != pattern.nnz:
            raise MagError(
                f"inverse reachability lost pairs to float underflow (n={n}, rho={rho:.3g})"
            )
    else:
        raise ValueError(f"method must be closure|series|inverse, got {method!r}")
    return ReachabilityMatrix(pattern, rho)


# ---------------------------------------------------------------------------
# DFS


def _dfs_forest(matrix: SparseMatrix, may_enter) -> DfsResult:
    """Shared DFS skeleton: ascending roots, ascending successors.

    may_enter(root, v) gates tree membership; the explicit stack reproduces
    the recursive visit's timestamps exactly.
    """
    n = matrix.rows
    disc = [-1] * n
    fin = [-1] * n
    pred: list[int | None] = [None] * n
    color = [WHITE] * n
    time = 0
    for root in range(n):
        if color[root] != WHITE:
            continue
        gate = may_enter(root)
        color[root] = GRAY
        disc[root] = time
        time += 1
        stack = [(root, iter(matrix.row(root)[0]))]
        while stack:
            u, it = stack[-1]
            entered = False
            for v in it:
                v = int(v)
                if color[v] == WHITE and gate(v):
                    pred[v] = u + 1
                    color[v] = GRAY
                    disc[v] = time
                    time += 1
                    stack.append((v, iter(matrix.row(v)[0])))
                    entered = True
                    break
            if not entered:
                stack.pop()
                color[u] = BLACK
                fin[u] = time
                time += 1
    return DfsResult(tuple(disc), tuple(fin), tuple(pred), CompanionTuple((n,)))


def dfs(jm: MatrixWithTuple) -> DfsResult:
    """Full-graph DFS over composite vertices; O(n+|E|)."""
    result = _dfs_forest(jm.matrix, lambda root: lambda v: True)
    return DfsResult(result.disc_time, result.fin_time, result.pred, jm.tau)


def dfs_sub(jm: MatrixWithTuple, zeta: SubDetermination) -> DfsResult:
    """DFS over the aggregated adjacency, gated by full-graph reachability.

    A successor joins a tree only if the sub-determined BFS from the tree's
    root (run on the full graph) reaches it, which keeps aggregation-only
    paths out of the forest. That is one full bfs_sub per tree root, so r
    trees cost O(r·(n+|E|)): quadratic when r grows with n.
    """
    tau = jm.tau
    zeta.require_valid(tau.order)
    tz = sub_companion_tuple(tau, zeta)
    restricted = tz.restricted()
    agg = sub_determination_matrix(tau, zeta)
    aggregated = sub_determined_adjacency(jm.matrix, agg)

    def may_enter(root: int):
        source = vertex_from_index(root + 1, restricted)
        reachable = set(bfs_sub(jm, zeta, source).vertices)
        return lambda v: (v + 1) in reachable

    result = _dfs_forest(aggregated, may_enter)
    return DfsResult(result.disc_time, result.fin_time, result.pred, tz)
