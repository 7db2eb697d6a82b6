"""Degree, breadth-first and depth-first search, and reachability.

Each operation exists both for composite vertices and in sub-determined form.
The sub-determined traversals run on the FULL graph and project discoveries
down, so aggregation cannot invent paths that the original graph lacks; a
search on the aggregated graph itself would (the matrix identity M·B·M^T vs
the closure of M·J·M^T exhibits the difference).

A MAG is isomorphic to the directed graph on its composite vertices, so
every breadth-first walk (bfs, bfs_sub, dfs_sub's gate, the closure) is one
SparseMatrix.breadth_first_order, scipy's csgraph BFS on the CSR pattern.

Iteration-order contract: successors are visited in ascending vertex index
(CSR row order), and outer loops run over ascending indices. Results are
1-based; unreached distances are math.inf and absent predecessors are None.
"""

from __future__ import annotations

import math
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
    vertex_index,
)
from .errors import (
    IndexOutOfRangeError,
    MagError,
    UnknownOptionError,
    UnknownVertexError,
)
from .matrices import MatrixWithTuple, _square_size, sub_determination_matrix, sub_determined_adjacency
from .sparse import SparseMatrix


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


def _int_tuple(counts: np.ndarray) -> tuple[int, ...]:
    """Integer-valued counts (bincounts or float products) as a tuple of ints."""
    return tuple(np.rint(counts).astype(np.int64).tolist())


def _image_degree(
    mag: Mag, image: np.ndarray, tau: CompanionTuple, separate_loops: bool
) -> DegreeResult:
    """Degrees of the image vertices, which tau numbers, from the edge arrays; O(n + |E|)."""
    size = composite_vertex_count(tau)
    o, d = image[mag.origin], image[mag.destination]
    selfdeg = None
    if separate_loops:
        loop = o == d
        selfdeg = _int_tuple(np.bincount(o[loop], minlength=size))
        o, d = o[~loop], d[~loop]
    indeg, outdeg = np.bincount(d, minlength=size), np.bincount(o, minlength=size)
    return DegreeResult(_int_tuple(indeg), _int_tuple(outdeg), selfdeg, tau)


def degree(mag: Mag) -> DegreeResult:
    """In/out degree of every composite vertex (identity image); O(n + |E|)."""
    tau = companion_tuple(mag)
    return _image_degree(mag, np.arange(composite_vertex_count(tau)), tau, False)


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
    return _image_degree(mag, image, sub_companion_tuple(tau, zeta), separate_loops)


def _aggregated_degree(
    jm: MatrixWithTuple, agg: SparseMatrix, tau: CompanionTuple, separate_loops: bool
) -> DegreeResult:
    """Algebraic route: M·J^T·1 and M·J·1; selfdegree is the diagonal of M·J·M^T."""
    j = jm.matrix
    indeg = agg.matvec(np.bincount(j.indices, j.values, j.cols))  # J^T·1 as column sums, row-major
    outdeg = agg.matvec(j.matvec(np.ones(j.cols)))
    if not separate_loops:
        return DegreeResult(_int_tuple(indeg), _int_tuple(outdeg), None, tau)
    selfdeg = sub_determined_adjacency(jm.matrix, agg).diagonal()
    return DegreeResult(
        _int_tuple(indeg - selfdeg), _int_tuple(outdeg - selfdeg), _int_tuple(selfdeg), tau
    )


def degree_from_adjacency(jm: MatrixWithTuple) -> DegreeResult:
    """Algebraic route with the identity aggregation: J^T·1 and J·1."""
    return _aggregated_degree(jm, SparseMatrix.identity(jm.matrix.rows), jm.tau, False)


def sub_det_degree_from_adjacency(
    jm: MatrixWithTuple, zeta: SubDetermination, separate_loops: bool = False
) -> DegreeResult:
    """Algebraic route through the aggregation matrix M of zeta."""
    agg = sub_determination_matrix(jm.tau, zeta)
    return _aggregated_degree(jm, agg, sub_companion_tuple(jm.tau, zeta), separate_loops)


# ---------------------------------------------------------------------------
# BFS


def _source_index(source: CompositeVertex | Sequence[int], tau: CompanionTuple) -> int:
    try:
        return vertex_index(source, tau)
    except IndexOutOfRangeError as exc:
        raise UnknownVertexError(str(exc)) from None


def _projected_bfs(
    graph: SparseMatrix, start: int, image: np.ndarray, tau: CompanionTuple
) -> BfsResult:
    """One BFS on graph from start, recorded per image vertex on first touch.

    image maps graph's vertices onto the size vertices tau numbers. A result
    vertex's predecessor is the image of the BFS parent of its first preimage
    touched; distances take one pass over that order. O(size + nnz + rows·log
    rows), since first touches are found by sorting the images of the BFS order.
    """
    size = composite_vertex_count(tau)
    order, parent = graph.breadth_first_order(start)
    images = image[order]
    first = np.sort(np.unique(images, return_index=True)[1])
    found = images[first]
    distance = [math.inf] * size
    pred: list[int | None] = [None] * size
    distance[found[0]] = 0
    for v, u in zip(found[1:].tolist(), image[parent[order[first[1:]]]].tolist()):
        distance[v] = distance[u] + 1
        pred[v] = u + 1
    return BfsResult(tuple((found + 1).tolist()), tuple(distance), tuple(pred), tau)


def bfs(jm: MatrixWithTuple, source: CompositeVertex | Sequence[int]) -> BfsResult:
    """FIFO-queue BFS from one composite vertex (identity image); O(n·log n + |E|)."""
    tau = jm.tau
    image = np.arange(composite_vertex_count(tau))
    return _projected_bfs(jm.matrix, _source_index(source, tau) - 1, image, tau)


def _with_virtual_sources(
    jm: MatrixWithTuple, zeta: SubDetermination
) -> tuple[SparseMatrix, np.ndarray, CompanionTuple]:
    """J's pattern plus a virtual source row n + s per sub-determined vertex s.

    Row n + s points at s's preimage, so a BFS from it dequeues that preimage
    first, in ascending order. Returns the graph, the image of its rows and
    the sub-determined tuple (whose construction validates zeta).
    """
    tz = sub_companion_tuple(jm.tau, zeta)
    size = composite_vertex_count(tz)
    image = subdet_image(jm.tau, zeta)
    n = jm.matrix.rows
    preimage = np.argsort(image, kind="stable")  # virtual rows ascend, so from_coo need not sort
    rows = np.concatenate([jm.matrix.entry_rows, n + image[preimage]])
    cols = np.concatenate([jm.matrix.indices, preimage])
    graph = SparseMatrix.from_coo(n + size, n + size, rows, cols, np.ones(len(rows)))
    return graph, np.concatenate([image, np.arange(size)]), tz


def bfs_sub(
    jm: MatrixWithTuple,
    zeta: SubDetermination,
    source: CompositeVertex | Sequence[int],
) -> BfsResult:
    """BFS seeded with every composite vertex that collapses onto the source.

    The walk itself runs on the full graph, from a virtual source whose
    successors are the source's preimage; discoveries are recorded per
    sub-determined vertex on first touch, so only paths that exist in the
    original graph can reach a sub-determined vertex. The source is given
    over the kept aspects only. O(n·log n + |E|).
    """
    graph, image, tz = _with_virtual_sources(jm, zeta)
    src = _source_index(source, tz.restricted()) - 1
    return _projected_bfs(graph, jm.matrix.rows + src, image, tz)


# ---------------------------------------------------------------------------
# reachability


# Most cells of one bool block of series' rows (4 MiB): one block of n rows while n <= 2048,
# more above. Each block repeats series' per-round overhead, so more blocks cost more rounds.
_SEEN_CELLS = 1 << 22


def _spectral_bound(matrix: SparseMatrix) -> float:
    """rho below 1/spectral radius: half the inverse max row sum (at least 1)."""
    row_sums = matrix.matvec(np.ones(matrix.cols))
    return 1.0 / (2.0 * max(1.0, float(row_sums.max(initial=0.0))))


def transitive_closure_pattern(matrix: SparseMatrix) -> SparseMatrix:
    """Reflexive-transitive closure pattern of a square matrix: row s is the
    sorted order of one BFS from s, written straight into P's CSR arrays.
    O(n·(n + nnz) + nnz(P)·log n) time; memory is P's arrays plus O(n)."""
    n = _square_size(matrix)
    # np.sort also copies each order out of csgraph's n-long buffer, which a view would keep alive
    reached = [np.sort(matrix.breadth_first_order(s)[0]) for s in range(n)]
    return SparseMatrix.from_sorted_rows(n, n, list(map(len, reached)), np.concatenate([np.empty(0, np.int64), *reached]))


def _series_pattern(edges: SparseMatrix) -> SparseMatrix:
    """I + J + J^2 + ... semi-naively, in bool blocks of max(1, 2^22 // n) rows.

    Each block runs its own rounds on its rows of Δ and reads back its row
    counts and, row-major, its columns: P's CSR arrays once concatenated.
    Memory is P's arrays plus O(n) and one bool block.
    """
    n = edges.rows
    height = max(1, _SEEN_CELLS // max(n, 1))

    def block(lo: int) -> tuple[np.ndarray, np.ndarray]:
        seen = np.zeros((min(height, n - lo), n), dtype=bool)
        rows = np.arange(len(seen))
        cols = lo + rows  # Δ0: the block's rows of I
        while len(rows):
            seen[rows, cols] = True
            reached = SparseMatrix.from_coo(len(seen), n, rows, cols, np.ones(len(rows)))
            step = reached @ edges  # walk counts, so every stored entry is >= 1
            rows, cols = step.entry_rows, step.indices
            new = ~seen[rows, cols]
            rows, cols = rows[new], cols[new]
        return seen.sum(axis=1), np.flatnonzero(seen) % n

    counts, cols = map(np.concatenate, zip((np.empty(0, np.int64),) * 2, *map(block, range(0, n, height))))
    return SparseMatrix.from_sorted_rows(n, n, counts, cols)


def reachability(jm: MatrixWithTuple, method: str = "closure") -> ReachabilityMatrix:
    """0/1 reachability pattern: entry (u,v) nonzero iff v is reachable from u.

    Every method works on the 0/1 pattern J of jm.matrix, a 1 at every stored entry
    however small, and rho is taken from J too. method="closure" (default) is
    transitive_closure_pattern, one BFS per vertex, whose sorted orders are P's rows:
    O(n·(n + nnz) + nnz(P)·log n). "series" grows I + J + J^2 + ... semi-naively:
    Δ0 = P0 = I, Δ(k+1) = pattern(Δk·J) minus Pk, P(k+1) = Pk + Δ(k+1) until Δ is
    empty, d <= n rounds. It marks P in bool blocks of max(1, 2^22 // n) rows, so
    "minus Pk" is a lookup, and each block runs its own rounds on its rows of Δ:
    O(n² bool cells + Σ_blocks Σk Fk·log Fk) in all, Fk >= nnz(Δk·J) the scalar
    products that Δk·J sorts, plus a few numpy calls and O(block rows) per round
    of each block. Both hand P's sorted rows to SparseMatrix.from_sorted_rows, which
    neither sorts nor keys them: P's arrays plus O(n) memory, series one bool block more.
    "inverse" densely inverts I - rho·J (only within the dense cap) and keeps
    the entries above 0.5·rho^(n-1). All methods agree, or "inverse" raises.
    Any other method raises UnknownOptionError before any work.

    The cutoff rests on this: the transpose of I - rho·J is an M-matrix
    with column sums >= 1/2, so LU with partial pivoting makes no row
    interchanges, and every update adds same-signed terms. An unreachable
    pair's entry is then exactly 0.0, and a reachable one (>= rho^(n-1))
    has a small relative error. Once the cutoff underflows (dense graphs,
    n in the hundreds), a reachable entry below 2^-1074 rounds to 0.0, so
    the pattern is checked to be closed under J; MagError if it is not.
    """
    if method not in ("closure", "series", "inverse"):
        raise UnknownOptionError(f"method must be closure|series|inverse, got {method!r}")
    n = _square_size(jm.matrix)
    edges = jm.matrix.pattern()
    rho = _spectral_bound(edges)
    if method == "closure":
        pattern = transitive_closure_pattern(edges)
    elif method == "series":
        pattern = _series_pattern(edges)
    else:
        dense = edges.to_dense()  # TooLargeForDenseError above DENSE_CAP
        reached = np.linalg.inv(np.eye(n) - rho * dense.T).T > 0.5 * rho ** max(n - 1, 1)
        if np.any((reached @ dense > 0) & ~reached):  # not closed under J
            raise MagError(
                f"inverse reachability lost pairs to float underflow (n={n}, rho={rho:.3g})"
            )
        pattern = SparseMatrix.from_dense(reached)
    return ReachabilityMatrix(pattern, rho)


# ---------------------------------------------------------------------------
# DFS


def _dfs_forest(matrix: SparseMatrix, may_enter, tau: CompanionTuple) -> DfsResult:
    """Shared DFS skeleton: ascending roots, ascending successors.

    may_enter(root) returns the gate v -> bool on tree membership; the
    explicit stack reproduces the recursive visit's timestamps exactly, and
    a vertex is unvisited while its discovery time is -1. Rows are slices of
    the CSR arrays turned into lists once, not numpy scalars. Not csgraph's
    depth_first_order: it rescans a row on every return (a star of 80k leaves
    took 3.4 s, this loop 0.28 s), a super-root over 40k isolated vertices
    took 1.0 s, and it gives no finish times.
    """
    n = matrix.rows
    indptr, indices = matrix.indptr.tolist(), matrix.indices.tolist()
    disc = [-1] * n
    fin = [-1] * n
    pred: list[int | None] = [None] * n
    time = 0
    for root in range(n):
        if disc[root] >= 0:
            continue
        gate = may_enter(root)
        disc[root] = time
        time += 1
        stack = [(root, iter(indices[indptr[root] : indptr[root + 1]]))]
        while stack:
            u, it = stack[-1]
            for v in it:
                if disc[v] < 0 and gate(v):
                    pred[v] = u + 1
                    disc[v] = time
                    time += 1
                    stack.append((v, iter(indices[indptr[v] : indptr[v + 1]])))
                    break
            else:
                stack.pop()
                fin[u] = time
                time += 1
    return DfsResult(tuple(disc), tuple(fin), tuple(pred), tau)


def dfs(jm: MatrixWithTuple) -> DfsResult:
    """Full-graph DFS over composite vertices; O(n+|E|)."""
    return _dfs_forest(jm.matrix, lambda root: lambda v: True, jm.tau)


def dfs_sub(jm: MatrixWithTuple, zeta: SubDetermination) -> DfsResult:
    """DFS over the aggregated adjacency, gated by full-graph reachability.

    A successor joins a tree only if a full-graph BFS from the tree root's
    preimage reaches it, which keeps aggregation-only paths out of the
    forest. bfs_sub's virtual-source graph is built once, but each of r trees
    runs one BFS, so r trees cost O(r·(n+|E|)): quadratic when r grows with n.
    """
    graph, image, tz = _with_virtual_sources(jm, zeta)
    ns = composite_vertex_count(tz)
    aggregated = sub_determined_adjacency(jm.matrix, sub_determination_matrix(jm.tau, zeta))

    def may_enter(root: int):
        reached = np.zeros(ns, dtype=bool)
        reached[image[graph.breadth_first_order(jm.matrix.rows + root)[0]]] = True
        return reached.tolist().__getitem__

    return _dfs_forest(aggregated, may_enter, tz)
