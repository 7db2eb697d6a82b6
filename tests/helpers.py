"""Shared test utilities: random graph generation and independent oracles.

The oracles deliberately avoid the library's CSR code paths: they run on
dense numpy arrays (boolean matrix squaring for reachability, Floyd-Warshall
for hop counts) so traversal bugs cannot hide in shared machinery.
"""

import math
import random
from fractions import Fraction

import numpy as np

from magraph import (
    Aspect,
    AspectList,
    CompanionTuple,
    MagEdge,
    SparseMatrix,
    build_mag,
    vertex_from_index,
)


def from_entries(rows, cols, entries):
    """SparseMatrix of 0-based (row, col, value) triplets; duplicates are summed."""
    triples = list(entries)
    ii, jj, vv = zip(*triples) if triples else ((), (), ())
    return SparseMatrix.from_coo(rows, cols, ii, jj, vv)


def zeros(rows, cols):
    return SparseMatrix.from_coo(rows, cols, [], [], [])


def row(matrix, i):
    """(column indices, values) of row i, as slices of the CSR arrays."""
    lo, hi = matrix.indptr[i], matrix.indptr[i + 1]
    return matrix.indices[lo:hi], matrix.values[lo:hi]


def entry(matrix, i, j) -> float:
    """Stored value at (i, j), or 0.0, by a search of row i."""
    cols, vals = row(matrix, i)
    k = np.searchsorted(cols, j)
    return float(vals[k]) if k < len(cols) and cols[k] == j else 0.0


def allclose(a, b, tol=1e-12) -> bool:
    """Same shape, and every entry within tol (absent entries are zero)."""
    return a.shape == b.shape and np.allclose(a.to_dense(), b.to_dense(), rtol=0, atol=tol)


def random_mag(rng: random.Random, p=None, max_size=4, density=0.3, weights=False,
               name="random"):
    """A random graph: p aspects with sizes in [1, max_size], iid edges."""
    if p is None:
        p = rng.randint(1, 3)
    sizes = tuple(rng.randint(1, max_size) for _ in range(p))
    aspects = AspectList(
        tuple(
            Aspect(f"a{i + 1}", tuple(str(k + 1) for k in range(s)))
            for i, s in enumerate(sizes)
        )
    )
    tau = CompanionTuple(sizes)
    n = math.prod(sizes)
    edges = []
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            if u == v or rng.random() >= density:
                continue
            origin = aspects.vertex_from_numeric(vertex_from_index(u, tau))
            dest = aspects.vertex_from_numeric(vertex_from_index(v, tau))
            # dyadic weights keep C^T W C exact in float64, so the rational
            # rank/nullspace oracle stays applicable
            w = rng.randrange(1, 33) / 8.0 if weights else 1.0
            edges.append(MagEdge(origin, dest, w))
    return build_mag(aspects, edges, name)


def dense_adjacency(mag) -> np.ndarray:
    """Dense 0/1 adjacency built straight from the edge list (no CSR code)."""
    from magraph import companion_tuple, composite_vertex_count, vertex_index

    tau = companion_tuple(mag)
    n = composite_vertex_count(tau)
    a = np.zeros((n, n), dtype=bool)
    for e in mag.edges:
        a[vertex_index(e.origin, tau) - 1, vertex_index(e.destination, tau) - 1] = True
    return a


def closure_oracle(adj: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure by repeated boolean matrix squaring."""
    reach = adj | np.eye(adj.shape[0], dtype=bool)
    while True:
        squared = reach | (reach @ reach)
        if np.array_equal(squared, reach):
            return reach
        reach = squared


def components_oracle(adj: np.ndarray) -> int:
    """Weakly connected components: distinct rows of the symmetrized closure."""
    return len({row.tobytes() for row in closure_oracle(adj | adj.T)})


def hop_counts_oracle(adj: np.ndarray) -> np.ndarray:
    """All-pairs shortest hop counts via Floyd-Warshall (inf when unreachable)."""
    n = adj.shape[0]
    dist = np.where(adj, 1.0, np.inf)
    np.fill_diagonal(dist, 0.0)
    for k in range(n):
        dist = np.minimum(dist, dist[:, [k]] + dist[[k], :])
    return dist


def degree_oracle(mag, zeta=None, separate_loops=False):
    """(indegree, outdegree, selfdegree) by a loop over MagEdge objects.

    With a sub-determination, endpoints are indexed under the sub-determined
    companion tuple, and with separate_loops collapsed edges count only as
    self-loops (selfdegree is None otherwise).
    """
    from magraph import (
        companion_tuple,
        composite_vertex_count,
        sub_companion_tuple,
        vertex_index,
    )

    tau = companion_tuple(mag)
    if zeta is not None:
        tau = sub_companion_tuple(tau, zeta)
    n = composite_vertex_count(tau)
    indeg, outdeg, selfdeg = [0] * n, [0] * n, [0] * n
    for e in mag.edges:
        o = vertex_index(e.origin, tau) - 1
        d = vertex_index(e.destination, tau) - 1
        if separate_loops and o == d:
            selfdeg[o] += 1
        else:
            outdeg[o] += 1
            indeg[d] += 1
    return tuple(indeg), tuple(outdeg), tuple(selfdeg) if separate_loops else None


def rank_oracle(matrix) -> int:
    """Exact rank by dense Gaussian elimination over Fractions (largest pivot).

    Every float converts to its exact rational value, however small.
    """
    a = [[Fraction(x) for x in row] for row in matrix.to_dense().tolist()]
    rows, cols = matrix.rows, matrix.cols
    rank = 0
    for c in range(cols):
        pivot = max(range(rank, rows), key=lambda i: abs(a[i][c]), default=None)
        if pivot is None or a[pivot][c] == 0:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = 1 / a[rank][c]
        for i in range(rank + 1, rows):
            if a[i][c]:
                factor = a[i][c] * inv
                a[i] = [x - factor * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def check_dfs_structure(result, n):
    """Timestamps 0..2n-1, each tree edge nests its child, intervals nest or are disjoint."""
    stamps = sorted(result.disc_time + result.fin_time)
    assert stamps == list(range(2 * n))
    for v in range(n):
        assert result.disc_time[v] < result.fin_time[v]
        p = result.pred[v]
        if p is not None:
            # tree edges nest child intervals inside the parent's
            assert result.disc_time[p - 1] < result.disc_time[v]
            assert result.fin_time[v] < result.fin_time[p - 1]
    for u in range(n):
        for v in range(u + 1, n):
            du, fu = result.disc_time[u], result.fin_time[u]
            dv, fv = result.disc_time[v], result.fin_time[v]
            nested = (du < dv and fv < fu) or (dv < du and fu < fv)
            disjoint = fu < dv or fv < du
            assert nested or disjoint
