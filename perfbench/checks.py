"""Independent routes the benchmark checks magraph's results against.

Everything here works from the generator's edge lists with numpy and
scipy.sparse.csgraph, never through magraph, except where a check compares
two of magraph's own routes that the paper defines as equivalent. Each check
returns None when the result is right and a one-line reason when it is not.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from gen import GenGraph


def digest(value) -> str:
    """Short sha256 of a result: bytes as given, anything else by its repr."""
    data = value if isinstance(value, bytes) else repr(value).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def result_digest(result) -> str:
    """Digest of a magraph result tuple, matrix or number."""
    if hasattr(result, "pattern"):  # ReachabilityMatrix
        p = result.pattern
        return digest(p.indptr.tobytes() + p.indices.tobytes() + repr(result.rho).encode())
    if hasattr(result, "disc_time"):
        return digest((result.disc_time, result.fin_time, result.pred, result.tau.sizes))
    if hasattr(result, "distance"):
        return digest((result.vertices, result.distance, result.pred, result.tau.sizes))
    if hasattr(result, "indegree"):
        return digest((result.indegree, result.outdegree, result.selfdegree, result.tau.sizes))
    return digest(result)


# ---------------------------------------------------------------------------
# graph structure from the generator


def builtin_graph(name: str) -> GenGraph:
    """A builtin example in generator form; magraph defines these inputs."""
    import magraph as mg

    mag = mg.builtin_example(name)
    tau = mg.companion_tuple(mag)
    edges = tuple(
        (mg.vertex_index(e.origin, tau) - 1, mg.vertex_index(e.destination, tau) - 1, e.weight)
        for e in mag.edges
    )
    return GenGraph(name, mag.aspects.sizes(), edges)


def adjacency(g: GenGraph) -> sp.csr_array:
    o = np.fromiter((e[0] for e in g.edges), np.int64, len(g.edges))
    d = np.fromiter((e[1] for e in g.edges), np.int64, len(g.edges))
    return sp.csr_array((np.ones(len(o)), (o, d)), shape=(g.n, g.n))


def image(sizes: tuple[int, ...], mask: int) -> tuple[np.ndarray, int]:
    """0-based sub-determined index of every vertex, and the sub-vertex count."""
    rest = np.arange(int(np.prod(sizes)), dtype=np.int64)
    out = np.zeros_like(rest)
    weight = 1
    for k, s in enumerate(sizes):
        digit = rest % s
        rest //= s
        if mask >> k & 1:
            out += digit * weight
            weight *= s
    return out, weight


def weak_components(adj: sp.csr_array) -> int:
    return csgraph.connected_components(adj, directed=True, connection="weak")[0]


def reach_oracle(adj: sp.csr_array) -> np.ndarray:
    """Dense boolean reachability (reflexive) by scipy's all-pairs BFS."""
    return np.isfinite(csgraph.shortest_path(adj, directed=True, unweighted=True))


def _reached(adj: sp.csr_array, seeds: np.ndarray) -> np.ndarray:
    """Vertices reachable from a seed set, through a virtual super-source."""
    n = adj.shape[0]
    coo = adj.tocoo()
    rows = np.concatenate([coo.row, np.full(len(seeds), n)])
    cols = np.concatenate([coo.col, seeds])
    aug = sp.csr_array((np.ones(len(rows)), (rows, cols)), shape=(n + 1, n + 1))
    order = csgraph.breadth_first_order(aug, n, directed=True, return_predecessors=False)
    return order[order < n]


# ---------------------------------------------------------------------------
# traversal checks


def check_bfs(adj: sp.csr_array, src: int, vertices, distance, pred) -> str | None:
    """Distances equal scipy's BFS; discovery order and predecessors agree with them."""
    ref = csgraph.shortest_path(adj, directed=True, unweighted=True, indices=src)
    got = np.array([math.inf if x == math.inf else float(x) for x in distance])
    if not np.array_equal(got, ref):
        return f"bfs from {src + 1}: distances differ from scipy"
    if sorted(vertices) != sorted((np.flatnonzero(np.isfinite(ref)) + 1).tolist()):
        return f"bfs from {src + 1}: vertex set differs from scipy"
    if vertices[0] != src + 1 or any(
        got[a - 1] > got[b - 1] for a, b in zip(vertices, vertices[1:])
    ):
        return f"bfs from {src + 1}: discovery order not by distance"
    for v, p in enumerate(pred):
        if p is None:
            if math.isfinite(got[v]) and v != src:
                return f"bfs: reached vertex {v + 1} has no predecessor"
        elif got[p - 1] + 1 != got[v] or adj[p - 1, v] == 0:
            return f"bfs: predecessor {p} of {v + 1} is not a tree edge"
    return None


def check_bfs_sub(adj, sizes, mask, src_sub: int, vertices) -> str | None:
    """Sub-determined vertex set equals the image of what the seeds reach."""
    img, _ = image(sizes, mask)
    seeds = np.flatnonzero(img == src_sub)
    want = sorted(set((img[_reached(adj, seeds)] + 1).tolist()))
    if vertices[0] != src_sub + 1 or sorted(vertices) != want:
        return f"bfs_sub from {src_sub + 1}: vertex set differs from scipy"
    return None


def check_dfs(adj: sp.csr_array, disc, fin, pred) -> str | None:
    """Timestamps form a forest's parenthesis structure over adjacency edges."""
    n = adj.shape[0]
    if len(disc) != n or sorted(list(disc) + list(fin)) != list(range(2 * n)):
        return "dfs: timestamps are not a permutation of 0..2n-1"
    for v, p in enumerate(pred):
        if disc[v] >= fin[v]:
            return f"dfs: vertex {v + 1} finishes before it starts"
        if p is None:
            continue
        u = p - 1
        if adj[u, v] == 0:
            return f"dfs: tree edge {p}->{v + 1} is not an edge"
        if not disc[u] < disc[v] < fin[v] < fin[u]:
            return f"dfs: tree edge {p}->{v + 1} breaks nesting"
    return None


def aggregated(adj: sp.csr_array, sizes, mask) -> sp.csr_array:
    """Pattern of the sub-determined adjacency, built from the edge images."""
    img, m = image(sizes, mask)
    coo = adj.tocoo()
    return sp.csr_array(
        (np.ones(coo.nnz), (img[coo.row], img[coo.col])), shape=(m, m)
    )


def check_reach(pattern, oracle: np.ndarray) -> str | None:
    """A reachability pattern equals scipy's all-pairs BFS."""
    rows, cols = pattern.shape
    dense = np.zeros((rows, cols), dtype=bool)
    counts = np.diff(pattern.indptr)
    dense[np.repeat(np.arange(rows), counts), pattern.indices] = True
    if not np.array_equal(dense, oracle):
        return "reachability differs from scipy all-pairs BFS"
    return None


# ---------------------------------------------------------------------------
# degrees


def degrees(g: GenGraph, mask: int | None = None, separate_loops: bool = False):
    """(in, out, self) degree tuples by bincount over the edge images."""
    o = np.fromiter((e[0] for e in g.edges), np.int64, len(g.edges))
    d = np.fromiter((e[1] for e in g.edges), np.int64, len(g.edges))
    m = g.n
    if mask is not None:
        img, m = image(g.sizes, mask)
        o, d = img[o], img[d]
    loops = o == d
    selfdeg = None
    if separate_loops:
        selfdeg = tuple(np.bincount(o[loops], minlength=m).tolist())
        o, d = o[~loops], d[~loops]
    return (
        tuple(np.bincount(d, minlength=m).tolist()),
        tuple(np.bincount(o, minlength=m).tolist()),
        selfdeg,
    )
