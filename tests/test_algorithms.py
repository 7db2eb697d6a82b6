"""Traversals, degrees, and reachability against worked results and oracles."""

import math
import random

import numpy as np
import pytest

from magraph import (
    CompanionTuple,
    MagError,
    MatrixWithTuple,
    ShapeMismatchError,
    SparseMatrix,
    SubDetermination,
    TooLargeForDenseError,
    UnknownVertexError,
    adjacency_matrix,
    bfs,
    bfs_sub,
    build_mag,
    composite_vertex_count,
    degree,
    degree_from_adjacency,
    dfs,
    dfs_sub,
    reachability,
    sub_companion_tuple,
    sub_det_degree,
    sub_det_degree_from_adjacency,
    sub_determination_matrix,
    sub_determined_adjacency,
    transitive_closure_pattern,
    vertex_from_index,
)
import expected_builtin as ref
from helpers import (
    check_dfs_structure,
    closure_oracle,
    dense_adjacency,
    entry,
    hop_counts_oracle,
    random_mag,
    row,
)

INF = math.inf


# ---------------------------------------------------------------------------
# degree


def test_degree_worked_values(mag_t):
    result = degree(mag_t)
    # vertex 2 = (2,Bus,t1), vertex 10 = (1,Subway,t2)
    assert result.outdegree[1] == 3 and result.indegree[1] == 1
    assert result.outdegree[9] == 2 and result.indegree[9] == 2
    assert sum(result.indegree) == sum(result.outdegree) == 22


def test_degree_edgeless():
    mag = build_mag([("A", ["a", "b"]), ("B", ["x"])], [], "e")
    result = degree(mag)
    assert set(result.indegree) == {0} and set(result.outdegree) == {0}


def test_degree_algebraic_equivalence():
    rng = random.Random(41)
    for _ in range(30):
        mag = random_mag(rng)
        combinational = degree(mag)
        algebraic = degree_from_adjacency(adjacency_matrix(mag))
        assert combinational == algebraic


def test_sub_det_degree_locmode(mag_t):
    z = SubDetermination.from_bits("011")
    plain = sub_det_degree(mag_t, z)
    assert plain.indegree == ref.DEGREE_SUB_LOCMODE_IN
    assert plain.outdegree == ref.DEGREE_SUB_LOCMODE_OUT
    assert plain.selfdegree is None
    separated = sub_det_degree(mag_t, z, separate_loops=True)
    assert separated.selfdegree == ref.DEGREE_SUB_LOCMODE_SELF
    # separation moves loop counts out of in/out
    for a, b, s in zip(separated.indegree, plain.indegree, separated.selfdegree):
        assert a + s == b


def test_sub_det_degree_time(mag_t):
    z = SubDetermination.from_bits("100")
    plain = sub_det_degree(mag_t, z)
    assert plain.indegree == ref.DEGREE_SUB_TIME_IN
    assert plain.outdegree == ref.DEGREE_SUB_TIME_OUT
    separated = sub_det_degree(mag_t, z, separate_loops=True)
    assert separated.selfdegree == ref.DEGREE_SUB_TIME_SELF
    assert sum(separated.indegree) + sum(separated.selfdegree) == 22


def test_sub_det_degree_algebraic_equivalence():
    rng = random.Random(43)
    for _ in range(30):
        mag = random_mag(rng, p=rng.randint(2, 3))
        p = mag.order
        z = SubDetermination(rng.randint(1, 2**p - 2))
        jm = adjacency_matrix(mag)
        for separate in (False, True):
            combinational = sub_det_degree(mag, z, separate)
            algebraic = sub_det_degree_from_adjacency(jm, z, separate)
            assert combinational == algebraic


def test_degree_conservation():
    rng = random.Random(47)
    for _ in range(30):
        mag = random_mag(rng, p=rng.randint(2, 3))
        p = mag.order
        z = SubDetermination(rng.randint(1, 2**p - 2))
        m = len(mag.edges)
        plain = sub_det_degree(mag, z)
        assert sum(plain.indegree) == sum(plain.outdegree) == m
        separated = sub_det_degree(mag, z, separate_loops=True)
        assert sum(separated.indegree) + sum(separated.selfdegree) == m
        assert sum(separated.outdegree) + sum(separated.selfdegree) == m


# ---------------------------------------------------------------------------
# BFS


def test_bfs_worked_result(mag_t):
    jm = adjacency_matrix(mag_t)
    result = bfs(jm, mag_t.aspects.vertex(("2", "Bus", "t1")))
    assert result.vertices == ref.BFS_T_FROM_2["vertices"]
    assert result.distance == ref.BFS_T_FROM_2["distance"]
    assert result.pred == ref.BFS_T_FROM_2["pred"]


def test_bfs_sink_source(mag_t):
    jm = adjacency_matrix(mag_t)
    result = bfs(jm, mag_t.aspects.vertex(("1", "Bus", "t1")))  # trivial vertex 1
    assert result.vertices == (1,)
    assert result.distance[0] == 0
    assert all(math.isinf(d) for d in result.distance[1:])
    assert all(p is None for p in result.pred)


def test_bfs_unknown_source(mag_t):
    jm = adjacency_matrix(mag_t)
    with pytest.raises(UnknownVertexError):
        bfs(jm, (5, 0, 0))
    with pytest.raises(UnknownVertexError):
        bfs(jm, (0, 0))


def test_bfs_invariants_random():
    rng = random.Random(53)
    for _ in range(25):
        mag = random_mag(rng)
        jm = adjacency_matrix(mag)
        n = composite_vertex_count(jm.tau)
        src = rng.randint(1, n)
        result = bfs(jm, vertex_from_index(src, jm.tau))
        assert result.distance[src - 1] == 0 and result.pred[src - 1] is None
        for v in range(1, n + 1):
            reached = v in result.vertices
            assert reached == (not math.isinf(result.distance[v - 1]))
            if reached and v != src:
                p = result.pred[v - 1]
                assert result.distance[p - 1] + 1 == result.distance[v - 1]
            if not reached:
                assert result.pred[v - 1] is None


def test_bfs_against_oracles():
    rng = random.Random(59)
    for _ in range(25):
        mag = random_mag(rng)
        adj = dense_adjacency(mag)
        reach = closure_oracle(adj)
        hops = hop_counts_oracle(adj)
        jm = adjacency_matrix(mag)
        n = adj.shape[0]
        for src in range(1, n + 1):
            result = bfs(jm, vertex_from_index(src, jm.tau))
            assert set(result.vertices) == {
                v + 1 for v in range(n) if reach[src - 1, v]
            }
            assert np.array_equal(np.array(result.distance), hops[src - 1])


# ---------------------------------------------------------------------------
# reachability


def test_reachability_row_matches_bfs(mag_t):
    jm = adjacency_matrix(mag_t)
    for method in ("closure", "series", "inverse"):
        res = reachability(jm, method)
        cols = set(row(res.pattern, 1)[0] + 1)
        assert cols == {2, 5, 8, 9, 10, 11, 14, 15, 16, 17}
        assert np.array_equal(res.pattern.diagonal(), np.ones(18))


def test_reachability_methods_agree():
    rng = random.Random(61)
    for _ in range(25):
        mag = random_mag(rng)
        jm = adjacency_matrix(mag)
        base = reachability(jm, "closure").pattern
        assert reachability(jm, "series").pattern == base
        assert reachability(jm, "inverse").pattern == base
        expected = closure_oracle(dense_adjacency(mag))
        assert np.array_equal(base.to_dense() > 0, expected)


def test_reachability_acyclic_series_terminates():
    # R is acyclic, so the unscaled powers vanish and the plain sum is finite
    from magraph import builtin_example

    jm = adjacency_matrix(builtin_example("R"))
    j = jm.matrix
    power = j
    total = j.to_dense() + np.eye(6)
    for _ in range(10):
        power = power @ j
        total += power.to_dense()
    assert power.nnz == 0  # nilpotent
    assert np.array_equal(
        total > 0, reachability(jm, "series").pattern.to_dense() > 0
    )


def test_reachability_edgeless_identity():
    mag = build_mag([("A", ["a", "b", "c"])], [], "e")
    jm = adjacency_matrix(mag)
    for method in ("closure", "series", "inverse"):
        assert np.array_equal(
            reachability(jm, method).pattern.to_dense(), np.eye(3)
        )


def test_reachability_long_path_inverse():
    labels = [str(i) for i in range(30)]
    mag = build_mag([("V", labels)], [], "path")
    aspects = mag.aspects
    edges = [aspects.edge((labels[i],), (labels[i + 1],)) for i in range(29)]
    mag = build_mag(aspects, edges, "path")
    jm = adjacency_matrix(mag)
    assert reachability(jm, "inverse").pattern == reachability(jm, "closure").pattern


def _jm(n, edges):
    o, d = zip(*edges)
    return MatrixWithTuple(SparseMatrix.from_coo(n, n, o, d, np.ones(len(o))), CompanionTuple((n,)))


def _random_jm(n, edges, seed):
    rng = random.Random(seed)
    return _jm(n, sorted({(rng.randrange(n), rng.randrange(n)) for _ in range(edges)}))


def _same_bytes(want, got):
    for a, b in zip((want.indptr, want.indices, want.values), (got.indptr, got.indices, got.values)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# query-mix digests these bytes and checks series against closure by digest;
# the directed path needs the most semi-naive rounds (n); series marks P in
# one bool block while n <= 2048 and in blocks of 2^22 // n rows above, and
# the closure builds P from its BFS orders at every n
@pytest.mark.parametrize("case", ["T", "R", "edgeless", "path", "at_limit", "above_limit", "path_above_limit"])
def test_series_bytes_match_closure(case):
    from magraph import builtin_example

    if case == "edgeless":
        jm = adjacency_matrix(build_mag([("A", ["a", "b", "c"])], [], "e"))
    elif case == "path":
        jm = _jm(400, [(v, v + 1) for v in range(399)])
    elif case == "at_limit":
        jm = _random_jm(2048, 2048, 20)
    elif case == "above_limit":
        jm = _random_jm(2100, 300, 21)
    elif case == "path_above_limit":
        jm = _jm(2049, [(v, v + 1) for v in range(2048)])
    else:
        jm = adjacency_matrix(builtin_example(case))
    closure, series = (reachability(jm, method) for method in ("closure", "series"))
    assert closure.pattern.indptr.dtype == closure.pattern.indices.dtype == np.int64
    _same_bytes(closure.pattern, series.pattern)
    assert np.all(series.pattern.values == 1.0)
    assert series.rho == closure.rho


def test_reachability_row_blocks_give_the_same_bytes(monkeypatch):
    """With 64-cell blocks series runs through many row blocks, some ending
    in a partly filled block, and gives the bytes of one block; the closure,
    which uses no block, gives the same bytes too."""
    from magraph import algorithms, builtin_example

    graphs = [adjacency_matrix(builtin_example(name)) for name in "TR"]
    graphs.append(adjacency_matrix(build_mag([("A", ["a", "b", "c"])], [], "e")))
    # blocks of 64 // n rows: T 6 x 3, n = 9 and 20 end in a block of 2, n = 50 takes 50
    graphs += [_random_jm(n, 2 * n, seed) for n, seed in [(9, 1), (20, 2), (20, 3), (50, 4)]]
    want = [[reachability(g, m).pattern for m in ("closure", "series")] for g in graphs]
    monkeypatch.setattr(algorithms, "_SEEN_CELLS", 64)
    for g, patterns in zip(graphs, want):
        for method, pattern in zip(("closure", "series"), patterns):
            _same_bytes(pattern, reachability(g, method).pattern)


@pytest.mark.parametrize("n", [2048, 2100, 4100])
def test_reachability_peak_within_one_block(n):
    """series allocates one bool block of at most 2^22 cells at a time, never
    n x n: its traced peak stays under 2^22 + O(nnz(P)) bytes, which at
    n = 4100 is about a quarter of n². The closure allocates no block at
    all, so its peak is O(n + nnz(P))."""
    import tracemalloc

    from scipy.sparse import csgraph  # noqa: F401  its first import would count toward the peak

    jm = _random_jm(n, 300, n)
    for method, block in (("closure", 256 * n), ("series", 1 << 22)):
        tracemalloc.start()
        try:
            pattern = reachability(jm, method).pattern
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block + 128 * pattern.nnz, method


def test_reachability_peak_on_dense_pattern():
    """On the directed n-cycle P holds all n² pairs, 16 bytes each. Both
    methods write its rows straight into its CSR arrays, so the traced peak
    stays under 32 bytes per entry of P, plus O(n) and series' bool block."""
    import tracemalloc

    from scipy.sparse import csgraph  # noqa: F401  its first import would count toward the peak

    n = 600
    jm = _jm(n, [(v, (v + 1) % n) for v in range(n)])
    for method, block in (("closure", 0), ("series", 1 << 22)):
        tracemalloc.start()
        try:
            pattern = reachability(jm, method).pattern
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pattern.nnz == n * n
        assert peak < block + 256 * n + 32 * pattern.nnz, method


# query-mix digests P's bytes: a builder that kept csgraph's int32 orders, or
# any other dtype, would change every reach digest
@pytest.mark.parametrize("case", ["T", "R", "random"])
def test_reachability_bytes_match_oracle(case):
    from magraph import builtin_example

    mags = [builtin_example(case)] if case != "random" else [random_mag(random.Random(seed)) for seed in range(8)]
    for mag in mags:
        reach = closure_oracle(dense_adjacency(mag))
        rows, cols = np.nonzero(reach)
        want = SparseMatrix.from_coo(*reach.shape, rows, cols, np.ones(len(rows)))
        for method in ("closure", "series"):
            got = reachability(adjacency_matrix(mag), method).pattern
            assert got.indptr.dtype == got.indices.dtype == np.int64 and got.values.dtype == np.float64
            _same_bytes(want, got)


def test_reachability_inverse_with_underflowing_cutoff():
    """At n=400 with a hub of out-degree 60, rho is about 1/120 and the cutoff
    0.5·rho^(n-1) underflows to 0.0; the pattern then rests on unreachable
    entries being exactly zero and reachable ones staying above 2^-1074."""
    rng = random.Random(11)
    n = 400
    edges = {(rng.randrange(n), rng.randrange(n)) for _ in range(n)}
    edges |= {(0, v) for v in rng.sample(range(1, n), 60)}
    jm = _jm(n, sorted((o, d) for o, d in edges if o != d))
    base = reachability(jm, "closure")
    assert 0.5 * base.rho ** (n - 1) == 0.0
    assert 0 < base.pattern.nnz < n * n
    assert reachability(jm, "inverse").pattern == base.pattern


def test_reachability_inverse_refuses_lost_pairs():
    # a hub of out-degree 100 makes rho = 1/200; the far end of a 150-edge
    # path is then reached with walk weight 200^-150, below 2^-1074
    n = 251
    edges = [(0, v) for v in range(1, 101)] + [(v, v + 1) for v in range(100, 250)]
    jm = _jm(n, edges)
    with pytest.raises(MagError, match="underflow"):
        reachability(jm, "inverse")


# every method reads the 0/1 pattern, a 1 at every stored entry: 1e-13,
# 3e-12 and -1.0 are all edges; inverse used to raise "lost pairs" on the
# small and negative paths, and a stored 1e-13 used to be no edge at all
@pytest.mark.parametrize(
    "n, value, reached",
    [(2, 1e-13, [[1, 1], [0, 1]])]
    + [(3, v, [[1, 1, 1], [0, 1, 1], [0, 0, 1]]) for v in (3e-12, -1.0)],
)
def test_reachability_methods_agree_on_non_binary_entries(n, value, reached):
    matrix = SparseMatrix.from_coo(n, n, range(n - 1), range(1, n), [value] * (n - 1))
    jm = MatrixWithTuple(matrix, CompanionTuple((n,)))
    for method in ("closure", "series", "inverse"):
        result = reachability(jm, method)
        assert result.pattern.to_dense().tolist() == reached, method
        assert result.rho == 0.5


def test_traversals_and_reachability_agree_on_a_tiny_edge():
    # a stored 1e-13 at (0, 1): bfs and dfs followed it, reachability did not
    jm = MatrixWithTuple(SparseMatrix.from_coo(3, 3, [0], [1], [1e-13]), CompanionTuple((3,)))
    assert bfs(jm, (0,)).vertices == (1, 2)
    assert dfs(jm).pred == (None, 1, None)
    reached = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    for method in ("closure", "series", "inverse"):
        assert reachability(jm, method).pattern.to_dense().tolist() == reached, method


def test_reachability_dense_cap():
    mag = build_mag([("V", [str(i) for i in range(600)])], [], "big")
    jm = adjacency_matrix(mag)
    with pytest.raises(TooLargeForDenseError):
        reachability(jm, "inverse")
    assert reachability(jm, "closure").pattern.nnz == 600


# 2x3 with column 3 empty used to come back as a 2x2 pattern; 2x4 with an
# entry in column 4 used to raise a bare IndexError
@pytest.mark.parametrize("cols, last", [(3, 0), (4, 3)])
def test_closure_rejects_non_square(cols, last):
    matrix = SparseMatrix.from_coo(2, cols, [0, 1], [1, last], [1.0, 1.0])
    with pytest.raises(ShapeMismatchError):
        transitive_closure_pattern(matrix)
    for method in ("closure", "series", "inverse"):
        with pytest.raises(ShapeMismatchError):
            reachability(MatrixWithTuple(matrix, CompanionTuple((2,))), method)


def test_reachability_refuses_unknown_method(mag_t):
    with pytest.raises(ValueError, match=r"^method must be closure\|series\|inverse, got 'bogus'$"):
        reachability(adjacency_matrix(mag_t), "bogus")


def test_reachability_refuses_unknown_method_before_any_work():
    # a non-square matrix would raise ShapeMismatchError if the pattern were built first
    matrix = SparseMatrix.from_coo(2, 3, [0], [1], [1.0])
    with pytest.raises(MagError, match="^method must be"):
        reachability(MatrixWithTuple(matrix, CompanionTuple((2,))), "bogus")


def test_reachability_rho(mag_t):
    res = reachability(adjacency_matrix(mag_t))
    # max out-degree of T is 3
    assert res.rho == 1.0 / 6.0


# ---------------------------------------------------------------------------
# sub-determined BFS


def test_bfs_sub_r(mag_r):
    jm = adjacency_matrix(mag_r)
    result = bfs_sub(jm, SubDetermination.from_bits("01"), (0,))
    assert result.vertices == ref.BFS_SUB_R_FROM_1["vertices"]
    assert result.distance == ref.BFS_SUB_R_FROM_1["distance"]
    assert result.pred == ref.BFS_SUB_R_FROM_1["pred"]


def test_bfs_sub_t_locmode(mag_t):
    jm = adjacency_matrix(mag_t)
    result = bfs_sub(jm, SubDetermination.from_bits("011"), (1, 0))  # (2,Bus)
    assert result.vertices == ref.BFS_SUB_T_LOCMODE_FROM_2BUS["vertices"]
    assert result.distance == ref.BFS_SUB_T_LOCMODE_FROM_2BUS["distance"]
    assert result.pred == ref.BFS_SUB_T_LOCMODE_FROM_2BUS["pred"]


def test_bfs_sub_t_location(mag_t):
    jm = adjacency_matrix(mag_t)
    result = bfs_sub(jm, SubDetermination.from_bits("001"), (0,))  # location 1
    assert result.vertices == ref.BFS_SUB_T_LOCATION_FROM_1["vertices"]
    assert result.distance == ref.BFS_SUB_T_LOCATION_FROM_1["distance"]
    assert result.pred == ref.BFS_SUB_T_LOCATION_FROM_1["pred"]


def test_bfs_sub_matches_projected_reachability():
    # row of M·B·M^T == discovered set, for every sub-determined source
    rng = random.Random(67)
    for _ in range(15):
        mag = random_mag(rng, p=rng.randint(2, 3))
        p = mag.order
        z = SubDetermination(rng.randint(1, 2**p - 2))
        jm = adjacency_matrix(mag)
        agg = sub_determination_matrix(jm.tau, z)
        projected = (
            agg @ reachability(jm, "closure").pattern @ agg.transpose()
        ).to_dense()
        restricted = sub_companion_tuple(jm.tau, z).restricted()
        for s in range(agg.rows):
            result = bfs_sub(jm, z, vertex_from_index(s + 1, restricted))
            assert set(result.vertices) == {
                v + 1 for v in range(agg.rows) if projected[s, v] > 0
            }


def test_bfs_sub_spurious_path_discriminator(mag_r):
    # aggregation invents a 1->3 path; the projected closure must not have it
    jm = adjacency_matrix(mag_r)
    z = SubDetermination.from_bits("01")
    agg = sub_determination_matrix(jm.tau, z)
    projected = (agg @ reachability(jm, "closure").pattern @ agg.transpose()).to_dense()
    assert projected[0, 2] == 0
    collapsed = sub_determined_adjacency(jm.matrix, agg)
    collapsed_closure = transitive_closure_pattern(collapsed.pattern())
    assert entry(collapsed_closure, 0, 2) > 0


def test_bfs_sub_soundness_small():
    # every reported sub-vertex is witnessed by a composite path from the class
    rng = random.Random(71)
    for _ in range(15):
        mag = random_mag(rng, p=2, max_size=3)
        z = SubDetermination.from_bits("01")
        jm = adjacency_matrix(mag)
        tau = jm.tau
        n = composite_vertex_count(tau)
        reach = closure_oracle(dense_adjacency(mag))
        from magraph import sub_companion_tuple, vertex_index

        tz = sub_companion_tuple(tau, z)
        image = [vertex_index(vertex_from_index(j, tau), tz) for j in range(1, n + 1)]
        m = composite_vertex_count(tz)
        for s in range(1, m + 1):
            result = bfs_sub(jm, z, vertex_from_index(s, tz.restricted()))
            seeds = [j for j in range(n) if image[j] == s]
            for v in result.vertices:
                witnesses = [t for t in range(n) if image[t] == v]
                assert any(reach[j, t] for j in seeds for t in witnesses)


def test_bfs_sub_unknown_source(mag_t):
    jm = adjacency_matrix(mag_t)
    with pytest.raises(UnknownVertexError):
        bfs_sub(jm, SubDetermination.from_bits("011"), (3, 0))


# ---------------------------------------------------------------------------
# DFS


def test_dfs_worked_result(mag_t):
    result = dfs(adjacency_matrix(mag_t))
    assert result.disc_time == ref.DFS_T["d"]
    assert result.fin_time == ref.DFS_T["f"]
    assert result.pred == ref.DFS_T["pred"]


def test_dfs_edgeless():
    mag = build_mag([("A", [str(i) for i in range(4)])], [], "e")
    result = dfs(adjacency_matrix(mag))
    assert result.disc_time == (0, 2, 4, 6)
    assert result.fin_time == (1, 3, 5, 7)
    assert result.pred == (None,) * 4


def test_dfs_properties_random():
    rng = random.Random(73)
    for _ in range(20):
        mag = random_mag(rng)
        jm = adjacency_matrix(mag)
        n = composite_vertex_count(jm.tau)
        check_dfs_structure(dfs(jm), n)


def _reachable_within(adj, start, allowed):
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in range(adj.shape[0]):
            if adj[u, v] and v in allowed and v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def test_dfs_white_path_property():
    # v is a descendant of u iff some u->v path runs entirely through
    # vertices still undiscovered when u was discovered
    rng = random.Random(101)
    for _ in range(10):
        mag = random_mag(rng)
        adj = dense_adjacency(mag)
        n = adj.shape[0]
        result = dfs(adjacency_matrix(mag))
        d, f = result.disc_time, result.fin_time
        for u in range(n):
            white = {v for v in range(n) if d[v] >= d[u]}
            via_white = _reachable_within(adj, u, white)
            for v in range(n):
                descendant = d[u] <= d[v] and f[v] <= f[u]
                assert descendant == (v in via_white)


def test_dfs_sub_worked_results(mag_t, mag_r):
    result = dfs_sub(adjacency_matrix(mag_t), SubDetermination.from_bits("011"))
    assert result.disc_time == ref.DFS_SUB_T_LOCMODE["d"]
    assert result.fin_time == ref.DFS_SUB_T_LOCMODE["f"]
    assert result.pred == ref.DFS_SUB_T_LOCMODE["pred"]

    result_r = dfs_sub(adjacency_matrix(mag_r), SubDetermination.from_bits("01"))
    assert result_r.disc_time == ref.DFS_SUB_R["d"]
    assert result_r.fin_time == ref.DFS_SUB_R["f"]
    assert result_r.pred == ref.DFS_SUB_R["pred"]
    # vertex 3 sits in its own tree despite the aggregated 1->3 path
    assert result_r.pred[2] is None

    single = dfs_sub(adjacency_matrix(mag_t), SubDetermination.from_bits("001"))
    assert single.disc_time == ref.DFS_SUB_T_LOCATION["d"]
    assert single.fin_time == ref.DFS_SUB_T_LOCATION["f"]
    assert single.pred == ref.DFS_SUB_T_LOCATION["pred"]


def test_dfs_sub_properties_random():
    rng = random.Random(79)
    for _ in range(15):
        mag = random_mag(rng, p=rng.randint(2, 3))
        p = mag.order
        z = SubDetermination(rng.randint(1, 2**p - 2))
        jm = adjacency_matrix(mag)
        from magraph import sub_companion_tuple

        m = composite_vertex_count(sub_companion_tuple(jm.tau, z))
        check_dfs_structure(dfs_sub(jm, z), m)
