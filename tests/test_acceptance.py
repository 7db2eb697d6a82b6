"""Acceptance suite: one test per criterion, at the stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion (each test also prints a "criterion NN pass" line).
"""

import math
import random

import numpy as np

from magraph import (
    SubDetermination,
    adjacency_matrix,
    bfs,
    bfs_sub,
    builtin_example,
    combinatorial_laplacian,
    companion_tuple,
    composite_vertex_count,
    degree,
    degree_from_adjacency,
    dfs,
    dfs_sub,
    elimination_matrix,
    incidence_matrix,
    mag_from_adjacency,
    main_components,
    normalized_laplacian,
    nullspace_dimension,
    reachability,
    sub_det_degree,
    sub_det_degree_from_adjacency,
    sub_determination_matrix,
    sub_determined_adjacency,
    transitive_closure_pattern,
    trivial_components,
    vertex_from_index,
    vertex_index,
    weighted_laplacian,
)
import expected_builtin as ref
from helpers import closure_oracle, dense_adjacency, entry, hop_counts_oracle, random_mag

INF = math.inf
T = builtin_example("T")
R = builtin_example("R")
TAU_T = companion_tuple(T)


def _sample_mag(rng, name):
    """Criterion-12 family: p in {1,2,3}, sizes in [1,4], density <= 0.3."""
    return random_mag(rng, p=rng.randint(1, 3), max_size=4,
                      density=rng.uniform(0.0, 0.3), name=name)


def test_c01_companion_tuple():
    assert TAU_T.sizes == (3, 2, 3)
    print("criterion 01 pass: companion tuple of T is (3,2,3)")


def test_c02_indexing_and_bijection():
    assert vertex_index(T.aspects.vertex(("1", "Bus", "t1")), TAU_T) == 1
    assert vertex_index(T.aspects.vertex(("2", "Subway", "t2")), TAU_T) == 11
    assert vertex_index(T.aspects.vertex(("2", "Bus", "t3")), TAU_T) == 14
    assert vertex_from_index(14, TAU_T) == (1, 0, 2)
    images = {vertex_index(vertex_from_index(d, TAU_T), TAU_T) for d in range(1, 19)}
    assert images == set(range(1, 19))
    print("criterion 02 pass: numeric representation and 18-vertex bijection")


def test_c03_adjacency_display():
    jm = adjacency_matrix(T)
    assert jm.matrix.nnz == 22
    assert np.array_equal(jm.matrix.to_dense(), ref.ADJACENCY_T)
    print("criterion 03 pass: adjacency matrix of T matches entrywise, nnz=22")


def test_c04_elimination_and_main_adjacency():
    jm = adjacency_matrix(T).matrix
    elim = elimination_matrix(T)
    assert np.array_equal(elim.to_dense(), ref.ELIMINATION_T)
    main = main_components(jm, elim, "adjacency")
    assert np.array_equal(main.to_dense(), ref.ADJACENCY_MAIN_T)
    assert (elim @ main @ elim.transpose()) == jm
    print("criterion 04 pass: elimination matrix, reduced adjacency, reconstruction")


def test_c05_incidence_displays():
    cm = incidence_matrix(T)[0].matrix
    assert np.array_equal(cm.to_dense(), ref.INCIDENCE_T)
    elim = elimination_matrix(T)
    reduced = main_components(cm, elim, "incidence")
    assert np.array_equal(reduced.to_dense(), ref.INCIDENCE_MAIN_T)
    assert (reduced @ elim.transpose()) == cm
    print("criterion 05 pass: incidence matrix, reduced form, reconstruction")


def test_c06_laplacians():
    cm = incidence_matrix(T)[0].matrix
    elim = elimination_matrix(T)
    lap = combinatorial_laplacian(cm)
    assert np.allclose(lap.to_dense(), ref.LAPLACIAN_T, rtol=0, atol=1e-12)
    assert nullspace_dimension(lap) == 7
    lap_main = main_components(lap, elim, "adjacency")
    assert np.allclose(lap_main.to_dense(), ref.LAPLACIAN_MAIN_T, rtol=0, atol=1e-12)
    assert nullspace_dimension(lap_main) == 1
    weighted = weighted_laplacian(cm, ref.EDGE_WEIGHTS_T)
    assert np.allclose(weighted.to_dense(), ref.WEIGHTED_LAPLACIAN_T, rtol=0, atol=1e-12)
    weighted_main = main_components(weighted, elim, "adjacency")
    assert np.allclose(
        weighted_main.to_dense(), ref.WEIGHTED_LAPLACIAN_MAIN_T, rtol=0, atol=1e-12
    )
    print("criterion 06 pass: Laplacian displays and nullspace dimensions 7 / 1")


def test_c07_aggregation_matrices():
    keep_locmode = sub_determination_matrix(TAU_T, SubDetermination.from_bits("011"))
    keep_time = sub_determination_matrix(TAU_T, SubDetermination.from_bits("100"))
    assert np.array_equal(keep_locmode.to_dense(), ref.AGG_T_LOCMODE)
    assert np.array_equal(keep_time.to_dense(), ref.AGG_T_TIME)
    for agg in (keep_locmode, keep_time):
        assert np.array_equal(
            agg.transpose().matvec(np.ones(agg.rows)), np.ones(18)
        )
    print("criterion 07 pass: aggregation matrix displays; M^T·1 = 1")


def test_c08_degrees():
    full = degree(T)
    assert (full.outdegree[1], full.indegree[1]) == (3, 1)
    assert (full.outdegree[9], full.indegree[9]) == (2, 2)
    assert degree_from_adjacency(adjacency_matrix(T)) == full

    z_locmode = SubDetermination.from_bits("011")
    plain = sub_det_degree(T, z_locmode)
    assert plain.indegree == (0, 7, 4, 4, 7, 0)
    assert plain.outdegree == (0, 7, 4, 4, 7, 0)
    assert sub_det_degree(T, z_locmode, True).selfdegree == (0, 2, 2, 2, 2, 0)
    assert sub_det_degree_from_adjacency(adjacency_matrix(T), z_locmode) == plain

    z_time = SubDetermination.from_bits("100")
    plain_time = sub_det_degree(T, z_time)
    assert plain_time.indegree == (2, 10, 10)
    assert plain_time.outdegree == (10, 10, 2)
    assert sub_det_degree(T, z_time, True).selfdegree == (2, 2, 2)
    assert sub_det_degree_from_adjacency(adjacency_matrix(T), z_time) == plain_time

    jm = adjacency_matrix(T)
    agg_locmode = sub_determination_matrix(TAU_T, z_locmode)
    agg_time = sub_determination_matrix(TAU_T, z_time)
    assert np.array_equal(
        sub_determined_adjacency(jm.matrix, agg_locmode).to_dense(),
        ref.SUBDET_ADJ_T_LOCMODE,
    )
    assert np.array_equal(
        sub_determined_adjacency(jm.matrix, agg_time).to_dense(),
        ref.SUBDET_ADJ_T_TIME,
    )
    print("criterion 08 pass: composite and sub-determined degrees, both routes")


def test_c09_bfs():
    result = bfs(adjacency_matrix(T), T.aspects.vertex(("2", "Bus", "t1")))
    assert result.vertices == ref.BFS_T_FROM_2["vertices"]
    assert result.distance == ref.BFS_T_FROM_2["distance"]
    assert result.pred == ref.BFS_T_FROM_2["pred"]
    print("criterion 09 pass: BFS triple from (2,Bus,t1)")


def test_c10_sub_determined_bfs():
    jm_r = adjacency_matrix(R)
    res_r = bfs_sub(jm_r, SubDetermination.from_bits("01"), (0,))
    assert res_r.vertices == ref.BFS_SUB_R_FROM_1["vertices"]
    assert res_r.distance == ref.BFS_SUB_R_FROM_1["distance"]
    assert res_r.pred == ref.BFS_SUB_R_FROM_1["pred"]

    jm_t = adjacency_matrix(T)
    res_t = bfs_sub(jm_t, SubDetermination.from_bits("011"), (1, 0))
    assert res_t.vertices == ref.BFS_SUB_T_LOCMODE_FROM_2BUS["vertices"]
    assert res_t.distance == ref.BFS_SUB_T_LOCMODE_FROM_2BUS["distance"]
    assert res_t.pred == ref.BFS_SUB_T_LOCMODE_FROM_2BUS["pred"]

    res_loc = bfs_sub(jm_t, SubDetermination.from_bits("001"), (0,))
    assert res_loc.vertices == ref.BFS_SUB_T_LOCATION_FROM_1["vertices"]
    assert res_loc.distance == ref.BFS_SUB_T_LOCATION_FROM_1["distance"]
    assert res_loc.pred == ref.BFS_SUB_T_LOCATION_FROM_1["pred"]

    # the spurious-path discriminator on R
    agg = sub_determination_matrix(jm_r.tau, SubDetermination.from_bits("01"))
    reach = reachability(jm_r, "closure").pattern
    projected = (agg @ reach @ agg.transpose()).pattern()
    assert entry(projected, 0, 2) == 0.0
    collapsed = sub_determined_adjacency(jm_r.matrix, agg).pattern()
    assert entry(transitive_closure_pattern(collapsed), 0, 2) != 0.0
    print("criterion 10 pass: sub-determined BFS triples and spurious-path split")


def test_c11_dfs():
    result = dfs(adjacency_matrix(T))
    assert result.disc_time == ref.DFS_T["d"]
    assert result.fin_time == ref.DFS_T["f"]
    assert result.pred == ref.DFS_T["pred"]

    sub_t = dfs_sub(adjacency_matrix(T), SubDetermination.from_bits("011"))
    assert sub_t.disc_time == ref.DFS_SUB_T_LOCMODE["d"]
    assert sub_t.fin_time == ref.DFS_SUB_T_LOCMODE["f"]
    assert sub_t.pred == ref.DFS_SUB_T_LOCMODE["pred"]

    sub_r = dfs_sub(adjacency_matrix(R), SubDetermination.from_bits("01"))
    assert sub_r.disc_time == ref.DFS_SUB_R["d"]
    assert sub_r.fin_time == ref.DFS_SUB_R["f"]
    assert sub_r.pred == ref.DFS_SUB_R["pred"]
    assert sub_r.pred[2] is None  # vertex 3 roots its own tree

    single = dfs_sub(adjacency_matrix(T), SubDetermination.from_bits("001"))
    assert single.disc_time == ref.DFS_SUB_T_LOCATION["d"]
    assert single.fin_time == ref.DFS_SUB_T_LOCATION["f"]
    assert single.pred == ref.DFS_SUB_T_LOCATION["pred"]
    print("criterion 11 pass: DFS and sub-determined DFS triples")


def test_c12_round_trip_property():
    rng = random.Random(2024)
    for k in range(200):
        mag = _sample_mag(rng, f"rt{k}")
        jm = adjacency_matrix(mag)
        rebuilt = mag_from_adjacency(jm)
        again = adjacency_matrix(rebuilt)
        assert again.matrix == jm.matrix
        assert again.tau == jm.tau
        assert degree(mag) == degree(rebuilt)
        n = composite_vertex_count(jm.tau)
        source = vertex_from_index(rng.randint(1, n), jm.tau)
        assert bfs(jm, source) == bfs(again, source)
    print("criterion 12 pass: 200 adjacency round trips preserve degree and BFS")


def test_c13_oracle_equivalence():
    rng = random.Random(2025)
    count = 0
    while count < 100:
        mag = _sample_mag(rng, f"oracle{count}")
        n = mag.vertex_count
        if n > 60:
            continue
        count += 1
        adj = dense_adjacency(mag)
        reach = closure_oracle(adj)
        hops = hop_counts_oracle(adj)
        jm = adjacency_matrix(mag)
        base = reachability(jm, "closure").pattern
        assert np.array_equal(base.to_dense() > 0, reach)
        assert reachability(jm, "series").pattern == base
        assert reachability(jm, "inverse").pattern == base
        for src in range(1, n + 1):
            result = bfs(jm, vertex_from_index(src, jm.tau))
            assert set(result.vertices) == {
                v + 1 for v in range(n) if reach[src - 1, v]
            }
            assert np.array_equal(np.asarray(result.distance), hops[src - 1])
    print("criterion 13 pass: BFS and all reachability methods match brute force")


def test_c14_numerical_properties():
    rng = random.Random(2026)
    for k in range(25):
        mag = _sample_mag(rng, f"num{k}")
        cm = incidence_matrix(mag)[0].matrix
        lap = combinatorial_laplacian(cm).to_dense()
        assert np.all(np.abs(lap.sum(axis=0)) <= 1e-12)
        for _ in range(100):
            x = np.array([rng.gauss(0.0, 1.0) for _ in range(lap.shape[0])])
            assert x @ lap @ x >= -1e-9
        norm_diag = np.diagonal(normalized_laplacian(cm).to_dense())
        trivial = set(trivial_components(mag))
        for d in range(1, lap.shape[0] + 1):
            expected = 0.0 if d in trivial else 1.0
            assert abs(norm_diag[d - 1] - expected) <= 1e-12
    print("criterion 14 pass: PSD, zero column sums, unit normalized diagonal")
