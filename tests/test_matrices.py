"""Matrix constructions against the frozen builtin displays and identities."""

import random

import numpy as np
import pytest

from magraph import (
    CompanionTuple,
    MagError,
    MatrixWithTuple,
    NonBinaryEntryError,
    NonPositiveWeightError,
    NonzeroDiagonalError,
    ShapeMismatchError,
    SparseMatrix,
    SubDetermination,
    TooLargeForDenseError,
    WeightCountError,
    adjacency_matrix,
    build_mag,
    combinatorial_laplacian,
    companion_tuple,
    composite_vertex_count,
    degree,
    elimination_matrix,
    incidence_matrix,
    mag_from_adjacency,
    main_components,
    main_identity,
    matrix_rank,
    normalized_laplacian,
    nullspace_dimension,
    parse_mag,
    sub_determination_matrix,
    sub_determine_mag,
    sub_determined_adjacency,
    subdet_image,
    trivial_components,
    weighted_laplacian,
)
import expected_builtin as ref
from helpers import components_oracle, from_entries, random_mag, zeros


def as_dense(m):
    return m.to_dense()


# ---------------------------------------------------------------------------
# adjacency


def test_adjacency_t(mag_t):
    jm = adjacency_matrix(mag_t)
    assert jm.tau.sizes == (3, 2, 3)
    assert jm.matrix.nnz == 22
    assert np.array_equal(as_dense(jm.matrix), ref.ADJACENCY_T)


def test_adjacency_r(mag_r):
    jm = adjacency_matrix(mag_r)
    assert np.array_equal(as_dense(jm.matrix), ref.ADJACENCY_R)


def test_adjacency_edgeless():
    mag = build_mag([("A", ["a", "b", "c"])], [], "e")
    assert adjacency_matrix(mag).matrix.nnz == 0


# ---------------------------------------------------------------------------
# adjacency -> graph round trip


def test_mag_from_adjacency_t(mag_t):
    jm = adjacency_matrix(mag_t)
    rebuilt = mag_from_adjacency(jm)
    assert len(rebuilt.edges) == 22
    back = adjacency_matrix(rebuilt)
    assert back.matrix == jm.matrix
    assert back.tau == jm.tau


def test_mag_from_adjacency_zero():
    jm = MatrixWithTuple(zeros(6, 6), CompanionTuple((3, 2)))
    assert mag_from_adjacency(jm).edges == ()


def test_mag_from_adjacency_random_round_trip():
    rng = random.Random(17)
    tau = CompanionTuple((2, 2, 2))
    for _ in range(30):
        entries = [
            (i, j, 1.0)
            for i in range(8)
            for j in range(8)
            if i != j and rng.random() < 0.3
        ]
        jm = MatrixWithTuple(from_entries(8, 8, entries), tau)
        again = adjacency_matrix(mag_from_adjacency(jm))
        assert again.matrix == jm.matrix and again.tau == tau


def test_mag_from_adjacency_rejects_bad_input():
    tau = CompanionTuple((2, 2))
    with pytest.raises(ShapeMismatchError):
        mag_from_adjacency(MatrixWithTuple(zeros(3, 3), tau))
    loop = from_entries(4, 4, [(1, 1, 1.0)])
    with pytest.raises(NonzeroDiagonalError):
        mag_from_adjacency(MatrixWithTuple(loop, tau))
    frac = from_entries(4, 4, [(0, 1, 0.5)])
    with pytest.raises(NonBinaryEntryError):
        mag_from_adjacency(MatrixWithTuple(frac, tau))
    with pytest.raises(ShapeMismatchError, match=r"^companion tuple must be full \(all sizes >= 1\)$"):
        mag_from_adjacency(MatrixWithTuple(zeros(2, 2), CompanionTuple((2, 0))))


# ---------------------------------------------------------------------------
# incidence


def test_incidence_t(mag_t):
    cm, edges = incidence_matrix(mag_t)
    assert edges == mag_t.edges
    assert cm.matrix.shape == (22, 18)
    assert np.array_equal(as_dense(cm.matrix), ref.INCIDENCE_T)


def test_incidence_single_edge():
    mag = build_mag([("V", ["a", "b"])], [], "d")
    aspects = mag.aspects
    mag = build_mag(aspects, [aspects.edge(("a",), ("b",))], "d")
    cm, _ = incidence_matrix(mag)
    assert np.array_equal(as_dense(cm.matrix), [[1.0, -1.0]])


def test_incidence_rank(mag_t):
    # 7 weakly connected components (6 trivial + 1 main) leave rank n - k
    cm, _ = incidence_matrix(mag_t)
    assert matrix_rank(cm.matrix) == 18 - 7


# ---------------------------------------------------------------------------
# trivial components, elimination


def test_trivial_components_t(mag_t):
    assert trivial_components(mag_t) == ref.TRIVIAL_T


def test_elimination_t(mag_t):
    r = elimination_matrix(mag_t)
    assert r.shape == (18, 12)
    assert np.array_equal(as_dense(r), ref.ELIMINATION_T)


def test_elimination_identity_when_no_trivial(mag_r):
    r = elimination_matrix(mag_r)
    assert np.array_equal(as_dense(r), np.eye(6))


def test_elimination_edgeless():
    mag = build_mag([("A", ["a", "b", "c"])], [], "e")
    r = elimination_matrix(mag)
    assert r.shape == (3, 0)


def test_main_identity(mag_t):
    im = main_identity(mag_t)
    expected = np.zeros((18, 18))
    for d in range(1, 19):
        if d not in ref.TRIVIAL_T:
            expected[d - 1, d - 1] = 1.0
    assert np.array_equal(as_dense(im), expected)
    # J = Im J Im: trivial rows/columns were already zero
    j = adjacency_matrix(mag_t).matrix
    assert (im @ j @ im) == j


def test_main_components_adjacency(mag_t):
    j = adjacency_matrix(mag_t).matrix
    r = elimination_matrix(mag_t)
    jm = main_components(j, r, "adjacency")
    assert np.array_equal(as_dense(jm), ref.ADJACENCY_MAIN_T)
    assert (r @ jm @ r.transpose()) == j


def test_main_components_incidence(mag_t):
    c = incidence_matrix(mag_t)[0].matrix
    r = elimination_matrix(mag_t)
    cm = main_components(c, r, "incidence")
    assert np.array_equal(as_dense(cm), ref.INCIDENCE_MAIN_T)
    assert (cm @ r.transpose()) == c


def test_main_components_identity_passthrough(mag_r):
    j = adjacency_matrix(mag_r).matrix
    assert main_components(j, SparseMatrix.identity(6), "adjacency") == j


def test_main_components_bad_kind(mag_t):
    with pytest.raises(ValueError):
        main_components(
            adjacency_matrix(mag_t).matrix, elimination_matrix(mag_t), "rows"
        )


def test_reconstruction_random():
    rng = random.Random(23)
    for _ in range(25):
        mag = random_mag(rng)
        j = adjacency_matrix(mag).matrix
        c = incidence_matrix(mag)[0].matrix
        r = elimination_matrix(mag)
        assert (r @ main_components(j, r, "adjacency") @ r.transpose()) == j
        assert (main_components(c, r, "incidence") @ r.transpose()) == c


# ---------------------------------------------------------------------------
# Laplacians


def test_laplacian_t(mag_t):
    c = incidence_matrix(mag_t)[0].matrix
    lap = combinatorial_laplacian(c)
    assert np.allclose(as_dense(lap), ref.LAPLACIAN_T, rtol=0, atol=1e-12)
    assert nullspace_dimension(lap) == 7


def test_laplacian_main_t(mag_t):
    c = incidence_matrix(mag_t)[0].matrix
    r = elimination_matrix(mag_t)
    lap_main = main_components(combinatorial_laplacian(c), r, "adjacency")
    assert np.allclose(as_dense(lap_main), ref.LAPLACIAN_MAIN_T, rtol=0, atol=1e-12)
    assert nullspace_dimension(lap_main) == 1
    # same thing from the reduced incidence matrix
    via_cm = combinatorial_laplacian(main_components(c, r, "incidence"))
    assert via_cm == lap_main


def test_laplacian_structure_random():
    rng = random.Random(29)
    for _ in range(20):
        mag = random_mag(rng)
        c = incidence_matrix(mag)[0].matrix
        lap = combinatorial_laplacian(c)
        dense = as_dense(lap)
        assert np.all(np.abs(dense.sum(axis=0)) <= 1e-12)
        deg = degree(mag)
        diag = np.diagonal(dense)
        for i, (ind, outd) in enumerate(zip(deg.indegree, deg.outdegree)):
            assert diag[i] == ind + outd
        # off-diagonal (u,v) counts edges between u and v in either direction
        adj = as_dense(adjacency_matrix(mag).matrix)
        off = -(adj + adj.T)
        np.fill_diagonal(off, np.diagonal(dense))
        assert np.array_equal(dense, off)
        for _ in range(100):
            x = np.array([rng.gauss(0, 1) for _ in range(lap.cols)])
            assert x @ dense @ x >= -1e-9


def test_weighted_laplacian_t(mag_t):
    c = incidence_matrix(mag_t)[0].matrix
    wl = weighted_laplacian(c, ref.EDGE_WEIGHTS_T)
    assert np.allclose(as_dense(wl), ref.WEIGHTED_LAPLACIAN_T, rtol=0, atol=1e-12)
    r = elimination_matrix(mag_t)
    wl_main = main_components(wl, r, "adjacency")
    assert np.allclose(
        as_dense(wl_main), ref.WEIGHTED_LAPLACIAN_MAIN_T, rtol=0, atol=1e-12
    )
    assert nullspace_dimension(wl) == nullspace_dimension(combinatorial_laplacian(c))


def test_weighted_laplacian_nullspace_matches_random():
    rng = random.Random(97)
    for _ in range(15):
        mag = random_mag(rng, weights=True)
        c = incidence_matrix(mag)[0].matrix
        lap = combinatorial_laplacian(c)
        weighted = weighted_laplacian(c, mag.edge_weights)
        assert nullspace_dimension(weighted) == nullspace_dimension(lap)


def test_weighted_laplacian_unit_weights(mag_t):
    c = incidence_matrix(mag_t)[0].matrix
    assert weighted_laplacian(c, [1.0] * 22) == combinatorial_laplacian(c)


def test_weighted_laplacian_validation(mag_t):
    c = incidence_matrix(mag_t)[0].matrix
    with pytest.raises(WeightCountError):
        weighted_laplacian(c, [1.0] * 5)
    with pytest.raises(NonPositiveWeightError):
        weighted_laplacian(c, [0.0] + [1.0] * 21)
    for weight in (float("inf"), float("1e309")):
        with pytest.raises(NonPositiveWeightError, match="must be finite"):
            weighted_laplacian(c, [weight] + [1.0] * 21)


def test_normalized_laplacian_t(mag_t):
    # independent oracle: column norms of the frozen incidence display
    norms = np.sqrt((ref.INCIDENCE_T**2).sum(axis=0))
    n_diag = np.where(norms > 0, 1.0 / np.where(norms > 0, norms, 1.0), 0.0)
    expected = np.diag(n_diag) @ ref.LAPLACIAN_T @ np.diag(n_diag)
    c = incidence_matrix(mag_t)[0].matrix
    nl = normalized_laplacian(c)
    assert np.allclose(as_dense(nl), expected, rtol=0, atol=1e-12)
    diag = np.diagonal(as_dense(nl))
    for d in range(1, 19):
        want = 0.0 if d in ref.TRIVIAL_T else 1.0
        assert abs(diag[d - 1] - want) <= 1e-12


def test_normalized_laplacian_single_edge():
    mag = build_mag([("V", ["a", "b"])], [], "d")
    mag = build_mag(mag.aspects, [mag.aspects.edge(("a",), ("b",))], "d")
    nl = normalized_laplacian(incidence_matrix(mag)[0].matrix)
    assert np.allclose(as_dense(nl), [[1.0, -1.0], [-1.0, 1.0]], atol=1e-12)


def test_normalized_laplacian_eigenvalues(mag_t):
    c = incidence_matrix(mag_t)[0].matrix
    r = elimination_matrix(mag_t)
    nl_main = main_components(normalized_laplacian(c), r, "adjacency")
    eigs = np.linalg.eigvalsh(as_dense(nl_main))
    assert eigs.min() >= -1e-9
    assert eigs.max() <= 2.0 + 1e-9


# ---------------------------------------------------------------------------
# sub-determination matrices


def test_aggregation_matrix_displays(mag_t):
    tau = companion_tuple(mag_t)
    keep_locmode = sub_determination_matrix(tau, SubDetermination.from_bits("011"))
    assert np.array_equal(as_dense(keep_locmode), ref.AGG_T_LOCMODE)
    keep_time = sub_determination_matrix(tau, SubDetermination.from_bits("100"))
    assert np.array_equal(as_dense(keep_time), ref.AGG_T_TIME)


def test_aggregation_matrix_r(mag_r):
    agg = sub_determination_matrix(companion_tuple(mag_r), SubDetermination.from_bits("01"))
    assert np.array_equal(as_dense(agg), ref.AGG_R_FIRST)


def test_aggregation_matrix_properties():
    rng = random.Random(31)
    for _ in range(25):
        mag = random_mag(rng, p=rng.randint(2, 3))
        tau = companion_tuple(mag)
        p = mag.order
        z = SubDetermination(rng.randint(1, 2**p - 2))
        agg = sub_determination_matrix(tau, z)
        dense = as_dense(agg)
        n = composite_vertex_count(tau)
        # one 1 per column; transposed it maps all-ones to all-ones
        assert np.array_equal(dense.sum(axis=0), np.ones(n))
        assert np.all((dense == 0) | (dense == 1))
        assert np.array_equal(
            agg.transpose().matvec(np.ones(agg.rows)), np.ones(n)
        )
        # every group has the same size n/m
        assert np.array_equal(dense.sum(axis=1), np.full(agg.rows, n // agg.rows))


def test_sub_determined_adjacency_displays(mag_t):
    jm = adjacency_matrix(mag_t)
    agg_lm = sub_determination_matrix(jm.tau, SubDetermination.from_bits("011"))
    assert np.array_equal(
        as_dense(sub_determined_adjacency(jm.matrix, agg_lm)), ref.SUBDET_ADJ_T_LOCMODE
    )
    agg_time = sub_determination_matrix(jm.tau, SubDetermination.from_bits("100"))
    assert np.array_equal(
        as_dense(sub_determined_adjacency(jm.matrix, agg_time)), ref.SUBDET_ADJ_T_TIME
    )


def test_sub_determined_adjacency_zero():
    j = zeros(6, 6)
    agg = sub_determination_matrix(CompanionTuple((3, 2)), SubDetermination.from_bits("01"))
    assert sub_determined_adjacency(j, agg).nnz == 0


# a sub-determined tuple (a 0 entry) used to raise a bare ValueError from
# np.unravel_index, and before that returned garbage with a RuntimeWarning
@pytest.mark.parametrize("build", [subdet_image, sub_determination_matrix])
def test_image_maps_refuse_tuple_that_is_not_full(build):
    with pytest.raises(ShapeMismatchError, match="must be full"):
        build(CompanionTuple((3, 0, 2)), SubDetermination(1))


def test_sub_determined_adjacency_shape_check(mag_t):
    agg = sub_determination_matrix(
        companion_tuple(mag_t), SubDetermination.from_bits("011")
    )
    with pytest.raises(ShapeMismatchError):
        sub_determined_adjacency(zeros(4, 4), agg)


def test_sub_determined_mag_t_locmode_pattern(mag_t):
    # dropping time leaves a 6-vertex graph whose adjacency is the
    # off-diagonal pattern of the collapsed multiplicity matrix
    sub = sub_determine_mag(mag_t, SubDetermination.from_bits("011"))
    expected = ref.SUBDET_ADJ_T_LOCMODE.copy()
    np.fill_diagonal(expected, 0.0)
    assert np.array_equal(
        as_dense(adjacency_matrix(sub).matrix) > 0, expected > 0
    )


def test_sub_determined_pattern_matches_sub_mag():
    # off-diagonal pattern of M J M^T == adjacency of the sub-determined graph
    rng = random.Random(37)
    for _ in range(25):
        mag = random_mag(rng, p=rng.randint(2, 3))
        p = mag.order
        z = SubDetermination(rng.randint(1, 2**p - 2))
        jm = adjacency_matrix(mag)
        agg = sub_determination_matrix(jm.tau, z)
        collapsed = as_dense(sub_determined_adjacency(jm.matrix, agg))
        np.fill_diagonal(collapsed, 0.0)
        sub_adj = as_dense(adjacency_matrix(sub_determine_mag(mag, z)).matrix)
        assert np.array_equal(collapsed > 0, sub_adj > 0)


# ---------------------------------------------------------------------------
# exact rank / nullspace


def test_matrix_rank_small():
    m = SparseMatrix.from_dense([[1.0, 2.0], [2.0, 4.0]])
    assert matrix_rank(m) == 1
    assert nullspace_dimension(m) == 1
    assert matrix_rank(SparseMatrix.identity(4)) == 4


# a stored entry below 1e-12 used to be snapped to zero by rank and nullity,
# and a degree below it made normalized_laplacian treat the column as trivial
def test_rank_and_nullity_read_tiny_entries():
    tiny = parse_mag("*mag tiny\n*aspect V\n1\n2\n3\n*edges\n1 -> 2 : 1e-13\n")
    lap = weighted_laplacian(incidence_matrix(tiny)[0].matrix, tiny.edge_weights)
    assert nullspace_dimension(lap) == 2
    assert matrix_rank(lap) == 1
    assert matrix_rank(SparseMatrix.from_dense([[1e-13]])) == 1
    incidence = SparseMatrix.from_coo(1, 3, [0, 0], [0, 1], [1e-7, -1e-7])
    assert nullspace_dimension(normalized_laplacian(incidence)) == 2


def test_rank_and_nullity_refuse_non_finite_entries():
    # nan used to be snapped to zero (rank 1) and inf raised OverflowError
    for bad in (np.nan, np.inf, -np.inf):
        for f in (matrix_rank, nullspace_dimension):
            with pytest.raises(MagError, match="not finite"):
                f(SparseMatrix.from_diagonal([bad, 1.0]))
    # the parser accepts weights of 1e308; the Laplacian's diagonal overflows and is refused
    tri = parse_mag(
        "*mag tri\n*aspect A\na\nb\nc\n*edges\n"
        "a -> b : 1e308\nb -> c : 1e308\nc -> a : 1e308\n"
    )
    with pytest.raises(MagError, match="not finite"):
        weighted_laplacian(incidence_matrix(tri)[0].matrix, tri.edge_weights)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_products_that_underflow_are_refused():
    # ±1e-170 incidence of the path 1-2-3: each product is 1e-340, which
    # rounded to 0.0 and was dropped, so the Laplacian came back empty and
    # its nullity read 3, where the path's is 1. Its ±1e200 twin overflows:
    # the Laplacian held ±inf and its normalized form came back empty too.
    for scale, fault in ((1e-170, "underflows"), (1e200, "not finite")):
        incidence = SparseMatrix.from_coo(2, 3, [0, 0, 1, 1], [0, 1, 1, 2], [scale, -scale] * 2)
        for laplacian in (combinatorial_laplacian, normalized_laplacian):
            with pytest.raises(MagError, match=fault):
                laplacian(incidence)
        assert matrix_rank(incidence) == 2


def test_nullspace_component_fallback_beyond_cap():
    # 600-vertex path graph: Laplacian nullspace = 1 connected component
    n = 600
    mag = build_mag(
        [("V", [str(i) for i in range(n)])],
        [],
        "path",
    )
    aspects = mag.aspects
    edges = [aspects.edge((str(i),), (str(i + 1),)) for i in range(n - 1)]
    mag = build_mag(aspects, edges, "path")
    c = incidence_matrix(mag)[0].matrix
    lap = combinatorial_laplacian(c)
    assert nullspace_dimension(lap) == 1
    # rank by the same certificates, where elimination refuses 600 rows or columns
    assert matrix_rank(lap) == matrix_rank(c) == 599
    assert matrix_rank(lap) + nullspace_dimension(lap) == 600


def test_tall_incidence_rank_is_columns_minus_components():
    # 600 rows over 40 columns, rows x·(e_i - e_j) with non-dyadic scales and
    # x first or -x first, repeated and empty rows; elimination refuses 600 rows
    rng = random.Random(20)
    cols = 40
    base = [tuple(rng.sample(range(30), 2)) for _ in range(24)]  # columns 30..39 stay isolated
    rows, ends, values = [], [], []
    for r in range(600):
        if r % 10 == 0:
            continue  # an empty row
        i, j = rng.choice(base)
        x = rng.choice((0.1, 1 / 3, 1e-300, -2.5, 7.0))
        rows += [r, r]
        ends += [i, j] if rng.random() < 0.5 else [j, i]
        values += [x, -x]
    c = SparseMatrix.from_coo(600, cols, rows, ends, values)
    first = c.values[c.indptr[:-1][np.diff(c.indptr) == 2]]
    assert (first > 0).any() and (first < 0).any()  # both entry orders are stored
    adj = np.zeros((cols, cols), dtype=bool)
    adj[tuple(np.array(base).T)] = True
    components = components_oracle(adj)
    assert 10 < components < cols
    assert matrix_rank(c) == cols - components


def test_large_incidence_rank_needs_no_cap():
    # 100k rows x 50k columns, checked against a union-find component count
    rng = np.random.default_rng(20)
    rows, cols = 100_000, 50_000
    ends = rng.integers(0, cols, size=(rows, 2))  # a loop's x and -x cancel: an empty row
    scales = rng.choice([0.1, -1 / 3, 2.0], rows)
    r = np.arange(rows)
    c = SparseMatrix.from_coo(rows, cols, np.r_[r, r], ends.T.ravel(), np.r_[scales, -scales])
    parent = list(range(cols))

    def root(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for i, j in ends.tolist():
        parent[root(i)] = root(j)
    components = sum(root(v) == v for v in range(cols))
    assert matrix_rank(c) == cols - components


def test_nullspace_refuses_non_laplacian_beyond_cap():
    # the identity is not a Laplacian; its nullity is 0, not 600 components
    with pytest.raises(TooLargeForDenseError):
        nullspace_dimension(SparseMatrix.identity(600))
    # rows of the normalized Laplacian do not sum to zero, so it takes the
    # exact route, which is capped
    n = 600
    mag = build_mag([("V", [str(i) for i in range(n)])], [], "path")
    edges = [mag.aspects.edge((str(i),), (str(i + 1),)) for i in range(n - 1)]
    c = incidence_matrix(build_mag(mag.aspects, edges, "path"))[0].matrix
    with pytest.raises(TooLargeForDenseError):
        nullspace_dimension(normalized_laplacian(c))
