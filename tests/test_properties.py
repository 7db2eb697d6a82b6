"""Property tests at scale: the edge arrays against per-MagEdge oracles.

Graphs have up to four aspects and up to about 2k composite vertices. Every
result computed from a graph's index arrays is compared with a loop over its
MagEdge objects (``mag.edges``) through the scalar indexing functions. Exact
rank and nullity are compared with dense elimination over Fractions
(``rank_oracle``) and with the component count of the dense closure. BFS
order is checked against its contract from the edge arrays alone, and the
traversals and the algebraic routes (n <= 300) against the dense closure
(``closure_oracle``) and the edge-array degrees. Incidence-form matrices,
whose rank is certified by a component count, are checked up to 300 columns
and 1024 rows, and their near misses must take elimination. The mixed-radix
codec (``subdet_image``, ``joined_labels``) is checked vertex by vertex
against the scalar ``vertex_index`` and ``vertex_from_index``.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from magraph import (
    Aspect,
    AspectList,
    CompanionTuple,
    MagEdge,
    MagError,
    SparseMatrix,
    SubDetermination,
    TooLargeForDenseError,
    adjacency_matrix,
    bfs,
    bfs_sub,
    build_mag,
    combinatorial_laplacian,
    companion_tuple,
    degree,
    degree_from_adjacency,
    dfs_sub,
    incidence_matrix,
    mag_from_adjacency,
    matrix_rank,
    normalized_laplacian,
    nullspace_dimension,
    parse_mag,
    reachability,
    sub_companion_tuple,
    sub_det_degree,
    sub_det_degree_from_adjacency,
    sub_determine_edge,
    sub_determine_mag,
    sub_determination_matrix,
    subdet_image,
    trivial_components,
    vertex_from_index,
    vertex_index,
    weighted_laplacian,
    write_mag,
)
from magraph.sparse import DENSE_CAP
from helpers import (
    check_dfs_structure,
    closure_oracle,
    components_oracle,
    degree_oracle,
    dense_adjacency,
    rank_oracle,
)

MAX_VERTICES = 2048
WEIGHTS = (0.25, 0.5, 1.5, 2.0, 3.25)


@st.composite
def aspect_lists(draw, max_vertices=MAX_VERTICES):
    """1-4 aspects of 1-40 elements each, with n <= max_vertices composite vertices."""
    p = draw(st.integers(1, 4))
    sizes = []
    for _ in range(p):
        room = max_vertices // math.prod(sizes)
        sizes.append(draw(st.integers(1, min(room, 40))))
    return AspectList(
        tuple(
            Aspect(f"a{k}", tuple(f"e{k}_{i}" for i in range(s)))
            for k, s in enumerate(sizes)
        )
    )


@st.composite
def graphs(draw, max_vertices=MAX_VERTICES):
    """A random graph and its MagEdge list: 1-4 aspects, n <= max_vertices, up to 3n edges."""
    aspects = draw(aspect_lists(max_vertices))
    tau = CompanionTuple(aspects.sizes())
    n = math.prod(tau.sizes)
    m = draw(st.integers(0, min(3 * n, n * (n - 1))))
    rng = draw(st.randoms(use_true_random=False))
    pairs = {}
    while len(pairs) < m:
        o, d = rng.randrange(n), rng.randrange(n)
        if o != d:
            pairs.setdefault((o, d), rng.choice((1.0,) * 5 + WEIGHTS))
    vertex = {}

    def v(k):
        if k not in vertex:
            vertex[k] = aspects.vertex_from_numeric(vertex_from_index(k + 1, tau))
        return vertex[k]

    edges = tuple(MagEdge(v(o), v(d), w) for (o, d), w in pairs.items())
    return build_mag(aspects, edges, f"g{len(edges)}"), edges


mags = graphs().map(lambda case: case[0])


def _coordinates(matrix):
    """(row, col, value) arrays of a SparseMatrix in row-major order."""
    rows = np.repeat(np.arange(matrix.rows), np.diff(matrix.indptr))
    return rows, matrix.indices, matrix.values


def _zetas(mag):
    return [SubDetermination(mask) for mask in range(1, 2**mag.order - 1)]


@settings(max_examples=60, deadline=None)
@given(aspect_lists())
def test_codec_matches_scalar_references(aspects):
    """numpy's mixed-radix codec against the scalar indexing functions."""
    tau = CompanionTuple(aspects.sizes())
    n = math.prod(tau.sizes)
    numeric = [vertex_from_index(k + 1, tau) for k in range(n)]
    labels = [",".join(aspects.vertex_from_numeric(x).labels) for x in numeric]
    index = np.concatenate([np.arange(n)[::-1], np.arange(0, n, 3)])  # unordered, repeated
    assert aspects.joined_labels(index) == [labels[k] for k in index.tolist()]
    for mask in range(1, 2**aspects.order - 1):
        zeta = SubDetermination(mask)
        image = subdet_image(tau, zeta)
        tz = sub_companion_tuple(tau, zeta)
        assert image.dtype == np.int64
        assert image.tolist() == [vertex_index(x, tz) - 1 for x in numeric]


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_round_trips(case):
    mag, edges = case
    assert mag.edges == edges
    assert parse_mag(write_mag(mag)) == mag
    assert build_mag(mag.aspects, mag.edges, mag.name) == mag
    jm = adjacency_matrix(mag)
    assert adjacency_matrix(mag_from_adjacency(jm)) == jm


@settings(max_examples=40, deadline=None)
@given(mags)
def test_matrices_match_edge_loops(mag):
    tau = companion_tuple(mag)
    rows, cols, values = _coordinates(adjacency_matrix(mag).matrix)
    expected = np.argwhere(dense_adjacency(mag))
    assert np.array_equal(np.stack([rows, cols], axis=1), expected)
    assert np.all(values == 1.0)

    jm, edges = incidence_matrix(mag)
    assert edges == mag.edges
    got = set(zip(*(x.tolist() for x in _coordinates(jm.matrix))))
    want = set()
    for i, e in enumerate(mag.edges):
        want.add((i, vertex_index(e.origin, tau) - 1, 1.0))
        want.add((i, vertex_index(e.destination, tau) - 1, -1.0))
    assert got == want


@settings(max_examples=40, deadline=None)
@given(mags)
def test_degrees_and_trivial_components_match_edge_loops(mag):
    result = degree(mag)
    assert (result.indegree, result.outdegree, result.selfdegree) == degree_oracle(mag)
    tau = companion_tuple(mag)
    touched = {vertex_index(v, tau) for e in mag.edges for v in (e.origin, e.destination)}
    n = mag.vertex_count
    assert trivial_components(mag) == tuple(d for d in range(1, n + 1) if d not in touched)
    for zeta in _zetas(mag):
        for separate in (False, True):
            result = sub_det_degree(mag, zeta, separate)
            got = (result.indegree, result.outdegree, result.selfdegree)
            assert got == degree_oracle(mag, zeta, separate)


@settings(max_examples=40, deadline=None)
@given(mags)
def test_sub_determine_mag_matches_edge_loop(mag):
    for zeta in _zetas(mag):
        images = (sub_determine_edge(e, zeta) for e in mag.edges)
        want = list(dict.fromkeys(i.endpoints() for i in images if i is not None))
        sub = sub_determine_mag(mag, zeta)
        assert [e.endpoints() for e in sub.edges] == want
        assert sub.edge_weights == (1.0,) * len(want)


@settings(max_examples=60, deadline=None)
@given(mags, st.data())
def test_bfs_order_contract(mag, data):
    """A FIFO queue that scans successors in ascending index: checked from the
    edge arrays, with no second BFS to compare against."""
    n = mag.vertex_count
    jm = adjacency_matrix(mag)
    src = data.draw(st.integers(1, n))
    result = bfs(jm, vertex_from_index(src, jm.tau))
    vertices, distance, pred = result.vertices, result.distance, result.pred
    assert vertices[0] == src and distance[src - 1] == 0 and pred[src - 1] is None
    assert len(set(vertices)) == len(vertices)
    position = np.full(n, n)  # unreached vertices sort after every reached one
    position[np.array(vertices) - 1] = np.arange(len(vertices))
    o, d = mag.origin, mag.destination
    assert np.all(position[d[position[o] < n]] < n)  # closed under successors
    first_in = np.full(n, n)
    np.minimum.at(first_in, d, position[o])
    for v in range(1, n + 1):
        if v == src:
            continue
        if position[v - 1] == n:
            assert math.isinf(distance[v - 1]) and pred[v - 1] is None
            continue
        p = pred[v - 1]
        assert position[p - 1] == first_in[v - 1]
        assert distance[v - 1] == distance[p - 1] + 1
    keys = [(position[pred[v - 1] - 1], v) for v in vertices[1:]]
    assert keys == sorted(keys)


@settings(max_examples=20, deadline=None)
@given(graphs(max_vertices=300), st.data())
def test_traversals_match_dense_closure(case, data):
    """Closure, bfs_sub and dfs_sub against closure_oracle; bfs_sub sees the
    source's row of agg·closure·agg^T, and every dfs_sub tree edge is an
    aggregated edge that full-graph paths from its tree's root reach."""
    mag, _ = case
    adj = dense_adjacency(mag)
    reach = closure_oracle(adj)
    jm = adjacency_matrix(mag)
    assert np.array_equal(reachability(jm, "closure").pattern.to_dense() > 0, reach)
    for zeta in _zetas(mag):
        agg = sub_determination_matrix(jm.tau, zeta).to_dense().astype(int)
        projected = agg @ reach @ agg.T > 0
        aggregated = agg @ adj @ agg.T > 0
        ns = agg.shape[0]
        restricted = sub_companion_tuple(jm.tau, zeta).restricted()
        for s in data.draw(st.lists(st.integers(1, ns), min_size=1, max_size=3)):
            result = bfs_sub(jm, zeta, vertex_from_index(s, restricted))
            assert sorted(result.vertices) == (np.flatnonzero(projected[s - 1]) + 1).tolist()

        forest = dfs_sub(jm, zeta)
        check_dfs_structure(forest, ns)
        disc, fin, pred = forest.disc_time, forest.fin_time, forest.pred
        root = list(range(ns))
        for v in sorted(range(ns), key=disc.__getitem__):
            if pred[v] is not None:
                assert aggregated[pred[v] - 1, v]
                root[v] = root[pred[v] - 1]
                assert projected[root[v], v]
        # a successor the gate admits is entered before its predecessor finishes
        for u, v in zip(*np.nonzero(aggregated)):
            if projected[root[u], v]:
                assert disc[v] < fin[u]


@settings(max_examples=20, deadline=None)
@given(graphs(max_vertices=300))
def test_reachability_routes_match_dense_closure(case):
    """series equals the closure byte for byte; inverse equals it or refuses, never differs."""
    mag, _ = case
    reach = closure_oracle(dense_adjacency(mag))
    jm = adjacency_matrix(mag)
    series = reachability(jm, "series").pattern
    assert np.array_equal(series.to_dense() > 0, reach)
    assert series.indptr.dtype == series.indices.dtype == np.int64
    assert series.equals(reachability(jm, "closure").pattern)
    try:
        inverse = reachability(jm, "inverse").pattern
    except MagError:
        return
    assert np.array_equal(inverse.to_dense() > 0, reach)


@settings(max_examples=20, deadline=None)
@given(graphs(max_vertices=300))
def test_degree_routes_agree(case):
    """The edge-array degrees against the algebraic routes, for every zeta."""
    mag, _ = case
    jm = adjacency_matrix(mag)
    assert degree(mag) == degree_from_adjacency(jm)
    for zeta in _zetas(mag):
        for separate in (False, True):
            assert sub_det_degree(mag, zeta, separate) == sub_det_degree_from_adjacency(
                jm, zeta, separate
            )


# entries k/2^e with k and e spread wide, zeros, and tiny entries, which are
# nonzero like any other stored entry
DYADIC = st.one_of(
    st.just(0.0),
    st.builds(lambda k, e: k * 2.0**e, st.integers(-40, 40).filter(bool), st.integers(-30, 20)),
    st.sampled_from((3e-13, -1e-13, 5e-13)),
)


@st.composite
def dyadic_matrices(draw):
    """Rectangular dyadic matrices with zero rows and columns and dependent rows."""
    rows, cols = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    dense = np.array(
        [[draw(DYADIC) if draw(st.booleans()) else 0.0 for _ in range(cols)] for _ in range(rows)]
    ).reshape(rows, cols)
    for i in range(2, rows):
        if draw(st.booleans()):
            # a small dyadic combination of two earlier rows stays exact
            a, b = draw(st.sampled_from((1.0, -0.5, 3.0))), draw(st.sampled_from((0.0, 2.0, -0.25)))
            dense[i] = a * dense[i - 1] + b * dense[i - 2]
    dense[draw(st.lists(st.booleans(), min_size=rows, max_size=rows)), :] = 0.0
    if cols and draw(st.booleans()):
        dense[:, draw(st.integers(0, cols - 1))] = 0.0
    return SparseMatrix.from_coo(rows, cols, *np.nonzero(dense), dense[np.nonzero(dense)])


@settings(max_examples=300, deadline=None)
@given(dyadic_matrices())
def test_matrix_rank_matches_fraction_oracle(matrix):
    assert matrix_rank(matrix) == rank_oracle(matrix)


@settings(max_examples=300, deadline=None)
@given(dyadic_matrices(), st.sampled_from(("any", "nonpositive", "unit")), st.booleans())
# connected, nullity 2: a directed star, and a signed graph with one positive entry
@example(SparseMatrix.from_dense([[0.0, 1.0, 1.0], [0.0] * 3, [0.0] * 3]), "nonpositive", False)
@example(
    SparseMatrix.from_dense([[0, -1, -1, -1], [-1, 0, -1, -1], [-1, -1, 0, 1], [-1, -1, 1, 0]]),
    "any",
    False,
)
def test_nullity_matches_fraction_oracle_on_zero_row_sums(matrix, signs, symmetric):
    """Square matrices with zero row sums. Only the symmetric ones with
    off-diagonals <= 0 are Laplacians; the others (signed, unit-entry and
    directed ones, whose nullity can differ from their component count) must
    take the exact route."""
    n = min(matrix.shape)
    off = matrix.to_dense()[:n, :n].reshape(n, n)
    if symmetric:
        off = off + off.T
    if signs == "nonpositive":
        off = -np.abs(off)
    elif signs == "unit":
        off = np.sign(off)
    np.fill_diagonal(off, 0.0)
    np.fill_diagonal(off, -off.sum(axis=1))
    square = SparseMatrix.from_dense(off)
    assert nullspace_dimension(square) == n - rank_oracle(square)


def _laplacians(mag):
    c = incidence_matrix(mag)[0].matrix
    return combinatorial_laplacian(c), weighted_laplacian(c, mag.edge_weights)


@settings(max_examples=60, deadline=None)
@given(graphs(max_vertices=40))
def test_laplacian_nullity_is_component_count(case):
    mag, _ = case
    components = components_oracle(dense_adjacency(mag))
    for lap in _laplacians(mag):
        assert nullspace_dimension(lap) == components == lap.cols - rank_oracle(lap)


@settings(max_examples=60, deadline=None)
@given(graphs(max_vertices=60))
def test_normalized_laplacian_nullity_is_component_count(case):
    """The real normalized Laplacian has nullity the component count (Chung,
    Spectral Graph Theory, Lemma 1.7); its rounded float image is certified as
    that graph's, where elimination finds it nonsingular on most components."""
    mag, _ = case
    nl = normalized_laplacian(incidence_matrix(mag)[0].matrix)
    components = components_oracle(dense_adjacency(mag))
    assert nullspace_dimension(nl) == components == nl.cols - matrix_rank(nl)


@settings(max_examples=60, deadline=None)
@given(graphs(max_vertices=40), st.data())
def test_near_laplacian_takes_exact_route(case, data):
    """A diagonal entry one ulp up makes the matrix positive definite on that
    vertex's component, so the exact route must find one null vector fewer."""
    mag, _ = case
    components = components_oracle(dense_adjacency(mag))
    for lap in _laplacians(mag):
        dense = lap.to_dense()
        touched = np.flatnonzero(np.diag(dense))
        assume(len(touched))
        i = data.draw(st.sampled_from(touched.tolist()))
        dense[i, i] = np.nextafter(dense[i, i], np.inf)
        near = SparseMatrix.from_dense(dense)
        assert nullspace_dimension(near) == near.cols - rank_oracle(near) == components - 1


@settings(max_examples=20, deadline=None)
@given(graphs(max_vertices=300))
def test_laplacian_route_matches_exact_rank_at_scale(case):
    mag, _ = case
    components = components_oracle(dense_adjacency(mag))
    for lap in _laplacians(mag):
        assert nullspace_dimension(lap) == components == lap.cols - matrix_rank(lap)


@settings(max_examples=200, deadline=None)
@given(dyadic_matrices())
def test_rank_plus_nullity_is_size_of_square_matrices(matrix):
    n = min(matrix.shape)
    square = SparseMatrix.from_dense(matrix.to_dense()[:n, :n].reshape(n, n))
    assert matrix_rank(square) + nullspace_dimension(square) == n


@settings(max_examples=20, deadline=None)
@given(graphs(max_vertices=300))
def test_rank_plus_nullity_is_size_of_laplacians(case):
    mag, _ = case
    for lap in _laplacians(mag):
        assert matrix_rank(lap) + nullspace_dimension(lap) == lap.cols


# scales of an incidence-form row x·(e_i - e_j): dyadic, non-dyadic, tiny,
# subnormal and huge; rank and components read none of them
SCALES = (1.0, -1.0, 0.1, -1 / 3, 2.5, 1e-300, -5e-324, 1e300)


@st.composite
def incidence_rows(draw, max_cols, max_rows):
    """(rows, cols, triplets, pairs): rows x at i and -x at j, in either column
    order, with repeated and empty rows; pairs holds each nonempty row's (i, j)."""
    rows, cols = draw(st.integers(0, max_rows)), draw(st.integers(0, max_cols))
    rng = draw(st.randoms(use_true_random=False))
    reach = rng.randint(min(cols, 2), cols)  # columns at or beyond reach stay isolated
    triplets, pairs = [], []
    for r in range(rows):
        if reach < 2 or rng.random() < 0.1:
            continue  # an empty row
        i, j = rng.choice(pairs) if pairs and rng.random() < 0.2 else rng.sample(range(reach), 2)
        i, j = (j, i) if rng.random() < 0.5 else (i, j)
        x = rng.choice(SCALES)
        triplets += [(r, i, x), (r, j, -x)]
        pairs.append((i, j))
    return rows, cols, triplets, pairs


def _from_triplets(rows, cols, triplets):
    r, c, v = zip(*triplets) if triplets else ((), (), ())
    return SparseMatrix.from_coo(rows, cols, np.array(r, dtype=np.int64), np.array(c, dtype=np.int64), v)


def _components(cols, pairs):
    adj = np.zeros((cols, cols), dtype=bool)
    for i, j in pairs:
        adj[i, j] = True
    return components_oracle(adj)


@settings(max_examples=100, deadline=None)
@given(incidence_rows(max_cols=60, max_rows=90))
def test_incidence_rank_matches_fraction_oracle(case):
    rows, cols, triplets, pairs = case
    matrix = _from_triplets(rows, cols, triplets)
    assert matrix_rank(matrix) == rank_oracle(matrix) == cols - _components(cols, pairs)


@settings(max_examples=40, deadline=None)
@given(incidence_rows(max_cols=300, max_rows=2 * DENSE_CAP))
def test_incidence_rank_is_columns_minus_components(case):
    rows, cols, triplets, pairs = case
    assert matrix_rank(_from_triplets(rows, cols, triplets)) == cols - _components(cols, pairs)


@st.composite
def near_incidences(draw):
    """(rows, cols, triplets) of incidence_rows plus one row that is not x and
    -x: (x, -nextafter(x, inf)), (x, x), one entry or three."""
    rows, cols, triplets, _ = draw(incidence_rows(max_cols=60, max_rows=90))
    cols = max(cols, 3)
    i, j, k = draw(st.permutations(range(cols)))[:3]
    x = draw(st.sampled_from(SCALES))
    row = draw(st.sampled_from(([(i, x), (j, -np.nextafter(x, np.inf))], [(i, x), (j, x)], [(i, x)],
                                [(i, x), (j, -x), (k, x)])))
    return rows + 1, cols, triplets + [(rows, c, v) for c, v in row]


PATH_0_1_2 = [(0, 0, 1.0), (0, 1, -1.0), (1, 1, 1.0), (1, 2, -1.0)]


@settings(max_examples=100, deadline=None)
@given(near_incidences())
# a path 0-1-2 closed by a near row has rank 3, where its graph's count gives 2
@example((3, 3, PATH_0_1_2 + [(2, 0, 1.0), (2, 2, 1.0)]))
@example((3, 3, PATH_0_1_2 + [(2, 0, 1.0), (2, 2, -np.nextafter(1.0, np.inf))]))
# a single entry e_0 beside the edge 0-1 raises the rank to 2
@example((2, 2, [(0, 0, 1.0), (0, 1, -1.0), (1, 0, 0.1)]))
def test_near_incidence_takes_elimination(case):
    """The certificate must not take a near miss: elimination answers it
    exactly, and refuses it once empty rows push it beyond the dense cap."""
    rows, cols, triplets = case
    matrix = _from_triplets(rows, cols, triplets)
    assert matrix_rank(matrix) == rank_oracle(matrix)
    with pytest.raises(TooLargeForDenseError):
        matrix_rank(_from_triplets(DENSE_CAP + 1, cols, triplets))
