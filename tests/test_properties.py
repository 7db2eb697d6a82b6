"""Property tests at scale: the edge arrays against per-MagEdge oracles.

Graphs have up to four aspects and up to about 2k composite vertices. Every
result computed from a graph's index arrays is compared with a loop over its
MagEdge objects (``mag.edges``) through the scalar indexing functions. Exact
rank and nullity are compared with dense elimination over Fractions
(``rank_oracle``) and with the component count of the dense closure.
"""

import math

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from magraph import (
    Aspect,
    AspectList,
    CompanionTuple,
    MagEdge,
    SparseMatrix,
    SubDetermination,
    ZERO_TOLERANCE,
    adjacency_matrix,
    build_mag,
    combinatorial_laplacian,
    companion_tuple,
    degree,
    incidence_matrix,
    matrix_rank,
    nullspace_dimension,
    parse_mag,
    sub_det_degree,
    sub_determine_edge,
    sub_determine_mag,
    trivial_components,
    vertex_from_index,
    vertex_index,
    weighted_laplacian,
    write_mag,
)
from helpers import components_oracle, degree_oracle, dense_adjacency, rank_oracle

MAX_VERTICES = 2048
WEIGHTS = (0.25, 0.5, 1.5, 2.0, 3.25)


@st.composite
def graphs(draw, max_vertices=MAX_VERTICES):
    """A random graph and its MagEdge list: 1-4 aspects, n <= max_vertices, up to 3n edges."""
    p = draw(st.integers(1, 4))
    sizes = []
    for _ in range(p):
        room = max_vertices // math.prod(sizes)
        sizes.append(draw(st.integers(1, min(room, 40))))
    aspects = AspectList(
        tuple(
            Aspect(f"a{k}", tuple(f"e{k}_{i}" for i in range(s)))
            for k, s in enumerate(sizes)
        )
    )
    tau = CompanionTuple(tuple(sizes))
    n = math.prod(sizes)
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


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_round_trips(case):
    mag, edges = case
    assert mag.edges == edges
    assert parse_mag(write_mag(mag)) == mag
    assert build_mag(mag.aspects, mag.edges, mag.name) == mag


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


# entries k/2^e with k and e spread wide, zeros, and noise below the tolerance
DYADIC = st.one_of(
    st.just(0.0),
    st.builds(lambda k, e: k * 2.0**e, st.integers(-40, 40).filter(bool), st.integers(-30, 20)),
    st.sampled_from((3e-13, -1e-13, ZERO_TOLERANCE / 2)),
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
