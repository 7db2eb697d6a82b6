"""Property tests at scale: the edge arrays against per-MagEdge oracles.

Graphs have up to four aspects and up to about 2k composite vertices. Every
result computed from a graph's index arrays is compared with a loop over its
MagEdge objects (``mag.edges``) through the scalar indexing functions.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from magraph import (
    Aspect,
    AspectList,
    CompanionTuple,
    MagEdge,
    SubDetermination,
    adjacency_matrix,
    build_mag,
    companion_tuple,
    degree,
    incidence_matrix,
    parse_mag,
    sub_det_degree,
    sub_determine_edge,
    sub_determine_mag,
    trivial_components,
    vertex_from_index,
    vertex_index,
    write_mag,
)
from helpers import degree_oracle, dense_adjacency

MAX_VERTICES = 2048
WEIGHTS = (0.25, 0.5, 1.5, 2.0, 3.25)


@st.composite
def graphs(draw):
    """A random graph and its MagEdge list: 1-4 aspects, n <= MAX_VERTICES, up to 3n edges."""
    p = draw(st.integers(1, 4))
    sizes = []
    for _ in range(p):
        room = MAX_VERTICES // math.prod(sizes)
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
