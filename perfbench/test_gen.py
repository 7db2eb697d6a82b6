"""Tests of the benchmark's seeded generator.

    python -m pytest perfbench
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402


def test_same_seed_gives_identical_text():
    for make in (gen.main_graph, gen.manyroot_graph, gen.reach_graph):
        assert make(7).text().encode() == make(7).text().encode()
    assert [g.text() for g in gen.algebra_graphs(7)] == [g.text() for g in gen.algebra_graphs(7)]


def test_different_seeds_give_different_graphs_of_the_same_shape():
    for make in (gen.main_graph, gen.manyroot_graph, gen.reach_graph, gen.above_cap_graph):
        a, b = make(1), make(2)
        assert set(a.edges) != set(b.edges)
        assert (a.sizes, len(a.edges)) == (b.sizes, len(b.edges))


def test_edges_are_distinct_and_loop_free():
    g = gen.main_graph(3)
    pairs = [(o, d) for o, d, _ in g.edges]
    assert len(set(pairs)) == len(pairs) == gen.MAIN_EDGES
    assert all(o != d for o, d in pairs)
    assert g.n == 10_000


def test_text_parses_to_the_generated_edges():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import magraph as mg

    g = gen.reach_graph(5)
    mag = mg.parse_mag(g.text())
    tau = mg.companion_tuple(mag)
    got = [
        (mg.vertex_index(e.origin, tau) - 1, mg.vertex_index(e.destination, tau) - 1)
        for e in mag.edges
    ]
    assert got == [(o, d) for o, d, _ in g.edges]
    assert mg.write_mag(mag) == g.text()
