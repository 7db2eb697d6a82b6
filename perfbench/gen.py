"""Seeded synthetic `.mag` inputs for the benchmark.

Only the standard library is used, so generating inputs imports neither
magraph nor numpy and stays out of every timed region. The same seed gives
byte-identical text on any machine with the same Python version. Shapes are
fixed: the seed changes which edges a graph has, never how big it is, so
runs with different seeds cost the same.

The generator keeps each graph's edges as vertex indices. The result checks
use them as the independent description of the input, without going through
magraph's parser.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Main graph: the ROADMAP baseline shape, tau=(50,20,10), n=10k, |E|=50k.
# Every cli-batch command loads it, and query-mix runs its traversals and
# degree routes on it. At this size parsing dominates a CLI command (about
# 1 s of 1.5 s), which is the cost a user meets first.
MAIN_SIZES = (50, 20, 10)
MAIN_EDGES = 50_000

# Share of edges that carry an explicit weight. Weights are small dyadic
# rationals, so they print and parse back exactly and the weighted
# Laplacian's entries stay exact in binary.
WEIGHTED_SHARE = 0.1
WEIGHTS = (0.25, 0.5, 1.5, 2.0, 3.25)

# Many-root graph for dfs_sub: tau=(400,10), n=4000, |E|=800. With so few
# edges about 200 of the 400 sub-determined vertices under zeta=01 start a
# tree of their own, and dfs_sub runs one bfs_sub over all 4000 vertices per
# tree root, so this is the shape on which its quadratic cost shows.
MANYROOT_SIZES = (400, 10)
MANYROOT_EDGES = 800

# Reachability graph: tau=(25,40), n=1000, |E|=1500. Large enough that the
# per-vertex closure costs most of a second, sparse enough (mean out-degree
# 1.5) that the closure holds about a third of the n^2 pairs, not all.
REACH_SIZES = (25, 40)
REACH_EDGES = 1500

# exact-algebra graphs: n from 30 to 150, all inside the dense cap of 512,
# with mean out-degree 2. Exact rational elimination grows roughly as n^3,
# so the sizes spread one call's cost from milliseconds to seconds. The cost
# of one elimination also varies by a quarter between random graphs of one
# size, so a run draws ALGEBRA_SETS independent graphs of every size and its
# figures average over them.
ALGEBRA_SIZES = ((5, 6), (6, 10), (9, 10), (10, 12), (10, 15))
ALGEBRA_DEGREE = 2
ALGEBRA_SETS = 2

# One graph above the dense cap (n=640, mean out-degree 1.5), whose
# Laplacian nullity takes the component-count route, not exact elimination.
ABOVE_CAP_SIZES = (16, 40)
ABOVE_CAP_EDGES = 960

_PREFIXES = "abcdefgh"


@dataclass(frozen=True)
class GenGraph:
    """A generated graph: aspect sizes and (origin, destination, weight) edges.

    Vertex indices are 0-based mixed radix with the first aspect varying
    fastest, as magraph numbers matrix rows. A weight of None is written
    without a weight field and so reads back as 1.0.
    """

    name: str
    sizes: tuple[int, ...]
    edges: tuple[tuple[int, int, float | None], ...]

    @property
    def n(self) -> int:
        n = 1
        for s in self.sizes:
            n *= s
        return n

    def labels(self) -> list[list[str]]:
        return [[f"{_PREFIXES[k]}{i}" for i in range(s)] for k, s in enumerate(self.sizes)]

    def numeric(self, index: int) -> tuple[int, ...]:
        """0-based per-aspect components of a vertex index."""
        out = []
        for s in self.sizes:
            index, r = divmod(index, s)
            out.append(r)
        return tuple(out)

    def vertex(self, index: int) -> str:
        """Comma-separated labels of a vertex, as `.mag` and `--source` take them."""
        labels = self.labels()
        return ",".join(labels[k][r] for k, r in enumerate(self.numeric(index)))

    def text(self) -> str:
        labels = self.labels()
        lines = [f"*mag {self.name}"]
        for k, aspect in enumerate(labels):
            lines.append(f"*aspect {_PREFIXES[k].upper()}")
            lines.extend(aspect)
        lines.append("*edges")

        def vertex(index: int) -> str:
            return ",".join(labels[k][r] for k, r in enumerate(self.numeric(index)))

        for o, d, w in self.edges:
            row = vertex(o) + " -> " + vertex(d)
            if w is not None:
                row += f" : {w!r}"
            lines.append(row)
        return "\n".join(lines) + "\n"


def random_graph(
    seed: int,
    name: str,
    sizes: tuple[int, ...],
    edges: int,
    weighted_share: float = 0.0,
) -> GenGraph:
    """`edges` distinct, loop-free edges drawn uniformly, in drawing order."""
    rng = random.Random(f"{name}:{seed}")
    n = 1
    for s in sizes:
        n *= s
    if not 0 <= edges <= n * (n - 1):
        raise ValueError(f"{edges} edges do not fit {n} vertices")
    seen: set[tuple[int, int]] = set()
    out = []
    while len(out) < edges:
        o, d = rng.randrange(n), rng.randrange(n)
        if o == d or (o, d) in seen:
            continue
        seen.add((o, d))
        w = rng.choice(WEIGHTS) if rng.random() < weighted_share else None
        out.append((o, d, w))
    return GenGraph(name, tuple(sizes), tuple(out))


def main_graph(seed: int) -> GenGraph:
    return random_graph(seed, "main", MAIN_SIZES, MAIN_EDGES, WEIGHTED_SHARE)


def manyroot_graph(seed: int) -> GenGraph:
    return random_graph(seed, "manyroot", MANYROOT_SIZES, MANYROOT_EDGES)


def reach_graph(seed: int) -> GenGraph:
    return random_graph(seed, "reach", REACH_SIZES, REACH_EDGES)


def algebra_graphs(seed: int) -> list[GenGraph]:
    return [
        random_graph(
            seed,
            f"alg{k}n{sizes[0] * sizes[1]}",
            sizes,
            ALGEBRA_DEGREE * sizes[0] * sizes[1],
            WEIGHTED_SHARE,
        )
        for k in range(ALGEBRA_SETS)
        for sizes in ALGEBRA_SIZES
    ]


def above_cap_graph(seed: int) -> GenGraph:
    return random_graph(seed, "abovecap", ABOVE_CAP_SIZES, ABOVE_CAP_EDGES, WEIGHTED_SHARE)
