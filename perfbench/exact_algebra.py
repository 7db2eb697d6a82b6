"""The exact-algebra calls of query-mix: exact rank and Laplacian nullity.

Why these calls: the Fraction elimination in `matrices.matrix_rank` runs
nowhere else, so a faster exact rank (ROADMAP item 3) shows in query-mix and
not in cli-batch. Sizes n=30..150 stay inside the dense cap; one Laplacian
above the cap times the component-count route, and
`reachability(..., "inverse")` the dense solve.
"""

from __future__ import annotations

import checks
import gen
from common import Op

# Laplacian nullity runs on graphs up to LAPLACIAN_MAX_N and the normalized
# kind up to NORMALIZED_MAX_N; incidence rank and inverse reachability run on
# every size. Exact elimination of an n=120 Laplacian takes 1.2-2 s, of the
# incidence matrix 0.3-0.5 s, so the larger sizes time only the latter. The
# normalized Laplacian's entries 1/sqrt(d_i d_j) carry 53-bit fractions, so
# its elimination costs 5-10x the integer Laplacians' (0.8 s against 0.2 s at
# n=60).
LAPLACIAN_MAX_N = 90
NORMALIZED_MAX_N = 60


def write_inputs(seed: int, workdir) -> list[tuple[gen.GenGraph, object]]:
    """Generate this seed's graphs as `.mag` files: (graph, path) pairs."""
    out = []
    for g in gen.algebra_graphs(seed) + [gen.above_cap_graph(seed)]:
        path = workdir / f"{g.name}.mag"
        path.write_text(g.text(), encoding="utf-8")
        out.append((g, path))
    return out


# Rounding the entries 1/sqrt(d_i d_j) to floats makes the matrix exactly
# non-singular on most components, and the exact elimination reports that.
NORMALIZED_DEFECT = "normalized Laplacian nullity is not the component count"


def build_ops(inputs: list[tuple[gen.GenGraph, object]]) -> tuple[list[Op], list[dict]]:
    """The calls of one cycle and each input's sizes.

    Every Laplacian's nullity is checked against the weakly connected
    component count from scipy.sparse.csgraph. On the normalized Laplacian
    magraph's exact route does not give it; that check is flagged as a known
    defect, so a mismatch is reported in every run without failing it, and
    a fix passes the same check.
    """
    import magraph as mg

    mags = {g.name: mg.load_mag(p) for g, p in inputs}
    graphs = {g.name: g for g, _ in inputs}
    for name in ("T", "R"):
        mags[name] = mg.builtin_example(name)
        graphs[name] = checks.builtin_graph(name)
    above = inputs[-1][0].name

    ops: list[Op] = []
    sizes = []
    for name, mag in mags.items():
        g = graphs[name]
        jm = mg.adjacency_matrix(mag)
        c = mg.incidence_matrix(mag)[0].matrix
        laps = {}
        if g.n <= LAPLACIAN_MAX_N or name == above:
            laps["combinatorial"] = mg.combinatorial_laplacian(c)
        if g.n <= LAPLACIAN_MAX_N:
            laps["weighted"] = mg.weighted_laplacian(c, mag.edge_weights)
        if g.n <= NORMALIZED_MAX_N:
            laps["normalized"] = mg.normalized_laplacian(c)
        sizes.append({"graph": name, "n": g.n, "edges": len(g.edges), "nnz": jm.matrix.nnz})

        # references are built in the checks, after the timed loop
        def components(g=g) -> int:
            return checks.weak_components(checks.adjacency(g))

        def nullity_check(r, results, components=components):
            want = components()
            return None if r == want else f"nullity {r}, expected {want}"

        for kind, lap in laps.items():
            ops.append(
                Op(
                    f"nullity:{name}:{kind}",
                    lambda lap=lap: mg.nullspace_dimension(lap),
                    nullity_check,
                    NORMALIZED_DEFECT if kind == "normalized" else None,
                )
            )
        if name == above:
            continue

        def rank_check(r, results, n=g.n, components=components):
            want = n - components()
            return None if r == want else f"rank {r}, expected {want}"

        ops.append(Op(f"rank:{name}:incidence", lambda c=c: mg.matrix_rank(c), rank_check))

        def inverse_check(r, results, g=g, jm=jm):
            reason = checks.check_reach(r.pattern, checks.reach_oracle(checks.adjacency(g)))
            for method in ("closure", "series"):
                other = mg.reachability(jm, method)
                if reason is None and not other.pattern.equals(r.pattern):
                    reason = f"inverse and {method} reachability differ"
            return reason

        ops.append(Op(f"reachability:{name}:inverse", lambda jm=jm: mg.reachability(jm, "inverse"), inverse_check))

    return ops, sizes
