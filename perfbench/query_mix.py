"""query-mix: interactive analysis, in process, on graphs loaded once.

Why this workload: parsing happens only in set-up, so the algorithms and
matrices layers do nearly all the timed work. The mix holds the two slow
paths ROADMAP item 2 targets, dfs_sub on a many-root graph (one bfs_sub per
tree root) and the per-vertex reachability closure, beside the cheap
traversals and both degree routes on the 10k-vertex main graph. It also holds
the exact-algebra calls (exact_algebra.py), whose Fraction elimination runs
in no other workload, so ROADMAP item 3's faster rank shows here only.
"""

from __future__ import annotations

import functools
import random

import checks
import exact_algebra
import gen
from common import Op, Setup, finish, interleave

NAME = "query-mix"

# Masks are fixed so that every seed does the same work; the seed picks the
# graphs and the search sources.
_ALL_MASKS = (0b001, 0b010, 0b011, 0b100, 0b101, 0b110)
_DEGREE_MASKS = ((0b011, False), (0b100, True))
_MANYROOT_MASK = 0b01


def _source(g: gen.GenGraph, rng: random.Random) -> int:
    """Origin of a random edge, so the search leaves its source."""
    return g.edges[rng.randrange(len(g.edges))][0]


def _kept(g: gen.GenGraph, index: int, mask: int) -> tuple[int, ...]:
    return tuple(x for k, x in enumerate(g.numeric(index)) if mask >> k & 1)


def _same(results: dict, twin: str, r) -> str | None:
    """The paper's second route must give the identical result tuple."""
    other = results.get(twin)
    if other is not None and checks.result_digest(other) != checks.result_digest(r):
        return f"differs from {twin}"
    return None


def run(ctx) -> dict:
    import magraph as mg

    graphs = {
        "main": gen.main_graph(ctx.seed),
        "manyroot": gen.manyroot_graph(ctx.seed),
        "reach": gen.reach_graph(ctx.seed),
    }
    paths = []
    for name, g in graphs.items():
        path = ctx.workdir / f"{name}.mag"
        path.write_text(g.text(), encoding="utf-8")
        paths.append(path)
    algebra = exact_algebra.write_inputs(ctx.seed, ctx.workdir)

    mags = {name: mg.load_mag(p) for name, p in zip(graphs, paths)}
    jms = {name: mg.adjacency_matrix(m) for name, m in mags.items()}
    main, reach = graphs["main"], graphs["reach"]
    zeta = {m: mg.SubDetermination(m) for m in _ALL_MASKS + (_MANYROOT_MASK,)}

    # References are built when first checked, after the loop, so that this
    # process's peak RSS holds magraph's work rather than the checks'.
    @functools.cache
    def adj(name: str):
        return checks.adjacency(graphs[name])

    @functools.cache
    def oracle():
        return checks.reach_oracle(adj("reach"))

    rng = random.Random(f"{NAME}:{ctx.seed}")

    def bfs_op(name: str, g: gen.GenGraph, s: int) -> Op:
        def check(r, results):
            reason = checks.check_bfs(adj(name), s, r.vertices, r.distance, r.pred)
            if reason is None and name == "reach":
                if sorted(r.vertices) != (oracle()[s].nonzero()[0] + 1).tolist():
                    reason = "bfs vertex set differs from the closure row"
            return reason

        return Op(f"bfs:{name}:{s + 1}", lambda: mg.bfs(jms[name], g.numeric(s)), check)

    def bfs_sub_op(mask: int, s: int) -> Op:
        sub = int(checks.image(main.sizes, mask)[0][s])
        return Op(
            f"bfs_sub:main:{mask:03b}:{sub + 1}",
            lambda: mg.bfs_sub(jms["main"], zeta[mask], _kept(main, s, mask)),
            lambda r, results: checks.check_bfs_sub(adj("main"), main.sizes, mask, sub, r.vertices),
        )

    def reach_op(method: str, twin: str) -> Op:
        def check(r, results):
            return checks.check_reach(r.pattern, oracle()) or _same(
                results, f"reachability:reach:{twin}", r
            )

        return Op(f"reachability:reach:{method}", lambda: mg.reachability(jms["reach"], method), check)

    def degree_op(key: str, call, mask, sep, twin: str) -> Op:
        def check(r, results):
            if (r.indegree, r.outdegree, r.selfdegree) != checks.degrees(main, mask, sep):
                return "degrees differ from the edge images"
            return _same(results, twin, r)

        return Op(key, call, check)

    ops = [bfs_op("main", main, _source(main, rng)) for _ in range(3)]
    ops += [bfs_sub_op(mask, _source(main, rng)) for mask in _ALL_MASKS]
    ops += [bfs_op("reach", reach, _source(reach, rng)) for _ in range(2)]
    ops += [reach_op("closure", "series"), reach_op("series", "closure")]

    def dfs_sub_check(r, results):
        agg = checks.aggregated(adj("manyroot"), graphs["manyroot"].sizes, _MANYROOT_MASK)
        return checks.check_dfs(agg, r.disc_time, r.fin_time, r.pred)

    ops.append(Op("dfs_sub:manyroot:01", lambda: mg.dfs_sub(jms["manyroot"], zeta[_MANYROOT_MASK]), dfs_sub_check))
    ops += [
        degree_op("degree:main", lambda: mg.degree(mags["main"]), None, False, "degree_from_adjacency:main"),
        degree_op(
            "degree_from_adjacency:main", lambda: mg.degree_from_adjacency(jms["main"]), None, False, "degree:main"
        ),
    ]
    for mask, sep in _DEGREE_MASKS:
        plain = f"sub_det_degree:main:{mask:03b}:{int(sep)}"
        algebraic = f"sub_det_degree_from_adjacency:main:{mask:03b}:{int(sep)}"
        ops += [
            degree_op(
                plain,
                lambda mask=mask, sep=sep: mg.sub_det_degree(mags["main"], zeta[mask], sep),
                mask,
                sep,
                algebraic,
            ),
            degree_op(
                algebraic,
                lambda mask=mask, sep=sep: mg.sub_det_degree_from_adjacency(jms["main"], zeta[mask], sep),
                mask,
                sep,
                plain,
            ),
        ]
    ops.append(
        Op(
            "dfs:main",
            lambda: mg.dfs(jms["main"]),
            lambda r, results: checks.check_dfs(adj("main"), r.disc_time, r.fin_time, r.pred),
        )
    )
    algebra_ops, algebra_inputs = exact_algebra.build_ops(algebra)
    inputs = [
        {"graph": name, "n": g.n, "edges": len(g.edges), "nnz": jms[name].matrix.nnz}
        for name, g in graphs.items()
    ]
    cycle = interleave(ops + algebra_ops)
    # one set-up sample (2-2.5 s) before each cycle of calls and after the last
    setup = Setup(ctx.workdir, [*paths, "--algebra", *(p for _, p in algebra)], len(cycle))
    return finish(ctx, NAME, cycle, setup, inputs + algebra_inputs)
