"""Spans around magraph's public functions, recorded from outside the package.

While a `Tracer` is installed, each listed public function is replaced, in
every magraph module that holds a reference to it, by a wrapper that records
a span: name, start, end, parent span and the id of the benchmark operation
that caused it. Calls one public function makes into another (for example
`parse_mag` into `build_mag`, or `dfs_sub` into `bfs_sub`) therefore nest,
and a layer's self time is its span minus its direct children. Spans stay in
memory and are summed when the run ends. No file of magraph changes, and
nothing is wrapped while the tracer is not installed.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

# (module, function) pairs that get a span; spans are named "<module>.<function>"
# unless _RENAME gives a shared name.
TRACED = {
    "cli": ("main",),
    "io": (
        "load_mag",
        "parse_mag",
        "write_mag",
        "save_mag",
        "export_matrix_market",
        "read_matrix_market",
    ),
    "core": ("build_mag", "sub_determine_mag"),
    "matrices": (
        "adjacency_matrix",
        "incidence_matrix",
        "combinatorial_laplacian",
        "weighted_laplacian",
        "normalized_laplacian",
        "elimination_matrix",
        "trivial_components",
        "main_components",
        "sub_determination_matrix",
        "sub_determined_adjacency",
        "mag_from_adjacency",
        "matrix_rank",
        "nullspace_dimension",
    ),
    "algorithms": (
        "degree",
        "degree_from_adjacency",
        "sub_det_degree",
        "sub_det_degree_from_adjacency",
        "bfs",
        "bfs_sub",
        "dfs",
        "dfs_sub",
        "reachability",
    ),
}

# the three Laplacian kinds report as one layer entry
_RENAME = {
    "matrices.combinatorial_laplacian": "matrices.laplacian",
    "matrices.weighted_laplacian": "matrices.laplacian",
    "matrices.normalized_laplacian": "matrices.laplacian",
}

_HOLDERS = ("", "cli", "io", "core", "matrices", "algorithms", "sparse")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str
    counts: dict


def _reach_method(args, kwargs) -> str:
    if len(args) > 1:
        return args[1]
    return kwargs.get("method", "closure")


class Tracer:
    """Records spans of the public calls made while it is installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = "-"
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # span recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name
            if name == "algorithms.reachability":
                span_name = f"{name}.{_reach_method(args, kwargs)}"
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(span_name, time.perf_counter(), 0.0, parent, tracer.op, {})
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            _count(name, span.counts, args, result)
            return result

        return wrapper

    # installation -------------------------------------------------------------

    def install(self) -> None:
        """Replace every traced function in every magraph module that holds it."""
        import importlib

        mods = [
            importlib.import_module("magraph" + ("." + h if h else ""))
            for h in _HOLDERS
        ]
        wrappers = {}
        for module, names in TRACED.items():
            home = importlib.import_module(f"magraph.{module}")
            for fname in names:
                fn = getattr(home, fname)
                full = f"{module}.{fname}"
                wrappers[fn] = self._wrap(_RENAME.get(full, full), fn)
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                try:
                    wrapper = wrappers.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # summaries ----------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - child[i]
        return out

    def total_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start)
        return out

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for s in self.spans:
            for key, value in s.counts.items():
                out[key] = out.get(key, 0) + value
        for s in self.spans:
            if s.name == "algorithms.bfs_sub" and s.parent is not None:
                if self.spans[s.parent].name == "algorithms.dfs_sub":
                    out["algorithms.dfs_sub.trees"] = out.get("algorithms.dfs_sub.trees", 0) + 1
        return out

    def call_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0) + 1
        return out

    def op_span_time(self, op: str, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.op == op and s.name == name)


def _count(name: str, counts: dict, args, result) -> None:
    """Work counters observed from a call's arguments and result."""
    if name == "io.parse_mag":
        counts["io.parse_mag.lines"] = args[0].count("\n")
    elif name == "core.build_mag":
        counts["core.build_mag.edges"] = len(result.edges)
    elif name == "io.export_matrix_market":
        counts["io.export_matrix_market.nnz"] = args[0].nnz
    elif name in ("algorithms.bfs", "algorithms.bfs_sub"):
        counts[f"{name}.visited"] = len(result.vertices)
    elif name == "algorithms.reachability":
        counts["algorithms.reachability.pairs"] = result.pattern.nnz
    elif name == "matrices.nullspace_dimension":
        from magraph.sparse import DENSE_CAP

        route = "exact" if args[0].rows <= DENSE_CAP else "components"
        counts[f"matrices.nullity.{route}"] = 1


def probe(tracer: Tracer, workdir) -> float:
    """Trace one call of every listed function on the builtin T graph.

    Every traced run does this before its loop, so each per-layer metric is
    measured on every workload; on a workload that does not use a layer, its
    figure is this probe alone, microseconds. Returns the process overhead of
    one `magraph info builtin:T`: its subprocess time minus its in-process span.
    """
    import contextlib
    import io
    import sys

    import magraph as mg
    import magraph.cli
    from common import run_child

    tracer.op = "probe"
    path = workdir / "probe.mag"
    with tracer, contextlib.redirect_stdout(io.StringIO()):
        t = mg.builtin_example("T")
        mg.save_mag(t, path)
        mg.load_mag(path)
        t = mg.parse_mag(mg.write_mag(t))
        jm = mg.adjacency_matrix(t)
        c = mg.incidence_matrix(t)[0].matrix
        lap = mg.combinatorial_laplacian(c)
        mg.weighted_laplacian(c, t.edge_weights)
        mg.normalized_laplacian(c)
        mg.main_components(lap, mg.elimination_matrix(t), "adjacency")
        mg.trivial_components(t)
        zeta = mg.SubDetermination.from_bits("101")
        agg = mg.sub_determination_matrix(jm.tau, zeta)
        mg.sub_determined_adjacency(jm.matrix, agg)
        buf = io.StringIO()
        mg.export_matrix_market(lap, buf)
        mg.read_matrix_market(buf.getvalue())
        mg.sub_determine_mag(t, zeta)
        mg.mag_from_adjacency(jm)
        mg.matrix_rank(c)
        mg.nullspace_dimension(lap)
        mg.degree(t)
        mg.degree_from_adjacency(jm)
        mg.sub_det_degree(t, zeta)
        mg.sub_det_degree_from_adjacency(jm, zeta)
        mg.bfs(jm, (1, 0, 0))
        mg.bfs_sub(jm, zeta, (1, 0))
        mg.dfs(jm)
        mg.dfs_sub(jm, zeta)
        for method in ("closure", "series", "inverse"):
            mg.reachability(jm, method)
        magraph.cli.main(["info", "builtin:T"])
    child = run_child([sys.executable, "-m", "magraph.cli", "info", "builtin:T"], workdir)
    return child.wall_s - tracer.op_span_time("probe", "cli.main")
