"""cli-batch: a fixed, seeded script of whole `magraph` commands.

Why this workload: this is how a user meets the system. Every command is its
own interpreter (`python -m magraph.cli`, spawn to exit) and pays for import,
parse_mag, validation and the CSR build before its kernel, which costs a few
hundredths of a second. So io, core and cli carry this workload and
algorithms barely does. The script runs all seven subcommands, including the
writers (`export` of every matrix kind, `subdet`), so a faster parser that
slows the writers shows here too.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import gen
from common import Deadline, RunRecord, Setup, run_child, summarize

NAME = "cli-batch"
# A set-up sample (a fresh `import magraph`, 0.3-0.4 s) after every other
# command: 13 samples spread over the pass.
SETUP_EVERY = 2

# Masks are fixed so that every seed does the same work; the seed picks the
# graph and the search sources.
BFS_MASK = 0b011
DEGREE_MASK = 0b101
DFS_MASK = 0b100  # 10 sub-determined roots keep dfs_sub's per-root BFS cheap
EXPORT_MASK = 0b011
SUBDET_MASK = 0b110


@dataclass
class Command:
    key: str  # the command line with file names, stable across runs of a seed
    argv: list[str]  # arguments after `magraph`, with absolute paths
    output: Path | None
    check: Callable[[str, bytes | None, dict], str | None]


# ---------------------------------------------------------------------------
# reading command output back


def _ints(line: str, prefix: str, missing: str) -> list:
    if not line.startswith(prefix):
        raise ValueError(f"expected {prefix!r}")
    out = []
    for tok in line[len(prefix) :].split():
        out.append(math.inf if tok == "inf" else None if tok == missing else int(tok))
    return out


def parse_bfs(text: str):
    lines = text.splitlines()
    return (
        _ints(lines[0], "vertices:", ""),
        _ints(lines[1], "distance:", ""),
        _ints(lines[2], "pred:", "nil"),
    )


def parse_bfs_json(text: str):
    doc = json.loads(text)
    return doc["vertices"], [math.inf if x == "inf" else x for x in doc["distance"]], doc["pred"]


def parse_dfs(text: str):
    lines = text.splitlines()
    return _ints(lines[0], "d:", ""), _ints(lines[1], "f:", ""), _ints(lines[2], "pred:", "nil")


def parse_degree(text: str):
    """(in, out, self or None) columns of the degree table."""
    lines = text.splitlines()
    has_self = lines[0].split()[3] == "self"
    rows = [ln.split() for ln in lines[1:]]
    ind, outd = (tuple(int(r[k]) for r in rows) for k in (1, 2))
    return ind, outd, tuple(int(r[3]) for r in rows) if has_self else None


def parse_info(text: str) -> dict:
    return dict(ln.split(": ", 1) if ": " in ln else (ln.rstrip(":"), "") for ln in text.splitlines())


def _isolated(g: gen.GenGraph) -> list[int]:
    deg_in, deg_out, _ = checks.degrees(g)
    return [v + 1 for v in range(g.n) if deg_in[v] + deg_out[v] == 0]


# ---------------------------------------------------------------------------
# the script


class Script:
    """The commands of one seed and what their checks need."""

    def __init__(self, seed: int, workdir: Path):
        self.g = gen.main_graph(seed)
        self.workdir = workdir
        self.path = workdir / "main.mag"
        self.path.write_text(self.g.text(), encoding="utf-8")
        self.adj = checks.adjacency(self.g)
        self.builtin = {name: checks.builtin_graph(name) for name in ("T", "R")}
        self._mag = None
        self._base = None  # adjacency, incidence and elimination of the main graph
        # set by run(): magraph's reader, traced in traced runs
        self.read_matrix_market = None
        self.commands: list[Command] = []
        self._build(random.Random(f"{NAME}:{seed}"))

    def mag(self):
        """The main graph parsed in process, for the checks that need magraph's view."""
        if self._mag is None:
            import magraph as mg

            self._mag = mg.load_mag(self.path)
        return self._mag

    def _add(self, args: list[str], check, output: str | None = None):
        argv = [str(self.path) if a == "main.mag" else a for a in args]
        out = None
        if output:
            out = self.workdir / output
            argv += ["-o", str(out)]
        key = " ".join(args + (["-o", output] if output else []))
        self.commands.append(Command(key, argv, out, check))

    def _build(self, rng: random.Random) -> None:
        g = self.g
        src = [g.edges[rng.randrange(len(g.edges))][0] for _ in range(3)]
        t, r = self.builtin["T"], self.builtin["R"]
        kept = ",".join(lbl for k, lbl in enumerate(g.vertex(src[1]).split(",")) if BFS_MASK >> k & 1)
        sub_src = int(checks.image(g.sizes, BFS_MASK)[0][src[1]])

        self._add(["validate", "main.mag"], self._check_validate)
        self._add(["degree", "main.mag"], self._degree_check(None, False, None))
        self._add(["info", "builtin:T"], self._info_check(t, "T"))
        self._add(["bfs", "main.mag", "--source", g.vertex(src[0])], self._bfs_check(src[0]))
        self._export("adjacency")
        self._add(["degree", "main.mag", "--algebraic"], self._degree_check(None, False, "degree main.mag"))
        self._add(["dfs", "builtin:R", "--zeta", "01"], self._dfs_check(r, 0b01))
        self._add(
            ["bfs", "main.mag", "--zeta", f"{BFS_MASK:03b}", "--source", kept],
            self._bfs_sub_check(g, BFS_MASK, sub_src),
        )
        self._export("incidence")
        self._add(["degree", "main.mag", "--zeta", f"{DEGREE_MASK:03b}"], self._degree_check(DEGREE_MASK, False, None))
        self._add(["dfs", "main.mag"], self._dfs_check(g, None))
        self._export("laplacian")
        self._add(
            ["degree", "main.mag", "--zeta", f"{DEGREE_MASK:03b}", "--algebraic"],
            self._degree_check(DEGREE_MASK, False, f"degree main.mag --zeta {DEGREE_MASK:03b}"),
        )
        # T's Location x Time: (2, t1) is sub-vertex 2 under zeta=101
        self._add(["bfs", "builtin:T", "--zeta", "101", "--source", "2,t1"], self._bfs_sub_check(t, 0b101, 1))
        self._export("weighted-laplacian")
        self._add(["info", "main.mag"], self._info_check(g, "main"))
        self._add(["dfs", "main.mag", "--zeta", f"{DFS_MASK:03b}"], self._dfs_check(g, DFS_MASK))
        self._export("normalized-laplacian")
        self._export("subdet-adjacency", zeta=EXPORT_MASK)
        self._add(
            ["degree", "builtin:R", "--zeta", "01", "--separate-loops"],
            self._degree_check(0b01, True, None, r),
        )
        self._export("elimination")
        self._export("adjacency", main_components=True)
        self._add(["bfs", "main.mag", "--json", "--source", g.vertex(src[2])], self._bfs_check(src[2], json_out=True))
        self._add(["subdet", "main.mag", "--zeta", f"{SUBDET_MASK:03b}"], self._check_subdet, "subdet.mag")
        self._export("laplacian", main_components=True)

    # checks -----------------------------------------------------------------

    def _check_validate(self, out: str, _file, _results) -> str | None:
        import magraph as mg

        if out != "ok: main\n":
            return f"unexpected output {out!r}"
        # write_mag gives back the input text byte for byte, so
        # parse_mag(write_mag(m)) is the parse of the input, m itself
        if mg.write_mag(self.mag()) != self.g.text():
            return "write_mag(parse_mag(text)) is not the input text"
        return None

    def _degree_check(self, mask, separate, twin, g=None):
        g = g or self.g

        def check(out: str, _file, results) -> str | None:
            if twin is not None and twin in results and results[twin][0] != out:
                return f"stdout differs from `{twin}`"
            if parse_degree(out) != checks.degrees(g, mask, separate):
                return "degree table differs from the edge count"
            return None

        return check

    def _info_check(self, g: gen.GenGraph, name: str):
        def check(out: str, _file, _results) -> str | None:
            info = parse_info(out)
            want = {
                "name": name,
                "order": str(len(g.sizes)),
                "tau": ",".join(map(str, g.sizes)),
                "vertices": str(g.n),
                "edges": str(len(g.edges)),
                "trivial": " ".join(map(str, _isolated(g))),
            }
            return None if info == want else f"info {info} differs from {want}"

        return check

    def _bfs_check(self, s: int, json_out: bool = False):
        def check(out: str, _file, _results) -> str | None:
            return checks.check_bfs(self.adj, s, *(parse_bfs_json(out) if json_out else parse_bfs(out)))

        return check

    def _bfs_sub_check(self, g: gen.GenGraph, mask: int, sub: int):
        adj = checks.adjacency(g)

        def check(out: str, _file, _results) -> str | None:
            return checks.check_bfs_sub(adj, g.sizes, mask, sub, parse_bfs(out)[0])

        return check

    def _dfs_check(self, g: gen.GenGraph, mask):
        adj = checks.adjacency(g)
        if mask is not None:
            adj = checks.aggregated(adj, g.sizes, mask)

        def check(out: str, _file, _results) -> str | None:
            return checks.check_dfs(adj, *parse_dfs(out))

        return check

    def _export(self, kind: str, zeta: int | None = None, main_components: bool = False) -> None:
        args = ["export", "main.mag", "--matrix", kind]
        if zeta is not None:
            args += ["--zeta", f"{zeta:03b}"]
        if main_components:
            args.append("--main-components")
        name = kind + ("-main" if main_components else "") + ".mtx"

        def check(out: str, data: bytes, _results) -> str | None:
            import magraph as mg

            if out:
                return "export printed to stdout"
            back = self.read_matrix_market(data.decode())
            want = self._expected_matrix(kind, zeta, main_components)
            if not back.equals(want):
                return "matrix read back differs from the in-process matrix"
            if kind == "adjacency" and not main_components:
                ref = self.adj
                if not (back.shape == ref.shape and (back.indices == ref.indices).all()
                        and (back.indptr == ref.indptr).all() and (back.values == 1.0).all()):
                    return "adjacency differs from the generated edges"
                jm = mg.MatrixWithTuple(back, mg.companion_tuple(self.mag()))
                if not mg.adjacency_matrix(mg.mag_from_adjacency(jm)).matrix.equals(back):
                    return "adjacency_matrix(mag_from_adjacency(J)) != J"
            return None

        self._add(args, check, name)

    def _expected_matrix(self, kind: str, zeta, main_components: bool):
        """The matrix the CLI should have written, assembled in process."""
        import magraph as mg

        m = self.mag()
        if self._base is None:
            self._base = (mg.adjacency_matrix(m), mg.incidence_matrix(m)[0].matrix, mg.elimination_matrix(m))
        jm, c, elim = self._base
        if kind == "subdet-adjacency":
            agg = mg.sub_determination_matrix(jm.tau, mg.SubDetermination(zeta))
            return mg.sub_determined_adjacency(jm.matrix, agg)
        if kind == "elimination":
            return elim
        mode = "adjacency"
        if kind == "adjacency":
            matrix = jm.matrix
        elif kind == "incidence":
            matrix, mode = c, "incidence"
        elif kind == "laplacian":
            matrix = mg.combinatorial_laplacian(c)
        elif kind == "weighted-laplacian":
            matrix = mg.weighted_laplacian(c, m.edge_weights)
        else:
            matrix = mg.normalized_laplacian(c)
        if main_components:
            matrix = mg.main_components(matrix, elim, mode)
        return matrix

    def _check_subdet(self, out: str, data: bytes, _results) -> str | None:
        """Round trip through write_mag, and the edge list from the edge images."""
        import magraph as mg

        text = data.decode()
        if mg.write_mag(mg.parse_mag(text)) != text:
            return "subdet output does not round-trip through parse_mag/write_mag"
        img, _ = checks.image(self.g.sizes, SUBDET_MASK)
        want, seen = [], set()
        for o, d, _w in self.g.edges:
            pair = (int(img[o]), int(img[d]))
            if pair[0] != pair[1] and pair not in seen:
                seen.add(pair)
                want.append(pair)
        kept = [s for k, s in enumerate(self.g.sizes) if SUBDET_MASK >> k & 1]
        got = []
        for line in text.split("*edges\n", 1)[1].splitlines():
            ends = []
            for side in line.split(" -> "):
                index, weight = 0, 1
                for label, size in zip(side.split(","), kept):
                    index += int(label[1:]) * weight
                    weight *= size
                ends.append(index)
            got.append(tuple(ends))
        return None if got == want else "subdet edges differ from the distinct edge images"


# ---------------------------------------------------------------------------
# the loop


def _in_process(argv: list[str]) -> tuple[int, str, float]:
    import magraph.cli

    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = magraph.cli.main(argv)
    return code, buf.getvalue(), time.perf_counter() - t0


def run(ctx) -> dict:
    script = Script(ctx.seed, ctx.workdir)
    setup = Setup(ctx.workdir, [], SETUP_EVERY)
    python = [sys.executable, "-m", "magraph.cli"]

    tracer = None
    overheads: list[float] = []  # per command: subprocess minus in-process span
    if ctx.trace:
        from tracer import Tracer, probe

        tracer = Tracer()
        overheads.append(probe(tracer, ctx.workdir))

    rec = RunRecord()
    outputs: dict[str, tuple[str, bytes | None]] = {}
    peak_rss_mb = 0.0
    commands = script.commands
    deadline = Deadline(ctx.seconds, len(commands))
    i = 0
    while True:
        if setup.due(i):
            deadline.pause(setup.take())
        if deadline.done(i):
            break
        cmd = commands[i % len(commands)]
        i += 1
        builtin = "builtin:" in cmd.key
        out = None
        if tracer is None or builtin:
            res = run_child(python + cmd.argv, ctx.workdir)
            rec.add(cmd.key, res.wall_s)
            peak_rss_mb = max(peak_rss_mb, res.maxrss_mb)
            if res.returncode != 0:
                rec.fail(cmd.key, f"exit {res.returncode}: {res.stderr.decode(errors='replace').strip()[-300:]}")
                continue
            out = res.stdout.decode()
        if tracer is not None:
            # Traced, a command runs in process under the tracer. Commands on
            # the builtin examples also run as a subprocess, for the process
            # overhead, and untraced in process, alternating which goes
            # first, for the tracing overhead; on the 10k-vertex file those
            # runs would add 3 s a command and their noise would swamp what
            # the wrappers cost.
            tracer.op = f"{cmd.key}#{i}"
            runs = {}
            for traced in ((True, False) if i % 2 else (False, True)) if builtin else (True,):
                with tracer if traced else contextlib.nullcontext():
                    runs[traced] = _in_process(cmd.argv)
            code, text, traced_s = runs[True]
            if out is None:
                rec.add(cmd.key, traced_s)
                out = text
            else:
                rec.trace_overhead_s += traced_s - runs[False][2]
                rec.trace_pairs += 1
                overheads.append(res.wall_s - tracer.op_span_time(tracer.op, "cli.main"))
            if any(c != 0 or t != out for c, t, _ in runs.values()):
                rec.fail(cmd.key, "in-process stdout differs from the subprocess's")
                continue
        data = cmd.output.read_bytes() if cmd.output else None
        d = checks.digest(out.encode() + b"\0" + (data or b""))
        if rec.digests.setdefault(cmd.key, d) != d:
            rec.fail(cmd.key, "output differs between runs of the same command")
        outputs.setdefault(cmd.key, (out, data))
    rec.loop_s = deadline.elapsed()

    import magraph as mg

    def traced_read(text):
        if tracer is None:
            return mg.read_matrix_market(text)
        tracer.op = "check"
        with tracer:
            return mg.read_matrix_market(text)

    script.read_matrix_market = traced_read
    for cmd in commands:
        if cmd.key in outputs and cmd.key not in rec.failures:
            out, data = outputs[cmd.key]
            rec.check(cmd.key, lambda: cmd.check(out, data, outputs))

    inputs = [
        {"graph": "main", "n": script.g.n, "edges": len(script.g.edges), "nnz": script.adj.nnz},
        *({"graph": n, "n": g.n, "edges": len(g.edges), "nnz": len(g.edges)} for n, g in script.builtin.items()),
    ]
    process_overhead = sum(overheads) / len(overheads) if overheads else 0.0
    return summarize(ctx, NAME, rec, setup, inputs, peak_rss_mb, tracer, process_overhead)
