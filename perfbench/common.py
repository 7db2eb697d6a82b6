"""Shared pieces: the run context, child processes, set-up timing, the timed
loop for in-process workloads, summaries and the per-layer report."""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"

# Percentiles tried for op_tail_s, highest first. The tail is the highest one
# with at least ten samples above it, as the run's sample count allows.
_TAIL_GRID = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def child_env() -> dict:
    """Environment for child interpreters: magraph on the path, one BLAS thread.

    One BLAS thread in the child plus the waiting parent keeps a run within
    two threads of work.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


@dataclass
class ChildResult:
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    maxrss_mb: float


def run_child(argv: list[str], cwd: Path) -> ChildResult:
    """Run a child to exit, timing it from spawn to reap, with its own peak RSS."""
    with tempfile.TemporaryFile(dir=cwd) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, cwd=cwd, env=child_env())
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return ChildResult(proc.returncode, out, err.read(), wall, usage.ru_maxrss / 1024)


class Setup:
    """Set-up samples: `import magraph` plus loading inputs, in a fresh interpreter.

    `args` are setup_probe.py's: the files to load, `--algebra` before those
    whose matrices are built too. The timed loop takes a sample whenever the
    count of operations done is a multiple of `every`, from none done to the
    loop's end, so the samples span the run as the operations do and their
    median follows the same state of the machine. The loop's clock stops
    while a sample runs.
    """

    def __init__(self, workdir: Path, args: list, every: int):
        self.argv = [sys.executable, str(HERE / "setup_probe.py"), *map(str, args)]
        self.workdir, self.every = workdir, every
        self.samples: list[dict] = []

    def due(self, calls: int) -> bool:
        return calls % self.every == 0

    def take(self) -> float:
        """Run one sample; return the wall time it took, to leave out of the loop."""
        t0 = time.perf_counter()
        res = run_child(self.argv, self.workdir)
        if res.returncode != 0:
            raise RuntimeError("set-up probe failed: " + res.stderr.decode(errors="replace")[-400:])
        self.samples.append(json.loads(res.stdout))
        return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# the run record


@dataclass
class Op:
    """One timed call, keyed stably within a seed, with its result check.

    `check(result, results)` returns None or the reason the result is wrong;
    `results` maps every key the run executed to its first result, so a check
    can compare against a second route.
    """

    key: str
    call: Callable[[], Any]
    check: Callable[[Any, dict], str | None]
    # A known defect of magraph this check shows: a mismatch is reported in
    # `known_defects`, and neither fails the operation nor records a digest.
    known_defect: str | None = None


@dataclass
class RunRecord:
    times: list[float] = field(default_factory=list)
    keys: list[str] = field(default_factory=list)
    failures: dict[str, str] = field(default_factory=dict)  # key -> first reason
    defects: dict[str, str] = field(default_factory=dict)  # key -> known defect shown
    digests: dict[str, str] = field(default_factory=dict)
    results: dict[str, Any] = field(default_factory=dict)  # key -> first result
    loop_s: float = 0.0
    trace_overhead_s: float = 0.0  # summed traced minus untraced time
    trace_pairs: int = 0

    def add(self, key: str, seconds: float) -> None:
        self.keys.append(key)
        self.times.append(seconds)

    def fail(self, key: str, reason: str) -> None:
        self.failures.setdefault(key, reason)

    def check(self, key: str, check: Callable[[], str | None], known_defect: str | None = None) -> None:
        """Run one result check; a check that raises fails its key too.

        A mismatch on a check with a `known_defect` is recorded in `defects`
        rather than failing the key.
        """
        try:
            reason = check()
        except Exception as exc:  # malformed output is a failed operation
            self.fail(key, f"check raised {type(exc).__name__}: {exc}")
            return
        if reason and known_defect:
            self.defects[key] = f"{known_defect}: {reason}"
        elif reason:
            self.fail(key, reason)

    def count_failed(self) -> int:
        return sum(1 for k in self.keys if k in self.failures)


def interleave(ops: list) -> list:
    """A fixed order that spreads each kind of call through the cycle."""
    step = 7
    while math.gcd(step, len(ops)) != 1:  # coprime: every op placed once
        step += 1
    return [ops[(i * step) % len(ops)] for i in range(len(ops))]


class Deadline:
    """When a closed loop over a fixed cycle of calls stops.

    It runs whole cycles, as many as bring the measured time nearest to
    `seconds` and at least one, so every run of a workload times the same
    multiset of calls, and a traced run covers every call of the cycle.
    """

    def __init__(self, seconds: float, cycle_len: int):
        self.seconds, self.cycle_len = seconds, cycle_len
        self.start = time.perf_counter()

    def pause(self, seconds: float) -> None:
        """Leave `seconds` just spent outside the loop out of its elapsed time."""
        self.start += seconds

    def done(self, calls: int) -> bool:
        if calls == 0 or calls % self.cycle_len:
            return False
        elapsed = self.elapsed()
        cycle = elapsed / (calls // self.cycle_len)
        return elapsed + cycle / 2 >= self.seconds

    def elapsed(self) -> float:
        return time.perf_counter() - self.start


def run_ops(ops: list[Op], seconds: float, setup: Setup, tracer=None) -> RunRecord:
    """Closed loop over `ops` in order, one call at a time, until `Deadline`.

    Set-up samples are taken as `setup` asks. Traced, each call runs once
    untraced and once under the tracer, and `trace_overhead_s` sums traced
    minus untraced time.
    """
    from checks import result_digest

    rec = RunRecord()
    deadline = Deadline(seconds, len(ops))
    i = 0
    while True:
        if setup.due(i):
            deadline.pause(setup.take())
        if deadline.done(i):
            break
        op = ops[i % len(ops)]
        i += 1
        if tracer is not None and i % 2:
            # traced twin first on every other call, so warm-cache effects
            # cancel in the overhead estimate
            traced = _traced_call(tracer, op, i)
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a raising call is a failed operation
            rec.add(op.key, time.perf_counter() - t0)
            rec.fail(op.key, f"raised {type(exc).__name__}: {exc}")
            continue
        rec.add(op.key, time.perf_counter() - t0)
        if tracer is not None:
            if not i % 2:
                traced = _traced_call(tracer, op, i)
            rec.trace_overhead_s += traced - rec.times[-1]
            rec.trace_pairs += 1
        d = result_digest(result)
        if rec.digests.setdefault(op.key, d) != d:
            rec.fail(op.key, "result differs between calls with the same input")
        rec.results.setdefault(op.key, result)
    rec.loop_s = deadline.elapsed()
    return rec


def _traced_call(tracer, op: Op, i: int) -> float:
    tracer.op = f"{op.key}#{i}"
    with tracer:
        t0 = time.perf_counter()
        try:
            op.call()
        except Exception:  # the untraced twin records the failure
            pass
        return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# recorded digests


def check_recorded(workload: str, seed: int, rec: RunRecord) -> int:
    """Fail every key whose digest differs from the committed baseline."""
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    recorded = table.get(workload, {}).get(str(seed), {})
    for key, d in rec.digests.items():
        if key in recorded and recorded[key] != d:
            rec.fail(key, f"digest {d} differs from recorded {recorded[key]}")
    return sum(1 for k in rec.digests if k in recorded)


def record_digests(workload: str, seed: int, rec: RunRecord) -> None:
    """Store the run's digests, except of results that show a known defect."""
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    kept = {k: d for k, d in sorted(rec.digests.items()) if k not in rec.defects}
    table.setdefault(workload, {})[str(seed)] = kept
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# summaries


def tail(times: list[float]) -> tuple[float | None, float | None]:
    """(percentile, value): the highest grid percentile with >= 10 samples above it."""
    ordered = sorted(times)
    n = len(ordered)
    for p in _TAIL_GRID:
        rank = math.ceil(p / 100 * n)  # nearest-rank
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None, None


def run_checks(ops: list[Op], rec: RunRecord) -> None:
    """Check one result per key; calls with equal keys gave equal digests."""
    for op in ops:
        if op.key in rec.results and op.key not in rec.failures:
            rec.check(op.key, lambda: op.check(rec.results[op.key], rec.results), op.known_defect)


def finish(ctx, name: str, ops: list[Op], setup: Setup, inputs: list[dict]) -> dict:
    """Time `ops` in this process, check them, and build the workload's report.

    Peak RSS is read before the checks, which build their references only
    then, so it holds magraph's work and the generated edge lists.
    """
    tracer = None
    process_overhead = 0.0
    if ctx.trace:
        from tracer import Tracer, probe

        tracer = Tracer()
        process_overhead = probe(tracer, ctx.workdir)
    rec = run_ops(ops, ctx.seconds, setup, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run_checks(ops, rec)
    return summarize(ctx, name, rec, setup, inputs, peak_rss_mb, tracer, process_overhead)


def summarize(ctx, name, rec, setup, inputs, peak_rss_mb, tracer, process_overhead) -> dict:
    """Compare digests with the committed baseline and assemble the report."""
    compared = check_recorded(name, ctx.seed, rec)
    if ctx.record and not rec.failures:
        record_digests(name, ctx.seed, rec)
    out = {
        "inputs": inputs,
        "attempted": len(rec.times),
        "failed": rec.count_failed(),
        "failures": rec.failures,
        "known_defects": rec.defects,
        "loop_s": rec.loop_s,
        "digests_compared": compared,
        "digest": checks_digest(rec.digests),
    }
    if tracer is None:
        out["end_to_end"] = end_to_end(rec, [s["setup_s"] for s in setup.samples], peak_rss_mb)
    else:
        out["calls"] = tracer.call_counts()
        out["per_layer"] = per_layer(
            tracer,
            {
                "cli.import_s": statistics.median(s["import_s"] for s in setup.samples),
                "cli.process_overhead_s": process_overhead,
                "trace.overhead_s": rec.trace_overhead_s / max(rec.trace_pairs, 1),
            },
            ctx.layers,
        )
    return out


def checks_digest(digests: dict[str, str]) -> str:
    """One digest over every key's result digest, for comparing whole runs."""
    from checks import digest

    return digest(sorted(digests.items()))


def end_to_end(rec: RunRecord, setup: list[float], peak_rss_mb: float) -> dict:
    p, value = tail(rec.times)
    failed = rec.count_failed()
    return {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(rec.times),
        "op_tail_s": value,
        "op_tail_pct": p,
        "ops_per_s": len(rec.times) / rec.loop_s,
        "peak_rss_mb": peak_rss_mb,
        "fail_ratio": failed / len(rec.times),
        "attempted": len(rec.times),
        "failed": failed,
        "setup_samples": len(setup),
        "known_defects": len(rec.defects),
    }


def per_layer(tracer, extra: dict[str, float], names: list[str]) -> dict[str, float]:
    """Each named per-layer value from the tracer's spans plus the measured extras.

    A name no span or extra gives reads 0: a layer the run never called.
    """
    values = {f"{k}.self_s": v for k, v in tracer.self_times().items()}
    values["algorithms.dfs_sub.total_s"] = tracer.total_times().get("algorithms.dfs_sub", 0.0)
    values.update(tracer.counts())
    values["trace.spans"] = len(tracer.spans)
    values.update(extra)
    return {name: values.get(name, 0) for name in names}
