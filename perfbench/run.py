"""magraph benchmark: run one workload, check every result, print its metrics.

    python3 perfbench/run.py --workload {cli-batch,query-mix,all}
                             [--seed N] [--seconds S] [--trace 0|1]
                             [--record-digests]

Run from the repository root; magraph is imported from `src/`. Inputs are
generated from the seed. `--trace 0` prints the end-to-end metrics and
`--trace 1` the per-layer metrics of a separate traced run. The last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; the lines before it report the environment, input sizes, sample
counts and any failed check. `--workload all` runs both workloads one
after another and prints them side by side. `--record-digests` stores the
result digests of a fully correct run as the baseline later runs of the same
seed are checked against (perfbench/digests.json).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

# one BLAS thread: with the waiting parent or child, a run stays within two
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-batch", "query-mix")
# end-to-end metrics printed but not declared in BENCHMARK.json (see README)
REPORTED_ONLY = {"op_tail_s": "s", "fail_ratio": "ratio"}


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    workdir: Path
    record: bool
    layers: list[str]  # the per-layer metric names BENCHMARK.json declares


def _declared() -> dict:
    """The metric lists of BENCHMARK.json, which the final JSON line must match."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": _commit(),
        "seed": seed,
    }


def _commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def run_one(args) -> int:
    started = time.perf_counter()
    if not (ROOT / "src" / "magraph" / "__init__.py").is_file():
        print(f"error: no magraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import importlib

    module = importlib.import_module(args.workload.replace("-", "_"))
    declared = _declared()
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=base))
    try:
        ctx = Context(
            args.seed, args.seconds, bool(args.trace), workdir, args.record_digests, list(declared["per_layer"])
        )
        out = module.run(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass

    report = {"workload": args.workload, "trace": args.trace, "env": environment(args.seed)}
    report["run_s"] = time.perf_counter() - started
    report.update(out)
    print("report: " + json.dumps(report, sort_keys=True))
    for key, reason in sorted(out["failures"].items()):
        print(f"FAILED {key}: {reason}")
    for key, reason in sorted(out["known_defects"].items()):
        print(f"KNOWN DEFECT {key}: {reason}")
    if args.trace:
        kind, values = "per_layer", out["per_layer"]
    else:
        kind, values = "end_to_end", out["end_to_end"]
        _print_end_to_end(args.workload, values, {**declared["end_to_end"], **REPORTED_ONLY})
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared[kind].items()}
    print(
        json.dumps(
            {
                "correct": out["failed"] == 0,
                "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def _print_end_to_end(workload: str, e: dict, units: dict[str, str]) -> None:
    print(f"{workload}:")
    for name, unit in units.items():
        if name == "op_tail_s":
            if e["op_tail_s"] is None:
                line = f"none ({e['attempted']} ops: fewer than 20)"
            else:
                line = f"{e['op_tail_s']:.6g} {unit} (p{e['op_tail_pct']:g} of {e['attempted']} ops)"
        elif name == "fail_ratio":
            line = f"{e['fail_ratio']:.6g} ({e['failed']} of {e['attempted']}; {e['known_defects']} known defects shown)"
        elif name == "setup_s":
            line = f"{e[name]:.6g} {unit} (median of {e['setup_samples']})"
        elif name == "op_p50_s":
            line = f"{e[name]:.6g} {unit} (median of {e['attempted']} ops)"
        else:
            line = f"{e[name]:.6g} {unit}"
        print(f"  {name:<12} {line}")


def run_all(args) -> int:
    """Each workload in its own interpreter, then one table of every metric."""
    reports, finals = {}, {}
    for w in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.record_digests:
            argv.append("--record-digests")
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{w}: exited {proc.returncode}", file=sys.stderr)
            return 1
        for ln in lines[:-1]:
            if not ln.startswith("report: "):
                print(ln)
        reports[w] = json.loads(next(ln[8:] for ln in lines if ln.startswith("report: ")))
        finals[w] = json.loads(lines[-1])
    kind = "per_layer" if args.trace else "end_to_end"
    names = list(reports[WORKLOADS[0]][kind])
    print(f"{'metric':<48}" + "".join(f"{w:>16}" for w in WORKLOADS))
    for name in names:
        cells = []
        for w in WORKLOADS:
            v = reports[w][kind][name]
            cells.append(f"{'none' if v is None else format(v, '.6g'):>16}")
        print(f"{name:<48}" + "".join(cells))
    metrics = {
        f"{w}.{name}": spec for w in WORKLOADS for name, spec in finals[w]["metrics"].items()
    }
    print(
        json.dumps(
            {
                "correct": all(f["correct"] for f in finals.values()),
                "attempted": sum(f["attempted"] for f in finals.values()),
                "failed": sum(f["failed"] for f in finals.values()),
                "metrics": metrics,
            }
        )
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
