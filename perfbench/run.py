#!/usr/bin/env python3
"""Benchmark for noodle: end-to-end metrics per workload, per-layer metrics traced.

Run from the repository root:

    python3 perfbench/run.py --workload synth-tsp6 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py                  # every workload, each in its own process

The benchmark drives noodle's public Python API from ``src/``, single
threaded, with ``NOODLE_THREADS`` left as found (and recorded).  One run:

1. sets up ``SETUP_REPEATS`` times (a fresh ``import noodle``, building
   the inputs, ``load_model`` and ``parse``) and reports the median as
   ``setup_s``, in CPU time;
2. with ``--trace 0``, calls the workload's inputs in turn until
   ``--seconds`` have gone (each at least once) and reports the mean
   CPU time of one pass over the calls (the sum of each call's mean) as
   ``cpu_s`` and the process's peak resident set as ``peak_rss_mb``;
   with ``--trace 1``, makes one
   untraced and one traced round, requires their outputs to be
   byte-identical, and reports the per-layer metrics of the traced round
   plus the tracing overhead;
3. checks every call's outputs (see ``workloads.py``) and counts each
   failed operation.

stdout carries one line per metric, then, as its last line, the JSON
result ``{"correct", "attempted", "failed", "metrics"}``.  A record of
the run (environment, input and output digests, CPU and wall time of
every call) and the traced run's spans go to ``.perfbench_out/``.

Times are the process's CPU time, not wall time.  On a 2-vCPU VM the
wall time of the same work doubled while another process shared its CPU,
and its CPU time rose by under 5%; a guest kernel with paravirtual steal
accounting likewise leaves time the host takes out of a task's CPU time.
Noodle runs single threaded, so on an idle machine the two agree (within
2% there).  The wall time of a pass (``wall_s``) is printed and
recorded beside the metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import NullTracer, Tracer
from workloads import WORKLOADS, sha256

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REQUIRED = (
    "src/noodle/__init__.py",
    "fixtures/tsp6.json",
    "fixtures/rediscovery_seeds.json",
    "fixtures/two_opt.ndl",
)
SETUP_REPEATS = 31
DEFAULT_SECONDS = 35


def git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "git_sha": git_sha(ROOT),
        "NOODLE_THREADS": os.environ.get("NOODLE_THREADS", "unset"),
    }


def setup(workload):
    """Import noodle afresh and prepare the inputs; returns (noodle, prepared, seconds)."""
    for name in [m for m in sys.modules if m == "noodle" or m.startswith("noodle.")]:
        del sys.modules[name]
    started = time.process_time()
    noodle = importlib.import_module("noodle")
    prepared = workload.prepare(noodle, ROOT)
    return noodle, prepared, time.process_time() - started


def timed_call(workload, noodle, prepared, index: int, tracer) -> tuple[float, float, str]:
    """One call of the workload; returns (CPU seconds, wall seconds, output)."""
    gc.collect()
    wall, cpu = time.perf_counter(), time.process_time()
    output = workload.call(noodle, prepared, index, tracer)
    return time.process_time() - cpu, time.perf_counter() - wall, output


def measure(workload, noodle, prepared, seconds: float):
    """Call every input in turn, round after round, until ``seconds`` have gone.

    The first round always completes; a later call starts only if its
    fastest wall time so far still fits.  Returns per-call CPU times, wall
    times and outputs.
    """
    calls = len(prepared.configs)
    times: list[list[float]] = [[] for _ in range(calls)]
    walls: list[list[float]] = [[] for _ in range(calls)]
    outputs: list[list[str]] = [[] for _ in range(calls)]
    deadline = time.perf_counter() + seconds
    while True:
        for index in range(calls):
            if walls[index] and time.perf_counter() + min(walls[index]) > deadline:
                return times, walls, outputs
            cpu, wall, output = timed_call(workload, noodle, prepared, index, NullTracer())
            times[index].append(cpu)
            walls[index].append(wall)
            outputs[index].append(output)


def expected_digest(workload: str) -> str | None:
    return json.loads((HERE / "expected.json").read_text(encoding="utf-8"))["outputs"].get(workload)


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    sys.path.insert(0, str(ROOT / "src"))
    setup_times = []
    for _ in range(SETUP_REPEATS):
        noodle, prepared, seconds = setup(workload)
        setup_times.append(seconds)

    tracer = None
    if args.trace:
        times, walls, outputs = measure(workload, noodle, prepared, 0)
        tracer = Tracer()
        tracer.install()
        try:
            traced = [timed_call(workload, noodle, prepared, i, tracer) for i in range(len(times))]
        finally:
            tracer.uninstall()
        for index, (_, _, output) in enumerate(traced):
            outputs[index].append(output)
    else:
        times, walls, outputs = measure(workload, noodle, prepared, args.seconds)
    cpu_s = sum(statistics.mean(runs) for runs in times)
    wall_s = sum(statistics.mean(runs) for runs in walls)

    first = [runs[0] for runs in outputs]
    checked = workload.check(noodle, prepared, first)
    weight = workload.operations_per_call
    attempted = failed = 0
    for index, runs in enumerate(outputs):
        call_failed = sum(checked.failed[index * weight : (index + 1) * weight])
        for output in runs:
            attempted += weight
            if output == runs[0]:
                failed += call_failed
            else:
                print(f"perfbench: call {index} output differs between executions", file=sys.stderr)
                failed += weight

    digest = sha256("".join(first))
    expected = expected_digest(workload.name)
    if expected is not None and expected != digest:
        print(
            f"perfbench: {workload.name} seed {args.seed}: seeded output digest {digest} "
            f"differs from stored {expected} (a behaviour change, not counted as a failure)",
            file=sys.stderr,
        )

    if args.trace:
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_s"] = (sum(t for t, _, _ in traced) - sum(runs[0] for runs in times), "s")
    else:
        metrics = {
            "cpu_s": (cpu_s, "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    env = environment()
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "inputs_sha256": {label: sha256(text) for label, text in prepared.documents.items()},
        "output_sha256": digest,
        "stored_output_sha256": expected,
        "call_cpu_seconds": times,
        "call_wall_seconds": walls,
        "wall_s": wall_s,
        "setup_seconds": setup_times,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        **checked.summary,
        "metrics": {name: value for name, (value, _) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.json", {"workload": workload.name, "seed": args.seed})
        if tracer.absent:
            print(f"perfbench: absent layers (hooks not found): {', '.join(tracer.absent)}", file=sys.stderr)
        if tracer.uncounted:
            print(f"perfbench: counters skipped for: {', '.join(sorted(tracer.uncounted))}", file=sys.stderr)

    print(f"workload {workload.name} seed {args.seed} trace {args.trace} rounds {len(times[0])}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for label, value in record["inputs_sha256"].items():
        print(f"input {label} sha256 {value}")
    verdict = "no stored digest" if expected is None else ("matches" if expected == digest else "DIFFERS")
    print(f"output sha256 {digest} ({verdict})")
    print(f"error_rate {record['error_rate']} ratio ({failed}/{attempted} operations failed)")
    if "rediscovery_rate" in checked.summary:
        print(f"rediscovery_rate {checked.summary['rediscovery_rate']} ratio")
    if "tour_cost" in checked.summary:
        print(f"tour_cost {checked.summary['tour_cost']} cost (mean over restarts)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"wall_s {wall_s} s (wall time of one pass; recorded, not bounded)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload, one after another, each in a fresh process."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = completed.stdout.splitlines()
        if completed.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {completed.returncode}", file=sys.stderr)
            return completed.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(total), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [path for path in REQUIRED if not (ROOT / path).is_file()]
    if missing:
        print(f"perfbench: not a noodle checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
