#!/usr/bin/env python3
"""Benchmark for mbmlat: end-to-end metrics per workload, or per-layer
metrics from a traced run.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``bench/workloads.py``.  The inputs come from the
seed.  Every repetition runs in a fresh interpreter (``bench/child.py``),
one at a time, so caches start cold as they do for a CLI user.

``--trace 0`` times set-up several times and the job repeatedly for about
S seconds, but at least the workload's ``min_reps`` times, and reports the
medians of the following, every time in reference seconds: seconds on a
host of fixed speed, measured by the probe of ``bench/speed.py`` while the
repetition runs, so that a shared machine's drifting speed does not read
as a change of the program:

* ``setup_s``: import, ``load_catalog()`` and ``make_lattice``;
* ``wall_s``: the workload's whole job after set-up;
* ``op_p50_ms`` / ``op_p99_ms``: per-operation latency.  On the query
  stream an operation is one query; on the batch workloads it is the
  whole job;
* ``peak_rss_mib``: peak resident set (VmHWM) of the repetition's process.

``--trace 1`` runs the job once untraced and twice traced, reports the
per-layer metrics of ``bench/tracing.py`` and the tracing overhead
(traced ``wall_s`` over untraced ``wall_s``), and fails if a work count
differs between the two traced runs.

Every repetition's output is checked.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 1 if any check failed and 2 if the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
try:
    import mbmlat
    import tracing
    import workloads
except ImportError as exc:
    sys.exit(f"error: cannot import the mbmlat sources under {SRC}: {exc}")

SETUPS = 8  # a run times set-up at least this often, spread over its jobs
DEADLINE_S = 170.0

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mib", "MiB"),
]


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


class Runner:
    """Starts repetitions of one workload, one process at a time."""

    def __init__(self, workload, inputs, deadline):
        self.workload = workload
        self.stdin = json.dumps(inputs)
        self.deadline = deadline  # time.monotonic() by which every repetition must end
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def __call__(self, mode: str) -> dict:
        left = self.deadline - time.monotonic()
        if left <= 1:
            raise BenchError("out of time before the run finished")
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), self.workload.name, mode],
                input=self.stdin, capture_output=True, text=True, cwd=ROOT, env=self.env, timeout=left,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} repetition did not finish within {left:.0f} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} repetition exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
        return json.loads(proc.stdout.splitlines()[-1])


def percentile(samples, p):
    """The p-th percentile (statistics.quantiles, exclusive method)."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100)[p - 1]


class Checker:
    """Collects problems with every repetition's results, and the failed
    share of operations the workload's check reports."""

    def __init__(self, workload, inputs, seed):
        self.workload = workload
        self.inputs = inputs
        self.problems: list[str] = []
        self.digests: set[str] = set()
        self.recorded = workloads.recorded().get(workload.name, {}).get(str(seed))
        self.failed_share = 0.0

    def __call__(self, rep: dict) -> None:
        digest = workloads.digest(rep["results"])
        if digest in self.digests:
            return  # identical results were checked already
        self.digests.add(digest)
        problems, failures, attempts = self.workload.check(self.inputs, rep["results"], self.recorded)
        self.problems += problems
        self.failed_share = failures / attempts
        if len(self.digests) > 1:
            self.problems.append("repetitions of one job gave different results")

    def note(self) -> str:
        if self.workload.record is None:
            return "checked by the workload's rule"
        if self.recorded is None:
            return "invariants checked; nothing on record for this seed"
        return "invariants checked; results agree with the record"


def timed_run(run, seconds, check, min_reps):
    setups, reps = [], []
    per_job = -(-SETUPS // min_reps)
    start = time.monotonic()
    while len(reps) < min_reps or (time.monotonic() - start) * (len(reps) + 1) / len(reps) <= seconds:
        # set-up repetitions spread over the run, so a slow spell of a
        # shared machine does not decide their median
        setups += [run("setup")["setup_s"] for _ in range(per_job)]
        rep = run("job")
        check(rep)
        reps.append(rep)
    metrics = {
        "setup_s": statistics.median(setups + [r["setup_s"] for r in reps]),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "op_p50_ms": statistics.median(percentile(r["op_ms"], 50) for r in reps),
        "op_p99_ms": statistics.median(percentile(r["op_ms"], 99) for r in reps),
        "peak_rss_mib": statistics.median(r["rss_mib"] for r in reps),
    }
    return metrics, reps, END_TO_END


def traced_run(run, check):
    plain = run("job")
    check(plain)
    traced = [run("trace"), run("trace")]
    for rep in traced:
        check(rep)
    layers = [tracing.derive(rep["layers"]) for rep in traced]
    differ = tracing.count_mismatches(*layers)
    if differ:
        check.problems.append(f"work counts differ between two traced runs: {', '.join(differ)}")
    metrics = {n: (statistics.mean(l[n] for l in layers) if not tracing.is_count(n) else layers[0][n])
               for n in layers[0]}
    metrics["bench.trace_overhead"] = statistics.mean(r["wall_s"] for r in traced) / plain["wall_s"]
    return metrics, [plain] + traced, [(name, unit) for name, unit, _ in tracing.PER_LAYER]


def errors(results) -> int:
    """Operations of one repetition that raised an MbmlatError."""
    return sum(1 for r in results if isinstance(r, dict) and "error" in r) if isinstance(results, list) else 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if Path(mbmlat.__file__).resolve().parent != SRC / "mbmlat":
        print(f"error: imported mbmlat from {mbmlat.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        inputs = workload.generate(args.seed)
        run = Runner(workload, inputs, deadline)
        run("setup")  # byte-compiles the package so no repetition pays for it
        check = Checker(workload, inputs, args.seed)
        if args.trace:
            metrics, reps, reported = traced_run(run, check)
        else:
            metrics, reps, reported = timed_run(run, args.seconds, check, workload.min_reps)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    ops = len(reps[0]["op_ms"])
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  repetitions {len(reps)}")
    for name, unit in reported:
        print(f"  {name:48s} {metrics[name]:14.6g} {unit}")
    if not args.trace:
        raw = statistics.median(r["wall_raw_s"] for r in reps)
        print(f"  wall_s in plain seconds: {raw:.6g} s ({raw / metrics['wall_s']:.3f} x the reference seconds)")
        beyond = ops - round(0.99 * ops)
        print(f"  operations per repetition: {ops} ({beyond} beyond p99)")
        print(f"  failed_share {check.failed_share:.4f} ratio")
    print(f"  output: {check.note()}")
    for problem in check.problems:
        print(f"  CHECK FAILED: {problem}")
    correct = not check.problems
    print(json.dumps({
        "correct": correct,
        "attempted": ops * len(reps),
        "failed": sum(errors(r["results"]) for r in reps),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in reported},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
