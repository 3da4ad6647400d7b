"""Benchmark of the aisles CLI: end-to-end timings and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S [--trace 0|1]

NAME is one of the workloads in `workloads.py`, or `all` to run each in
turn.  Every invocation is a fresh `perfbench/child.py` process that
calls `aisles.cli.main`; one runs at a time, in a closed loop, for S
seconds (the last one started before S ends is let finish).

With --trace 0 the result reports, as medians over the invocations:
  wall_s       spawn to exit of one invocation
  setup_s      spawn to the return of cli.load_table / cli.load_model:
               interpreter start, imports, quiver parse, table build
  peak_rss_mb  the child's peak resident memory, from os.wait4.  Linux
               counts the parent's resident memory at spawn in it, so
               this script keeps its own small.
It also prints wall_s_tail (the highest percentile with at least ten
samples beyond it, with the sample count) and fail_ratio; these are not
in the result because they can be undefined or zero.

With --trace 1 it alternates untraced and traced invocations (at least
two traced) and reports the per-layer metrics of `layers.py` (times as
medians over traced invocations) and trace.overhead, traced over
untraced median wall time.  Counts must repeat exactly across traced
invocations.

An invocation fails on a nonzero exit, a time-out, a failed output
check, or stdout that differs from the run's first invocation.  The last
line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import select
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "aisles")
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(HERE, ".work")
RUN_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_SAMPLES = 21

sys.path.insert(0, HERE)

import layers  # noqa: E402
import tracer  # noqa: E402
from workloads import BY_NAME, WORKLOADS  # noqa: E402


@dataclass
class Invocation:
    """One finished child: timings, memory, exit status and output."""

    run_id: str
    wall: float
    setup: float
    rss_mb: float
    code: int | None  # None when killed at the run's time limit
    stdout: str
    problems: list


def _reap(pid, deadline):
    """Wait for pid until deadline, killing it if it runs over; returns
    (exit code or None when killed, rusage)."""
    fd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
        if not ready:
            signal.pidfd_send_signal(fd, signal.SIGKILL)
    finally:
        os.close(fd)
    _, status, rusage = os.wait4(pid, 0)
    return (os.waitstatus_to_exitcode(status) if ready else None), rusage


def invoke(workdir, run_id, cli_args, mode, deadline):
    report = os.path.join(workdir, run_id + ".json")
    out = os.path.join(workdir, run_id + ".out")
    err = os.path.join(workdir, run_id + ".err")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    argv = [sys.executable, CHILD, report, mode, run_id, "--", *cli_args]
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644),
    ]
    t0 = time.monotonic()
    pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=actions)
    code, rusage = _reap(pid, deadline)
    wall = time.monotonic() - t0
    problems = []
    if code is None:
        problems.append("killed: the run's time limit ran out")
    elif code != 0:
        problems.append(f"exit code {code}")
    with open(out, "r", encoding="utf-8") as fh:
        stdout = fh.read()
    try:
        with open(report, "r", encoding="utf-8") as fh:
            setup = json.load(fh)["setup_end"] - t0
    except (OSError, ValueError, KeyError):
        setup = wall
        problems.append("no set-up time reported")
    if problems:
        with open(err, "r", encoding="utf-8") as fh:
            problems.append("stderr: " + fh.read()[-400:].strip())
    return Invocation(run_id, wall, setup, rusage.ru_maxrss / 1024.0, code, stdout, problems)


def tail(samples):
    """Highest percentile with at least ten samples beyond it, as
    (value, percentile), or None with fewer than 11 samples."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


class Run:
    """All invocations of one workload and seed, with their failures."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.workdir = workdir
        self.cli_args, self.expected = workload.make_args(seed, workdir)
        self.invocations = []
        self.first_stdout = None
        self.failures = {}  # run id -> problems
        self.start = time.monotonic()
        self.deadline = self.start + RUN_LIMIT_S

    def elapsed(self):
        return time.monotonic() - self.start

    def once(self, mode):
        """One invocation in mode run, trace or setup (exit once loaded)."""
        run_id = f"{self.workload.name}-{len(self.invocations)}"
        inv = invoke(self.workdir, run_id, self.cli_args, mode, self.deadline)
        if mode != "setup":
            if inv.code == 0:
                inv.problems += self.workload.check(inv.stdout, self.expected)
            if self.first_stdout is None:
                self.first_stdout = inv.stdout
            elif inv.stdout != self.first_stdout:
                inv.problems.append("stdout differs from the run's first invocation")
        self.invocations.append(inv)
        self.fail(run_id, inv.problems)
        return inv

    def fail(self, run_id, problems):
        if problems:
            self.failures.setdefault(run_id, []).extend(problems)

    def timed_out(self):
        return any(inv.code is None for inv in self.invocations)


def run_untraced(run, seconds):
    while run.elapsed() < seconds and not run.timed_out():
        run.once("run")
    full = list(run.invocations)
    walls = [inv.wall for inv in full]
    # Where set-up is cheap, time it alone as well, spending at most a
    # tenth of the run, so its median rests on enough samples.
    setups = [inv.setup for inv in full]
    extra_start = run.elapsed()
    while (
        len(setups) < SETUP_SAMPLES
        and run.elapsed() - extra_start + statistics.median(setups) <= seconds / 10
        and not run.timed_out()
    ):
        setups.append(run.once("setup").setup)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(inv.rss_mb for inv in full), "MB"),
    }
    t = tail(walls)
    extra = {
        "wall_s_tail": (
            f"{t[0]:.4f} s (p{t[1]:.0f} of {len(walls)} samples)" if t
            else f"n/a s ({len(walls)} samples; needs at least 11)"
        ),
        "fail_ratio": f"{len(run.failures) / len(run.invocations):.4f} ratio "
                      f"({len(run.failures)}/{len(run.invocations)})",
        "samples": f"{len(walls)} full invocations, {len(setups)} set-up times",
    }
    return metrics, extra


def run_traced(run, seconds):
    untraced, traced = [], []
    while (run.elapsed() < seconds or len(traced) < 2) and not run.timed_out():
        untraced.append(run.once("run").wall)
        inv = run.once("trace")
        spans_path = os.path.join(run.workdir, inv.run_id + ".json.spans")
        if inv.code is None or not os.path.exists(spans_path):
            run.fail(inv.run_id, ["no spans written"])
            break
        header, *spans = tracer.load(spans_path)
        stats = tracer.aggregate(header["names"], *spans)
        values = layers.layer_metrics(stats, header["counts"], header["observed"])
        problems = run.workload.check_trace(values)
        if traced:
            problems += [
                f"{name} is {values[name]}, was {traced[0][1][name]}"
                for name in values
                if layers.is_exact(name) and values[name] != traced[0][1][name]
            ]
        run.fail(inv.run_id, problems)
        traced.append((inv.wall, values))
    if not traced:
        return {}, {}
    metrics = {}
    for name in layers.metric_names():
        if name == "trace.overhead":
            value = statistics.median(w for w, _ in traced) / statistics.median(untraced)
        elif layers.is_exact(name):
            value = traced[0][1][name]
        else:
            value = statistics.median(v[name] for _, v in traced)
        metrics[name] = (value, layers.unit_of(name))
    return metrics, {}


def source_lines():
    total = 0
    for dirpath, _dirs, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def print_summary(run, seed, trace, metrics, extra):
    w = run.workload
    print(f"workload {w.name}  seed {seed}  trace {trace}  "
          f"{len(run.invocations)} invocations in {run.elapsed():.1f} s")
    print(f"  why: {w.why}")
    print(f"  args: {' '.join(run.cli_args)}")
    if trace:
        for layer, names, moves in layers.LAYERS:
            print(f"  [{layer}] should move: {moves}")
            for name in names:
                value, unit = metrics.get(name, ("missing", ""))
                base = layers.BASELINES.get((w.name, name))
                note = f"   ROADMAP baseline {base[0]}: {base[1]} s" if base else ""
                if name in layers.VARYING:
                    note = "   varies per process: median, not exact"
                print(f"    {name:40s} {value!s:>22} {unit}{note}")
    else:
        for name, (value, unit) in metrics.items():
            print(f"  {name:14s} {value:.4f} {unit}")
        for name, text in extra.items():
            print(f"  {name:14s} {text}")
    for run_id, problems in run.failures.items():
        print(f"  FAILED {run_id}: {'; '.join(problems)}")


def bench(workload, seed, seconds, trace):
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK)
    try:
        run = Run(workload, seed, workdir)
        if trace:
            metrics, extra = run_traced(run, seconds)
        else:
            metrics, extra = run_untraced(run, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print_summary(run, seed, trace, metrics, extra)
    return {
        "correct": not run.failures and bool(metrics),
        "attempted": len(run.invocations),
        "failed": len(run.failures),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w.name for w in WORKLOADS] + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cli.py")):
        sys.stderr.write(f"error: no aisles source at {SRC}\n")
        return 2
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    info = {
        "seed": args.seed,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m_at_start": os.getloadavg()[0],
        "src_loc": source_lines(),
    }
    print("info " + json.dumps(info, sort_keys=True))
    chosen = WORKLOADS if args.workload == "all" else [BY_NAME[args.workload]]
    for workload in chosen:
        result = bench(workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
