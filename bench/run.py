#!/usr/bin/env python3
"""okv benchmark: one workload, run as a closed loop with a single client.

    python3 bench/run.py --workload hull --seed 1 --seconds 15 --trace 0

One process, one thread, one job at a time; every job goes through okv's
CLI entry point `okv.cli.main` in-process with its standard output captured.

A run has four phases:

1. set-up: fresh interpreters, launched one at a time, import okv and load
   every job of the workload as a JobSpec (probe.py);
2. a first pass over the jobs, after a few tiny warm-up jobs.  With
   --trace 0 it runs under tracemalloc for the peak-allocation metric.  Its
   reports are checked against the benchmark's own computations (checks.py)
   and kept as the bytes every later repetition must reproduce;
3. timed rounds: every job once per round, in an order drawn from the seed,
   until --seconds have passed (whole rounds only).  With --trace 1 the
   rounds run with per-layer spans installed (spans.py);
4. the result: the last line of standard output is one JSON object.

Every timed job is bracketed by a reference loop (exact Fraction elimination
plus tuple and set building, no okv code).  A job's calibrated time is its
wall time divided by the mean of its two bracketing reference times, times
NOMINAL_REF_S, so it reads in seconds at a fixed nominal host speed.  Raw
seconds are printed on "#" lines for information only.

A job execution fails on a non-zero exit, on a failed check of its report,
or on report bytes that differ from the first pass.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Time of one reference loop at the nominal host speed (about its time on
# the 2-vCPU host the figures in README.md come from).
NOMINAL_REF_S = 0.020
SETUP_LAUNCHES = 15

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
from reference import reference_loop  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def time_reference() -> float:
    gc.collect()
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def calibrated(raw: float, ref_before: float, ref_after: float) -> float:
    return raw / ((ref_before + ref_after) / 2) * NOMINAL_REF_S


def run_cli(argv) -> tuple:
    """(exit code, report bytes, wall seconds) of one in-process okv CLI call."""
    import okv.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = okv.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        elapsed = time.perf_counter() - start
    return code, out.getvalue().encode(), elapsed


def measure_setup(jobs: Path) -> tuple:
    """Median calibrated and raw launch-to-ready time of fresh interpreters.

    Each probe times the reference loop itself right after it is ready, and
    its launch is calibrated by that time: a reference taken in the same
    interpreter follows the host's speed during the launch far more closely
    than references taken in this process (which made the median noisier).
    """
    command = [sys.executable, "-I", str(HERE / "probe.py"), str(SRC), str(jobs)]

    def launch() -> tuple:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            rest, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not line.startswith("ready"):
            raise RuntimeError(f"set-up probe failed: {err.strip()[-300:]}")
        return elapsed, float(rest.split()[-1])

    launch()  # writes okv's bytecode cache once; not measured
    samples = [launch() for _ in range(SETUP_LAUNCHES)]
    return (statistics.median(calibrated(raw, ref, ref) for raw, ref in samples),
            statistics.median(raw for raw, _ in samples))


class JobState:
    def __init__(self, job, argv):
        self.job = job
        self.argv = argv
        self.reference = None
        self.bad = None  # reason the first pass failed, if it did
        self.peak = 0
        self.times: list = []
        self.raw: list = []
        self.spans: list = []


def first_pass(states, trace_alloc: bool) -> None:
    if trace_alloc:
        tracemalloc.start()
    try:
        for st in states:
            gc.collect()
            if trace_alloc:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            code, out, _ = run_cli(st.argv)
            if trace_alloc:
                st.peak = tracemalloc.get_traced_memory()[1] - base
            st.reference = out
            if code != 0:
                st.bad = f"exit {code}"
    finally:
        if trace_alloc:
            tracemalloc.stop()


def check_reports(states) -> None:
    checker = checks.Checker()
    # Normality checks compare against the body certified by a body job.
    ordered = sorted(states, key=lambda st: st.job.command[0] != "body")
    for st in ordered:
        if st.bad:
            continue
        try:
            checker.check(json.loads(st.reference))
        except (checks.CheckError, ValueError, KeyError, TypeError, IndexError) as exc:
            st.bad = f"check failed: {type(exc).__name__}: {exc}"


def timed_rounds(states, seconds: float, seed: int, tracer) -> tuple:
    """Whole rounds until `seconds` have passed: (rounds, attempted, failed, refs)."""
    rng = random.Random(seed)
    rounds = attempted = failed = 0
    start = time.perf_counter()
    refs = [time_reference()]
    while rounds == 0 or time.perf_counter() - start < seconds:
        for st in rng.sample(states, len(states)):
            if tracer is not None:
                tracer.reset()
            gc.collect()
            code, out, raw = run_cli(st.argv)
            totals = dict(tracer.totals) if tracer is not None else None
            refs.append(time_reference())
            factor = calibrated(1.0, refs[-2], refs[-1])
            st.times.append(raw * factor)
            st.raw.append(raw)
            if totals is not None:
                st.spans.append({k: v * factor if k.endswith("_s") else v
                                 for k, v in totals.items()})
            attempted += 1
            if st.bad or code != 0 or out != st.reference:
                failed += 1
        rounds += 1
    return rounds, attempted, failed, refs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "okv" / "__init__.py").is_file():
        print(f"error: okv sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import okv.cli  # noqa: F401

    workload = workloads.build(args.workload, args.seed)
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        return run(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def run(workload, args, workdir: Path) -> int:
    workloads.write_inputs(workload, str(workdir))
    states = [JobState(j, j.argv(str(workdir))) for j in workload.jobs]
    jobs = workdir / "jobs.json"
    jobs.write_text(json.dumps([st.argv for st in states]))
    phases = {}

    clock = time.perf_counter()
    setup_s, setup_raw = measure_setup(jobs) if not args.trace else (None, None)
    phases["setup"], clock = time.perf_counter() - clock, time.perf_counter()

    warm = workdir / "warmup-fp.json"
    warm.write_text(json.dumps(workloads.WARMUP_FP_DOCUMENT))
    for argv in workloads.WARMUP + (("degenerate", "--input", str(warm)),):
        run_cli(argv)
    first_pass(states, trace_alloc=not args.trace)
    phases["first_pass"], clock = time.perf_counter() - clock, time.perf_counter()
    check_reports(states)
    phases["checks"], clock = time.perf_counter() - clock, time.perf_counter()
    for st in states:
        digest = hashlib.sha256(st.reference).hexdigest()[:16]
        print(f"# first pass {st.job.name}: sha256 {digest}, "
              f"peak {st.peak / 1e6:.3f} MB, {st.bad or 'verified'}")

    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        rounds, attempted, failed, refs = timed_rounds(states, args.seconds, args.seed, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    phases["timed"] = time.perf_counter() - clock
    attempted += len(states)
    failed += sum(1 for st in states if st.bad)

    for st in states:
        print(f"# {st.job.name}: median {statistics.median(st.times):.4f} s calibrated, "
              f"{statistics.median(st.raw):.4f} s raw, {len(st.times)} samples")
    ladder = sum(statistics.median(st.times) for st in states)
    info = {
        "rounds": rounds,
        "ladder_raw_s": sum(statistics.median(st.raw) for st in states),
        "reference_median_s": statistics.median(refs),
        "setup_raw_s": setup_raw,
        **{f"phase_{k}_s": v for k, v in phases.items()},
    }
    print("# info " + " ".join(
        f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}" for k, v in info.items()))

    if failed:
        # Times and sizes of executions that failed are no measurement.
        metrics = {"setup_s": (setup_s, "s")} if not args.trace else {}
    elif not args.trace:
        largest = next(st for st in states if st.job.name == workload.largest)
        metrics = {
            "ladder_s": (ladder, "s"),
            "largest_job_s": (statistics.median(largest.times), "s"),
            "peak_alloc_mb": (max(st.peak for st in states) / 1e6, "MB"),
            "setup_s": (setup_s, "s"),
        }
    else:
        metrics = {"trace.ladder_s": (ladder, "s")}
        for name, unit in tracer.measured_names():
            if unit == "s":
                value = sum(statistics.median(s[name] for s in st.spans) for st in states)
            else:
                value = sum(st.spans[0][name] for st in states)
                if any(s[name] != st.spans[0][name] for st in states for s in st.spans):
                    print(f"# warning: {name} differs between rounds")
            metrics[name] = (value, unit)

    # `correct`: every execution reproduced, byte for byte, a report that
    # passed every check.
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
