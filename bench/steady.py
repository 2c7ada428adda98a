#!/usr/bin/env python3
"""Steadiness of the okv benchmark over repeated runs.

    python3 bench/steady.py --runs 10                 # every workload, untraced
    python3 bench/steady.py --runs 3 --trace          # per-layer metrics + overhead

Runs `bench/run.py` one run at a time, each run with its own seed (seed-base,
seed-base + 1, ...), with the run length from BENCHMARK.json.  Untraced, it
prints per workload and end-to-end metric the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median against the
metric's bound, plus each run's failed / attempted.  The raw (uncalibrated)
ladder time is shown beside the calibrated one for information.

With --trace it runs each workload traced and untraced, prints every
per-layer metric's median, whether each count was identical in every run,
and the tracing overhead: median traced ladder over median untraced ladder.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    info = {"wall_s": wall}
    for line in lines:
        if line.startswith("# info "):
            info.update(item.split("=", 1) for item in line[len("# info "):].split())
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} of "
                         f"{result['attempted']} executions failed:\n{proc.stdout}")
    return result, info


def spread(values) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def untraced(spec, names, runs, seed_base) -> None:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print("| workload | metric | median | q1 | q3 | spread | bound | spread/bound |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in names:
        results = [run_once(workload, seed_base + i, spec["run_seconds"], 0)
                   for i in range(runs)]
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r, _ in results]
            med, q1, q3, sp = spread(values)
            print(f"| {workload} | {name} | {med:.4f} | {q1:.4f} | {q3:.4f} | {sp:.3f} "
                  f"| {bound} | {sp / bound:.2f} |")
        raw = [float(i["ladder_raw_s"]) for _, i in results]
        med, q1, q3, sp = spread(raw)
        print(f"| {workload} | (raw ladder, info) | {med:.4f} | {q1:.4f} | {q3:.4f} "
              f"| {sp:.3f} | - | - |")
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r, _ in results})
        print(f"| {workload} | failed/attempted | {', '.join(shares)} | | | | | |")
        walls = [i["wall_s"] for _, i in results]
        print(f"| {workload} | (wall time of one run, s) | {statistics.median(walls):.1f} "
              f"| {min(walls):.1f} | {max(walls):.1f} | | | |")


def traced(spec, names, runs, seed_base) -> None:
    for workload in names:
        plain = [run_once(workload, seed_base + i, spec["run_seconds"], 0)[0]
                 for i in range(runs)]
        marked = [run_once(workload, seed_base + i, spec["run_seconds"], 1)[0]
                  for i in range(runs)]
        base = statistics.median(r["metrics"]["ladder_s"]["value"] for r in plain)
        with_spans = statistics.median(r["metrics"]["trace.ladder_s"]["value"] for r in marked)
        print(f"## {workload}: ladder_s {base:.4f} untraced, {with_spans:.4f} traced, "
              f"overhead {with_spans / base - 1:+.1%}")
        for metric in spec["per_layer"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in marked if name in r["metrics"]]
            if not values:
                print(f"{workload} {name} unmeasured (okv lacks its target)")
                continue
            same = "" if metric["unit"] != "count" else (
                " (identical in every run)" if len(set(values)) == 1 else " (DIFFERS between runs)")
            print(f"{workload} {name} = {statistics.median(values):.6g} {metric['unit']}{same}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    (traced if args.trace else untraced)(spec, names, args.runs, args.seed_base)
    return 0


if __name__ == "__main__":
    sys.exit(main())
