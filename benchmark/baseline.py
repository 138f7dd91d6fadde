#!/usr/bin/env python3
"""Runs the benchmark the way the acceptance rule does and prints the
tables BASELINE.md holds.

For each workload: ten `--trace 0` runs, each with another seed. For each
end-to-end metric: median, first and third quartile
(`statistics.quantiles(values, n=4)`) and the spread (Q3 - Q1) / median.
Two such sets (`--sets 2`) show whether the medians repeat. `--traced`
adds one `--trace 1` run per workload.

Run from the repository root:

    python3 benchmark/baseline.py --sets 2 --traced > /tmp/baseline.md
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time


def run(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    t0 = time.time()
    done = subprocess.run(argv, capture_output=True, text=True)
    took = time.time() - t0
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{' '.join(argv)} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result}")
    return result, took


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        manifest = json.load(f)
    command = manifest["command"]
    seconds = manifest["run_seconds"]
    workloads = args.workload or [w["name"] for w in manifest["workloads"]]
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    better = {m["name"]: m["better"] for m in manifest["end_to_end"]}

    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    nproc = subprocess.run(["nproc"], capture_output=True, text=True).stdout.strip()
    print(f"- host: {nproc} hardware threads, kernel {platform.release()}, {rustc}")
    print(f"- network: loopback interface only (127.0.0.1); `run_seconds` = {seconds}")
    print(f"- {args.sets} sets of {args.runs} runs per workload, seeds 1.. consecutively\n")

    worst = {name: 0.0 for name in bounds}
    drift = {name: 0.0 for name in bounds}
    seed = 0
    for workload in workloads:
        medians = []
        print(f"### {workload}\n")
        print("| set | metric | median | Q1 | Q3 | spread | n | wall s/run |")
        print("|---|---|---|---|---|---|---|---|")
        for s in range(args.sets):
            values, walls = {}, []
            for _ in range(args.runs):
                seed += 1
                result, took = run(command, workload, seed, seconds, 0)
                walls.append(took)
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
            med = {}
            for name, vs in values.items():
                q1, _, q3 = statistics.quantiles(vs, n=4)
                med[name] = statistics.median(vs)
                spread = (q3 - q1) / med[name]
                if name != "setup_s":
                    worst[name] = max(worst[name], spread)
                print(f"| {s + 1} | {name} | {med[name]:.6g} | {q1:.6g} | {q3:.6g} | "
                      f"{spread:.4f} | {len(vs)} | {statistics.mean(walls):.1f} |")
            medians.append(med)
        if len(medians) > 1:
            for name in bounds:
                a, b = medians[0][name], medians[1][name]
                worse = (b - a) / a if better[name] == "lower" else (a - b) / a
                drift[name] = max(drift[name], worse)
        print()

    print("### Bounds\n")
    print("| metric | widest spread | worst set-2 drift | bound | spread / bound |")
    print("|---|---|---|---|---|")
    for name, bound in bounds.items():
        print(f"| {name} | {worst[name]:.4f} | {drift[name]:+.4f} | {bound} | {worst[name] / bound:.2f} |")

    if args.traced:
        print("\n### Per-layer metrics (one `--trace 1` run per workload, non-zero rows)\n")
        for workload in workloads:
            result, took = run(command, workload, 1, seconds, 1)
            print(f"#### {workload} ({took:.1f} s)\n")
            print("| metric | value | unit |")
            print("|---|---|---|")
            for name, m in result["metrics"].items():
                if m["value"] != 0:
                    print(f"| {name} | {m['value']:.6g} | {m['unit']} |")
            print()


if __name__ == "__main__":
    main()
