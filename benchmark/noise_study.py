#!/usr/bin/env python3
"""Run-to-run noise study of the benchmark, as the driver measures it.

Runs SETS sets of RUNS runs of every workload, alternating workloads, each
run of a set with another --seed (the same seeds in every set), and prints
markdown tables: per end-to-end metric and workload the min/median/max of
each set, the spread (interquartile range over median, what the driver
holds against the metric's bound) and the difference between the sets'
medians. With --trace 1 it prints the same table for the per-layer
metrics named on the command line instead.

    python3 benchmark/noise_study.py                      # end-to-end
    python3 benchmark/noise_study.py --trace 1 --runs 5 \\
        core.session.exec_ms_p50 core.session.cpu_ms_per_op

Run from the root of the repository; builds with cargo on first use.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--raw", help="also write every run's result line to this file")
    ap.add_argument("metrics", nargs="*", help="per-layer metrics to tabulate (--trace 1)")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    if args.trace:
        names = args.metrics or ["core.session.exec_ms_p50", "core.session.cpu_ms_per_op"]
        bounds = {}
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    # values[workload][metric][set] = [value per run]
    values = {w: {n: [[] for _ in range(args.sets)] for n in names} for w in workloads}
    raw = open(args.raw, "w") if args.raw else None
    for s in range(args.sets):
        for run in range(args.runs):
            for w in workloads:
                cmd = spec["command"] + [
                    "--workload", w, "--seed", str(run + 1),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                ]
                t0 = time.time()
                out = subprocess.run(cmd, capture_output=True, text=True)
                if out.returncode != 0:
                    sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
                result = json.loads(out.stdout.strip().splitlines()[-1])
                if not result["correct"] or result["failed"]:
                    sys.exit(f"{w} seed {run + 1}: {result['failed']} operations failed")
                if raw:
                    raw.write(json.dumps({"set": s, "run": run, "workload": w,
                                          "wall_s": time.time() - t0, **result}) + "\n")
                    raw.flush()
                for n in names:
                    values[w][n][s].append(result["metrics"][n]["value"])
                print(f"set {s + 1} run {run + 1} {w}: {time.time() - t0:.1f} s", file=sys.stderr)

    def spread(v):
        q = statistics.quantiles(v, n=4)
        m = statistics.median(v)
        return (q[2] - q[0]) / m if m else 0.0

    for n in names:
        bound = f" (bound {bounds[n]})" if n in bounds else ""
        print(f"\n### `{n}`{bound}\n")
        head = "| workload |"
        rule = "|---|"
        for s in range(args.sets):
            head += f" set {s + 1} min | median | max | spread |"
            rule += "---:|---:|---:|---:|"
        print(head + " median difference |")
        print(rule + "---:|")
        for w in workloads:
            row = f"| `{w}` |"
            medians = []
            for s in range(args.sets):
                v = values[w][n][s]
                medians.append(statistics.median(v))
                row += f" {min(v):.6g} | {medians[-1]:.6g} | {max(v):.6g} | {spread(v):.2%} |"
            diff = (medians[-1] - medians[0]) / medians[0] if medians[0] else 0.0
            print(row + f" {diff:+.2%} |")


if __name__ == "__main__":
    main()
