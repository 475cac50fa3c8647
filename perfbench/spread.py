#!/usr/bin/env python3
"""Run the benchmark once per seed and report, for every metric, the
median, the quartiles and the spread (Q3 - Q1) / median next to the
metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload so_session --seeds 1 2 3 4 5

Run from the repository root. Each run uses the command, run_seconds and
bounds of BENCHMARK.json; --seconds overrides the run length.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", args.trace,
        ]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        flag = "" if result["correct"] and result["failed"] == 0 else "  NOT CORRECT"
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']}{flag}",
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        # Distribution lines of the log ("name: n=.. p50=..ms p95=..ms ..")
        # give the other percentiles, for choosing what to gate on.
        for line in out.stdout.splitlines():
            dist = re.match(r"(\w+): n=\d+ (.*) \(", line)
            if dist:
                for q, v in re.findall(r"(p\d+|max)=([\d.]+)", dist.group(2)):
                    values.setdefault(f"log:{dist.group(1)}.{q}", []).append(float(v))

    print(f"{'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        print(f"  {name}: " + " ".join(f"{v:.4g}" for v in vals))
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        mark = "" if bound is None or spread <= bound / 3 else "  > bound/3"
        print(f"{name:<36} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>8.4f} "
              f"{'' if bound is None else bound:>6}{mark}")


if __name__ == "__main__":
    main()
