#!/usr/bin/env python3
"""Runs one workload of BENCHMARK.json under several seeds and reports, per
metric, the median and quartiles across runs and the spread (interquartile
distance over median) against the metric's bound.

    python3 perfbench/spread.py --workload lm_congested --runs 10 [--trace 1]

Run it from the repository root. Exits non-zero when a run is incorrect or
an end-to-end spread (other than setup_s) exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    values = {}
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(args.trace),
        ]
        out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: incorrect, {result['failed']} failed", file=sys.stderr)
            ok = False
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: attempted {result['attempted']}", file=sys.stderr)

    print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
        spread = (q3 - q1) / abs(med) if med else float("inf") if q3 != q1 else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "ok" if spread < bound / 3 else "WIDE" if spread <= bound else "OVER"
            ok = ok and (spread <= bound or name == "setup_s")
        bound_text = f"{bound:6.3f}" if bound is not None else ""
        print(f"{name:28} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} {bound_text:>6} {flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
