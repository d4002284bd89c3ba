#!/usr/bin/env python3
"""Steadiness check: run one workload repeatedly and report each metric's
spread next to its bound.

    python3 perfbench/steady.py --workload run [--runs 10] [--first-seed 1]
        [--seconds S]

Each run uses the next seed and reports the end-to-end metrics (--trace
0), the ones that have bounds.  For every metric it prints the median, the
interquartile range as a share of the median (statistics.quantiles, n=4),
the max/min spread, and the metric's bound from BENCHMARK.json.  It also
prints the share of failed operations, which must be the same in every
run, and the host control (host.calib_ms, no bound): compare its median
between two sets before reading a shift in a metric as the program's.
Exits non-zero if a run fails or reports incorrect output.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values, shares = {}, set()
    for seed in range(a.first_seed, a.first_seed + a.runs):
        cmd = bench["command"] + ["--workload", a.workload, "--seed",
                                  str(seed), "--seconds", str(seconds),
                                  "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stderr)
            print(f"seed {seed}: exit {out.returncode}")
            return 1
        res = json.loads(lines[-1])
        if not res["correct"]:
            sys.stderr.write(out.stderr)
            print(f"seed {seed}: incorrect output")
            return 1
        shares.add(res["failed"] / res["attempted"])
        print(f"seed {seed}: attempted {res['attempted']} "
              f"failed {res['failed']}", flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        for line in lines:
            if line.startswith("control: "):
                for name, v in json.loads(line[len("control: "):]).items():
                    values.setdefault(name, []).append(v)
    print(f"{'metric':32} {'median':>12} {'IQR/med':>8} {'max/min':>8} "
          f"{'bound':>6}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med] * 3
        iqr = (q[2] - q[0]) / med if med else float("nan")
        spread = max(vs) / min(vs) if min(vs) > 0 else float("nan")
        bound = bounds.get(name)
        print(f"{name:32} {med:12.4f} {iqr:8.3f} {spread:8.3f} "
              f"{'' if bound is None else bound:>6}")
    print(f"failed share per run: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
