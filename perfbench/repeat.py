"""Run workloads many times, one fresh process per run, and summarize.

    python3 perfbench/repeat.py --runs 10 --seconds 55 [--workloads spectral,gate]
                                [--first-seed 1] [--trace 0]

For each workload and metric it prints the median, the first and third
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median,
plus the failed share and the host reference kernel times reported by the
runs.  Use it from the repository root.  Runs are sequential.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("spectral", "gate")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    ref = re.search(r"([\d.]+) ms at start, ([\d.]+) ms at end", proc.stdout)
    return json.loads(lines[-1]), wall, (float(ref[1]), float(ref[2])) if ref else None


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for workload in args.workloads.split(","):
        results, walls, refs = [], [], []
        for i in range(args.runs):
            res, wall, ref = run_once(workload, args.first_seed + i, args.seconds,
                                      args.trace)
            results.append(res)
            walls.append(wall)
            if ref:
                refs += ref
            print(f"  {workload} seed={args.first_seed + i} wall={wall:.1f}s "
                  + (f"ref={ref[0]:.2f}/{ref[1]:.2f}ms " if ref else "")
                  + f"correct={res['correct']} failed/attempted={res['failed']}/{res['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()
                             if not args.trace), flush=True)
        print(f"{workload}: {args.runs} runs, wall median {statistics.median(walls):.1f}s, "
              f"all correct={all(r['correct'] for r in results)}, failed shares "
              f"{sorted({r['failed'] / r['attempted'] for r in results})}")
        if refs:
            print(f"  host reference kernel: min {min(refs):.2f} ms, median "
                  f"{statistics.median(refs):.2f} ms, max {max(refs):.2f} ms")
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            if len(vals) < 2:
                continue
            med, q1, q3, spread = summarize(vals)
            print(f"  {name:40s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {100 * spread:6.2f}%")


if __name__ == "__main__":
    main()
