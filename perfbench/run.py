"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 20 --trace 0

Run from the repository root; saftkit is imported from ./src.  One process
drives one workload in a closed loop: the next operation starts when the
previous one returns.  BLAS and OpenMP are pinned to one thread before numpy
is imported.  The last line of standard output is a JSON object with
`correct`, `attempted`, `failed` and `metrics`; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones from the tracer.
"""

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
# Set-up passes per run; setup_s takes their median.  Each pass draws its
# own inputs, so no cache in the program can serve one pass from another.
SETUP_PASSES = 3
# At least two rounds: the second repeats the first, which the gate's
# reproducibility check and the traced run's overhead estimate need.
MIN_ROUNDS = 2


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("spectral", "gate"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_saftkit():
    """Import saftkit from ./src of this checkout; fail if it is not there."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "saftkit", "__init__.py")):
        raise SystemExit(f"saftkit sources not found under {src}")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import saftkit  # noqa: F401
    import saftkit.cli  # noqa: F401
    import saftkit.verify  # noqa: F401
    elapsed = time.perf_counter() - start
    if not os.path.abspath(saftkit.__file__).startswith(src + os.sep):
        raise SystemExit(f"saftkit was imported from {saftkit.__file__}, not {src}")
    return elapsed


def reference_kernel_ms() -> float:
    """Median time of a fixed 512x512 float64 matmul: a host-drift gauge."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((512, 512))
    times = []
    for _ in range(9):
        start = time.perf_counter()
        a @ a
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def setup(workload_cls, seed):
    """Input generation and warm-up, once per pass, each pass on its own
    inputs; the last pass (variant 0) is the run's.  Returns (workload,
    median seconds of a pass)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    times = []
    for variant in reversed(range(SETUP_PASSES)):
        start = time.perf_counter()
        wl = workload_cls(seed, OUT_DIR, variant)
        try:
            wl.warm_up()
        except BaseException:
            wl.close()
            raise
        times.append(time.perf_counter() - start)
        if variant:
            wl.close()
            del wl  # the next pass must not find this one's inputs in memory
    return wl, statistics.median(times)


class Tally:
    def __init__(self):
        self.latencies = []
        self.labels = []
        self.attempted = 0
        self.failed = 0
        self.completed = 0
        self.incorrect = []


def run_round(ops, tally, tracer):
    from reference import Incorrect
    from workloads import Failed

    for op in ops:
        tally.attempted += 1
        if tracer is not None:
            tracer.recording = True
        start = time.perf_counter()
        try:
            out = op.run()
        except Failed as exc:
            out, err = None, exc
        except Exception:  # a crash in the program is a failed operation
            out, err = None, traceback.format_exc()
        else:
            err = None
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.recording = False
        tally.latencies.append(elapsed)
        tally.labels.append(op.label)
        if err is not None:
            tally.failed += 1
            print(f"failed: {op.label}: {err}", file=sys.stderr)
            continue
        tally.completed += 1
        try:
            op.check(out)
        except Failed as exc:
            tally.failed += 1
            print(f"failed: {op.label}: {exc}", file=sys.stderr)
        except Incorrect as exc:
            tally.incorrect.append(f"{op.label}: {exc}")
            print(f"incorrect: {op.label}: {exc}", file=sys.stderr)
        except Exception:  # an output the check cannot even process is wrong
            tally.incorrect.append(f"{op.label}: check raised")
            print(f"incorrect: {op.label}: {traceback.format_exc()}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_saftkit()
    import numpy as np

    from tracer import Tracer
    from workloads import WORKLOADS

    print("threads: " + " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
          + f" nproc={len(os.sched_getaffinity(0))} numpy={np.__version__}"
          + f" python={sys.version.split()[0]}")
    ref_start = reference_kernel_ms()

    wl, setup_s = setup(WORKLOADS[args.workload], args.seed)
    tracer = Tracer() if args.trace else None

    tally = Tally()
    per_round = []  # latencies of each round's operations
    rounds = traced_rounds = 0
    loop_start = time.perf_counter()
    deadline = loop_start + args.seconds
    try:
        # With --trace 1, rounds alternate traced / untraced so that the
        # overhead is measured against untraced rounds of the same run.  The
        # wrappers are installed only for the traced rounds: untraced rounds
        # call the original functions, as a --trace 0 run does.
        while True:
            record = tracer is not None and rounds % 2 == 0
            before = len(tally.latencies)
            if record:
                tracer.install()
            try:
                run_round(wl.round(), tally, tracer if record else None)
            finally:
                if record:
                    tracer.uninstall()
            per_round.append(tally.latencies[before:])
            traced_rounds += record
            rounds += 1
            # Stop at the whole round nearest the deadline: once less than
            # half a mean round is left.  Runs then last --seconds give or
            # take half a round, instead of overrunning by up to a round.
            now = time.perf_counter()
            if rounds >= MIN_ROUNDS and deadline - now < (now - loop_start) / rounds / 2:
                break
    finally:
        wl.close()
    ref_end = reference_kernel_ms()

    print(f"host reference (512x512 matmul, median of 9): {ref_start:.3f} ms at "
          f"start, {ref_end:.3f} ms at end -- diagnostic, not a metric")
    print(f"rounds={rounds} attempted={tally.attempted} failed={tally.failed} "
          f"import_s={import_s:.4f} setup_pass_median_s={setup_s:.4f}")
    by_label = {}
    for label, latency in zip(tally.labels, tally.latencies):
        by_label.setdefault(label, []).append(latency)
    print("median ms per operation: " + " ".join(
        f"{label}={1e3 * statistics.median(v):.1f}" for label, v in by_label.items()))
    for line in tally.incorrect:
        print(f"INCORRECT {line}")

    if tracer is not None:
        # Each operation of a traced round against the same operation in the
        # untraced round right after it, so that host drift mostly cancels.
        ratios = [t / u for traced, untraced in zip(per_round[0::2], per_round[1::2])
                  for t, u in zip(traced, untraced)]
        overhead = statistics.median(ratios) - 1.0
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(path)
        print(f"trace overhead: {100 * overhead:+.1f}%, median over operations of "
              f"traced / untraced latency in adjacent rounds ({len(ratios)} pairs); "
              f"spans written to {os.path.relpath(path, ROOT)}")
        metrics = tracer.metrics(traced_rounds)
    else:
        timed = sum(tally.latencies)
        metrics = {
            "setup_s": {"value": import_s + setup_s, "unit": "s"},
            "ops_per_s": {"value": tally.completed / timed, "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(tally.latencies),
                          "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            * 1024 / 1e6, "unit": "MB"},
        }
    print(json.dumps({"correct": not tally.incorrect, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
