"""Timing harness: quadrature oracle against the FFT path.

The oracle is O(N^2) and the fast path O(N log N); the growth factors per
size doubling (about 4x vs 2x) are the complexity signature the scaling
check asserts.  Oracle timings are capped at N <= 4096 as a matter of
policy; larger sizes report the fast path only.
"""

from __future__ import annotations

import time

import numpy as np

from .engine import make_plan, saft_fast, saft_oracle
from .grid import Signal, centered_grid
from .params import InputError, SaftParams

ORACLE_CAP = 4096


def _time_call(fn, repeats: int, min_time: float = 2e-3) -> float:
    """Median of `repeats` measurements; each measurement loops the call
    until it exceeds min_time so FFT-scale work is resolvable."""
    times = []
    for _ in range(repeats):
        loops = 0
        start = time.perf_counter()
        while True:
            fn()
            loops += 1
            elapsed = time.perf_counter() - start
            if elapsed >= min_time:
                break
        times.append(elapsed / loops)
    return float(np.median(times))


def run_bench(params: SaftParams, sizes, repeats: int = 5) -> list[dict]:
    """Wall time per transform for each size; oracle skipped above the cap."""
    if repeats < 1:
        raise InputError("repeats must be at least 1")
    sizes = list(sizes)
    if sizes != sorted(sizes):
        raise InputError("sizes must be ascending")
    rng = np.random.default_rng(0)
    rows = []
    for n in sizes:
        grid = centered_grid(10.0, n)
        f = Signal(grid, rng.standard_normal(n) + 1j * rng.standard_normal(n),
                   "cyclic")
        plan = make_plan(params, grid)
        fast_t = _time_call(lambda: saft_fast(plan, f), repeats)
        oracle_t = None
        if n <= ORACLE_CAP:
            oracle_t = _time_call(lambda: saft_oracle(params, f),
                                  repeats, min_time=0.0)
        rows.append({"n": n, "fast_s": fast_t, "oracle_s": oracle_t})
    return rows


def growth_per_doubling(rows: list[dict]) -> dict:
    """Geometric-mean growth factor per size doubling for each path."""
    out = {}
    for key, label in (("fast_s", "fast"), ("oracle_s", "oracle")):
        pts = [(r["n"], r[key]) for r in rows if r[key] is not None]
        if len(pts) < 2:
            out[label] = float("nan")
            continue
        n0, t0 = pts[0]
        n1, t1 = pts[-1]
        doublings = np.log2(n1 / n0)
        out[label] = float((t1 / t0) ** (1.0 / doublings))
    return out


def render_table(rows: list[dict]) -> str:
    lines = [f"{'N':>6s} {'fast [s]':>12s} {'oracle [s]':>12s} {'ratio':>10s}"]
    for r in rows:
        osc = f"{r['oracle_s']:.6f}" if r["oracle_s"] is not None else "-"
        ratio = (f"{r['oracle_s'] / r['fast_s']:.1f}"
                 if r["oracle_s"] is not None else "-")
        lines.append(f"{r['n']:>6d} {r['fast_s']:>12.6f} {osc:>12s} {ratio:>10s}")
    g = growth_per_doubling(rows)
    lines.append(f"growth per doubling: fast {g['fast']:.2f}x, "
                 f"oracle {g['oracle']:.2f}x")
    return "\n".join(lines)
