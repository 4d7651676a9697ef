"""Discrete special affine Fourier transform.

The discrete transform is *defined* as the Riemann sum of the integral
representation on coupled grids,

    F_k = (dt / sqrt|b|) * sum_n f(t_n) exp(i pi/b (a t_n^2 + 2 p t_n
             - 2 w_k t_n + 2 (bq-dp) w_k + d w_k^2)),    w_k = b * xi_k,

with xi_k = (k - floor(N/2)) / (N dt) the centered DFT frequencies.  The
fast path regroups the same sum as one table multiply, one FFT and a
second table multiply, so oracle-vs-fast agreement is a rounding-level
statement, not a modeling comparison.  The input table holds the input
chirp and the centring phase exp(2 pi i n floor(N/2) / N), which puts the
FFT output in centered order without an fftshift; the output table holds
dt/sqrt|b|, the output chirp and the linear phase of the grid origin.

Every transform-domain function is built from two steps: the forward
step fft(pre * f) (after the grid check) and the inverse step
ifft(.) * conj(pre).  saft_fast is the forward step times post, reversed
when b < 0.  pre is a unit phase and post is dt/sqrt|b| times one, so
the inverse multiplies only:

    f = ifft(F * conj(post)) * conj(pre) * |b| / dt^2

(F reversed first when b < 0), with the conjugates taken on the fly.
Between a transform and its inverse, post cancels, because
|post|^2 |b| / dt^2 = 1: apply_symbol multiplies the forward step by
the symbol and takes the inverse step, and project_ranges cuts one
forward step into blocks of index ranges and inverts each; neither
touches post.

Both steps work in place.  The forward step multiplies into a new array
and transforms it with fft(vals, out=vals); the inverse step takes a
(k, N) table of spectra in one call, ifft(table, axis=-1, out=table), then
table *= conj(pre), on the calling thread.

One block rule and one runner serve the whole library.  Every kernel that
works through an N x N quantity (the oracle, the heat-kernel quadrature,
every time-frequency kernel) takes blocks of block_rows(N) rows, at most
BLOCK_ENTRIES values each.  side_by_side is the one place that starts
helper threads; run_verify's tiers are its one caller.  Each helper runs
in a copy of the caller's context, so np.errstate carries over.

make_plan is memoised on (params, grid) by functools.lru_cache: it keeps
the PLAN_CACHE_PLANS most recently used plans, so repeated one-shot calls
on one pair share a plan.  A plan whose tables are larger than
PLAN_CACHE_BYTES / PLAN_CACHE_PLANS is built and not kept, so the kept
tables never add up to more than PLAN_CACHE_BYTES.  Plan tables are
read-only, so no caller can change a shared plan.
"""

from __future__ import annotations

import contextvars
import functools
import os
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import Grid, Signal, Spectrum, near_integer
from .params import InputError, SaftParams, post_chirp

# make_plan keeps at most this many plans and drops the least recently used
# first.  A plan whose two tables (32 N bytes) are larger than the byte
# budget's share of one plan (8 MiB, so N > 2^18) is built but not kept, so
# the kept tables add up to at most the byte budget.
PLAN_CACHE_PLANS = 8
PLAN_CACHE_BYTES = 64 * 2 ** 20
# A kernel that works through an N x N quantity takes blocks of rows of at
# most this many complex values (512 KiB per buffer, 64 rows at N = 512), so
# the few buffers each keeps stay in a core's L2 cache.
BLOCK_ENTRIES = 2 ** 15


def dft_frequencies(grid: Grid) -> np.ndarray:
    """Centered DFT frequencies xi_k = (k - floor(N/2)) / (N dt), ascending."""
    n = grid.count
    return (np.arange(n) - n // 2) / (n * grid.step)


def natural_freqs(params: SaftParams, grid: Grid) -> np.ndarray:
    """w_k = b * xi_k in DFT order (descending when b < 0)."""
    return params.b * dft_frequencies(grid)


def spectrum_grid(params: SaftParams, grid: Grid) -> Grid:
    """The induced frequency grid, ascending; step |b| / (N dt)."""
    w = natural_freqs(params, grid)
    lo = float(w[-1] if params.b < 0 else w[0])
    return Grid(lo, abs(params.b) / (grid.count * grid.step), grid.count)


@dataclass(frozen=True)
class SaftPlan:
    """Read-only phase tables for one (params, grid) pair.

    pre   -- input chirp times the centring phase exp(2 pi i n floor(N/2) / N)
    post  -- dt/sqrt|b| * output chirp * grid-origin linear phase, centered order
    flip  -- whether b < 0 forces a descending-to-ascending reversal
    """

    params: SaftParams
    grid: Grid
    freq_grid: Grid
    pre: np.ndarray = field(repr=False)
    post: np.ndarray = field(repr=False)
    flip: bool = False


def _build_plan(params: SaftParams, grid: Grid) -> SaftPlan:
    n = grid.count
    t = grid.nodes()
    xi = dft_frequencies(grid)
    w = params.b * xi
    # fftshift(fft(y)) = fft(y * exp(2 pi i n h / N)) with h = floor(N/2);
    # the integer n h is reduced mod N before it becomes a phase.
    centring = 2.0 * np.pi / n * (np.arange(n) * (n // 2) % n)
    pre = np.exp(1j * (np.pi / params.b * (params.a * t * t + 2.0 * params.p * t)
                       + centring))
    post = grid.step / np.sqrt(abs(params.b)) * np.exp(
        1j * (np.pi / params.b * (params.d * w * w + 2.0 * params.omega0 * w)
              - 2.0 * np.pi * xi * grid.start))
    pre.flags.writeable = False
    post.flags.writeable = False
    return SaftPlan(params, grid, spectrum_grid(params, grid),
                    pre=pre, post=post, flip=params.b < 0)


_kept_plan = functools.lru_cache(maxsize=PLAN_CACHE_PLANS)(_build_plan)


def make_plan(params: SaftParams, grid: Grid) -> SaftPlan:
    """The plan for (params, grid), shared by every call with equal arguments
    while it is among the most recently used."""
    if 32 * grid.count > PLAN_CACHE_BYTES // PLAN_CACHE_PLANS:
        return _build_plan(params, grid)
    return _kept_plan(params, grid)


make_plan.cache_info = _kept_plan.cache_info
make_plan.cache_clear = _kept_plan.cache_clear


def _forward(plan: SaftPlan, f: Signal) -> np.ndarray:
    """The forward step: fft(pre * f), in centered (FFT) order."""
    if not plan.grid.same_as(f.grid):
        raise InputError("plan was built for a different grid")
    vals = plan.pre * f.samples
    return np.fft.fft(vals, out=vals)


def block_rows(n: int) -> int:
    """Rows of N values in a block of at most BLOCK_ENTRIES, at least one."""
    return min(n, max(1, BLOCK_ENTRIES // n))


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def side_by_side(*tasks) -> list:
    """Run each task (a callable of no arguments); their results in order.

    run_verify's tiers are the one caller.  From two tasks and two CPUs
    on, the first task runs on the calling thread and each other one on a
    helper thread in a copy of the caller's context; otherwise all run in
    order on the calling thread.  A task's exception is raised after every
    helper has finished.
    """
    if len(tasks) < 2 or _cpus() < 2:
        return [task() for task in tasks]
    from concurrent.futures import ThreadPoolExecutor
    first, *rest = tasks
    with ThreadPoolExecutor(len(rest)) as pool:
        helpers = [pool.submit(contextvars.copy_context().run, task)
                   for task in rest]
        head = first()
    return [head] + [helper.result() for helper in helpers]


def _inverse(plan: SaftPlan, rows: np.ndarray) -> np.ndarray:
    """The inverse step, in place: each row becomes ifft(row) * conj(pre).

    rows is one spectrum in FFT order or a (k, N) array of them, inverted
    by one FFT call and one multiply on the calling thread.  numpy's FFT
    takes the rows one after another, each with the calls a lone row gets,
    so every row comes out bit for bit as when inverted alone, whatever
    the CPU count.  BENCH_inverse.json measures it against the per-row
    loop split across CPUs that it replaced.
    """
    table = np.atleast_2d(rows)
    np.fft.ifft(table, axis=-1, out=table)
    table *= np.conjugate(plan.pre)
    return rows


def saft_fast(plan: SaftPlan, f: Signal) -> Spectrum:
    """O(N log N) transform: post * fft(pre * f), reversed when b < 0."""
    vals = _forward(plan, f)
    vals *= plan.post
    if plan.flip:
        vals = vals[::-1]
    return Spectrum(plan.params, plan.freq_grid, vals, plan.grid.start)


def saft(params: SaftParams, f: Signal) -> Spectrum:
    """One-shot fast transform through the memoised plan."""
    return saft_fast(make_plan(params, f.grid), f)


def saft_oracle(params: SaftParams, f: Signal) -> Spectrum:
    """O(N^2) ground truth: the raw quadrature of the defining integral.

    Evaluates the full kernel exp(i pi/b (a t^2 + 2 p t - 2 w t + 2 W w
    + d w^2)) term by term (in blocks of frequency rows); shares no code
    with the fast path beyond the grid layout.  The one-signal case of
    saft_oracle_family, which makes the kernel once for several signals.
    """
    return saft_oracle_family(params, [f])[0]


def saft_oracle_family(params: SaftParams, signals) -> list[Spectrum]:
    """saft_oracle of each signal of a family on one grid, the kernel made once.

    Each block of block_rows(N) kernel rows is evaluated once, by the
    quadrature's own expression, and applied to every signal by its own
    matrix-vector product, so each spectrum is bit for bit the one
    saft_oracle gives that signal alone; a family of three takes a third
    of the exponentials.  Like saft_oracle, it calls no FFT and uses no
    plan, so it stays independent of _forward and _inverse.
    """
    if not signals:
        raise InputError("the oracle family is empty")
    grid = signals[0].grid
    if any(f.grid != grid for f in signals):
        raise InputError("the oracle family must share one grid")
    t = grid.nodes()
    w_nat = natural_freqs(params, grid)
    a, b, p = params.a, params.b, params.p
    d, W = params.d, params.omega0
    vals = [np.empty(grid.count, dtype=complex) for _ in signals]
    base = a * t * t + 2.0 * p * t
    rows = block_rows(grid.count)
    for lo in range(0, grid.count, rows):
        wk = w_nat[lo:lo + rows, None]
        phase = np.exp(1j * np.pi / b
                       * (base[None, :] - 2.0 * wk * t[None, :]
                          + 2.0 * W * wk + d * wk * wk))
        for out, f in zip(vals, signals):
            out[lo:lo + rows] = phase @ f.samples
    freq_grid = spectrum_grid(params, grid)
    for out in vals:
        out *= grid.step / np.sqrt(abs(b))
    return [Spectrum(params, freq_grid, out[::-1] if b < 0 else out, grid.start)
            for out in vals]


def isaft(plan: SaftPlan, F: Spectrum, mode: str = "cyclic") -> Signal:
    """Exact algebraic inverse of the fast path, by multiplication only:
    ifft(F * conj(post)) * conj(pre) * |b| / dt^2.

    pre is a unit phase and post is dt/sqrt|b| times one, so the conjugates
    and one real factor stand in for the divisions.  isaft(saft_fast(f))
    reproduces f to rounding.
    """
    if F.params != plan.params:
        raise InputError("spectrum was made with other parameters than the plan")
    if not plan.freq_grid.same_as(F.freq_grid):
        raise InputError("spectrum was not produced on the plan's grids")
    vals = np.conjugate(plan.post)
    vals *= F.samples[::-1] if plan.flip else F.samples
    vals *= abs(plan.params.b) / plan.grid.step ** 2
    return Signal(plan.grid, _inverse(plan, vals), mode)


def project_ranges(plan: SaftPlan, f: Signal, ranges) -> list[Signal]:
    """Keep index ranges of the transform and invert, one block per entry,
    all from one forward step.

    ranges holds, for each block, (start, stop) pairs on the ascending
    plan.freq_grid; block i is isaft(mask_i * saft_fast(f)) to rounding,
    with mask_i the indicator of its ranges.  post cancels between
    transform and inverse, so block i is the inverse step of mask_i times
    the forward step, the ranges mirrored into FFT order when b < 0.  The
    blocks' samples are the rows of one (blocks, N) array, inverted in
    place by one _inverse call.
    """
    raw = _forward(plan, f)
    n = plan.grid.count
    rows = np.zeros((len(ranges), n), dtype=complex)
    for row, spans in zip(rows, ranges):
        for lo, hi in spans:
            if plan.flip:  # freq_grid is the FFT order reversed
                lo, hi = n - hi, n - lo
            row[lo:hi] = raw[lo:hi]
    return [Signal(plan.grid, row, f.mode) for row in _inverse(plan, rows)]


def apply_symbol(plan: SaftPlan, f: Signal, values) -> Signal:
    """Transform, multiply by a symbol, invert.

    values are the symbol on plan.freq_grid (ascending), one finite value
    per node.  post cancels between transform and inverse, so this is the
    forward step times the symbol (reversed into FFT order when b < 0),
    then the inverse step.  The output keeps the boundary mode of f.
    """
    values = np.asarray(values)
    if values.shape != (plan.freq_grid.count,):
        raise InputError(f"symbol needs {plan.freq_grid.count} values, one per "
                         f"frequency node, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise InputError("symbol takes non-finite values on the grid")
    raw = _forward(plan, f)
    raw *= values[::-1] if plan.flip else values
    return Signal(plan.grid, _inverse(plan, raw), f.mode)


def chirp_period_compatible(params: SaftParams, grid: Grid) -> bool:
    """Whether p * (N dt) / b is an integer (grid.near_integer).

    Cyclic-mode identities that move mass across the window seam (the
    shift/modulation exchange, the cyclic convolution theorem) are exact
    precisely when the offset chirp has a whole number of cycles per
    window; otherwise wrapped samples pick up an O(1) phase defect.
    """
    return near_integer(params.p * grid.span / params.b)


# ---------------------------------------------------------------------------
# Closed-form references: the transform of the counter-chirped indicator.

def sinc_reference(params: SaftParams, omega):
    """Transform of exp(-i pi a t^2 / b) 1_I(t) for I the centered unit
    interval: post_chirp(w)/sqrt|b| * sinc((w - p)/b)."""
    w = np.asarray(omega, dtype=float)
    head = post_chirp(params, w) / np.sqrt(abs(params.b))
    return head * np.sinc((w - params.p) / params.b)


# ---------------------------------------------------------------------------
# The first-order twisted derivative D + 2 pi i (a/b) t and the heat flow
# it generates.

def twisted_derivative(params: SaftParams, f: Signal,
                       method: str = "spectral") -> Signal:
    """Apply d/dt + 2 pi i (a/b) t.

    spectral: diagonal in the transform domain with symbol
    2 pi i (w - p)/b -- exact for the discrete transform (cyclic mode).
    finite_difference: central differences plus the pointwise term; O(dt^2)
    against the continuum, so the two methods validate each other.
    """
    if method == "spectral":
        plan = make_plan(params, f.grid)
        sym = 2j * np.pi * (plan.freq_grid.nodes() - params.p) / params.b
        return apply_symbol(plan, f, sym)
    if method == "finite_difference":
        n = f.grid.count
        if n < 8:
            raise InputError("finite differences need at least 8 samples")
        s = f.samples
        if f.mode == "cyclic":
            deriv = (np.roll(s, -1) - np.roll(s, 1)) / (2.0 * f.grid.step)
        else:
            deriv = np.empty_like(s)
            deriv[1:-1] = (s[2:] - s[:-2]) / (2.0 * f.grid.step)
            deriv[0] = (s[1] - 0.0) / (2.0 * f.grid.step)
            deriv[-1] = (0.0 - s[-2]) / (2.0 * f.grid.step)
        t = f.grid.nodes()
        return f.with_samples(deriv + 2j * np.pi * params.a / params.b * t * s)
    raise InputError(f"unknown method: {method!r}")


def heat_evolve(params: SaftParams, g: Signal, t: float,
                method: str = "multiplier") -> Signal:
    """Evolve the heat flow of the twisted Laplacian for time t > 0.

    multiplier: damp the transform by exp(-(2 pi (w - p)/b)^2 t).
    kernel: quadrature of
        u(x,t) = (4 pi t)^(-1/2) * int exp(-i pi a (x^2-y^2)/b)
                                       exp(-(x-y)^2 / (4t)) g(y) dy,
    an independent O(N^2) evaluation of the same flow: the Gaussian factor
    is a real Toeplitz matrix built from 2N-1 exponentials, and the two
    chirps multiply as vectors.  It calls no FFT and uses no plan.
    """
    if not (t > 0):
        raise InputError("evolution time must be positive")
    if method == "multiplier":
        plan = make_plan(params, g.grid)
        w = plan.freq_grid.nodes()
        damp = np.exp(-((2.0 * np.pi * (w - params.p) / params.b) ** 2) * t)
        return apply_symbol(plan, g, damp)
    if method == "kernel":
        n, dt = g.grid.count, g.grid.step
        y = g.grid.nodes()
        rate = params.a / params.b
        # The Gaussian factor depends on x - y = m dt only.  G holds it for
        # m = n-1 down to -(n-1), so kernel row i is G[n-1-i : 2n-1-i].
        m = np.arange(n - 1, -n, -1) * dt
        rows = sliding_window_view(np.exp(-m * m / (4.0 * t)), n)
        gy = (np.exp(1j * np.pi * rate * y * y) * g.samples).view(float).reshape(n, 2)
        out = np.empty(n, dtype=complex)
        step = block_rows(n)
        for lo in range(0, n, step):
            i = np.arange(lo, min(lo + step, n))
            out[lo:lo + i.size] = (rows[n - 1 - i] @ gy).view(complex).ravel()
        out *= np.exp(-1j * np.pi * rate * y * y) * (dt / np.sqrt(4.0 * np.pi * t))
        return g.with_samples(out)
    raise InputError(f"unknown method: {method!r}")
