"""Discrete special affine Fourier transform.

The discrete transform is *defined* as the Riemann sum of the integral
representation on coupled grids,

    F_k = (dt / sqrt|b|) * sum_n f(t_n) exp(i pi/b (a t_n^2 + 2 p t_n
             - 2 w_k t_n + 2 (bq-dp) w_k + d w_k^2)),    w_k = b * xi_k,

with xi_k = (k - floor(N/2)) / (N dt) the centered DFT frequencies.  The
fast path regroups the same sum as pre-chirp, one FFT, a linear phase for
the grid origin, and a post-chirp, so oracle-vs-fast agreement is a
rounding-level statement, not a modeling comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, Signal, Spectrum
from .params import SaftParams, post_chirp, pre_chirp

_ORACLE_CHUNK = 256


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
    """Precomputed phase tables for one (params, grid) pair.

    pre   -- input chirp at the time nodes
    post  -- dt/sqrt|b| * output chirp * grid-origin linear phase, in DFT order
    flip  -- whether b < 0 forces a descending-to-ascending reversal
    """

    params: SaftParams
    grid: Grid
    freq_grid: Grid
    pre: np.ndarray = field(repr=False)
    post: np.ndarray = field(repr=False)
    flip: bool = False


def make_plan(params: SaftParams, grid: Grid) -> SaftPlan:
    t = grid.nodes()
    xi = dft_frequencies(grid)
    w = params.b * xi
    post = (grid.step / np.sqrt(abs(params.b))
            * post_chirp(params, w) * np.exp(-2j * np.pi * xi * grid.start))
    return SaftPlan(params, grid, spectrum_grid(params, grid),
                    pre=pre_chirp(params, t), post=post, flip=params.b < 0)


def saft_fast(plan: SaftPlan, f: Signal) -> Spectrum:
    """O(N log N) transform: chirp, FFT, origin twiddle, chirp."""
    if not plan.grid.same_as(f.grid):
        raise ValueError("plan was built for a different grid")
    spec = np.fft.fftshift(np.fft.fft(plan.pre * f.samples))
    vals = plan.post * spec
    if plan.flip:
        vals = vals[::-1]
    return Spectrum(plan.params, plan.freq_grid, vals)


def saft(params: SaftParams, f: Signal) -> Spectrum:
    """One-shot fast transform (builds a throwaway plan)."""
    return saft_fast(make_plan(params, f.grid), f)


def saft_oracle(params: SaftParams, f: Signal) -> Spectrum:
    """O(N^2) ground truth: the raw quadrature of the defining integral.

    Evaluates the full kernel exp(i pi/b (a t^2 + 2 p t - 2 w t + 2 W w
    + d w^2)) term by term (chunked over frequency rows); shares no code
    with the fast path beyond the grid layout.
    """
    t = f.grid.nodes()
    w_nat = natural_freqs(params, f.grid)
    a, b, p = params.a, params.b, params.p
    d, W = params.d, params.omega0
    vals = np.empty(f.grid.count, dtype=complex)
    base = a * t * t + 2.0 * p * t
    for lo in range(0, f.grid.count, _ORACLE_CHUNK):
        wk = w_nat[lo:lo + _ORACLE_CHUNK, None]
        phase = np.exp(1j * np.pi / b
                       * (base[None, :] - 2.0 * wk * t[None, :]
                          + 2.0 * W * wk + d * wk * wk))
        vals[lo:lo + _ORACLE_CHUNK] = phase @ f.samples
    vals *= f.grid.step / np.sqrt(abs(b))
    if params.b < 0:
        vals = vals[::-1]
    return Spectrum(params, spectrum_grid(params, f.grid), vals)


def isaft(plan: SaftPlan, F: Spectrum, mode: str = "cyclic") -> Signal:
    """Exact algebraic inverse of the fast path.

    Undoes the output chirp and origin phase, applies the inverse DFT, and
    divides out the input chirp; isaft(saft_fast(f)) reproduces f to
    rounding.
    """
    if not plan.freq_grid.same_as(F.freq_grid):
        raise ValueError("spectrum was not produced on the plan's grids")
    vals = F.samples[::-1] if plan.flip else F.samples
    spec = np.fft.ifftshift(vals / plan.post)
    return Signal(plan.grid, np.fft.ifft(spec) / plan.pre, mode)


def apply_symbol(plan: SaftPlan, f: Signal, values) -> Signal:
    """Transform, multiply by a symbol, invert.

    values are the symbol on plan.freq_grid (ascending); they must be
    finite.  The output keeps the boundary mode of f.
    """
    if not np.all(np.isfinite(values)):
        raise ValueError("symbol takes non-finite values on the grid")
    F = saft_fast(plan, f)
    return isaft(plan, Spectrum(plan.params, F.freq_grid, values * F.samples),
                 f.mode)


def chirp_period_compatible(params: SaftParams, grid: Grid,
                            tol: float = 1e-9) -> bool:
    """Whether p * (N dt) / b is an integer.

    Cyclic-mode identities that move mass across the window seam (the
    shift/modulation exchange, the cyclic convolution theorem) are exact
    precisely when the offset chirp has a whole number of cycles per
    window; otherwise wrapped samples pick up an O(1) phase defect.
    """
    cycles = params.p * grid.span / params.b
    return abs(cycles - round(cycles)) <= tol


# ---------------------------------------------------------------------------
# Closed-form references: the transform of the counter-chirped indicator.

def sinc_reference(params: SaftParams, omega, shape: str = "centered_interval"):
    """Transform of exp(-i pi a t^2 / b) 1_I(t) for I the unit or centered
    unit interval.

    centered_interval: post_chirp(w)/sqrt|b| * sinc((w - p)/b)
    unit_interval:     post_chirp(w)/sqrt|b| * (1 - exp(-2 pi i u)) / (2 pi i u),
                       u = (w - p)/b, with the u = 0 limit equal to 1.
    """
    w = np.asarray(omega, dtype=float)
    u = (w - params.p) / params.b
    head = post_chirp(params, w) / np.sqrt(abs(params.b))
    if shape == "centered_interval":
        return head * np.sinc(u)
    if shape == "unit_interval":
        small = np.abs(u) < 1e-14
        us = np.where(small, 1.0, u)
        core = np.where(small, 1.0, (1.0 - np.exp(-2j * np.pi * us)) / (2j * np.pi * us))
        return head * core
    raise ValueError(f"unknown reference shape: {shape!r}")


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
            raise ValueError("finite differences need at least 8 samples")
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
    raise ValueError(f"unknown method: {method!r}")


def heat_evolve(params: SaftParams, g: Signal, t: float,
                method: str = "multiplier") -> Signal:
    """Evolve the heat flow of the twisted Laplacian for time t > 0.

    multiplier: damp the transform by exp(-(2 pi (w - p)/b)^2 t).
    kernel: quadrature of
        u(x,t) = (4 pi t)^(-1/2) * int exp(-i pi a (x^2-y^2)/b)
                                       exp(-(x-y)^2 / (4t)) g(y) dy,
    an independent O(N^2) evaluation of the same flow.
    """
    if not (t > 0):
        raise ValueError("evolution time must be positive")
    if method == "multiplier":
        plan = make_plan(params, g.grid)
        w = plan.freq_grid.nodes()
        damp = np.exp(-((2.0 * np.pi * (w - params.p) / params.b) ** 2) * t)
        return apply_symbol(plan, g, damp)
    if method == "kernel":
        y = g.grid.nodes()
        rate = params.a / params.b
        out = np.empty(g.grid.count, dtype=complex)
        gy = np.exp(1j * np.pi * rate * y * y) * g.samples
        for lo in range(0, g.grid.count, _ORACLE_CHUNK):
            x = y[lo:lo + _ORACLE_CHUNK, None]
            ker = np.exp(-1j * np.pi * rate * x * x
                         - (x - y[None, :]) ** 2 / (4.0 * t))
            out[lo:lo + _ORACLE_CHUNK] = ker @ gy
        out *= g.grid.step / np.sqrt(4.0 * np.pi * t)
        return g.with_samples(out)
    raise ValueError(f"unknown method: {method!r}")
