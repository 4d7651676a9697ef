"""Pointwise and shift operator algebra on sampled signals.

Shifts are restricted to grid multiples; fractional shifts would need
band-limited interpolation, which contaminates the exact-identity tests.
In cyclic mode the twisted translation periodizes in the chirped domain,
which is what makes the projective composition law hold exactly under
index wrap-around.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid, Signal
from .params import InputError, SaftParams


def translate(f: Signal, s: float) -> Signal:
    """T_s f(t) = f(t - s); cyclic mode wraps, compact mode zero-fills."""
    m = f.grid.steps_of(s, f"shift {s} is not a multiple of the grid step")
    if m == 0:
        return f
    if f.mode == "cyclic":
        return f.with_samples(np.roll(f.samples, m % f.grid.count))
    out = np.zeros_like(f.samples)
    n = f.grid.count
    if 0 < m < n:
        out[m:] = f.samples[:n - m]
    elif -n < m < 0:
        out[:m] = f.samples[-m:]
    return f.with_samples(out)


def modulate(f: Signal, s: float) -> Signal:
    """M_s f(t) = exp(2 pi i s t) f(t)."""
    t = f.grid.nodes()
    return f.with_samples(np.exp(2j * np.pi * s * t) * f.samples)


def chirp(f: Signal, s: float) -> Signal:
    """C_s f(t) = exp(i pi s t^2) f(t)."""
    t = f.grid.nodes()
    return f.with_samples(np.exp(1j * np.pi * s * t * t) * f.samples)


def involution(f: Signal) -> Signal:
    """f(t) -> f(-t); needs cyclic mode or a grid symmetric about zero
    (Grid.same_as its mirror image)."""
    n = f.grid.count
    if f.mode == "cyclic":
        k = f.grid.steps_of(2.0 * f.grid.start,
                            "cyclic involution needs 2*start to be a step multiple")
        idx = (-np.arange(n) - k) % n
        return f.with_samples(f.samples[idx])
    if not f.grid.same_as(Grid(-0.5 * (n - 1) * f.grid.step, f.grid.step, n)):
        raise InputError("compact involution needs a grid symmetric about 0")
    return f.with_samples(f.samples[::-1])


def a_translate(f: Signal, params: SaftParams, s: float) -> Signal:
    """Twisted translation by s: exp(-2 pi i (a/b) s (t-s)) f(t-s).

    Cyclic mode evaluates the single fused phase
    exp(i pi (a/b) (t_src^2 + s^2 - t^2)) against the wrapped source node,
    which periodizes the chirped signal and keeps both the chirp-conjugation
    identity and the projective composition law exact at wrapped indices.
    """
    m = f.grid.steps_of(s, f"shift {s} is not a multiple of the grid step")
    t = f.grid.nodes()
    n = f.grid.count
    rate = params.a / params.b
    if f.mode == "cyclic":
        idx = (np.arange(n) - m) % n
        t_src = t[idx]
        phase = np.exp(1j * np.pi * rate * (t_src * t_src + s * s - t * t))
        return f.with_samples(phase * f.samples[idx])
    out = np.zeros_like(f.samples)
    if -n < m < n:
        dst = slice(m, None) if m >= 0 else slice(None, m)
        src = slice(None, n - m) if m >= 0 else slice(-m, None)
        out[dst] = np.exp(-2j * np.pi * rate * s * (t[dst] - s)) * f.samples[src]
    return f.with_samples(out)


def a_modulate(f: Signal, params: SaftParams, s: float) -> Signal:
    """Twisted modulation by s: exp(i pi/b (a s^2 - 2 p s + 2 s t)) f(t)."""
    t = f.grid.nodes()
    phase = np.exp(1j * np.pi / params.b
                   * (params.a * s * s - 2.0 * params.p * s + 2.0 * s * t))
    return f.with_samples(phase * f.samples)


def a_translate_compose_check(params: SaftParams, x: float, y: float,
                              f: Signal) -> float:
    """Max deviation in the projective composition law.

    Compares T^A_x T^A_y f against exp(-2 pi i (a/b) x y) T^A_{x+y} f; both
    sides are evaluated independently.  Exact (to rounding) in cyclic mode
    for grid-aligned x, y.
    """
    lhs = a_translate(a_translate(f, params, y), params, x).samples
    factor = np.exp(-2j * np.pi * params.a / params.b * x * y)
    rhs = factor * a_translate(f, params, x + y).samples
    return float(np.max(np.abs(lhs - rhs), initial=0.0))
