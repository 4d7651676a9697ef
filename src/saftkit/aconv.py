"""Twisted (A-)convolution in oracle and fast forms.

Central modeling choice for cyclic mode: the quadratic chirp is not
window-periodic, so the direct defining integral has no exact cyclic
analog.  The cyclic twisted convolution is therefore *defined* through the
chirp-conjugation identity

    f *A g = |b|^(-1/2) * C^(-1)( C f  (*)  C g ),      C = chirp at rate a/b,

where (*) is the grid-origin-aware circular convolution (output bin n
collects source pairs with s_i + s_j congruent to t_n modulo the window).
That definition preserves every identity the transform calculus derives
through chirp conjugation; identities that move mass across the window
seam are additionally exact when the offset chirp completes whole cycles
per window (see engine.chirp_period_compatible).
"""

from __future__ import annotations

import numpy as np

from .grid import Grid, Signal, lr_norm, _require_same_grid
from .params import InputError, SaftParams, post_chirp, quad_chirp
from .engine import saft


def extended_grid(grid: Grid) -> Grid:
    """Support of a compact-mode convolution: [2 t0, ...] with 2N-1 nodes."""
    return Grid(2.0 * grid.start, grid.step, 2 * grid.count - 1)


def aconv_oracle(params: SaftParams, f: Signal, g: Signal) -> Signal:
    """Direct quadrature of |b|^(-1/2) int f(s) T^A_s g(x) ds (compact mode).

    Output lives on the extended grid of length 2N-1; O(N^2) accumulation
    straight from the definition, independent of the FFT path.
    """
    _require_same_grid(f, g)
    n = f.grid.count
    t = f.grid.nodes()
    rate = params.a / params.b
    out = np.zeros(2 * n - 1, dtype=complex)
    for j in range(n):
        # T^A_{t_j} g evaluated on x = t_j + t: phase -2 pi (a/b) t_j * t
        out[j:j + n] += f.samples[j] * np.exp(-2j * np.pi * rate * t[j] * t) * g.samples
    out *= f.grid.step / np.sqrt(abs(params.b))
    return Signal(extended_grid(f.grid), out, "compact")


def aconv_fast(params: SaftParams, f: Signal, g: Signal,
               mode: str = "compact") -> Signal:
    """Chirp, FFT-convolve, un-chirp, scale by |b|^(-1/2).

    compact: zero-padded linear convolution on the extended grid; matches
    aconv_oracle to rounding.  cyclic: the origin-aware circular
    convolution defining the cyclic twisted product.
    """
    _require_same_grid(f, g)
    n = f.grid.count
    chirp = quad_chirp(params, f.grid.nodes())  # g is on the same grid
    u = chirp * f.samples
    v = chirp * g.samples
    scale = f.grid.step / np.sqrt(abs(params.b))
    if mode == "compact":
        m = 2 * n - 1
        w = np.fft.ifft(np.fft.fft(u, m) * np.fft.fft(v, m))
        ext = extended_grid(f.grid)
        out = scale * np.conj(quad_chirp(params, ext.nodes())) * w
        return Signal(ext, out, "compact")
    if mode == "cyclic":
        k0 = f.grid.steps_of(f.grid.start, "cyclic convolution needs the "
                             "grid origin on the step lattice")
        w = np.roll(np.fft.ifft(np.fft.fft(u) * np.fft.fft(v)), k0)
        out = scale * np.conj(chirp) * w
        return Signal(f.grid, out, "cyclic")
    raise InputError(f"unknown mode: {mode!r}")


def crop_to_grid(h: Signal, grid: Grid) -> Signal:
    """Restrict an extended-grid convolution back to the source grid."""
    k0 = grid.steps_of(grid.start, "cropping needs the grid origin on the "
                       "step lattice")
    idx = np.arange(grid.count) - k0
    out = np.zeros(grid.count, dtype=complex)
    ok = (idx >= 0) & (idx < h.grid.count)
    out[ok] = h.samples[idx[ok]]
    return Signal(grid, out, "compact")


def approx_identity_run(params: SaftParams, f: Signal, phi_fn,
                        eps_list, r: float = 2.0) -> np.ndarray:
    """Mollification errors e(eps) = || sqrt|b| (f *A phi_eps) - f ||_r.

    phi_fn is a pointwise profile with unit integral (checked at 1e-6 by
    quadrature); phi_eps(x) = phi(x/eps)/eps.  The sqrt|b| factor undoes
    the normalization of the twisted product, which is what makes the
    mollifier family an approximate identity for it.  eps_list must be
    decreasing; the returned errors should shrink for smooth compact f.
    """
    eps_list = list(eps_list)
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise InputError("eps_list must be strictly decreasing")
    if not all(e > 0 for e in eps_list):  # also rejects NaN
        raise InputError("mollifier widths must be positive")
    t = f.grid.nodes()
    base = Signal(f.grid, f.samples, "compact")
    errors = []
    for eps in eps_list:
        phi_vals = np.asarray(phi_fn(t / eps), dtype=complex) / eps
        mass = f.grid.step * phi_vals.sum()
        if not abs(mass - 1.0) <= 1e-6:  # also rejects NaN
            raise InputError(f"mollifier has quadrature mass {mass}, expected 1")
        phi = Signal(f.grid, phi_vals, "compact")
        conv = crop_to_grid(aconv_fast(params, base, phi, "compact"), f.grid)
        diff = np.sqrt(abs(params.b)) * conv.samples - f.samples
        errors.append(lr_norm(Signal(f.grid, diff, "compact"), r))
    return np.asarray(errors)


def young_check(params: SaftParams, f: Signal, g: Signal,
                r: float, s: float) -> dict:
    """Test ||f *A g||_t <= |b|^(-1/2) ||f||_r ||g||_s, 1/t = 1/r + 1/s - 1.

    Exact at the discrete level: |f *A g| = |b|^(-1/2) |Cf * Cg| pointwise
    and the weighted discrete Young inequality is sharp, so the pass margin
    only absorbs rounding.
    """
    if not (r >= 1 and s >= 1):  # also rejects NaN
        raise InputError("exponents must satisfy r, s >= 1")
    inv_t = 1.0 / r + 1.0 / s - 1.0
    if inv_t < -1e-12:
        raise InputError("inadmissible exponents: 1/r + 1/s must be >= 1")
    t = np.inf if inv_t <= 1e-15 else 1.0 / inv_t
    conv = aconv_fast(params, f, g, "compact")
    lhs = lr_norm(conv, t)
    rhs = lr_norm(f, r) * lr_norm(g, s) / np.sqrt(abs(params.b))
    return {"lhs": lhs, "rhs": rhs, "t": t, "pass": lhs <= rhs * (1.0 + 1e-12)}


def mult_functional(params: SaftParams, omega0: float, f: Signal) -> complex:
    """The multiplicative functional conj(post_chirp)(w0) * F(f)(w0).

    w0 must sit on the induced frequency grid so that multiplicativity
    against the cyclic twisted product is exact.
    """
    F = saft(params, f)
    k = F.freq_grid.index_of(omega0)
    return complex(np.conj(post_chirp(params, omega0)) * F.samples[k])
