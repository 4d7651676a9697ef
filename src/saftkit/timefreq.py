"""Short-time Fourier transform, covariance checkers, and modulation norms.

The STFT here is the full-lattice one: window positions run over the whole
signal grid and frequencies over the whole centered DFT grid, which makes
the discrete Moyal identity exact in cyclic mode.  Modulation-space norms
are computed through the STFT via f * M_w g(x) = exp(2 pi i w x)
V_{g~} f(x, w) with the flipped window g~(t) = conj(g(-t)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .aconv import aconv_fast
from .engine import dft_frequencies, saft
from .grid import Grid, Signal, _pairs, _require_same_grid
from .operators import a_modulate, a_translate, chirp, involution
from .params import SaftParams, WeightSpec, pre_chirp, quad_chirp, weight_eval

# stft builds several dense N x N complex tables: 256 MiB each at this limit.
STFT_MAX_COUNT = 4096
# a_mod_norm works in blocks of frequency rows of at most this many complex
# values (4 MiB per table), so N <= 512 is one block.
AMOD_BLOCK_ENTRIES = 2 ** 18


@dataclass(frozen=True)
class TFMatrix:
    """Complex STFT values on an x-w lattice; values[m, k] = V(x_m, w_k)."""

    x_grid: Grid
    w_grid: Grid
    values: np.ndarray = field(repr=False)
    window_id: str = ""

    def __post_init__(self):
        if self.values.shape != (self.x_grid.count, self.w_grid.count):
            raise ValueError("value matrix must match the lattice")


def stft(f: Signal, g: Signal, window_id: str = "") -> TFMatrix:
    """V(x_m, xi_k) = dt * sum_n f(t_n) conj(g(t_n - x_m)) e^{-2 pi i xi_k t_n}.

    One FFT per window position, batched.  Cyclic mode wraps the window
    (needed for the exact full-lattice Moyal identity); compact mode
    zero-fills outside the grid.  N above STFT_MAX_COUNT is rejected
    before any N x N table is built.
    """
    _require_same_grid(f, g)
    grid = f.grid
    n = grid.count
    if n > STFT_MAX_COUNT:
        raise ValueError(f"stft builds dense N x N tables; N = {n} is above "
                         f"the limit of {STFT_MAX_COUNT} samples")
    k0 = grid.steps_of(grid.start, "STFT needs the grid origin on the step lattice")
    m_idx = np.arange(n)[:, None]
    j = np.arange(n)[None, :] - m_idx - k0
    if f.mode == "cyclic":
        win = np.conj(g.samples[j % n])
    else:
        win = np.zeros((n, n), dtype=complex)
        ok = (j >= 0) & (j < n)
        win[ok] = np.conj(g.samples[j[ok]])
    prod = f.samples[None, :] * win
    xi = dft_frequencies(grid)
    vals = (grid.step * np.exp(-2j * np.pi * xi * grid.start)[None, :]
            * np.fft.fftshift(np.fft.fft(prod, axis=1), axes=1))
    w_grid = Grid(float(xi[0]), 1.0 / grid.span, n)
    return TFMatrix(grid, w_grid, vals, window_id)


def moyal_energy(V: TFMatrix) -> float:
    """dx * dw * sum |V|^2; equals ||f||_2^2 ||g||_2^2 on the full lattice."""
    return float(V.x_grid.step * V.w_grid.step * np.sum(np.abs(V.values) ** 2))


def window_flip(g: Signal) -> Signal:
    """g~(t) = conj(g(-t)), the window that turns convolution into an STFT."""
    flipped = involution(g)
    return flipped.with_samples(np.conj(flipped.samples))


def gaussian_window(grid: Grid, mode: str = "cyclic") -> Signal:
    """Unit-L2 Gaussian matched to the grid: decayed below 1e-12 at the edge."""
    half = grid.span / 2.0
    center = grid.start + half
    alpha = 12.0 * np.log(10.0) / (half * half)
    t = grid.nodes() - center
    vals = np.exp(-alpha * t * t).astype(complex)
    vals /= np.sqrt(grid.step * np.sum(np.abs(vals) ** 2))
    return Signal(grid, vals, mode)


def raised_cosine_window(grid: Grid, mode: str = "cyclic") -> Signal:
    """Unit-L2 raised cosine supported on the middle half of the window."""
    half = grid.span / 4.0
    center = grid.start + grid.span / 2.0
    t = grid.nodes() - center
    vals = np.where(np.abs(t) < half, 0.5 * (1.0 + np.cos(np.pi * t / half)), 0.0)
    vals = vals.astype(complex)
    vals /= np.sqrt(grid.step * np.sum(np.abs(vals) ** 2))
    return Signal(grid, vals, mode)


# ---------------------------------------------------------------------------
# Covariance checkers.  Each evaluates both sides of an identity through
# independent code paths and returns the max absolute lattice deviation.

def chirp_stft_covariance_check(f: Signal, g: Signal, s: float) -> float:
    """Deviation in V_{C_s g}(C_s f)(x, w) = e^{-i pi s x^2} V_g f(x, w - s x).

    Requires the shear to be lattice-aligned: s*dt and s*t0 must be
    multiples of the frequency step 1/(N dt).
    """
    V0 = stft(f, g)
    shear_step = V0.w_grid.steps_of(s * f.grid.step, "misaligned shear: s*dt "
                                    "must be a multiple of the frequency step")
    shear_base = V0.w_grid.steps_of(s * f.grid.start, "misaligned shear: s*t0 "
                                    "must be a multiple of the frequency step")
    lhs = stft(chirp(f, s), chirp(g, s)).values
    x = f.grid.nodes()
    n = f.grid.count
    rhs = np.empty_like(lhs)
    for m in range(n):
        rhs[m] = (np.exp(-1j * np.pi * s * x[m] * x[m])
                  * np.roll(V0.values[m], shear_base + m * shear_step))
    return float(np.max(np.abs(lhs - rhs)))


def a_covariance_check(params: SaftParams, f: Signal, g: Signal,
                       xi: float, eta: float) -> float:
    """Deviation in the twisted time-frequency covariance law

    V_g(T^A_xi M^A_eta f)(x, w)
        = rho(-eta) e^{-2 pi i xi w} V_g f(x - xi, w + (a xi - eta)/b).

    xi must be grid-aligned and (a xi - eta)/b must sit on the frequency
    lattice; misalignment is rejected with the required alignment reported.
    """
    V0 = stft(f, g)
    m_shift = f.grid.steps_of(xi, "xi must be a multiple of the grid step")
    w_shift = (params.a * xi - eta) / params.b
    k_shift = V0.w_grid.steps_of(w_shift, f"(a*xi - eta)/b = {w_shift} must "
                                 "be a multiple of the frequency step")
    shifted = a_translate(a_modulate(f, params, eta), params, xi)
    lhs = stft(shifted, g).values
    w = V0.w_grid.nodes()
    scalar = pre_chirp(params, -eta)
    rolled = np.roll(V0.values, (m_shift, -k_shift), axis=(0, 1))
    rhs = scalar * np.exp(-2j * np.pi * xi * w)[None, :] * rolled
    return float(np.max(np.abs(lhs - rhs)))


def saft_stft_identity_check(params: SaftParams, f: Signal, g: Signal) -> float:
    """Max magnitude deviation in the transform-domain STFT identity

    |V_{Fg}(Ff)(x, w)| = |V_g f(d x - b w, a w - c x)|.

    Needs integer a, b, c, d with |b| = 1 and a self-dual centered grid
    (N dt^2 = 1, t0 = -N dt / 2) so the map carries the lattice into
    itself; incompatible inputs are rejected.
    """
    ints = [params.a, params.b, params.c, params.d]
    if any(abs(v - round(v)) > 1e-9 for v in ints):
        raise ValueError("identity check needs integer matrix parameters")
    ai, bi, ci, di = (int(round(v)) for v in ints)
    if abs(bi) != 1:
        raise ValueError("identity check needs |b| = 1")
    grid = f.grid
    n = grid.count
    if abs(n * grid.step ** 2 - abs(params.b)) > 1e-9:
        raise ValueError("identity check needs a self-dual grid: N dt^2 = |b|")
    if abs(grid.start + n * grid.step / 2.0) > 1e-9 * grid.step:
        raise ValueError("identity check needs a centered grid")
    F = saft(params, f)
    G = saft(params, g)
    Fs = Signal(F.freq_grid, F.samples, "cyclic")
    Gs = Signal(G.freq_grid, G.samples, "cyclic")
    VA = np.abs(stft(Fs, Gs).values)
    V0 = np.abs(stft(f, g).values)
    h = n // 2
    i = np.arange(n)[:, None] - h
    jj = np.arange(n)[None, :] - h
    iu = (di * i - bi * jj + h) % n
    jv = (ai * jj - ci * i + h) % n
    return float(np.max(np.abs(VA - V0[iu, jv])))


# ---------------------------------------------------------------------------
# Modulation-space norms.

def _check_exponents(r: float, s: float):
    if r < 1 or s < 1 or np.isinf(r) or np.isinf(s):
        raise ValueError("modulation norms need finite exponents r, s >= 1")


def mod_norm(f: Signal, g: Signal, r: float, s: float, m: WeightSpec) -> float:
    """Mixed-norm modulation quantity over the full lattice.

    (int (int |f * M_w g(x)|^r m(x,w)^r dx)^{s/r} dw)^{1/s}, computed as one
    STFT against the flipped window.
    """
    _check_exponents(r, s)
    if np.max(np.abs(g.samples)) == 0.0:
        raise ValueError("window must be nonzero")
    V = stft(f, window_flip(g))
    x = V.x_grid.nodes()[:, None]
    w = V.w_grid.nodes()[None, :]
    wgt = weight_eval(m, x, w)
    inner = V.x_grid.step * np.sum((np.abs(V.values) * wgt) ** r, axis=0)
    return float((V.w_grid.step * np.sum(inner ** (s / r))) ** (1.0 / s))


def a_mod_norm(params: SaftParams, f: Signal, g: Signal,
               r: float, s: float, m: WeightSpec) -> float:
    """Twisted modulation norm: the mixed norm of |f *A M^A_w g(x)|.

    Batched form of a_mod_norm_oracle, with the same arithmetic per
    frequency: f is chirped and transformed once, then each block of
    frequency rows builds the chirped, A-modulated windows as one matrix,
    takes one FFT and one inverse FFT along the rows, and reduces them
    with the weight evaluated on the twisted-side lattice w = b * xi.
    A block holds at most AMOD_BLOCK_ENTRIES complex values, so memory
    stays bounded at any N.
    """
    _check_exponents(r, s)
    if np.max(np.abs(g.samples)) == 0.0:
        raise ValueError("window must be nonzero")
    _require_same_grid(f, g)
    grid = f.grid
    n = grid.count
    k0 = grid.steps_of(grid.start, "cyclic convolution needs the grid origin "
                       "on the step lattice")
    x = grid.nodes()
    omegas = params.b * dft_frequencies(grid)
    qc = quad_chirp(params, x)
    U = np.fft.fft(qc * f.samples)
    post = grid.step / np.sqrt(abs(params.b)) * np.conj(qc)
    inner = np.empty(n)
    rows = max(1, AMOD_BLOCK_ENTRIES // n)
    for lo in range(0, n, rows):
        w = omegas[lo:lo + rows, None]
        phase = np.exp(1j * np.pi / params.b
                       * (params.a * w * w - 2.0 * params.p * w + 2.0 * w * x))
        V = np.fft.fft(qc * (phase * g.samples), axis=1)
        conv = post * np.roll(np.fft.ifft(U * V, axis=1), k0, axis=1)
        wgt = weight_eval(m, x, w)
        inner[lo:lo + rows] = grid.step * np.sum((np.abs(conv) * wgt) ** r, axis=1)
    dxi = 1.0 / grid.span
    return float((abs(params.b) * dxi * np.sum(inner ** (s / r))) ** (1.0 / s))


def a_mod_norm_oracle(params: SaftParams, f: Signal, g: Signal,
                      r: float, s: float, m: WeightSpec) -> float:
    """Twisted modulation norm straight from its definition.

    One cyclic twisted convolution per frequency on the induced grid
    w = b * xi, through aconv_fast and a_modulate; the weight is evaluated
    on that twisted-side lattice.  The reference for a_mod_norm.
    """
    _check_exponents(r, s)
    if np.max(np.abs(g.samples)) == 0.0:
        raise ValueError("window must be nonzero")
    _require_same_grid(f, g)
    grid = f.grid
    x = grid.nodes()
    xi = dft_frequencies(grid)
    omegas = params.b * xi
    inner = np.empty(grid.count)
    for j, w in enumerate(omegas):
        conv = aconv_fast(params, f, a_modulate(g, params, w), "cyclic")
        wgt = weight_eval(m, x, w)
        inner[j] = grid.step * np.sum((np.abs(conv.samples) * wgt) ** r)
    dxi = 1.0 / grid.span
    return float((abs(params.b) * dxi * np.sum(inner ** (s / r))) ** (1.0 / s))


def weighted_tf_norm(V: TFMatrix, w: WeightSpec, r: float) -> float:
    """(dx dw sum |V|^r weight^r)^{1/r} over the lattice."""
    x = V.x_grid.nodes()[:, None]
    om = V.w_grid.nodes()[None, :]
    wgt = weight_eval(w, x, om)
    acc = np.sum((np.abs(V.values) * wgt) ** r)
    return float((V.x_grid.step * V.w_grid.step * acc) ** (1.0 / r))


def tf_to_dict(V: TFMatrix) -> dict:
    """JSON layout: both grids plus a flat row-major [re, im] value list."""
    return {
        "x_start": V.x_grid.start, "x_step": V.x_grid.step,
        "x_count": V.x_grid.count,
        "w_start": V.w_grid.start, "w_step": V.w_grid.step,
        "w_count": V.w_grid.count,
        "window_id": V.window_id,
        "values": _pairs(V.values.reshape(-1)),
    }
