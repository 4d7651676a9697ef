"""Seeded pseudo-random signal families for probes and the verify battery.

The families are fixed here (not configurable knobs) so that acceptance
runs are reproducible: identical (grid, count, seed) always yield the same
signals.  Gaussian mixtures keep their centers in the middle of the window
and their widths a small fraction of it, so the samples are below rounding
at the window edge and seam-sensitive identities see no boundary mass.
"""

from __future__ import annotations

import numpy as np

from .engine import isaft, make_plan
from .grid import Grid, Signal, Spectrum, raised_cosine
from .multipliers import LPBank
from .params import SaftParams

MIXTURE_COMPONENTS = 4  # Gaussian bumps per mixture
BAND_FRACTION = 0.5  # share of the DFT bins that band-limited noise fills
BUMP_WIDTH = 0.35  # share of the window that raised_cosine_bump covers


def _gaussian_mixture(grid: Grid, rng: np.random.Generator, mode: str) -> Signal:
    """Random sum of modulated Gaussian bumps confined to the window interior."""
    t = grid.nodes()
    half = grid.span / 2.0
    center0 = grid.start + half
    vals = np.zeros(grid.count, dtype=complex)
    for _ in range(MIXTURE_COMPONENTS):
        c = center0 + rng.uniform(-0.3, 0.3) * grid.span
        width = rng.uniform(half / 40.0, half / 12.0)
        amp = rng.uniform(0.3, 1.0) * np.exp(2j * np.pi * rng.uniform())
        freq = rng.uniform(-0.2, 0.2) / grid.step
        vals += amp * np.exp(-((t - c) / width) ** 2) * np.exp(2j * np.pi * freq * t)
    peak = np.max(np.abs(vals))
    if peak > 0:
        vals /= peak
    return Signal(grid, vals, mode)


def gaussian_mixture_family(grid: Grid, count: int, seed: int,
                            mode: str = "cyclic") -> list[Signal]:
    rng = np.random.default_rng(seed)
    return [_gaussian_mixture(grid, rng, mode) for _ in range(count)]


def _bandlimited_noise(grid: Grid, rng: np.random.Generator, mode: str) -> Signal:
    """Random spectrum on the central band, DC bin zeroed, unit peak."""
    n = grid.count
    spec = np.zeros(n, dtype=complex)
    half_keep = max(1, int(BAND_FRACTION * n / 2))
    lo, hi = n // 2 - half_keep, n // 2 + half_keep
    spec[lo:hi] = rng.standard_normal(hi - lo) + 1j * rng.standard_normal(hi - lo)
    spec[n // 2] = 0.0
    vals = np.fft.ifft(np.fft.ifftshift(spec))
    vals /= np.max(np.abs(vals))
    return Signal(grid, vals, mode)


def bandlimited_family(grid: Grid, count: int, seed: int,
                       mode: str = "cyclic") -> list[Signal]:
    rng = np.random.default_rng(seed)
    return [_bandlimited_noise(grid, rng, mode) for _ in range(count)]


def covered_family(params: SaftParams, bank: LPBank, grid: Grid,
                   count: int, seed: int) -> list[Signal]:
    """Signals whose spectra live entirely inside the bank's dyadic coverage,
    so block projections reconstruct them exactly."""
    rng = np.random.default_rng(seed)
    plan = make_plan(params, grid)
    mask = bank.coverage_mask(plan.freq_grid.nodes())
    out = []
    for _ in range(count):
        spec = np.where(mask,
                        rng.standard_normal(grid.count)
                        + 1j * rng.standard_normal(grid.count), 0.0)
        # taper keeps the spectrum concentrated rather than full-band white
        w = plan.freq_grid.nodes()
        spec = spec * np.exp(-((w - rng.uniform(w.min(), w.max()))
                               / (0.2 * (w.max() - w.min()))) ** 2)
        f = isaft(plan, Spectrum(params, plan.freq_grid, spec), "cyclic")
        peak = np.max(np.abs(f.samples))
        out.append(f.with_samples(f.samples / peak))
    return out


def raised_cosine_bump(grid: Grid) -> Signal:
    """Smooth compactly supported test bump in compact mode."""
    return Signal(grid, raised_cosine(grid, BUMP_WIDTH * grid.span / 2.0), "compact")
