"""Uniform grids, sampled signals, transform spectra, and quadrature norms.

Discretization convention: plain Riemann-sum quadrature with uniform weight
`step`, no end corrections.  That choice keeps the discrete identities
(Plancherel, convolution theorem) exact; the distance to the continuum is
O(step) and is covered by convergence-order checks instead.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .params import SaftParams

MODES = ("compact", "cyclic")


@dataclass(frozen=True)
class Grid:
    """Uniform grid t_n = start + n*step for 0 <= n < count."""

    start: float
    step: float
    count: int

    def __post_init__(self):
        if not (self.step > 0):
            raise ValueError("grid step must be positive")
        if self.count < 2:
            raise ValueError("grid needs at least two nodes")

    def nodes(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.count)

    def node(self, n: int) -> float:
        return self.start + n * self.step

    @property
    def span(self) -> float:
        """Window length count * step."""
        return self.count * self.step

    def steps_of(self, x: float, what: str) -> int:
        """x / step as an int, for a length that must lie on the step lattice.

        Accepts |m - round(m)| <= 1e-9 * max(1, |m|) with m = x / step and
        otherwise raises a ValueError that opens with `what`, which should
        name the quantity and the step it must be a multiple of.
        """
        m = x / self.step
        k = int(round(m))
        if abs(m - k) > 1e-9 * max(1.0, abs(m)):
            raise ValueError(f"{what} (off by {m - k:+.3g} of the step {self.step!r})")
        return k

    def same_as(self, other: "Grid") -> bool:
        """Equal count, with start and step equal within 1e-9 * step."""
        tol = 1e-9 * self.step
        return (self.count == other.count and abs(self.start - other.start) <= tol
                and abs(self.step - other.step) <= tol)

    def index_of(self, t: float) -> int:
        """Index of the node at position t; rejects off-grid positions."""
        k = self.steps_of(t - self.start, f"position {t} is not on the grid")
        if not (0 <= k < self.count):
            raise ValueError(f"position {t} lies outside the grid")
        return k


def centered_grid(half_width: float, count: int) -> Grid:
    """Grid covering [-half_width, half_width) with the given node count."""
    step = 2.0 * half_width / count
    return Grid(-half_width, step, count)


@dataclass(frozen=True)
class Signal:
    """Complex samples on a uniform time grid.

    mode 'compact': the signal is treated as zero off the grid.
    mode 'cyclic': periodic with period count*step, where periodization is
    understood in the chirped domain for the twisted operations (see the
    convolution module).
    """

    grid: Grid
    samples: np.ndarray
    mode: str = "compact"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        arr = np.asarray(self.samples, dtype=complex)
        if arr.shape != (self.grid.count,):
            raise ValueError("sample count must match the grid")
        object.__setattr__(self, "samples", arr)

    def with_samples(self, samples: np.ndarray) -> "Signal":
        return Signal(self.grid, samples, self.mode)


@dataclass(frozen=True)
class Spectrum:
    """SAFT values on the induced frequency grid w_k = b * xi_k.

    xi_k = (k - floor(N/2)) / (N*step) are the DFT frequencies of the source
    time grid; for b < 0 the w grid is re-sorted ascending (and the samples
    permuted with it), so freq_grid.step = |b| / (N*step) always.
    """

    params: SaftParams
    freq_grid: Grid
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=complex)
        if arr.shape != (self.freq_grid.count,):
            raise ValueError("sample count must match the frequency grid")
        object.__setattr__(self, "samples", arr)


def sample(fn, grid: Grid, mode: str = "compact") -> Signal:
    """Sample a pointwise function on the grid; rejects non-finite values."""
    t = grid.nodes()
    vals = np.asarray(fn(t), dtype=complex)
    if vals.shape != t.shape:
        vals = np.array([fn(x) for x in t], dtype=complex)
    if not np.all(np.isfinite(vals)):
        raise ValueError("sampled values must be finite")
    return Signal(grid, vals, mode)


def impulse(grid: Grid, at_index: int, mode: str = "compact") -> Signal:
    """Unit-mass impulse: a single sample of height 1/step."""
    vals = np.zeros(grid.count, dtype=complex)
    vals[at_index] = 1.0 / grid.step
    return Signal(grid, vals, mode)


def indicator(lo: float, hi: float):
    """Pointwise indicator of [lo, hi), for use with sample()."""
    def fn(t):
        t = np.asarray(t, dtype=float)
        return ((t >= lo) & (t < hi)).astype(complex)
    return fn


def lr_norm(f: Signal, r: float) -> float:
    """Quadrature L^r norm (step * sum |f|^r)^(1/r); r = inf gives max |f|."""
    if r < 1:
        raise ValueError("norm exponent must satisfy r >= 1")
    mag = np.abs(f.samples)
    if np.isinf(r):
        return float(mag.max(initial=0.0))
    return float((f.grid.step * np.sum(mag ** r)) ** (1.0 / r))


def spectrum_norm(F: Spectrum, r: float) -> float:
    """Quadrature L^r norm of a spectrum with the frequency step as weight."""
    if r < 1:
        raise ValueError("norm exponent must satisfy r >= 1")
    mag = np.abs(F.samples)
    if np.isinf(r):
        return float(mag.max(initial=0.0))
    return float((F.freq_grid.step * np.sum(mag ** r)) ** (1.0 / r))


def inner_product(f: Signal, g: Signal) -> complex:
    """Quadrature pairing step * sum f conj(g)."""
    _require_same_grid(f, g)
    return complex(f.grid.step * np.sum(f.samples * np.conj(g.samples)))


def tail_mass(f: Signal, frac: float = 0.05) -> float:
    """Fraction of the L^1 mass in the outer `frac` of the window.

    Diagnostic only: the truncation window is an artifact choice and signals
    with visible tail mass approximate the line poorly.
    """
    n_edge = max(1, int(round(frac * f.grid.count / 2)))
    mag = np.abs(f.samples)
    total = mag.sum()
    if total == 0.0:
        return 0.0
    outer = mag[:n_edge].sum() + mag[-n_edge:].sum()
    return float(outer / total)


def _require_same_grid(f: Signal, g: Signal):
    if not f.grid.same_as(g.grid):
        raise ValueError("signals must share a grid")
    if f.mode != g.mode:
        raise ValueError("signals must share a boundary mode")


# ---------------------------------------------------------------------------
# Serialization.  Signal JSON:
#   {"start": t0, "step": dt, "mode": "compact"|"cyclic", "samples": [[re,im],...]}
# Spectrum JSON embeds the parameter object alongside the same layout.
# CSV alternative: rows "t,re,im" with a uniform t column.

def _pairs(arr: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in arr]


def _from_pairs(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs], dtype=complex)


def signal_to_dict(f: Signal) -> dict:
    return {"start": f.grid.start, "step": f.grid.step, "mode": f.mode,
            "samples": _pairs(f.samples)}


def signal_from_dict(obj: dict) -> Signal:
    samples = _from_pairs(obj["samples"])
    grid = Grid(float(obj["start"]), float(obj["step"]), len(samples))
    return Signal(grid, samples, obj.get("mode", "compact"))


def spectrum_to_dict(F: Spectrum) -> dict:
    return {"params": F.params.as_dict(), "start": F.freq_grid.start,
            "step": F.freq_grid.step, "samples": _pairs(F.samples)}


def spectrum_from_dict(obj: dict) -> Spectrum:
    samples = _from_pairs(obj["samples"])
    grid = Grid(float(obj["start"]), float(obj["step"]), len(samples))
    return Spectrum(SaftParams.from_dict(obj["params"]), grid, samples)


def save_signal(f: Signal, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(signal_to_dict(f), fh)


def load_signal(path: str) -> Signal:
    with open(path, encoding="utf-8") as fh:
        return signal_from_dict(json.load(fh))


def save_spectrum(F: Spectrum, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spectrum_to_dict(F), fh)


def load_spectrum(path: str) -> Spectrum:
    with open(path, encoding="utf-8") as fh:
        return spectrum_from_dict(json.load(fh))


def save_signal_csv(f: Signal, path: str):
    t = f.grid.nodes()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "re", "im"])
        for x, z in zip(t, f.samples):
            w.writerow([repr(float(x)), repr(float(z.real)), repr(float(z.imag))])


def load_signal_csv(path: str, mode: str = "compact") -> Signal:
    ts, vals = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        for row in rows:
            if not row or row[0].strip().lower() in ("t", ""):
                continue
            ts.append(float(row[0]))
            vals.append(complex(float(row[1]), float(row[2])))
    if len(ts) < 2:
        raise ValueError("CSV needs at least two samples")
    t = np.asarray(ts)
    steps = np.diff(t)
    step = float(steps[0])
    if not np.allclose(steps, step, rtol=1e-9, atol=1e-12):
        raise ValueError("CSV time column must be uniform")
    return Signal(Grid(float(t[0]), step, len(t)), np.asarray(vals), mode)
