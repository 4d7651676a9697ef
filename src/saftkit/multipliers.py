"""Transform-domain multipliers, the dyadic bank and the norm-ratio probe.

A multiplier acts diagonally on the discrete transform: pass to the
spectrum, multiply by the symbol on the induced frequency grid, invert.
The dyadic bank realizes the blocks [-2^(j+1), -2^j] u [2^j, 2^(j+1)] on
a finite grid, truncated to the levels the grid resolves; shared dyadic
endpoints belong to the lower block so the block indicators sum to
exactly one on the covered range.

lp_project computes the whole bank from one forward FFT.  w is monotone
along the induced frequency grid, so each block is two index ranges of
it (LPBank.block_ranges, found by binary search with the same closed and
open ends as block_mask), and engine.project_ranges copies those ranges
of the one spectrum into zeroed rows and inverts them.  No level builds
a mask or divides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import SaftPlan, apply_symbol, make_plan, project_ranges
from .grid import Grid, Signal, lr_norm
from .params import InputError, SaftParams

_SMOOTH_KINDS = ("imaginary_power", "smoothed_sign", "dyadic_bump")


@dataclass(frozen=True)
class SymbolSpec:
    """A multiplier symbol m(w) from a closed family.

    imaginary_power(alpha): |w|^(i alpha), the classic bounded symbol with
        |m'(w)| |w| = |alpha| exactly (m(0) taken as 1).
    smoothed_sign(scale):   tanh(w / scale).
    dyadic_bump(level):     smooth bump on +-[2^j, 2^(j+1)].
    indicator(intervals):   1 on a union of half-open intervals [lo, hi);
                            no derivative.
    """

    kind: str
    alpha: float = 0.0
    scale: float = 1.0
    level: int = 0
    intervals: tuple = ()

    @property
    def smooth(self) -> bool:
        return self.kind in _SMOOTH_KINDS

    def value(self, omega) -> np.ndarray:
        w = np.asarray(omega, dtype=float)
        if self.kind == "imaginary_power":
            mag = np.abs(w)
            safe = np.where(mag > 0, mag, 1.0)
            return np.exp(1j * self.alpha * np.log(safe))
        if self.kind == "smoothed_sign":
            return np.tanh(w / self.scale).astype(complex)
        if self.kind == "dyadic_bump":
            u = self._bump_arg(w)
            inside = np.abs(u) < 1.0
            us = np.where(inside, u, 0.0)
            vals = np.where(inside, np.exp(-us * us / (1.0 - us * us)), 0.0)
            return vals.astype(complex)
        if self.kind == "indicator":
            out = np.zeros_like(w)
            for lo, hi in self.intervals:
                out += ((w >= lo) & (w < hi)).astype(float)
            return np.minimum(out, 1.0).astype(complex)
        raise AssertionError(self.kind)

    def derivative(self, omega) -> np.ndarray:
        if not self.smooth:
            raise InputError(f"symbol kind {self.kind!r} has no derivative")
        w = np.asarray(omega, dtype=float)
        if self.kind == "imaginary_power":
            safe = np.where(w != 0, w, np.inf)
            return 1j * self.alpha / safe * self.value(w)
        if self.kind == "smoothed_sign":
            th = np.tanh(w / self.scale)
            return ((1.0 - th * th) / self.scale).astype(complex)
        u = self._bump_arg(w)
        inside = np.abs(u) < 1.0
        us = np.where(inside, u, 0.0)
        core = np.where(inside, np.exp(-us * us / (1.0 - us * us))
                        * (-2.0 * us) / (1.0 - us * us) ** 2, 0.0)
        return (core * np.sign(w) / 2.0 ** (self.level - 1)).astype(complex)

    def _bump_arg(self, w):
        lo = 2.0 ** self.level
        return (np.abs(w) - 1.5 * lo) / (0.5 * lo)


def imaginary_power(alpha: float) -> SymbolSpec:
    return SymbolSpec("imaginary_power", alpha=float(alpha))


def smoothed_sign(scale: float) -> SymbolSpec:
    if not (scale > 0):
        raise InputError("transition scale must be positive")
    return SymbolSpec("smoothed_sign", scale=float(scale))


def dyadic_bump(level: int) -> SymbolSpec:
    return SymbolSpec("dyadic_bump", level=int(level))


def _interval(lo, hi) -> tuple:
    lo, hi = float(lo), float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise InputError(f"indicator interval needs finite lo < hi, got [{lo}, {hi})")
    return lo, hi


def indicator_union(intervals) -> SymbolSpec:
    return SymbolSpec("indicator",
                      intervals=tuple(_interval(lo, hi) for lo, hi in intervals))


def indicator_symbol(lo: float, hi: float) -> SymbolSpec:
    return indicator_union([(lo, hi)])


def apply_multiplier(params: SaftParams, m: SymbolSpec, f: Signal) -> Signal:
    """Diagonal action invert(m(w_k) * transform(f)) on make_plan's cached plan."""
    plan = make_plan(params, f.grid)
    return apply_symbol(plan, f, m.value(plan.freq_grid.nodes()))


def decay_constant(m: SymbolSpec, omegas) -> float:
    """Hormander decay constant sup |m'(w)| |w| over the nonzero omegas."""
    w = np.asarray(omegas, dtype=float)
    w = w[w != 0]
    return float(np.max(np.abs(m.derivative(w)) * np.abs(w), initial=0.0))


def derivative_defect(m: SymbolSpec, omegas) -> float:
    """Largest |w| |m'(w) - (m(w + h) - m(w - h)) / 2h| over the nonzero
    omegas, h = 1e-6 max(1e-3, |w|), relative to decay_constant(m, omegas).

    m.derivative and m.value are separate formulas, so a sign or factor
    error in the derivative shows here at O(1).
    """
    w = np.asarray(omegas, dtype=float)
    w = w[w != 0]
    h = 1e-6 * np.maximum(1e-3, np.abs(w))
    diff = (m.value(w + h) - m.value(w - h)) / (2.0 * h)
    err = float(np.max(np.abs(m.derivative(w) - diff) * np.abs(w), initial=0.0))
    c = decay_constant(m, w)
    return err / c if c else err


def norm_ratios(op, rs: tuple[float, ...],
                family: list[Signal]) -> list[tuple[float, float]]:
    """Empirical (min, max) of ||op f||_r / ||f||_r over the family, one pair
    per exponent r in rs, in that order.  op, any callable Signal -> Signal,
    is applied once per member; every r-norm is taken of that one output.

    Rejects a zero member, and (through lr_norm) a norm outside the float
    range.
    """
    if not family:
        raise InputError("the probe family is empty")
    if not all(np.any(f.samples) for f in family):
        raise InputError("the probe family holds a zero signal")

    ratios = []
    for f in family:
        out = op(f)
        ratios.append([lr_norm(out, r) / lr_norm(f, r) for r in rs])
    return [(min(v), max(v)) for v in zip(*ratios)]


# ---------------------------------------------------------------------------
# Dyadic bank.

@dataclass(frozen=True)
class LPBank:
    """Dyadic levels j_min..j_max; level j covers +-[2^j, 2^(j+1)]."""

    j_min: int
    j_max: int

    def __post_init__(self):
        if self.j_max < self.j_min:
            raise InputError("bank needs j_max >= j_min")
        # 2^j_min must be a positive float and 2^(j_max+1) a finite one
        if self.j_min < -1074 or self.j_max > 1022:
            raise InputError("bank levels must lie in -1074..1022, got "
                             f"{self.j_min}..{self.j_max}")

    @property
    def levels(self) -> range:
        return range(self.j_min, self.j_max + 1)

    def block_mask(self, j: int, omega) -> np.ndarray:
        """Indicator of level j; the shared endpoint 2^j belongs to level j-1."""
        mag = np.abs(np.asarray(omega, dtype=float))
        lo, hi = 2.0 ** j, 2.0 ** (j + 1)
        if j == self.j_min:
            return (mag >= lo) & (mag <= hi)
        return (mag > lo) & (mag <= hi)

    def block_ranges(self, j: int, omega) -> tuple:
        """Level j on an ascending omega as two index ranges (start, stop),
        the negative half first; together they hold exactly the indices
        where block_mask(j, omega) is true."""
        w = np.asarray(omega, dtype=float)
        lo, hi = 2.0 ** j, 2.0 ** (j + 1)
        closed = j == self.j_min  # only the lowest level holds 2^j itself
        neg = (np.searchsorted(w, -hi, "left"),
               np.searchsorted(w, -lo, "right" if closed else "left"))
        pos = (np.searchsorted(w, lo, "left" if closed else "right"),
               np.searchsorted(w, hi, "right"))
        return tuple((int(a), int(b)) for a, b in (neg, pos))

    def coverage_mask(self, omega) -> np.ndarray:
        mag = np.abs(np.asarray(omega, dtype=float))
        return (mag >= 2.0 ** self.j_min) & (mag <= 2.0 ** (self.j_max + 1))

    @staticmethod
    def for_grid(params: SaftParams, grid: Grid) -> "LPBank":
        """Widest bank the induced frequency grid resolves:
        2^j_min >= 2 dw and 2^(j_max+1) <= max |w|."""
        dw = abs(params.b) / grid.span
        w_max = abs(params.b) / (2.0 * grid.step)
        j_min = math.ceil(math.log2(2.0 * dw))
        j_max = math.floor(math.log2(w_max)) - 1
        if j_max < j_min:
            raise InputError("grid too coarse for a dyadic bank")
        return LPBank(j_min, j_max)


def lp_project(params: SaftParams, bank: LPBank, f: Signal,
               plan: SaftPlan | None = None) -> list[Signal]:
    """Block projections S_j f: the indicator of each dyadic block in the
    transform domain, all from one forward FFT (engine.project_ranges),
    each block given as the two index ranges of block_ranges."""
    if plan is None:
        plan = make_plan(params, f.grid)
    elif plan.params != params:
        raise InputError("plan was built for other parameters")
    w = plan.freq_grid.nodes()
    return project_ranges(plan, f, [bank.block_ranges(j, w) for j in bank.levels])


def square_function(blocks: list[Signal]) -> Signal:
    """Pointwise (sum_j |S_j f|^2)^(1/2); real nonnegative samples."""
    if not blocks:
        raise InputError("need at least one block")
    grid = blocks[0].grid
    acc = np.zeros(grid.count)
    for blk in blocks:
        if not blk.grid.same_as(grid):
            raise InputError("blocks must share a grid")
        acc += np.abs(blk.samples) ** 2
    return Signal(grid, np.sqrt(acc).astype(complex), blocks[0].mode)
