"""Transform-domain multipliers, symbol validation, and the dyadic bank.

A multiplier acts diagonally on the discrete transform: pass to the
spectrum, multiply by the symbol on the induced frequency grid, invert.
The dyadic bank realizes the blocks [-2^(j+1), -2^j] u [2^j, 2^(j+1)] on
a finite grid, truncated to the levels the grid resolves; shared dyadic
endpoints belong to the lower block so the block indicators sum to
exactly one on the covered range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aconv import aconv_fast
from .engine import SaftPlan, apply_symbol, isaft, make_plan, saft_fast
from .grid import Grid, Signal, Spectrum, lr_norm
from .operators import a_translate
from .params import SaftParams

_SMOOTH_KINDS = ("imaginary_power", "smoothed_sign", "dyadic_bump")


@dataclass(frozen=True)
class SymbolSpec:
    """A multiplier symbol m(w) from a closed family.

    imaginary_power(alpha): |w|^(i alpha), the classic bounded symbol with
        |m'(w)| |w| = |alpha| exactly (m(0) taken as 1).
    smoothed_sign(scale):   tanh(w / scale).
    dyadic_bump(level):     smooth bump on +-[2^j, 2^(j+1)].
    indicator(lo, hi):      1 on [lo, hi); no derivative.
    indicator_union:        union of half-open intervals; no derivative.
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
        if self.kind in ("indicator", "indicator_union"):
            out = np.zeros_like(w)
            for lo, hi in self.intervals:
                out += ((w >= lo) & (w < hi)).astype(float)
            return np.minimum(out, 1.0).astype(complex)
        raise AssertionError(self.kind)

    def derivative(self, omega) -> np.ndarray:
        if not self.smooth:
            raise ValueError(f"symbol kind {self.kind!r} has no derivative")
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
        raise ValueError("transition scale must be positive")
    return SymbolSpec("smoothed_sign", scale=float(scale))


def dyadic_bump(level: int) -> SymbolSpec:
    return SymbolSpec("dyadic_bump", level=int(level))


def indicator_symbol(lo: float, hi: float) -> SymbolSpec:
    return SymbolSpec("indicator", intervals=((float(lo), float(hi)),))


def indicator_union(intervals) -> SymbolSpec:
    return SymbolSpec("indicator_union",
                      intervals=tuple((float(lo), float(hi)) for lo, hi in intervals))


def apply_multiplier(params: SaftParams, m: SymbolSpec, f: Signal,
                     plan: SaftPlan | None = None) -> Signal:
    """Diagonal action: invert(m(w_k) * transform(f)); cyclic mode."""
    if plan is None:
        plan = make_plan(params, f.grid)
    return apply_symbol(plan, f, m.value(plan.freq_grid.nodes()))


def hormander_validate(m: SymbolSpec, omegas) -> dict:
    """Estimate the decay constant sup |m'(w)| |w| over the nonzero grid.

    pass means the estimate is finite; only smooth symbol kinds qualify.
    """
    w = np.asarray(omegas, dtype=float)
    w = w[w != 0]
    c_est = float(np.max(np.abs(m.derivative(w)) * np.abs(w), initial=0.0))
    return {"C_est": c_est, "pass": bool(np.isfinite(c_est))}


def hormander_scale_invariance(m: SymbolSpec, b: float, omegas) -> tuple[float, float]:
    """Decay constants of m and of the rescaled symbol m(b .), on matched grids.

    The rescaled symbol is probed at w/b so the two suprema coincide
    exactly: |b m'(b x)| |x| at x = w/b equals |m'(w)| |w|.
    """
    w = np.asarray(omegas, dtype=float)
    w = w[w != 0]
    c1 = float(np.max(np.abs(m.derivative(w)) * np.abs(w), initial=0.0))
    x = w / b
    c2 = float(np.max(np.abs(b * m.derivative(b * x)) * np.abs(x), initial=0.0))
    return c1, c2


def multiplier_norm_probe(params: SaftParams, m: SymbolSpec, r: float,
                          family, count: int) -> float:
    """Max empirical ratio ||T_m f||_r / ||f||_r over `count` family signals."""
    plan = None
    worst = 0.0
    for i, f in enumerate(family):
        if i >= count:
            break
        if plan is None:
            plan = make_plan(params, f.grid)
        out = apply_multiplier(params, m, f, plan)
        worst = max(worst, lr_norm(out, r) / lr_norm(f, r))
    return worst


# ---------------------------------------------------------------------------
# Dyadic bank.

@dataclass(frozen=True)
class LPBank:
    """Dyadic levels j_min..j_max; level j covers +-[2^j, 2^(j+1)]."""

    j_min: int
    j_max: int

    def __post_init__(self):
        if self.j_max < self.j_min:
            raise ValueError("bank needs j_max >= j_min")

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
            raise ValueError("grid too coarse for a dyadic bank")
        return LPBank(j_min, j_max)


def lp_project(params: SaftParams, bank: LPBank, f: Signal,
               plan: SaftPlan | None = None) -> list[Signal]:
    """Block projections S_j f: indicator of each dyadic block in the
    transform domain, one inversion per level."""
    if plan is None:
        plan = make_plan(params, f.grid)
    F = saft_fast(plan, f)
    w = F.freq_grid.nodes()
    out = []
    for j in bank.levels:
        mask = bank.block_mask(j, w)
        out.append(isaft(plan, Spectrum(params, F.freq_grid, mask * F.samples),
                         f.mode))
    return out


def square_function(blocks: list[Signal]) -> Signal:
    """Pointwise (sum_j |S_j f|^2)^(1/2); real nonnegative samples."""
    if not blocks:
        raise ValueError("need at least one block")
    grid = blocks[0].grid
    acc = np.zeros(grid.count)
    for blk in blocks:
        if not blk.grid.same_as(grid):
            raise ValueError("blocks must share a grid")
        acc += np.abs(blk.samples) ** 2
    return Signal(grid, np.sqrt(acc).astype(complex), blocks[0].mode)


def lp_ratio_probe(params: SaftParams, bank: LPBank, r: float,
                   family, count: int) -> dict:
    """Empirical min/max of ||square_function(f)||_r / ||f||_r over the family."""
    plan = None
    ratios = []
    for i, f in enumerate(family):
        if i >= count:
            break
        if plan is None:
            plan = make_plan(params, f.grid)
        sf = square_function(lp_project(params, bank, f, plan))
        ratios.append(lr_norm(sf, r) / lr_norm(f, r))
    return {"min_ratio": float(min(ratios)), "max_ratio": float(max(ratios))}


def wendel_commute_check(params: SaftParams, u: Signal, x: float,
                         f: Signal) -> float:
    """Deviation between u *A (T^A_x f) and T^A_x (u *A f), cyclic mode.

    Convolution against a fixed u commutes with every grid-aligned twisted
    translation; both sides are assembled in the signal domain.
    """
    lhs = aconv_fast(params, u, a_translate(f, params, x), "cyclic").samples
    rhs = a_translate(aconv_fast(params, u, f, "cyclic"), params, x).samples
    return float(np.max(np.abs(lhs - rhs)))
