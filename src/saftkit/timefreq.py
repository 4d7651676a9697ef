"""Short-time Fourier transform, covariance checkers, and modulation norms.

The STFT here is the full-lattice one: window positions run over the whole
signal grid and frequencies over the whole centered DFT grid, which makes
the discrete Moyal identity exact in cyclic mode.  Modulation-space norms
are computed through the STFT via f * M_w g(x) = exp(2 pi i w x)
V_{g~} f(x, w) with the flipped window g~(t) = conj(g(-t)).

No kernel here evaluates an N x N table of exponentials or modulo indices,
or gathers a copy of its rows.  Modulating by a lattice frequency shifts a
DFT cyclically (the shift identity behind
V_g f(x, w) = e^{-2 pi i x w} V_{g^} f^(w, -x)), so a_mod_norm reads every
modulated window's spectrum from one FFT, and the STFT reads its window
rows from one padded window: in both, a block of rows is one reversed
strided view (row m starts one sample before row m - 1), which a single
multiply turns into the block the row-wise FFT takes.  The two norms stay
on independent kernels: a_mod_norm works on the frequency side (inverse
FFTs of spectrum products, or at r = 2 their Parseval sums), mod_norm on
the time side (FFTs of windowed products), which is what makes their
scaling identity a test.
Both reduce row blocks as they are made, so they run at any N in bounded
memory; STFT_MAX_COUNT bounds only stft, which returns the whole table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .aconv import aconv_fast
from .engine import dft_frequencies, saft
from .grid import (Grid, Signal, _pairs, _require_same_grid, centered_grid,
                   near_integer, raised_cosine)
from .operators import a_modulate, a_translate, chirp, involution
from .params import (InputError, SaftParams, WeightSpec, pre_chirp, quad_chirp,
                     weight_eval)

# stft returns a dense N x N complex table: 256 MiB at this limit.  The
# norms never build it, so the limit does not apply to them.
STFT_MAX_COUNT = 4096
# The STFT row helper and a_mod_norm work in blocks of rows of at most this
# many complex values (4 MiB per table), so N <= 512 is one block.
TF_BLOCK_ENTRIES = 2 ** 18


@dataclass(frozen=True)
class TFMatrix:
    """Complex STFT values on an x-w lattice; values[m, k] = V(x_m, w_k)."""

    x_grid: Grid
    w_grid: Grid
    values: np.ndarray = field(repr=False)
    window_id: str = ""

    def __post_init__(self):
        if self.values.shape != (self.x_grid.count, self.w_grid.count):
            raise InputError("value matrix must match the lattice")


def _freq_grid(grid: Grid) -> Grid:
    """The centered DFT frequency lattice of the STFT, step 1 / (N dt)."""
    return Grid(float(dft_frequencies(grid)[0]), 1.0 / grid.span, grid.count)


def _stft_rows(f: Signal, g: Signal):
    """Yield (lo, block) with block[i, k] = V(x_{lo+i}, xi_k), in row blocks
    of at most TF_BLOCK_ENTRIES values.

    Row m needs conj(g) at sample n - m - k0 for n = 0..N-1, the window of
    one padded conj(g) that starts at top - m: the tripled conj(g) in
    cyclic mode, the zero-padded one in compact mode.  So a block's window
    rows are one reversed strided view, and one multiply by
    fc = dt * f * exp(2 pi i n floor(N/2) / N) (the centring phase puts
    each FFT row in centered order) builds the block without a gathered
    copy.  One row-wise FFT and the unit grid-origin phase per column
    finish it.  In compact mode a row whose window starts outside the
    padded array lies wholly in the padding and stays zero.
    """
    _require_same_grid(f, g)
    grid = f.grid
    n = grid.count
    k0 = grid.steps_of(grid.start, "STFT needs the grid origin on the step lattice")
    cg = np.conj(g.samples)
    if f.mode == "cyclic":
        padded, top = np.concatenate((cg, cg, cg)), n + (-k0) % n
    else:
        zero = np.zeros(n, dtype=complex)
        padded, top = np.concatenate((zero, cg, zero)), n - k0
    windows = sliding_window_view(padded, n)
    last = len(windows) - 1  # window starts run over 0..2N
    fc = grid.step * f.samples * np.exp(2j * np.pi / n * (np.arange(n) * (n // 2) % n))
    col = np.exp(-2j * np.pi * dft_frequencies(grid) * grid.start)
    rows = max(1, TF_BLOCK_ENTRIES // n)

    def window_rows(a: int, b: int):  # rows a..b-1, for top - last <= a < b <= top + 1
        return windows[top - a:top - b if top >= b else None:-1]

    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        a, b = max(lo, top - last), min(hi, top + 1)
        if (a, b) == (lo, hi):
            block = np.multiply(window_rows(lo, hi), fc)
        else:  # compact mode: the other rows' windows lie in the padding
            block = np.zeros((hi - lo, n), dtype=complex)
            if a < b:
                np.multiply(window_rows(a, b), fc, out=block[a - lo:b - lo])
        block = np.fft.fft(block, axis=1)
        block *= col
        yield lo, block


def stft(f: Signal, g: Signal, window_id: str = "") -> TFMatrix:
    """V(x_m, xi_k) = dt * sum_n f(t_n) conj(g(t_n - x_m)) e^{-2 pi i xi_k t_n}.

    One FFT per window position, batched over the row blocks of
    _stft_rows (one multiply of a reversed window view by f per block);
    for N <= 512 the table is one block and is returned as made.  Cyclic
    mode wraps the window (needed for the exact full-lattice Moyal
    identity); compact mode zero-fills outside the grid.  N above
    STFT_MAX_COUNT is rejected before the N x N table is allocated.
    """
    grid = f.grid
    n = grid.count
    if n > STFT_MAX_COUNT:
        raise InputError(f"stft returns a dense N x N table; N = {n} is above "
                         f"the limit of {STFT_MAX_COUNT} samples")
    if n * n <= TF_BLOCK_ENTRIES:  # one block: the table as made
        _, vals = next(_stft_rows(f, g))
    else:
        vals = np.empty((n, n), dtype=complex)
        for lo, block in _stft_rows(f, g):
            vals[lo:lo + len(block)] = block
    return TFMatrix(grid, _freq_grid(grid), vals, window_id)


def window_flip(g: Signal) -> Signal:
    """g~(t) = conj(g(-t)), the window that turns convolution into an STFT."""
    flipped = involution(g)
    return flipped.with_samples(np.conj(flipped.samples))


def _unit_l2(f: Signal) -> Signal:
    """f divided by its quadrature L2 norm."""
    norm = np.sqrt(f.grid.step * np.sum(np.abs(f.samples) ** 2))
    return f.with_samples(f.samples / norm)


def gaussian_window(grid: Grid) -> Signal:
    """Unit-L2 Gaussian matched to the grid: decayed below 1e-12 at the edge."""
    half = grid.span / 2.0
    center = grid.start + half
    alpha = 12.0 * np.log(10.0) / (half * half)
    t = grid.nodes() - center
    return _unit_l2(Signal(grid, np.exp(-alpha * t * t), "cyclic"))


def raised_cosine_window(grid: Grid) -> Signal:
    """Unit-L2 raised cosine supported on the middle half of the window."""
    return _unit_l2(Signal(grid, raised_cosine(grid, grid.span / 4.0), "cyclic"))


# ---------------------------------------------------------------------------
# Covariance checkers.  Each evaluates both sides of an identity through
# independent code paths and returns the max lattice deviation relative to
# the peak of |V_g f|, a table it builds anyway: 0.0 when that table is zero.

def _relative(dev: np.ndarray, V0: np.ndarray) -> float:
    peak = np.max(np.abs(V0))
    return float(np.max(np.abs(dev)) / peak) if peak > 0 else 0.0


def _shift_rows(M: np.ndarray, sign: int, shifts) -> np.ndarray:
    """out[r, i] = M[r, sign * i + shifts[r]] on centred column indices mod N
    (i = -N//2 .. N - 1 - N//2): a roll per row, after a reversal about the
    centre when sign = -1.  Pure data movement, two slice copies per row."""
    n = M.shape[1]
    if sign < 0:  # M[r, k - i] is the reversed row read at i + (N - 1 - 2 (N//2)) - k
        M = M[:, ::-1]
        shifts = (n - 1 - 2 * (n // 2)) - np.asarray(shifts)
    out = np.empty(M.shape, M.dtype)  # C order, also for a transposed M
    for row, src, k in zip(out, M, (np.asarray(shifts) % n).tolist()):
        row[:n - k] = src[k:]
        row[n - k:] = src[:k]
    return out


def _lattice_map(V: np.ndarray, a: int, b: int, c: int, d: int) -> np.ndarray:
    """out[i, j] = V[d i - b j, a j - c i] on centred indices mod N, for an
    integer matrix with ad - bc = 1 and b = +-1.

    With u = d i - b j these give j = b (d i - u) and a j - c i = b i - a b u,
    so out[i, j] = W[u, i] with W[u, i] = V[u, b i - a b u]: two passes of
    row shifts with a transpose between them, and no index table.
    """
    centred = np.arange(V.shape[0]) - V.shape[0] // 2
    W = _shift_rows(V, b, -a * b * centred)  # W[u, i] = V[u, b i - a b u]
    return _shift_rows(W.T, -b, d * centred)


def chirp_stft_covariance_check(f: Signal, g: Signal, s: float) -> float:
    """Relative deviation in V_{C_s g}(C_s f)(x, w) = e^{-i pi s x^2} V_g f(x, w - s x).

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
    # row m of the right side is row m of V0 rolled by shear_base + m * shear_step
    shift = shear_base + np.arange(f.grid.count) * shear_step
    rhs = np.exp(-1j * np.pi * s * x * x)[:, None] * _shift_rows(V0.values, 1, -shift)
    return _relative(lhs - rhs, V0.values)


def a_covariance_check(params: SaftParams, f: Signal, g: Signal,
                       xi: float, eta: float) -> float:
    """Relative deviation in the twisted time-frequency covariance law

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
    return _relative(lhs - rhs, V0.values)


def saft_stft_identity_check(params: SaftParams, f: Signal, g: Signal) -> float:
    """Relative magnitude deviation in the transform-domain STFT identity

    |V_{Fg}(Ff)(x, w)| = |V_g f(d x - b w, a w - c x)|.

    Needs integer a, b, c, d with |b| = 1 and a self-dual centred grid
    (N dt^2 = |b|, t0 = -N dt / 2, tested with Grid.same_as) so the map
    carries the lattice into itself; incompatible inputs are rejected.
    """
    ints = [params.a, params.b, params.c, params.d]
    if not all(near_integer(v) for v in ints):
        raise InputError("identity check needs integer matrix parameters")
    ai, bi, ci, di = (int(round(v)) for v in ints)
    if abs(bi) != 1:
        raise InputError("identity check needs |b| = 1")
    n = f.grid.count
    if not f.grid.same_as(centered_grid(np.sqrt(n * abs(params.b)) / 2.0, n)):
        raise InputError("identity check needs a self-dual centred grid: "
                         "N dt^2 = |b| and t0 = -N dt / 2")
    F = saft(params, f)
    G = saft(params, g)
    Fs = Signal(F.freq_grid, F.samples, "cyclic")
    Gs = Signal(G.freq_grid, G.samples, "cyclic")
    VA = np.abs(stft(Fs, Gs).values)
    V0 = np.abs(stft(f, g).values)
    return _relative(VA - _lattice_map(V0, ai, bi, ci, di), V0)


# ---------------------------------------------------------------------------
# Modulation-space norms.

def _check_norm_inputs(f: Signal, g: Signal, r: float, s: float):
    """The preconditions every modulation norm shares: finite exponents
    r, s >= 1, a nonzero window, and one grid and mode for f and g."""
    if not (1 <= r < np.inf and 1 <= s < np.inf):  # also rejects NaN
        raise InputError("modulation norms need finite exponents r, s >= 1")
    if np.max(np.abs(g.samples)) == 0.0:
        raise InputError("window must be nonzero")
    _require_same_grid(f, g)


def _mixed_norm(inner: np.ndarray, dw: float, r: float, s: float) -> float:
    """(dw * sum_w inner(w)^(s/r))^(1/s), from the per-frequency sums
    inner(w) = int |.|^r m^r dx."""
    return float((dw * np.sum(inner ** (s / r))) ** (1.0 / s))


def mod_norm(f: Signal, g: Signal, r: float, s: float, m: WeightSpec) -> float:
    """Mixed-norm modulation quantity over the full lattice.

    (int (int |f * M_w g(x)|^r m(x,w)^r dx)^{s/r} dw)^{1/s}, computed as the
    STFT against the flipped window.  STFT row blocks are reduced as they
    are made into per-frequency partial sums over x, so memory stays
    bounded at any N.
    """
    _check_norm_inputs(f, g, r, s)
    grid = f.grid
    x = grid.nodes()[:, None]
    w = _freq_grid(grid).nodes()[None, :]
    acc = np.zeros(grid.count)
    for lo, block in _stft_rows(f, window_flip(g)):
        mag = np.abs(block)
        mag *= weight_eval(m, x[lo:lo + len(block)], w)
        acc += np.sum(mag ** r, axis=0)
    return _mixed_norm(grid.step * acc, 1.0 / grid.span, r, s)


def a_mod_norm(params: SaftParams, f: Signal, g: Signal,
               r: float, s: float, m: WeightSpec) -> float:
    """Twisted modulation norm: the mixed norm of |f *A M^A_w g(x)|.

    Frequency-side form of a_mod_norm_oracle.  At w_k = b xi_k the
    A-modulation multiplies g by a unimodular row constant times
    exp(2 pi i (k - floor(N/2)) n / N), so the transform of the chirped,
    modulated window is G = fft(quad_chirp g) shifted cyclically by
    k - floor(N/2).  Each block of frequency rows is one reversed strided
    view of the tripled G, multiplied by U = fft(quad_chirp f) in one pass,
    and one inverse FFT along the rows; the unimodular constants drop out
    of |.|.  The weight is evaluated on the twisted-side lattice w = b xi.
    At r = 2 with the unit weight each row's sum of |conv|^2 is, by
    Parseval, sum_j |G_shift|^2 |U_j|^2 / N, so that case takes the same
    strided view of the tripled |G|^2 times |U|^2 / N as one real matvec
    per block, and makes no inverse FFT.
    A block holds at most TF_BLOCK_ENTRIES complex values, so memory stays
    bounded at any N.
    """
    _check_norm_inputs(f, g, r, s)
    grid = f.grid
    n = grid.count
    k0 = grid.steps_of(grid.start, "cyclic convolution needs the grid origin "
                       "on the step lattice")
    x = grid.nodes()
    omegas = params.b * dft_frequencies(grid)
    qc = quad_chirp(params, x)
    U = np.fft.fft(qc * f.samples)
    G = np.fft.fft(qc * g.samples)
    parseval = r == 2 and m.kind == "unit"
    if parseval:
        U, G = np.abs(U) ** 2 / n, np.abs(G) ** 2
    # row k reads G[(j - k + N/2) mod N]: the window of the tripled G that
    # starts at top - k, so a block of rows is one reversed strided view
    windows = sliding_window_view(np.concatenate((G, G, G)), n)
    top = n + n // 2
    # inverse-FFT index j holds the convolution at x_{(j + k0) mod N}, and
    # the output chirp has modulus dt / sqrt|b|
    xj = x[(np.arange(n) + k0) % n]
    scale = grid.step / np.sqrt(abs(params.b))
    inner = np.empty(n)
    rows = max(1, TF_BLOCK_ENTRIES // n)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        if parseval:
            inner[lo:hi] = windows[top - lo:top - hi:-1] @ U
            continue
        block = np.multiply(windows[top - lo:top - hi:-1], U)
        conv = np.abs(np.fft.ifft(block, axis=1))
        conv *= weight_eval(m, xj, omegas[lo:hi, None])
        inner[lo:hi] = np.sum(conv ** r, axis=1)
    inner *= grid.step * scale ** r
    return _mixed_norm(inner, abs(params.b) * (1.0 / grid.span), r, s)


def a_mod_norm_oracle(params: SaftParams, f: Signal, g: Signal,
                      r: float, s: float, m: WeightSpec) -> float:
    """Twisted modulation norm straight from its definition.

    One cyclic twisted convolution per frequency on the induced grid
    w = b * xi, through aconv_fast and a_modulate; the weight is evaluated
    on that twisted-side lattice.  The reference for a_mod_norm.
    """
    _check_norm_inputs(f, g, r, s)
    grid = f.grid
    x = grid.nodes()
    omegas = params.b * dft_frequencies(grid)
    inner = np.empty(grid.count)
    for j, w in enumerate(omegas):
        conv = aconv_fast(params, f, a_modulate(g, params, w), "cyclic")
        wgt = weight_eval(m, x, w)
        inner[j] = grid.step * np.sum((np.abs(conv.samples) * wgt) ** r)
    return _mixed_norm(inner, abs(params.b) * (1.0 / grid.span), r, s)


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
