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
Every kernel that reduces an N x N quantity streams it in blocks of
engine.block_rows(N) rows, so it runs at any N in bounded memory;
_stft_rows fills a buffer its caller owns, and STFT_MAX_COUNT bounds only
stft, which hands it the whole N x N table as one block.  Each entry gets
the same operations in the same operand order as on a whole table, and
each reduction is one whose bits do not depend on the split (a maximum, a
sum along a row, or mod_norm's column sums carried down the rows in
order), so the results are the whole-table ones bit for bit.
saft_stft_identity_max keeps one real N x N table, |V_g f|, as the
lattice map moves entries across rows, and gathers the map from it by its
index rule.  The whole-table references that pin these bits live in the
tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .aconv import aconv_fast
from .engine import block_rows, dft_frequencies, natural_freqs, saft, spectrum_grid
from .grid import (Grid, Signal, _pairs, _require_same_grid, centered_grid,
                   lr_norm, near_integer, raised_cosine)
from .operators import a_modulate, a_translate, chirp, involution
from .params import (InputError, SaftParams, WeightSpec, fourier_params,
                     pre_chirp, quad_chirp, weight_eval)

# stft returns a dense N x N complex table: 256 MiB at this limit.  The
# norms never build it, so the limit does not apply to them.
STFT_MAX_COUNT = 4096


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


def _stft_rows(f: Signal, g: Signal, buf: np.ndarray, start: int = 0):
    """Check f and g, then return an iterator of (lo, block) with
    block[i, k] = V(x_m, xi_k) for m = (start + lo + i) mod N, in blocks of
    len(buf) rows filled into the caller's complex (rows, N) buffer buf.

    Every block is a view of buf, overwritten by the next one, so a caller
    reduces or copies a block before it asks for the next.
    Row m needs conj(g) at sample n - m - k0 for n = 0..N-1, the window of
    one padded conj(g) that starts at top - m: the tripled conj(g) in
    cyclic mode, the zero-padded one in compact mode.  So a run of
    consecutive rows is one reversed strided view (a block whose rows wrap
    past N is two runs), and one multiply by
    fc = dt * f * exp(2 pi i n floor(N/2) / N) (the centring phase puts
    each FFT row in centered order) fills it without a gathered copy.  One
    row-wise FFT and the unit grid-origin phase per column finish it.  In
    compact mode a row whose window starts outside the padded array lies
    wholly in the padding and stays zero.
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
    rows = len(buf)

    def fill(out: np.ndarray, a: int):  # rows a..a+len(out)-1, all below N
        first, stop = max(a, top - last), min(a + len(out), top + 1)
        if (first, stop) != (a, a + len(out)):  # compact mode: rows in the padding
            out[:] = 0.0
        if first < stop:
            np.multiply(windows[top - first:top - stop if top >= stop else None:-1], fc,
                        out=out[first - a:stop - a])

    def blocks():
        for lo in range(0, n, rows):
            block = buf[:min(rows, n - lo)]
            m = (start + lo) % n
            fill(block[:n - m], m)
            if n - m < len(block):  # the rows wrap past N
                fill(block[n - m:], 0)
            np.fft.fft(block, axis=1, out=block)
            block *= col
            yield lo, block

    return blocks()


def stft(f: Signal, g: Signal, window_id: str = "") -> TFMatrix:
    """V(x_m, xi_k) = dt * sum_n f(t_n) conj(g(t_n - x_m)) e^{-2 pi i xi_k t_n}.

    One FFT per window position, batched over the table's rows: _stft_rows
    fills the table as one block (one multiply of a reversed window view
    by f), which is returned as made.  Cyclic mode wraps the window (needed
    for the exact full-lattice Moyal identity); compact mode zero-fills
    outside the grid.  N above STFT_MAX_COUNT is rejected before the N x N
    table is allocated.
    """
    grid = f.grid
    n = grid.count
    if n > STFT_MAX_COUNT:
        raise InputError(f"stft returns a dense N x N table; N = {n} is above "
                         f"the limit of {STFT_MAX_COUNT} samples")
    vals = np.empty((n, n), dtype=complex)
    next(_stft_rows(f, g, vals))
    return TFMatrix(grid, spectrum_grid(fourier_params(), grid), vals, window_id)


def window_flip(g: Signal) -> Signal:
    """g~(t) = conj(g(-t)), the window that turns convolution into an STFT."""
    flipped = involution(g)
    return flipped.with_samples(np.conj(flipped.samples))


def _unit_l2(f: Signal) -> Signal:
    """f divided by its quadrature L2 norm."""
    return f.with_samples(f.samples / lr_norm(f, 2))


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


def _shift_rows(M: np.ndarray, shifts, out: np.ndarray) -> np.ndarray:
    """out[r, k] = M[r, (k + shifts[r]) mod N]: a roll per row, as two slice
    copies into out (not overlapping M)."""
    n = M.shape[1]
    for row, src, k in zip(out, M, (np.asarray(shifts) % n).tolist()):
        row[:n - k] = src[k:]
        row[n - k:] = src[:k]
    return out


def _streamed_check(f: Signal, g: Signal, start: int, lhs: tuple[Signal, Signal],
                    phase: np.ndarray, shifts) -> float:
    """_relative(V_{g'} f' - phase * S(V_g f), V_g f) for the pair
    lhs = (f', g'), in paired row blocks of block_rows(N) rows: V_g f from
    the cyclic start row `start`, the left side from row 0.  S rolls block
    row m left by shifts[m] on the centred columns, or every row by the one
    int shifts; phase broadcasts against the N x N table.

    The phase stays the first operand, as on whole tables: numpy's complex
    multiply can round differently with the operands swapped.  The two
    maxima are kept per block; a maximum does not depend on how the rows
    are split or in which order they come.
    """
    n = f.grid.count
    v0_buf, lhs_buf, rhs_buf = (np.empty((block_rows(n), n), dtype=complex)
                                for _ in range(3))
    phase = np.broadcast_to(phase, (n, n))
    devs, peaks = [], []
    for (lo, v0), (_, dev) in zip(_stft_rows(f, g, v0_buf, start),
                                  _stft_rows(*lhs, lhs_buf)):
        hi = lo + len(v0)
        rhs = rhs_buf[:len(v0)]
        if np.ndim(shifts):
            _shift_rows(v0, shifts[lo:hi], rhs)
        else:  # one roll for every row: two block copies, not a copy per row
            k = shifts % n
            rhs[:, :n - k] = v0[:, k:]
            rhs[:, n - k:] = v0[:, :k]
        dev -= np.multiply(phase[lo:hi], rhs, out=rhs)
        devs.append(np.max(np.abs(dev)))
        peaks.append(np.max(np.abs(v0)))
    return _relative(devs, peaks)


def chirp_stft_covariance_check(f: Signal, g: Signal, s: float) -> float:
    """Relative deviation in V_{C_s g}(C_s f)(x, w) = e^{-i pi s x^2} V_g f(x, w - s x).

    Requires the shear to be lattice-aligned: s*dt and s*t0 must be
    multiples of the frequency step 1/(N dt).  Both STFTs are read in
    paired row blocks, so no N x N table is made.
    """
    grid = f.grid
    w_grid = spectrum_grid(fourier_params(), grid)
    shear_step = w_grid.steps_of(s * grid.step, "misaligned shear: s*dt "
                                 "must be a multiple of the frequency step")
    shear_base = w_grid.steps_of(s * grid.start, "misaligned shear: s*t0 "
                                 "must be a multiple of the frequency step")
    x = grid.nodes()
    # row m of the right side is row m of V0 rolled by shear_base + m * shear_step
    return _streamed_check(f, g, 0, (chirp(f, s), chirp(g, s)),
                           np.exp(-1j * np.pi * s * x * x)[:, None],
                           -(shear_base + np.arange(grid.count) * shear_step))


def a_covariance_check(params: SaftParams, f: Signal, g: Signal,
                       xi: float, eta: float) -> float:
    """Relative deviation in the twisted time-frequency covariance law

    V_g(T^A_xi M^A_eta f)(x, w)
        = rho(-eta) e^{-2 pi i xi w} V_g f(x - xi, w + (a xi - eta)/b).

    xi must be grid-aligned and (a xi - eta)/b must sit on the frequency
    lattice; misalignment is rejected with the required alignment reported.
    V_g f is read in row blocks from the cyclic start row -xi/dt, paired
    with the left side's blocks from row 0, so no N x N table is made.
    """
    grid = f.grid
    m_shift = grid.steps_of(xi, "xi must be a multiple of the grid step")
    w_grid = spectrum_grid(fourier_params(), grid)
    w_shift = (params.a * xi - eta) / params.b
    k_shift = w_grid.steps_of(w_shift, f"(a*xi - eta)/b = {w_shift} must "
                              "be a multiple of the frequency step")
    shifted = a_translate(a_modulate(f, params, eta), params, xi)
    phase = pre_chirp(params, -eta) * np.exp(-2j * np.pi * xi * w_grid.nodes())[None, :]
    return _streamed_check(f, g, -m_shift % grid.count, (shifted, g), phase, k_shift)


def _identity_matrix(params: SaftParams, grid: Grid) -> tuple[int, int, int, int]:
    """The integer (a, b, c, d) of the transform-domain STFT identity, after
    checking that the map carries the lattice of grid into itself."""
    ints = [params.a, params.b, params.c, params.d]
    if not all(near_integer(v) for v in ints):
        raise InputError("identity check needs integer matrix parameters")
    ai, bi, ci, di = (int(round(v)) for v in ints)
    if abs(bi) != 1:
        raise InputError("identity check needs |b| = 1")
    n = grid.count
    if not grid.same_as(centered_grid(np.sqrt(n * abs(params.b)) / 2.0, n)):
        raise InputError("identity check needs a self-dual centred grid: "
                         "N dt^2 = |b| and t0 = -N dt / 2")
    return ai, bi, ci, di


def _transformed_pair(params: SaftParams, f: Signal, g: Signal) -> tuple[Signal, Signal]:
    """(Ff, Fg) as cyclic signals on the induced frequency grid."""
    F = saft(params, f)
    G = saft(params, g)
    return (Signal(F.freq_grid, F.samples, "cyclic"),
            Signal(G.freq_grid, G.samples, "cyclic"))


def saft_stft_identity_max(param_sets, f: Signal, g: Signal) -> float:
    """Largest relative magnitude deviation, over the integer sets in
    param_sets, in the transform-domain STFT identity

    |V_{Fg}(Ff)(x, w)| = |V_g f(d x - b w, a w - c x)|.

    Needs integer a, b, c, d with |b| = 1 and a self-dual centred grid
    (N dt^2 = |b|, t0 = -N dt / 2, tested with Grid.same_as) so the map
    carries the lattice into itself; incompatible inputs are rejected.
    |V_g f| is the one real N x N table, made once in row blocks and
    shared by every set.  Each row block of V_{Fg}(Ff) gathers its right
    side from it by the index rule, row d i - b j and column a j - c i
    mod N on centred indices i, j.  The check keeps maxima only.
    """
    mats = [_identity_matrix(p, f.grid) for p in param_sets]
    n = f.grid.count
    rows = block_rows(n)
    buf = np.empty((rows, n), dtype=complex)
    V0 = np.empty((n, n))
    for lo, block in _stft_rows(f, g, buf):
        np.abs(block, out=V0[lo:lo + len(block)])
    peak = np.max(V0)
    i, j = np.arange(n)[:, None] - n // 2, np.arange(n) - n // 2
    mag, mapped = np.empty((rows, n)), np.empty((rows, n))
    out = []
    for params, (ai, bi, ci, di) in zip(param_sets, mats):
        devs = []
        for lo, block in _stft_rows(*_transformed_pair(params, f, g), buf):
            hi = lo + len(block)
            idx = np.ravel_multi_index((di * i[lo:hi] - bi * j + n // 2,
                                        ai * j - ci * i[lo:hi] + n // 2),
                                       (n, n), mode="wrap")
            dev = np.abs(block, out=mag[:hi - lo])
            dev -= np.take(V0, idx, out=mapped[:hi - lo])
            devs.append(np.max(np.abs(dev, out=dev)))
        out.append(_relative(devs, peak))
    return max(out)


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


def _check_twisted_norm_inputs(f: Signal, g: Signal, r: float, s: float):
    """_check_norm_inputs, and cyclic mode: the twisted norms are cyclic
    convolutions, which would wrap a compact-mode signal without a word."""
    _check_norm_inputs(f, g, r, s)
    if f.mode != "cyclic":
        raise InputError("the twisted modulation norm is a cyclic convolution; "
                         "f and g must be in cyclic mode, not compact")


def _mixed_norm(inner: np.ndarray, dw: float, r: float, s: float) -> float:
    """(dw * sum_w inner(w)^(s/r))^(1/s), from the per-frequency sums
    inner(w) = int |.|^r m^r dx; rejects a norm outside the float range."""
    norm = float((dw * np.sum(inner ** (s / r))) ** (1.0 / s))
    if not np.isfinite(norm):
        raise InputError(f"the modulation norm with r = {r:g}, s = {s:g} is not "
                         f"finite in floating point: {norm!r}")
    return norm


def _mod_norms(f: Signal, g: Signal, r: float, s: float, weights) -> list[float]:
    """mod_norm(f, g, r, s, m) for every weight m in weights, from one
    stream of STFT row blocks.

    |V| is taken once per block; each weight keeps its own per-frequency
    sums over x.  Each block adds the running sums into its first row before
    it sums its columns, so every column is summed down the rows in order,
    as the whole table's sum over x is, and the bits do not depend on the
    split.
    """
    _check_norm_inputs(f, g, r, s)
    grid = f.grid
    n = grid.count
    x = grid.nodes()[:, None]
    w = spectrum_grid(fourier_params(), grid).nodes()[None, :]
    rows = block_rows(n)
    buf, vabs, mag = (np.empty((rows, n), dtype=complex), np.empty((rows, n)),
                      np.empty((rows, n)))
    accs = [np.zeros(n) for _ in weights]
    for lo, block in _stft_rows(f, window_flip(g), buf):
        hi = lo + len(block)
        v = np.abs(block, out=vabs[:hi - lo])
        for k, m in enumerate(weights):
            term = np.multiply(v, weight_eval(m, x[lo:hi], w), out=mag[:hi - lo])
            term **= r
            term[0] += accs[k]
            accs[k] = np.sum(term, axis=0)
    return [_mixed_norm(grid.step * acc, 1.0 / grid.span, r, s) for acc in accs]


def mod_norm(f: Signal, g: Signal, r: float, s: float, m: WeightSpec) -> float:
    """Mixed-norm modulation quantity over the full lattice.

    (int (int |f * M_w g(x)|^r m(x,w)^r dx)^{s/r} dw)^{1/s}, computed as the
    STFT against the flipped window.  STFT row blocks are reduced as they
    are made into per-frequency sums over x (see _mod_norms), so memory
    stays bounded at any N.
    """
    return _mod_norms(f, g, r, s, (m,))[0]


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
    Both paths run blocks of block_rows(N) rows, the Parseval one at least
    two, so memory stays bounded at any N; the general path runs them through one complex and one real
    buffer, in place.  Each row's sum is along the row, so it does not
    depend on the split.  f and g must be in cyclic mode.
    """
    _check_twisted_norm_inputs(f, g, r, s)
    grid = f.grid
    n = grid.count
    k0 = grid.steps_of(grid.start, "cyclic convolution needs the grid origin "
                       "on the step lattice")
    x = grid.nodes()
    omegas = natural_freqs(params, grid)
    qc = quad_chirp(params, x)
    U = np.fft.fft(qc * f.samples)
    G = np.fft.fft(qc * g.samples)
    parseval = r == 2 and m.ell == 0
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
    rows = block_rows(n)
    if parseval:  # numpy takes a one-row matvec as a dot product, which rounds
        rows = max(2, rows)  # differently, so no block has one row
    else:
        buf, mag = np.empty((rows, n), dtype=complex), np.empty((rows, n))
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        if parseval:
            lo = min(lo, max(hi - 2, 0))  # a lone last row starts a row earlier
            inner[lo:hi] = windows[top - lo:top - hi:-1] @ U
            continue
        block = np.multiply(windows[top - lo:top - hi:-1], U, out=buf[:hi - lo])
        np.fft.ifft(block, axis=1, out=block)
        conv = np.abs(block, out=mag[:hi - lo])
        conv *= weight_eval(m, xj, omegas[lo:hi, None])
        conv **= r
        inner[lo:hi] = np.sum(conv, axis=1)
    inner *= grid.step * scale ** r
    return _mixed_norm(inner, abs(params.b) * (1.0 / grid.span), r, s)


def a_mod_norm_oracle(params: SaftParams, f: Signal, g: Signal,
                      r: float, s: float, m: WeightSpec) -> float:
    """Twisted modulation norm straight from its definition.

    One cyclic twisted convolution per frequency on the induced grid
    w = b * xi, through aconv_fast and a_modulate; the weight is evaluated
    on that twisted-side lattice.  The reference for a_mod_norm; f and g
    must be in cyclic mode.
    """
    _check_twisted_norm_inputs(f, g, r, s)
    grid = f.grid
    x = grid.nodes()
    omegas = natural_freqs(params, grid)
    inner = np.empty(grid.count)
    for j, w in enumerate(omegas):
        conv = aconv_fast(params, f, a_modulate(g, params, w), "cyclic")
        wgt = weight_eval(m, x, w)
        inner[j] = grid.step * np.sum((np.abs(conv.samples) * wgt) ** r)
    return _mixed_norm(inner, abs(params.b) * (1.0 / grid.span), r, s)


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
