"""Uniform grids, sampled signals, transform spectra, and quadrature norms.

Discretization convention: plain Riemann-sum quadrature with uniform weight
`step`, no end corrections.  That choice keeps the discrete identities
(Plancherel, convolution theorem) exact; the distance to the continuum is
O(step) and is covered by convergence-order checks instead.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .params import InputError, SaftParams

MODES = ("compact", "cyclic")


def near_integer(m: float) -> bool:
    """|m - round(m)| <= 1e-9 * max(1, |m|): the one lattice-alignment rule,
    for steps on a grid, chirp cycles per window and integer matrix entries."""
    return abs(m - round(m)) <= 1e-9 * max(1.0, abs(m))


@dataclass(frozen=True)
class Grid:
    """Uniform grid t_n = start + n*step for 0 <= n < count."""

    start: float
    step: float
    count: int

    def __post_init__(self):
        if not (math.isfinite(self.start) and math.isfinite(self.step)):
            raise InputError(f"grid start and step must be finite, got "
                             f"{self.start!r} and {self.step!r}")
        if not (self.step > 0):
            raise InputError("grid step must be positive")
        if self.count < 2:
            raise InputError("grid needs at least two nodes")

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

        Accepts m = x / step when near_integer(m) and otherwise raises an
        InputError that opens with `what`, which should name the quantity
        and the step it must be a multiple of.
        """
        m = x / self.step
        k = int(round(m))
        if not near_integer(m):
            raise InputError(f"{what} (off by {m - k:+.3g} of the step {self.step!r})")
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
            raise InputError(f"position {t} lies outside the grid")
        return k


def centered_grid(half_width: float, count: int) -> Grid:
    """Grid covering [-half_width, half_width) with the given node count."""
    if count < 2:  # checked here, before dividing by count
        raise InputError("grid needs at least two nodes")
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
            raise InputError(f"mode must be one of {MODES}")
        arr = np.asarray(self.samples, dtype=complex)
        if arr.shape != (self.grid.count,):
            raise InputError("sample count must match the grid")
        object.__setattr__(self, "samples", arr)

    def with_samples(self, samples: np.ndarray) -> "Signal":
        return Signal(self.grid, samples, self.mode)


@dataclass(frozen=True)
class Spectrum:
    """SAFT values on the induced frequency grid w_k = b * xi_k.

    xi_k = (k - floor(N/2)) / (N*step) are the DFT frequencies of the source
    time grid; for b < 0 the w grid is re-sorted ascending (and the samples
    permuted with it), so freq_grid.step = |b| / (N*step) always.

    time_start is the origin of that source time grid, when known.  Its
    step and count follow from freq_grid and b, so with the origin an
    inverse can put the signal back on the grid it came from.
    """

    params: SaftParams
    freq_grid: Grid
    samples: np.ndarray = field(repr=False)
    time_start: float | None = None

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=complex)
        if arr.shape != (self.freq_grid.count,):
            raise InputError("sample count must match the frequency grid")
        object.__setattr__(self, "samples", arr)


def sample(fn, grid: Grid, mode: str = "compact") -> Signal:
    """Sample a pointwise function on the grid; rejects non-finite values."""
    t = grid.nodes()
    vals = np.asarray(fn(t), dtype=complex)
    if vals.shape != t.shape:
        vals = np.array([fn(x) for x in t], dtype=complex)
    if not np.all(np.isfinite(vals)):
        raise InputError("sampled values must be finite")
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


def raised_cosine(grid: Grid, half: float) -> np.ndarray:
    """0.5 (1 + cos(pi t / half)) for |t| < half about the window centre, else 0."""
    t = grid.nodes() - (grid.start + grid.span / 2.0)
    return np.where(np.abs(t) < half, 0.5 * (1.0 + np.cos(np.pi * t / half)), 0.0)


def _quadrature_norm(samples: np.ndarray, step: float, r: float) -> float:
    """(step * sum |samples|^r)^(1/r); r = inf gives max |samples|.  Rejects
    a norm outside the float range: one that is not finite, or zero for
    nonzero samples."""
    if not r >= 1:  # also rejects NaN
        raise InputError("norm exponent must satisfy r >= 1")
    mag = np.abs(samples)
    if np.isinf(r):
        return float(mag.max(initial=0.0))
    norm = float((step * np.sum(mag ** r)) ** (1.0 / r))
    if not np.isfinite(norm) or (norm == 0.0 and np.any(mag)):
        raise InputError(f"the L^{r:g} norm of the samples is {norm!r}, "
                         "outside the float range")
    return norm


def lr_norm(f: Signal, r: float) -> float:
    """Quadrature L^r norm (step * sum |f|^r)^(1/r); r = inf gives max |f|."""
    return _quadrature_norm(f.samples, f.grid.step, r)


def spectrum_norm(F: Spectrum, r: float) -> float:
    """Quadrature L^r norm of a spectrum with the frequency step as weight."""
    return _quadrature_norm(F.samples, F.freq_grid.step, r)


def inner_product(f: Signal, g: Signal) -> complex:
    """Quadrature pairing step * sum f conj(g)."""
    _require_same_grid(f, g)
    return complex(f.grid.step * np.sum(f.samples * np.conj(g.samples)))


def tail_mass(f: Signal) -> float:
    """Fraction of the L^1 mass in the outer 5% of the window.

    Diagnostic only: the truncation window is an artifact choice and signals
    with visible tail mass approximate the line poorly.
    """
    n_edge = max(1, int(round(0.05 * f.grid.count / 2)))
    mag = np.abs(f.samples)
    total = mag.sum()
    if total == 0.0:
        return 0.0
    outer = mag[:n_edge].sum() + mag[-n_edge:].sum()
    return float(outer / total)


def _require_same_grid(f: Signal, g: Signal):
    if not f.grid.same_as(g.grid):
        raise InputError("signals must share a grid")
    if f.mode != g.mode:
        raise InputError("signals must share a boundary mode")


# ---------------------------------------------------------------------------
# Serialization.  Signal JSON:
#   {"start": t0, "step": dt, "mode": "compact"|"cyclic", "samples": [[re,im],...]}
# Spectrum JSON embeds the parameter object alongside the same layout, plus
# "time_start", the origin of the source time grid, when the spectrum
# knows it.  CSV alternative: rows "t,re,im" with a uniform t column.
# Every file the package writes goes through save_json or save_columns_csv,
# which hand float64 arrays to orjson whole: each value is written as the
# shortest decimal that reads back to the same double, in compact JSON,
# and non-finite values are refused, since JSON has no token for them.
# The loaders reject non-finite samples and grid values, and raise
# InputError on any file they cannot parse.  orjson is imported inside the
# I/O functions: its import takes milliseconds, which a process that reads
# and writes no file need not pay.

def _pairs(arr: np.ndarray) -> np.ndarray:
    """The C-contiguous (N, 2) float64 array of [re, im] rows; rejects
    non-finite samples."""
    _finite_samples(arr)
    return np.column_stack((arr.real, arr.imag))


def _finite_samples(arr: np.ndarray) -> np.ndarray:
    """arr, once every sample is finite; a sample of a 2-D arr is a row."""
    ok = np.isfinite(arr)
    bad = np.flatnonzero(~(ok.all(axis=1) if arr.ndim == 2 else ok))
    if bad.size:
        raise InputError(f"sample {bad[0]} of {len(arr)} is not finite: {arr[bad[0]]}")
    return arr


def _from_pairs(pairs) -> np.ndarray:
    """Complex samples from [[re, im], ...]; JSON true and false read as 1 and 0."""
    try:
        arr = np.array(pairs)
        if arr.dtype == object and all(isinstance(x, (int, float)) for x in arr.flat):
            arr = arr.astype(float)  # integers past 64 bits, as json reads them
    except OverflowError:
        raise InputError("samples must lie within the float range") from None
    except ValueError:  # ragged, so refused below
        arr = np.array(None)
    if arr.shape == (0,):
        arr = arr.reshape(0, 2)
    if arr.dtype.kind not in "biuf" or arr.ndim != 2 or arr.shape[1] != 2:
        raise InputError("samples must be a list of [re, im] number pairs")
    return _finite_samples(np.ascontiguousarray(arr, dtype=float).view(complex)[:, 0])


def _finite(value, what: str) -> float:
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{what} must be a finite number, got {value!r}") from None
    if not np.isfinite(x):
        raise InputError(f"{what} must be a finite number, got {x}")
    return x


def _require_keys(obj, keys, what: str):
    if not isinstance(obj, dict):
        raise InputError(f"{what} must be a JSON object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise InputError(f"{what} lacks {', '.join(map(repr, missing))}")


def signal_to_dict(f: Signal) -> dict:
    return {"start": f.grid.start, "step": f.grid.step, "mode": f.mode,
            "samples": _pairs(f.samples)}


def signal_from_dict(obj: dict) -> Signal:
    _require_keys(obj, ("start", "step", "samples"), "signal JSON")
    samples = _from_pairs(obj["samples"])
    grid = Grid(_finite(obj["start"], "start"), _finite(obj["step"], "step"),
                len(samples))
    return Signal(grid, samples, obj.get("mode", "compact"))


def spectrum_to_dict(F: Spectrum) -> dict:
    obj = {"params": F.params.as_dict(), "start": F.freq_grid.start,
           "step": F.freq_grid.step, "samples": _pairs(F.samples)}
    if F.time_start is not None:
        obj["time_start"] = F.time_start
    return obj


def spectrum_from_dict(obj: dict) -> Spectrum:
    _require_keys(obj, ("params", "start", "step", "samples"), "spectrum JSON")
    raw = obj["params"]
    _require_keys(raw, ("a", "b", "c", "d"), "spectrum params")
    params = SaftParams(*(_finite(raw.get(k, 0.0), f"params {k}") for k in "abcdpq"))
    samples = _from_pairs(obj["samples"])
    grid = Grid(_finite(obj["start"], "start"), _finite(obj["step"], "step"),
                len(samples))
    t0 = _finite(obj["time_start"], "time_start") if "time_start" in obj else None
    return Spectrum(params, grid, samples, t0)


def save_json(obj, path: str):
    """Write obj as compact JSON; numpy arrays nest as lists, every float as
    the shortest decimal that reads back to the same double."""
    import orjson

    data = orjson.dumps(obj, option=orjson.OPT_SERIALIZE_NUMPY)
    with open(path, "wb") as fh:
        fh.write(data)


def save_columns_csv(path: str, header, columns):
    """CSV with one row per index, each column's float there written as the
    shortest decimal that reads back to the same double, "\r\n" line ends.

    Rejects a row holding a non-finite value.  No columns gives the header alone.
    """
    import orjson

    body = b""
    if columns:
        rows = _finite_samples(np.column_stack([np.asarray(c, dtype=float)
                                                for c in columns]))
        if len(rows):
            text = orjson.dumps(rows, option=orjson.OPT_SERIALIZE_NUMPY)
            body = text[2:-2].replace(b"],[", b"\r\n") + b"\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        fh.write(body.decode("ascii"))


def save_signal(f: Signal, path: str):
    save_json(signal_to_dict(f), path)


def _load_json(path: str):
    import orjson

    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError:
        pass
    # json reads the NaN and Infinity tokens that older files hold, and its
    # messages name what neither parser accepts
    try:
        return json.loads(data.decode("utf-8"))
    except ValueError as exc:  # not JSON, or not UTF-8
        raise InputError(str(exc)) from None


def load_signal(path: str) -> Signal:
    return signal_from_dict(_load_json(path))


def save_spectrum(F: Spectrum, path: str):
    save_json(spectrum_to_dict(F), path)


def load_spectrum(path: str) -> Spectrum:
    return spectrum_from_dict(_load_json(path))


def save_signal_csv(f: Signal, path: str):
    save_columns_csv(path, ["t", "re", "im"],
                     [f.grid.nodes(), f.samples.real, f.samples.imag])


# The bytes a CSV body may hold for the one-pass loader: digits, signs,
# points, exponents, the letters of nan, inf and infinity, commas, blanks and
# line ends.  Within them csv.reader splits rows and cells only at commas and
# line ends, and np.loadtxt reads a cell to the double float() gives or
# refuses the file (it refuses a lone carriage return, an empty cell and a
# change in the column count).
_CSV_FAST_BYTES = b"0123456789+-.eE,nNaAiIfFtTyY \t\r\n"


def _csv_columns_fast(data: bytes):
    """(t, samples) of a CSV file's bytes by one np.loadtxt pass, or None.

    Taken only when the first line is a t header without quotes or NULs and
    the rest holds only _CSV_FAST_BYTES with no cell longer than csv's
    field limit; None on any other file and on any failure, so the caller
    falls back to _csv_columns.
    """
    cut = min((i for i in (data.find(b"\r"), data.find(b"\n")) if i >= 0),
              default=len(data))
    head, body = data[:cut], data[cut:]
    if (not head.isascii() or b'"' in head or b"\0" in head
            or head.split(b",")[0].strip().lower() != b"t"
            or body.translate(None, _CSV_FAST_BYTES)):
        return None
    raw = np.frombuffer(body, dtype=np.uint8)
    cuts = np.flatnonzero((raw == ord(",")) | (raw == ord("\r")) | (raw == ord("\n")))
    if np.max(np.diff(cuts, prepend=-1, append=len(raw))) > csv.field_size_limit():
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty body warns
            table = np.loadtxt(io.StringIO(body.decode("ascii")), delimiter=",",
                               comments=None, ndmin=2)
    except (ValueError, Warning):
        return None
    if table.shape[1] < 3:
        return None
    return table[:, 0].copy(), np.ascontiguousarray(table[:, 1:3]).view(complex)[:, 0]


def _csv_columns(path: str):
    """(t, samples) of a CSV file by csv.reader and float(), row by row."""
    ts, vals = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            for row in csv.reader(fh):
                if not row or row[0].strip().lower() in ("t", ""):
                    continue
                if len(row) < 3:
                    raise InputError(f"CSV row {row!r} needs three columns t,re,im")
                ts.append(float(row[0]))
                vals.append(complex(float(row[1]), float(row[2])))
        except InputError:
            raise
        except (ValueError, csv.Error) as exc:  # a non-number, not UTF-8, a NUL
            raise InputError(str(exc)) from None
    return np.asarray(ts), np.asarray(vals, dtype=complex)


def load_signal_csv(path: str) -> Signal:
    """The compact signal of a t,re,im CSV whose time column is uniform.

    A file that starts with the t header is read by one np.loadtxt pass
    where that reads it as the row parser would; any other file, and any
    file that pass refuses, goes through the row parser.
    """
    with open(path, "rb") as fh:
        columns = _csv_columns_fast(fh.read())
    t, samples = columns if columns is not None else _csv_columns(path)
    if len(t) < 2:
        raise InputError("CSV needs at least two samples")
    if not np.all(np.isfinite(t)):
        raise InputError("CSV time column must be finite")
    steps = np.diff(t)
    step = float(steps[0])
    # 1e-9 relative on the step, plus the rounding that start + n * step
    # leaves in each stored position (at most 1.5 eps max|t|, so at most
    # 6 eps max|t| between two steps)
    tol = 1e-9 * abs(step) + 8.0 * np.finfo(float).eps * np.max(np.abs(t))
    if not np.all(np.abs(steps - step) <= tol):
        raise InputError("CSV time column must be uniform")
    return Signal(Grid(float(t[0]), step, len(t)), _finite_samples(samples))
