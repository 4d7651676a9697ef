"""Input generation and independent reference computations.

Everything here is written from the definitions, with numpy and the
standard library only: the benchmark checks saftkit's outputs against these
computations or against properties the method must have, never against
saved output.
"""

from __future__ import annotations

import csv
import json

import numpy as np


class Incorrect(Exception):
    """A program output disagrees with its reference or required property."""


def expect(condition: bool, what: str):
    if not condition:
        raise Incorrect(what)


def require(what: str, observed: float, tol: float):
    if not (np.isfinite(observed) and observed <= tol):
        raise Incorrect(f"{what}: observed {observed:.3e} > tol {tol:.1e}")


def relerr(x, y) -> float:
    """max |x - y| / max |y|."""
    x = np.asarray(x)
    y = np.asarray(y)
    return float(np.max(np.abs(x - y)) / np.max(np.abs(y)))


# ---------------------------------------------------------------------------
# Seeded inputs.

def draw_matrix(rng) -> tuple:
    """Unimodular (a, b, c, d, p, q) with b = +-2^k, k in {-1, 0, 1}.

    A power-of-two |b| keeps the number of dyadic levels on a grid
    independent of the draw, so per-round call counts do not depend on the
    seed.
    """
    b = float(rng.choice((-1.0, 1.0)) * 2.0 ** int(rng.integers(-1, 2)))
    a = float(rng.uniform(-2.0, 2.0))
    d = float(rng.uniform(-2.0, 2.0))
    c = (a * d - 1.0) / b
    p = float(rng.uniform(-0.5, 0.5))
    q = float(rng.uniform(-0.5, 0.5))
    return a, b, c, d, p, q


def params_text(abcdpq) -> str:
    """The CLI's a,b,c,d,p,q form, exact through repr."""
    return ",".join(repr(v) for v in abcdpq)


def draw_signal(rng, t: np.ndarray, span: float) -> np.ndarray:
    """Three modulated Gaussian bumps inside the window plus weak white noise,
    so that every dyadic block carries energy."""
    lo, hi = float(t[0]), float(t[0]) + span
    out = np.zeros(t.shape, dtype=complex)
    for _ in range(3):
        mu = rng.uniform(lo + 0.3 * span, hi - 0.3 * span)
        width = rng.uniform(0.03, 0.08) * span
        nu = rng.uniform(-3.0, 3.0)
        amp = rng.standard_normal() + 1j * rng.standard_normal()
        out += amp * np.exp(-np.pi * ((t - mu) / width) ** 2 + 2j * np.pi * nu * t)
    out += 1e-2 * (rng.standard_normal(t.size) + 1j * rng.standard_normal(t.size))
    return out


# ---------------------------------------------------------------------------
# Independent computations.

def l2sq(vals, step: float) -> float:
    return float(step * np.sum(np.abs(vals) ** 2))


def sorted_frequencies(b: float, n: int, dt: float) -> np.ndarray:
    """The induced frequency grid b * (k - floor(n/2)) / (n dt), ascending."""
    return np.sort(b * (np.arange(n) - n // 2) / (n * dt))


def riemann_bins(abcdpq, t: np.ndarray, dt: float, f: np.ndarray,
                 w: np.ndarray) -> np.ndarray:
    """Direct Riemann sum of the defining integral at the frequencies w:

    dt / sqrt|b| * sum_n f(t_n) exp(i pi/b (a t^2 + 2 p t - 2 w t
                                           + 2 (bq - dp) w + d w^2)).
    """
    a, b, _, d, p, q = abcdpq
    omega0 = b * q - d * p
    phase = (a * t[None, :] ** 2 + 2.0 * p * t[None, :]
             - 2.0 * w[:, None] * t[None, :]
             + 2.0 * omega0 * w[:, None] + d * w[:, None] ** 2)
    return dt / np.sqrt(abs(b)) * np.sum(f[None, :] * np.exp(1j * np.pi / b * phase),
                                         axis=1)


def read_signal_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    obj["values"] = _complex(obj.pop("samples"))
    return obj


def read_tf_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    obj["values"] = _complex(obj.pop("values"))
    return obj


def read_signal_csv(path: str) -> tuple:
    """(t, values) from rows t,re,im under a header row."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    arr = np.array(rows, dtype=float)
    return arr[:, 0], arr[:, 1] + 1j * arr[:, 2]


def write_signal_json(path: str, start: float, step: float, values, mode: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"start": start, "step": step, "mode": mode,
                   "samples": [[v.real, v.imag] for v in values.tolist()]}, fh)


def write_signal_csv(path: str, t, values):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(["t", "re", "im"])
        for x, v in zip(t.tolist(), values.tolist()):
            out.writerow([repr(x), repr(v.real), repr(v.imag)])


def _complex(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    return arr[:, 0] + 1j * arr[:, 1]
