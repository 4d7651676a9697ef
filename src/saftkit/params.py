"""Parameter sets for the special affine Fourier transform (SAFT).

A parameter set is six reals {a, b, c, d, p, q} with ad - bc = 1 and b != 0.
The first four form a unimodular phase-space matrix, (p, q) is the affine
offset.  The set owns three unit-modulus quadratic phase functions that
factor the SAFT through the classical Fourier transform, plus the weight
families used by modulation-space norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DET_TOL = 1e-12


class InputError(ValueError):
    """A precondition on caller input failed: a bad value, grid or file.

    Every check in the package raises this; a ValueError of any other kind
    is a fault of the program.
    """


@dataclass(frozen=True)
class SaftParams:
    """Validated SAFT parameter set with the derived offset omega0 = b*q - d*p."""

    a: float
    b: float
    c: float
    d: float
    p: float = 0.0
    q: float = 0.0

    def __post_init__(self):
        values = (self.a, self.b, self.c, self.d, self.p, self.q)
        if not all(math.isfinite(v) for v in values):
            raise InputError(f"SAFT parameters must be finite: {values!r}")
        if self.b == 0.0:
            raise InputError("SAFT requires b != 0")
        det = self.a * self.d - self.b * self.c
        if abs(det - 1.0) > DET_TOL:
            raise InputError(f"parameter matrix must be unimodular: ad-bc = {det!r}")

    @property
    def omega0(self) -> float:
        return self.b * self.q - self.d * self.p

    def as_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c, "d": self.d,
                "p": self.p, "q": self.q}


def make_params(a: float, b: float, c: float, d: float,
                p: float = 0.0, q: float = 0.0) -> SaftParams:
    """Build a validated parameter set; rejects non-finite entries, b = 0 and
    ad-bc != 1."""
    return SaftParams(float(a), float(b), float(c), float(d), float(p), float(q))


def fourier_params() -> SaftParams:
    """The classical Fourier transform: {0, 1, -1, 0, 0, 0}."""
    return SaftParams(0.0, 1.0, -1.0, 0.0)


def frft_params(theta: float) -> SaftParams:
    """Fractional Fourier rotation {cos t, sin t, -sin t, cos t, 0, 0}.

    Rejects angles with sin(theta) = 0, where the transform degenerates.
    """
    s = math.sin(theta)
    if abs(s) < 1e-12:
        raise InputError("fractional angle must have sin(theta) != 0")
    cth = math.cos(theta)
    # nudge the determinant to exact 1 against rounding in cos/sin
    det = cth * cth + s * s
    return SaftParams(cth, s, -s / det, cth / det)


def fresnel_params(b: float) -> SaftParams:
    """Fresnel parameters {1, b, 0, 1, 0, 0}; rejects b = 0."""
    if b == 0.0:
        raise InputError("Fresnel parameter b must be nonzero")
    return SaftParams(1.0, float(b), 0.0, 1.0)


def lct_params(a: float, b: float, c: float, d: float) -> SaftParams:
    """Linear canonical transform: a SAFT with zero offset (p = q = 0)."""
    return make_params(a, b, c, d, 0.0, 0.0)


def special_params(kind: str, *args: float) -> SaftParams:
    """Named parameter families: fourier, frft(theta), fresnel(b), lct(a,b,c,d)."""
    if kind == "fourier":
        return fourier_params()
    if kind == "frft":
        return frft_params(*args)
    if kind == "fresnel":
        return fresnel_params(*args)
    if kind == "lct":
        return lct_params(*args)
    raise InputError(f"unknown special parameter kind: {kind!r}")


# ---------------------------------------------------------------------------
# Auxiliary unit-modulus phases.  The transform factors as
#   F(f)(w) = post_chirp(w)/sqrt|b| * FT(pre_chirp * f)(w/b),
# and quad_chirp is the bare quadratic chirp used for conjugation identities.

def pre_chirp(params: SaftParams, t):
    """exp(i*pi/b * (a t^2 + 2 p t)); multiplies the input before the Fourier step."""
    t = np.asarray(t, dtype=float)
    return np.exp(1j * np.pi / params.b * (params.a * t * t + 2.0 * params.p * t))


def post_chirp(params: SaftParams, omega):
    """exp(i*pi/b * (d w^2 + 2 (bq-dp) w)); multiplies the transform output."""
    w = np.asarray(omega, dtype=float)
    return np.exp(1j * np.pi / params.b * (params.d * w * w + 2.0 * params.omega0 * w))


def quad_chirp(params: SaftParams, t):
    """exp(i*pi*a/b * t^2), the quadratic chirp at rate a/b."""
    t = np.asarray(t, dtype=float)
    return np.exp(1j * np.pi * params.a / params.b * t * t)


# ---------------------------------------------------------------------------
# Weight families for modulation-space norms.  A closed enumeration (not
# arbitrary callables) keeps norms reproducible and serializable.

@dataclass(frozen=True)
class WeightSpec:
    """A positive weight on the time-frequency plane.

    kinds:
      unit         -- 1
      radial       -- (1 + x^2 + w^2)^(ell/2)
      transported  -- (1 + (c^2+d^2) x^2 + (a^2+b^2) w^2 - 2(ac+bd) x w)^(ell/2),
                      the radial weight pulled back through the phase-space map
      freq_scaled  -- inner(x, b*w)
      sheared      -- inner(x, w - s*x)
    """

    kind: str
    ell: float = 0.0
    params: SaftParams | None = None
    inner: "WeightSpec | None" = None
    scale: float = 0.0

    def __post_init__(self):
        if self.kind not in ("unit", "radial", "transported", "freq_scaled", "sheared"):
            raise InputError(f"unknown weight kind: {self.kind!r}")
        if self.kind in ("radial", "transported") and not self.ell >= 0:
            raise InputError("weight exponent must be >= 0")
        if self.kind == "transported" and self.params is None:
            raise InputError("transported weight needs a parameter set")
        if self.kind in ("freq_scaled", "sheared") and self.inner is None:
            raise InputError(f"{self.kind} weight needs an inner weight")


def unit_weight() -> WeightSpec:
    return WeightSpec("unit")


def radial_weight(ell: float) -> WeightSpec:
    return WeightSpec("radial", ell=float(ell))


def transported_weight(ell: float, params: SaftParams) -> WeightSpec:
    return WeightSpec("transported", ell=float(ell), params=params)


def freq_scaled_weight(inner: WeightSpec, b: float) -> WeightSpec:
    return WeightSpec("freq_scaled", inner=inner, scale=float(b))


def sheared_weight(inner: WeightSpec, s: float) -> WeightSpec:
    return WeightSpec("sheared", inner=inner, scale=float(s))


def weight_eval(w: WeightSpec, x, omega):
    """Evaluate the weight at (x, omega); accepts scalars or broadcastable arrays.

    The unit weight, and a radial or transported one with ell = 0, comes back
    as a read-only broadcast view of 1.0.
    """
    x = np.asarray(x, dtype=float)
    om = np.asarray(omega, dtype=float)
    if w.kind == "unit" or (w.kind in ("radial", "transported") and w.ell == 0):
        return np.broadcast_to(1.0, np.broadcast(x, om).shape)
    if w.kind == "radial":
        return (1.0 + x * x + om * om) ** (w.ell / 2.0)
    if w.kind == "transported":
        pr = w.params
        quad = ((pr.c * pr.c + pr.d * pr.d) * x * x
                + (pr.a * pr.a + pr.b * pr.b) * om * om
                - 2.0 * (pr.a * pr.c + pr.b * pr.d) * x * om)
        return (1.0 + quad) ** (w.ell / 2.0)
    if w.kind == "freq_scaled":
        return weight_eval(w.inner, x, w.scale * om)
    if w.kind == "sheared":
        return weight_eval(w.inner, x, om - w.scale * x)
    raise AssertionError(w.kind)
