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
# Weights for modulation-space norms: the polynomial weight v_ell read through
# a linear change of time-frequency variables.  A closed form (not arbitrary
# callables) keeps norms reproducible and serializable.

@dataclass(frozen=True)
class WeightSpec:
    """The positive weight (1 + u^2 + v^2)^(ell/2) at (u, v) = M (x, w).

    m holds the 2x2 matrix M row by row, (m00, m01, m10, m11).  M = I is the
    radial weight v_ell; M = A^{-1} = ((d, -b), (-c, a)) transports it
    through the phase-space map, giving
    (1 + (c^2+d^2) x^2 + (a^2+b^2) w^2 - 2(ac+bd) x w)^(ell/2).  Reading a
    weight at (x, b w) or (x, w - s x) right-multiplies M by diag(1, b) or
    ((1, 0), (-s, 1)).
    """

    ell: float = 0.0
    m: tuple[float, float, float, float] = (1.0, 0.0, 0.0, 1.0)

    def __post_init__(self):
        if not self.ell >= 0:
            raise InputError("weight exponent must be >= 0")
        if len(self.m) != 4 or not all(math.isfinite(v) for v in self.m):
            raise InputError(f"weight matrix needs four finite entries: {self.m!r}")


def unit_weight() -> WeightSpec:
    return WeightSpec()


def radial_weight(ell: float) -> WeightSpec:
    return WeightSpec(float(ell))


def transported_weight(ell: float, params: SaftParams) -> WeightSpec:
    return WeightSpec(float(ell), (params.d, -params.b, -params.c, params.a))


def freq_scaled_weight(inner: WeightSpec, b: float) -> WeightSpec:
    m00, m01, m10, m11 = inner.m
    return WeightSpec(inner.ell, (m00, m01 * b, m10, m11 * b))


def weight_eval(w: WeightSpec, x, omega):
    """Evaluate the weight at (x, omega); accepts scalars or broadcastable arrays.

    A product with a zero matrix entry is skipped, so a row of M with one
    nonzero entry keeps the shape of x or omega.  Every weight with ell = 0
    comes back as a read-only broadcast view of 1.0.
    """
    x = np.asarray(x, dtype=float)
    om = np.asarray(omega, dtype=float)
    if w.ell == 0:
        return np.broadcast_to(1.0, np.broadcast(x, om).shape)
    quad = 1.0
    for p, q in (w.m[:2], w.m[2:]):
        if p == 0.0:
            u = q * om
        elif q == 0.0:
            u = p * x
        else:
            u = p * x + q * om
        quad = quad + u * u
    return quad ** (w.ell / 2.0)
