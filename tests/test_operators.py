import numpy as np
import pytest

from saftkit.aconv import aconv_fast
from saftkit.engine import twisted_derivative
from saftkit.families import gaussian_mixture_family
from saftkit.grid import Grid, Signal, centered_grid, lr_norm, sample
from saftkit.multipliers import apply_multiplier, smoothed_sign
from saftkit.operators import (a_modulate, a_translate,
                               a_translate_commute_check,
                               a_translate_compose_check, chirp,
                               involution, modulate, translate)
from saftkit.params import InputError, fourier_params, frft_params, make_params

GENERIC = make_params(1, 2, -2, -3, 0.3, -0.2)


def _mix(grid, seed, mode="cyclic"):
    rng = np.random.default_rng(seed)
    t = grid.nodes()
    vals = sum(np.exp(-((t - c) / w) ** 2) * np.exp(2j * np.pi * nu * t)
               for c, w, nu in zip(rng.uniform(-3, 3, 3),
                                   rng.uniform(0.3, 1.0, 3),
                                   rng.uniform(-1, 1, 3)))
    return Signal(grid, vals / np.max(np.abs(vals)), mode)


def test_translate_by_zero_is_identity():
    f = _mix(centered_grid(8.0, 64), 0)
    assert np.max(np.abs(translate(f, 0.0).samples - f.samples)) == 0.0


def test_cyclic_translate_wraps():
    g = Grid(0.0, 1.0, 4)
    f = Signal(g, np.array([1.0, 2.0, 3.0, 4.0]), "cyclic")
    assert np.allclose(translate(f, 1.0).samples, [4, 1, 2, 3])


def test_compact_translate_zero_fills():
    g = Grid(0.0, 1.0, 4)
    f = Signal(g, np.array([1.0, 2.0, 3.0, 4.0]), "compact")
    assert np.allclose(translate(f, 1.0).samples, [0, 1, 2, 3])
    assert np.allclose(translate(f, -1.0).samples, [2, 3, 4, 0])


def test_offgrid_shift_rejected():
    f = _mix(centered_grid(8.0, 64), 1)
    with pytest.raises(ValueError):
        translate(f, 0.3 * f.grid.step)
    with pytest.raises(ValueError):
        a_translate(f, GENERIC, 0.3 * f.grid.step)


def test_chirp_rate_zero_is_identity():
    f = _mix(centered_grid(8.0, 64), 2)
    assert np.max(np.abs(chirp(f, 0.0).samples - f.samples)) == 0.0


def test_modulation_preserves_magnitude():
    f = _mix(centered_grid(8.0, 64), 3)
    assert np.allclose(np.abs(modulate(f, 1.7).samples), np.abs(f.samples))


def test_involution_cyclic():
    # nodes -4..3; f(-t) maps index j to (-j) mod 8 on this centered grid
    g = centered_grid(4.0, 8)
    f = Signal(g, np.arange(8, dtype=complex), "cyclic")
    assert np.allclose(involution(f).samples, f.samples[[0, 7, 6, 5, 4, 3, 2, 1]])


def test_involution_compact_needs_symmetric_grid():
    g = Grid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        involution(Signal(g, np.arange(4, dtype=complex), "compact"))
    gs = Grid(-1.5, 1.0, 4)
    f = Signal(gs, np.arange(4, dtype=complex), "compact")
    assert np.allclose(involution(f).samples, [3, 2, 1, 0])


def test_involution_compact_symmetry_is_grid_same_as():
    # Grid.same_as the mirror grid: the origin within 1e-9 of the step of -1.5
    near = Grid(-1.5 + 0.8e-9, 1.0, 4)
    f = Signal(near, np.arange(4, dtype=complex), "compact")
    assert np.array_equal(involution(f).samples, [3, 2, 1, 0])
    off = Grid(-1.5 + 1.5e-9, 1.0, 4)
    with pytest.raises(InputError, match="symmetric about 0"):
        involution(Signal(off, np.arange(4, dtype=complex), "compact"))


def test_a_translate_fourier_is_plain_translate():
    f = _mix(centered_grid(8.0, 64), 6)
    s = 5 * f.grid.step
    assert np.max(np.abs(a_translate(f, fourier_params(), s).samples
                         - translate(f, s).samples)) <= 1e-12


def test_a_translate_zero_is_identity():
    f = _mix(centered_grid(8.0, 64), 7)
    assert np.max(np.abs(a_translate(f, GENERIC, 0.0).samples - f.samples)) <= 1e-15


def test_chirp_conjugation_identity():
    # chirp(T^A_s f) = exp(i pi (a/b) s^2) translate(chirp f, s), pointwise
    f = _mix(centered_grid(10.0, 128), 8)
    for p in (frft_params(0.9), GENERIC):
        rate = p.a / p.b
        s = 9 * f.grid.step
        lhs = chirp(a_translate(f, p, s), rate).samples
        rhs = (np.exp(1j * np.pi * rate * s * s)
               * translate(chirp(f, rate), s).samples)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_a_modulate_fourier_is_plain_modulation():
    f = _mix(centered_grid(8.0, 64), 9)
    assert np.max(np.abs(a_modulate(f, fourier_params(), 1.25).samples
                         - modulate(f, 1.25).samples)) <= 1e-12


def test_a_modulate_zero_and_magnitude():
    f = _mix(centered_grid(8.0, 64), 10)
    assert np.max(np.abs(a_modulate(f, GENERIC, 0.0).samples - f.samples)) <= 1e-15
    out = a_modulate(f, GENERIC, 2.5)
    assert np.allclose(np.abs(out.samples), np.abs(f.samples))


def test_compose_check_fourier_deviation_zero():
    f = _mix(centered_grid(8.0, 64), 11)
    s = f.grid.step
    assert a_translate_compose_check(fourier_params(), 3 * s, 5 * s, f) <= 1e-15
    assert np.exp(-2j * np.pi * 0.0) == 1.0


def test_compose_phase_factor_half_shifts():
    # (a, b) = (1, 1), x = y = 1/2: factor exp(-2 pi i * 1/4) = -i
    p = make_params(1, 1, 0, 1, 0, 0)
    factor = np.exp(-2j * np.pi * p.a / p.b * 0.5 * 0.5)
    assert factor == pytest.approx(-1j)
    g = Grid(-4.0, 0.25, 32)
    f = _mix(g, 12)
    assert a_translate_compose_check(p, 0.5, 0.5, f) <= 1e-12


def test_compose_check_random_params():
    g = centered_grid(10.0, 128)
    f = _mix(g, 13)
    rng = np.random.default_rng(14)
    for _ in range(5):
        a, b = rng.uniform(-2, 2), rng.uniform(0.5, 3)
        c = rng.uniform(-2, 2)
        d = (1 + b * c) / a if abs(a) > 0.3 else 1.0
        if abs(a) <= 0.3:
            a, c = 0.0, -1.0 / b
        p = make_params(a, b, c, d, rng.uniform(-1, 1), rng.uniform(-1, 1))
        x, y = 7 * g.step, -12 * g.step
        assert a_translate_compose_check(p, x, y, f) <= 1e-12


def test_phase_operators_preserve_norms():
    f = _mix(centered_grid(8.0, 128), 15)
    ops = [lambda h: modulate(h, 0.7), lambda h: chirp(h, 1.3),
           lambda h: a_modulate(h, GENERIC, 1.1),
           lambda h: a_translate(h, GENERIC, 4 * h.grid.step)]
    for op in ops:
        for r in (1.0, 2.0, np.inf):
            assert abs(lr_norm(op(f), r) - lr_norm(f, r)) <= 1e-12


def test_compact_translate_nonexpansive():
    f = _mix(centered_grid(8.0, 128), 16, mode="compact")
    for r in (1.0, 2.0):
        assert lr_norm(translate(f, 10 * f.grid.step), r) <= lr_norm(f, r) + 1e-12


def test_translation_strong_continuity_trend():
    # || T^A_dt f - f ||_r shrinks as the grid refines (h = dt(N))
    errs = []
    for n in (256, 512, 1024):
        g = centered_grid(8.0, n)
        f = sample(lambda t: np.exp(-t * t) * (1 + 0.3 * np.sin(t)), g, "cyclic")
        shifted = a_translate(f, GENERIC, g.step)
        errs.append(lr_norm(f.with_samples(shifted.samples - f.samples), 2))
    assert errs[0] > errs[1] > errs[2]


@pytest.mark.parametrize("p", (fourier_params(), frft_params(np.pi / 4), GENERIC),
                         ids=("fourier", "frft", "generic"))
def test_commute_check_separates_a_convolutions_from_other_operators(p):
    """Rounding-level for operators that commute with twisted translation,
    O(1) for twisted modulation and for multiplication by t."""
    grid = centered_grid(10.0, 256)
    u, f = gaussian_mixture_family(grid, 2, 91)
    x = 3 * grid.step
    top = lr_norm(f, np.inf)

    def dev(op):
        return a_translate_commute_check(p, op, x, f)

    assert dev(lambda h: aconv_fast(p, u, h, "cyclic")) <= 1e-13 * lr_norm(u, 1) * top
    assert dev(lambda h: twisted_derivative(p, h, "spectral")) <= 1e-11 * top
    assert dev(lambda h: apply_multiplier(p, smoothed_sign(1.0), h)) <= 1e-12 * top
    assert dev(lambda h: a_modulate(h, p, 0.5)) >= 0.1 * top
    assert dev(lambda h: h.with_samples(h.grid.nodes() * h.samples)) >= 0.1 * top
