import numpy as np
import pytest

from saftkit.aconv import (aconv_fast, aconv_oracle, approx_identity_run,
                           crop_to_grid, extended_grid, mult_functional,
                           young_check)
from saftkit.engine import make_plan, saft_fast
from saftkit.grid import Signal, centered_grid, impulse, lr_norm, sample
from saftkit.operators import a_translate, chirp
from saftkit.params import (InputError, fourier_params, frft_params, make_params,
                            post_chirp)
from saftkit.families import gaussian_mixture_family, raised_cosine_bump

GENERIC = make_params(1, 2, -2, -3, 0.3, -0.2)
PSETS = (fourier_params(), frft_params(np.pi / 4), GENERIC)


def _pair(n=256, half=10.0, mode="compact", seed=40):
    grid = centered_grid(half, n)
    f, g = gaussian_mixture_family(grid, 2, seed, mode=mode)
    return f, g


def test_fourier_reduces_to_classical_convolution():
    f, g = _pair()
    out = aconv_oracle(fourier_params(), f, g)
    ref = f.grid.step * np.convolve(f.samples, g.samples)
    assert np.max(np.abs(out.samples - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert out.grid == extended_grid(f.grid)


def test_impulse_sifting_compact():
    grid = centered_grid(10.0, 256)
    g = gaussian_mixture_family(grid, 1, 41, mode="compact")[0]
    j0 = 100
    f = impulse(grid, j0)
    out = crop_to_grid(aconv_fast(GENERIC, f, g, "compact"), grid)
    ref = a_translate(g, GENERIC, grid.node(j0))
    assert np.max(np.abs(out.samples - ref.samples / np.sqrt(abs(GENERIC.b)))) <= 1e-12


def test_impulse_sifting_cyclic():
    grid = centered_grid(10.0, 256)
    g = gaussian_mixture_family(grid, 1, 42)[0]
    f = impulse(grid, 70, "cyclic")
    s0 = grid.node(70)
    out = aconv_fast(GENERIC, f, g, "cyclic")
    ref = a_translate(g, GENERIC, s0).samples / np.sqrt(abs(GENERIC.b))
    assert np.max(np.abs(out.samples - ref)) <= 1e-12


@pytest.mark.parametrize("p", PSETS, ids=("fourier", "frft", "generic"))
def test_compact_fast_matches_oracle(p):
    f, g = _pair(seed=43)
    dev = np.max(np.abs(aconv_fast(p, f, g, "compact").samples
                        - aconv_oracle(p, f, g).samples))
    assert dev <= 1e-10 * lr_norm(f, 1) * lr_norm(g, np.inf)


def test_chirp_conjugation_of_convolution():
    # C(f *A g) = |b|^(-1/2) (Cf * Cg), both modes
    f, g = _pair(seed=44)
    rate = GENERIC.a / GENERIC.b
    conv = aconv_fast(GENERIC, f, g, "compact")
    lhs = chirp(conv, rate).samples
    u, v = chirp(f, rate).samples, chirp(g, rate).samples
    rhs = f.grid.step * np.convolve(u, v) / np.sqrt(abs(GENERIC.b))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_chirp_conjugation_cyclic_mode():
    # cyclic path: C(f *A g) equals the origin-aware circular convolution
    # of the chirped factors, assembled here from first principles
    grid = centered_grid(10.0, 256)
    f, g = gaussian_mixture_family(grid, 2, 58)
    rate = GENERIC.a / GENERIC.b
    conv = aconv_fast(GENERIC, f, g, "cyclic")
    lhs = chirp(conv, rate).samples * np.sqrt(abs(GENERIC.b))
    u = chirp(f, rate).samples
    v = chirp(g, rate).samples
    n, k0 = grid.count, round(grid.start / grid.step)
    rhs = np.empty(n, dtype=complex)
    for m in range(n):
        rhs[m] = grid.step * np.sum(u * v[(m - np.arange(n) - k0) % n])
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_commutativity():
    f, g = _pair(seed=45)
    for p in PSETS:
        d = np.max(np.abs(aconv_fast(p, f, g, "compact").samples
                          - aconv_fast(p, g, f, "compact").samples))
        assert d <= 1e-10
        fc = Signal(f.grid, f.samples, "cyclic")
        gc = Signal(g.grid, g.samples, "cyclic")
        d = np.max(np.abs(aconv_fast(p, fc, gc, "cyclic").samples
                          - aconv_fast(p, gc, fc, "cyclic").samples))
        assert d <= 1e-10


@pytest.mark.parametrize("p", PSETS, ids=("fourier", "frft", "generic"))
def test_cyclic_convolution_theorem(p):
    grid = centered_grid(10.0, 512)
    f, g = gaussian_mixture_family(grid, 2, 46)
    plan = make_plan(p, grid)
    conv = aconv_fast(p, f, g, "cyclic")
    w = plan.freq_grid.nodes()
    lhs = saft_fast(plan, conv).samples
    rhs = (np.conj(post_chirp(p, w)) * saft_fast(plan, f).samples
           * saft_fast(plan, g).samples)
    assert np.max(np.abs(lhs - rhs)) <= 1e-9 * np.max(np.abs(rhs))


def test_grid_mismatch_rejected():
    f = gaussian_mixture_family(centered_grid(10.0, 128), 1, 47)[0]
    g = gaussian_mixture_family(centered_grid(10.0, 256), 1, 47)[0]
    with pytest.raises(ValueError):
        aconv_fast(GENERIC, f, g, "compact")


def test_approx_identity_decreasing():
    grid = centered_grid(8.0, 2048)
    f = raised_cosine_bump(grid)
    phi = lambda x: np.exp(-np.pi * x * x)
    eps = [1.0, 0.5, 0.25, 0.125, 1.0 / 16]
    for p in PSETS:
        errs = approx_identity_run(p, f, phi, eps, r=2)
        assert all(e2 <= e1 * 1.05 for e1, e2 in zip(errs, errs[1:]))
        assert errs[-1] <= 0.05 * lr_norm(f, 2)


def test_approx_identity_on_mollifier_itself():
    grid = centered_grid(8.0, 2048)
    phi = lambda x: np.exp(-np.pi * x * x)
    f = sample(phi, grid, "compact")
    errs = approx_identity_run(GENERIC, f, phi, [1.0, 0.5, 0.25], r=2)
    assert errs[-1] < errs[0]


def test_approx_identity_rejects_bad_mollifier():
    grid = centered_grid(8.0, 512)
    f = raised_cosine_bump(grid)
    with pytest.raises(ValueError):
        approx_identity_run(GENERIC, f, lambda x: np.exp(-np.pi * x * x) * 2.0,
                            [1.0, 0.5])
    with pytest.raises(ValueError):
        approx_identity_run(GENERIC, f, lambda x: np.exp(-np.pi * x * x),
                            [0.5, 1.0])


@pytest.mark.parametrize("rs", [(1.0, 1.0), (2.0, 1.0), (1.5, 1.2)])
def test_young_inequality_passes(rs):
    rng = np.random.default_rng(48)
    grid = centered_grid(10.0, 256)
    f = Signal(grid, rng.standard_normal(256) + 1j * rng.standard_normal(256))
    g = Signal(grid, rng.standard_normal(256) + 1j * rng.standard_normal(256))
    for p in PSETS:
        res = young_check(p, f, g, *rs)
        assert res["pass"]


def test_young_impulse_saturates():
    grid = centered_grid(10.0, 256)
    g = gaussian_mixture_family(grid, 1, 49, mode="compact")[0]
    f = impulse(grid, 128)
    res = young_check(GENERIC, f, g, 1.0, 2.0)
    assert res["lhs"] == pytest.approx(res["rhs"], rel=1e-12)


def test_young_rejects_inadmissible_exponents():
    f, g = _pair(seed=50)
    with pytest.raises(ValueError):
        young_check(GENERIC, f, g, 3.0, 3.0)
    with pytest.raises(ValueError):
        young_check(GENERIC, f, g, 0.5, 1.0)
    with pytest.raises(InputError, match="r, s >= 1"):
        young_check(GENERIC, f, g, float("nan"), 1.0)


@pytest.mark.parametrize("eps", (float("nan"), 0.0, -1.0))
def test_approx_identity_rejects_widths(eps):
    f = raised_cosine_bump(centered_grid(8.0, 512))
    with pytest.raises(InputError, match="widths must be positive"):
        approx_identity_run(GENERIC, f, lambda x: np.exp(-np.pi * x * x), [eps])
    with pytest.raises(InputError, match="quadrature mass"):
        approx_identity_run(GENERIC, f, lambda x: np.full_like(x, np.nan), [1.0])


@pytest.mark.parametrize("p", PSETS, ids=("fourier", "frft", "generic"))
def test_mult_functional_is_multiplicative(p):
    grid = centered_grid(10.0, 512)
    f, g = gaussian_mixture_family(grid, 2, 51)
    plan = make_plan(p, grid)
    w0 = plan.freq_grid.node(300)
    lhs = mult_functional(p, w0, aconv_fast(p, f, g, "cyclic"))
    rhs = mult_functional(p, w0, f) * mult_functional(p, w0, g)
    assert abs(lhs - rhs) <= 1e-9 * abs(rhs)


def test_mult_functional_fourier_at_zero_is_integral():
    grid = centered_grid(10.0, 512)
    f = gaussian_mixture_family(grid, 1, 52)[0]
    val = mult_functional(fourier_params(), 0.0, f)
    assert val == pytest.approx(grid.step * np.sum(f.samples), rel=1e-12)


def test_mult_functional_zero_signal():
    grid = centered_grid(10.0, 128)
    f = Signal(grid, np.zeros(128), "cyclic")
    assert mult_functional(GENERIC, 0.1, f) == 0.0


def test_mult_functional_rejects_off_grid():
    grid = centered_grid(10.0, 128)
    f = gaussian_mixture_family(grid, 1, 53)[0]
    plan = make_plan(GENERIC, grid)
    w0 = plan.freq_grid.node(60) + 0.37 * plan.freq_grid.step
    with pytest.raises(ValueError):
        mult_functional(GENERIC, w0, f)


def test_crop_recovers_central_window():
    f, g = _pair(seed=54)
    conv = aconv_fast(fourier_params(), f, g, "compact")
    cropped = crop_to_grid(conv, f.grid)
    k0 = round(f.grid.start / f.grid.step)
    ref = conv.samples[np.arange(f.grid.count) - k0]
    assert np.allclose(cropped.samples, ref)
