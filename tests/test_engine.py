import numpy as np
import pytest

from saftkit.engine import (apply_symbol, chirp_period_compatible,
                            dft_frequencies, heat_evolve, isaft, make_plan,
                            saft, saft_fast, saft_oracle, sinc_reference,
                            spectrum_grid, twisted_derivative)
from saftkit.grid import (Grid, Signal, Spectrum, centered_grid, lr_norm,
                          sample, spectrum_norm)
from saftkit.operators import a_translate
from saftkit.params import (fourier_params, frft_params, make_params,
                            post_chirp)

GENERIC = make_params(1, 2, -2, -3, 0.3, -0.2)
PSETS = (fourier_params(), frft_params(np.pi / 4), GENERIC)


def _noise(grid, seed, mode="cyclic"):
    rng = np.random.default_rng(seed)
    return Signal(grid, rng.standard_normal(grid.count)
                  + 1j * rng.standard_normal(grid.count), mode)


def test_oracle_fourier_gaussian_self_reciprocal():
    g = centered_grid(8.0, 1024)
    f = sample(lambda t: np.exp(-np.pi * t * t), g)
    F = saft_oracle(fourier_params(), f)
    ref = np.exp(-np.pi * F.freq_grid.nodes() ** 2)
    err = spectrum_norm(Spectrum(F.params, F.freq_grid, F.samples - ref), 2)
    assert err / spectrum_norm(Spectrum(F.params, F.freq_grid, ref), 2) < 1e-8


def test_oracle_zero_signal():
    g = centered_grid(4.0, 64)
    F = saft_oracle(GENERIC, Signal(g, np.zeros(64)))
    assert np.all(F.samples == 0)


@pytest.mark.parametrize("p", PSETS, ids=("fourier", "frft", "generic"))
def test_fast_matches_oracle(p):
    g = centered_grid(10.0, 512)
    f = _noise(g, 20)
    dev = np.max(np.abs(saft_fast(make_plan(p, g), f).samples
                        - saft_oracle(p, f).samples))
    assert dev <= 1e-10 * lr_norm(f, 2)


def test_fast_matches_oracle_large_grid():
    g = centered_grid(10.0, 2048)
    f = _noise(g, 27)
    dev = np.max(np.abs(saft_fast(make_plan(GENERIC, g), f).samples
                        - saft_oracle(GENERIC, f).samples))
    assert dev <= 1e-10 * lr_norm(f, 2)


def test_fourier_params_reduce_to_plain_dft():
    # with t0 = 0 and b = 1 the transform is the centered DFT with dt weight
    g = Grid(0.0, 0.125, 64)
    f = _noise(g, 21)
    F = saft_fast(make_plan(fourier_params(), g), f)
    ref = g.step * np.fft.fftshift(np.fft.fft(f.samples))
    assert np.max(np.abs(F.samples - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_frft_gaussian_magnitude_profile():
    # the unit Gaussian is a magnitude fixed point of every rotation angle
    g = centered_grid(8.0, 1024)
    f = sample(lambda t: np.exp(-np.pi * t * t), g, "cyclic")
    for theta in (np.pi / 4, np.pi / 3):
        F = saft_fast(make_plan(frft_params(theta), g), f)
        ref = np.exp(-np.pi * F.freq_grid.nodes() ** 2)
        assert np.max(np.abs(np.abs(F.samples) - ref)) < 1e-8


@pytest.mark.parametrize("p", PSETS, ids=("fourier", "frft", "generic"))
def test_roundtrip(p):
    g = centered_grid(10.0, 512)
    f = _noise(g, 22)
    plan = make_plan(p, g)
    back = isaft(plan, saft_fast(plan, f), "cyclic")
    assert np.max(np.abs(back.samples - f.samples)) <= 1e-10 * np.max(np.abs(f.samples))


def test_roundtrip_frft_third():
    g = centered_grid(6.0, 256)
    f = _noise(g, 23)
    plan = make_plan(frft_params(np.pi / 3), g)
    back = isaft(plan, saft_fast(plan, f))
    assert np.max(np.abs(back.samples - f.samples)) <= 1e-10


def test_isaft_zero_spectrum():
    g = centered_grid(4.0, 64)
    plan = make_plan(GENERIC, g)
    f = isaft(plan, Spectrum(GENERIC, plan.freq_grid, np.zeros(64)))
    assert np.all(f.samples == 0)


def test_isaft_rejects_foreign_grid():
    g = centered_grid(4.0, 64)
    plan = make_plan(GENERIC, g)
    other = spectrum_grid(GENERIC, centered_grid(5.0, 64))
    with pytest.raises(ValueError):
        isaft(plan, Spectrum(GENERIC, other, np.zeros(64)))


def test_plan_rejects_foreign_signal():
    plan = make_plan(GENERIC, centered_grid(4.0, 64))
    with pytest.raises(ValueError):
        saft_fast(plan, _noise(centered_grid(4.0, 128), 1))


def test_negative_b_gives_ascending_freq_grid():
    p = make_params(1.0, -2.0, 1.0, -1.0, 0.0, 0.0)
    g = centered_grid(4.0, 128)
    F = saft_fast(make_plan(p, g), _noise(g, 24))
    w = F.freq_grid.nodes()
    assert np.all(np.diff(w) > 0)
    dev = np.max(np.abs(F.samples - saft_oracle(p, _noise(g, 24)).samples))
    assert dev <= 1e-10


@pytest.mark.parametrize("p", PSETS, ids=("fourier", "frft", "generic"))
def test_discrete_plancherel(p):
    g = centered_grid(10.0, 512)
    f = _noise(g, 25)
    F = saft_fast(make_plan(p, g), f)
    assert abs(spectrum_norm(F, 2) - lr_norm(f, 2)) <= 1e-10 * lr_norm(f, 2)


def test_chirped_indicator_matches_sinc_reference():
    p = GENERIC
    errs = []
    for n in (512, 1024, 2048):
        g = centered_grid(8.0, n)
        rate = p.a / p.b
        f = sample(lambda t: np.exp(-1j * np.pi * rate * t * t)
                   * ((t >= -0.5) & (t < 0.5)), g, "compact")
        F = saft_oracle(p, f) if n == 512 else saft(p, f)
        ref = sinc_reference(p, F.freq_grid.nodes(), "centered_interval")
        errs.append(np.max(np.abs(F.samples - ref)))
    assert errs[-1] <= 3e-2
    assert errs[1] <= 0.7 * errs[0] and errs[2] <= 0.7 * errs[1]


def test_sinc_reference_at_offset_p():
    for p in PSETS:
        val = sinc_reference(p, p.p, "unit_interval")
        assert val == pytest.approx(post_chirp(p, p.p) / np.sqrt(abs(p.b)))
        val = sinc_reference(p, p.p, "centered_interval")
        assert val == pytest.approx(post_chirp(p, p.p) / np.sqrt(abs(p.b)))


def test_sinc_reference_zero_at_integer_offset():
    for p in PSETS:
        assert abs(sinc_reference(p, p.p + p.b, "centered_interval")) <= 1e-15


def test_sinc_reference_frft_closed_form():
    theta = 0.8
    p = frft_params(theta)
    w = np.linspace(-3, 3, 41)
    ref = (np.exp(1j * np.pi * w * w / np.tan(theta))
           / np.sqrt(abs(np.sin(theta))) * np.sinc(w / np.sin(theta)))
    got = sinc_reference(p, w, "centered_interval")
    assert np.max(np.abs(got - ref)) <= 1e-12


def test_derivative_exact_on_grid_harmonic():
    g = centered_grid(10.0, 512)
    f = sample(lambda t: np.exp(2j * np.pi * t), g, "cyclic")
    d = twisted_derivative(fourier_params(), f, "spectral")
    assert np.max(np.abs(d.samples - 2j * np.pi * f.samples)) <= 1e-10


def test_derivative_spectral_vs_finite_difference_second_order():
    devs = []
    for n in (256, 512, 1024):
        g = centered_grid(10.0, n)
        f = sample(lambda t: np.exp(-np.pi * t * t), g, "cyclic")
        ds = twisted_derivative(GENERIC, f, "spectral")
        dfd = twisted_derivative(GENERIC, f, "finite_difference")
        devs.append(np.max(np.abs(ds.samples - dfd.samples)))
    assert devs[1] <= 0.3 * devs[0] and devs[2] <= 0.3 * devs[1]


@pytest.mark.parametrize("p", PSETS, ids=("fourier", "frft", "generic"))
def test_derivative_commutes_with_twisted_translation(p):
    g = centered_grid(10.0, 512)
    f = sample(lambda t: np.exp(-np.pi * t * t) * (1 + 0.2 * np.cos(t)), g,
               "cyclic")
    x = 24 * g.step
    lhs = twisted_derivative(p, a_translate(f, p, x), "spectral")
    rhs = a_translate(twisted_derivative(p, f, "spectral"), p, x)
    assert np.max(np.abs(lhs.samples - rhs.samples)) <= 1e-9


def test_finite_difference_needs_enough_samples():
    g = Grid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        twisted_derivative(GENERIC, Signal(g, np.zeros(4)), "finite_difference")


def test_heat_small_time_is_near_identity():
    g = centered_grid(10.0, 1024)
    f = sample(lambda t: np.exp(-np.pi * t * t), g, "cyclic")
    u = heat_evolve(GENERIC, f, 1e-6, "multiplier")
    rel = lr_norm(u.with_samples(u.samples - f.samples), 2) / lr_norm(f, 2)
    assert rel <= 1e-3


@pytest.mark.parametrize("p", PSETS, ids=("fourier", "frft", "generic"))
def test_heat_multiplier_vs_kernel(p):
    rels = []
    for n in (1024, 2048):
        g = centered_grid(10.0, n)
        f = sample(lambda t: np.exp(-np.pi * t * t), g, "cyclic")
        um = heat_evolve(p, f, 0.1, "multiplier")
        uk = heat_evolve(p, f, 0.1, "kernel")
        rels.append(lr_norm(um.with_samples(um.samples - uk.samples), 2)
                    / lr_norm(um, 2))
    assert rels[0] <= 1e-3
    assert rels[1] <= rels[0] * 1.05 + 1e-12


def test_heat_fourier_second_moment_grows():
    g = centered_grid(12.0, 1024)
    f = sample(lambda t: np.exp(-np.pi * t * t), g, "cyclic")
    t_nodes = g.nodes()

    def second_moment(u):
        w = np.abs(u.samples) ** 2
        return float(np.sum(t_nodes ** 2 * w) / np.sum(w))

    moments = [second_moment(heat_evolve(fourier_params(), f, t, "multiplier"))
               for t in (0.05, 0.2, 0.5)]
    assert moments[0] < moments[1] < moments[2]
    # classical flow: u stays Gaussian with variance 1/(2 pi) + 2t, so the
    # |u|^2 distribution has variance 1/(4 pi) + t
    assert moments[1] == pytest.approx(1.0 / (4 * np.pi) + 0.2, rel=1e-6)


def test_heat_rejects_nonpositive_time():
    g = centered_grid(4.0, 64)
    with pytest.raises(ValueError):
        heat_evolve(GENERIC, Signal(g, np.zeros(64)), 0.0)


def test_chirp_period_compatibility():
    assert chirp_period_compatible(GENERIC, centered_grid(10.0, 512))
    assert not chirp_period_compatible(GENERIC, centered_grid(8.0, 512))
    assert chirp_period_compatible(fourier_params(), centered_grid(8.0, 512))


@pytest.mark.parametrize("p", PSETS, ids=("fourier", "frft", "generic"))
def test_shift_modulation_exchange(p):
    g = centered_grid(10.0, 512)
    f = _noise(g, 26)
    plan = make_plan(p, g)
    F = saft_fast(plan, f)
    s = 16 * g.step
    shifted = saft_fast(plan, a_translate(f, p, s))
    w = plan.freq_grid.nodes()
    phase = np.exp(1j * np.pi / p.b * (p.a * s * s + 2 * p.p * s - 2 * s * w))
    dev = np.max(np.abs(shifted.samples - phase * F.samples))
    assert dev <= 1e-9 * np.max(np.abs(F.samples))


def test_symmetric_pairing_on_self_dual_grid():
    # a = d, p = q = 0: the pairing integral is symmetric in (f, g); on the
    # self-dual grid the double sum is literally symmetric, so exact
    p = frft_params(np.pi / 4)
    n = 512
    dt = np.sqrt(abs(p.b) / n)
    g = centered_grid(n * dt / 2, n)
    f = sample(lambda t: np.exp(-np.pi * (t - 0.3) ** 2), g, "cyclic")
    h = sample(lambda t: np.exp(-0.7 * t * t) * np.cos(t), g, "cyclic")
    plan = make_plan(p, g)
    F, H = saft_fast(plan, f), saft_fast(plan, h)
    lhs = F.freq_grid.step * np.sum(F.samples * h.samples)
    rhs = g.step * np.sum(f.samples * H.samples)
    assert abs(lhs - rhs) <= 1e-9 * abs(rhs)


def test_hausdorff_young_bound():
    g = centered_grid(10.0, 1024)
    for p in PSETS:
        plan = make_plan(p, g)
        for seed in (30, 31):
            f = _noise(g, seed, mode="compact")
            F = saft_fast(plan, f)
            for r in (1.0, 4.0 / 3.0, 2.0):
                rp = np.inf if r == 1.0 else r / (r - 1.0)
                bound = abs(p.b) ** (0.5 - 1.0 / r) * lr_norm(f, r)
                assert spectrum_norm(F, rp) <= bound * 1.05


def test_riemann_lebesgue_decay_trend():
    decile = []
    for n in (512, 1024, 2048):
        g = centered_grid(8.0, n)
        f = sample(lambda t: ((t >= -0.5) & (t < 0.5)).astype(complex), g)
        F = saft(GENERIC, f)
        w = np.abs(F.freq_grid.nodes())
        cut = np.quantile(w, 0.9)
        decile.append(np.max(np.abs(F.samples[w >= cut])))
    assert decile[0] > decile[1] > decile[2]


def test_dft_frequencies_centered():
    g = Grid(0.0, 0.25, 8)
    xi = dft_frequencies(g)
    assert xi[4] == 0.0
    assert np.allclose(np.diff(xi), 1.0 / (8 * 0.25))


@pytest.mark.parametrize("p", PSETS + (make_params(1.0, -2.0, 1.0, -1.0, 0.2, 0.1),),
                         ids=("fourier", "frft", "generic", "neg_b"))
@pytest.mark.parametrize("grid", (centered_grid(10.0, 256), Grid(-3.7, 0.05, 255)),
                         ids=("even", "odd_noncentered"))
def test_apply_symbol_matches_spelled_out_path(p, grid):
    plan = make_plan(p, grid)
    w = plan.freq_grid.nodes()
    for mode in ("cyclic", "compact"):
        f = _noise(grid, 31, mode)
        for values in (np.exp(-w * w), 2j * np.pi * (w - p.p) / p.b, np.ones(grid.count)):
            ref = isaft(plan, Spectrum(p, plan.freq_grid,
                                       values * saft_fast(plan, f).samples), f.mode)
            out = apply_symbol(plan, f, values)
            assert out.mode == mode and out.grid == grid
            assert np.array_equal(out.samples, ref.samples)


def test_apply_symbol_rejects_nonfinite_values():
    plan = make_plan(GENERIC, centered_grid(4.0, 64))
    values = np.ones(64)
    values[5] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        apply_symbol(plan, _noise(plan.grid, 2), values)
