import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from saftkit.engine import (BLOCK_ENTRIES, dft_frequencies, make_plan,
                            natural_freqs, saft_fast, spectrum_grid)
from saftkit.grid import (Grid, Signal, centered_grid, lr_norm, sample,
                          save_json)
from saftkit.operators import a_modulate, a_translate, chirp
from saftkit.params import (InputError, WeightSpec, fourier_params,
                            freq_scaled_weight, frft_params, make_params,
                            pre_chirp, quad_chirp, radial_weight,
                            transported_weight, unit_weight, weight_eval)
from saftkit import timefreq
from saftkit.timefreq import (STFT_MAX_COUNT, TFMatrix,
                              a_covariance_check, a_mod_norm,
                              a_mod_norm_oracle,
                              chirp_stft_covariance_check, gaussian_window,
                              mod_norm, raised_cosine_window,
                              saft_stft_identity_max, stft, tf_to_dict,
                              window_flip)
from saftkit.families import gaussian_mixture_family
from saftkit.verify import LATTICE_SETS, SELF_DUAL_GRID
from strategies import cases

GENERIC = make_params(1, 2, -2, -3, 0.3, -0.2)
PSETS = (fourier_params(), frft_params(np.pi / 4), GENERIC)


def test_stft_gaussian_peaks_at_origin():
    grid = centered_grid(10.0, 256)
    g = gaussian_window(grid)
    V = stft(g, g)
    m, k = np.unravel_index(np.argmax(np.abs(V.values)), V.values.shape)
    assert abs(V.x_grid.node(m)) <= V.x_grid.step
    assert abs(V.w_grid.node(k)) <= V.w_grid.step
    energy = V.x_grid.step * V.w_grid.step * np.sum(np.abs(V.values) ** 2)
    assert energy == pytest.approx(1.0, abs=1e-8)


def test_stft_zero_signal():
    grid = centered_grid(10.0, 128)
    V = stft(Signal(grid, np.zeros(128), "cyclic"), gaussian_window(grid))
    assert np.all(V.values == 0)


def _stft_quadrature(f, g):
    """dt * sum_n f(t_n) conj(g(t_n - x_m)) e^{-2 pi i xi_k t_n}, term by term,
    with g read off its grid by location: wrapped in cyclic mode, zero off
    the grid in compact mode."""
    grid = f.grid
    t = grid.nodes()
    xi = dft_frequencies(grid)
    kernel = np.exp(-2j * np.pi * xi[None, :] * t[:, None])
    out = np.empty((grid.count, grid.count), dtype=complex)
    for m, x in enumerate(t):
        idx = np.rint((t - x - grid.start) / grid.step).astype(int)
        if f.mode == "cyclic":
            gx = g.samples[idx % grid.count]
        else:
            inside = (idx >= 0) & (idx < grid.count)
            gx = np.where(inside, g.samples[np.clip(idx, 0, grid.count - 1)], 0)
        out[m] = grid.step * (f.samples * np.conj(gx)) @ kernel
    return out


@pytest.mark.parametrize("mode", ("cyclic", "compact"))
# In compact mode N/2 and -3N/2 put some rows of the table wholly in the
# zero padding, and 2N and -3N all of them.
@pytest.mark.parametrize("n", (15, 16, 17, 64, 97, 600))
@pytest.mark.parametrize("origin", ("-N/2", "-N/2+3", "0", "-N", "2N", "-3N",
                                    "N/2", "-3N/2"))
def test_stft_matches_direct_quadrature(mode, n, origin):
    k0 = {"-N/2": -(n // 2), "-N/2+3": 3 - n // 2, "0": 0, "-N": -n,
          "2N": 2 * n, "-3N": -3 * n, "N/2": n // 2, "-3N/2": -(3 * n // 2)}[origin]
    grid = Grid(k0 * 0.1, 0.1, n)
    rng = np.random.default_rng([n, k0 % 1000])
    f, g = (Signal(grid, rng.standard_normal(n) + 1j * rng.standard_normal(n),
                   mode) for _ in range(2))
    ref = _stft_quadrature(f, g)
    V = stft(f, g)
    assert np.max(np.abs(V.values - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert V.x_grid == grid
    assert np.allclose(V.w_grid.nodes(), dft_frequencies(grid), rtol=0,
                       atol=1e-12 / grid.step)


def test_stft_frequency_lattice_is_the_fourier_spectrum_grid():
    # stft and mod_norm take their lattice from spectrum_grid at the Fourier
    # set: bit for bit the centered DFT lattice, start xi_0, step 1 / (N dt)
    rng = np.random.default_rng(2000)
    for _ in range(2000):
        grid = Grid(float(rng.uniform(-50.0, 50.0)), float(10.0 ** rng.uniform(-3, 1)),
                    int(rng.integers(2, 3000)))
        spec = spectrum_grid(fourier_params(), grid)
        ref = (float(dft_frequencies(grid)[0]), 1.0 / grid.span)
        assert np.array([spec.start, spec.step]).tobytes() == np.array(ref).tobytes()
        assert spec.count == grid.count


def test_moyal_identity_random():
    grid = centered_grid(10.0, 256)
    f, g = gaussian_mixture_family(grid, 2, 60)
    V = stft(f, g)
    ref = lr_norm(f, 2) ** 2 * lr_norm(g, 2) ** 2
    energy = V.x_grid.step * V.w_grid.step * np.sum(np.abs(V.values) ** 2)
    assert energy == pytest.approx(ref, rel=1e-8)


def test_chirp_stft_covariance_aligned():
    grid = centered_grid(10.0, 256)
    f = gaussian_mixture_family(grid, 1, 61)[0]
    g = gaussian_window(grid)
    dxi = 1.0 / grid.span
    assert chirp_stft_covariance_check(f, g, 3 * dxi / grid.step) <= 1e-9


def test_chirp_stft_covariance_rejects_misaligned():
    grid = centered_grid(10.0, 128)
    f = gaussian_mixture_family(grid, 1, 62)[0]
    with pytest.raises(ValueError):
        chirp_stft_covariance_check(f, gaussian_window(grid), 0.123456)


def test_a_covariance_zero_offsets():
    grid = centered_grid(10.0, 128)
    f = gaussian_mixture_family(grid, 1, 63)[0]
    assert a_covariance_check(GENERIC, f, gaussian_window(grid), 0.0, 0.0) <= 1e-13


@pytest.mark.parametrize("p", PSETS, ids=("fourier", "frft", "generic"))
def test_a_covariance_aligned(p):
    grid = centered_grid(10.0, 256)
    f = gaussian_mixture_family(grid, 1, 64)[0]
    g = gaussian_window(grid)
    dxi = 1.0 / grid.span
    xi = 16 * grid.step
    eta = p.a * xi - p.b * 2 * dxi
    assert a_covariance_check(p, f, g, xi, eta) <= 1e-9


def test_a_covariance_reports_required_alignment():
    grid = centered_grid(10.0, 128)
    f = gaussian_mixture_family(grid, 1, 65)[0]
    g = gaussian_window(grid)
    with pytest.raises(ValueError, match="multiple of the frequency step"):
        a_covariance_check(GENERIC, f, g, 16 * grid.step, 0.01234)
    with pytest.raises(ValueError, match="multiple of the grid step"):
        a_covariance_check(GENERIC, f, g, 0.1234567, 0.0)


def _self_dual_grid(n):
    dt = 1.0 / np.sqrt(n)
    return centered_grid(n * dt / 2.0, n)


def test_saft_stft_identity_fourier_mapping():
    grid = _self_dual_grid(256)
    f, g = gaussian_mixture_family(grid, 2, 66)
    assert saft_stft_identity_max([fourier_params()], f, g) <= 1e-6


def test_saft_stft_identity_shear_mapping():
    grid = _self_dual_grid(256)
    f, g = gaussian_mixture_family(grid, 2, 67)
    p = make_params(1, 1, 0, 1, 0, 0)
    assert saft_stft_identity_max([p], f, g) <= 1e-6


def test_saft_stft_identity_zero_signal():
    grid = _self_dual_grid(128)
    z = Signal(grid, np.zeros(128), "cyclic")
    g = gaussian_window(grid)
    assert saft_stft_identity_max([fourier_params()], z, g) == 0.0


def test_saft_stft_identity_rejects_incompatible():
    grid = _self_dual_grid(128)
    f, g = gaussian_mixture_family(grid, 2, 68)
    with pytest.raises(ValueError):
        saft_stft_identity_max([frft_params(0.7)], f, g)
    bad_grid = centered_grid(10.0, 128)
    f2, g2 = gaussian_mixture_family(bad_grid, 2, 68)
    with pytest.raises(ValueError):
        saft_stft_identity_max([fourier_params()], f2, g2)


def test_saft_stft_identity_grid_rule_is_grid_same_as():
    """The grid must be Grid.same_as centered_grid(sqrt(N |b|) / 2, N):
    origin and step each within 1e-9 of the step."""
    n = 128
    ref = centered_grid(np.sqrt(n) / 2.0, n)
    f, g = gaussian_mixture_family(ref, 2, 68)
    near = Grid(ref.start + 0.8e-9 * ref.step, ref.step, n)
    assert saft_stft_identity_max([fourier_params()], Signal(near, f.samples, "cyclic"),
                                  Signal(near, g.samples, "cyclic")) <= 1e-6
    # a centred grid whose step is 1e-10 too long has its origin 6.4e-9 steps
    # off, and its edge nodes miss the lattice the transform maps onto
    far = centered_grid(n * ref.step * (1.0 + 1e-10) / 2.0, n)
    with pytest.raises(InputError, match="self-dual centred grid"):
        saft_stft_identity_max([fourier_params()], Signal(far, f.samples, "cyclic"),
                               Signal(far, g.samples, "cyclic"))


@pytest.mark.parametrize("seed", (1, 7, 42))
def test_saft_stft_identity_max_is_the_whole_table_check_bit_for_bit(seed):
    # the battery's T1.13 inputs at this seed
    f, g = gaussian_mixture_family(SELF_DUAL_GRID, 2, seed + 2)
    devs = [_whole_table_identity_check(p, f, g) for p in LATTICE_SETS]
    for p, dev in zip(LATTICE_SETS, devs):
        assert saft_stft_identity_max([p], f, g) == dev
    assert saft_stft_identity_max(LATTICE_SETS, f, g) == max(devs)


@pytest.mark.parametrize("n", (100, 128))
def test_saft_stft_identity_max_matches_on_every_sign_of_b(n):
    """Both signs of b, at even and odd N, and a set with a, c and d all
    nonzero."""
    f, g = gaussian_mixture_family(_self_dual_grid(n), 2, 70)
    sets = [make_params(*abcd) for abcd in ((0, 1, -1, 0), (1, 1, 0, 1),
                                            (0, -1, 1, 0), (1, -1, 0, 1),
                                            (2, 1, 1, 1))]
    for p in sets:
        assert saft_stft_identity_max([p], f, g) == _whole_table_identity_check(p, f, g)


def test_saft_stft_identity_max_zero_signal_and_rejections():
    grid = _self_dual_grid(128)
    g = gaussian_window(grid)
    z = Signal(grid, np.zeros(128), "cyclic")
    assert saft_stft_identity_max([fourier_params()], z, g) == 0.0
    f = gaussian_mixture_family(grid, 1, 68)[0]
    with pytest.raises(InputError, match="integer matrix"):
        saft_stft_identity_max([fourier_params(), frft_params(0.7)], f, g)
    bad_grid = centered_grid(10.0, 128)
    f2, g2 = gaussian_mixture_family(bad_grid, 2, 68)
    with pytest.raises(InputError, match="self-dual centred grid"):
        saft_stft_identity_max([fourier_params()], f2, g2)


def test_saft_stft_identity_max_keeps_one_real_table():
    # the battery's T1.13 inputs at N = 512: |V_g f| is the one real N x N
    # table; a second one (a copy of the map) would take the peak past 2.5
    f, g = gaussian_mixture_family(SELF_DUAL_GRID, 2, 44)
    n = f.grid.count
    tracemalloc.start()
    try:
        saft_stft_identity_max(LATTICE_SETS, f, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 8 * n * n


def _weight_transport_pairs():
    """The battery's T2.21 pairs: (f, g) on the self-dual grid with the
    radial weights, then (Ff, Fg) with the transported weights per set."""
    fsd = sample(lambda t: np.exp(-np.pi * (t - 0.4) ** 2)
                 * np.exp(2j * np.pi * 0.7 * t), SELF_DUAL_GRID, "cyclic")
    gsd = sample(lambda t: np.exp(-np.pi * t * t), SELF_DUAL_GRID, "cyclic")
    out = [(fsd, gsd, [radial_weight(ell) for ell in (0, 1, 2)])]
    for p in LATTICE_SETS:
        F, G = (saft_fast(make_plan(p, SELF_DUAL_GRID), h) for h in (fsd, gsd))
        out.append((Signal(F.freq_grid, F.samples, "cyclic"),
                    Signal(G.freq_grid, G.samples, "cyclic"),
                    [transported_weight(ell, p) for ell in (0, 1, 2)]))
    return out


def test_weighted_stft_norms_are_the_battery_norms_bit_for_bit():
    # T2.21 streams V_g f through _mod_norms with the flipped window, which
    # the kernel flips back: window_flip is an exact involution
    seen = 0
    for f, g, weights in _weight_transport_pairs():
        flipped = window_flip(g)
        assert timefreq._mod_norms(f, flipped, 2.0, 2.0, weights) == \
            _whole_table_mod_norms(f, flipped, 2.0, 2.0, weights)
        seen += len(weights)
    assert seen == 9


def _three_weight_case(n):
    grid = Grid(-(n // 2 + 3) * 0.5, 0.5, n)  # three steps off centre
    f = gaussian_mixture_family(grid, 1, 88)[0]
    g = gaussian_window(grid)
    weights = [unit_weight(), radial_weight(1.5), WeightSpec(2.0, (1, 0, -0.5, 1))]
    return f, g, weights


# One block up to 181; 256 and 1024 split into blocks of 128 and 32 rows.
# The former weighted_stft_norms(f, g, weights, r) is the flipped-window
# kernel at s = r; the unflipped window checks the same kernel for mod_norm.
@pytest.mark.parametrize("n", (16, 64, 256, 1024))
@pytest.mark.parametrize("r", (1.0, 2.0, 3.3))
def test_weighted_stft_norms_bit_for_bit_at_powers_of_two(n, r):
    f, g, weights = _three_weight_case(n)
    for h, s in ((window_flip(g), r), (g, r), (g, 1.5)):
        assert (timefreq._mod_norms(f, h, r, s, weights)
                == _whole_table_mod_norms(f, h, r, s, weights))


@pytest.mark.parametrize("n", (15, 181, 600))
def test_weighted_stft_norms_round_alike_at_other_sizes(n):
    # the former pairwise-order kernel rounded alike only to rel 1e-13 here;
    # the in-order kernel gives the whole-table bits
    grid = Grid(-(n // 2) * 0.1, 0.1, n)
    f = gaussian_mixture_family(grid, 1, 89)[0]
    g = window_flip(gaussian_window(grid))
    weights = [unit_weight(), radial_weight(2.0)]
    assert (timefreq._mod_norms(f, g, 2.0, 2.0, weights)
            == _whole_table_mod_norms(f, g, 2.0, 2.0, weights))


# 600 splits into blocks of 54 rows with a partial last block
@pytest.mark.parametrize("n", (15, 181, 600))
def test_mod_norms_equal_the_whole_table_references_bit_for_bit(n):
    f, g, weights = _three_weight_case(n)
    for r, s in ((2.0, 2.0), (1.0, 1.0), (3.3, 1.5)):
        assert (timefreq._mod_norms(f, g, r, s, weights)
                == _whole_table_mod_norms(f, g, r, s, weights))


def test_weighted_stft_norms_make_no_whole_table():
    f, g, weights = _weight_transport_pairs()[0]
    n = f.grid.count
    tracemalloc.start()
    try:
        timefreq._mod_norms(f, g, 2.0, 2.0, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * n * n  # one complex N x N table


def test_weighted_stft_norms_reject_a_norm_outside_the_float_range():
    grid = centered_grid(10.0, 64)
    f = gaussian_mixture_family(grid, 1, 87)[0]
    g = gaussian_window(grid)
    with np.errstate(over="ignore"), pytest.raises(
            InputError, match="is not finite in floating point"):
        timefreq._mod_norms(f.with_samples(1e200 * f.samples), g, 2.0, 2.0,
                            [unit_weight()])


def test_mod_norm_moyal_case():
    grid = centered_grid(10.0, 256)
    f = gaussian_mixture_family(grid, 1, 69)[0]
    g = gaussian_window(grid)
    ref = lr_norm(f, 2) * lr_norm(g, 2)
    assert mod_norm(f, g, 2.0, 2.0, unit_weight()) == pytest.approx(ref, rel=1e-6)


def test_mod_norm_zero_exponent_weight_matches_unit():
    grid = centered_grid(10.0, 128)
    f = gaussian_mixture_family(grid, 1, 70)[0]
    g = gaussian_window(grid)
    assert (mod_norm(f, g, 2.0, 3.0, radial_weight(0.0))
            == pytest.approx(mod_norm(f, g, 2.0, 3.0, unit_weight()), rel=1e-12))


def test_mod_norm_rejects_zero_window():
    grid = centered_grid(10.0, 128)
    f = gaussian_mixture_family(grid, 1, 71)[0]
    with pytest.raises(ValueError):
        mod_norm(f, Signal(grid, np.zeros(128), "cyclic"), 2.0, 2.0, unit_weight())


@pytest.mark.parametrize("r, s", ((float("nan"), 2.0), (2.0, float("nan")),
                                  (0.5, 2.0), (2.0, float("inf"))))
def test_modulation_norms_reject_exponents(r, s):
    grid = centered_grid(10.0, 64)
    f = gaussian_mixture_family(grid, 1, 71)[0]
    g = gaussian_window(grid)
    for norm in (lambda: mod_norm(f, g, r, s, unit_weight()),
                 lambda: a_mod_norm(GENERIC, f, g, r, s, unit_weight())):
        with pytest.raises(InputError, match="finite exponents r, s >= 1"):
            norm()


def test_chirp_shear_transport_two_sided():
    # chirping by rate s moves the norm to the sheared weight within
    # window-dependent constants; pin a generous two-sided band
    grid = centered_grid(10.0, 256)
    fam = gaussian_mixture_family(grid, 6, 72)
    g = gaussian_window(grid)
    s = 3 * (1.0 / grid.span) / grid.step
    m = radial_weight(1.0)
    sheared = WeightSpec(1.0, (1.0, 0.0, -s, 1.0))  # m read at (x, w - s x)
    ratios = []
    for f in fam:
        lhs = mod_norm(chirp(f, s), g, 2.0, 2.0, sheared)
        rhs = mod_norm(f, g, 2.0, 2.0, m)
        ratios.append(lhs / rhs)
    assert 0.2 <= min(ratios) and max(ratios) <= 5.0


def test_a_mod_norm_fourier_equals_classical():
    grid = centered_grid(10.0, 256)
    f = gaussian_mixture_family(grid, 1, 73)[0]
    g = gaussian_window(grid)
    for r, s in ((2.0, 2.0), (2.0, 4.0)):
        assert (a_mod_norm(fourier_params(), f, g, r, s, unit_weight())
                == pytest.approx(mod_norm(f, g, r, s, unit_weight()), rel=1e-12))


@pytest.mark.parametrize("p", PSETS, ids=("fourier", "frft", "generic"))
def test_a_mod_norm_scaling_identity(p):
    grid = centered_grid(10.0, 256)
    f = gaussian_mixture_family(grid, 1, 74)[0]
    g = gaussian_window(grid)
    r, s = 2.0, 3.0
    m = radial_weight(1.0)
    rate = p.a / p.b
    lhs = a_mod_norm(p, f, g, r, s, m)
    rhs = (abs(p.b) ** (1.0 / s - 0.5)
           * mod_norm(chirp(f, rate), chirp(g, rate), r, s,
                      freq_scaled_weight(m, p.b)))
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_a_mod_norm_zero_signal():
    grid = centered_grid(10.0, 128)
    z = Signal(grid, np.zeros(128), "cyclic")
    assert a_mod_norm(GENERIC, z, gaussian_window(grid), 2.0, 2.0,
                      unit_weight()) == 0.0


def test_a_mod_norm_index_monotonicity_bounded():
    # higher-index norms of unit-norm signals stay uniformly bounded
    grid = centered_grid(10.0, 128)
    fam = gaussian_mixture_family(grid, 5, 75)
    g = gaussian_window(grid)
    for f in fam:
        base = a_mod_norm(GENERIC, f, g, 2.0, 2.0, unit_weight())
        fn = f.with_samples(f.samples / base)
        higher = a_mod_norm(GENERIC, fn, g, 3.0, 4.0, unit_weight())
        assert higher <= 2.0


@st.composite
def amod_cases(draw):
    """Generated (params, f, g) with every weight kind, and r, s in [1, 4];
    also r = 2 exactly with the unit weight, a_mod_norm's Parseval path."""
    params, f, g = draw(cases(signals=2, off_centre=False))
    ell = draw(st.floats(0.0, 3.0))
    kind = draw(st.sampled_from(("unit", "radial", "transported",
                                 "freq_scaled", "sheared", "unit, r = 2")))
    weight = {"unit": unit_weight(), "unit, r = 2": unit_weight(),
              "radial": radial_weight(ell),
              "transported": transported_weight(ell, params),
              "freq_scaled": freq_scaled_weight(radial_weight(ell),
                                                draw(st.floats(-3.0, 3.0))),
              # the radial weight read at (x, w - s x)
              "sheared": WeightSpec(ell, (1.0, 0.0, -draw(st.floats(-3.0, 3.0)),
                                          1.0))}[kind]
    r, s = draw(st.floats(1.0, 4.0)), draw(st.floats(1.0, 4.0))
    return params, f, g, 2.0 if kind == "unit, r = 2" else r, s, weight


@settings(max_examples=60, deadline=None)
@given(case=amod_cases())
def test_a_mod_norm_matches_oracle_generated(case):
    fast = a_mod_norm(*case)
    ref = a_mod_norm_oracle(*case)
    assert abs(fast - ref) <= 1e-12 * ref


def test_a_mod_norm_matches_oracle_across_row_blocks():
    n = 1536
    rows = BLOCK_ENTRIES // n
    assert n > rows and n % rows != 0  # several blocks, the last one partial
    grid = Grid((37 - n // 2) * 20.0 / n, 20.0 / n, n)
    f = gaussian_mixture_family(grid, 1, 78)[0]
    g = gaussian_window(grid)
    # At s = 1 the reduction adds inner^(1/2) over the rows.  About 950 of
    # the 1536 rows have an inner sum at the rounding floor (below 1e-20,
    # median near 6e-28), which the two paths round differently; the square
    # root lifts those rows to about 5e-10 of a total near 57, so the norms
    # differ by 3e-13 (unit weight) to 1.3e-12 (radial) relative without an
    # error on either side.  At s = 2..4 the gap is below 3e-16.
    for s, rel in ((3.0, 1e-12), (1.0, 1e-11)):
        for m in (radial_weight(1.0), unit_weight()):  # the general and Parseval paths
            fast = a_mod_norm(GENERIC, f, g, 2.0, s, m)
            assert fast == pytest.approx(a_mod_norm_oracle(GENERIC, f, g, 2.0, s, m),
                                         rel=rel)


def _whole_table_mod_norms(f, g, r, s, weights):
    """The mixed norms, one per weight, reduced from the whole STFT table
    against the flipped window."""
    V = stft(f, window_flip(g))
    x, w = V.x_grid.nodes()[:, None], V.w_grid.nodes()[None, :]
    out = []
    for m in weights:
        inner = V.x_grid.step * np.sum((np.abs(V.values) * weight_eval(m, x, w)) ** r,
                                       axis=0)
        out.append(float((V.w_grid.step * np.sum(inner ** (s / r))) ** (1.0 / s)))
    return out


def _whole_table_mod_norm(f, g, r, s, m):
    return _whole_table_mod_norms(f, g, r, s, (m,))[0]


def _whole_table_identity_check(params, f, g):
    """The relative deviation in |V_{Fg}(Ff)(x, w)| = |V_g f(d x - b w, a w - c x)|
    on whole N x N tables, the right side gathered through two N x N index
    tables on centred indices mod N."""
    a, b, c, d = timefreq._identity_matrix(params, f.grid)
    VA = np.abs(stft(*timefreq._transformed_pair(params, f, g)).values)
    V0 = np.abs(stft(f, g).values)
    n = f.grid.count
    h = n // 2
    i, j = np.arange(n)[:, None] - h, np.arange(n)[None, :] - h
    return timefreq._relative(VA - V0[(d * i - b * j + h) % n, (a * j - c * i + h) % n], V0)


@settings(max_examples=60, deadline=None)
@given(case=amod_cases())
def test_mod_norm_matches_whole_table_generated(case):
    _, f, g, r, s, weight = case
    ref = _whole_table_mod_norm(f, g, r, s, weight)
    assert abs(mod_norm(f, g, r, s, weight) - ref) <= 1e-12 * ref


def test_mod_norm_matches_whole_table_across_row_blocks():
    n = 1536
    rows = BLOCK_ENTRIES // n
    assert n > rows and n % rows != 0  # several blocks, the last one partial
    grid = Grid((37 - n // 2) * 20.0 / n, 20.0 / n, n)
    f = gaussian_mixture_family(grid, 1, 79)[0]
    g = gaussian_window(grid)
    m = radial_weight(1.0)
    assert (mod_norm(f, g, 2.0, 3.0, m)
            == pytest.approx(_whole_table_mod_norm(f, g, 2.0, 3.0, m), rel=1e-12))


def _raise(*args, **kwargs):
    raise AssertionError("the two modulation norms must not share a kernel")


def test_a_mod_norm_uses_no_stft(monkeypatch):
    grid = Grid(-3.3, 0.1, 67)
    f = gaussian_mixture_family(grid, 1, 80)[0]
    g = gaussian_window(grid)
    m = radial_weight(1.0)
    ref = a_mod_norm_oracle(GENERIC, f, g, 2.0, 3.0, m)
    monkeypatch.setattr(timefreq, "stft", _raise)
    monkeypatch.setattr(timefreq, "_stft_rows", _raise)
    assert a_mod_norm(GENERIC, f, g, 2.0, 3.0, m) == pytest.approx(ref, rel=1e-12)


def test_a_mod_norm_parseval_path_does_not_depend_on_the_split(monkeypatch):
    # 1475 rows are 67 blocks of 22 and one lone row, which numpy would take
    # as a dot product, not a matvec: that rounded this norm differently
    n = 1475
    assert n % (BLOCK_ENTRIES // n) == 1
    grid = Grid(-(n // 2) * 0.1, 0.1, n)
    f = gaussian_mixture_family(grid, 1, 67)[0]
    g = gaussian_window(grid)
    p = frft_params(np.pi / 4)
    split = a_mod_norm(p, f, g, 2.0, 1.0, unit_weight())
    monkeypatch.setattr(timefreq, "block_rows", lambda n: n)  # one block
    assert split == a_mod_norm(p, f, g, 2.0, 1.0, unit_weight())


def test_a_mod_norm_at_r2_unit_weight_makes_no_inverse_fft(monkeypatch):
    grid = Grid(-3.3, 0.1, 67)
    f = gaussian_mixture_family(grid, 1, 80)[0]
    g = gaussian_window(grid)
    ref = a_mod_norm_oracle(GENERIC, f, g, 2.0, 3.0, unit_weight())
    monkeypatch.setattr(np.fft, "ifft", _raise)
    assert a_mod_norm(GENERIC, f, g, 2.0, 3.0, unit_weight()) == pytest.approx(ref, rel=1e-12)
    with pytest.raises(AssertionError):  # the general path still inverts
        a_mod_norm(GENERIC, f, g, 2.0, 3.0, radial_weight(1.0))


def test_mod_norm_uses_no_a_mod_norm(monkeypatch):
    grid = Grid(-3.3, 0.1, 67)
    f = gaussian_mixture_family(grid, 1, 81)[0]
    g = gaussian_window(grid)
    m = radial_weight(1.0)
    ref = _whole_table_mod_norm(f, g, 2.0, 3.0, m)
    monkeypatch.setattr(timefreq, "a_mod_norm", _raise)
    monkeypatch.setattr(timefreq, "a_mod_norm_oracle", _raise)
    monkeypatch.setattr(timefreq, "quad_chirp", _raise)
    assert mod_norm(f, g, 2.0, 3.0, m) == pytest.approx(ref, rel=1e-12)


def test_norm_kernels_take_linearly_many_exponentials(monkeypatch):
    n = 512
    grid = centered_grid(10.0, n)
    f = gaussian_mixture_family(grid, 1, 82)[0]
    g = gaussian_window(grid)
    m = radial_weight(1.0)
    exp = np.exp
    count = [0]

    def counting_exp(x, *args, **kwargs):
        count[0] += np.size(x)
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting_exp)
    a_mod_norm(GENERIC, f, g, 2.0, 3.0, m)
    assert 0 < count[0] <= 4 * n
    count[0] = 0
    stft(f, g)
    assert 0 < count[0] <= 4 * n


@pytest.mark.parametrize("norm", ("mod_norm", "a_mod_norm"))
def test_norms_run_above_the_stft_limit_in_bounded_memory(norm):
    # the whole STFT table at this size would be 1 GiB
    n = 8192
    assert n > STFT_MAX_COUNT
    grid = centered_grid(10.0, n)
    f = gaussian_mixture_family(grid, 1, 83)[0]
    g = gaussian_window(grid)
    tracemalloc.start()
    try:
        value = (mod_norm(f, g, 2.0, 2.0, unit_weight()) if norm == "mod_norm"
                 else a_mod_norm(GENERIC, f, g, 2.0, 2.0, unit_weight()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    # at r = s = 2 with the unit weight both norms are ||f||_2 ||g||_2 (Moyal)
    assert value == pytest.approx(lr_norm(f, 2) * lr_norm(g, 2), rel=1e-9)


def test_stft_rejects_sizes_above_the_limit():
    n = STFT_MAX_COUNT + 1
    f = Signal(centered_grid(10.0, n), np.zeros(n), "cyclic")
    with pytest.raises(ValueError, match=f"N = {n} is above the limit of "
                       f"{STFT_MAX_COUNT} samples"):
        stft(f, f)


def test_weight_transport_exact_for_concentrated_signals():
    n = 256
    grid = _self_dual_grid(n)
    f = sample(lambda t: np.exp(-np.pi * (t - 0.4) ** 2)
               * np.exp(2j * np.pi * 0.7 * t), grid, "cyclic")
    g = sample(lambda t: np.exp(-np.pi * t * t), grid, "cyclic")
    ells = (0, 1, 2)
    rhs = timefreq._mod_norms(f, window_flip(g), 2.0, 2.0,
                              [radial_weight(ell) for ell in ells])
    for abcd in ((0, 1, -1, 0), (1, 1, 0, 1)):
        p = make_params(*abcd)
        F, G = timefreq._transformed_pair(p, f, g)
        lhs = timefreq._mod_norms(F, window_flip(G), 2.0, 2.0,
                                  [transported_weight(ell, p) for ell in ells])
        assert lhs == pytest.approx(rhs, rel=1e-2)


def test_window_independence_band():
    grid = centered_grid(10.0, 128)
    fam = gaussian_mixture_family(grid, 8, 76)
    gw = gaussian_window(grid)
    rw = raised_cosine_window(grid)
    ratios = [a_mod_norm(GENERIC, f, gw, 2.0, 4.0, unit_weight())
              / a_mod_norm(GENERIC, f, rw, 2.0, 4.0, unit_weight())
              for f in fam]
    assert 0.90 <= min(ratios) and max(ratios) <= 1.20


def test_window_flip_is_conjugate_reversal():
    grid = centered_grid(4.0, 8)
    g = Signal(grid, np.arange(8) + 1j, "cyclic")
    flipped = window_flip(g)
    assert np.allclose(flipped.samples,
                       np.conj(g.samples[[0, 7, 6, 5, 4, 3, 2, 1]]))


def test_tf_matrix_serialization_roundtrip(tmp_path):
    grid = centered_grid(4.0, 32)
    f = gaussian_mixture_family(grid, 1, 77)[0]
    V = stft(f, gaussian_window(grid), window_id="gaussian")
    path = tmp_path / "V.json"
    save_json(tf_to_dict(V), str(path))
    obj = json.loads(path.read_bytes())
    values = np.array(obj["values"]).view(complex)[:, 0]
    assert values.tobytes() == V.values.tobytes()
    assert values.size == obj["x_count"] * obj["w_count"]
    assert Grid(obj["x_start"], obj["x_step"], obj["x_count"]) == V.x_grid
    assert Grid(obj["w_start"], obj["w_step"], obj["w_count"]) == V.w_grid
    assert obj["window_id"] == "gaussian"


def test_tf_matrix_shape_validation():
    grid = centered_grid(4.0, 8)
    with pytest.raises(ValueError):
        TFMatrix(grid, grid, np.zeros((8, 4)))


# ---------------------------------------------------------------------------
# The streamed covariance checks and a_mod_norm's cache-sized blocks against
# whole-table references, bit for bit.

def _whole_table_chirp_check(f, g, s):
    """chirp_stft_covariance_check on whole N x N tables."""
    V0 = stft(f, g)
    shear_step = V0.w_grid.steps_of(s * f.grid.step, "")
    shear_base = V0.w_grid.steps_of(s * f.grid.start, "")
    lhs = stft(chirp(f, s), chirp(g, s)).values
    x = f.grid.nodes()
    shift = shear_base + np.arange(f.grid.count) * shear_step
    rolled = timefreq._shift_rows(V0.values, -shift, np.empty_like(V0.values))
    rhs = np.exp(-1j * np.pi * s * x * x)[:, None] * rolled
    return timefreq._relative(lhs - rhs, V0.values)


def _whole_table_a_covariance_check(params, f, g, xi, eta):
    """a_covariance_check on whole N x N tables."""
    V0 = stft(f, g)
    m_shift = f.grid.steps_of(xi, "")
    k_shift = V0.w_grid.steps_of((params.a * xi - eta) / params.b, "")
    lhs = stft(a_translate(a_modulate(f, params, eta), params, xi), g).values
    w = V0.w_grid.nodes()
    rolled = np.roll(V0.values, (m_shift, -k_shift), axis=(0, 1))
    rhs = pre_chirp(params, -eta) * np.exp(-2j * np.pi * xi * w)[None, :] * rolled
    return timefreq._relative(lhs - rhs, V0.values)


def _covariance_inputs(mode, n, k0, seed):
    grid = Grid(k0 * 0.1, 0.1, n)
    rng = np.random.default_rng(seed)
    f = Signal(grid, rng.standard_normal(n) + 1j * rng.standard_normal(n), mode)
    g = Signal(grid, np.exp(-((grid.nodes() - grid.start - grid.span / 2) / (0.15 * grid.span)) ** 2)
               * (1 + 0.3j * rng.standard_normal(n)), mode)
    return grid, f, g


B_NEGATIVE = make_params(1, -0.5, 0, 1, 0.2, -0.1)


@pytest.mark.parametrize("mode", ("cyclic", "compact"))
# 15..97 are one block of _cache_rows(N) = N rows; 182 is the first N of two
# blocks, the last of 2 rows; 512 is eight blocks of 64; 600 takes 54 rows
# per block, the last one partial
@pytest.mark.parametrize("n", (15, 16, 17, 64, 97, 182, 512, 600))
@pytest.mark.parametrize("origin", ("-N/2", "-N/2+3", "N/3", "-2N"))
def test_streamed_covariance_checks_equal_whole_table_checks(mode, n, origin):
    k0 = {"-N/2": -(n // 2), "-N/2+3": 3 - n // 2, "N/3": n // 3, "-2N": -2 * n}[origin]
    grid, f, g = _covariance_inputs(mode, n, k0, [n, k0 % 1000, mode == "cyclic"])
    dxi = 1.0 / grid.span
    for j in (2, -3):
        s = j * dxi / grid.step
        assert chirp_stft_covariance_check(f, g, s) == _whole_table_chirp_check(f, g, s)
    # xi in steps: negative, small, near the window end and past it, so the
    # start row of V_g f wraps past N at several places in the blocks
    for params in (GENERIC, B_NEGATIVE):
        for m, k in ((-5, 2), (3, -1), (n - 2, 0), (2 * n + 7, 4)):
            xi = m * grid.step
            eta = params.a * xi - params.b * k * dxi
            assert (a_covariance_check(params, f, g, xi, eta)
                    == _whole_table_a_covariance_check(params, f, g, xi, eta))


@pytest.mark.parametrize("mode", ("cyclic", "compact"))
@pytest.mark.parametrize("n, k0", ((16, -8), (17, 5), (97, -200), (97, 40), (600, -300)))
# buffers of 1, 7, 16, 64 and (rows = 0) N rows: 64 rows exceed N = 16, 17
@pytest.mark.parametrize("rows, start", ((1, 0), (7, 3), (16, -1), (64, 11), (0, 5)))
def test_stft_rows_from_a_cyclic_start_are_rows_of_the_table(mode, n, k0, rows, start):
    grid, f, g = _covariance_inputs(mode, n, k0, [n, rows, start % n])
    V = stft(f, g).values
    seen = []
    buf = np.empty((rows or n, n), dtype=complex)
    for lo, block in timefreq._stft_rows(f, g, buf, start % n):
        m = (start + lo + np.arange(len(block))) % n
        assert np.array_equal(block, V[m])
        seen += m.tolist()
    assert sorted(seen) == list(range(n))


def _whole_block_a_mod_norm(params, f, g, r, s, m):
    """a_mod_norm's general path in blocks of 2^18 values, eight times
    BLOCK_ENTRIES, so the two split the rows differently, each step
    making a fresh array."""
    grid = f.grid
    n = grid.count
    k0 = grid.steps_of(grid.start, "")
    x = grid.nodes()
    omegas = natural_freqs(params, grid)
    qc = quad_chirp(params, x)
    U = np.fft.fft(qc * f.samples)
    G = np.fft.fft(qc * g.samples)
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate((G, G, G)), n)
    top = n + n // 2
    xj = x[(np.arange(n) + k0) % n]
    scale = grid.step / np.sqrt(abs(params.b))
    inner = np.empty(n)
    rows = max(1, 2 ** 18 // n)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        block = np.multiply(windows[top - lo:top - hi:-1], U)
        conv = np.abs(np.fft.ifft(block, axis=1))
        conv *= weight_eval(m, xj, omegas[lo:hi, None])
        inner[lo:hi] = np.sum(conv ** r, axis=1)
    inner *= grid.step * scale ** r
    return timefreq._mixed_norm(inner, abs(params.b) * (1.0 / grid.span), r, s)


@pytest.mark.parametrize("n", (17, 181, 182, 600, 1536))
@pytest.mark.parametrize("r, s", ((2.0, 3.0), (1.0, 1.0), (3.5, 1.5)))
def test_a_mod_norm_cache_blocks_equal_whole_blocks(n, r, s):
    grid = Grid((37 - n // 2) * 20.0 / n, 20.0 / n, n)
    f = gaussian_mixture_family(grid, 1, 84)[0]
    g = gaussian_window(grid)
    for params in (GENERIC, B_NEGATIVE):
        for m in (radial_weight(1.0), transported_weight(2.0, params), unit_weight()):
            if r == 2.0 and m.ell == 0:
                continue  # the Parseval path, which this reference does not take
            assert (a_mod_norm(params, f, g, r, s, m)
                    == _whole_block_a_mod_norm(params, f, g, r, s, m))


@pytest.mark.parametrize("r", (1.0, 2.0, 3.3))
def test_in_place_powers_keep_the_norms_bit_for_bit(r):
    grid = centered_grid(10.0, 600)
    f = gaussian_mixture_family(grid, 1, 85)[0]
    g = gaussian_window(grid)
    m = radial_weight(1.0)
    x = grid.nodes()[:, None]
    w = spectrum_grid(fourier_params(), grid).nodes()[None, :]
    V = stft(f, window_flip(g))
    acc = np.sum((np.abs(V.values) * weight_eval(m, x, w)) ** r, axis=0)
    assert mod_norm(f, g, r, 2.0, m) == timefreq._mixed_norm(grid.step * acc,
                                                             1.0 / grid.span, r, 2.0)


# One block up to 181; 600 and 1000 split into blocks of 54 and 32 rows and
# 1536 into blocks of 21, each with a partial last block.  Compact mode
# flips the window about 0, so it needs the symmetric grid, which is on the
# step lattice only at odd N: it takes N + 1 nodes at even N.
@pytest.mark.parametrize("n", (15, 181, 600, 1000, 1536))
@pytest.mark.parametrize("mode, origin", (("cyclic", "-N/2+37"), ("cyclic", "N/3"),
                                          ("compact", "symmetric")))
def test_mod_norm_equals_the_whole_table_sum_bit_for_bit(n, mode, origin):
    if mode == "compact":
        n += 1 - n % 2
    k0 = {"-N/2+37": 37 - n // 2, "N/3": n // 3, "symmetric": -(n // 2)}[origin]
    grid, f, g = _covariance_inputs(mode, n, k0, [n, k0 % 1000, mode == "cyclic"])
    m = radial_weight(1.0)
    V = stft(f, window_flip(g))
    mag = np.abs(V.values) * weight_eval(m, V.x_grid.nodes()[:, None],
                                         V.w_grid.nodes()[None, :])
    for r in (1.0, 2.0, 3.3):
        inner = grid.step * np.sum(mag ** r, axis=0)
        assert (mod_norm(f, g, r, 3.0, m)
                == timefreq._mixed_norm(inner, V.w_grid.step, r, 3.0))


@pytest.mark.parametrize("norm", (a_mod_norm, a_mod_norm_oracle),
                         ids=("a_mod_norm", "a_mod_norm_oracle"))
def test_twisted_norms_reject_compact_mode(norm):
    # both twisted norms are cyclic convolutions: a compact-mode pair would
    # get the cyclic value, 9e-5 away from the compact mod_norm side of the
    # scaling identity here
    n = 257
    grid = Grid(-(n // 2) * 0.1, 0.1, n)
    f = gaussian_mixture_family(grid, 1, 86)[0]
    g = gaussian_window(grid)
    args = (2.0, 3.0, radial_weight(1.0))
    assert np.isfinite(norm(GENERIC, f, g, *args))
    fc, gc = (Signal(grid, h.samples, "compact") for h in (f, g))
    assert np.isfinite(mod_norm(fc, gc, *args))
    with pytest.raises(InputError, match="must be in cyclic mode"):
        norm(GENERIC, fc, gc, *args)

