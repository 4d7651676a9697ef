import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from saftkit.engine import dft_frequencies, make_plan, saft_fast
from saftkit.grid import (Grid, Signal, centered_grid, lr_norm, sample,
                          save_json)
from saftkit.operators import chirp
from saftkit.params import (InputError, fourier_params, freq_scaled_weight,
                            frft_params, make_params, radial_weight,
                            sheared_weight, transported_weight, unit_weight,
                            weight_eval)
from saftkit import timefreq
from saftkit.timefreq import (TF_BLOCK_ENTRIES, STFT_MAX_COUNT, TFMatrix,
                              a_covariance_check, a_mod_norm,
                              a_mod_norm_oracle,
                              chirp_stft_covariance_check, gaussian_window,
                              mod_norm, raised_cosine_window,
                              saft_stft_identity_check, stft, tf_to_dict,
                              weighted_tf_norm, window_flip)
from saftkit.families import gaussian_mixture_family
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
# N = 600 takes TF_BLOCK_ENTRIES // 600 = 436 rows per block, so the last
# block is partial; in compact mode N/2 and -3N/2 put some rows of a block
# wholly in the zero padding, and 2N and -3N all of them.
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
    assert saft_stft_identity_check(fourier_params(), f, g) <= 1e-6


def test_saft_stft_identity_shear_mapping():
    grid = _self_dual_grid(256)
    f, g = gaussian_mixture_family(grid, 2, 67)
    p = make_params(1, 1, 0, 1, 0, 0)
    assert saft_stft_identity_check(p, f, g) <= 1e-6


@pytest.mark.parametrize("n", (8, 9))
def test_lattice_map_matches_the_index_gather(n):
    """The row-shift form of V[d i - b j, a j - c i] (centred indices mod N)
    moves the same entries as the gather through two N x N index tables."""
    V = np.random.default_rng(69).standard_normal((n, n))
    h = n // 2
    i, j = np.arange(n)[:, None] - h, np.arange(n)[None, :] - h
    for a, b, c, d in ((0, 1, -1, 0), (1, 1, 0, 1), (0, -1, 1, 0),
                       (1, -1, 0, 1), (2, 1, 1, 1)):
        gathered = V[(d * i - b * j + h) % n, (a * j - c * i + h) % n]
        assert np.array_equal(timefreq._lattice_map(V, a, b, c, d), gathered)


def test_saft_stft_identity_zero_signal():
    grid = _self_dual_grid(128)
    z = Signal(grid, np.zeros(128), "cyclic")
    g = gaussian_window(grid)
    assert saft_stft_identity_check(fourier_params(), z, g) == 0.0


def test_saft_stft_identity_rejects_incompatible():
    grid = _self_dual_grid(128)
    f, g = gaussian_mixture_family(grid, 2, 68)
    with pytest.raises(ValueError):
        saft_stft_identity_check(frft_params(0.7), f, g)
    bad_grid = centered_grid(10.0, 128)
    f2, g2 = gaussian_mixture_family(bad_grid, 2, 68)
    with pytest.raises(ValueError):
        saft_stft_identity_check(fourier_params(), f2, g2)


def test_saft_stft_identity_grid_rule_is_grid_same_as():
    """The grid must be Grid.same_as centered_grid(sqrt(N |b|) / 2, N):
    origin and step each within 1e-9 of the step."""
    n = 128
    ref = centered_grid(np.sqrt(n) / 2.0, n)
    f, g = gaussian_mixture_family(ref, 2, 68)
    near = Grid(ref.start + 0.8e-9 * ref.step, ref.step, n)
    assert saft_stft_identity_check(fourier_params(), Signal(near, f.samples, "cyclic"),
                                    Signal(near, g.samples, "cyclic")) <= 1e-6
    # a centred grid whose step is 1e-10 too long has its origin 6.4e-9 steps
    # off, and its edge nodes miss the lattice the transform maps onto
    far = centered_grid(n * ref.step * (1.0 + 1e-10) / 2.0, n)
    with pytest.raises(InputError, match="self-dual centred grid"):
        saft_stft_identity_check(fourier_params(), Signal(far, f.samples, "cyclic"),
                                 Signal(far, g.samples, "cyclic"))


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
    ratios = []
    for f in fam:
        lhs = mod_norm(chirp(f, s), g, 2.0, 2.0, sheared_weight(m, s))
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
              "sheared": sheared_weight(radial_weight(ell),
                                        draw(st.floats(-3.0, 3.0)))}[kind]
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
    rows = TF_BLOCK_ENTRIES // n
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


def _whole_table_mod_norm(f, g, r, s, m):
    """The mixed norm reduced from the whole STFT table against the flipped window."""
    V = stft(f, window_flip(g))
    wgt = weight_eval(m, V.x_grid.nodes()[:, None], V.w_grid.nodes()[None, :])
    inner = V.x_grid.step * np.sum((np.abs(V.values) * wgt) ** r, axis=0)
    return (V.w_grid.step * np.sum(inner ** (s / r))) ** (1.0 / s)


@settings(max_examples=60, deadline=None)
@given(case=amod_cases())
def test_mod_norm_matches_whole_table_generated(case):
    _, f, g, r, s, weight = case
    ref = _whole_table_mod_norm(f, g, r, s, weight)
    assert abs(mod_norm(f, g, r, s, weight) - ref) <= 1e-12 * ref


def test_mod_norm_matches_whole_table_across_row_blocks():
    n = 1536
    rows = TF_BLOCK_ENTRIES // n
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
    for abcd in ((0, 1, -1, 0), (1, 1, 0, 1)):
        p = make_params(*abcd)
        F = saft_fast(make_plan(p, grid), f)
        G = saft_fast(make_plan(p, grid), g)
        VA = stft(Signal(F.freq_grid, F.samples, "cyclic"),
                  Signal(G.freq_grid, G.samples, "cyclic"))
        V0 = stft(f, g)
        for ell in (0, 1, 2):
            lhs = weighted_tf_norm(VA, transported_weight(ell, p), 2.0)
            rhs = weighted_tf_norm(V0, radial_weight(ell), 2.0)
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
