import concurrent.futures
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from saftkit import engine
from saftkit.engine import (PLAN_CACHE_PLANS, apply_symbol, chirp_period_compatible,
                            dft_frequencies, heat_evolve, isaft, make_plan,
                            natural_freqs, project_ranges, saft, saft_fast,
                            saft_oracle, saft_oracle_family, sinc_reference,
                            spectrum_grid, twisted_derivative)
from saftkit.grid import (Grid, Signal, Spectrum, centered_grid, lr_norm,
                          sample, spectrum_norm)
from saftkit.operators import a_translate
from saftkit.params import (InputError, fourier_params, frft_params,
                            make_params, post_chirp)
from strategies import cases

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


def test_isaft_rejects_a_spectrum_made_under_other_parameters():
    g = centered_grid(8.0, 256)
    F = saft(fourier_params(), sample(lambda t: np.exp(-np.pi * t * t), g))
    plan = make_plan(make_params(1, 1, 0, 1), g)
    assert plan.freq_grid.same_as(F.freq_grid)  # same |b|, so the same grids
    with pytest.raises(InputError, match="other parameters than the plan"):
        isaft(plan, F)


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
        ref = sinc_reference(p, F.freq_grid.nodes())
        errs.append(np.max(np.abs(F.samples - ref)))
    assert errs[-1] <= 3e-2
    assert errs[1] <= 0.7 * errs[0] and errs[2] <= 0.7 * errs[1]


def test_sinc_reference_at_offset_p():
    for p in PSETS:
        val = sinc_reference(p, p.p)
        assert val == pytest.approx(post_chirp(p, p.p) / np.sqrt(abs(p.b)))


def test_sinc_reference_zero_at_integer_offset():
    for p in PSETS:
        assert abs(sinc_reference(p, p.p + p.b)) <= 1e-15


def test_sinc_reference_frft_closed_form():
    theta = 0.8
    p = frft_params(theta)
    w = np.linspace(-3, 3, 41)
    ref = (np.exp(1j * np.pi * w * w / np.tan(theta))
           / np.sqrt(abs(np.sin(theta))) * np.sinc(w / np.sin(theta)))
    got = sinc_reference(p, w)
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
    # p * span / b = 3 + 2e-9 passes and 3 + 4e-9 fails: the tolerance is
    # grid.near_integer's 1e-9 * max(1, |cycles|), 3e-9 here
    g = Grid(-0.5, 0.125, 8)  # span 1
    for b in (1.0, -1.0):
        assert chirp_period_compatible(make_params(1, b, 0, 1, b * (3 + 2e-9)), g)
        assert not chirp_period_compatible(make_params(1, b, 0, 1, b * (3 + 4e-9)), g)


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
            # apply_symbol skips post, which cancels: same values to rounding
            scale = np.max(np.abs(ref.samples))
            assert np.max(np.abs(out.samples - ref.samples)) <= 1e-14 * scale


@pytest.mark.parametrize("p", (GENERIC, make_params(1.0, -2.0, 1.0, -1.0, 0.2, 0.1)),
                         ids=("generic", "neg_b"))
@pytest.mark.parametrize("grid", (centered_grid(10.0, 256), Grid(-3.7, 0.05, 255)),
                         ids=("even", "odd_noncentered"))
def test_project_ranges_matches_spelled_out_path(p, grid):
    plan = make_plan(p, grid)
    n = grid.count
    ranges = ([(0, n)], [], [(0, 1), (n - 1, n)], [(3, 40), (100, 101), (200, 250)])
    for mode in ("cyclic", "compact"):
        f = _noise(grid, 37, mode)
        blocks = project_ranges(plan, f, ranges)
        assert len(blocks) == len(ranges)
        for spans, blk in zip(ranges, blocks):
            mask = np.zeros(n)
            for lo, hi in spans:
                mask[lo:hi] = 1.0
            ref = isaft(plan, Spectrum(p, plan.freq_grid,
                                       mask * saft_fast(plan, f).samples), mode)
            assert blk.mode == mode and blk.grid == grid
            assert np.max(np.abs(blk.samples - ref.samples)) <= 1e-12 * np.max(np.abs(f.samples))


def _refuse_threads(monkeypatch, cpus=4):
    """Patch _cpus to cpus and make starting a thread pool fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(engine, "_cpus", lambda: cpus)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)


def _rowwise_inverse(plan, rows):
    """The inverse step one row at a time: the reference for the batched call."""
    out = np.array(rows, dtype=complex, ndmin=2)
    for row in out:
        np.fft.ifft(row, out=row)
        row *= np.conjugate(plan.pre)
    return out


@pytest.mark.parametrize("p", (GENERIC, make_params(1.0, -2.0, 1.0, -1.0, 0.2, 0.1)),
                         ids=("generic", "neg_b"))
@pytest.mark.parametrize("n", (255, 257, 16385, 20011, 2 ** 15))
@pytest.mark.parametrize("k", (1, 2, 15))
def test_inverse_matches_rows_inverted_one_at_a_time(k, n, p):
    # 20011 is prime, so pocketfft takes its Bluestein path
    plan = make_plan(p, centered_grid(10.0, n))
    rng = np.random.default_rng(k * n)
    rows = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    ref = _rowwise_inverse(plan, rows)
    one = rows[0].copy()
    assert engine._inverse(plan, rows) is rows and rows.tobytes() == ref.tobytes()
    # one spectrum as a 1-D array, as isaft and apply_symbol hand it over
    assert engine._inverse(plan, one).tobytes() == ref[0].tobytes()


@pytest.mark.parametrize("p", PSETS + (make_params(1.0, -2.0, 1.0, -1.0, 0.2, 0.1),))
@pytest.mark.parametrize("n", (255, 256, 2 ** 15))
def test_forward_step_is_the_fft_of_pre_times_f(p, n):
    plan = make_plan(p, centered_grid(10.0, n))
    f = _noise(plan.grid, n)
    assert engine._forward(plan, f).tobytes() == \
        np.fft.fft(plan.pre * f.samples).tobytes()


def test_project_ranges_and_isaft_start_no_thread(monkeypatch):
    _refuse_threads(monkeypatch)
    grid = centered_grid(10.0, 2 ** 15)
    plan = make_plan(GENERIC, grid)
    f = _noise(grid, 44)
    edges = np.linspace(0, grid.count, 13).astype(int)
    blocks = project_ranges(plan, f, [[(lo, hi)] for lo, hi in zip(edges, edges[1:])])
    assert len(blocks) == 12
    back = isaft(plan, saft_fast(plan, f))
    assert np.max(np.abs(back.samples - f.samples)) <= 1e-12 * np.max(np.abs(f.samples))


@pytest.mark.parametrize("p", (GENERIC, make_params(1.0, -2.0, 1.0, -1.0, 0.2, 0.1)),
                         ids=("generic", "neg_b"))
@pytest.mark.parametrize("grid", (centered_grid(10.0, 2 ** 14),
                                  Grid(-3.7, 0.0005, 2 ** 14 + 1)),
                         ids=("even", "odd_noncentered"))
def test_split_inverse_matches_rows_inverted_alone(p, grid, monkeypatch):
    # three CPUs on four rows: the rows are still inverted in one call on
    # the calling thread, each as it is alone
    _refuse_threads(monkeypatch, cpus=3)
    plan = make_plan(p, grid)
    n = grid.count
    ranges = ([(0, n)], [], [(0, 1), (n - 1, n)], [(3, 4000), (9000, 9001)])
    f = _noise(grid, 41)
    blocks = project_ranges(plan, f, ranges)
    raw = engine._forward(plan, f)
    for spans, blk in zip(ranges, blocks):
        mask = np.zeros(n, dtype=bool)
        for lo, hi in spans:
            mask[lo:hi] = True
        row = np.where(mask[::-1] if plan.flip else mask, raw, 0)
        assert blk.samples.tobytes() == engine._inverse(plan, row).tobytes()


def test_inverse_starts_no_thread_below_the_floor_or_for_one_row(monkeypatch):
    _refuse_threads(monkeypatch)
    small = centered_grid(10.0, 2 ** 13)
    plan = make_plan(GENERIC, small)
    project_ranges(plan, _noise(small, 42), [[(0, 9)], [(9, 99)], [(99, 999)]])
    large = centered_grid(10.0, 2 ** 14)
    plan = make_plan(GENERIC, large)
    f = _noise(large, 43)
    project_ranges(plan, f, [[(0, 99)]])
    isaft(plan, saft_fast(plan, f))
    apply_symbol(plan, f, np.ones(large.count))


@pytest.mark.parametrize("cpus", (1, 2))
def test_split_inverse_runs_in_the_callers_error_state(cpus, monkeypatch):
    # whatever _cpus reports, both rows are inverted on the calling thread
    _refuse_threads(monkeypatch, cpus=cpus)
    plan = make_plan(GENERIC, centered_grid(10.0, 2 ** 14))
    rows = np.ones((2, plan.grid.count), dtype=complex)
    rows[1, 7] = np.inf
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        engine._inverse(plan, rows)
    rows.flags.writeable = False
    with pytest.raises(ValueError):
        engine._inverse(plan, rows)


def _recording(seen, value, delay=0.0):
    """A task that sleeps for delay, records its thread in seen and returns value."""
    def task():
        time.sleep(delay)
        seen.append((value, threading.current_thread()))
        return value
    return task


def test_side_by_side_returns_results_in_task_order(monkeypatch):
    monkeypatch.setattr(engine, "_cpus", lambda: 3)
    seen = []
    tasks = (_recording(seen, "a", 0.05), _recording(seen, "b", 0.1),
             _recording(seen, "c"))
    assert engine.side_by_side(*tasks) == ["a", "b", "c"]
    threads = dict(seen)
    assert threads["a"] is threading.main_thread()
    assert threading.main_thread() not in (threads["b"], threads["c"])


def _fail():
    raise RuntimeError("task failed")


@pytest.mark.parametrize("where", (0, 1, 2))
def test_side_by_side_raises_after_every_task_finished(where, monkeypatch):
    # where = 0 fails on the calling thread, 1 and 2 on a helper
    monkeypatch.setattr(engine, "_cpus", lambda: 3)
    seen = []
    tasks = [_recording(seen, k, 0.05) for k in range(2)]
    tasks.insert(where, _fail)
    with pytest.raises(RuntimeError, match="task failed"):
        engine.side_by_side(*tasks)
    assert sorted(value for value, _ in seen) == [0, 1]


@pytest.mark.parametrize("cpus, count", ((4, 0), (4, 1), (1, 3)))
def test_side_by_side_starts_no_thread_for_one_task_or_one_cpu(cpus, count,
                                                               monkeypatch):
    _refuse_threads(monkeypatch, cpus)
    seen = []
    tasks = [_recording(seen, k) for k in range(count)]
    assert engine.side_by_side(*tasks) == list(range(count))
    assert seen == [(k, threading.main_thread()) for k in range(count)]


def test_project_ranges_rejects_a_plan_for_another_grid():
    plan = make_plan(GENERIC, centered_grid(4.0, 64))
    with pytest.raises(InputError, match="plan was built for a different grid"):
        project_ranges(plan, _noise(centered_grid(4.0, 65), 2), [[(0, 5)]])


@pytest.mark.parametrize("shape", ((63,), (64, 1), ()))
def test_apply_symbol_rejects_values_off_the_grid(shape):
    plan = make_plan(GENERIC, centered_grid(4.0, 64))
    with pytest.raises(InputError, match="one per frequency node"):
        apply_symbol(plan, _noise(plan.grid, 2), np.ones(shape))


def test_apply_symbol_rejects_nonfinite_values():
    plan = make_plan(GENERIC, centered_grid(4.0, 64))
    values = np.ones(64)
    values[5] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        apply_symbol(plan, _noise(plan.grid, 2), values)


@settings(max_examples=80, deadline=None)
@given(case=cases())
def test_fast_path_identities_generated(case):
    params, f = case
    plan = make_plan(params, f.grid)
    F = saft_fast(plan, f)
    norm = lr_norm(f, 2)
    assert np.max(np.abs(F.samples - saft_oracle(params, f).samples)) <= 1e-10 * norm
    back = isaft(plan, F, f.mode)
    assert np.max(np.abs(back.samples - f.samples)) <= 1e-10 * np.max(np.abs(f.samples))
    assert abs(spectrum_norm(F, 2) - norm) <= 1e-10 * norm


@pytest.fixture
def plan_cache():
    make_plan.cache_clear()
    yield make_plan.cache_info
    make_plan.cache_clear()


def test_plan_cache_shares_plans_of_equal_pairs(plan_cache):
    plan = make_plan(GENERIC, Grid(-3.7, 0.05, 255))
    again = make_plan(make_params(1, 2, -2, -3, 0.3, -0.2), Grid(-3.7, 0.05, 255))
    assert again is plan
    assert plan_cache() == (1, 1, PLAN_CACHE_PLANS, 1)
    assert make_plan(GENERIC, Grid(-3.65, 0.05, 255)) is not plan
    assert make_plan(make_params(1, 2, -2, -3, 0.3, -0.1),
                     Grid(-3.7, 0.05, 255)) is not plan
    assert make_plan(GENERIC, Grid(-3.7, 0.05, 255)) is plan
    assert plan_cache() == (2, 3, PLAN_CACHE_PLANS, 3)


def test_plan_tables_are_read_only(plan_cache):
    plan = make_plan(GENERIC, centered_grid(4.0, 64))
    for table in (plan.pre, plan.post):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            table *= 2.0
    assert make_plan(GENERIC, centered_grid(4.0, 64)) is plan


def test_plan_cache_keeps_its_byte_budget(plan_cache, monkeypatch):
    # the byte budget's share of one plan fits the two tables of 64 points
    monkeypatch.setattr(engine, "PLAN_CACHE_BYTES", PLAN_CACHE_PLANS * 2 * 64 * 16)
    kept = make_plan(GENERIC, Grid(-4.0, 0.125, 64))
    assert kept.pre.nbytes + kept.post.nbytes == 2 * 64 * 16
    big = make_plan(GENERIC, Grid(-4.0, 0.125, 65))
    again = make_plan(GENERIC, Grid(-4.0, 0.125, 65))
    assert again is not big
    assert big.grid == again.grid == Grid(-4.0, 0.125, 65)
    assert np.array_equal(big.pre, again.pre) and np.array_equal(big.post, again.post)
    assert make_plan(GENERIC, Grid(-4.0, 0.125, 64)) is kept
    assert plan_cache() == (1, 1, PLAN_CACHE_PLANS, 1)


def test_plan_cache_keeps_its_plan_count(plan_cache):
    assert PLAN_CACHE_PLANS == 8
    grids = [Grid(-4.0 + 0.125 * k, 0.125, 64) for k in range(9)]
    plans = [make_plan(GENERIC, g) for g in grids[:8]]
    assert make_plan(GENERIC, grids[0]) is plans[0]  # now most recent
    make_plan(GENERIC, grids[8])  # evicts the least recent, grids[1]
    assert plan_cache().currsize == 8
    assert all(make_plan(GENERIC, g) is plan for g, plan in zip(grids[2:8], plans[2:8]))
    assert make_plan(GENERIC, grids[0]) is plans[0]
    assert make_plan(GENERIC, grids[1]) is not plans[1]
    assert plan_cache() == (8, 10, 8, 8)


def test_plan_cache_stays_consistent_under_threads(plan_cache):
    grids = [Grid(-4.0 + 0.125 * k, 0.125, 64) for k in range(10)]
    calls = 400
    results = [[] for _ in range(8)]

    def work(out):
        for i in range(calls):
            out.append(make_plan(GENERIC, grids[i % 10]))

    threads = [threading.Thread(target=work, args=(out,)) for out in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    refs = [engine._build_plan(GENERIC, g) for g in grids]
    for out in results:
        assert [plan.grid for plan in out] == [grids[i % 10] for i in range(calls)]
        assert all(np.array_equal(plan.pre, refs[i % 10].pre)
                   and np.array_equal(plan.post, refs[i % 10].post)
                   for i, plan in enumerate(out))
    info = plan_cache()
    assert info.hits + info.misses == len(threads) * calls
    assert info.currsize == PLAN_CACHE_PLANS


def test_oracles_use_no_fft_and_no_plan(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an oracle path called into the fast path")

    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, refuse)
    monkeypatch.setattr(engine, "make_plan", refuse)
    f = _noise(Grid(-3.7, 0.05, 255), 40)
    assert np.all(np.isfinite(saft_oracle(GENERIC, f).samples))
    assert np.all(np.isfinite(heat_evolve(GENERIC, f, 0.1, "kernel").samples))


def _one_signal_oracle(params, f):
    """The quadrature oracle for one signal, each 256-row chunk of the kernel
    evaluated for it alone."""
    t = f.grid.nodes()
    w_nat = natural_freqs(params, f.grid)
    a, b, p, d, W = params.a, params.b, params.p, params.d, params.omega0
    vals = np.empty(f.grid.count, dtype=complex)
    base = a * t * t + 2.0 * p * t
    for lo in range(0, f.grid.count, 256):
        wk = w_nat[lo:lo + 256, None]
        phase = np.exp(1j * np.pi / b * (base[None, :] - 2.0 * wk * t[None, :]
                                         + 2.0 * W * wk + d * wk * wk))
        vals[lo:lo + 256] = phase @ f.samples
    vals *= f.grid.step / np.sqrt(abs(b))
    return vals[::-1] if b < 0 else vals


@pytest.mark.parametrize("n", (100, 256, 300, 600))
@pytest.mark.parametrize("params", (GENERIC, make_params(1, -0.5, 0, 1, 0.2, -0.1)),
                         ids=("b>0", "b<0"))
def test_oracle_family_is_the_one_signal_oracle_bit_for_bit(n, params):
    # N = 100 is one block of engine.block_rows(N) kernel rows, 300 and 600
    # end on a partial block; the reference's 256-row chunks split the rows
    # differently at every N but 100
    grid = Grid((7 - n // 2) * 0.05, 0.05, n)
    family = [_noise(grid, seed) for seed in range(3)]
    for members in (family, family[:1]):
        spectra = saft_oracle_family(params, members)
        assert len(spectra) == len(members)
        for f, F in zip(members, spectra):
            ref = saft_oracle(params, f)
            assert np.array_equal(F.samples, ref.samples)
            assert np.array_equal(F.samples, _one_signal_oracle(params, f))
            assert F.freq_grid == ref.freq_grid and F.time_start == ref.time_start


def test_oracle_family_rejects_an_empty_or_mixed_family():
    grid = centered_grid(4.0, 32)
    with pytest.raises(InputError, match="empty"):
        saft_oracle_family(GENERIC, [])
    other = Grid(grid.start + grid.step, grid.step, grid.count)
    with pytest.raises(InputError, match="one grid"):
        saft_oracle_family(GENERIC, [_noise(grid, 1), _noise(other, 2)])


def test_oracle_memory_stays_bounded_at_large_n():
    # the oracle streams its kernel in blocks of engine.block_rows(N) rows,
    # so its traced peak stays a few N-vectors (about 2 MiB at 2^14)
    f = _noise(centered_grid(10.0, 2 ** 14), 44)
    tracemalloc.start()
    try:
        saft_oracle(GENERIC, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
