import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from saftkit.engine import make_plan, saft_fast, spectrum_grid
from saftkit.grid import (Grid, Signal, Spectrum, centered_grid, impulse,
                          indicator, inner_product, load_signal,
                          load_signal_csv, lr_norm, sample, save_signal,
                          save_signal_csv, signal_from_dict, signal_to_dict,
                          spectrum_from_dict, spectrum_norm, spectrum_to_dict,
                          tail_mass)
from saftkit.params import fourier_params, make_params


def test_constant_one_has_unit_l2_norm():
    g = Grid(0.0, 0.01, 100)
    f = Signal(g, np.ones(100), "compact")
    assert lr_norm(f, 2) == pytest.approx(1.0)


def test_zero_signal_norm_is_zero():
    g = Grid(0.0, 0.1, 16)
    f = Signal(g, np.zeros(16), "compact")
    for r in (1, 2, np.inf):
        assert lr_norm(f, r) == 0.0


def test_impulse_l1_norm_is_one():
    g = Grid(-1.0, 0.125, 16)
    assert lr_norm(impulse(g, 5), 1) == pytest.approx(1.0)


def test_norm_rejects_r_below_one():
    g = Grid(0.0, 0.1, 16)
    with pytest.raises(ValueError):
        lr_norm(Signal(g, np.ones(16)), 0.5)


def test_indicator_sampling_count():
    g = centered_grid(4.0, 512)
    f = sample(indicator(-0.5, 0.5), g)
    assert int(np.sum(f.samples.real)) == 64
    nz = np.nonzero(f.samples.real)[0]
    assert nz[0] == 256 - 32 and nz[-1] == 256 + 31


def test_gaussian_sampling_peak_near_zero():
    g = centered_grid(4.0, 256)
    f = sample(lambda t: np.exp(-np.pi * t * t), g)
    assert np.all(f.samples.real > 0)
    assert abs(g.node(int(np.argmax(f.samples.real)))) <= g.step


def test_chirped_indicator_unit_modulus_on_support():
    p = make_params(1, 2, -2, -3, 0.3, -0.2)
    g = centered_grid(4.0, 256)
    rate = p.a / p.b
    f = sample(lambda t: np.exp(-1j * np.pi * rate * t * t)
               * ((t >= -0.5) & (t < 0.5)), g)
    on = np.abs(f.samples) > 0
    assert np.allclose(np.abs(f.samples[on]), 1.0, atol=1e-12)


def test_sampling_rejects_nonfinite():
    g = Grid(0.0, 0.5, 8)
    with np.errstate(divide="ignore"):
        with pytest.raises(ValueError):
            sample(lambda t: 1.0 / (t - 1.0), g)


def test_spectrum_norm_cases():
    p = fourier_params()
    g = centered_grid(8.0, 1024)
    sg = spectrum_grid(p, g)
    zero = Spectrum(p, sg, np.zeros(1024))
    assert spectrum_norm(zero, 2) == 0.0
    one_bin = np.zeros(1024, dtype=complex)
    one_bin[37] = 3.0 - 4.0j
    assert spectrum_norm(Spectrum(p, sg, one_bin), 1) == pytest.approx(sg.step * 5.0)


def test_unit_gaussian_spectrum_l2_norm():
    # frozen via the exact discrete Plancherel identity
    p = fourier_params()
    g = centered_grid(8.0, 1024)
    f = sample(lambda t: 2.0 ** 0.25 * np.exp(-np.pi * t * t), g, "cyclic")
    assert lr_norm(f, 2) == pytest.approx(1.0, abs=1e-10)
    F = saft_fast(make_plan(p, g), f)
    assert spectrum_norm(F, 2) == pytest.approx(1.0, abs=1e-10)


def test_norm_homogeneity_and_triangle():
    rng = np.random.default_rng(10)
    g = Grid(-2.0, 0.04, 100)
    for _ in range(5):
        u = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        v = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        c = complex(*rng.standard_normal(2))
        for r in (1.0, 2.0, 3.5, np.inf):
            fu, fv = Signal(g, u), Signal(g, v)
            assert lr_norm(Signal(g, c * u), r) == pytest.approx(
                abs(c) * lr_norm(fu, r), rel=1e-12)
            assert (lr_norm(Signal(g, u + v), r)
                    <= lr_norm(fu, r) + lr_norm(fv, r) + 1e-12)


def test_hoelder_pairing():
    rng = np.random.default_rng(11)
    g = Grid(-2.0, 0.04, 100)
    for r in (1.5, 2.0, 3.0):
        rp = r / (r - 1.0)
        u = Signal(g, rng.standard_normal(100) + 1j * rng.standard_normal(100))
        v = Signal(g, rng.standard_normal(100) + 1j * rng.standard_normal(100))
        assert abs(inner_product(u, v)) <= lr_norm(u, r) * lr_norm(v, rp) + 1e-12


def test_grid_coupling_identity():
    for p in (fourier_params(), make_params(1, -2, 1, -1, 0, 0)):
        g = Grid(-3.0, 0.025, 400)
        sg = spectrum_grid(p, g)
        assert sg.step * sg.count * g.step == pytest.approx(abs(p.b), rel=1e-12)
        assert sg.step > 0


def test_signal_json_roundtrip(tmp_path):
    g = Grid(-1.0, 0.25, 8)
    f = Signal(g, np.arange(8) * (1 + 2j), "cyclic")
    path = tmp_path / "f.json"
    save_signal(f, str(path))
    back = load_signal(str(path))
    assert back.mode == "cyclic"
    assert np.allclose(back.samples, f.samples)
    assert back.grid == f.grid


def test_signal_dict_format():
    g = Grid(0.0, 0.5, 2)
    d = signal_to_dict(Signal(g, np.array([1 + 2j, 3 - 4j])))
    assert d["samples"] == [[1.0, 2.0], [3.0, -4.0]]
    assert set(d) == {"start", "step", "mode", "samples"}
    f = signal_from_dict(json.loads(json.dumps(d)))
    assert np.allclose(f.samples, [1 + 2j, 3 - 4j])


def test_spectrum_dict_roundtrip():
    p = make_params(1, 2, -2, -3, 0.3, -0.2)
    g = centered_grid(4.0, 64)
    F = saft_fast(make_plan(p, g), sample(lambda t: np.exp(-t * t), g))
    back = spectrum_from_dict(json.loads(json.dumps(spectrum_to_dict(F))))
    assert back.params == p
    assert np.allclose(back.samples, F.samples)


def test_signal_csv_roundtrip(tmp_path):
    g = Grid(-1.0, 0.25, 8)
    f = Signal(g, np.arange(8) * (0.5 - 1j))
    path = tmp_path / "f.csv"
    save_signal_csv(f, str(path))
    back = load_signal_csv(str(path))
    assert np.allclose(back.samples, f.samples)
    assert back.grid.step == pytest.approx(0.25)


def test_csv_rejects_nonuniform_time(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,re,im\n0.0,1,0\n0.1,1,0\n0.3,1,0\n")
    with pytest.raises(ValueError):
        load_signal_csv(str(path))


def test_tail_mass_diagnostic():
    g = centered_grid(8.0, 256)
    centered = sample(lambda t: np.exp(-np.pi * t * t), g)
    assert tail_mass(centered) < 1e-10
    edge = sample(lambda t: np.exp(-np.pi * (t + 7.5) ** 2), g)
    assert tail_mass(edge) > 0.1


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(0.0, -0.1, 10)
    with pytest.raises(ValueError):
        Grid(0.0, 0.1, 1)
    with pytest.raises(ValueError):
        Signal(Grid(0.0, 0.1, 4), np.zeros(3))


# Lattice primitives on odd and even counts, centred and non-centred grids
# with negative origins.
LATTICE_GRIDS = (centered_grid(10.0, 256), centered_grid(10.0, 255),
                 Grid(-3.7, 0.05, 128), Grid(-1234.5, 0.125, 97))


@pytest.mark.parametrize("g", LATTICE_GRIDS, ids=("even", "odd", "neg", "far"))
def test_steps_of_whole_and_half_steps(g):
    for k in (0, 1, -1, 7, -g.count, 3 * g.count):
        assert g.steps_of(k * g.step, "shift") == k
    for k in (0, 1, -2, g.count):
        with pytest.raises(ValueError, match="^shift"):
            g.steps_of((k + 0.5) * g.step, "shift")


@given(k=st.integers(-10**6, 10**6), which=st.integers(0, len(LATTICE_GRIDS) - 1))
def test_steps_of_generated_offsets(k, which):
    g = LATTICE_GRIDS[which]
    assert g.steps_of(k * g.step, "offset") == k
    with pytest.raises(ValueError):
        g.steps_of((k + 0.5) * g.step, "offset")


@pytest.mark.parametrize("g", LATTICE_GRIDS, ids=("even", "odd", "neg", "far"))
def test_index_of_on_and_off_the_grid(g):
    for n in (0, 1, g.count // 2, g.count - 1):
        assert g.index_of(g.node(n)) == n
    with pytest.raises(ValueError, match="not on the grid"):
        g.index_of(g.node(3) + 0.5 * g.step)
    with pytest.raises(ValueError, match="outside the grid"):
        g.index_of(g.node(g.count))


@given(k=st.integers(-10**4, 10**4), which=st.integers(0, len(LATTICE_GRIDS) - 1),
       rel=st.floats(-1.0, 1.0))
def test_same_as_tolerance(k, which, rel):
    g = LATTICE_GRIDS[which]
    near = Grid(g.start + 0.9e-9 * rel * g.step, g.step * (1 + 0.9e-9 * rel), g.count)
    assert g.same_as(near) and near.same_as(g)
    assert not g.same_as(Grid(g.start + 2e-9 * g.step, g.step, g.count))
    assert not g.same_as(Grid(g.start, g.step * (1 + 2e-9), g.count))
    assert not g.same_as(Grid(g.start, g.step, g.count + 1))
    moved = Grid(g.start + k * g.step, g.step, g.count)
    assert g.same_as(moved) == (k == 0)
    assert not g.same_as(Grid(g.start + (k + 0.5) * g.step, g.step, g.count))
