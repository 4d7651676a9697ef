import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from saftkit import grid as grid_module
from saftkit.engine import make_plan, saft_fast, spectrum_grid
from saftkit.grid import (Grid, Signal, Spectrum, _pairs, centered_grid,
                          impulse, indicator, inner_product, load_signal,
                          load_spectrum, near_integer,
                          load_signal_csv, lr_norm, sample, save_columns_csv,
                          save_json, save_signal, save_signal_csv,
                          signal_from_dict, signal_to_dict, spectrum_from_dict,
                          spectrum_norm, spectrum_to_dict, tail_mass)
from saftkit.multipliers import LPBank, lp_project
from saftkit.params import InputError, fourier_params, make_params
from saftkit.timefreq import gaussian_window, stft, tf_to_dict


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


@pytest.mark.parametrize("start, step", ((float("nan"), 0.1), (float("inf"), 0.1),
                                         (0.0, float("inf")), (0.0, float("nan"))))
def test_grid_rejects_non_finite_start_and_step(start, step):
    with pytest.raises(ValueError, match="must be finite"):
        Grid(start, step, 16)


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


def test_signal_dict_format(tmp_path):
    g = Grid(0.0, 0.5, 2)
    d = signal_to_dict(Signal(g, np.array([1 + 2j, 3 - 4j])))
    assert d["samples"].tolist() == [[1.0, 2.0], [3.0, -4.0]]
    assert set(d) == {"start", "step", "mode", "samples"}
    path = tmp_path / "f.json"
    save_json(d, str(path))
    assert path.read_bytes() == (b'{"start":0.0,"step":0.5,"mode":"compact",'
                                 b'"samples":[[1.0,2.0],[3.0,-4.0]]}')
    f = load_signal(str(path))
    assert np.array_equal(f.samples, [1 + 2j, 3 - 4j]) and f.grid == g


def test_spectrum_dict_roundtrip(tmp_path):
    p = make_params(1, 2, -2, -3, 0.3, -0.2)
    g = centered_grid(4.0, 64)
    F = saft_fast(make_plan(p, g), sample(lambda t: np.exp(-t * t), g))
    path = tmp_path / "F.json"
    save_json(spectrum_to_dict(F), str(path))
    back = load_spectrum(str(path))
    assert back.params == p
    assert back.samples.tobytes() == F.samples.tobytes()
    assert back.freq_grid == F.freq_grid
    assert back.time_start == g.start


def test_spectrum_dict_without_time_start():
    g = centered_grid(4.0, 8)
    F = Spectrum(fourier_params(), g, np.ones(8))
    d = spectrum_to_dict(F)
    assert "time_start" not in d
    assert spectrum_from_dict(d).time_start is None


@pytest.mark.parametrize("key, value", (("start", None), ("step", [1]),
                                        ("time_start", None), ("time_start", "x")))
def test_spectrum_loader_rejects_non_numbers(key, value):
    obj = {"params": fourier_params().as_dict(), "start": 0.0, "step": 0.1,
           "samples": [[1.0, 0.0], [2.0, 0.0]], key: value}
    with pytest.raises(ValueError, match=f"^{key} must be a finite number"):
        spectrum_from_dict(obj)
    with pytest.raises(ValueError, match="params a must be a finite number"):
        spectrum_from_dict({**obj, "params": {**obj["params"], "a": None}})


@pytest.mark.parametrize("bad", (float("nan"), float("inf"), -float("inf")))
def test_loaders_reject_non_finite_samples(bad, tmp_path):
    pairs = [[1.0, 0.0], [0.0, bad], [2.0, 0.0]]
    with pytest.raises(ValueError, match="sample 1 of 3 is not finite"):
        signal_from_dict({"start": 0.0, "step": 0.1, "samples": pairs})
    with pytest.raises(ValueError, match="sample 1 of 3 is not finite"):
        spectrum_from_dict({"params": fourier_params().as_dict(), "start": 0.0,
                            "step": 0.1, "samples": pairs})
    with pytest.raises(ValueError, match="start must be a finite number"):
        signal_from_dict({"start": bad, "step": 0.1, "samples": pairs[::2]})
    with pytest.raises(ValueError, match="params b must be a finite number"):
        spectrum_from_dict({"params": {**fourier_params().as_dict(), "b": bad},
                            "start": 0.0, "step": 0.1, "samples": pairs[::2]})
    # the NaN and Infinity tokens that json.dumps writes
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"start": 0.0, "step": 0.1, "samples": pairs}))
    with pytest.raises(InputError, match="sample 1 of 3 is not finite"):
        load_signal(str(path))
    path.write_text(json.dumps({"params": fourier_params().as_dict(), "start": 0.0,
                                "step": 0.1, "samples": pairs}))
    with pytest.raises(InputError, match="sample 1 of 3 is not finite"):
        load_spectrum(str(path))
    path.write_text(json.dumps({"start": 0.0, "step": bad, "samples": pairs[::2]}))
    with pytest.raises(InputError, match="step must be a finite number"):
        load_signal(str(path))
    path = tmp_path / "bad.csv"
    path.write_text(f"t,re,im\n0.0,1,0\n0.1,{bad},0\n0.2,1,0\n")
    with pytest.raises(ValueError, match="sample 1 of 3 is not finite"):
        load_signal_csv(str(path))


def test_signal_csv_roundtrip(tmp_path):
    g = Grid(-1.0, 0.25, 8)
    f = Signal(g, np.arange(8) * (0.5 - 1j))
    path = tmp_path / "f.csv"
    save_signal_csv(f, str(path))
    back = load_signal_csv(str(path))
    assert np.allclose(back.samples, f.samples)
    assert back.grid.step == pytest.approx(0.25)


EDGE_VALUES = np.array([0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
                        1e300, -1.7976931348623157e308, 1 / 3, -7.0])
# set part by part: complex arithmetic would turn some -0.0 parts into 0.0
EDGE_SAMPLES = np.empty(EDGE_VALUES.size, dtype=complex)
EDGE_SAMPLES.real, EDGE_SAMPLES.imag = EDGE_VALUES, -EDGE_VALUES[::-1]


def test_pairs_hold_each_sample_bit_for_bit():
    rng = np.random.default_rng(3)
    for z in (EDGE_VALUES + 1j * EDGE_VALUES[::-1],
              rng.standard_normal(64) * 1e300 + 1j * rng.standard_normal(64) * 1e-310,
              np.array([], dtype=complex)):
        ref = np.array([[float(v.real), float(v.imag)] for v in z]).reshape(-1, 2)
        got = _pairs(z)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        # tobytes tells -0.0 from 0.0
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def _old_writer_text(obj) -> str:
    """The text json.dumps wrote before the arrays: ", " separators and
    repr floats, NaN and Infinity for non-finite values."""
    return json.dumps(obj, default=lambda a: a.tolist())


def _values(doc):
    """The JSON document with every number as the bytes of its double, so
    that equality is bit for bit."""
    if isinstance(doc, dict):
        return {k: _values(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_values(v) for v in doc]
    if isinstance(doc, float):
        return np.float64(doc).tobytes()
    return doc


def test_save_json_reads_back_bit_for_bit(tmp_path):
    import orjson

    p = make_params(1, -2, 2, -3, 0.3, -0.2)
    edges = Signal(Grid(-1.5, 0.25, EDGE_VALUES.size),
                   EDGE_VALUES - 1j * EDGE_VALUES[::-1], "cyclic")
    smooth = sample(lambda t: np.exp(-t * t), centered_grid(8.0, 64), "cyclic")
    bank = LPBank.for_grid(p, smooth.grid)
    objs = {"signal": signal_to_dict(edges),
            "spectrum": spectrum_to_dict(saft_fast(make_plan(p, smooth.grid), smooth)),
            "tf": tf_to_dict(stft(smooth, gaussian_window(smooth.grid))),
            "lp": {str(j): signal_to_dict(b)
                   for j, b in zip(bank.levels, lp_project(p, bank, smooth))}}
    for name, obj in objs.items():
        path = tmp_path / f"{name}.json"
        save_json(obj, str(path))
        data = path.read_bytes()
        ref = _values(json.loads(_old_writer_text(obj)))
        assert _values(json.loads(data)) == ref, name
        assert _values(orjson.loads(data)) == ref, name
        assert b", " not in data and b": " not in data, name
    doc = orjson.loads((tmp_path / "tf.json").read_bytes())
    assert np.array(doc["values"]).tobytes() == objs["tf"]["values"].tobytes()


def test_files_from_the_old_writers_load_bit_for_bit(tmp_path):
    p = make_params(1, -2, 2, -3, 0.3, -0.2)
    f = Signal(Grid(-1.5, 0.25, EDGE_VALUES.size), EDGE_SAMPLES, "cyclic")
    F = Spectrum(p, Grid(-2.0, 0.5, EDGE_VALUES.size), EDGE_SAMPLES[::-1], 0.125)
    (tmp_path / "f.json").write_text(_old_writer_text(signal_to_dict(f)))
    (tmp_path / "F.json").write_text(_old_writer_text(spectrum_to_dict(F)))
    with open(tmp_path / "f.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "re", "im"])
        w.writerows([repr(x), repr(z.real), repr(z.imag)]
                    for x, z in zip(f.grid.nodes().tolist(), f.samples.tolist()))
    back = load_signal(str(tmp_path / "f.json"))
    assert back.samples.tobytes() == f.samples.tobytes()
    assert back.grid == f.grid and back.mode == "cyclic"
    G = load_spectrum(str(tmp_path / "F.json"))
    assert G.samples.tobytes() == F.samples.tobytes()
    assert (G.params, G.freq_grid, G.time_start) == (p, F.freq_grid, 0.125)
    back = load_signal_csv(str(tmp_path / "f.csv"))
    assert back.samples.tobytes() == f.samples.tobytes()
    assert back.grid.start == f.grid.start and back.grid.count == f.grid.count


@pytest.mark.parametrize("samples, message", (
    ([[True, 0.5], [False, -1]], None),
    ([[1, 0], [1, 0, 0]], "samples must be a list of \\[re, im\\] number pairs"),
    ([[1, 0], ["2", 0]], "samples must be a list of \\[re, im\\] number pairs"),
    ([[1, 0], [None, 0]], "samples must be a list of \\[re, im\\] number pairs"),
    ([1.0, 2.0], "samples must be a list of \\[re, im\\] number pairs"),
    ([[]], "samples must be a list of \\[re, im\\] number pairs"),
    ([], "grid needs at least two nodes"),
    ([[10 ** 400, 0], [1, 0]], "samples must lie within the float range"),
), ids=("booleans", "ragged", "string", "null", "flat", "empty-pair", "empty",
        "huge-int"))
def test_signal_loader_sample_rules(samples, message, tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"start": 0.0, "step": 0.5, "samples": samples}))
    if message is None:
        assert load_signal(str(path)).samples.tolist() == [1 + 0.5j, -1j]
        return
    with pytest.raises(InputError, match=message):
        load_signal(str(path))


def test_signal_csv_layout_holds_each_value_bit_for_bit(tmp_path):
    g = Grid(-1.5, 0.1, EDGE_VALUES.size)
    f = Signal(g, EDGE_VALUES[::-1] - 1j * EDGE_VALUES)
    path = tmp_path / "f.csv"
    save_signal_csv(f, str(path))
    data = path.read_bytes()
    assert data.startswith(b"t,re,im\r\n") and data.endswith(b"\r\n")
    lines = data.decode().split("\r\n")[1:-1]
    assert "\n" not in "".join(lines) and len(lines) == g.count
    rows = [line.split(",") for line in lines]
    assert all(len(row) == 3 for row in rows)
    got = np.array([[float(x) for x in row] for row in rows])
    ref = np.column_stack((g.nodes(), f.samples.real, f.samples.imag))
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("where", (1, 6))
def test_writers_reject_non_finite_samples(where, tmp_path):
    g = Grid(-1.5, 0.25, 8)
    for bad in (np.nan, np.inf, -np.inf):
        z = np.ones(g.count, dtype=complex)
        z[where] = complex(1.0, bad) if where % 2 else complex(bad, 0.0)
        f = Signal(g, z, "cyclic")
        message = f"^sample {where} of 8 is not finite"
        for save, name in ((save_signal, "f.json"), (save_signal_csv, "f.csv")):
            with pytest.raises(InputError, match=message):
                save(f, str(tmp_path / name))
        V = stft(f.with_samples(np.ones(g.count)), gaussian_window(g))
        V.values[0, where] = bad
        with pytest.raises(InputError, match=f"^sample {where} of 64 is not finite"):
            save_json(tf_to_dict(V), str(tmp_path / "V.json"))
    assert not list(tmp_path.iterdir())


def test_columns_csv_without_columns_is_the_header(tmp_path):
    path = tmp_path / "h.csv"
    save_columns_csv(str(path), ["t"], [])
    assert path.read_bytes() == b"t\r\n"


def test_csv_rejects_nonuniform_time(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,re,im\n0.0,1,0\n0.1,1,0\n0.3,1,0\n")
    with pytest.raises(ValueError):
        load_signal_csv(str(path))


def test_csv_rejects_nonuniform_time_at_a_tiny_step(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("t,re,im\n0,1,0\n1e-13,1,0\n5e-13,1,0\n")
    with pytest.raises(InputError, match="CSV time column must be uniform"):
        load_signal_csv(str(path))


@pytest.mark.parametrize("start, step", ((-1e6, 1e-3), (1e3, 1e-4), (5.0, 1e-7),
                                         (0.0, 1e-13)))
def test_csv_loads_what_save_signal_csv_writes(start, step, tmp_path):
    f = Signal(Grid(start, step, 64), np.arange(64) * (0.5 - 1j))
    path = tmp_path / "f.csv"
    save_signal_csv(f, str(path))
    back = load_signal_csv(str(path))
    assert np.array_equal(back.samples, f.samples) and back.mode == "compact"
    assert back.grid.start == start and back.grid.count == 64
    assert back.grid.step == pytest.approx(step, rel=1e-6)


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


def test_near_integer_tolerance_is_relative_above_one():
    # 1e-9 * max(1, |m|): 3e-9 at m = 3, 1e-9 below |m| = 1
    assert near_integer(3.0 + 2e-9) and near_integer(-3.0 - 2e-9)
    assert not near_integer(3.0 + 4e-9) and not near_integer(-3.0 - 4e-9)
    assert near_integer(0.5e-9) and not near_integer(2e-9)
    g = Grid(0.0, 0.5, 8)
    assert g.steps_of((3.0 + 2e-9) * 0.5, "shift") == 3
    with pytest.raises(InputError, match="^shift"):
        g.steps_of((3.0 + 4e-9) * 0.5, "shift")


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


@pytest.mark.parametrize("count", (1, 0, -3))
def test_centered_grid_rejects_fewer_than_two_nodes(count):
    with pytest.raises(InputError, match="at least two nodes"):
        centered_grid(10.0, count)


@pytest.mark.parametrize("r", (0.5, float("nan")))
def test_norms_reject_exponents_below_1_and_nan(r):
    f = Signal(Grid(0.0, 0.1, 4), np.ones(4))
    with pytest.raises(InputError, match="r >= 1"):
        lr_norm(f, r)
    with pytest.raises(InputError, match="r >= 1"):
        spectrum_norm(Spectrum(fourier_params(), f.grid, f.samples), r)


@pytest.mark.parametrize("scale, value", ((1e200, "inf"), (1e-200, "0.0")))
def test_norms_reject_a_value_outside_the_float_range(scale, value):
    # |f|^2 overflows at 1e200 and underflows at 1e-200; r = 1 and r = inf
    # stay in range, and zeros still have norm 0.0
    grid = Grid(0.0, 0.1, 4)
    for norm, make in ((lr_norm, lambda v: Signal(grid, v)),
                       (spectrum_norm, lambda v: Spectrum(fourier_params(), grid, v))):
        h = make(scale * np.ones(4))
        with np.errstate(over="ignore"), pytest.raises(
                InputError, match=f"L\\^2 norm of the samples is {value}, "
                "outside the float range"):
            norm(h, 2)
        assert norm(h, 1) == pytest.approx(0.4 * scale, rel=1e-15)
        assert norm(h, np.inf) == scale
        for r in (1, 2, np.inf):
            assert norm(make(np.zeros(4)), r) == 0.0


@pytest.mark.parametrize("name, text, message", (
    ("bad.json", "{nope", "Expecting property name"),
    ("bad.csv", "t,re,im\n0,1,x\n1,2,3\n", "could not convert string to float"),
))
def test_loaders_raise_input_error_on_unparsable_files(name, text, message, tmp_path):
    path = tmp_path / name
    path.write_text(text)
    load = load_signal_csv if name.endswith(".csv") else load_signal
    with pytest.raises(InputError, match=message):
        load(str(path))
    path.write_bytes(b"\xff\xfe garbage")
    with pytest.raises(InputError, match="utf-8"):
        load(str(path))


def _csv_outcome(path):
    """What load_signal_csv makes of a file: the grid and sample bytes, or
    the error type and message."""
    try:
        f = load_signal_csv(path)
    except Exception as exc:  # noqa: BLE001 -- the outcome is the exception
        return type(exc), str(exc)
    return (np.array([f.grid.start, f.grid.step]).tobytes(), f.grid.count,
            f.samples.tobytes(), f.mode)


def _row_parser_outcome(path, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(grid_module, "_csv_columns_fast", lambda data: None)
        return _csv_outcome(path)


CSV_BODIES = {
    "crlf": "t,re,im\r\n0,1.5,-2\r\n0.5,-0,3e-5\r\n1,7,8\r\n",
    "lf": "t,re,im\n0,1.5,-2\n0.5,-0,3e-5\n1,7,8\n",
    "lone-cr": "t,re,im\r0,1,2\r0.5,3,4\r",
    "no-final-line-end": "t,re,im\n0,1,2\n0.5,3,4",
    "upper-header": "T,Re,Im\n0,1,2\n0.5,3,4\n",
    "quoted-cells": 't,re,im\n"0",1,2\n0.5,"3",4\n',
    "quoted-header": '"t",re,im\n0,1,2\n0.5,3,4\n',
    "quote-spans-lines": 't,"re\n0,1,2\n0.5,3,4\n",im\n1,5,6\n1.5,7,8\n',
    "extra-columns": "t,re,im,x\n0,1,2,9\n0.5,3,4,9\n",
    "extra-text-column": "t,re,im,x\n0,1,2,a\n0.5,3,4,b\n",
    "ragged-extra-columns": "t,re,im\n0,1,2,9\n0.5,3,4\n",
    "trailing-comma": "t,re,im\n0,1,2,\n0.5,3,4,\n",
    "blank-lines": "t,re,im\n\n0,1,2\r\n\r\n0.5,3,4\n\n",
    "blank-cell-lines": "t,re,im\n0,1,2\n   \n0.5,3,4\n",
    "empty-first-cell": "t,re,im\n0,1,2\n,5,6\n0.5,3,4\n",
    "interior-header": "t,re,im\n0,1,2\nt,re,im\n0.5,3,4\n",
    "interior-t-row": "t,re,im\n0,1,2\nt,1,2\n0.5,3,4\n",
    "spaces-in-cells": "t,re,im\n 0 ,\t1,2 \n0.5, 3 ,4\n",
    "underscore": "t,re,im\n0,1_0,2\n0.5,3,4\n",
    "nan-sample": "t,re,im\n0,nan,2\n0.5,3,4\n",
    "nan-time": "t,re,im\nnan,1,2\n0.5,3,4\n",
    "inf-words": "t,re,im\n0,Infinity,2\n0.5,-inf,4\n",
    "1e400": "t,re,im\n0,1e400,2\n0.5,3,4\n",
    "1e-400": "t,re,im\n0,1e-400,2\n0.5,3,4\n",
    "two-columns": "t,re\n0,1\n0.5,3\n",
    "one-row": "t,re,im\n0,1,2\n",
    "header-only": "t,re,im\n",
    "empty": "",
    "no-header": "0,1,2\n0.5,3,4\n",
    "comment-mark": "t,re,im\n0,1,2 # note\n0.5,3,4\n",
    "word": "t,re,im\n0,1,x\n0.5,3,4\n",
    "nonuniform": "t,re,im\n0,1,2\n0.5,3,4\n2,5,6\n",
    "long-digits": "t,re,im\n0,1." + "0" * 400 + "1,2\n0.5,3,4\n",
    "hex": "t,re,im\n0,0x10,2\n0.5,3,4\n",
}


@pytest.mark.parametrize("name", CSV_BODIES)
def test_csv_fast_pass_loads_and_refuses_as_the_row_parser(name, tmp_path, monkeypatch):
    path = str(tmp_path / "f.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(CSV_BODIES[name])
    assert _csv_outcome(path) == _row_parser_outcome(path, monkeypatch)


@pytest.mark.parametrize("data", (b"t,re,im\n0,1,2\x00\n0.5,3,4\n", b"\xef\xbb\xbft,re,im\n0,1,2\n0.5,3,4\n",
                                  b"t,re,im\n0,1,2\n0.5,3,\xff\n", "t,re,im\n0,١,2\n0.5,3,4\n".encode(),
                                  b"t,re,im\n0,1," + b"1" * 131073 + b"\n0.5,3,4\n"),
                         ids=("nul", "bom", "not-utf-8", "arabic-digit", "over-field-limit"))
def test_csv_fast_pass_matches_the_row_parser_on_odd_bytes(data, tmp_path, monkeypatch):
    path = str(tmp_path / "f.csv")
    with open(path, "wb") as fh:
        fh.write(data)
    assert _csv_outcome(path) == _row_parser_outcome(path, monkeypatch)


@settings(max_examples=300, deadline=None)
@given(body=st.lists(st.lists(st.text("0123456789+-.eEnaifty_ \t,\"", max_size=6),
                              min_size=1, max_size=4), max_size=5),
       ending=st.sampled_from(("\n", "\r\n", "\r")))
def test_csv_fast_pass_matches_the_row_parser_generated(body, ending, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("csv") / "f.csv")
    text = "t,re,im" + ending + "".join(",".join(row) + ending for row in body)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    fast = _csv_outcome(path)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(grid_module, "_csv_columns_fast", lambda data: None)
        assert fast == _csv_outcome(path)


@pytest.mark.parametrize("ending", ("\r\n", "\n"))
def test_csv_written_files_take_the_fast_pass(ending, tmp_path, monkeypatch):
    f = Signal(Grid(-3.0, 0.125, 48), np.random.default_rng(5).standard_normal(48)
               * (1 - 2j), "compact")
    path = str(tmp_path / "f.csv")
    save_signal_csv(f, path)
    if ending == "\n":
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data.replace(b"\r\n", b"\n"))
    monkeypatch.setattr(grid_module, "_csv_columns", None)  # the row parser is not called
    back = load_signal_csv(path)
    assert back.samples.tobytes() == f.samples.tobytes()
    assert back.grid == f.grid
