import csv
import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import saftkit
from saftkit.cli import main, parse_params, parse_symbol, parse_weight
from saftkit.aconv import aconv_fast
from saftkit.engine import heat_evolve, make_plan, saft_fast
from saftkit.grid import (Grid, Signal, centered_grid, load_signal,
                          load_spectrum, save_signal)
from saftkit.multipliers import LPBank, lp_project
from saftkit.operators import a_translate
from saftkit.params import InputError, WeightSpec, fourier_params, unit_weight
from saftkit.timefreq import a_mod_norm, gaussian_window, stft
from saftkit.verify import run_verify, standard_parameter_sets
from saftkit.families import gaussian_mixture_family


def test_parse_params_variants():
    assert parse_params("fourier") == fourier_params()
    p = parse_params("frft:0.5")
    assert p.a == pytest.approx(np.cos(0.5))
    p = parse_params("fresnel:2")
    assert (p.a, p.b) == (1.0, 2.0)
    p = parse_params("1,2,-2,-3,0.3,-0.2")
    assert p.p == 0.3
    p = parse_params("0,1,-1,0")
    assert p.q == 0.0
    with pytest.raises(Exception):
        parse_params("nonsense")


def test_parse_symbol_variants():
    assert parse_symbol("imagpow:1.5").alpha == 1.5
    assert parse_symbol("smoothsign:2").scale == 2.0
    assert parse_symbol("dyadicbump:3").level == 3
    assert parse_symbol("indicator:-1,2").intervals == ((-1.0, 2.0),)
    with pytest.raises(Exception):
        parse_symbol("wavelet:3")


def test_parse_weight_variants():
    assert parse_weight("unit") == WeightSpec(0.0, (1.0, 0.0, 0.0, 1.0))
    w = parse_weight("v_ell:2")
    assert w.ell == 2.0 and w.m == (1.0, 0.0, 0.0, 1.0)


@pytest.fixture
def signal_file(tmp_path):
    grid = centered_grid(10.0, 128)
    f = gaussian_mixture_family(grid, 1, 7)[0]
    path = tmp_path / "f.json"
    save_signal(f, str(path))
    return str(path), f


def test_cli_saft_isaft_roundtrip(signal_file, tmp_path):
    path, f = signal_file
    spec = str(tmp_path / "F.json")
    back = str(tmp_path / "f2.json")
    assert main(["saft", "--params", "frft:0.7", "--in", path, "--out", spec]) == 0
    assert main(["isaft", "--params", "frft:0.7", "--in", spec, "--out", back]) == 0
    f2 = load_signal(back)
    assert np.max(np.abs(f2.samples - f.samples)) <= 1e-10


def test_cli_isaft_restores_a_non_centred_origin(tmp_path):
    grid = Grid(-5.0, 20.0 / 512, 512)
    f = gaussian_mixture_family(grid, 1, 8)[0]
    path, spec, back = (str(tmp_path / name) for name in ("f.json", "F.json", "b.json"))
    save_signal(f, path)
    assert main(["saft", "--params", "frft:0.7854", "--in", path, "--out", spec]) == 0
    assert load_spectrum(spec).time_start == -5.0
    assert main(["isaft", "--in", spec, "--out", back]) == 0
    f2 = load_signal(back)
    assert f2.grid.same_as(grid)
    assert np.max(np.abs(f2.samples - f.samples)) <= 1e-10


def test_cli_isaft_centres_a_spectrum_without_origin(signal_file, tmp_path):
    path, f = signal_file
    spec = tmp_path / "F.json"
    back = str(tmp_path / "f2.json")
    main(["saft", "--params", "frft:0.7", "--in", path, "--out", str(spec)])
    obj = json.loads(spec.read_text())
    del obj["time_start"]
    spec.write_text(json.dumps(obj))
    assert main(["isaft", "--in", str(spec), "--out", back]) == 0
    n = f.grid.count
    assert load_signal(back).grid.start == pytest.approx(-n * f.grid.step / 2.0)


@pytest.mark.parametrize("obj, message", (
    ({"start": 0.0, "step": 0.1, "samples": [[1.0, 0.0]]}, "at least two nodes"),
    ({"start": 0.0, "step": 0.1,
      "samples": [[1.0, 0.0], [float("nan"), 0.0], [0.5, 0.0]]},
     "sample 1 of 3 is not finite"),
    ({"start": 0.0, "samples": [[1.0, 0.0], [0.5, 0.0]]}, "lacks 'step'"),
    ({"start": None, "step": 0.1, "samples": [[1.0, 0.0], [0.5, 0.0]]},
     "start must be a finite number"),
    ({"start": 0.0, "step": [1], "samples": [[1.0, 0.0], [0.5, 0.0]]},
     "step must be a finite number"),
    ({"start": 0.0, "step": 0.1, "samples": [[10 ** 400, 0], [1, 0]]},
     "samples must lie within the float range"),
    ({"start": -10 ** 400, "step": 0.1, "samples": [[1.0, 0.0], [0.5, 0.0]]},
     "start must be a finite number"),
), ids=("one-sample", "nan-sample", "no-step", "null-start", "list-step",
        "huge-int-sample", "huge-int-start"))
def test_cli_bad_input_exits_2_with_one_line(obj, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    out = tmp_path / "F.json"
    assert main(["saft", "--in", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("saftkit saft: error: ") and message in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_cli_bad_spectrum_exits_2(signal_file, tmp_path, capsys):
    path, _ = signal_file
    spec = tmp_path / "F.json"
    assert main(["saft", "--in", path, "--out", str(spec)]) == 0
    obj = json.loads(spec.read_text())
    obj["time_start"] = None
    spec.write_text(json.dumps(obj))
    assert main(["isaft", "--in", str(spec), "--out", str(tmp_path / "b.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("saftkit isaft: error: ") and "time_start" in err


def test_cli_inputs_on_different_grids_exit_2(tmp_path, capsys):
    paths = []
    for name, start in (("f.json", -5.0), ("g.json", -4.0)):
        paths.append(str(tmp_path / name))
        save_signal(gaussian_mixture_family(Grid(start, 0.05, 64), 1, 3)[0], paths[-1])
    assert main(["aconv", *paths, "--out", str(tmp_path / "h.json")]) == 2
    assert "signals must share a grid" in capsys.readouterr().err


def test_cli_library_errors_keep_their_traceback(tmp_path, monkeypatch):
    # a ValueError from library code that no input check wraps is a fault,
    # not bad input: it must surface as a traceback, not as exit 2
    def broken(*args, **kwargs):
        raise ValueError("injected library fault")

    monkeypatch.setattr("saftkit.cli.heat_evolve", broken)
    path = str(tmp_path / "f.json")
    save_signal(Signal(Grid(-4.0, 0.125, 64), np.ones(64), "cyclic"), path)
    with pytest.raises(ValueError, match="injected library fault"):
        main(["heat", "--t", "0.1", "--in", path, "--out", str(tmp_path / "g.json")])


@pytest.mark.parametrize("start, argv, message", (
    # default --eps at step 20/256: width 0.125 has quadrature mass 1.00064
    (-10.0, ["approxid"], "quadrature mass"),
    (-10.0 + 10.0 / 256, ["approxid", "--eps", "1,0.5"],
     "grid origin on the step lattice"),
    (-5.0, ["op", "--involute", "--out", "OUT"], "symmetric about 0"),
), ids=("approxid-eps", "approxid-off-lattice", "op-involute-asymmetric"))
def test_cli_bad_grids_exit_2(start, argv, message, tmp_path, capsys):
    n = 256 if argv[0] == "approxid" else 64
    step = 20.0 / 256 if argv[0] == "approxid" else 0.125
    path = str(tmp_path / "f.json")
    save_signal(Signal(Grid(start, step, n), np.ones(n), "compact"), path)
    out = tmp_path / "g.json"
    argv = [str(out) if a == "OUT" else a for a in argv]
    assert main([*argv, "--in", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"saftkit {argv[0]}: error: {path}: ")
    assert err.count("\n") == 1 and message in err
    assert not out.exists()


# Every input here once ended in a traceback or in NaN output; the library
# rejects each with an InputError (or argparse with its type), and `main`
# maps that to exit 2 without a case of its own.
BAD_INPUTS = {
    "stft-above-limit": ["stft", "--in", "BIG", "--out", "OUT"],
    "stft-off-lattice": ["stft", "--in", "HALF", "--out", "OUT"],
    "modnorm-off-lattice": ["modnorm", "-r", "2", "-s", "2", "--in", "HALF"],
    "amodnorm-off-lattice": ["amodnorm", "-r", "2", "-s", "2", "--in", "HALF"],
    "aconv-cyclic-off-lattice": ["aconv", "--mode", "cyclic", "HALF", "HALF",
                                 "--out", "OUT"],
    "modnorm-r-below-1": ["modnorm", "-r", "0.5", "-s", "2", "--in", "GOOD"],
    "young-r-below-1": ["young", "-r", "0.5", "-s", "1", "GOOD", "GOOD"],
    "lp-coarse-grid": ["lp", "--in", "TINY", "--out", "OUT"],
    "plotdata-lp-coarse-grid": ["plotdata", "--kind", "lp_blocks", "--in", "TINY",
                                "--out", "OUT"],
    "probe-lp-coarse-grid": ["probe", "--kind", "lp", "--size", "2"],
    "lp-empty-bank": ["lp", "--jmin", "3", "--jmax", "1", "--in", "GOOD",
                      "--out", "OUT"],
    "lp-level-overflow": ["lp", "--jmin", "0", "--jmax", "1100", "--in", "GOOD",
                          "--out", "OUT"],
    "heat-negative-time": ["heat", "--t", "-1", "--in", "GOOD", "--out", "OUT"],
    "heat-nan-time": ["heat", "--t", "nan", "--in", "GOOD", "--out", "OUT"],
    "opB-fd-4-samples": ["opB", "--method", "fd", "--in", "TINY", "--out", "OUT"],
    "isaft-nan-start": ["isaft", "--start", "nan", "--in", "SPEC", "--out", "OUT"],
    "out-in-missing-dir": ["saft", "--in", "GOOD", "--out", "NODIR"],
    "modnorm-nan-r": ["modnorm", "-r", "nan", "-s", "2", "--in", "GOOD"],
    "amodnorm-nan-s": ["amodnorm", "-r", "2", "-s", "nan", "--in", "GOOD"],
    "op-nan-chirp": ["op", "--chirp", "nan", "--in", "GOOD", "--out", "OUT"],
    "op-inf-modulate": ["op", "--modulate", "inf", "--in", "GOOD", "--out", "OUT"],
    "plotdata-nan-time": ["plotdata", "--kind", "heat_snapshots", "--t", "nan",
                          "--in", "GOOD", "--out", "OUT"],
    "bench-no-repeats": ["bench", "--sizes", "256", "--repeats", "0"],
    "probe-empty-family": ["probe", "--kind", "hormander", "--count", "0",
                           "--size", "64"],
    "probe-size-0": ["probe", "--kind", "hormander", "--size", "0"],
    "bench-size-0": ["bench", "--sizes", "0", "--repeats", "1"],
    "verify-negative-seed": ["verify", "--seed", "-1", "--tiers", "1", "--no-bench"],
    "probe-negative-seed": ["probe", "--kind", "hormander", "--seed", "-1"],
    "verify-tier-4": ["verify", "--tiers", "4", "--no-bench"],
    "mult-nan-indicator": ["mult", "--symbol", "indicator:nan,1", "--in", "GOOD",
                           "--out", "OUT"],
    "mult-empty-indicator": ["mult", "--symbol", "indicator:2,1", "--in", "GOOD",
                             "--out", "OUT"],
    "lp-jmin-alone": ["lp", "--jmin", "1", "--in", "GOOD", "--out", "OUT"],
    "lp-jmax-alone": ["lp", "--jmax", "1", "--in", "GOOD", "--out", "OUT"],
    "op-nan-output-json": ["op", "--chirp", "1e308", "--in", "GOOD", "--out", "OUT"],
    "op-nan-output-csv": ["op", "--chirp", "1e308", "--in", "GOOD", "--out", "CSV"],
    "amodnorm-huge-r": ["amodnorm", "-r", "1e300", "-s", "2", "--in", "GOOD"],
    "modnorm-huge-weight": ["modnorm", "-r", "2", "-s", "2", "--weight", "v_ell:1e300",
                            "--in", "GOOD"],
    "probe-hormander-huge-r": ["probe", "--kind", "hormander", "-r", "1e300",
                               "--size", "64", "--count", "2"],
    "probe-lp-huge-r": ["probe", "--kind", "lp", "-r", "1e300", "--size", "64",
                        "--count", "2"],
}
# The file the error line names, where the case has one: an error raised
# writing the output names --out, not the input it was computed from.
BAD_INPUT_FILES = {"op-nan-output-json": "OUT", "op-nan-output-csv": "CSV",
                   "amodnorm-huge-r": "GOOD", "modnorm-huge-weight": "GOOD",
                   "modnorm-off-lattice": "HALF", "out-in-missing-dir": "NODIR"}


@pytest.fixture
def bad_input_files(tmp_path):
    def write(name, grid):
        path = str(tmp_path / name)
        save_signal(Signal(grid, np.exp(-grid.nodes() ** 2), "cyclic"), path)
        return path

    files = {"GOOD": write("good.json", Grid(-4.0, 0.125, 64)),
             "HALF": write("half.json", Grid(-4.0 + 0.0625, 0.125, 64)),
             "BIG": write("big.json", Grid(-25.0, 0.01, 5000)),
             "TINY": write("tiny.json", Grid(-2.0, 1.0, 4)),
             "SPEC": str(tmp_path / "F.json"),
             "OUT": str(tmp_path / "out.json"),
             "CSV": str(tmp_path / "out.csv"),
             "NODIR": str(tmp_path / "missing" / "out.json")}
    assert main(["saft", "--in", files["GOOD"], "--out", files["SPEC"]]) == 0
    return files


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_cli_bad_input_exits_2_with_one_error_line(case, bad_input_files, capsys):
    argv = [bad_input_files.get(a, a) for a in BAD_INPUTS[case]]
    try:
        code, by_argparse = main(argv), False
    except SystemExit as exc:  # argparse prints its usage lines first
        code, by_argparse = exc.code, True
    lines = capsys.readouterr().err.splitlines()
    assert code == 2, lines
    named = bad_input_files[BAD_INPUT_FILES[case]] + ": " if case in BAD_INPUT_FILES else ""
    assert lines[-1].startswith(f"saftkit {argv[0]}: error: {named}")
    assert all(line.startswith(("usage:", " ")) for line in lines[:-1])
    assert by_argparse or len(lines) == 1
    assert not os.path.exists(bad_input_files["OUT"])
    assert not os.path.exists(bad_input_files["CSV"])


@pytest.mark.parametrize("argv, named", (
    (["op", "--chirp", "1e308", "--in", "good.json", "--out", "o.json"], "o.json"),
    (["op", "--chirp", "1e308", "--in", "good.json", "--out", "o.csv"], "o.csv"),
    (["amodnorm", "-r", "1e300", "-s", "2", "--in", "good.json"], "good.json"),
    (["modnorm", "-r", "2", "-s", "2", "--weight", "v_ell:1e300", "--in", "good.json"],
     "good.json"),
    (["probe", "--kind", "hormander", "-r", "1e300", "--size", "64", "--count", "2"], None),
    (["probe", "--kind", "lp", "-r", "1e300", "--size", "64", "--count", "2"], None),
), ids=("op-nan-output-json", "op-nan-output-csv", "amodnorm-huge-r",
        "modnorm-huge-weight", "probe-hormander-huge-r", "probe-lp-huge-r"))
def test_cli_process_prints_one_error_line_and_no_numpy_warning(argv, named, tmp_path):
    # pytest captures numpy's RuntimeWarnings in-process; a separate
    # interpreter shows everything that reaches stderr
    grid = Grid(-4.0, 0.125, 64)
    save_signal(Signal(grid, np.exp(-grid.nodes() ** 2), "cyclic"),
                str(tmp_path / "good.json"))
    src = str(pathlib.Path(saftkit.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-m", "saftkit.cli", *argv], cwd=tmp_path,
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 2 and run.stdout == ""
    lines = run.stderr.splitlines()
    prefix = f"saftkit {argv[0]}: error: " + (f"{named}: " if named else "")
    assert len(lines) == 1 and lines[0].startswith(prefix), run.stderr
    assert not (tmp_path / "o.json").exists() and not (tmp_path / "o.csv").exists()


def test_cli_lp_overflow_prints_one_error_line_and_no_warning(tmp_path, capsys):
    # the blocks of a 1e306 signal overflow to inf; main's numpy error state
    # silences the overflow, so the writer's refusal is the one line
    grid = centered_grid(10.0, 2 ** 14)
    rng = np.random.default_rng(5)
    path, out = str(tmp_path / "f.json"), str(tmp_path / "blocks.json")
    save_signal(Signal(grid, 1e306 * (rng.standard_normal(grid.count)
                                      + 1j * rng.standard_normal(grid.count)),
                       "cyclic"), path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["lp", "--in", path, "--out", out])
    lines = capsys.readouterr().err.splitlines()
    assert code == 2 and len(lines) == 1, lines
    assert lines[0].startswith(f"saftkit lp: error: {out}: ")
    assert [str(w.message) for w in caught] == []


def test_cli_young_failed_inequality_exits_1(signal_file, monkeypatch, capsys):
    monkeypatch.setattr("saftkit.cli.young_check", lambda *args: {
        "lhs": 2.0, "rhs": 1.0, "t": 1.0, "pass": False})
    path = signal_file[0]
    assert main(["young", "-r", "1", "-s", "1", path, path]) == 1
    assert "pass=False" in capsys.readouterr().out


@pytest.mark.parametrize("option", ("--translate", "--a-translate"))
def test_cli_off_lattice_shift_exits_2(option, tmp_path, capsys):
    path = str(tmp_path / "f.json")
    save_signal(Signal(Grid(-4.0, 0.125, 64), np.ones(64), "cyclic"), path)
    out = tmp_path / "g.json"
    assert main(["op", option, "0.1", "--in", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("saftkit op: error: ") and err.count("\n") == 1
    assert "shift 0.1 is not a multiple of the grid step" in err
    assert not out.exists()
    assert main(["op", option, "0.25", "--in", path, "--out", str(out)]) == 0


@pytest.mark.parametrize("text", ("nan,1,0,1,0,0", "1,1,0,1,0,inf"))
def test_cli_non_finite_params_exit_2(text, signal_file, tmp_path, capsys):
    out = tmp_path / "F.json"
    with pytest.raises(SystemExit) as exc:
        main(["saft", f"--params={text}", "--in", signal_file[0], "--out", str(out)])
    assert exc.value.code == 2
    assert "argument --params:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, reason", (
    (["mult", "--symbol", "indicator:2,1", "--in", "IN", "--out", "OUT"],
     "--symbol: indicator interval needs finite lo < hi, got [2.0, 1.0)"),
    (["saft", "--params=1,2,3,4", "--in", "IN", "--out", "OUT"],
     "--params: parameter matrix must be unimodular: ad-bc = -2.0"),
    (["saft", "--params", "frft:0", "--in", "IN", "--out", "OUT"],
     "--params: fractional angle must have sin(theta) != 0"),
    (["mult", "--symbol", "smoothsign:-1", "--in", "IN", "--out", "OUT"],
     "--symbol: transition scale must be positive"),
    (["modnorm", "-r", "2", "-s", "2", "--weight", "v_ell:-1", "--in", "IN"],
     "--weight: weight exponent must be >= 0"),
), ids=("indicator", "not-unimodular", "frft-0", "smoothsign", "v_ell"))
def test_cli_rejected_option_value_names_the_reason(argv, reason, signal_file,
                                                    tmp_path, capsys):
    out = tmp_path / "o.json"
    files = {"IN": signal_file[0], "OUT": str(out)}
    with pytest.raises(SystemExit) as exc:
        main([files.get(a, a) for a in argv])
    assert exc.value.code == 2
    assert f"error: argument {reason}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("half, warned", ((10.0, False), (8.0, True)))
def test_cli_aconv_cyclic_warns_off_the_chirp_period(half, warned, tmp_path,
                                                     capsys):
    # generic set: p * (N dt) / b = 0.3 * 2 half / 2 is 3 at half = 10, 2.4 at 8
    text = "1,2,-2,-3,0.3,-0.2"
    grid = centered_grid(half, 64)
    f, g = gaussian_mixture_family(grid, 2, 5)
    paths = [str(tmp_path / name) for name in ("f.json", "g.json")]
    for sig, path in zip((f, g), paths):
        save_signal(sig, path)
    out = tmp_path / "h.json"
    assert main(["aconv", f"--params={text}", "--mode", "cyclic", *paths,
                 "--out", str(out)]) == 0
    err = capsys.readouterr().err
    if warned:
        assert err.startswith("saftkit aconv: warning: ") and err.count("\n") == 1
    else:
        assert err == ""
    h = load_signal(str(out))
    ref = aconv_fast(parse_params(text), Signal(grid, f.samples, "cyclic"),
                     Signal(grid, g.samples, "cyclic"), "cyclic")
    assert np.array_equal(h.samples, ref.samples) and h.grid == ref.grid


def _seam_case(half, tmp_path, mode="cyclic"):
    """Generic-set input on a 64-node grid of half-width `half`: the offset
    chirp makes p * (N dt) / b = 0.3 * 2 half / 2 cycles per window, 3 at
    half = 10 and 2.4 at 8."""
    grid = centered_grid(half, 64)
    f = gaussian_mixture_family(grid, 1, 5, mode)[0]
    path = str(tmp_path / "f.json")
    save_signal(f, path)
    return "1,2,-2,-3,0.3,-0.2", f, path


def _assert_seam_warning(err, command, warned):
    if warned:
        assert err.startswith(f"saftkit {command}: warning: ") and err.count("\n") == 1
    else:
        assert err == ""


@pytest.mark.parametrize("half, mode, warned", ((10.0, "cyclic", False),
                                                (8.0, "cyclic", True),
                                                (8.0, "compact", False)))
def test_cli_op_a_translate_warns_off_the_chirp_period(half, mode, warned,
                                                       tmp_path, capsys):
    text, f, path = _seam_case(half, tmp_path, mode)
    shift = 5 * f.grid.step
    out = tmp_path / "g.json"
    assert main(["op", f"--params={text}", f"--a-translate={shift!r}",
                 "--in", path, "--out", str(out)]) == 0
    _assert_seam_warning(capsys.readouterr().err, "op", warned)
    ref = a_translate(f, parse_params(text), shift)
    assert np.array_equal(load_signal(str(out)).samples, ref.samples)


@pytest.mark.parametrize("half, warned", ((10.0, False), (8.0, True)))
def test_cli_amodnorm_warns_off_the_chirp_period(half, warned, tmp_path, capsys):
    text, f, path = _seam_case(half, tmp_path)
    assert main(["amodnorm", f"--params={text}", "-r", "2", "-s", "3",
                 "--in", path]) == 0
    printed = capsys.readouterr()
    ref = a_mod_norm(parse_params(text), f, gaussian_window(f.grid), 2.0, 3.0,
                     unit_weight())
    assert printed.out == f"{ref:.12e}\n"
    _assert_seam_warning(printed.err, "amodnorm", warned)


def test_cli_modnorm_never_warns_about_the_chirp_period(tmp_path, capsys):
    text, _, path = _seam_case(8.0, tmp_path)
    assert main(["modnorm", f"--params={text}", "-r", "2", "-s", "3",
                 "--in", path]) == 0
    assert capsys.readouterr().err == ""


def test_cli_saft_oracle_matches_fast(signal_file, tmp_path):
    path, _ = signal_file
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    main(["saft", "--params", "1,2,-2,-3,0.3,-0.2", "--in", path, "--out", a])
    main(["saft", "--params", "1,2,-2,-3,0.3,-0.2", "--oracle", "--in", path,
          "--out", b])
    Fa, Fb = load_spectrum(a), load_spectrum(b)
    assert np.max(np.abs(Fa.samples - Fb.samples)) <= 1e-10


def test_cli_op_and_heat(signal_file, tmp_path):
    path, f = signal_file
    out = str(tmp_path / "o.json")
    assert main(["op", "--translate", str(f.grid.step * 2), "--in", path,
                 "--out", out]) == 0
    assert main(["op", "--involute", "--in", path, "--out", out]) == 0
    assert main(["heat", "--t", "0.1", "--in", path, "--out", out]) == 0
    assert main(["opB", "--method", "fd", "--in", path, "--out", out]) == 0


def test_cli_young_exit_code(signal_file, tmp_path):
    path, _ = signal_file
    assert main(["young", "-r", "1", "-s", "1", path, path]) == 0


def test_cli_lp_blocks_json(signal_file, tmp_path):
    path, _ = signal_file
    out = str(tmp_path / "lp.json")
    assert main(["lp", "--in", path, "--out", out]) == 0
    payload = json.loads(open(out).read())
    assert len(payload) >= 2


def test_cli_plotdata_spectrum(signal_file, tmp_path):
    path, _ = signal_file
    out = str(tmp_path / "s.csv")
    assert main(["plotdata", "--kind", "spectrum_magnitude", "--in", path,
                 "--out", out]) == 0
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "omega,magnitude"
    assert len(lines) == 129


GENERIC_TEXT = "1,2,-2,-3,0.3,-0.2"


def _plotdata(kind, path, out, *extra):
    assert main(["plotdata", f"--params={GENERIC_TEXT}", "--kind", kind, "--in", path,
                 "--out", out, *extra]) == 0
    with open(out, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, [[float(x) for x in row] for row in rows]


def test_cli_plotdata_tf_magnitude(signal_file, tmp_path):
    path, f = signal_file
    header, rows = _plotdata("tf_magnitude", path, str(tmp_path / "tf.csv"))
    V = stft(Signal(f.grid, f.samples, "cyclic"), gaussian_window(f.grid))
    assert header == ["x", "omega", "magnitude"]
    assert len(rows) == f.grid.count ** 2
    ref = [[float(x), float(w), float(abs(V.values[i, k]))]
           for i, x in enumerate(V.x_grid.nodes())
           for k, w in enumerate(V.w_grid.nodes())]
    assert rows == ref


def test_cli_plotdata_lp_blocks(signal_file, tmp_path):
    path, f = signal_file
    header, rows = _plotdata("lp_blocks", path, str(tmp_path / "lp.csv"))
    P = parse_params(GENERIC_TEXT)
    bank = LPBank.for_grid(P, f.grid)
    blocks = lp_project(P, bank, Signal(f.grid, f.samples, "cyclic"))
    assert header == ["t"] + [f"abs_block_{j}" for j in bank.levels]
    assert len(rows) == f.grid.count and len(blocks) >= 2
    ref = [[float(t)] + [float(abs(b.samples[n])) for b in blocks]
           for n, t in enumerate(f.grid.nodes())]
    assert rows == ref


def test_cli_plotdata_heat_snapshots(signal_file, tmp_path):
    path, f = signal_file
    header, rows = _plotdata("heat_snapshots", path, str(tmp_path / "u.csv"),
                             "--t", "0.05,-1,0.2")
    P = parse_params(GENERIC_TEXT)
    fc = Signal(f.grid, f.samples, "cyclic")
    snaps = [heat_evolve(P, fc, t, "multiplier") for t in (0.05, 0.2)]
    assert header == ["t", "abs_u_t0.05", "abs_u_t0.2"]
    assert len(rows) == f.grid.count
    ref = [[float(t)] + [float(abs(u.samples[n])) for u in snaps]
           for n, t in enumerate(f.grid.nodes())]
    assert rows == ref


def test_cli_main_keeps_no_state_between_calls(signal_file, tmp_path, monkeypatch):
    """The parser is built once per process, yet each call parses into a
    fresh namespace, and a list default stays as declared after a command
    has used it."""
    from saftkit import cli
    seen, run = [], cli._run
    monkeypatch.setattr(cli, "_run", lambda args: seen.append(vars(args).copy()) or run(args))
    path, _ = signal_file
    out = str(tmp_path / "u.csv")
    heat = ["plotdata", "--kind", "heat_snapshots", "--in", path, "--out", out]
    assert main([*heat, f"--params={GENERIC_TEXT}"]) == 0
    assert main(["saft", "--in", path, "--out", str(tmp_path / "F.json")]) == 0
    assert main([*heat, "--t", "0.1,0.3"]) == 0
    assert main(heat) == 0
    first, second, third, fourth = seen
    assert first["t"] == [0.05, 0.2] and first["params"] == parse_params(GENERIC_TEXT)
    assert second["command"] == "saft" and "t" not in second and "kind" not in second
    assert second["params"] == fourier_params()
    assert third["t"] == [0.1, 0.3]
    assert fourth["t"] == [0.05, 0.2] and fourth["params"] == fourier_params()
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("argv, option", (
    (["verify", "--tiers", "1,x", "--no-bench"], "--tiers"),
    (["bench", "--sizes", "512,a"], "--sizes"),
    (["approxid", "--in", "IN", "--eps", "1,b"], "--eps"),
    (["plotdata", "--kind", "heat_snapshots", "--in", "IN", "--out", "OUT",
      "--t", "x"], "--t"),
))
def test_cli_malformed_list_option_exits_2(argv, option, signal_file, tmp_path,
                                           capsys):
    files = {"IN": signal_file[0], "OUT": str(tmp_path / "u.csv")}
    with pytest.raises(SystemExit) as exc:
        main([files.get(a, a) for a in argv])
    assert exc.value.code == 2
    assert f"argument {option}:" in capsys.readouterr().err


def test_cli_verify_tier1_passes(capsys):
    rc = main(["verify", "--params", "frft:0.785398163", "--size", "256",
               "--tiers", "1", "--no-bench"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "checks passed" in out


def test_cli_verify_generic_seed1_tier1_passes(capsys):
    # the signal has almost no energy at the T1.08 probe frequency here
    rc = main(["verify", "--params", "1,2,-2,-3,0.3,-0.2", "--seed", "1",
               "--tiers", "1", "--no-bench"])
    out = capsys.readouterr().out
    assert rc == 0, out


def test_cli_negative_first_param_with_equals(signal_file, tmp_path):
    path, f = signal_file
    spec = str(tmp_path / "F.json")
    assert main(["saft", "--params=-0.5,1,-0.75,-0.5", "--in", path,
                 "--out", spec]) == 0
    F = load_spectrum(spec)
    assert (F.params.a, F.params.b, F.params.c, F.params.d) == (-0.5, 1.0, -0.75, -0.5)
    ref = saft_fast(make_plan(F.params, f.grid), f)
    assert np.max(np.abs(F.samples - ref.samples)) <= 1e-12


PROBE_LINES = {
    "hormander": "max ratio=1.028869 C_est=1.000000 deriv defect=1.97e-10",
    "lp": "min ratio=0.871866 max ratio=0.995032",
}


@pytest.mark.parametrize("kind", PROBE_LINES)
def test_cli_probe_prints_its_pinned_line(kind, capsys):
    assert main(["probe", "--params=1,2,-2,-3,0.3,-0.2", "--kind", kind,
                 "-r", "4"]) == 0
    assert capsys.readouterr().out == PROBE_LINES[kind] + "\n"


def test_cli_verify_rejects_bad_size():
    with pytest.raises(SystemExit):
        main(["verify", "--size", "300"])


def test_cli_verify_rejects_invalid_params():
    with pytest.raises(SystemExit):
        main(["verify", "--params", "1,1,1,1,0,0"])


def test_cli_plotdata_header_only_without_times(signal_file, tmp_path):
    path, _ = signal_file
    out = str(tmp_path / "h.csv")
    assert main(["plotdata", "--kind", "heat_snapshots", "--t", "0",
                 "--in", path, "--out", out]) == 0
    assert open(out).read().strip() == "t"


def test_bench_oracle_capped():
    from saftkit.bench import ORACLE_CAP, growth_per_doubling, run_bench
    rows = run_bench(fourier_params(), (256, 8192), repeats=1)
    assert rows[0]["oracle_s"] is not None
    assert rows[1]["n"] > ORACLE_CAP and rows[1]["oracle_s"] is None
    growth = growth_per_doubling(rows)
    assert np.isnan(growth["oracle"]) and growth["fast"] > 0


def test_bench_rejects_unsorted_sizes():
    from saftkit.bench import run_bench
    with pytest.raises(ValueError):
        run_bench(fourier_params(), (512, 256), repeats=1)
    with pytest.raises(ValueError, match="repeats must be at least 1"):
        run_bench(fourier_params(), (256,), repeats=0)


@pytest.mark.parametrize("tiers", ((4,), (0, 1), ()))
def test_run_verify_rejects_tiers_outside_1_to_3(tiers):
    with pytest.raises(InputError, match="tiers must be among 1, 2 and 3"):
        run_verify(fourier_params(), 256, 42, tiers=tiers, include_bench=False)


def test_verify_report_is_deterministic():
    p = standard_parameter_sets()["generic"]
    a = run_verify(p, 256, 42, tiers=(1,), include_bench=False).to_json()
    b = run_verify(p, 256, 42, tiers=(1,), include_bench=False).to_json()
    assert a == b
    payload = json.loads(a)
    assert payload["summary"]["fail"] == 0
    assert {c["check_id"] for c in payload["checks"]} >= {
        "T1.01", "T1.07", "T1.15"}
