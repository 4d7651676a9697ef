import json

import numpy as np
import pytest

from saftkit.cli import main, parse_params, parse_symbol, parse_weight
from saftkit.engine import make_plan, saft_fast
from saftkit.grid import centered_grid, load_signal, load_spectrum, save_signal
from saftkit.params import fourier_params
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
    assert parse_weight("unit").kind == "unit"
    w = parse_weight("v_ell:2")
    assert w.kind == "radial" and w.ell == 2.0


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


def test_verify_report_is_deterministic():
    p = standard_parameter_sets()["generic"]
    a = run_verify(p, 256, 42, tiers=(1,), include_bench=False).to_json()
    b = run_verify(p, 256, 42, tiers=(1,), include_bench=False).to_json()
    assert a == b
    payload = json.loads(a)
    assert payload["summary"]["fail"] == 0
    assert {c["check_id"] for c in payload["checks"]} >= {
        "T1.01", "T1.07", "T1.15"}
