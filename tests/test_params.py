import pathlib

import numpy as np
import pytest

import saftkit
from saftkit.params import (InputError, SaftParams, WeightSpec, fourier_params,
                            fresnel_params, frft_params, make_params,
                            post_chirp, pre_chirp, quad_chirp, radial_weight,
                            sheared_weight, special_params, transported_weight,
                            unit_weight, freq_scaled_weight, weight_eval)


def test_fourier_parameters_validate():
    p = make_params(0, 1, -1, 0, 0, 0)
    assert p.omega0 == 0.0


def test_frft_quarter_rotation_is_valid():
    p = frft_params(np.pi / 4)
    assert abs(p.a * p.d - p.b * p.c - 1.0) <= 1e-12
    assert p.a == pytest.approx(np.cos(np.pi / 4))


def test_degenerate_determinant_rejected():
    with pytest.raises(ValueError):
        make_params(1, 1, 1, 1, 0, 0)


def test_zero_b_rejected():
    with pytest.raises(ValueError):
        make_params(1, 0, 0, 1)


@pytest.mark.parametrize("entries", (
    (np.nan, 1, 0, 1, 0, 0), (1, np.nan, 0, 1, 0, 0), (1, 1, np.nan, 1, 0, 0),
    (1, 1, 0, np.nan, 0, 0), (1, 1, 0, 1, np.inf, 0), (1, 1, 0, 1, 0, -np.inf),
    (1, 1, 0, 1, 0, np.nan),
))
def test_non_finite_entries_rejected(entries):
    with pytest.raises(ValueError, match="must be finite"):
        make_params(*entries)
    with pytest.raises(ValueError, match="must be finite"):
        SaftParams(*entries)


def test_special_frft_half_pi_is_fourier():
    p = special_params("frft", np.pi / 2)
    ref = fourier_params()
    for attr in "abcdpq":
        assert getattr(p, attr) == pytest.approx(getattr(ref, attr), abs=1e-12)


def test_special_fresnel():
    p = special_params("fresnel", 2.0)
    assert (p.a, p.b, p.c, p.d, p.p, p.q) == (1.0, 2.0, 0.0, 1.0, 0.0, 0.0)


def test_frft_multiple_of_pi_rejected():
    with pytest.raises(ValueError):
        special_params("frft", np.pi)


def test_special_params_all_validate():
    # construction round-trips through the same validation as make_params
    for p in (special_params("fourier"), special_params("frft", 0.3),
              special_params("fresnel", -1.5), special_params("lct", 2, 1, 1, 1)):
        assert abs(p.a * p.d - p.b * p.c - 1.0) <= 1e-12


def test_params_dict_roundtrip():
    p = make_params(1, 2, -2, -3, 0.3, -0.2)
    assert SaftParams(**p.as_dict()) == p


def test_pre_chirp_trivial_for_fourier():
    t = np.linspace(-5, 5, 101)
    assert np.allclose(pre_chirp(fourier_params(), t), 1.0, atol=1e-14)


def test_post_chirp_at_zero_is_one():
    for p in (fourier_params(), frft_params(0.7), make_params(1, 2, -2, -3, 0.3, -0.2)):
        assert post_chirp(p, 0.0) == pytest.approx(1.0)


def test_phases_have_unit_modulus():
    rng = np.random.default_rng(1)
    t = rng.uniform(-20, 20, 200)
    for p in (frft_params(1.1), make_params(1, 2, -2, -3, 0.3, -0.2),
              fresnel_params(-0.7)):
        for fn in (pre_chirp, post_chirp, quad_chirp):
            assert np.max(np.abs(np.abs(fn(p, t)) - 1.0)) <= 1e-12
    assert abs(abs(quad_chirp(frft_params(1.1), 3.7)) - 1.0) <= 1e-12


def test_radial_weight_values():
    w = radial_weight(2.0)
    assert weight_eval(w, 0.0, 0.0) == pytest.approx(1.0)
    assert weight_eval(w, 1.0, 1.0) == pytest.approx(3.0)


def test_transported_weight_fourier_is_radial():
    w = weight_eval(transported_weight(2.0, fourier_params()), 1.5, -0.3)
    assert w == pytest.approx(1.0 + 1.5 ** 2 + 0.3 ** 2)


def test_zero_exponent_weights_are_the_unit_view():
    x = np.linspace(-3.0, 3.0, 7)[:, None]
    om = np.linspace(-2.0, 2.0, 5)[None, :]
    p = make_params(1, 2, -2, -3, 0.3, -0.2)
    for w in (unit_weight(), radial_weight(0.0), transported_weight(0.0, p)):
        vals = weight_eval(w, x, om)
        assert vals.shape == (7, 5) and vals.strides == (0, 0)
        assert not vals.flags.writeable and np.all(vals == 1.0)


def test_weights_strictly_positive():
    rng = np.random.default_rng(2)
    x = rng.uniform(-10, 10, 100)
    om = rng.uniform(-10, 10, 100)
    p = make_params(1, 2, -2, -3, 0.3, -0.2)
    specs = [unit_weight(), radial_weight(1.5), transported_weight(2.0, p),
             freq_scaled_weight(radial_weight(1.0), p.b),
             sheared_weight(radial_weight(1.0), 0.7)]
    for w in specs:
        assert np.all(weight_eval(w, x, om) > 0)


def test_weight_equivalence_eigen_bounds():
    # transported weight pinched between radial scaled by the extreme
    # eigenvalues of the underlying quadratic form
    rng = np.random.default_rng(3)
    x = rng.uniform(-8, 8, 200)
    om = rng.uniform(-8, 8, 200)
    for p in (frft_params(0.4), make_params(1, 2, -2, -3, 0.3, -0.2),
              fresnel_params(3.0)):
        form = [[p.c ** 2 + p.d ** 2, -(p.a * p.c + p.b * p.d)],
                [-(p.a * p.c + p.b * p.d), p.a ** 2 + p.b ** 2]]
        lam_min, lam_max = np.linalg.eigvalsh(form)
        assert lam_min * lam_max == pytest.approx(1.0, abs=1e-9)
        for ell in (0.0, 1.0, 2.0):
            v = weight_eval(radial_weight(ell), x, om)
            w = weight_eval(transported_weight(ell, p), x, om)
            assert np.all(w <= lam_max ** (ell / 2) * v * (1 + 1e-12))
            assert np.all(w >= lam_min ** (ell / 2) * v * (1 - 1e-12))


def test_weight_spec_validation():
    with pytest.raises(ValueError):
        from saftkit.params import WeightSpec
        WeightSpec("radial", ell=-1.0)


def test_input_error_is_the_one_rejection_type():
    assert issubclass(InputError, ValueError) and saftkit.InputError is InputError
    with pytest.raises(InputError, match="SAFT requires b != 0"):
        make_params(1, 0, 0, 1)
    with pytest.raises(InputError, match="weight exponent"):
        WeightSpec("radial", ell=float("nan"))
    # cli.py's argparse types raise ValueError, which argparse reports itself
    package = pathlib.Path(saftkit.__file__).parent
    assert not [path.name for path in package.glob("*.py") if path.name != "cli.py"
                and "raise ValueError" in path.read_text()]
