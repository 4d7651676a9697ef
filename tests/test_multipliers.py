import re

import numpy as np
import pytest

from saftkit.engine import apply_symbol, heat_evolve, make_plan, saft_fast, isaft
from saftkit.grid import (Grid, Signal, Spectrum, centered_grid, inner_product,
                          lr_norm)
from saftkit.aconv import aconv_fast
from saftkit.multipliers import (LPBank, SymbolSpec, apply_multiplier,
                                 decay_constant, derivative_defect,
                                 dyadic_bump, imaginary_power, indicator_symbol,
                                 indicator_union, lp_project, norm_ratios,
                                 smoothed_sign, square_function)
from saftkit.operators import a_translate, a_translate_commute_check
from saftkit.params import InputError, fourier_params, frft_params, make_params
from saftkit.families import (bandlimited_family, covered_family,
                              gaussian_mixture_family)

GENERIC = make_params(1, 2, -2, -3, 0.3, -0.2)
PSETS = (fourier_params(), frft_params(np.pi / 4), GENERIC)


def _multiplier(m):
    return lambda f: apply_multiplier(GENERIC, m, f)


def _square_function(bank):
    return lambda f: square_function(lp_project(GENERIC, bank, f))


def test_symbol_values_bounded():
    w = np.linspace(-50, 50, 1001)
    for sym in (imaginary_power(1.3), smoothed_sign(0.5), dyadic_bump(1),
                indicator_symbol(-2, 3),
                indicator_union([(-4, -2), (1, 2)])):
        vals = sym.value(w)
        assert np.all(np.isfinite(vals))
        assert np.max(np.abs(vals)) <= 1.0 + 1e-12


def test_smooth_symbol_derivatives_match_central_differences():
    w = np.linspace(0.5, 40, 400)
    h = 1e-5
    for sym in (imaginary_power(0.8), smoothed_sign(1.5), dyadic_bump(2)):
        num = (sym.value(w + h) - sym.value(w - h)) / (2 * h)
        exact = sym.derivative(w)
        scale = np.maximum(np.abs(num), 1e-3)
        assert np.max(np.abs(num - exact) / scale) <= 1e-6


def test_indicator_has_no_derivative():
    with pytest.raises(ValueError):
        indicator_symbol(0, 1).derivative(np.array([0.5]))


def test_hormander_constant_imaginary_power():
    w = np.linspace(-30, 30, 601)
    assert decay_constant(imaginary_power(2.5), w) == pytest.approx(2.5, rel=1e-12)


def test_hormander_constant_smoothed_sign_finite():
    c_est = decay_constant(smoothed_sign(1.0), np.linspace(-30, 30, 601))
    assert np.isfinite(c_est) and 0 < c_est < 1.0


class _FlippedDerivative(SymbolSpec):
    def derivative(self, omega):
        return -super().derivative(omega)


def test_derivative_defect_separates_right_and_wrong_derivatives():
    w = np.linspace(-30, 30, 601)
    for sym in (imaginary_power(1.0), smoothed_sign(2.0), dyadic_bump(2)):
        assert derivative_defect(sym, w) <= 1e-8
        flipped = _FlippedDerivative(sym.kind, sym.alpha, sym.scale, sym.level)
        assert derivative_defect(flipped, w) >= 1.0


def test_identity_symbol_roundtrip():
    grid = centered_grid(10.0, 256)
    f = gaussian_mixture_family(grid, 1, 80)[0]
    out = apply_multiplier(GENERIC, imaginary_power(0.0), f)
    assert np.max(np.abs(out.samples - f.samples)) <= 1e-10


def test_indicator_symbol_reproduces_block_projection():
    grid = centered_grid(10.0, 256)
    f = gaussian_mixture_family(grid, 1, 81)[0]
    bank = LPBank.for_grid(GENERIC, grid)
    j = bank.j_min + 1
    blocks = lp_project(GENERIC, bank, f)
    plan = make_plan(GENERIC, grid)
    F = saft_fast(plan, f)
    mask = bank.block_mask(j, F.freq_grid.nodes())
    direct = isaft(plan, Spectrum(GENERIC, F.freq_grid, mask * F.samples),
                   f.mode)
    assert np.max(np.abs(direct.samples
                         - blocks[j - bank.j_min].samples)) <= 1e-12
    # indicator symbols act as projections: applying twice changes nothing
    sym = indicator_union([(-2.0, -0.5), (0.5, 2.0)])
    once = apply_multiplier(GENERIC, sym, f)
    twice = apply_multiplier(GENERIC, sym, once)
    assert np.max(np.abs(once.samples - twice.samples)) <= 1e-10


def test_heat_multiplier_cross_check():
    # classical heat damping applied as a raw transform-domain symbol
    grid = centered_grid(10.0, 512)
    f = gaussian_mixture_family(grid, 1, 82)[0]
    p = fourier_params()
    t = 0.07
    plan = make_plan(p, grid)
    F = saft_fast(plan, f)
    damp = np.exp(-((2 * np.pi * F.freq_grid.nodes()) ** 2) * t)
    via_symbol = isaft(plan, Spectrum(p, F.freq_grid, damp * F.samples), f.mode)
    via_heat = heat_evolve(p, f, t, "multiplier")
    assert np.max(np.abs(via_symbol.samples - via_heat.samples)) <= 1e-12


def test_multiplier_rejects_nonfinite_symbol():
    grid = centered_grid(10.0, 64)
    f = gaussian_mixture_family(grid, 1, 83)[0]
    bad = SymbolSpec("smoothed_sign", scale=0.0)  # nan at the DC bin
    with pytest.raises(ValueError, match="non-finite"):
        with np.errstate(divide="ignore", invalid="ignore"):
            apply_multiplier(GENERIC, bad, f)


def test_norm_probe_identity_symbol():
    grid = centered_grid(10.0, 256)
    fam = bandlimited_family(grid, 4, 84)
    (lo, hi), = norm_ratios(_multiplier(imaginary_power(0.0)), (3.0,), fam)
    assert lo == pytest.approx(1.0, abs=1e-10)
    assert hi == pytest.approx(1.0, abs=1e-10)


def test_norm_probe_unimodular_at_r2():
    grid = centered_grid(10.0, 256)
    fam = bandlimited_family(grid, 4, 85)
    (lo, hi), = norm_ratios(_multiplier(imaginary_power(1.0)), (2.0,), fam)
    assert lo == pytest.approx(1.0, abs=1e-10)
    assert hi == pytest.approx(1.0, abs=1e-10)


def test_norm_probe_smoothed_sign_stable():
    vals = []
    for n in (256, 512):
        grid = centered_grid(10.0, n)
        fam = bandlimited_family(grid, 6, 86)
        (_, hi), = norm_ratios(_multiplier(smoothed_sign(1.0)), (4.0,), fam)
        vals.append(hi)
    assert all(v <= 10.0 for v in vals)
    assert max(vals) / min(vals) <= 2.0


def test_probes_take_every_exponent_from_one_transform():
    """One call over several exponents gives, bit for bit, what one call per
    exponent gives, and applies the operator once per family member."""
    grid = centered_grid(10.0, 256)
    rs = (4.0 / 3.0, 2.0, 4.0)
    bank = LPBank.for_grid(GENERIC, grid)
    for op, fam in ((_multiplier(imaginary_power(1.0)), bandlimited_family(grid, 4, 87)),
                    (_square_function(bank), covered_family(GENERIC, bank, grid, 4, 88))):
        each = [norm_ratios(op, (r,), fam)[0] for r in rs]
        calls = []
        assert norm_ratios(lambda f: calls.append(f) or op(f), rs, fam) == each
        assert len(calls) == len(fam)
        assert all(seen is f for seen, f in zip(calls, fam))


def test_bank_blocks_partition_coverage():
    bank = LPBank(-2, 3)
    w = np.linspace(-20, 20, 4001)
    total = sum(bank.block_mask(j, w).astype(int) for j in bank.levels)
    cov = bank.coverage_mask(w)
    assert np.all(total[cov] == 1)
    assert np.all(total[~cov] == 0)
    # shared dyadic endpoint belongs to the lower level
    assert bank.block_mask(-2, 0.5) and not bank.block_mask(-1, 0.5)


def test_bank_for_grid_bounds():
    for p in PSETS:
        grid = centered_grid(10.0, 512)
        bank = LPBank.for_grid(p, grid)
        dw = abs(p.b) / grid.span
        assert 2.0 ** bank.j_min >= 2 * dw
        assert 2.0 ** (bank.j_max + 1) <= abs(p.b) / (2 * grid.step)


def test_bank_validation():
    with pytest.raises(ValueError):
        LPBank(3, 1)


@pytest.mark.parametrize("j_min, j_max", ((0, 1023), (0, 1100), (-1075, 0), (-1100, 0)))
def test_bank_refuses_levels_outside_the_float_range(j_min, j_max):
    # 2^(j_max+1) would overflow, or 2^j_min round to 0 and put w = 0 in a block
    with pytest.raises(InputError, match="levels must lie in -1074..1022"):
        LPBank(j_min, j_max)


def test_bank_keeps_w0_out_of_its_lowest_possible_level():
    bank = LPBank(-1074, 1022)
    w = np.linspace(-4.0, 4.0, 257)
    assert not bank.block_mask(-1074, w)[128]
    assert bank.block_ranges(-1074, w) == ((128, 128), (129, 129))
    assert np.isfinite(2.0 ** (bank.j_max + 1))


@pytest.mark.parametrize("b", (1.0, -1.0, 2.0, -0.5))
@pytest.mark.parametrize("grid, on_nodes", (
    (centered_grid(8.0, 256), True), (centered_grid(8.0, 257), True),
    (Grid(-3.0, 1 / 32, 512), True), (Grid(-3.0, 1 / 32, 511), False)),
    ids=("even", "odd", "offset_even", "offset_odd"))
def test_block_ranges_are_the_block_mask(b, grid, on_nodes):
    p = make_params(1.0, b, -4.0 / b, -3.0, 0.3, -0.2)
    w = make_plan(p, grid).freq_grid.nodes()
    widest = LPBank.for_grid(p, grid)
    # where +-2^j are nodes, the closed and open block ends decide
    assert on_nodes == all(2.0 ** j in w and -2.0 ** j in w for j in widest.levels)
    for bank in (widest, LPBank(widest.j_min - 2, widest.j_max + 2)):
        for j in bank.levels:
            ranges = bank.block_ranges(j, w)
            got = np.concatenate([np.arange(lo, hi) for lo, hi in ranges])
            assert np.array_equal(got, np.flatnonzero(bank.block_mask(j, w)))


def test_lp_project_rejects_a_plan_for_another_grid():
    grid = centered_grid(10.0, 256)
    f = gaussian_mixture_family(grid, 1, 80)[0]
    plan = make_plan(GENERIC, centered_grid(10.0, 128))
    with pytest.raises(InputError, match="plan was built for a different grid"):
        lp_project(GENERIC, LPBank.for_grid(GENERIC, grid), f, plan)


def test_lp_project_rejects_a_plan_for_other_parameters():
    grid = centered_grid(10.0, 256)
    f = gaussian_mixture_family(grid, 1, 80)[0]
    plan = make_plan(fourier_params(), grid)
    with pytest.raises(InputError, match="plan was built for other parameters"):
        lp_project(GENERIC, LPBank.for_grid(GENERIC, grid), f, plan)


@pytest.mark.parametrize("lo, hi", ((np.nan, 1.0), (0.0, np.inf), (2.0, 1.0), (1.0, 1.0)))
def test_indicator_needs_finite_ordered_bounds(lo, hi):
    with pytest.raises(InputError, match="finite lo < hi"):
        indicator_symbol(lo, hi)
    with pytest.raises(InputError, match="finite lo < hi"):
        indicator_union([(-4.0, -2.0), (lo, hi)])


def test_single_block_signal_projects_cleanly():
    grid = centered_grid(10.0, 256)
    p = GENERIC
    bank = LPBank.for_grid(p, grid)
    plan = make_plan(p, grid)
    j0 = bank.j_min + 1
    w = plan.freq_grid.nodes()
    spec = np.where(bank.block_mask(j0, w), 1.0 + 0.5j, 0.0)
    f = isaft(plan, Spectrum(p, plan.freq_grid, spec), "cyclic")
    blocks = lp_project(p, bank, f)
    for j, blk in zip(bank.levels, blocks):
        if j == j0:
            assert np.max(np.abs(blk.samples - f.samples)) <= 1e-10
        else:
            assert np.max(np.abs(blk.samples)) <= 1e-10 * np.max(np.abs(f.samples))


@pytest.mark.parametrize("p", PSETS, ids=("fourier", "frft", "generic"))
def test_covered_reconstruction_and_energy(p):
    grid = centered_grid(10.0, 512)
    bank = LPBank.for_grid(p, grid)
    f = covered_family(p, bank, grid, 1, 87)[0]
    blocks = lp_project(p, bank, f)
    recon = np.sum([b.samples for b in blocks], axis=0)
    assert np.max(np.abs(recon - f.samples)) <= 1e-9
    orth = max(abs(inner_product(blocks[i], blocks[j]))
               for i in range(len(blocks)) for j in range(i + 1, len(blocks)))
    assert orth <= 1e-10 * lr_norm(f, 2) ** 2
    energy = sum(lr_norm(b, 2) ** 2 for b in blocks)
    assert energy == pytest.approx(lr_norm(f, 2) ** 2, rel=1e-9)


def test_square_function_basics():
    grid = centered_grid(10.0, 256)
    bank = LPBank.for_grid(GENERIC, grid)
    f = covered_family(GENERIC, bank, grid, 1, 88)[0]
    blocks = lp_project(GENERIC, bank, f)
    sf = square_function(blocks)
    assert np.all(sf.samples.imag == 0)
    assert np.all(sf.samples.real >= 0)
    assert lr_norm(sf, 2) == pytest.approx(lr_norm(f, 2), rel=1e-9)
    single = square_function(blocks[:1])
    assert np.allclose(single.samples, np.abs(blocks[0].samples))
    zero = square_function([Signal(grid, np.zeros(256), "cyclic")])
    assert np.all(zero.samples == 0)


def test_square_function_grid_mismatch():
    a = Signal(centered_grid(4.0, 32), np.zeros(32), "cyclic")
    b = Signal(centered_grid(4.0, 64), np.zeros(64), "cyclic")
    with pytest.raises(ValueError):
        square_function([a, b])
    with pytest.raises(ValueError):
        square_function([])


def test_lp_ratio_probe_r2_is_isometry():
    grid = centered_grid(10.0, 256)
    bank = LPBank.for_grid(GENERIC, grid)
    fam = covered_family(GENERIC, bank, grid, 4, 89)
    (lo, hi), = norm_ratios(_square_function(bank), (2.0,), fam)
    assert lo == pytest.approx(1.0, abs=1e-9)
    assert hi == pytest.approx(1.0, abs=1e-9)


def test_bank_reconstructs_its_coverage_projection():
    grid = centered_grid(10.0, 256)
    bank = LPBank.for_grid(GENERIC, grid)
    f = gaussian_mixture_family(grid, 1, 90)[0]
    plan = make_plan(GENERIC, grid)
    fc = apply_symbol(plan, f, bank.coverage_mask(plan.freq_grid.nodes()))
    blocks = lp_project(GENERIC, bank, fc)
    recon = np.sum([b.samples for b in blocks], axis=0)
    assert np.max(np.abs(recon - fc.samples)) <= 1e-9


@pytest.mark.parametrize("p", PSETS, ids=("fourier", "frft", "generic"))
def test_wendel_commutation(p):
    grid = centered_grid(10.0, 256)
    u, f = gaussian_mixture_family(grid, 2, 91)
    dev = a_translate_commute_check(
        p, lambda h: aconv_fast(p, u, h, "cyclic"), 3 * grid.step, f)
    assert dev <= 1e-9 * lr_norm(u, 1) * lr_norm(f, np.inf)


def test_wendel_impulse_gives_translation():
    from saftkit.grid import impulse
    grid = centered_grid(10.0, 256)
    f = gaussian_mixture_family(grid, 1, 92)[0]
    u = impulse(grid, 128 + 16, "cyclic")
    conv = aconv_fast(GENERIC, u, f, "cyclic")
    ref = a_translate(f, GENERIC, grid.node(128 + 16)).samples
    assert np.max(np.abs(conv.samples
                         - ref / np.sqrt(abs(GENERIC.b)))) <= 1e-12


def test_multiplier_diagonality():
    grid = centered_grid(10.0, 256)
    f = gaussian_mixture_family(grid, 1, 93)[0]
    m1, m2 = smoothed_sign(1.0), imaginary_power(0.7)
    lhs = apply_multiplier(GENERIC, m1, apply_multiplier(GENERIC, m2, f))
    plan = make_plan(GENERIC, grid)
    F = saft_fast(plan, f)
    w = F.freq_grid.nodes()
    rhs = isaft(plan, Spectrum(GENERIC, F.freq_grid,
                               m1.value(w) * m2.value(w) * F.samples), f.mode)
    assert np.max(np.abs(lhs.samples - rhs.samples)) <= 1e-10


def test_unimodular_symbol_preserves_l2():
    grid = centered_grid(10.0, 256)
    f = gaussian_mixture_family(grid, 1, 94)[0]
    out = apply_multiplier(GENERIC, imaginary_power(1.7), f)
    assert abs(lr_norm(out, 2) - lr_norm(f, 2)) <= 1e-10 * lr_norm(f, 2)


def test_probes_reject_an_empty_family():
    grid = centered_grid(10.0, 64)
    for op in (_multiplier(imaginary_power(1.0)),
               _square_function(LPBank.for_grid(GENERIC, grid))):
        with pytest.raises(InputError, match="family is empty"):
            norm_ratios(op, (2.0,), [])


def test_probes_reject_a_zero_member_and_norms_outside_the_float_range():
    grid = centered_grid(10.0, 64)
    fam = bandlimited_family(grid, 2, 95)
    op = _multiplier(imaginary_power(1.0))
    with pytest.raises(InputError, match="zero signal"):
        norm_ratios(op, (2.0,), fam + [Signal(grid, np.zeros(64), "cyclic")])
    for r in (1e300, 2.0):  # samples below 1 underflow at r = 1e300, 1e200 overflows
        scaled = fam if r > 2 else [f.with_samples(f.samples * 1e200) for f in fam]
        with np.errstate(over="ignore"), pytest.raises(
                InputError, match=re.escape(f"L^{r:g} norm of the samples is ")
                + "(0.0|inf), outside the float range"):
            norm_ratios(op, (r,), scaled)
    # a zero image of a nonzero member is a ratio of 0, not an error
    assert norm_ratios(lambda f: f.with_samples(0 * f.samples), (2.0,), fam) == [(0.0, 0.0)]
