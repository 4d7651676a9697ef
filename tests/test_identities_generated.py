"""Generated cases for exact discrete identities.

Each case draws a unimodular set with b of either sign, an odd or even N
and a lattice-aligned grid origin off the centred one (strategies.cases).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from saftkit.aconv import aconv_fast
from saftkit.engine import (apply_symbol, chirp_period_compatible, isaft,
                            make_plan, saft_fast)
from saftkit.grid import Spectrum, inner_product, lr_norm
from saftkit.multipliers import (LPBank, apply_multiplier, dyadic_bump,
                                 imaginary_power, indicator_symbol, lp_project,
                                 smoothed_sign)
from saftkit.operators import a_translate_compose_check
from saftkit.params import post_chirp
from strategies import cases


@settings(max_examples=80, deadline=None)
@given(case=cases(), shifts=st.tuples(st.integers(-200, 200), st.integers(-200, 200)))
def test_projective_composition_law_generated(case, shifts):
    # shifts reach past the window, so both sides wrap; rounding grows with
    # the largest chirp phase, (a/b) (|x| + |y| + max |t|)^2
    params, f = case
    x, y = (k * f.grid.step for k in shifts)
    reach = abs(x) + abs(y) + np.max(np.abs(f.grid.nodes()))
    scale = 1.0 + abs(params.a / params.b) * reach ** 2
    dev = a_translate_compose_check(params, x, y, f)
    assert dev <= 1e-13 * scale * np.max(np.abs(f.samples))


@settings(max_examples=80, deadline=None)
@given(case=cases(signals=2, seam_exact=True))
def test_cyclic_convolution_theorem_generated(case):
    params, f, g = case
    assert chirp_period_compatible(params, f.grid)
    plan = make_plan(params, f.grid)
    w = plan.freq_grid.nodes()
    lhs = saft_fast(plan, aconv_fast(params, f, g, "cyclic")).samples
    rhs = (np.conj(post_chirp(params, w)) * saft_fast(plan, f).samples
           * saft_fast(plan, g).samples)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(rhs))


SYMBOLS = st.one_of(st.floats(-3.0, 3.0).map(imaginary_power),
                    st.floats(0.1, 5.0).map(smoothed_sign),
                    st.integers(-2, 3).map(dyadic_bump),
                    st.tuples(st.floats(-5.0, 0.0), st.floats(0.1, 5.0))
                    .map(lambda lh: indicator_symbol(*lh)))


@settings(max_examples=60, deadline=None)
@given(case=cases(min_count=32), symbol=SYMBOLS)
def test_multiplier_and_bank_exactness_generated(case, symbol):
    params, f = case
    plan = make_plan(params, f.grid)
    F = saft_fast(plan, f).samples
    # a multiplier is diagonal on the transform side
    m = symbol.value(plan.freq_grid.nodes())
    out = saft_fast(plan, apply_multiplier(params, symbol, f)).samples
    assert np.max(np.abs(out - m * F)) <= 1e-12 * np.max(np.abs(F))
    # the widest bank's blocks are orthogonal and sum to the coverage projection
    bank = LPBank.for_grid(params, f.grid)
    blocks = lp_project(params, bank, f)
    covered = apply_symbol(plan, f, bank.coverage_mask(plan.freq_grid.nodes()))
    recon = np.sum([blk.samples for blk in blocks], axis=0)
    assert np.max(np.abs(recon - covered.samples)) <= 1e-12 * np.max(np.abs(f.samples))
    n22 = lr_norm(f, 2) ** 2
    assert max((abs(inner_product(u, v)) for i, u in enumerate(blocks)
                for v in blocks[i + 1:]), default=0.0) <= 1e-12 * n22
    energy = sum(lr_norm(blk, 2) ** 2 for blk in blocks)
    assert abs(energy - lr_norm(covered, 2) ** 2) <= 1e-12 * n22


@settings(max_examples=60, deadline=None)
@given(case=cases(min_count=32), widen=st.tuples(st.integers(0, 2), st.integers(0, 2)))
def test_bank_blocks_match_spelled_out_projection_generated(case, widen):
    # banks reach past the resolved levels too, where blocks are empty
    params, f = case
    plan = make_plan(params, f.grid)
    widest = LPBank.for_grid(params, f.grid)
    bank = LPBank(widest.j_min - widen[0], widest.j_max + widen[1])
    F = saft_fast(plan, f)
    w = F.freq_grid.nodes()
    for j, blk in zip(bank.levels, lp_project(params, bank, f, plan), strict=True):
        ref = isaft(plan, Spectrum(params, F.freq_grid, bank.block_mask(j, w) * F.samples),
                    f.mode)
        assert blk.grid == f.grid and blk.mode == f.mode
        assert np.max(np.abs(blk.samples - ref.samples)) <= 1e-12 * np.max(np.abs(f.samples))
