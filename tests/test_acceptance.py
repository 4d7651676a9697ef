"""Acceptance gate: every graded criterion, one pass/fail line each.

Tier 1 runs exact discrete identities for three parameter sets (the
classical transform, the quarter rotation, and a generic offset set with
b = 2), tier 2 the convergence checks, tier 3 the stability probes plus
the timing signature.  Run with `pytest -s tests/test_acceptance.py` to
see the per-criterion lines.
"""

import pytest

from saftkit.cli import parse_params
from saftkit.verify import run_verify, standard_parameter_sets

CRITERIA = {
    1: ("T1.01", "fast path vs quadrature oracle <= 1e-10 ||f||_2"),
    2: ("T1.02", "inverse round trip <= 1e-10"),
    3: ("T1.03", "discrete Plancherel <= 1e-10 relative"),
    4: ("T1.04", "chirp conjugation of twisted translation <= 1e-12"),
    5: ("T1.05", "projective composition law <= 1e-12"),
    6: ("T1.06", "shift/modulation exchange <= 1e-9"),
    7: ("T1.07", "cyclic twisted convolution theorem <= 1e-9"),
    8: ("T1.08", "multiplicative functional <= 1e-9 relative"),
    9: ("T1.09", "Young inequality margin >= -1e-12"),
    10: ("T1.10", "translation-commutation of convolution ops <= 1e-9"),
    11: ("T1.11", "derivative operator identity and commutation"),
    12: ("T1.12", "STFT covariances <= 1e-9 on aligned lattices"),
    13: ("T1.13", "transform-domain STFT magnitude identity <= 1e-6"),
    14: ("T1.14", "dyadic bank orthogonality/reconstruction/isometry"),
    15: ("T1.15", "twisted modulation norm scaling <= 1e-9"),
    16: ("T2.16", "chirped-indicator closed form, halving trend, <= 3e-2"),
    17: ("T2.17", "heat multiplier vs kernel <= 1e-3, decreasing"),
    18: ("T2.18", "mollifier errors non-increasing, final <= 5%"),
    19: ("T2.19", "Hausdorff-Young constant within 5% slack"),
    20: ("T2.20", "high-frequency decay with doubled resolution"),
    21: ("T2.21", "weight transport within 1% for ell in {0,1,2}"),
    22: ("T2.22", "window independence ratios inside the fixed band"),
    23: ("T3.23", "bounded-symbol probe <= 10, stable, derivative consistent"),
    24: ("T3.24", "square-function ratios positive and 2x-stable"),
    25: ("T3.25", "O(N log N) vs O(N^2) timing signature"),
}


@pytest.fixture(scope="module")
def reports():
    out = {}
    for i, (name, params) in enumerate(standard_parameter_sets().items()):
        # the timing criterion is parameter-independent; run it once
        out[name] = run_verify(params, 512, 42, tiers=(1, 2, 3),
                               include_bench=(i == 0))
    return out


@pytest.mark.parametrize("criterion", sorted(CRITERIA))
def test_criterion(criterion, reports):
    check_id, label = CRITERIA[criterion]
    seen = 0
    failures = []
    for name, report in reports.items():
        for c in report.checks:
            if c.check_id != check_id:
                continue
            seen += 1
            flag = "PASS" if c.passed else "FAIL"
            print(f"[{flag}] criterion {criterion:02d} ({name}): {label} "
                  f"[observed {c.observed:.3e}, tol {c.tolerance:.1e}]")
            if not c.passed:
                failures.append((name, c))
    assert seen > 0, f"criterion {criterion} missing from the battery"
    assert not failures, f"criterion {criterion} failed for {failures}"


def test_extra_identities(reports):
    for name, report in reports.items():
        for c in report.checks:
            if c.check_id.startswith("X"):
                flag = "PASS" if c.passed else "FAIL"
                print(f"[{flag}] extra {c.check_id} ({name}): {c.statement} "
                      f"[observed {c.observed:.3e}]")
                assert c.passed


def test_every_battery_is_green(reports):
    for name, report in reports.items():
        assert report.passed, (f"{name}: {report.n_fail} failing checks\n"
                               + report.render_text())


# The check IDs of a battery without the timing check, in report order.
# New checks get new IDs; the entries here stay as they are.
NO_BENCH_IDS = ["T1.01", "T1.02", "T1.03", "T1.04", "T1.05", "T1.06", "T1.07",
                "T1.08", "T1.09", "T1.10", "T1.11", "T1.12", "T1.13", "T1.14",
                "T1.15", "X1.a", "T2.16", "T2.17", "T2.18", "T2.19", "T2.20",
                "T2.21", "T2.22", "X2.a", "T3.23", "T3.24"]


# the parameter sets the CI `verify` job runs, as given on its command line
@pytest.mark.parametrize("text", ("fourier", "frft:0.7853981633974483",
                                  "1,2,-2,-3,0.3,-0.2", "1,-0.5,0,1,0.2,-0.1"))
def test_no_bench_battery_check_ids_in_order(text):
    report = run_verify(parse_params(text), 512, 42, include_bench=False)
    assert [c.check_id for c in report.checks] == NO_BENCH_IDS
