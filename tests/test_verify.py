"""run_verify's helper thread: tiers 2 and 3 run beside tier 1 when both
sides are asked for, and the report does not depend on whether they did."""

import concurrent.futures
import threading
import time

import numpy as np
import pytest

from saftkit import verify
from saftkit.cli import parse_params
from saftkit.params import fourier_params
from saftkit.verify import CheckResult, run_verify

# the parameter sets the CI `verify` job runs, as given on its command line
CI_SETS = ("fourier", "frft:0.7853981633974483", "1,2,-2,-3,0.3,-0.2",
           "1,-0.5,0,1,0.2,-0.1")


def _stub(check_id, seen=None, delay=0.0):
    """A tier that records its thread in `seen` and returns one check."""
    def tier(params, size, seed):
        if seen is not None:
            seen.append(threading.current_thread())
        time.sleep(delay)
        return [CheckResult(check_id, "stub", 1.0, 0.0, True)]
    return tier


@pytest.mark.parametrize("text", CI_SETS)
def test_report_does_not_depend_on_the_cpu_count(text):
    # the full battery runs its two sides on two threads, each side alone
    # runs on the calling thread: the checks are the same either way
    params = parse_params(text)
    full = run_verify(params, 256, 42, include_bench=False).checks
    alone = [c for tiers in ((1,), (2, 3))
             for c in run_verify(params, 256, 42, tiers, include_bench=False).checks]
    assert full == alone


def test_later_tiers_run_on_one_helper_in_tier_order(monkeypatch):
    seen = {1: [], 2: [], 3: []}
    for tier in (1, 2, 3):
        monkeypatch.setattr(verify, f"tier{tier}", _stub(f"T{tier}", seen[tier]))
    report = run_verify(fourier_params(), 256, 1, include_bench=False)
    assert [c.check_id for c in report.checks] == ["T1", "T2", "T3"]
    assert seen[1] == [threading.main_thread()]
    assert seen[2][0] is not threading.main_thread()
    assert seen[3] == seen[2]


def _finishing(check_id, finished, delay=0.05):
    """A tier that sleeps for delay, then records its thread in `finished`."""
    def tier(params, size, seed):
        time.sleep(delay)
        finished.append((check_id, threading.current_thread()))
        return [CheckResult(check_id, "stub", 1.0, 0.0, True)]
    return tier


def test_checks_keep_tier_order_when_the_helper_finishes_first(monkeypatch):
    finished = []
    monkeypatch.setattr(verify, "tier1", _finishing("T1", finished, delay=0.1))
    monkeypatch.setattr(verify, "tier2", _finishing("T2", finished))
    monkeypatch.setattr(verify, "tier3", _finishing("T3", finished, delay=0.0))
    report = run_verify(fourier_params(), 256, 1, include_bench=False)
    assert [c.check_id for c in report.checks] == ["T1", "T2", "T3"]
    assert [check_id for check_id, _ in finished] == ["T2", "T3", "T1"]
    threads = dict(finished)
    assert threads["T1"] is threading.main_thread()
    assert threads["T2"] is threads["T3"] is not threading.main_thread()


def _fail(params, size, seed):
    raise RuntimeError("tier failed")


def test_helper_error_is_raised_to_the_caller(monkeypatch):
    seen = []
    monkeypatch.setattr(verify, "tier1", _stub("T1", seen, delay=0.05))
    monkeypatch.setattr(verify, "tier2", _fail)
    with pytest.raises(RuntimeError, match="tier failed"):
        run_verify(fourier_params(), 256, 1, include_bench=False)
    assert seen == [threading.main_thread()]


def test_calling_thread_error_is_raised_after_the_helper_finished(monkeypatch):
    seen = []
    monkeypatch.setattr(verify, "tier1", _fail)
    monkeypatch.setattr(verify, "tier2", _stub("T2", seen, delay=0.05))
    monkeypatch.setattr(verify, "tier3", _stub("T3", seen))
    with pytest.raises(RuntimeError, match="tier failed"):
        run_verify(fourier_params(), 256, 1, include_bench=False)
    assert len(seen) == 2 and threading.main_thread() not in seen


@pytest.mark.parametrize("failing", (2, 3))
def test_helper_tier_error_is_raised_after_both_sides_finished(failing,
                                                               monkeypatch):
    # the helper runs tier 2 then tier 3; a failure in either is raised once
    # tier 1 has finished on the calling thread, and tier 3 never starts
    # after tier 2 failed
    finished = []
    for tier in (1, 2, 3):
        monkeypatch.setattr(verify, f"tier{tier}", _fail if tier == failing
                            else _finishing(f"T{tier}", finished))
    with pytest.raises(RuntimeError, match="tier failed"):
        run_verify(fourier_params(), 256, 1, include_bench=False)
    threads = dict(finished)
    assert sorted(threads) == (["T1"] if failing == 2 else ["T1", "T2"])
    assert threads["T1"] is threading.main_thread()
    assert threads.get("T2", None) is not threading.main_thread()


@pytest.mark.parametrize("tiers", ((1,), (2, 3), (3,)))
def test_no_thread_starts_for_one_side(tiers, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
    seen = []
    for tier in (1, 2, 3):
        monkeypatch.setattr(verify, f"tier{tier}", _stub(f"T{tier}", seen))
    report = run_verify(fourier_params(), 256, 1, tiers=tiers,
                        include_bench=False)
    assert [c.check_id for c in report.checks] == [f"T{t}" for t in tiers]
    assert seen == [threading.main_thread()] * len(tiers)


def test_timing_check_runs_alone_after_the_helper_joined(monkeypatch):
    monkeypatch.setattr(verify, "tier1", _stub("T1"))
    monkeypatch.setattr(verify, "tier2", _stub("T2", delay=0.05))
    monkeypatch.setattr(verify, "tier3", _stub("T3"))
    before = set(threading.enumerate())
    calls = []

    def run_bench(params, sizes, repeats=5):
        calls.append((threading.current_thread(), set(threading.enumerate())))
        return [{"n": 512, "fast_s": 1.0, "oracle_s": 1.0},
                {"n": 4096, "fast_s": 8.0, "oracle_s": 4096.0}]

    monkeypatch.setattr(verify.bench_mod, "run_bench", run_bench)
    report = run_verify(fourier_params(), 256, 1)
    assert [c.check_id for c in report.checks] == ["T1", "T2", "T3", "T3.25"]
    assert len(calls) == 1
    thread, alive = calls[0]
    assert thread is threading.main_thread()
    assert alive <= before


def test_helper_runs_in_the_callers_numpy_error_state(monkeypatch):
    monkeypatch.setattr(verify, "tier1", _stub("T1"))
    tier2 = verify.tier2
    states = []

    def record(params, size, seed):
        states.append((threading.current_thread(), np.geterr()))
        return tier2(params, size, seed)

    monkeypatch.setattr(verify, "tier2", record)
    params = fourier_params()
    with np.errstate(under="raise"):
        # tier 2 underflows in exp on every CI set
        with pytest.raises(FloatingPointError, match="underflow"):
            run_verify(params, 256, 1, tiers=(1, 2), include_bench=False)
    thread, state = states[0]
    assert thread is not threading.main_thread()
    assert state["under"] == "raise"
    with np.errstate(under="ignore"):
        run_verify(params, 256, 1, tiers=(1, 2), include_bench=False)
    assert states[1][1]["under"] == "ignore"


@pytest.mark.parametrize("text, size, seed", (
    ("fourier", 2048, 15), ("frft:0.7853981633974483", 1024, 19),
    ("1,2,-2,-3,0.3,-0.2", 2048, 74), ("1,-0.5,0,1,0.2,-0.1", 1024, 53)))
def test_tier1_passes_where_two_mixture_spectra_miss_each_other(text, size, seed):
    # on these seeds the spectra of the two Gaussian mixtures barely
    # overlap, so T1.07 and T1.08 must not pair them
    report = run_verify(parse_params(text), size, seed, tiers=(1,),
                        include_bench=False)
    assert report.n_fail == 0, [c.line() for c in report.checks if not c.passed]
