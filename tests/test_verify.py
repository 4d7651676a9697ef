"""run_verify's helper thread: tiers 2 and 3 run beside tier 1 from two CPUs
on, and the report does not depend on whether they did."""

import concurrent.futures
import threading
import time

import numpy as np
import pytest

from saftkit import engine, verify
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
def test_report_does_not_depend_on_the_cpu_count(text, monkeypatch):
    params = parse_params(text)
    reports = []
    for cpus in (1, 2):
        monkeypatch.setattr(engine, "_cpus", lambda cpus=cpus: cpus)
        reports.append(run_verify(params, 256, 42, include_bench=False).to_json())
    assert reports[0] == reports[1]


def test_later_tiers_run_on_one_helper_in_tier_order(monkeypatch):
    monkeypatch.setattr(engine, "_cpus", lambda: 2)
    seen = {1: [], 2: [], 3: []}
    for tier in (1, 2, 3):
        monkeypatch.setattr(verify, f"tier{tier}", _stub(f"T{tier}", seen[tier]))
    report = run_verify(fourier_params(), 256, 1, include_bench=False)
    assert [c.check_id for c in report.checks] == ["T1", "T2", "T3"]
    assert seen[1] == [threading.main_thread()]
    assert seen[2][0] is not threading.main_thread()
    assert seen[3] == seen[2]


def test_helper_error_is_raised_to_the_caller(monkeypatch):
    monkeypatch.setattr(engine, "_cpus", lambda: 2)
    monkeypatch.setattr(verify, "tier1", _stub("T1"))

    def fail(params, size, seed):
        raise RuntimeError("helper failed")

    monkeypatch.setattr(verify, "tier2", fail)
    with pytest.raises(RuntimeError, match="helper failed"):
        run_verify(fourier_params(), 256, 1, include_bench=False)


@pytest.mark.parametrize("cpus, tiers", ((1, (1, 2, 3)), (4, (1,)), (4, (2, 3))))
def test_no_thread_starts_for_one_cpu_or_one_side(cpus, tiers, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(engine, "_cpus", lambda: cpus)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
    seen = []
    for tier in (1, 2, 3):
        monkeypatch.setattr(verify, f"tier{tier}", _stub(f"T{tier}", seen))
    report = run_verify(fourier_params(), 256, 1, tiers=tiers,
                        include_bench=False)
    assert [c.check_id for c in report.checks] == [f"T{t}" for t in tiers]
    assert seen == [threading.main_thread()] * len(tiers)


def test_timing_check_runs_alone_after_the_helper_joined(monkeypatch):
    monkeypatch.setattr(engine, "_cpus", lambda: 2)
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
    monkeypatch.setattr(engine, "_cpus", lambda: 2)
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
