"""The two benchmark workloads.

A workload builds its inputs from the seed, warms up (untimed, unchecked),
and hands the runner one round of operations at a time.  Every round of a
workload has the same operations in the same order, so counts per round
and the share of failed operations do not depend on how many rounds a run
completes.

Each `Op` has a `run` (timed, the only part that calls saftkit in the
measured loop) and a `check` (untimed, untraced) that compares the outputs
with an independent computation or a property the method must have.  A
check raises `reference.Incorrect` for a wrong output and `Failed` when the
program itself reports a failure (a verify battery with failing checks).

saftkit functions are always looked up on their module at call time, so
the tracer's rebinding sees every call.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import Callable, NamedTuple

import numpy as np

import saftkit.cli as cli
import saftkit.engine as engine
import saftkit.grid as grid_mod
import saftkit.multipliers as multipliers
import saftkit.params as params_mod
import saftkit.verify as verify
from reference import (Incorrect, draw_matrix, draw_signal, expect,
                       l2sq, params_text, read_signal_csv, read_signal_json,
                       read_tf_json, relerr, require, riemann_bins,
                       sorted_frequencies, write_signal_csv, write_signal_json)


class Failed(Exception):
    """The program reported a failure for this operation."""


class Op(NamedTuple):
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]


def _signal(start: float, dt: float, values, mode: str = "cyclic"):
    return grid_mod.Signal(grid_mod.Grid(start, dt, values.size), values, mode)


# ---------------------------------------------------------------------------
# spectral: transform and multiplier paths at N = 2^14 .. 2^18.

SPECTRAL_SIZES = (2 ** 14, 2 ** 15, 2 ** 16, 2 ** 17, 2 ** 18)
SPECTRAL_WINDOW = 20.0
SPECTRAL_BINS = 3


class Spectral:
    """One operation per (params, grid) pair; the pairs repeat every round."""

    def __init__(self, seed: int, workdir: str, variant: int = 0):
        rng = np.random.default_rng([seed, 1, variant])
        self.cases = []
        for n in SPECTRAL_SIZES:
            abcdpq = draw_matrix(rng)
            dt = SPECTRAL_WINDOW / n
            start = (int(rng.integers(-n // 8, n // 8 + 1)) - n // 2) * dt
            t = start + dt * np.arange(n)
            P = params_mod.make_params(*abcdpq)
            f = _signal(start, dt, draw_signal(rng, t, SPECTRAL_WINDOW))
            t1, t2 = rng.uniform(5e-4, 5e-3, size=2)
            self.cases.append({
                "n": n, "abcdpq": abcdpq, "P": P, "t": t, "dt": dt, "f": f,
                "grid": f.grid, "bank": multipliers.LPBank.for_grid(P, f.grid),
                "symbol": multipliers.imaginary_power(rng.uniform(0.5, 2.0)),
                "t1": float(t1), "t2": float(t2),
                "bins": np.sort(rng.choice(n, SPECTRAL_BINS, replace=False)),
            })

    def warm_up(self):
        self._run(self.cases[0])

    def round(self) -> list:
        return [Op(f"spectral/{c['n']}", lambda c=c: self._run(c),
                   lambda out, c=c: self._check(c, out)) for c in self.cases]

    @staticmethod
    def _run(c):
        P, f = c["P"], c["f"]
        plan = engine.make_plan(P, c["grid"])
        F = engine.saft_fast(plan, f)
        back = engine.isaft(plan, F, f.mode)
        blocks = multipliers.lp_project(P, c["bank"], f, plan)
        mult = multipliers.apply_multiplier(P, c["symbol"], f)
        heat = engine.heat_evolve(P, f, c["t1"] + c["t2"])
        deriv = engine.twisted_derivative(P, f, "spectral")
        return plan, F, back, blocks, mult, heat, deriv

    @staticmethod
    def _check(c, out):
        plan, F, back, blocks, mult, heat, deriv = out
        f, dt, n = c["f"].samples, c["dt"], c["n"]
        _, b, _, _, p, _ = c["abcdpq"]
        nf = l2sq(f, dt)
        dw = abs(b) / (n * dt)

        require("round trip", relerr(back.samples, f), 1e-10)
        require("Plancherel", abs(l2sq(F.samples, dw) - nf) / nf, 1e-10)

        w_all = sorted_frequencies(b, n, dt)
        k = c["bins"]
        require("frequency grid",
                float(np.max(np.abs(F.freq_grid.nodes()[k] - w_all[k]))) / dw, 1e-6)
        ref = riemann_bins(c["abcdpq"], c["t"], dt, f, w_all[k])
        scale = dt / np.sqrt(abs(b)) * float(np.sum(np.abs(f)))
        require("spectrum bins vs direct Riemann sum",
                float(np.max(np.abs(F.samples[k] - ref))) / scale, 1e-9)

        require("imagpow multiplier preserves L2",
                abs(l2sq(mult.samples, dt) - nf) / nf, 1e-10)

        fmax = float(np.max(np.abs(f)))
        half = engine.heat_evolve(c["P"], c["f"], c["t1"])
        twice = engine.heat_evolve(c["P"], half, c["t2"])
        require("heat semigroup",
                float(np.max(np.abs(twice.samples - heat.samples))) / fmax, 1e-10)
        require("heat flow does not increase L2",
                l2sq(heat.samples, dt) / nf - 1.0, 1e-12)

        worst = 0.0
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                worst = max(worst, abs(np.vdot(blocks[j].samples, blocks[i].samples)))
        expect(len(blocks) > 1, "LP bank has more than one block")
        require("LP blocks orthogonal", dt * worst / nf, 1e-10)

        sym = 2j * np.pi * (w_all - p) / b
        require("twisted derivative symbol",
                relerr(engine.saft_fast(plan, deriv).samples, sym * F.samples), 1e-9)

    def close(self):
        pass


# ---------------------------------------------------------------------------
# gate: the verification battery as CI runs it, plus the documented CLI on
# JSON and CSV files.

GATE_SIZE = 512
# Battery seeds are fixed: about a third of all seeds hit the T1.08/X1.a
# normalization fault (see README.md), so a seed drawn per run would make
# the failed share differ between runs.  42 is the CI default and passes for
# every set; (generic, 1) hits the fault every time and is counted as failed.
GATE_BATTERIES = (("fourier", 42), ("frft:pi/4", 42), ("generic", 42), ("generic", 1))
GATE_WARM_SIZE = 256
CLI_N, CLI_STFT_N = 2 ** 14, 256
CLI_WARM_N, CLI_WARM_STFT_N = 1024, 64
CLI_WINDOW = 20.0


class Gate:
    """Four verify batteries and one CLI pipeline per round.

    The CLI pipeline draws a fresh parameter set, symbol, grid origin and
    signals every round, so no (params, grid) pair repeats.
    """

    def __init__(self, seed: int, workdir: str, variant: int = 0):
        sets = verify.standard_parameter_sets()
        rng = np.random.default_rng([seed, 4, variant])
        order = rng.permutation(len(GATE_BATTERIES))
        self.batteries = [(GATE_BATTERIES[i], sets[GATE_BATTERIES[i][0]]) for i in order]
        self.warm_seed = int(rng.integers(1000))
        self.rng = rng
        self.reports = {}
        self.dir = tempfile.mkdtemp(prefix="gate-", dir=workdir)

    def _path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def warm_up(self):
        """One tier-1 battery at a smaller size and the CLI at small sizes."""
        verify.run_verify(self.batteries[0][1], GATE_WARM_SIZE, self.warm_seed,
                          tiers=(1,), include_bench=False)
        self._cli_op(CLI_WARM_N, CLI_WARM_STFT_N).run()

    def round(self) -> list:
        ops = [Op(f"gate/{name}@{bseed}",
                  lambda P=P, bseed=bseed: verify.run_verify(P, GATE_SIZE, bseed,
                                                             include_bench=False),
                  lambda rep, key=(name, bseed): self._check_battery(key, rep))
               for (name, bseed), P in self.batteries]
        return ops + [self._cli_op(CLI_N, CLI_STFT_N)]

    def _check_battery(self, key, report):
        text = report.to_json()
        previous = self.reports.setdefault(key, text)
        if previous != text:
            raise Incorrect(f"battery {key} is not reproducible: to_json() differs")
        if not report.passed:
            failing = [c.check_id for c in report.checks if not c.passed]
            raise Failed(f"battery {key} failed {failing}")

    def _cli_op(self, n: int, n_stft: int) -> Op:
        """saft -> isaft -> mult on JSON, mult on CSV, stft, all through cli.main.

        The benchmark writes the inputs before the timed part.  The time grid
        starts a seeded whole number of steps off the centred grid, and
        isaft is given that origin with --start, as documented.
        """
        rng = self.rng
        abcdpq = draw_matrix(rng)
        ptxt = params_text(abcdpq)
        stxt = f"imagpow:{rng.uniform(0.5, 2.0)!r}"
        dt = CLI_WINDOW / n
        start = (int(rng.integers(-n // 8, n // 8 + 1)) - n // 2) * dt
        t = start + dt * np.arange(n)
        f = draw_signal(rng, t, CLI_WINDOW)
        write_signal_json(self._path("f.json"), start, dt, f, "cyclic")
        write_signal_csv(self._path("f.csv"), t, f)
        dts = CLI_WINDOW / n_stft
        ts = -n_stft // 2 * dts + dts * np.arange(n_stft)
        s = draw_signal(rng, ts, CLI_WINDOW)
        write_signal_json(self._path("s.json"), ts[0], dts, s, "cyclic")
        case = {"abcdpq": abcdpq, "dt": dt, "start": start, "f": f, "dts": dts, "s": s}
        P = self._path
        argv = (
            ["saft", f"--params={ptxt}", "--in", P("f.json"), "--out", P("F.json")],
            ["isaft", f"--start={start!r}", "--in", P("F.json"), "--out", P("back.json")],
            ["mult", f"--params={ptxt}", f"--symbol={stxt}",
             "--in", P("back.json"), "--out", P("mult.json")],
            ["mult", f"--params={ptxt}", f"--symbol={stxt}",
             "--in", P("f.csv"), "--out", P("mult.csv")],
            ["stft", "-g", "gaussian", "--in", P("s.json"), "--out", P("V.json")],
        )
        return Op("gate/cli", lambda: self._run_cli(argv),
                  lambda out: self._check_cli(case, out))

    @staticmethod
    def _run_cli(argv):
        codes = [cli.main(list(a)) for a in argv]
        if any(codes):
            raise Failed(f"CLI exit codes {codes}")
        return codes

    def _check_cli(self, c, _codes):
        f, dt = c["f"], c["dt"]
        n = f.size
        b = c["abcdpq"][1]
        nf = l2sq(f, dt)

        back = read_signal_json(self._path("back.json"))
        expect(back["values"].size == n, "isaft output has N samples")
        require("isaft returns the input",
                max(relerr(back["values"], f), abs(back["start"] - c["start"]) / dt,
                    abs(back["step"] - dt) / dt), 1e-10)

        F = read_signal_json(self._path("F.json"))
        expect(F["values"].size == n, "spectrum file has N samples")
        require("spectrum file step is |b| / (N dt)",
                abs(F["step"] * n * dt / abs(b) - 1.0), 1e-12)
        require("Plancherel on the spectrum file",
                abs(l2sq(F["values"], F["step"]) - nf) / nf, 1e-10)

        mj = read_signal_json(self._path("mult.json"))
        t_csv, mc = read_signal_csv(self._path("mult.csv"))
        expect(mc.size == n and mj["values"].size == n, "mult outputs have N samples")
        require("CSV mult equals JSON mult", relerr(mc, mj["values"]), 1e-9)
        require("CSV mult time column",
                float(np.max(np.abs(t_csv - (c["start"] + dt * np.arange(n))))) / dt, 1e-6)
        require("imagpow mult preserves L2",
                abs(l2sq(mj["values"], dt) - nf) / nf, 1e-10)

        V = read_tf_json(self._path("V.json"))
        s, dts = c["s"], c["dts"]
        m = s.size
        expect(V["x_count"] == m and V["w_count"] == m and V["values"].size == m * m,
               "STFT file lattice is N x N")
        dx, dw = dts, 1.0 / (m * dts)
        energy = l2sq(s, dts)  # the CLI's Gaussian window has unit L2 norm
        require("STFT Moyal identity on the JSON file",
                abs(dx * dw * float(np.sum(np.abs(V["values"]) ** 2)) - energy) / energy,
                1e-10)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {"spectral": Spectral, "gate": Gate}
