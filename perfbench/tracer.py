"""Span tracer that wraps saftkit's public functions from outside the package.

saftkit modules import each other's functions by name (``multipliers``
does ``from .engine import saft_fast``), so wrapping one module attribute
is not enough: `Tracer.install` rebinds the name in every ``saftkit.*``
module whose binding is the original function, and `uninstall` puts the
originals back.

Each wrapped call records a span ``[name, start, end, parent]`` in memory.
A span's self time is its duration minus the durations of its direct
children.  numpy.fft transforms are wrapped as counters only (calls and
transformed points), so FFT time stays inside the layer that asked for it.
Nothing is recorded while `recording` is false.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

# Layer name -> (module, function names).  Several functions may feed one
# layer name (the grid savers and loaders).
LAYERS = {
    "engine.make_plan": ("saftkit.engine", ("make_plan",)),
    "engine.saft_fast": ("saftkit.engine", ("saft_fast",)),
    "engine.isaft": ("saftkit.engine", ("isaft",)),
    "engine.saft_oracle": ("saftkit.engine", ("saft_oracle",)),
    "engine.heat_evolve": ("saftkit.engine", ("heat_evolve",)),
    "engine.twisted_derivative": ("saftkit.engine", ("twisted_derivative",)),
    "multipliers.apply_multiplier": ("saftkit.multipliers", ("apply_multiplier",)),
    "multipliers.lp_project": ("saftkit.multipliers", ("lp_project",)),
    "timefreq.a_mod_norm": ("saftkit.timefreq", ("a_mod_norm",)),
    "timefreq.mod_norm": ("saftkit.timefreq", ("mod_norm",)),
    "timefreq.stft": ("saftkit.timefreq", ("stft",)),
    "timefreq.tf_to_dict": ("saftkit.timefreq", ("tf_to_dict",)),
    "aconv.aconv_fast": ("saftkit.aconv", ("aconv_fast",)),
    "params.quad_chirp": ("saftkit.params", ("quad_chirp",)),
    "operators.a_modulate": ("saftkit.operators", ("a_modulate",)),
    "grid.save": ("saftkit.grid", ("save_signal", "save_spectrum",
                                   "save_signal_csv")),
    "grid.load": ("saftkit.grid", ("load_signal", "load_spectrum",
                                   "load_signal_csv")),
    "cli.main": ("saftkit.cli", ("main",)),
    "verify.tier1": ("saftkit.verify", ("tier1",)),
    "verify.tier2": ("saftkit.verify", ("tier2",)),
    "verify.tier3": ("saftkit.verify", ("tier3",)),
}

FFT_FUNCTIONS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft",
                 "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")

# Per-layer metrics in the order they are reported; every name here is
# printed by every traced run, zero where a workload never calls the layer.
COUNTERS = ("grid.bytes_written", "grid.bytes_read", "fft.calls", "fft.points")


def metric_names() -> list:
    names = []
    for layer in LAYERS:
        names += [f"{layer}.calls", f"{layer}.self_s"]
    names.append("engine.transforms_per_plan")
    names += list(COUNTERS)
    return names


def metric_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.startswith("grid.bytes_"):
        return "B"
    if name == "engine.transforms_per_plan":
        return "ratio"
    return "count"


class Tracer:
    def __init__(self):
        self.recording = False
        self.spans = []
        self._stack = []
        self.counts = defaultdict(int)
        self._rebound = []  # (module, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self):
        import numpy.fft

        for layer, (modname, funcs) in LAYERS.items():
            module = sys.modules[modname]
            for fname in funcs:
                original = getattr(module, fname)
                hook = _SIZE_HOOKS.get(fname)
                self._rebind(original, self._span_wrapper(layer, original, hook))
        for fname in FFT_FUNCTIONS:
            original = getattr(numpy.fft, fname)
            wrapper = self._fft_wrapper(original)
            self._rebound.append((numpy.fft, fname, original))
            setattr(numpy.fft, fname, wrapper)

    def _rebind(self, original, wrapper):
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "saftkit"
                                      or modname.startswith("saftkit.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._rebound.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                counter, index = hook
                path = args[index] if len(args) > index else kwargs["path"]
                self.counts[counter] += os.path.getsize(path)
            return result
        return wrapper

    def _fft_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self.recording:
                self.counts["fft.calls"] += 1
                self.counts["fft.points"] += out.size
            return out
        return wrapper

    # -- results ----------------------------------------------------------

    def layer_totals(self) -> dict:
        """Per layer name: number of calls and summed self time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        return {"calls": calls, "self_s": self_s}

    def metrics(self, rounds: int) -> dict:
        """Every per-layer metric, divided by the number of traced rounds."""
        totals = self.layer_totals()
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = totals["calls"][layer] / rounds
            out[f"{layer}.self_s"] = totals["self_s"][layer] / rounds
        plans = totals["calls"]["engine.make_plan"]
        transforms = (totals["calls"]["engine.saft_fast"]
                      + totals["calls"]["engine.isaft"])
        out["engine.transforms_per_plan"] = transforms / plans if plans else 0.0
        for name in COUNTERS:
            out[name] = self.counts[name] / rounds
        return {name: {"value": out[name], "unit": metric_unit(name)}
                for name in metric_names()}

    def write(self, path: str):
        """Spans as {"names": [...], "spans": [[name_index, start, end, parent]]}."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names,
                       "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
                       "counts": dict(self.counts)}, fh)


# File-size counters of the savers and loaders: (counter, index of the
# path argument).
_SIZE_HOOKS = {
    "save_signal": ("grid.bytes_written", 1),
    "save_spectrum": ("grid.bytes_written", 1),
    "save_signal_csv": ("grid.bytes_written", 1),
    "load_signal": ("grid.bytes_read", 0),
    "load_spectrum": ("grid.bytes_read", 0),
    "load_signal_csv": ("grid.bytes_read", 0),
}
