"""Command-line front end.

Every subcommand is a thin shell over library operations; no numerical
logic lives here.  Signals and spectra travel as the JSON/CSV formats
defined in the grid module.  `verify` exits nonzero iff any check fails,
which makes it CI-consumable.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import bench as bench_mod
from .aconv import aconv_fast, aconv_oracle, approx_identity_run, young_check
from .engine import (heat_evolve, isaft, make_plan, saft_fast, saft_oracle,
                     twisted_derivative)
from .families import bandlimited_family, covered_family
from .grid import (Grid, Signal, centered_grid, load_signal, load_signal_csv,
                   load_spectrum, save_signal, save_signal_csv, save_spectrum,
                   signal_to_dict, tail_mass)
from .multipliers import (LPBank, SymbolSpec, apply_multiplier, dyadic_bump,
                          hormander_scale_invariance, hormander_validate,
                          imaginary_power, indicator_symbol, lp_project,
                          lp_ratio_probe, multiplier_norm_probe, smoothed_sign,
                          square_function)
from .operators import (a_modulate, a_translate, chirp, involution, modulate,
                        translate)
from .params import SaftParams, make_params, radial_weight, special_params, unit_weight
from .timefreq import (a_mod_norm, gaussian_window, mod_norm,
                       raised_cosine_window, stft, tf_to_dict)
from .verify import VALID_SIZES, run_verify


def parse_params(text: str) -> SaftParams:
    """fourier | frft:THETA | fresnel:B | a,b,c,d,p,q"""
    if text == "fourier":
        return special_params("fourier")
    if text.startswith("frft:"):
        return special_params("frft", float(text.split(":", 1)[1]))
    if text.startswith("fresnel:"):
        return special_params("fresnel", float(text.split(":", 1)[1]))
    parts = [float(x) for x in text.split(",")]
    if len(parts) == 4:
        return special_params("lct", *parts)
    if len(parts) == 6:
        return make_params(*parts)
    raise argparse.ArgumentTypeError(
        "expected fourier | frft:THETA | fresnel:B | a,b,c,d,p,q")


def parse_symbol(text: str) -> SymbolSpec:
    """imagpow:ALPHA | smoothsign:S | dyadicbump:J | indicator:LO,HI"""
    kind, _, arg = text.partition(":")
    if kind == "imagpow":
        return imaginary_power(float(arg))
    if kind == "smoothsign":
        return smoothed_sign(float(arg))
    if kind == "dyadicbump":
        return dyadic_bump(int(arg))
    if kind == "indicator":
        lo, hi = (float(x) for x in arg.split(","))
        return indicator_symbol(lo, hi)
    raise argparse.ArgumentTypeError(f"unknown symbol spec: {text!r}")


def parse_weight(text: str):
    if text == "unit":
        return unit_weight()
    if text.startswith("v_ell:"):
        return radial_weight(float(text.split(":", 1)[1]))
    raise argparse.ArgumentTypeError("expected unit | v_ell:L")


def _read_signal(path: str, mode: str | None = None) -> Signal:
    f = load_signal_csv(path) if path.endswith(".csv") else load_signal(path)
    if mode is not None and mode != f.mode:
        f = Signal(f.grid, f.samples, mode)
    return f


def _write_signal(f: Signal, path: str):
    if path.endswith(".csv"):
        save_signal_csv(f, path)
    else:
        save_signal(f, path)


def _window(name: str, grid: Grid) -> Signal:
    if name == "gaussian":
        return gaussian_window(grid)
    if name == "raisedcos":
        return raised_cosine_window(grid)
    raise argparse.ArgumentTypeError("window must be gaussian or raisedcos")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="saftkit", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, inp=True, out=True):
        p.add_argument("--params", type=parse_params, default=parse_params("fourier"),
                       help="fourier | frft:THETA | fresnel:B | a,b,c,d,p,q; "
                       "write --params=-0.5,... when the first entry is negative")
        if inp:
            p.add_argument("--in", dest="infile", required=True,
                           help="input signal (.json or .csv)")
        if out:
            p.add_argument("--out", dest="outfile", required=True)

    p = sub.add_parser("saft", help="forward transform")
    common(p)
    p.add_argument("--oracle", action="store_true",
                   help="use the O(N^2) quadrature path")
    p.add_argument("--tail-report", action="store_true",
                   help="print the window tail-mass diagnostic")

    p = sub.add_parser("isaft", help="inverse transform")
    common(p)
    p.add_argument("--start", type=float, default=None,
                   help="time-grid origin (default: centered window)")
    p.add_argument("--mode", choices=("compact", "cyclic"), default="cyclic")

    p = sub.add_parser("aconv", help="twisted convolution of two signals")
    common(p, inp=False)
    p.add_argument("inputs", nargs=2, help="two signal files on one grid")
    p.add_argument("--mode", choices=("compact", "cyclic"), default="compact")
    p.add_argument("--oracle", action="store_true")

    p = sub.add_parser("approxid", help="mollifier (approximate identity) run")
    common(p, out=False)
    p.add_argument("--phi", choices=("gaussian",), default="gaussian")
    p.add_argument("--eps", default="1,0.5,0.25,0.125",
                   help="decreasing comma list of widths")
    p.add_argument("-r", type=float, default=2.0)

    p = sub.add_parser("young", help="Young inequality check")
    common(p, inp=False, out=False)
    p.add_argument("inputs", nargs=2)
    p.add_argument("-r", type=float, required=True)
    p.add_argument("-s", type=float, required=True)

    p = sub.add_parser("op", help="apply one lattice operator")
    common(p)
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--translate", type=float)
    grp.add_argument("--a-translate", type=float, dest="a_translate")
    grp.add_argument("--modulate", type=float)
    grp.add_argument("--a-modulate", type=float, dest="a_modulate")
    grp.add_argument("--chirp", type=float)
    grp.add_argument("--involute", action="store_true")

    p = sub.add_parser("opB", help="twisted derivative operator")
    common(p)
    p.add_argument("--method", choices=("spectral", "fd"), default="spectral")

    p = sub.add_parser("heat", help="heat flow of the twisted Laplacian")
    common(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--method", choices=("multiplier", "kernel"),
                   default="multiplier")

    p = sub.add_parser("stft", help="full-lattice short-time Fourier transform")
    common(p)
    p.add_argument("-g", "--window", default="gaussian",
                   choices=("gaussian", "raisedcos"))

    p = sub.add_parser("modnorm", help="modulation norm")
    common(p, out=False)
    p.add_argument("-r", type=float, required=True)
    p.add_argument("-s", type=float, required=True)
    p.add_argument("--weight", type=parse_weight, default=unit_weight())
    p.add_argument("-g", "--window", default="gaussian",
                   choices=("gaussian", "raisedcos"))

    p = sub.add_parser("amodnorm", help="twisted modulation norm")
    common(p, out=False)
    p.add_argument("-r", type=float, required=True)
    p.add_argument("-s", type=float, required=True)
    p.add_argument("--weight", type=parse_weight, default=unit_weight())
    p.add_argument("-g", "--window", default="gaussian",
                   choices=("gaussian", "raisedcos"))

    p = sub.add_parser("lp", help="dyadic block projections")
    common(p)
    p.add_argument("--jmin", type=int, default=None)
    p.add_argument("--jmax", type=int, default=None)
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--reconstruct", action="store_true",
                     help="write the sum of the blocks")
    grp.add_argument("--square", action="store_true",
                     help="write the square function")

    p = sub.add_parser("mult", help="apply a transform-domain multiplier")
    common(p)
    p.add_argument("--symbol", type=parse_symbol, required=True)

    p = sub.add_parser("probe", help="stability probes")
    common(p, inp=False, out=False)
    p.add_argument("--kind", choices=("lp", "hormander"), required=True)
    p.add_argument("-r", type=float, default=2.0)
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--size", type=int, default=512)

    p = sub.add_parser("verify", help="run the identity battery")
    common(p, inp=False, out=False)
    p.add_argument("--size", type=int, default=512, choices=VALID_SIZES)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tiers", default="1,2,3")
    p.add_argument("--json", action="store_true", dest="as_json")
    p.add_argument("--no-bench", action="store_true",
                   help="skip the (non-deterministic) timing check")

    p = sub.add_parser("bench", help="oracle vs fast timing table")
    common(p, inp=False, out=False)
    p.add_argument("--sizes", default="256,512,1024,2048,4096")
    p.add_argument("--repeats", type=int, default=5)

    p = sub.add_parser("plotdata", help="columnar data for plotting")
    common(p, out=True)
    p.add_argument("--kind", required=True,
                   choices=("spectrum_magnitude", "tf_magnitude", "lp_blocks",
                            "heat_snapshots"))
    p.add_argument("--t", default="0.05,0.2", help="heat snapshot times")
    p.add_argument("-g", "--window", default="gaussian",
                   choices=("gaussian", "raisedcos"))
    return top


def _csv_out(path: str, header: list, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(row)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    P = args.params

    if args.command == "saft":
        f = _read_signal(args.infile)
        if args.tail_report:
            print(f"tail mass (outer 5% of window): {tail_mass(f):.3e}")
        F = saft_oracle(P, f) if args.oracle else saft_fast(make_plan(P, f.grid), f)
        save_spectrum(F, args.outfile)
        return 0

    if args.command == "isaft":
        F = load_spectrum(args.infile)
        n = F.freq_grid.count
        dt = abs(F.params.b) / (n * F.freq_grid.step)  # grid-coupling identity
        start = args.start if args.start is not None else -n * dt / 2.0
        plan = make_plan(F.params, Grid(start, dt, n))
        _write_signal(isaft(plan, F, args.mode), args.outfile)
        return 0

    if args.command == "aconv":
        f = _read_signal(args.inputs[0], args.mode)
        g = _read_signal(args.inputs[1], args.mode)
        conv = (aconv_oracle(P, f, g) if args.oracle
                else aconv_fast(P, f, g, args.mode))
        _write_signal(conv, args.outfile)
        return 0

    if args.command == "approxid":
        f = _read_signal(args.infile, "compact")
        eps = [float(x) for x in args.eps.split(",")]
        errs = approx_identity_run(P, f, lambda x: np.exp(-np.pi * x * x),
                                   eps, r=args.r)
        for e, v in zip(eps, errs):
            print(f"eps={e:g} error={v:.6e}")
        return 0

    if args.command == "young":
        f = _read_signal(args.inputs[0], "compact")
        g = _read_signal(args.inputs[1], "compact")
        res = young_check(P, f, g, args.r, args.s)
        print(f"lhs={res['lhs']:.12e} rhs={res['rhs']:.12e} "
              f"t={res['t']:g} pass={res['pass']}")
        return 0 if res["pass"] else 1

    if args.command == "op":
        f = _read_signal(args.infile)
        if args.translate is not None:
            out = translate(f, args.translate)
        elif args.a_translate is not None:
            out = a_translate(f, P, args.a_translate)
        elif args.modulate is not None:
            out = modulate(f, args.modulate)
        elif args.a_modulate is not None:
            out = a_modulate(f, P, args.a_modulate)
        elif args.chirp is not None:
            out = chirp(f, args.chirp)
        else:
            out = involution(f)
        _write_signal(out, args.outfile)
        return 0

    if args.command == "opB":
        f = _read_signal(args.infile)
        method = "spectral" if args.method == "spectral" else "finite_difference"
        _write_signal(twisted_derivative(P, f, method), args.outfile)
        return 0

    if args.command == "heat":
        f = _read_signal(args.infile)
        _write_signal(heat_evolve(P, f, args.t, args.method), args.outfile)
        return 0

    if args.command == "stft":
        f = _read_signal(args.infile, "cyclic")
        g = _window(args.window, f.grid)
        V = stft(f, g, window_id=args.window)
        with open(args.outfile, "w", encoding="utf-8") as fh:
            json.dump(tf_to_dict(V), fh)
        return 0

    if args.command == "modnorm":
        f = _read_signal(args.infile, "cyclic")
        g = _window(args.window, f.grid)
        print(f"{mod_norm(f, g, args.r, args.s, args.weight):.12e}")
        return 0

    if args.command == "amodnorm":
        f = _read_signal(args.infile, "cyclic")
        g = _window(args.window, f.grid)
        print(f"{a_mod_norm(P, f, g, args.r, args.s, args.weight):.12e}")
        return 0

    if args.command == "lp":
        f = _read_signal(args.infile, "cyclic")
        bank = (LPBank(args.jmin, args.jmax)
                if args.jmin is not None and args.jmax is not None
                else LPBank.for_grid(P, f.grid))
        blocks = lp_project(P, bank, f)
        if args.reconstruct:
            total = blocks[0].with_samples(
                np.sum([b.samples for b in blocks], axis=0))
            _write_signal(total, args.outfile)
        elif args.square:
            _write_signal(square_function(blocks), args.outfile)
        else:
            payload = {str(j): signal_to_dict(b)
                       for j, b in zip(bank.levels, blocks)}
            with open(args.outfile, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
        return 0

    if args.command == "mult":
        f = _read_signal(args.infile, "cyclic")
        _write_signal(apply_multiplier(P, args.symbol, f), args.outfile)
        return 0

    if args.command == "probe":
        grid = centered_grid(10.0, args.size)
        if args.kind == "hormander":
            sym = imaginary_power(1.0)
            fam = bandlimited_family(grid, args.count, args.seed)
            ratio = multiplier_norm_probe(P, sym, args.r, fam, args.count)
            omegas = np.linspace(-10, 10, 401)
            res = hormander_validate(sym, omegas)
            c1, c2 = hormander_scale_invariance(sym, P.b, omegas)
            print(f"max ratio={ratio:.6f} C_est={res['C_est']:.6f} "
                  f"scale dC={abs(c1 - c2):.2e}")
        else:
            bank = LPBank.for_grid(P, grid)
            fam = covered_family(P, bank, grid, args.count, args.seed)
            res = lp_ratio_probe(P, bank, args.r, fam, args.count)
            print(f"min ratio={res['min_ratio']:.6f} "
                  f"max ratio={res['max_ratio']:.6f}")
        return 0

    if args.command == "verify":
        tiers = tuple(int(t) for t in args.tiers.split(","))
        report = run_verify(P, args.size, args.seed, tiers,
                            include_bench=not args.no_bench)
        print(report.to_json() if args.as_json else report.render_text())
        return 0 if report.passed else 1

    if args.command == "bench":
        sizes = [int(s) for s in args.sizes.split(",")]
        rows = bench_mod.run_bench(P, sizes, repeats=args.repeats)
        print(bench_mod.render_table(rows))
        return 0

    if args.command == "plotdata":
        return _plotdata(args, P)

    raise AssertionError(args.command)


def _plotdata(args, P) -> int:
    if args.kind == "spectrum_magnitude":
        f = _read_signal(args.infile)
        F = saft_fast(make_plan(P, f.grid), f)
        _csv_out(args.outfile, ["omega", "magnitude"],
                 ((repr(float(w)), repr(float(abs(v))))
                  for w, v in zip(F.freq_grid.nodes(), F.samples)))
        return 0
    if args.kind == "tf_magnitude":
        f = _read_signal(args.infile, "cyclic")
        V = stft(f, _window(args.window, f.grid), window_id=args.window)
        rows = []
        for i, x in enumerate(V.x_grid.nodes()):
            for k, w in enumerate(V.w_grid.nodes()):
                rows.append((repr(float(x)), repr(float(w)),
                             repr(float(abs(V.values[i, k])))))
        _csv_out(args.outfile, ["x", "omega", "magnitude"], rows)
        return 0
    if args.kind == "lp_blocks":
        f = _read_signal(args.infile, "cyclic")
        bank = LPBank.for_grid(P, f.grid)
        blocks = lp_project(P, bank, f)
        header = ["t"] + [f"abs_block_{j}" for j in bank.levels]
        rows = []
        for n, t in enumerate(f.grid.nodes()):
            rows.append([repr(float(t))]
                        + [repr(float(abs(b.samples[n]))) for b in blocks])
        _csv_out(args.outfile, header, rows)
        return 0
    if args.kind == "heat_snapshots":
        f = _read_signal(args.infile, "cyclic")
        times = [t for t in (float(x) for x in args.t.split(",")) if t > 0]
        header = ["t"] + [f"abs_u_t{t:g}" for t in times]
        if not times:
            _csv_out(args.outfile, header, [])
            return 0
        snaps = [heat_evolve(P, f, t, "multiplier") for t in times]
        rows = []
        for n, x in enumerate(f.grid.nodes()):
            rows.append([repr(float(x))]
                        + [repr(float(abs(s.samples[n]))) for s in snaps])
        _csv_out(args.outfile, header, rows)
        return 0
    raise AssertionError(args.kind)


if __name__ == "__main__":
    sys.exit(main())
