"""Command-line front end.

Every subcommand is a thin shell over library operations: no numerical
logic, file format or input precondition lives here.  Exit codes: 0
success, 1 a check failed (`verify`, `young`), 2 bad input or usage.
`main` turns the library's InputError, or an OSError on a named file,
into one `saftkit CMD: error: FILE: MESSAGE` line on stderr; any other
exception is a fault of the program and keeps its traceback.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import bench as bench_mod
from .aconv import aconv_fast, aconv_oracle, approx_identity_run, young_check
from .engine import (chirp_period_compatible, heat_evolve, isaft, make_plan,
                     saft, saft_oracle, twisted_derivative)
from .families import bandlimited_family, covered_family
from .grid import (Grid, Signal, centered_grid, load_signal, load_signal_csv,
                   load_spectrum, save_columns_csv, save_json, save_signal,
                   save_signal_csv, save_spectrum, signal_to_dict, tail_mass)
from .multipliers import (LPBank, SymbolSpec, apply_multiplier, decay_constant,
                          derivative_defect, dyadic_bump, imaginary_power,
                          indicator_symbol, lp_project, norm_ratios,
                          smoothed_sign, square_function)
from .operators import (a_modulate, a_translate, chirp, involution, modulate,
                        translate)
from .params import (InputError, SaftParams, fourier_params, fresnel_params,
                     frft_params, make_params, radial_weight, unit_weight)
from .timefreq import (a_mod_norm, gaussian_window, mod_norm,
                       raised_cosine_window, stft, tf_to_dict)
from .verify import VALID_SIZES, run_verify

WINDOWS = {"gaussian": gaussian_window, "raisedcos": raised_cosine_window}


def _reasoned(parse):
    """argparse type: `parse`, with the library's InputError reason in the
    usage error (argparse reports a plain ValueError without its text)."""
    @functools.wraps(parse)
    def wrapped(text: str):
        try:
            return parse(text)
        except InputError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return wrapped


@_reasoned
def parse_params(text: str) -> SaftParams:
    """fourier | frft:THETA | fresnel:B | a,b,c,d,p,q"""
    if text == "fourier":
        return fourier_params()
    if text.startswith("frft:"):
        return frft_params(float(text.split(":", 1)[1]))
    if text.startswith("fresnel:"):
        return fresnel_params(float(text.split(":", 1)[1]))
    parts = [float(x) for x in text.split(",")]
    if len(parts) in (4, 6):  # a,b,c,d has zero offset
        return make_params(*parts)
    raise argparse.ArgumentTypeError(
        "expected fourier | frft:THETA | fresnel:B | a,b,c,d,p,q")


@_reasoned
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


@_reasoned
def parse_weight(text: str):
    if text == "unit":
        return unit_weight()
    if text.startswith("v_ell:"):
        return radial_weight(float(text.split(":", 1)[1]))
    raise argparse.ArgumentTypeError("expected unit | v_ell:L")


def list_of(convert):
    """argparse type for a comma list of `convert` values."""
    def parse(text: str) -> list:
        return [convert(x) for x in text.split(",")]
    parse.__name__ = f"{convert.__name__} list"  # argparse's error names it
    return parse


def _checked(convert, ok, name: str):
    """argparse type: `convert`, then reject a value `ok` refuses."""
    def parse(text: str):
        if not ok(value := convert(text)):
            raise ValueError(text)
        return value
    parse.__name__ = name
    return parse


finite_float = _checked(float, np.isfinite, "finite float")
non_negative_int = _checked(int, lambda k: k >= 0, "non-negative int")


def _read_signal(path: str, mode: str | None = None) -> Signal:
    f = load_signal_csv(path) if path.endswith(".csv") else load_signal(path)
    if mode is not None and mode != f.mode:
        f = Signal(f.grid, f.samples, mode)
    return f


def _read_pair(paths, mode: str) -> list[Signal]:
    signals = []
    for path in paths:
        try:
            signals.append(_read_signal(path, mode))
        except InputError as exc:  # `main` names the --in file only
            raise InputError(f"{path}: {exc}") from exc
    return signals


def _write_signal(f: Signal, path: str):
    (save_signal_csv if path.endswith(".csv") else save_signal)(f, path)


def _warn_cyclic_seam(command: str, params: SaftParams, f: Signal):
    """One stderr line when f is cyclic and chirp_period_compatible is false."""
    if f.mode == "cyclic" and not chirp_period_compatible(params, f.grid):
        print(f"saftkit {command}: warning: p * (N dt) / b is not an integer, "
              "so identities that move mass across the window seam are not "
              "exact in cyclic mode", file=sys.stderr)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, and every call gets a fresh namespace."""
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

    def window(p):
        p.add_argument("-g", "--window", default="gaussian", choices=tuple(WINDOWS))

    p = sub.add_parser("saft", help="forward transform")
    common(p)
    p.add_argument("--oracle", action="store_true",
                   help="use the O(N^2) quadrature path")
    p.add_argument("--tail-report", action="store_true",
                   help="print the window tail-mass diagnostic")

    p = sub.add_parser("isaft", help="inverse transform")
    common(p)
    p.add_argument("--start", type=float, default=None,
                   help="time-grid origin (default: the origin stored in the "
                   "spectrum file, else a centered window)")
    p.add_argument("--mode", choices=("compact", "cyclic"), default="cyclic")

    p = sub.add_parser("aconv", help="twisted convolution of two signals")
    common(p, inp=False)
    p.add_argument("inputs", nargs=2, help="two signal files on one grid")
    p.add_argument("--mode", choices=("compact", "cyclic"), default="compact")
    p.add_argument("--oracle", action="store_true")

    p = sub.add_parser("approxid", help="mollifier (approximate identity) run")
    common(p, out=False)
    p.add_argument("--eps", type=list_of(float), default=[1.0, 0.5, 0.25, 0.125],
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
    grp.add_argument("--translate", type=finite_float)
    grp.add_argument("--a-translate", type=finite_float, dest="a_translate")
    grp.add_argument("--modulate", type=finite_float)
    grp.add_argument("--a-modulate", type=finite_float, dest="a_modulate")
    grp.add_argument("--chirp", type=finite_float)
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
    window(p)

    for name, text in (("modnorm", "modulation norm"),
                       ("amodnorm", "twisted modulation norm")):
        p = sub.add_parser(name, help=text)
        common(p, out=False)
        p.add_argument("-r", type=float, required=True)
        p.add_argument("-s", type=float, required=True)
        p.add_argument("--weight", type=parse_weight, default=unit_weight())
        window(p)

    p = sub.add_parser("lp", help="dyadic block projections")
    common(p)
    p.add_argument("--jmin", type=int, default=None,
                   help="lowest level, given with --jmax (default: widest bank)")
    p.add_argument("--jmax", type=int, default=None,
                   help="highest level, given with --jmin")
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
    p.add_argument("--count", type=non_negative_int, default=8)
    p.add_argument("--seed", type=non_negative_int, default=42)
    p.add_argument("--size", type=int, default=512)

    p = sub.add_parser("verify", help="run the identity battery")
    common(p, inp=False, out=False)
    p.add_argument("--size", type=int, default=512, choices=VALID_SIZES)
    p.add_argument("--seed", type=non_negative_int, default=42)
    p.add_argument("--tiers", type=list_of(int), default=[1, 2, 3])
    p.add_argument("--json", action="store_true", dest="as_json")
    p.add_argument("--no-bench", action="store_true",
                   help="skip the (non-deterministic) timing check")

    p = sub.add_parser("bench", help="oracle vs fast timing table")
    common(p, inp=False, out=False)
    p.add_argument("--sizes", type=list_of(int), default=[256, 512, 1024, 2048, 4096])
    p.add_argument("--repeats", type=int, default=5)

    p = sub.add_parser("plotdata", help="columnar data for plotting")
    common(p, out=True)
    p.add_argument("--kind", required=True,
                   choices=("spectrum_magnitude", "tf_magnitude", "lp_blocks",
                            "heat_snapshots"))
    p.add_argument("--t", type=list_of(finite_float), default=[0.05, 0.2],
                   help="heat snapshot times")
    window(p)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except InputError as exc:
        where, message = getattr(args, "infile", None), exc
    except OSError as exc:
        if exc.filename is None:
            raise
        where, message = exc.filename, exc.strerror
    where = f"{where}: " if where else ""
    print(f"saftkit {args.command}: error: {where}{message}", file=sys.stderr)
    return 2


def _run(args) -> int:
    P = args.params

    if args.command == "saft":
        f = _read_signal(args.infile)
        if args.tail_report:
            print(f"tail mass (outer 5% of window): {tail_mass(f):.3e}")
        F = saft_oracle(P, f) if args.oracle else saft(P, f)
        save_spectrum(F, args.outfile)
        return 0

    if args.command == "isaft":
        F = load_spectrum(args.infile)
        n = F.freq_grid.count
        dt = abs(F.params.b) / (n * F.freq_grid.step)  # grid-coupling identity
        start = args.start if args.start is not None else F.time_start
        if start is None:
            start = -n * dt / 2.0
        plan = make_plan(F.params, Grid(start, dt, n))
        _write_signal(isaft(plan, F, args.mode), args.outfile)
        return 0

    if args.command == "aconv":
        f, g = _read_pair(args.inputs, args.mode)
        conv = (aconv_oracle(P, f, g) if args.oracle
                else aconv_fast(P, f, g, args.mode))
        if not args.oracle:
            _warn_cyclic_seam(args.command, P, f)
        _write_signal(conv, args.outfile)
        return 0

    if args.command == "approxid":
        f = _read_signal(args.infile, "compact")
        errs = approx_identity_run(P, f, lambda x: np.exp(-np.pi * x * x),
                                   args.eps, r=args.r)
        for e, v in zip(args.eps, errs):
            print(f"eps={e:g} error={v:.6e}")
        return 0

    if args.command == "young":
        f, g = _read_pair(args.inputs, "compact")
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
            _warn_cyclic_seam(args.command, P, f)
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
        V = stft(f, WINDOWS[args.window](f.grid), window_id=args.window)
        save_json(tf_to_dict(V), args.outfile)
        return 0

    if args.command in ("modnorm", "amodnorm"):
        f = _read_signal(args.infile, "cyclic")
        g = WINDOWS[args.window](f.grid)
        if args.command == "modnorm":
            norm = mod_norm(f, g, args.r, args.s, args.weight)
        else:
            norm = a_mod_norm(P, f, g, args.r, args.s, args.weight)
            _warn_cyclic_seam(args.command, P, f)
        print(f"{norm:.12e}")
        return 0

    if args.command == "lp":
        if (args.jmin is None) != (args.jmax is None):
            raise InputError("--jmin and --jmax go together")
        f = _read_signal(args.infile, "cyclic")
        bank = (LPBank(args.jmin, args.jmax) if args.jmin is not None
                else LPBank.for_grid(P, f.grid))
        blocks = lp_project(P, bank, f)
        if args.reconstruct:
            total = blocks[0].with_samples(
                np.sum([b.samples for b in blocks], axis=0))
            _write_signal(total, args.outfile)
        elif args.square:
            _write_signal(square_function(blocks), args.outfile)
        else:
            save_json({str(j): signal_to_dict(b)
                       for j, b in zip(bank.levels, blocks)}, args.outfile)
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
            (_, ratio), = norm_ratios(lambda f: apply_multiplier(P, sym, f),
                                      (args.r,), fam)
            omegas = np.linspace(-10, 10, 401)
            print(f"max ratio={ratio:.6f} C_est={decay_constant(sym, omegas):.6f} "
                  f"deriv defect={derivative_defect(sym, omegas):.2e}")
        else:
            bank = LPBank.for_grid(P, grid)
            fam = covered_family(P, bank, grid, args.count, args.seed)
            (lo, hi), = norm_ratios(
                lambda f: square_function(lp_project(P, bank, f)), (args.r,), fam)
            print(f"min ratio={lo:.6f} max ratio={hi:.6f}")
        return 0

    if args.command == "verify":
        report = run_verify(P, args.size, args.seed, tuple(args.tiers),
                            include_bench=not args.no_bench)
        print(report.to_json() if args.as_json else report.render_text())
        return 0 if report.passed else 1

    if args.command == "bench":
        rows = bench_mod.run_bench(P, args.sizes, repeats=args.repeats)
        print(bench_mod.render_table(rows))
        return 0

    if args.command == "plotdata":
        return _plotdata(args, P)

    raise AssertionError(args.command)


def _magnitude(z: np.ndarray) -> np.ndarray:
    # rounds like abs() of each complex value; np.abs of the array does not
    return np.hypot(z.real, z.imag)


def _plotdata(args, P) -> int:
    f = _read_signal(args.infile,
                     None if args.kind == "spectrum_magnitude" else "cyclic")
    if args.kind == "spectrum_magnitude":
        F = saft(P, f)
        header = ["omega", "magnitude"]
        columns = [F.freq_grid.nodes(), _magnitude(F.samples)]
    elif args.kind == "tf_magnitude":
        V = stft(f, WINDOWS[args.window](f.grid), window_id=args.window)
        x, w = np.meshgrid(V.x_grid.nodes(), V.w_grid.nodes(), indexing="ij")
        header = ["x", "omega", "magnitude"]
        columns = [x.ravel(), w.ravel(), _magnitude(V.values).ravel()]
    elif args.kind == "lp_blocks":
        bank = LPBank.for_grid(P, f.grid)
        header = ["t"] + [f"abs_block_{j}" for j in bank.levels]
        columns = [f.grid.nodes()] + [_magnitude(b.samples)
                                      for b in lp_project(P, bank, f)]
    else:
        times = [x for x in args.t if x > 0]
        header = ["t"] + [f"abs_u_t{x:g}" for x in times]
        columns = ([f.grid.nodes()]
                   + [_magnitude(heat_evolve(P, f, x, "multiplier").samples)
                      for x in times]) if times else []
    save_columns_csv(args.outfile, header, columns)
    return 0


if __name__ == "__main__":
    sys.exit(main())
