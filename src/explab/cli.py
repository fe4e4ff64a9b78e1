"""Command-line front end.

Exit codes: 0 success, 1 domain error (message names the violated
precondition), 2 usage or expression-parse error.  Text output prints
floats at a configurable number of significant digits (default 6;
--precision, on the subcommands whose text shows a float); exact
rationals print as a/b.  Output goes to stdout unless --out is given.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys

import numpy as np

from . import gridset
from .expharness import (
    builtin_scenario,
    builtin_scenarios,
    parse_scenario,
    report_to_csv,
    report_to_dict,
    run_scenario,
    write_plot_data,
)
from .geomdecomp import (
    FullSquareRegion,
    LinearProjection,
    NewtonConvergenceError,
    PinnedDistance,
    PolynomialMap,
    PolynomialSignRegion,
    PuncturedSquareRegion,
    band_partition,
    blaschke_curvature,
    extract_product,
    format_cube_decomposition,
    whitney_decompose,
)
from .gridset import Scale, gen_ap, gen_cantor, load_gridset
from .polyexpr import ExpressionError, classify_special_form, hf_general, hf_poly, mp_numerator, parse_poly
from .polyexpr import read_float, read_fraction, read_int


def _fmt(value, precision):
    return f"{value:.{precision}g}"


def _emit(result: dict, text_lines, args, csv_text=None) -> None:
    """Write result as JSON, as CSV (csv_text, or by default a header and
    one row of result's scalars) or as text_lines."""
    if args.format == "json":
        payload = json.dumps(result, sort_keys=True, separators=(",", ":"))
    elif args.format == "csv":
        if csv_text is None:
            flat = {k: v for k, v in result.items() if not isinstance(v, (dict, list))}
            csv_text = _csv_text([list(flat), map(str, flat.values())])
        payload = csv_text
    else:
        payload = "\n".join(text_lines)
    if not payload.endswith("\n"):
        payload += "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _csv_text(rows) -> str:
    """The CSV lines of rows, each ending in a newline; a field holding a
    comma, a quote or a line break is quoted."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _generator_from_args(args):
    if args.gen == "ap":
        return gen_ap(args.alpha, args.eta, Scale(args.k))
    if args.gen == "cantor":
        if args.base < 2 or args.base & (args.base - 1):
            raise ValueError(f"--base must be a power of 2 (at least 2), got {args.base}")
        bits = args.base.bit_length() - 1
        if args.k % bits:
            raise ValueError(
                f"--k must be a multiple of log2(--base) = {bits}, got --k {args.k}"
            )
        try:
            pattern = [read_int(t) for t in args.pattern.split(",")]
        except ValueError:
            pattern = [-1]
        if not all(0 <= d < args.base for d in pattern):
            raise ValueError(
                f"--pattern must be comma-separated digits in [0, {args.base}), got {args.pattern!r}"
            )
        return gen_cantor(pattern, args.base, args.k // bits)
    # --gen file: argparse's choices refuse any other name.
    if not args.set_file:
        raise ValueError("--gen file needs --set-file")
    S = load_gridset(args.set_file)
    if not isinstance(S, gridset.GridSet1D):
        raise ValueError("expected a gridset1d file")
    return S


def _point(option: str, text: str, number=read_float):
    """The finite x,y pair in text, each coordinate read by number; errors
    name the option."""
    try:
        x, y = map(number, text.split(","))
        if math.isfinite(x) and math.isfinite(y):
            return x, y
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    raise ValueError(f"{option} must be a point x,y of finite numbers, got {text!r}")


def _phi_from_spec(option: str, spec: str):
    kind, _, rest = spec.partition(":")
    if kind == "coord" and rest in ("x", "y"):
        return PolynomialMap(parse_poly(rest))
    if kind == "proj":
        try:
            theta = read_float(rest)
        except ValueError:
            raise ValueError(f"{option} proj:THETA needs a number THETA, got {spec!r}") from None
        return LinearProjection(theta)
    if kind == "dist":
        return PinnedDistance(_point(option, rest))
    if kind == "poly":
        return PolynomialMap(parse_poly(rest))
    raise ValueError(
        f"bad map spec {spec!r}: use coord:x, coord:y, proj:THETA, "
        "dist:CX,CY, or poly:EXPR"
    )


# Options that one --gen, --region or --format choice alone reads: their
# default and that choice.  Given with another choice, an option is an error.
_SCOPED = {
    "alpha": (0.5, "gen", "ap"),
    "eta": (0.0, "gen", "ap"),
    "base": (4, "gen", "cantor"),
    "pattern": ("0,1", "gen", "cantor"),
    "set_file": (None, "gen", "file"),
    "puncture": ("1/2,1/2", "region", "punctured"),
    "precision": (6, "format", "text"),
    "timing": (False, "format", "json"),
}


def _region_from_args(args):
    if args.region == "full":
        return FullSquareRegion()
    if args.region == "punctured":
        point = _point("--puncture", args.puncture, read_fraction)
        try:
            return PuncturedSquareRegion(point)
        except ValueError as exc:
            raise ValueError(f"--puncture: {exc}") from None
    if args.region.startswith("poly-pos:"):
        return PolynomialSignRegion(parse_poly(args.region[len("poly-pos:") :]))
    if args.region.startswith("poly-neg:"):
        return PolynomialSignRegion(-parse_poly(args.region[len("poly-neg:") :]))
    raise ValueError(f"unknown region {args.region!r}")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_classify(args):
    result = classify_special_form(parse_poly(args.poly))
    data = {
        "command": "classify",
        "poly": args.poly,
        "verdict": result.verdict.value,
        "reason": result.reason.value,
    }
    lines = [result.verdict.value, f"reason: {result.reason.value}"]
    if result.witness is not None:
        data["witness_degree"] = result.witness.degree()
        if args.format != "text":  # the text form prints only the degree
            data["witness"] = str(result.witness)
        lines.append(f"witness degree: {result.witness.degree()}")
    _emit(data, lines, args)


def _cmd_mp(args):
    mp = mp_numerator(parse_poly(args.poly))
    text = str(mp)
    _emit({"command": "mp", "poly": args.poly, "mp": text, "degree": mp.degree()}, [text], args)


def _cmd_hf(args):
    if args.general:
        hf = hf_general(parse_poly(args.general, arity=4))
        source = args.general
    else:
        hf = hf_poly(parse_poly(args.poly))
        source = args.poly
    text = str(hf)
    _emit({"command": "hf", "input": source, "hf": text, "degree": hf.degree()}, [text], args)


def _cmd_curvature(args):
    phis = [
        _phi_from_spec(f"--phi{n}", spec)
        for n, spec in enumerate((args.phi1, args.phi2, args.phi3), 1)
    ]
    x, y = _point("--point", args.point)
    value = blaschke_curvature(*phis, (x, y), method=args.method, step=args.step)
    _emit(
        {"command": "curvature", "point": [x, y], "curvature": value},
        [_fmt(value, args.precision)],
        args,
    )


def _cmd_cover(args):
    S = _generator_from_args(args)
    kp = args.kprime if args.kprime is not None else S.scale.k
    count = gridset.covering_number(S, kp)
    _emit(
        {"command": "cover", "k": S.scale.k, "kprime": kp, "count": count},
        [str(count)],
        args,
    )


def _cmd_nonconc(args):
    if not 0 < args.kappa <= 1:
        raise ValueError(f"--kappa must lie in (0, 1], got {args.kappa}")
    if not math.isfinite(args.target_alpha):
        raise ValueError(f"--target-alpha must be finite, got {args.target_alpha}")
    S = _generator_from_args(args)
    res = gridset.nonconcentration_exponent(S, args.kappa, args.target_alpha)
    data = {
        "command": "nonconc",
        "eta": res.eta,
        "floored": res.floored,
        "raw": res.raw,
        "worst_level": res.worst[0],
        "worst_prefix": res.worst[1],
    }
    lines = [
        f"eta = {_fmt(res.eta, args.precision)}"
        + (" (floored)" if res.floored else ""),
        f"worst dyadic interval: level {res.worst[0]}, prefix {res.worst[1]}",
    ]
    _emit(data, lines, args)


def _cmd_image(args):
    P = parse_poly(args.poly)
    A = _generator_from_args(args)
    img = gridset.image_set(P, A, A)
    count = len(img.grid)
    data = {
        "command": "image",
        "count": count,
        "k": A.scale.k,
        "value_lo": str(img.value_lo),
        "value_hi": str(img.value_hi),
        "normalized_exponent": math.log2(count) / A.scale.k if count else 0.0,
    }
    lines = [
        f"count = {count}",
        f"value range = [{img.value_lo}, {img.value_hi}] (renormalized to [0,1])",
        f"log2(count)/k = {_fmt(data['normalized_exponent'], args.precision)}",
    ]
    _emit(data, lines, args)


def _cmd_energy(args):
    P = parse_poly(args.poly)
    A = _generator_from_args(args)
    count = gridset.energy_count(P, A, A, hf_min=args.hf_min)
    k = A.scale.k
    data = {
        "command": "energy",
        "count": count,
        "k": k,
        "cells": len(A),
        "normalized_exponent": math.log2(count) / k if count else 0.0,
    }
    lines = [f"count = {count}"]
    if count:
        lines.append(f"log2(count) = {_fmt(math.log2(count), args.precision)}")
    lines.append(f"log2(count)/k = {_fmt(data['normalized_exponent'], args.precision)}")
    _emit(data, lines, args)


def _cmd_whitney(args):
    decomp = whitney_decompose(_region_from_args(args), args.kmax)
    text = format_cube_decomposition(decomp)
    data = {
        "command": "whitney",
        "cubes": decomp.depth.size,
        "flagged": len(decomp.flagged),
        "leftover_cells": len(decomp.leftover),
        "decomposition": text,
    }
    _emit(data, [text.rstrip("\n")], args)


def _cmd_bands(args):
    if args.sample_stride < 1:
        raise ValueError(f"--sample-stride must be at least 1, got {args.sample_stride}")
    P = parse_poly(args.poly)
    table = {
        "px": lambda: P.partial("x"),
        "py": lambda: P.partial("y"),
        "pxy": lambda: P.partial("x").partial("y"),
        "mp": lambda: mp_numerator(P),
    }
    names = args.funcs.split(",")
    for name in names:
        if name not in table:
            raise ValueError(f"unknown band function {name!r}; use px,py,pxy,mp")
    fs = [PolynomialMap(table[name]()) for name in names]
    scale = Scale(args.k)
    # The sample grid, stride apart in both axes, as ascending keys.
    g = np.arange(0, 2**args.k, args.sample_stride, dtype=np.int64)
    A = gridset.GridSet2D._from_keys(scale, gridset.cell_keys(g[:, None], g).ravel())
    decomp = band_partition(fs, args.w, A)
    text = format_cube_decomposition(decomp)
    data = {
        "command": "bands",
        "cubes": decomp.depth.size,
        "leftover_cells": len(decomp.leftover),
        "leftover_fraction": decomp.a_leftover_fraction,
        "decomposition": text,
    }
    lines = [
        f"cubes = {decomp.depth.size}",
        f"leftover fraction = {_fmt(decomp.a_leftover_fraction, args.precision)}",
        text.rstrip("\n"),
    ]
    _emit(data, lines, args)


def _cmd_extract(args):
    S = load_gridset(args.set_file)
    if not isinstance(S, gridset.GridSet2D):
        raise ValueError("extract needs a gridset2d file")
    A, B, report = extract_product(S)
    data = {
        "command": "extract",
        "a_cells": len(A),
        "b_cells": len(B),
        "x_count": report.x_count,
        "intersection_count": report.intersection_count,
        "ratio": report.ratio,
        "rounds": report.rounds,
        "eta_a": report.eta_a,
        "eta_b": report.eta_b,
    }
    lines = [
        f"|A| = {len(A)}, |B| = {len(B)}",
        f"intersection = {report.intersection_count} of {report.x_count} "
        f"(ratio {_fmt(report.ratio, args.precision)})",
        f"nonconcentration: eta_A = {_fmt(report.eta_a, args.precision)}, "
        f"eta_B = {_fmt(report.eta_b, args.precision)}",
    ]
    _emit(data, lines, args)


def _cmd_scenario(args):
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            scenario = parse_scenario(fh.read())
    else:
        scenario = builtin_scenario(args.name)
    report = run_scenario(scenario)
    csv_text = report_to_csv(report)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    if args.plot_data:
        os.makedirs(args.plot_data, exist_ok=True)
        write_plot_data(report, args.plot_data)
    data = report_to_dict(report, include_timing=args.timing)
    lines = [f"scenario {report.scenario}: "
             + ("all expectations passed" if report.all_passed else "FAILURES")]
    for o in report.outcomes:
        status = "pass" if o.passed else "FAIL"
        lines.append(
            f"  [{status}] {o.metric} {o.comparator} {o.target} "
            f"(tol {o.tolerance}, {o.tag}): measured "
            f"{_fmt(o.measured, args.precision)}"
        )
    for name, fit in sorted(report.fits.items()):
        lines.append(
            f"  fit {name}: slope {_fmt(fit.slope, args.precision)} "
            f"residual {_fmt(fit.residual, args.precision)}"
        )
    _emit(data, lines, args, csv_text)


def _cmd_list_scenarios(args):
    scenarios = builtin_scenarios()
    data = {
        "command": "list-scenarios",
        "scenarios": [
            {"name": s.name, "family": s.family, "description": s.description}
            for s in scenarios
        ],
    }
    lines = [f"{s.name}: {s.description}" for s in scenarios]
    rows = [["name", "family", "description"], *(list(s.values()) for s in data["scenarios"])]
    _emit(data, lines, args, _csv_text(rows))


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_scoped(p, name: str, text: str, **kw):
    """An option of _SCOPED, its help text naming the choice and default.
    Its parsed default is None, a flag's too, so that main can tell an
    option not given from one given, and fill in the default."""
    default, choice, wanted = _SCOPED[name]
    note = f"--{choice} {wanted} only" + ("" if default is None else f"; default {default}")
    p.add_argument("--" + name.replace("_", "-"), help=f"{text} ({note})", default=None, **kw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="explab",
        description="Measure expansion of polynomial images, value-collision "
        "energies, and covering numbers on discretized fractal sets.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # The option groups that several subcommands share, each declared once.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"), default="text")
    common.add_argument("--out", help="write output to a file instead of stdout")
    precise = argparse.ArgumentParser(add_help=False, parents=[common])
    _add_scoped(precise, "precision", "significant digits", type=read_int)
    generated = argparse.ArgumentParser(add_help=False)
    generated.add_argument("--gen", choices=("ap", "cantor", "file"), default="ap")
    _add_scoped(generated, "alpha", "AP cell count exponent", type=read_float)
    _add_scoped(generated, "eta", "AP spacing exponent beyond alpha", type=read_float)
    generated.add_argument("--k", type=read_int, default=10)
    _add_scoped(generated, "base", "cantor base, a power of 2", type=read_int)
    _add_scoped(generated, "pattern", "cantor digits, comma separated")
    _add_scoped(generated, "set_file", "gridset1d file")

    p = sub.add_parser("classify", parents=[common], help="special form or expander")
    p.add_argument("poly")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("mp", parents=[common], help="degeneracy numerator M_P")
    p.add_argument("poly")
    p.set_defaults(func=_cmd_mp)

    p = sub.add_parser("hf", parents=[common], help="four-variable collision bracket H_F")
    p.add_argument("poly", nargs="?", default=None)
    p.add_argument("--general", help="four-variable polynomial over x,xp,y,yp")
    p.set_defaults(func=_cmd_hf)

    p = sub.add_parser("curvature", parents=[precise], help="3-web curvature at a point")
    p.add_argument("--phi1", required=True)
    p.add_argument("--phi2", required=True)
    p.add_argument("--phi3", required=True)
    p.add_argument("--point", required=True, help="x,y")
    p.add_argument("--method", choices=("auto", "chart", "newton"), default="auto")
    p.add_argument("--step", type=read_float, help="Newton stencil half-width (newton method only; default 1e-4)")
    p.set_defaults(func=_cmd_curvature)

    p = sub.add_parser("cover", parents=[common, generated], help="covering number of a grid set")
    p.add_argument("--kprime", type=read_int, default=None)
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("nonconc", parents=[precise, generated], help="non-concentration exponent")
    p.add_argument("--kappa", type=read_float, default=0.5)
    p.add_argument("--target-alpha", type=read_float, default=0.5)
    p.set_defaults(func=_cmd_nonconc)

    p = sub.add_parser("image", parents=[precise, generated], help="covering count of P(A, A)")
    p.add_argument("--poly", required=True)
    p.set_defaults(func=_cmd_image)

    p = sub.add_parser("energy", parents=[precise, generated], help="value-collision quadruple count")
    p.add_argument("--poly", required=True)
    p.add_argument("--hf-min", type=read_float, default=None)
    p.set_defaults(func=_cmd_energy)

    p = sub.add_parser("whitney", parents=[common], help="dyadic decomposition of a region")
    p.add_argument(
        "--region",
        default="punctured",
        help="full, punctured, poly-pos:EXPR, or poly-neg:EXPR",
    )
    _add_scoped(p, "puncture", "the removed point x,y")
    p.add_argument("--kmax", type=read_int, default=6)
    p.set_defaults(func=_cmd_whitney)

    p = sub.add_parser("bands", parents=[precise], help="band partition pinning |f| into [v, 4v)")
    p.add_argument("--poly", required=True)
    p.add_argument("--w", type=read_float, default=0.2)
    p.add_argument("--k", type=read_int, default=8)
    p.add_argument("--funcs", default="px,py,pxy,mp")
    p.add_argument("--sample-stride", type=read_int, default=8)
    p.set_defaults(func=_cmd_bands)

    p = sub.add_parser("extract", parents=[precise], help="extract a large Cartesian product")
    p.add_argument("--set-file", required=True, dest="set_file")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("scenario", parents=[precise], help="run a named or file scenario")
    p.add_argument("--name", default=None)
    p.add_argument("--file", default=None)
    p.add_argument("--csv", default=None, help="also write per-scale CSV here")
    p.add_argument(
        "--plot-data", default=None, help="also write two-column .dat files here"
    )
    _add_scoped(p, "timing", "include wall clock in JSON", action="store_true")
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser("list-scenarios", parents=[common], help="list builtin scenarios")
    p.set_defaults(func=_cmd_list_scenarios)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The one parser `main` uses, built on the first call, not at import.

    Sharing it across calls is safe: `parse_args` builds a fresh namespace
    and does not mutate the parser, every default is immutable (None, a
    number, a string or False), the help width is read when help is
    formatted, and `set_defaults(func=...)` binds each handler once, here.
    The actions of the shared option groups (`common`, `precise`,
    `generated`) are one set of objects held by several subparsers;
    `parse_args` only reads them, so that sharing is safe too.
    """
    return build_parser()


def main(argv=None) -> int:
    parser = _shared_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "scenario" and not (args.name or args.file):
        parser.error("scenario needs --name or --file")
    if args.subcommand == "scenario" and args.name is not None and args.file is not None:
        parser.error("scenario takes --name or --file, not both")
    if args.subcommand == "hf" and not (args.poly or args.general):
        parser.error("hf needs a bivariate polynomial or --general")
    if args.subcommand == "hf" and args.poly is not None and args.general is not None:
        parser.error("hf takes a bivariate polynomial or --general, not both")
    try:
        for name, (default, choice, wanted) in _SCOPED.items():
            if name not in vars(args):
                continue
            if getattr(args, name) is None:
                setattr(args, name, default)
            elif getattr(args, choice, wanted) != wanted:
                raise ValueError(f"--{name.replace('_', '-')} needs --{choice} {wanted}")
        if getattr(args, "precision", 0) < 0:
            raise ValueError(f"--precision must be at least 0, got {args.precision}")
        args.func(args)
    except ExpressionError as exc:
        print(f"explab: parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, NewtonConvergenceError) as exc:
        print(f"explab: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:  # a float past its range, or a divisor that underflowed to 0
        print(f"explab: arithmetic error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
