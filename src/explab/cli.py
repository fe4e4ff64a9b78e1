"""Command-line front end.

Exit codes: 0 success, 1 domain error (message names the violated
precondition), 2 usage or expression-parse error.  Numeric output is
printed at a configurable number of significant digits (default 6);
exact rationals print as a/b.  Output goes to stdout unless --out is
given.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

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


def _fmt(value, precision):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return f"{value:.{precision}g}"
    return str(value)


def _emit(result: dict, text_lines, args) -> None:
    if args.format == "json":
        payload = json.dumps(result, sort_keys=True, separators=(",", ":"))
    elif args.format == "csv":
        rows = result.get("csv")
        payload = rows if rows is not None else _dict_to_csv(result)
    else:
        payload = "\n".join(text_lines)
    if not payload.endswith("\n"):
        payload += "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _dict_to_csv(result: dict) -> str:
    flat = {k: v for k, v in result.items() if not isinstance(v, (dict, list))}
    header = ",".join(flat)
    row = ",".join(str(v) for v in flat.values())
    return f"{header}\n{row}\n"


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
            pattern = [int(t) for t in args.pattern.split(",")]
        except ValueError:
            pattern = [-1]
        if not all(0 <= d < args.base for d in pattern):
            raise ValueError(
                f"--pattern must be comma-separated digits in [0, {args.base}), got {args.pattern!r}"
            )
        return gen_cantor(pattern, args.base, args.k // bits)
    if args.gen == "file":
        if not args.set_file:
            raise ValueError("--gen file needs --set-file")
        S = load_gridset(args.set_file)
        if not isinstance(S, gridset.GridSet1D):
            raise ValueError("expected a gridset1d file")
        return S
    raise ValueError(f"unknown generator {args.gen!r}")


def _point(option: str, text: str, number=float):
    """The finite x,y pair in text, each coordinate read by number; errors
    name the option."""
    try:
        x, y = (number(t) for t in text.split(","))
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
            theta = float(rest)
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


def _region_from_args(args):
    if args.region == "full":
        return FullSquareRegion()
    if args.region == "punctured":
        return PuncturedSquareRegion(_point("--puncture", args.puncture, Fraction))
    if args.region.startswith("poly-pos:"):
        return PolynomialSignRegion(parse_poly(args.region[len("poly-pos:") :]))
    if args.region.startswith("poly-neg:"):
        return PolynomialSignRegion(
            parse_poly(args.region[len("poly-neg:") :]), positive=False
        )
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
        data["witness"] = str(result.witness)
        lines.append(f"witness degree: {result.witness.degree()}")
    _emit(data, lines, args)


def _cmd_mp(args):
    mp = mp_numerator(parse_poly(args.poly))
    _emit(
        {"command": "mp", "poly": args.poly, "mp": str(mp), "degree": mp.degree()},
        [str(mp)],
        args,
    )


def _cmd_hf(args):
    if args.general:
        hf = hf_general(parse_poly(args.general, arity=4))
        source = args.general
    else:
        hf = hf_poly(parse_poly(args.poly))
        source = args.poly
    _emit(
        {"command": "hf", "input": source, "hf": str(hf), "degree": hf.degree()},
        [str(hf)],
        args,
    )


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
    count = len(img.grid.cells)
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
        "cells": len(A.cells),
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
        "cubes": len(decomp.cubes),
        "flagged": len(decomp.flagged),
        "leftover_cells": len(decomp.leftover.cells),
        "decomposition": text,
    }
    _emit(data, [text.rstrip("\n")], args)


def _cmd_bands(args):
    if args.sample_stride < 1:
        raise ValueError(f"--sample-stride must be at least 1, got {args.sample_stride}")
    P = parse_poly(args.poly)
    names = args.funcs.split(",")
    table = {
        "px": P.partial("x"),
        "py": P.partial("y"),
        "pxy": P.partial("x").partial("y"),
        "mp": mp_numerator(P),
    }
    try:
        fs = [PolynomialMap(table[name]) for name in names]
    except KeyError as exc:
        raise ValueError(f"unknown band function {exc.args[0]!r}; use px,py,pxy,mp")
    scale = Scale(args.k)
    A = gridset.GridSet2D.from_cells(
        scale,
        [
            (i, j)
            for i in range(0, 2**args.k, args.sample_stride)
            for j in range(0, 2**args.k, args.sample_stride)
        ],
    )
    decomp = band_partition(fs, args.w, scale, A)
    text = format_cube_decomposition(decomp)
    data = {
        "command": "bands",
        "cubes": len(decomp.cubes),
        "leftover_cells": len(decomp.leftover.cells),
        "leftover_fraction": decomp.a_leftover_fraction,
        "decomposition": text,
    }
    lines = [
        f"cubes = {len(decomp.cubes)}",
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
        "a_cells": len(A.cells),
        "b_cells": len(B.cells),
        "x_count": report.x_count,
        "intersection_count": report.intersection_count,
        "ratio": report.ratio,
        "rounds": report.rounds,
        "eta_a": report.eta_a,
        "eta_b": report.eta_b,
    }
    lines = [
        f"|A| = {len(A.cells)}, |B| = {len(B.cells)}",
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
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(report_to_csv(report))
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
    if args.format == "csv":
        data["csv"] = report_to_csv(report)
    _emit(data, lines, args)


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
    _emit(data, lines, args)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(p):
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--precision", type=int, default=6, help="significant digits")
    p.add_argument("--out", help="write output to a file instead of stdout")


def _add_generator(p):
    p.add_argument("--gen", choices=("ap", "cantor", "file"), default="ap")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--base", type=int, default=4, help="cantor base (power of 2)")
    p.add_argument("--pattern", default="0,1", help="cantor digits, comma separated")
    p.add_argument("--set-file", help="gridset1d file for --gen file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="explab",
        description="Measure expansion of polynomial images, value-collision "
        "energies, and covering numbers on discretized fractal sets.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("classify", help="special form or expander")
    p.add_argument("poly")
    _add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("mp", help="degeneracy numerator M_P")
    p.add_argument("poly")
    _add_common(p)
    p.set_defaults(func=_cmd_mp)

    p = sub.add_parser("hf", help="four-variable collision bracket H_F")
    p.add_argument("poly", nargs="?", default=None)
    p.add_argument("--general", help="four-variable polynomial over x,xp,y,yp")
    _add_common(p)
    p.set_defaults(func=_cmd_hf)

    p = sub.add_parser("curvature", help="3-web curvature at a point")
    p.add_argument("--phi1", required=True)
    p.add_argument("--phi2", required=True)
    p.add_argument("--phi3", required=True)
    p.add_argument("--point", required=True, help="x,y")
    p.add_argument("--method", choices=("auto", "chart", "newton"), default="auto")
    p.add_argument("--step", type=float, default=1e-4)
    _add_common(p)
    p.set_defaults(func=_cmd_curvature)

    p = sub.add_parser("cover", help="covering number of a grid set")
    _add_generator(p)
    p.add_argument("--kprime", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("nonconc", help="non-concentration exponent")
    _add_generator(p)
    p.add_argument("--kappa", type=float, default=0.5)
    p.add_argument("--target-alpha", type=float, default=0.5)
    _add_common(p)
    p.set_defaults(func=_cmd_nonconc)

    p = sub.add_parser("image", help="covering count of P(A, A)")
    p.add_argument("--poly", required=True)
    _add_generator(p)
    _add_common(p)
    p.set_defaults(func=_cmd_image)

    p = sub.add_parser("energy", help="value-collision quadruple count")
    p.add_argument("--poly", required=True)
    p.add_argument("--hf-min", type=float, default=None)
    _add_generator(p)
    _add_common(p)
    p.set_defaults(func=_cmd_energy)

    p = sub.add_parser("whitney", help="dyadic decomposition of a region")
    p.add_argument(
        "--region",
        default="punctured",
        help="full, punctured, poly-pos:EXPR, or poly-neg:EXPR",
    )
    p.add_argument("--puncture", default="1/2,1/2")
    p.add_argument("--kmax", type=int, default=6)
    _add_common(p)
    p.set_defaults(func=_cmd_whitney)

    p = sub.add_parser("bands", help="band partition pinning |f| into [v, 4v)")
    p.add_argument("--poly", required=True)
    p.add_argument("--w", type=float, default=0.2)
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--funcs", default="px,py,pxy,mp")
    p.add_argument("--sample-stride", type=int, default=8)
    _add_common(p)
    p.set_defaults(func=_cmd_bands)

    p = sub.add_parser("extract", help="extract a large Cartesian product")
    p.add_argument("--set-file", required=True, dest="set_file")
    _add_common(p)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("scenario", help="run a named or file scenario")
    p.add_argument("--name", default=None)
    p.add_argument("--file", default=None)
    p.add_argument("--csv", default=None, help="also write per-scale CSV here")
    p.add_argument(
        "--plot-data", default=None, help="also write two-column .dat files here"
    )
    p.add_argument("--timing", action="store_true", help="include wall clock in JSON")
    _add_common(p)
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser("list-scenarios", help="list builtin scenarios")
    _add_common(p)
    p.set_defaults(func=_cmd_list_scenarios)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The one parser `main` uses, built on the first call, not at import.

    Sharing it across calls is safe: `parse_args` builds a fresh namespace
    and does not mutate the parser, every default is immutable (None, a
    number, a string or False), the help width is read when help is
    formatted, and `set_defaults(func=...)` binds each handler once, here.
    """
    return build_parser()


def main(argv=None) -> int:
    parser = _shared_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "scenario" and not (args.name or args.file):
        parser.error("scenario needs --name or --file")
    if args.subcommand == "hf" and not (args.poly or args.general):
        parser.error("hf needs a bivariate polynomial or --general")
    try:
        if args.precision < 0:
            raise ValueError(f"--precision must be at least 0, got {args.precision}")
        args.func(args)
    except ExpressionError as exc:
        print(f"explab: parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, NewtonConvergenceError) as exc:
        print(f"explab: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
