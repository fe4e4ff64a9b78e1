"""Workload inputs, operations and exactness oracles for the explab benchmark.

Each workload is a closed loop with one client: a pass runs its operations
in order, each after the previous one returned.  An operation is one
scenario run (``run_scenario`` then ``report_to_json``), one in-process
``explab`` request through ``cli.main``, or one library call the CLI does
not expose.  Inputs come from the seed alone; explab sees only them.

Why these workloads (each layer a later change may optimise does most of
the work in one workload and little in another):

* ``poly_ladder``: seeded ``poly_growth`` and ``eps_d_energy`` scenario
  files.  The Fraction pair tables behind ``energy_count`` and
  ``image_set`` do nearly all the work; ``geomdecomp`` does none.
* ``projection_ladder``: seeded ``three_projection`` and
  ``pinned_distance`` files.  ``preimage_cells`` and ``map_image``
  dominate; no polynomial pair table is built.
* ``certify_cli``: one-shot requests.  The same enclosure layer is used
  per box (``interval_range`` on single, non-grid-aligned boxes), next to
  the quadratic ``hf_min`` energy path, the symbolic layer and ``cli``.

Ladders are short (a fraction of a second per operation) so a run repeats
every operation several times.  The builtin scenarios take seconds each,
so each run of the first two workloads executes one of them once, after
the timed loop, against its golden digest; the seed picks which, and
consecutive seeds cover all eight.

Seeds change coefficients, offsets, pins, windows and set shapes but not
the amount of work: cell counts, window areas and polynomial degrees are
held fixed per slot so that every seed costs about the same.

Oracles run outside the timed region on the first output of each
operation and use independent code paths: brute-force energy counts,
per-box ``interval_range`` image marks, per-cell loops over the public
``SmoothMap2.enclosure``, re-verified band and Whitney certificates, and
special-form verdicts known by construction.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional

from explab import cli, expharness, geomdecomp, gridset, polyexpr

WORKLOADS = ("poly_ladder", "projection_ladder", "certify_cli")

QUARTIC = "x + y + (x^2 + y^2)^2"
POLY_BUILTINS = (
    "special_form_collapse",
    "eps_alpha_cap",
    "eta_depends_on_D",
    "eps_D_energy",
    "small_c_delta",
    "sum_product_cantor",
)
PROJECTION_BUILTINS = ("three_projection", "pinned_distance")

# Short ladders: each operation takes a fraction of a second, so a run
# repeats it often enough for its best latency to be steady.
AP_LADDERS = {"0.5": (7, 8, 9), "0.55": (6, 7, 8)}

# Projection variants keep the window centred and the offset fixed, so
# every seed tests the same cells, and seed only the pins: the first two
# are adjacent corners of the unit square, so the seeded configurations
# are mirror images of one another and cost the same.  This space was
# scanned once at every variant scale for a nonempty planar set X (an
# empty X is an error in the 2-D non-concentration scan).
CORNERS = ((0, 0), (1, 0), (1, 1), (0, 1))
WINDOW = "5/16,11/16,5/16,11/16"
OFFSET = "9/16"


@dataclass
class Op:
    """One timed operation.

    ``call`` is timed and returns the canonical output text; ``check`` is
    an oracle run on that text outside the timed region and returns the
    mismatches it found; ``golden`` is the expected SHA-256 of the text.
    """

    name: str
    call: Callable[[], str]
    check: Callable[[str], List[str]]
    golden: Optional[str] = None


@dataclass
class Workload:
    """``ops`` form one timed pass; ``gate`` runs once, untimed, after the
    timed loop."""

    ops: List[Op]
    gate: List[Op]
    sizes: Callable[[], Dict[str, int]]


def _dyadic(rng: random.Random, max_exp: int = 4) -> Fraction:
    return Fraction(rng.choice((1, 3, 5, 7)), 2 ** rng.randint(1, max_exp))


def _golden() -> Dict[str, str]:
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "golden.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Scenario operations
# ---------------------------------------------------------------------------


def _scenario_call(scenario: expharness.Scenario) -> Callable[[], str]:
    # Looked up through the module at call time so a tracer can wrap it.
    return lambda: expharness.report_to_json(expharness.run_scenario(scenario))


def _scenario_op(scenario, check=None, golden=None) -> Op:
    def full_check(text: str) -> List[str]:
        report = json.loads(text)
        errors = [] if report["all_passed"] else ["expectations failed"]
        return errors + (check(report) if check else [])

    return Op(f"scenario:{scenario.name}", _scenario_call(scenario), full_check, golden)


def _scenario_text(lines: Dict[str, str], expects=()) -> str:
    body = ["schema=1"] + [f"{k}={v}" for k, v in lines.items()]
    body += [f"expect={e}" for e in expects]
    return "\n".join(body) + "\n"


def _oracle_image_count(P, A, B) -> int:
    """Oracle for image_set: mark output cells from per-box interval_range."""
    unit = polyexpr.Rect.of(0, 1, 0, 1)
    total = polyexpr.interval_range(P, unit)
    span = total.hi - total.lo
    n = 2**A.scale.k
    if span == 0:
        return 1
    d = A.scale.delta
    marks = set()
    for a in A.cells:
        for b in B.cells:
            iv = polyexpr.interval_range(P, polyexpr.Rect(a * d, (a + 1) * d, b * d, (b + 1) * d))
            j0 = min(max(math.floor((iv.lo - total.lo) * n / span), 0), n - 1)
            j1 = min(max(math.floor((iv.hi - total.lo) * n / span), 0), n - 1)
            marks.update(range(j0, j1 + 1))
    return len(marks)


def _growth_check(P, alpha: float, eta: float, k0: int):
    def check(report: dict) -> List[str]:
        A = gridset.gen_ap(alpha, eta, gridset.Scale(k0))
        errors = []
        energy = gridset.energy_count_brute_force(P, A, A)
        if report["metrics"]["energy_count"][0] != energy:
            errors.append(f"energy at k={k0}: {report['metrics']['energy_count'][0]} != {energy}")
        image = _oracle_image_count(P, A, A)
        if report["metrics"]["image_count"][0] != image:
            errors.append(f"image at k={k0}: {report['metrics']['image_count'][0]} != {image}")
        return errors

    return check


def _growth_slot(rng: random.Random, seed: int, slot: int, alpha: str, degree: int):
    eta = rng.choice(("0.0", "0.125", "0.25"))
    poly = f"x + y + {_dyadic(rng)}*(x^2 + y^2)^{degree // 2}"
    scales = AP_LADDERS[alpha]
    text = _scenario_text(
        {
            "name": f"growth_{seed}_{slot}",
            "family": "poly_growth",
            "poly": poly,
            "generator": "ap",
            "alpha": alpha,
            "eta": eta,
            "scales": ",".join(map(str, scales)),
        },
        ("cs_all_ok ge 1.0 0.0 DERIVED",),
    )
    check = _growth_check(polyexpr.parse_poly(poly), float(alpha), float(eta), scales[0])
    return _scenario_op(expharness.parse_scenario(text), check), (float(alpha), float(eta), scales)


def _eps_energy_check(c: Fraction, eta: float, k0: int):
    def check(report: dict) -> List[str]:
        A = gridset.gen_ap(0.5, eta, gridset.Scale(k0))
        errors = []
        for key, degree in (("energy_d_small", 4), ("energy_d_large", 8)):
            P = polyexpr.parse_poly(f"x + y + {c}*(x^2 + y^2)^{degree // 2}")
            want = gridset.energy_count_brute_force(P, A, A)
            if report["metrics"][key][0] != want:
                errors.append(f"{key} at k={k0}: {report['metrics'][key][0]} != {want}")
        return errors

    return check


def _energy_slot(rng: random.Random, seed: int, slot: int) -> Op:
    eta, c = rng.choice(("0.0", "0.125")), _dyadic(rng)
    text = _scenario_text(
        {
            "name": f"energy_{seed}_{slot}",
            "family": "eps_d_energy",
            "alpha": "0.5",
            "eta": eta,
            "c": str(c),
            "d_small": "4",
            "d_large": "8",
            "scales": "6,7,8",
            "restricted_scales": "10,11,12",
        },
        ("cs_all_ok ge 1.0 0.0 DERIVED",),
    )
    return _scenario_op(expharness.parse_scenario(text), _eps_energy_check(c, float(eta), 6))


def _builtin_gate(names, seed: int, checks=None) -> List[Op]:
    """One builtin per run, picked by the seed, checked against its golden
    digest outside the timed loop; consecutive seeds cover every name."""
    golden = _golden()
    scenario = expharness.builtin_scenario(names[seed % len(names)])
    check = checks[scenario.family](scenario) if checks else None
    return [_scenario_op(scenario, check, golden[scenario.name])]


def poly_ladder(seed: int) -> Workload:
    rng = random.Random(seed)
    ops: List[Op] = []
    growth = []
    # Two slots of each (alpha, degree) so every seed does the same work;
    # the seed orders them and draws eta and the coefficients.
    shapes = [(alpha, degree) for alpha in sorted(AP_LADDERS) for degree in (4, 8)] * 2
    rng.shuffle(shapes)
    for slot, (alpha, degree) in enumerate(shapes):
        op, shape = _growth_slot(rng, seed, slot, alpha, degree)
        ops.append(op)
        growth.append(shape)
    # Four eps_d_energy slots cost between the quartic and the octic slots,
    # so the median operation is one of them rather than a cluster edge.
    for slot in range(8, 12):
        ops.insert(2 * (slot - 8) + 1, _energy_slot(rng, seed, slot))

    def sizes():
        pairs = sum(
            len(gridset.gen_ap(alpha, eta, gridset.Scale(k)).cells) ** 2
            for alpha, eta, scales in growth
            for k in scales
        )
        return {"ops_per_pass": len(ops), "poly_growth_cell_pairs_per_pass": pairs}

    return Workload(ops, _builtin_gate(POLY_BUILTINS, seed), sizes)


# ---------------------------------------------------------------------------
# Projection operations and their per-cell oracles
# ---------------------------------------------------------------------------


def _oracle_map_image(phi, cells, scale) -> int:
    n = scale.cells
    d = scale.delta
    marks = set()
    for i, j in cells:
        enc = phi.enclosure(polyexpr.Rect(i * d, (i + 1) * d, j * d, (j + 1) * d))
        j0 = max(0, min(int(enc.lo * n), n - 1))
        j1 = max(0, min(int(enc.hi * n), n - 1))
        marks.update(range(j0, j1 + 1))
    return len(marks)


def _oracle_preimage(phi, values, window, scale) -> set:
    n = scale.cells
    d = scale.delta
    member = set(values.cells)
    out = set()
    for i in range(math.ceil(window.x0 / d), math.floor(window.x1 / d)):
        for j in range(math.ceil(window.y0 / d), math.floor(window.y1 / d)):
            enc = phi.enclosure(polyexpr.Rect(i * d, (i + 1) * d, j * d, (j + 1) * d))
            j0 = max(0, min(math.floor(enc.lo * n), n - 1))
            j1 = max(0, min(math.floor(enc.hi * n), n - 1))
            if any(v in member for v in range(j0, j1 + 1)):
                out.add((i, j))
    return out


def _params(scenario):
    p = scenario.parameters
    pins = [tuple(float(t) for t in chunk.split(",")) for chunk in p["pins"].split(";")]
    x0, x1, y0, y1 = (Fraction(t) for t in p["window"].split(","))
    k0 = int(p["scales"].split(",")[0])
    return pins, polyexpr.Rect(x0, x1, y0, y1), Fraction(p["offset"]), gridset.Scale(k0)


def _three_projection_check(scenario):
    def check(report: dict) -> List[str]:
        pins, window, offset, scale = _params(scenario)
        phis = [geomdecomp.PinnedDistance(p) for p in pins]
        values = expharness.half_dimensional_set(scale, offset)
        X = _oracle_preimage(phis[0], values, window, scale) & _oracle_preimage(
            phis[1], values, window, scale
        )
        want = {"x_cells": len(X)}
        for idx, phi in enumerate(phis):
            want[f"phi{idx + 1}_image"] = _oracle_map_image(phi, X, scale)
        return [
            f"{key} at k={scale.k}: {report['metrics'][key][0]} != {value}"
            for key, value in want.items()
            if report["metrics"][key][0] != value
        ]

    return check


def _pinned_check(scenario):
    def check(report: dict) -> List[str]:
        pins, window, offset, scale = _params(scenario)
        d = scale.delta
        lo, hi = math.ceil(window.x0 / d), math.floor(window.x1 / d)
        G = [c for c in expharness.half_dimensional_set(scale, offset).cells if lo <= c < hi]
        X = [(i, j) for i in G for j in G]
        want = {"x_cells": len(X)}
        for idx, pin in enumerate(pins):
            want[f"pin{idx + 1}_image"] = _oracle_map_image(geomdecomp.PinnedDistance(pin), X, scale)
        return [
            f"{key} at k={scale.k}: {report['metrics'][key][0]} != {value}"
            for key, value in want.items()
            if report["metrics"][key][0] != value
        ]

    return check


def _corner_pins(rng: random.Random) -> str:
    hub = rng.randrange(4)
    first = [CORNERS[hub], CORNERS[(hub + rng.choice((1, 3))) % 4]]
    rng.shuffle(first)
    third = rng.choice([c for c in CORNERS if c not in first])
    return ";".join(f"{x},{y}" for x, y in first + [third])


def projection_ladder(seed: int) -> Workload:
    rng = random.Random(seed)
    scenarios = []
    # Six equal-cost three_projection ladders hold the median operation.
    for slot, (family, scales) in enumerate(
        (("three_projection", "5,6,7"), ("pinned_distance", "7,8,9"), ("three_projection", "5,6,7")) * 3
    ):
        text = _scenario_text(
            {
                "name": f"{family}_{seed}_{slot}",
                "family": family,
                "alpha": "0.5",
                "pins": _corner_pins(rng),
                "window": WINDOW,
                "offset": OFFSET,
                "scales": scales,
            }
        )
        scenarios.append(expharness.parse_scenario(text))
    checks = {"three_projection": _three_projection_check, "pinned_distance": _pinned_check}
    ops = [_scenario_op(s, checks[s.family](s)) for s in scenarios]

    def sizes():
        window_cells = 0
        for s in scenarios:
            if s.family != "three_projection":
                continue
            _, window, _, _ = _params(s)
            for k in map(int, s.parameters["scales"].split(",")):
                d = gridset.Scale(k).delta
                w = math.floor(window.x1 / d) - math.ceil(window.x0 / d)
                h = math.floor(window.y1 / d) - math.ceil(window.y0 / d)
                window_cells += 2 * w * h  # two preimage scans per scale
        return {"ops_per_pass": len(ops), "window_cells_per_pass": window_cells}

    gate = _builtin_gate(PROJECTION_BUILTINS, seed, checks)
    return Workload(ops, gate, sizes)


# ---------------------------------------------------------------------------
# CLI requests and library calls
# ---------------------------------------------------------------------------


def _cli_call(argv: List[str]) -> Callable[[], str]:
    def call() -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                rc = cli.main(argv + ["--format", "json"])
            except SystemExit as exc:  # argparse rejects a request this way
                rc = exc.code
        return json.dumps({"rc": rc, "stdout": out.getvalue()})

    return call


def _cli_op(name: str, argv: List[str], check: Callable[[dict], List[str]]) -> Op:
    def full_check(text: str) -> List[str]:
        result = json.loads(text)
        if result["rc"] != 0:
            return [f"exit code {result['rc']}"]
        return check(json.loads(result["stdout"]))

    return Op(f"cli:{name}", _cli_call(argv), full_check)


def _univariate(rng: random.Random, var: str) -> str:
    return f"({var} + {_dyadic(rng)}*{var}^2)"


def _special_forms(rng: random.Random) -> List[str]:
    """h(a(x) + b(y)) and h(a(x) * b(y)): special forms by construction.

    All of degree 4, like the expanders, so the light requests cost about
    the same and the median request sits inside a cluster of them."""
    a, b = _univariate(rng, "x"), _univariate(rng, "y")
    return [
        f"({a} + {b})^2",
        f"{_univariate(rng, 'x')} * {_univariate(rng, 'y')}",
        f"{_univariate(rng, 'x')} * {_univariate(rng, 'y')} + {_dyadic(rng)}",
    ]


def _to_four(text: str) -> str:
    # Placeholder swap so "x" inside "xp" is never touched.
    return text.replace("x", "X").replace("y", "Y").replace("X", "xp").replace("Y", "yp")


def _classify_check(expected: str):
    def check(out: dict) -> List[str]:
        if out["verdict"] != expected:
            return [f"verdict {out['verdict']} != {expected} (by construction)"]
        return []

    return check


def _mp_check(poly: str, special: bool):
    def check(out: dict) -> List[str]:
        mp = polyexpr.parse_poly(out["mp"])
        if special:
            return [] if mp.is_zero else ["special form with nonzero M_P"]
        P = polyexpr.parse_poly(poly)
        point = {"x": Fraction(3, 7), "y": Fraction(2, 5)}

        def der(ax: int, ay: int) -> Fraction:
            q = P.partial("x", ax) if ax else P
            return (q.partial("y", ay) if ay else q).evaluate(point)

        px, py, pxx, pxy, pyy = der(1, 0), der(0, 1), der(2, 0), der(1, 1), der(0, 2)
        want = py**2 * (px * der(2, 1) - pxx * pxy) - px**2 * (py * der(1, 2) - pxy * pyy)
        got = mp.evaluate(point)
        return [] if got == want else [f"M_P({point}) = {got} != {want}"]

    return check


def _hf_check(poly: str):
    def check(out: dict) -> List[str]:
        F = polyexpr.parse_poly(f"{poly} - ({_to_four(poly)})", arity=4)
        # Printing is canonical, so equal polynomials print equal text.
        if out["hf"] != str(polyexpr.hf_general(F)):
            return ["H_F differs from the general four-variable bracket"]
        return []

    return check


def _cli_energy_check(poly: str, k: int, hf_min):
    def check(out: dict) -> List[str]:
        A = gridset.gen_ap(0.5, 0.0, gridset.Scale(k))
        P = polyexpr.parse_poly(poly)
        want = gridset.energy_count_brute_force(P, A, A, hf_min=hf_min)
        return [] if out["count"] == want else [f"energy {out['count']} != brute force {want}"]

    return check


def _check_tiling(decomp, exhaustive: bool) -> List[str]:
    """Cubes are interior-disjoint, leftover cells lie outside every cube,
    and (when exhaustive) cubes plus leftover cells tile the unit square."""
    errors = []
    k = decomp.leftover.scale.k
    owned = {(c.depth, c.i, c.j) for c in decomp.cubes}
    for c in decomp.cubes:
        for depth in range(c.depth):
            shift = c.depth - depth
            if (depth, c.i >> shift, c.j >> shift) in owned:
                errors.append(f"cube {c} overlaps an ancestor")
    for i, j in decomp.leftover.cells:
        for depth in range(k + 1):
            if (depth, i >> (k - depth), j >> (k - depth)) in owned:
                errors.append(f"leftover cell {(i, j)} inside a cube")
                break
    if exhaustive:
        area = sum(Fraction(1, 4**c.depth) for c in decomp.cubes)
        area += Fraction(len(decomp.leftover.cells), 4**k)
        if area != 1:
            errors.append(f"cubes and leftover cover area {area}, not 1")
    return errors


def _bands_check(poly: str, k: int, w: float, stride: int):
    def check(out: dict) -> List[str]:
        decomp = geomdecomp.parse_cube_decomposition(out["decomposition"])
        P = polyexpr.parse_poly(poly)
        fs = [P.partial("x"), P.partial("y"), P.partial("x").partial("y"), polyexpr.mp_numerator(P)]
        threshold = Fraction(2.0 ** (-k * w))
        errors = _check_tiling(decomp, exhaustive=True)
        for cube, bands in zip(decomp.cubes, decomp.bands):
            rect = cube.rect()
            for f, v in zip(fs, bands):
                enc = polyexpr.interval_range(f, rect).abs_interval()
                if not (enc.lo == v and v >= threshold and enc.hi < 4 * v):
                    errors.append(f"band certificate fails on {cube}")
        left = set(decomp.leftover.cells)
        sample = [(i, j) for i in range(0, 2**k, stride) for j in range(0, 2**k, stride)]
        frac = sum(1 for c in sample if c in left) / len(sample)
        if frac != out["leftover_fraction"]:
            errors.append(f"leftover fraction {out['leftover_fraction']} != {frac}")
        return errors

    return check


def _whitney_check(region_poly: str, kmax: int):
    def inside(P, depth, i, j) -> bool:
        return polyexpr.interval_range(P, geomdecomp.DyadicSquare(depth, i, j).rect()).lo > 0

    def check(out: dict) -> List[str]:
        decomp = geomdecomp.parse_cube_decomposition(out["decomposition"])
        P = polyexpr.parse_poly(region_poly)
        errors = _check_tiling(decomp, exhaustive=False)
        for idx, cube in enumerate(decomp.cubes):
            if not inside(P, cube.depth, cube.i, cube.j):
                errors.append(f"cube {cube} not certified inside")
                continue
            limit = 2 ** (cube.depth + 1)
            exits = cube.depth == 0 or any(
                not (0 <= i < limit and 0 <= j < limit) or not inside(P, cube.depth + 1, i, j)
                for i in range(2 * cube.i - 1, 2 * cube.i + 3)
                for j in range(2 * cube.j - 1, 2 * cube.j + 3)
            )
            if exits == (idx in decomp.flagged):
                errors.append(f"cube {cube} flag disagrees with its dilate")
        for i, j in decomp.leftover.cells:
            enc = polyexpr.interval_range(P, geomdecomp.DyadicSquare(kmax, i, j).rect())
            if not enc.lo <= 0 < enc.hi:
                errors.append(f"leftover cell {(i, j)} is not a boundary cell")
        return errors

    return check


def _nonconc_check(cells: List[int], k: int, kappa: float, alpha: float):
    def check(out: dict) -> List[str]:
        best = max(
            (math.log2(max(Counter(c >> (k - level) for c in cells).values())) + level * kappa) / k
            - alpha
            for level in range(k, -1, -1)
        )
        if out["raw"] != best or out["eta"] != max(0.0, best):
            return [f"non-concentration {out['raw']} != {best}"]
        return []

    return check


def _extract_check(cells: List[tuple]):
    def check(out: dict) -> List[str]:
        edges = set(cells)
        cols = {i for i, _ in edges}
        rows = {j for _, j in edges}
        col_t = len(edges) / (4.0 * len(cols))
        row_t = len(edges) / (4.0 * len(rows))
        rounds = 0
        while True:
            cdeg = Counter(i for i, _ in edges)
            rdeg = Counter(j for _, j in edges)
            bad_c = {i for i in cols if cdeg[i] < col_t}
            bad_r = {j for j in rows if rdeg[j] < row_t}
            if not bad_c and not bad_r:
                break
            rounds += 1
            cols -= bad_c
            rows -= bad_r
            edges = {(i, j) for i, j in edges if i in cols and j in rows}
        want = {"a_cells": len(cols), "b_cells": len(rows), "intersection_count": len(edges), "rounds": rounds}
        errors = [f"{k}: {out[k]} != {v}" for k, v in want.items() if out[k] != v]
        if 2 * out["intersection_count"] < out["x_count"]:
            errors.append("extracted product keeps less than half of X")
        return errors

    return check


def _level_count(phi, G1, G2, s: Fraction, t: Fraction) -> int:
    """Oracle: per-cell loop over the public enclosure on inflated cells."""
    d = G1.scale.delta
    count = 0
    for i in G1.cells:
        for j in G2.cells:
            enc = phi.enclosure(polyexpr.Rect(i * d - s, (i + 1) * d + s, j * d - s, (j + 1) * d + s))
            if enc.lo <= t <= enc.hi:
                count += 1
    return count


def _library_op(name: str, call: Callable[[], object], check: Callable[[object], List[str]]) -> Op:
    return Op(f"lib:{name}", lambda: json.dumps(call()), lambda text: check(json.loads(text)))


def certify_cli(seed: int, workdir: str) -> Workload:
    rng = random.Random(seed)
    light: List[Op] = []  # milliseconds each: most requests a user makes
    heavy: List[Op] = []  # per-box enclosure work and the quadratic energy path

    special = _special_forms(rng)
    expanders = [f"x + y + {_dyadic(rng)}*(x^2 + y^2)^2" for _ in range(3)]
    for idx, poly in enumerate(special + expanders):
        is_special = idx < len(special)
        verdict = "SpecialForm" if is_special else "Expander"
        light.append(_cli_op(f"classify#{idx}", ["classify", poly], _classify_check(verdict)))
        light.append(_cli_op(f"mp#{idx}", ["mp", poly], _mp_check(poly, is_special)))
        light.append(_cli_op(f"hf#{idx}", ["hf", poly], _hf_check(poly)))

    for idx in range(2):
        k = 7
        density = rng.choice((3, 4, 5))
        cells = sorted(
            {(i, j) for i in range(2**k) for j in range(2**k) if rng.randrange(density) == 0}
        )
        path = os.path.join(workdir, f"extract_{idx}.txt")
        gridset.save_gridset(gridset.GridSet2D(gridset.Scale(k), tuple(cells)), path)
        light.append(_cli_op(f"extract#{idx}", ["extract", "--set-file", path], _extract_check(cells)))

    for idx in range(2):
        k = rng.choice((12, 14, 16))
        alpha = rng.choice((0.4, 0.5, 0.6))
        cells = list(gridset.gen_ap(alpha, 0.0, gridset.Scale(k)).cells)
        light.append(
            _cli_op(
                f"nonconc-ap#{idx}",
                ["nonconc", "--k", str(k), "--alpha", str(alpha)],
                _nonconc_check(cells, k, 0.5, 0.5),
            )
        )
    pattern = sorted(rng.sample(range(4), 2))
    cantor = list(gridset.gen_cantor(pattern, 4, 8).cells)
    light.append(
        _cli_op(
            "nonconc-cantor",
            ["nonconc", "--gen", "cantor", "--k", "16", "--pattern", ",".join(map(str, pattern))],
            _nonconc_check(cantor, 16, 0.5, 0.5),
        )
    )

    energy_poly = f"x + y + {_dyadic(rng)}*(x^2 + y^2)^2"
    hf_min = rng.choice((0.001, 0.002, 0.004))
    heavy.append(
        _cli_op(
            "energy-hf",
            ["energy", "--poly", energy_poly, "--hf-min", str(hf_min), "--k", "8"],
            _cli_energy_check(energy_poly, 8, hf_min),
        )
    )
    heavy.append(
        _cli_op("energy", ["energy", "--poly", energy_poly, "--k", "9"], _cli_energy_check(energy_poly, 9, None))
    )
    stride = rng.choice((4, 8))
    for k, funcs in ((5, "px,py,pxy,mp"), (6, "px,py,pxy")):
        heavy.append(
            _cli_op(
                f"bands#{k}",
                ["bands", "--poly", QUARTIC, "--k", str(k), "--funcs", funcs, "--sample-stride", str(stride)],
                _bands_check(QUARTIC, k, 0.2, stride),
            )
        )
    # Both radii in every pass, in seeded order: the pass cost stays fixed.
    for idx, r2 in enumerate(rng.sample(("5/16", "3/8"), 2)):
        region = f"x^2 + y^2 - {r2}"
        heavy.append(
            _cli_op(
                f"whitney#{idx}",
                ["whitney", "--region", f"poly-pos:{region}", "--kmax", "7"],
                _whitney_check(region, 7),
            )
        )

    k = 9
    scale = gridset.Scale(k)
    s = Fraction(1, 2**k)
    G = gridset.gen_ap(0.5, rng.choice((0.0, 0.125)), scale)
    sparse = gridset.GridSet1D(scale, tuple(range(0, 2**k, 16)))
    phi = geomdecomp.PolynomialMap(polyexpr.parse_poly(f"x + {_dyadic(rng)}*y"))

    def select():
        best = geomdecomp.select_level(phi, (G, sparse), s, 0.26, kappa=0.5)
        return {"t": best.t, "count": best.count}

    def select_check(out: dict) -> List[str]:
        n = math.ceil(float(s) ** -0.25)
        t0 = Fraction(0.26)
        best = None
        for i in range(n):
            t = t0 + Fraction(i, n - 1) * t0
            count = _level_count(phi, G, sparse, s, t)
            if best is None or count < best[1]:
                best = (float(t), count)
        return [] if (out["t"], out["count"]) == best else [f"select_level {out} != {best}"]

    zphi = geomdecomp.PolynomialMap(polyexpr.parse_poly(f"x - y + {_dyadic(rng, 6)}"))
    G2 = gridset.gen_ap(0.6, 0.0, scale)

    def zero():
        return {"count": geomdecomp.zero_nbhd_covering(zphi, (G2, G2), s)}

    def zero_check(out: dict) -> List[str]:
        want = _level_count(zphi, G2, G2, s, Fraction(0))
        return [] if out["count"] == want else [f"zero_nbhd_covering {out['count']} != {want}"]

    heavy.append(_library_op("select_level", select, select_check))
    heavy.append(_library_op("zero_nbhd_covering", zero, zero_check))

    # Spread the heavy operations evenly between the light ones.
    ops: List[Op] = []
    step = len(light) / len(heavy)
    for idx, op in enumerate(heavy):
        ops += light[round(idx * step) : round((idx + 1) * step)] + [op]

    def sizes():
        return {
            "ops_per_pass": len(ops),
            "requests_per_pass": sum(1 for op in ops if op.name.startswith("cli:")),
            "library_calls_per_pass": sum(1 for op in ops if op.name.startswith("lib:")),
        }

    return Workload(ops, [], sizes)


def build(name: str, seed: int, workdir: str) -> Workload:
    if name == "poly_ladder":
        return poly_ladder(seed)
    if name == "projection_ladder":
        return projection_ladder(seed)
    if name == "certify_cli":
        return certify_cli(seed, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")

