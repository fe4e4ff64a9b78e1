"""Named, configurable scenarios with multi-scale exponent fits.

A Scenario bundles a parameter map with a list of expectations
(metric, comparator, target, tolerance, provenance tag); running one
produces a Report with per-scale metric tables, exponent fits, scalar
summaries, and one outcome per expectation.  Expectation failures are
reported, never raised.

Scenario files are line-oriented key=value text (schema=1); reports
serialize to a canonical JSON object (timing excluded by default so
identical scenarios give byte-identical output), CSV tables with one row
per scale, and two-column plot data files.
"""

from __future__ import annotations

import io
import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Tuple

import numpy as np

from . import geomdecomp, gridset
from .geomdecomp import pinned_distance_map
from .gridset import ExponentFit, GridSet1D, GridSet2D, Scale, fit_exponent
from .polyexpr import Poly, Rect, parse_poly, unit_square_range

SCHEMA_VERSION = 1
PROVENANCE_TAGS = ("PAPER", "TRIVIAL", "DERIVED")
COMPARATORS = ("approx", "ge", "le", "gt")

# Cauchy-Schwarz consistency constant, calibrated once on the quartic
# growth exemplar (D = 4) and frozen.
CS_CONSTANT = 1.0 / 64.0


@dataclass(frozen=True)
class Expectation:
    metric: str
    comparator: str
    target: float
    tolerance: float
    tag: str

    def __post_init__(self):
        if self.comparator not in COMPARATORS:
            raise ValueError(f"unknown comparator {self.comparator!r}")
        if self.tag not in PROVENANCE_TAGS:
            raise ValueError(f"unknown provenance tag {self.tag!r}")

    def check(self, measured: float) -> bool:
        if self.comparator == "approx":
            return abs(measured - self.target) <= self.tolerance
        if self.comparator == "ge":
            return measured >= self.target - self.tolerance
        if self.comparator == "le":
            return measured <= self.target + self.tolerance
        return measured > self.target + self.tolerance  # gt: strict, tolerance raises the bar


@dataclass(frozen=True)
class Scenario:
    name: str
    family: str
    parameters: Dict[str, str]
    expectations: Tuple[Expectation, ...]
    description: str = ""


@dataclass(frozen=True)
class Outcome:
    metric: str
    comparator: str
    target: float
    tolerance: float
    tag: str
    measured: float
    passed: bool


@dataclass
class Report:
    scenario: str
    scales: Tuple[int, ...]
    metrics: Dict[str, Tuple[float, ...]]
    fits: Dict[str, ExponentFit]
    scalars: Dict[str, float]
    outcomes: Tuple[Outcome, ...]
    wall_clock: float

    @property
    def all_passed(self) -> bool:
        return all(o.passed for o in self.outcomes)


# ---------------------------------------------------------------------------
# Scenario file format (schema=1)
# ---------------------------------------------------------------------------


def format_scenario(s: Scenario) -> str:
    lines = [f"schema={SCHEMA_VERSION}", f"name={s.name}", f"family={s.family}"]
    if s.description:
        lines.append(f"description={s.description}")
    for key in sorted(s.parameters):
        lines.append(f"{key}={s.parameters[key]}")
    for e in s.expectations:
        lines.append(
            f"expect={e.metric} {e.comparator} {e.target} {e.tolerance} {e.tag}"
        )
    return "\n".join(lines) + "\n"


def parse_scenario(text: str) -> Scenario:
    name = family = None
    description = ""
    parameters: Dict[str, str] = {}
    expectations: List[Expectation] = []
    seen_schema = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"bad scenario line {line!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not seen_schema:
            if key != "schema" or int(value) != SCHEMA_VERSION:
                raise ValueError("scenario files must start with schema=1")
            seen_schema = True
            continue
        if key == "name":
            name = value
        elif key == "family":
            family = value
        elif key == "description":
            description = value
        elif key == "expect":
            parts = value.split()
            if len(parts) != 5:
                raise ValueError(f"bad expectation {value!r}")
            expectations.append(
                Expectation(parts[0], parts[1], float(parts[2]), float(parts[3]), parts[4])
            )
        else:
            parameters[key] = value
    if not seen_schema or name is None or family is None:
        raise ValueError("scenario needs schema, name, and family lines")
    return Scenario(name, family, parameters, tuple(expectations), description)


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------


def report_to_dict(report: Report, include_timing: bool = False) -> dict:
    data = {
        "scenario": report.scenario,
        "scales": list(report.scales),
        "metrics": {k: list(v) for k, v in sorted(report.metrics.items())},
        "fits": {
            k: {
                "slope": f.slope,
                "intercept": f.intercept,
                "residual": f.residual,
                "points": [list(p) for p in f.points],
            }
            for k, f in sorted(report.fits.items())
        },
        "scalars": dict(sorted(report.scalars.items())),
        "outcomes": [
            {
                "metric": o.metric,
                "comparator": o.comparator,
                "target": o.target,
                "tolerance": o.tolerance,
                "tag": o.tag,
                "measured": o.measured,
                "passed": o.passed,
            }
            for o in report.outcomes
        ],
        "all_passed": report.all_passed,
    }
    if include_timing:
        data["wall_clock_seconds"] = report.wall_clock
    return data


def report_to_json(report: Report, include_timing: bool = False) -> str:
    return json.dumps(
        report_to_dict(report, include_timing), sort_keys=True, separators=(",", ":")
    )


def report_to_csv(report: Report) -> str:
    names = sorted(report.metrics)
    out = io.StringIO()
    out.write(",".join(["k"] + names) + "\n")
    for row, k in enumerate(report.scales):
        cells = [str(k)] + [repr(report.metrics[m][row]) for m in names]
        out.write(",".join(cells) + "\n")
    return out.getvalue()


def write_plot_data(report: Report, directory: str) -> List[str]:
    """Write gnuplot-ready two-column files (k, log2 value) per metric."""
    import os

    written = []
    for name, values in sorted(report.metrics.items()):
        path = os.path.join(directory, f"{report.scenario}_{name}.dat")
        with open(path, "w", encoding="ascii") as fh:
            for k, v in zip(report.scales, values):
                if v > 0:
                    fh.write(f"{k} {math.log2(v)}\n")
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# Shared measurement helpers
# ---------------------------------------------------------------------------


def _float(parameters: Dict[str, str], key: str, default: str) -> float:
    """The finite float under key, or the default when the key is absent."""
    text = parameters.get(key, default)
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{key} must be a finite number, got {text!r}")
    return value


def _fraction(parameters: Dict[str, str], key: str, default: str) -> Fraction:
    """The rational number under key, or the default when the key is absent."""
    text = parameters.get(key, default)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{key} must be a rational number, got {text!r}") from None


def _even_degree(parameters: Dict[str, str], key: str, default: str) -> int:
    """The degree D under key, even and at least 2: the family's
    polynomial carries the term (x^2 + y^2)^(D/2)."""
    text = parameters.get(key, default)
    if not (text.isdigit() and int(text) >= 2 and int(text) % 2 == 0):
        raise ValueError(f"{key} must be an even integer of at least 2, got {text!r}")
    return int(text)


def _generator(parameters: Dict[str, str]):
    kind = parameters.get("generator", "ap")
    alpha = _float(parameters, "alpha", "0.5")
    eta = _float(parameters, "eta", "0.0")
    if kind == "ap":
        return lambda k: gridset.gen_ap(alpha, eta, Scale(k))
    if kind == "cantor_half":
        return lambda k: half_dimensional_set(Scale(k))
    raise ValueError(f"unknown generator {kind!r}")


def half_dimensional_set(scale: Scale, offset: Fraction = Fraction(0)) -> GridSet1D:
    """Digit-restricted set of box dimension 1/2 at any scale.

    Binary digits at even positions (most significant first) are forced
    to zero; for even k this is the base-4 digit restriction to {0, 2}.
    An optional dyadic offset translates the set on the cell grid.
    """
    k = scale.k
    cells = np.zeros(1, dtype=np.int64)
    for shift in range(k - 1, -1, -2):  # the free digits, most significant first
        cells = (cells[:, None] | np.array([0, 1 << shift])).ravel()
    # A shift by 2^k or more empties the set; clamped, it stays in int64.
    shift = int(Fraction(offset) * scale.cells)
    cells += max(-scale.cells, min(shift, scale.cells))
    return GridSet1D._from_keys(scale, cells[(cells >= 0) & (cells < scale.cells)])


def gradient_floor(P: Poly) -> float:
    """Certified lower bound for min(|P_x|, |P_y|) on the unit square: the
    smaller lower end of the two |enclosures|.  A run takes it once,
    before its scale loop."""
    return min(float(unit_square_range(P.partial(v)).abs_interval().lo) for v in ("x", "y"))


def cs_lower_bound(floor: float, count_a: int, count_b: int, energy: int) -> float:
    """Frozen-constant Cauchy-Schwarz floor for the image covering count,
    given the polynomial's gradient_floor."""
    if floor <= 0 or energy <= 0:
        return 0.0
    cover = count_a * count_b
    return CS_CONSTANT * gridset.cs_growth_bound(cover, energy, min(1.0, floor))


# ---------------------------------------------------------------------------
# Scenario families
# ---------------------------------------------------------------------------


def _scales(parameters: Dict[str, str], default: str, key: str = "scales") -> List[int]:
    """The scale ladder under key, checked before any measurement: an
    exponent fit needs three points, and every scale must be valid."""
    text = parameters.get(key, default)
    try:
        ladder = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise ValueError(f"{key} must be comma-separated integers, got {text!r}") from None
    if len(ladder) < 3:
        raise ValueError(f"{key} needs at least 3 scales for an exponent fit, got {len(ladder)}")
    if not all(1 <= k <= gridset.MAX_SCALE for k in ladder):
        raise ValueError(f"{key} must lie in [1, {gridset.MAX_SCALE}], got {ladder}")
    return ladder


def _run_poly_growth(s: Scenario) -> Tuple[Tuple[int, ...], dict, dict, dict]:
    P = parse_poly(s.parameters["poly"])
    generate = _generator(s.parameters)
    scales = _scales(s.parameters, "10,11,12,13,14")
    base = s.parameters.get("baseline_poly")
    baseline = parse_poly(base) if base else None
    floor = gradient_floor(P)

    rows: Dict[str, List[float]] = {
        "cover_a": [],
        "image_count": [],
        "energy_count": [],
        "cs_bound": [],
        "cs_ok": [],
    }
    if baseline is not None:
        rows["baseline_image_count"] = []
        rows["image_ratio"] = []
    for k in scales:
        A = generate(k)
        table = gridset.ProductBounds(P, A, A)
        image = len(table.image().grid.cells)
        energy = table.energy()
        bound = cs_lower_bound(floor, len(A.cells), len(A.cells), energy)
        rows["cover_a"].append(float(len(A.cells)))
        rows["image_count"].append(float(image))
        rows["energy_count"].append(float(energy))
        rows["cs_bound"].append(bound)
        rows["cs_ok"].append(1.0 if image >= bound else 0.0)
        if baseline is not None:
            base_image = len(gridset.image_set(baseline, A, A).grid.cells)
            rows["baseline_image_count"].append(float(base_image))
            rows["image_ratio"].append(image / base_image)

    fits = {
        "image_exponent": fit_exponent(list(zip(scales, rows["image_count"]))),
        "energy_exponent": fit_exponent(list(zip(scales, rows["energy_count"]))),
    }
    scalars = {
        "image_exponent": fits["image_exponent"].slope,
        "energy_exponent": fits["energy_exponent"].slope,
        "cs_all_ok": float(all(rows["cs_ok"])),
    }
    if baseline is not None:
        scalars["image_ratio_first"] = rows["image_ratio"][0]
        scalars["image_ratio_last"] = rows["image_ratio"][-1]
        scalars["image_ratio_growth"] = (
            rows["image_ratio"][-1] / rows["image_ratio"][0]
        )
    return tuple(scales), rows, fits, scalars


def _run_eps_d_energy(s: Scenario) -> Tuple[Tuple[int, ...], dict, dict, dict]:
    alpha = _float(s.parameters, "alpha", "0.5")
    eta = _float(s.parameters, "eta", "0.0")
    c = _fraction(s.parameters, "c", "1")
    d_small = _even_degree(s.parameters, "d_small", "4")
    d_large = _even_degree(s.parameters, "d_large", "8")
    scales = _scales(s.parameters, "10,11,12,13,14")
    restricted_scales = _scales(
        s.parameters, "10,11,12,13,14,15,16,17,18,19,20", "restricted_scales"
    )

    def poly_for(d: int) -> Poly:
        return parse_poly("x + y") + Poly.constant(c) * parse_poly("x^2 + y^2") ** (
            d // 2
        )

    p_small = poly_for(d_small)
    p_large = poly_for(d_large)
    floor = gradient_floor(p_small)

    rows: Dict[str, List[float]] = {"energy_d_small": [], "energy_d_large": [], "cs_bound": [], "cs_ok": [], "image_count": []}
    for k in scales:
        A = gridset.gen_ap(alpha, eta, Scale(k))
        table = gridset.ProductBounds(p_small, A, A)
        e_small = table.energy()
        e_large = gridset.energy_count(p_large, A, A)
        image = len(table.image().grid.cells)
        bound = cs_lower_bound(floor, len(A.cells), len(A.cells), e_small)
        rows["energy_d_small"].append(float(e_small))
        rows["energy_d_large"].append(float(e_large))
        rows["image_count"].append(float(image))
        rows["cs_bound"].append(bound)
        rows["cs_ok"].append(1.0 if image >= bound else 0.0)

    restricted_points = []
    restricted_counts = {}
    for k in restricted_scales:
        A = gridset.gen_ap(alpha, eta, Scale(k))
        box_hi = Fraction(1, 4) * Fraction(2.0 ** (-k / d_small))
        Ar = gridset.restrict(A, Fraction(0), box_hi)
        if not Ar.cells:
            continue
        count = gridset.energy_count(p_small, Ar, Ar)
        restricted_points.append((k, count))
        restricted_counts[k] = count

    fits = {
        "restricted_energy_exponent": fit_exponent(restricted_points),
        "energy_d_small_exponent": fit_exponent(
            list(zip(scales, rows["energy_d_small"]))
        ),
    }
    ordering = all(
        large >= small
        for small, large in zip(rows["energy_d_small"], rows["energy_d_large"])
    )
    scalars = {
        "restricted_energy_exponent": fits["restricted_energy_exponent"].slope,
        "d_ordering_holds": 1.0 if ordering else 0.0,
        "cs_all_ok": float(all(rows["cs_ok"])),
        "restricted_cells_last": float(
            restricted_points[-1][1] if restricted_points else 0
        ),
    }
    return tuple(scales), rows, fits, scalars


def _run_sum_product(s: Scenario) -> Tuple[Tuple[int, ...], dict, dict, dict]:
    scales = _scales(s.parameters, "8,10,12")
    growth_exponent = _float(s.parameters, "growth_exponent", "1.05")
    p_sum = parse_poly("x + y")
    p_prod = parse_poly("x*y")
    floor = gradient_floor(p_sum)
    rows: Dict[str, List[float]] = {
        "cover_a": [],
        "sum_count": [],
        "product_count": [],
        "growth_margin": [],
        "cs_ok": [],
    }
    for k in scales:
        A = half_dimensional_set(Scale(k))
        # p_sum is x + y, so its image is the sum set.
        table = gridset.ProductBounds(p_sum, A, A)
        sums = image = len(table.image().grid.cells)
        prods = len(gridset.product_set(A, A).cells)
        energy = table.energy()
        bound = cs_lower_bound(floor, len(A.cells), len(A.cells), energy)
        rows["cover_a"].append(float(len(A.cells)))
        rows["sum_count"].append(float(sums))
        rows["product_count"].append(float(prods))
        rows["growth_margin"].append(
            (sums + prods) / len(A.cells) ** growth_exponent
        )
        rows["cs_ok"].append(1.0 if image >= bound else 0.0)
    fits = {"sum_exponent": fit_exponent(list(zip(scales, rows["sum_count"])))}
    scalars = {
        "min_growth_margin": min(rows["growth_margin"]),
        "cs_all_ok": float(all(rows["cs_ok"])),
    }
    return tuple(scales), rows, fits, scalars


def _pins(parameters: Dict[str, str]):
    text = parameters.get("pins", "0,0;1,0;0,1")
    pins = []
    for chunk in text.split(";"):
        try:
            x, y = (float(t) for t in chunk.split(","))
        except ValueError:
            x = y = math.nan
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"pins must be finite x,y points separated by ';', got {text!r}")
        pins.append((x, y))
    if len(pins) != 3:
        raise ValueError("exactly three pins required")
    return pins


def _window(parameters: Dict[str, str]) -> Rect:
    text = parameters.get("window", "0.3,0.7,0.3,0.7")
    try:
        x0, x1, y0, y1 = (Fraction(t) for t in text.split(","))
        return Rect(x0, x1, y0, y1)
    except (ValueError, ZeroDivisionError):
        raise ValueError(
            f"window must be four rationals x0,x1,y0,y1 with x0 <= x1 and y0 <= y1, got {text!r}"
        ) from None


def _run_three_projection(s: Scenario) -> Tuple[Tuple[int, ...], dict, dict, dict]:
    alpha = _float(s.parameters, "alpha", "0.5")
    offset = _fraction(s.parameters, "offset", "3/8")
    scales = _scales(s.parameters, "8,9,10")
    pins = _pins(s.parameters)
    window = _window(s.parameters)
    phi1 = pinned_distance_map(pins[0])
    phi2 = pinned_distance_map(pins[1])
    phi3 = pinned_distance_map(pins[2])

    rows: Dict[str, List[float]] = {
        "x_cells": [],
        "phi1_image": [],
        "phi2_image": [],
        "phi3_image": [],
        "value_cells": [],
        "eta_x": [],
        "phi3_margin": [],
    }
    for k in scales:
        scale = Scale(k)
        values = half_dimensional_set(scale, offset)
        pre1 = geomdecomp.preimage_cells(phi1, values, window, scale)
        pre2 = geomdecomp.preimage_cells(phi2, values, window, scale)
        X = pre1.intersection(pre2)
        img1 = len(geomdecomp.map_image(phi1, X).cells)
        img2 = len(geomdecomp.map_image(phi2, X).cells)
        img3 = len(geomdecomp.map_image(phi3, X).cells)
        rows["x_cells"].append(float(len(X.cells)))
        rows["value_cells"].append(float(len(values.cells)))
        rows["phi1_image"].append(float(img1))
        rows["phi2_image"].append(float(img2))
        rows["phi3_image"].append(float(img3))
        rows["eta_x"].append(gridset.nonconcentration_exponent_2d(X, alpha))
        rows["phi3_margin"].append(math.log2(max(1, img3)) / k - alpha)

    fits = {
        "phi3_exponent": fit_exponent(list(zip(scales, rows["phi3_image"]))),
        "phi1_exponent": fit_exponent(list(zip(scales, rows["phi1_image"]))),
    }
    margins = rows["phi3_margin"]
    scalars = {
        "phi3_exponent": fits["phi3_exponent"].slope,
        "phi3_margin_min": min(margins),
        "phi3_margin_nondegrading": 1.0
        if all(b >= a - 0.02 for a, b in zip(margins, margins[1:]))
        else 0.0,
        "phi1_image_within_construction": 1.0
        if all(
            img <= 4 * vals
            for img, vals in zip(rows["phi1_image"], rows["value_cells"])
        )
        else 0.0,
        "eta_x_max": max(rows["eta_x"]),
    }
    return tuple(scales), rows, fits, scalars


def _run_pinned_distance(s: Scenario) -> Tuple[Tuple[int, ...], dict, dict, dict]:
    alpha = _float(s.parameters, "alpha", "0.5")
    offset = _fraction(s.parameters, "offset", "3/8")
    scales = _scales(s.parameters, "8,9,10")
    pins = _pins(s.parameters)
    window = _window(s.parameters)
    phis = [pinned_distance_map(p) for p in pins]

    rows: Dict[str, List[float]] = {
        "x_cells": [],
        "eta_x": [],
        "best_image": [],
    }
    for idx in range(3):
        rows[f"pin{idx + 1}_image"] = []
    for k in scales:
        scale = Scale(k)
        d = scale.delta
        g = half_dimensional_set(scale, offset).keys
        g = g[(g >= math.ceil(window.x0 / d)) & (g < math.floor(window.x1 / d))]
        X = GridSet2D._from_keys(scale, gridset.cell_keys(g[:, None], g).ravel())
        images = [len(geomdecomp.map_image(phi, X).cells) for phi in phis]
        rows["x_cells"].append(float(len(X.cells)))
        rows["eta_x"].append(gridset.nonconcentration_exponent_2d(X, alpha))
        for idx, img in enumerate(images):
            rows[f"pin{idx + 1}_image"].append(float(img))
        rows["best_image"].append(float(max(images)))

    fits = {
        "best_pinned_exponent": fit_exponent(list(zip(scales, rows["best_image"])))
    }
    scalars = {
        "best_pinned_exponent": fits["best_pinned_exponent"].slope,
        "pinned_margin": fits["best_pinned_exponent"].slope - alpha,
        "eta_x_max": max(rows["eta_x"]),
    }
    return tuple(scales), rows, fits, scalars


_PROJECTION_KEYS = frozenset({"alpha", "offset", "scales", "pins", "window"})

# Each family's runner, the parameter keys it reads and the metric names
# (scalars and fits) its reports carry.  Keys and the metrics that
# expectations name are checked before the run, so a misspelling can
# neither fall back to a default nor fail after the measurements.
_FAMILIES = {
    "poly_growth": (
        _run_poly_growth,
        frozenset({"poly", "baseline_poly", "generator", "alpha", "eta", "scales"}),
        frozenset({"image_exponent", "energy_exponent", "cs_all_ok"}),
    ),
    "eps_d_energy": (
        _run_eps_d_energy,
        frozenset({"alpha", "eta", "c", "d_small", "d_large", "scales", "restricted_scales"}),
        frozenset(
            {
                "restricted_energy_exponent",
                "energy_d_small_exponent",
                "d_ordering_holds",
                "cs_all_ok",
                "restricted_cells_last",
            }
        ),
    ),
    "sum_product": (
        _run_sum_product,
        frozenset({"scales", "growth_exponent"}),
        frozenset({"sum_exponent", "min_growth_margin", "cs_all_ok"}),
    ),
    "three_projection": (
        _run_three_projection,
        _PROJECTION_KEYS,
        frozenset(
            {
                "phi3_exponent",
                "phi1_exponent",
                "phi3_margin_min",
                "phi3_margin_nondegrading",
                "phi1_image_within_construction",
                "eta_x_max",
            }
        ),
    ),
    "pinned_distance": (
        _run_pinned_distance,
        _PROJECTION_KEYS,
        frozenset({"best_pinned_exponent", "pinned_margin", "eta_x_max"}),
    ),
}

# poly_growth reports these only when a nonempty baseline_poly is given.
_BASELINE_METRICS = frozenset({"image_ratio_first", "image_ratio_last", "image_ratio_growth"})


def _metric_names(family: str, parameters: Dict[str, str]) -> FrozenSet[str]:
    """Scalar and fit names a run of the family with these parameters reports."""
    metrics = _FAMILIES[family][2]
    return metrics | _BASELINE_METRICS if parameters.get("baseline_poly") else metrics


def run_scenario(s: Scenario) -> Report:
    """Execute a scenario and evaluate its expectations.

    Parameter errors raise, and unknown parameter keys and metric names
    raise before any measurement; expectation failures never do (they
    land in the report's outcomes).
    """
    if s.family not in _FAMILIES:
        raise ValueError(f"unknown scenario family {s.family!r}")
    run, accepted, _ = _FAMILIES[s.family]
    for key in sorted(s.parameters):
        if key not in accepted:
            raise ValueError(
                f"unknown parameter {key!r} for scenario family {s.family!r}; "
                f"accepted: {', '.join(sorted(accepted))}"
            )
    metrics = _metric_names(s.family, s.parameters)
    for e in s.expectations:
        if e.metric not in metrics:
            raise ValueError(
                f"expectation names unknown metric {e.metric!r} for scenario family "
                f"{s.family!r}; known: {', '.join(sorted(metrics))}"
            )
    start = time.perf_counter()
    scales, rows, fits, scalars = run(s)
    elapsed = time.perf_counter() - start

    outcomes = []
    for e in s.expectations:
        measured = scalars[e.metric] if e.metric in scalars else fits[e.metric].slope
        outcomes.append(
            Outcome(
                e.metric,
                e.comparator,
                e.target,
                e.tolerance,
                e.tag,
                measured,
                e.check(measured),
            )
        )
    metrics = {name: tuple(values) for name, values in rows.items()}
    return Report(s.name, scales, metrics, fits, scalars, tuple(outcomes), elapsed)


# ---------------------------------------------------------------------------
# Builtin scenarios
# ---------------------------------------------------------------------------


def builtin_scenarios() -> List[Scenario]:
    quartic = "x + y + (x^2 + y^2)^2"
    return [
        Scenario(
            "special_form_collapse",
            "poly_growth",
            {"poly": "x + y", "generator": "ap", "alpha": "0.5", "eta": "0.0"},
            (
                Expectation("energy_exponent", "approx", 1.5, 0.15, "PAPER"),
                Expectation("image_exponent", "approx", 0.5, 0.10, "PAPER"),
                Expectation("cs_all_ok", "ge", 1.0, 0.0, "DERIVED"),
            ),
            "additive structure collapses image growth and piles up energy",
        ),
        Scenario(
            "eps_alpha_cap",
            "poly_growth",
            {"poly": quartic, "generator": "ap", "alpha": "0.5", "eta": "0.0"},
            (
                Expectation("image_exponent", "le", 1.0, 0.15, "PAPER"),
                Expectation("image_exponent", "ge", 0.5, 0.05, "DERIVED"),
                Expectation("cs_all_ok", "ge", 1.0, 0.0, "DERIVED"),
            ),
            "image growth cannot beat min(2 alpha, 1)",
        ),
        Scenario(
            "eta_depends_on_D",
            "poly_growth",
            {
                "poly": "x + y + 1/16*(x^2 + y^2)^4",
                "generator": "ap",
                "alpha": "0.5",
                "eta": "0.25",
            },
            (
                Expectation("image_exponent", "approx", 0.5, 0.10, "PAPER"),
                Expectation("cs_all_ok", "ge", 1.0, 0.0, "DERIVED"),
            ),
            "sets hugging the flat spot of a high-degree term stay collapsed",
        ),
        Scenario(
            "eps_D_energy",
            "eps_d_energy",
            {
                "alpha": "0.5",
                "eta": "0.0",
                "c": "1",
                "d_small": "4",
                "d_large": "8",
            },
            (
                Expectation("restricted_energy_exponent", "approx", 0.75, 0.15, "PAPER"),
                Expectation("d_ordering_holds", "ge", 1.0, 0.0, "PAPER"),
                Expectation("cs_all_ok", "ge", 1.0, 0.0, "DERIVED"),
            ),
            "energy near the origin box scales like 3 alpha - 3/D",
        ),
        Scenario(
            "small_c_delta",
            "poly_growth",
            {
                "poly": "x + y + 1/1024*(x^2 + y^2)^2",
                "baseline_poly": "x + y",
                "generator": "ap",
                "alpha": "0.5",
                "eta": "0.0",
            },
            (
                Expectation("image_ratio_first", "le", 2.0, 0.0, "DERIVED"),
                Expectation("image_ratio_growth", "gt", 1.5, 0.0, "DERIVED"),
                Expectation("cs_all_ok", "ge", 1.0, 0.0, "DERIVED"),
            ),
            "a small perturbation looks additive until delta resolves it",
        ),
        Scenario(
            "sum_product_cantor",
            "sum_product",
            {"scales": "8,10,12"},
            (Expectation("min_growth_margin", "gt", 1.0, 0.0, "DERIVED"),),
            "sums or products of a digit-restricted set must grow",
        ),
        Scenario(
            "three_projection",
            "three_projection",
            {
                "alpha": "0.5",
                "pins": "0,0;1,0;0,1",
                "window": "0.3,0.7,0.3,0.7",
                "offset": "9/16",
                "scales": "8,9,10",
            },
            (
                Expectation("phi3_margin_min", "gt", 0.0, 0.0, "PAPER"),
                Expectation("phi3_margin_nondegrading", "ge", 1.0, 0.0, "DERIVED"),
                Expectation("phi1_image_within_construction", "ge", 1.0, 0.0, "TRIVIAL"),
            ),
            "two small distance projections force the third to be large",
        ),
        Scenario(
            "pinned_distance",
            "pinned_distance",
            {
                "alpha": "0.5",
                "pins": "0,0;1,0;0,1",
                "window": "0.3,0.7,0.3,0.7",
                "offset": "3/8",
                "scales": "8,9,10",
            },
            (Expectation("pinned_margin", "gt", 0.0, 0.0, "PAPER"),),
            "a spread planar set has a large distance set from some pin",
        ),
    ]


def builtin_scenario(name: str) -> Scenario:
    for s in builtin_scenarios():
        if s.name == name:
            return s
    raise ValueError(f"no builtin scenario named {name!r}")
