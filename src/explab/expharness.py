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
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from . import geomdecomp, gridset
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
    fields: Dict[str, str] = {}  # every line but the expectations, once each
    expectations: List[Expectation] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"bad scenario line {line!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not fields and (key, value) != ("schema", str(SCHEMA_VERSION)):
            raise ValueError(f"scenario files must start with schema=1, got {line!r}")
        if key == "expect":
            parts = value.split()
            if len(parts) != 5:
                raise ValueError(f"bad expectation {value!r}")
            try:
                target, tolerance = float(parts[2]), float(parts[3])
            except ValueError:
                raise ValueError(
                    f"bad expectation {value!r}: target and tolerance must be numbers"
                ) from None
            expectations.append(Expectation(parts[0], parts[1], target, tolerance, parts[4]))
        elif key in fields:
            raise ValueError(f"repeated key {key!r} in scenario line {line!r}")
        else:
            fields[key] = value
    if "name" not in fields or "family" not in fields:
        raise ValueError("scenario needs schema, name, and family lines")
    del fields["schema"]
    name, family = fields.pop("name"), fields.pop("family")
    description = fields.pop("description", "")
    return Scenario(name, family, fields, tuple(expectations), description)


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


def _float(key: str, text: str) -> float:
    """The finite float in text."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{key} must be a finite number, got {text!r}")
    return value


def _fraction(key: str, text: str) -> Fraction:
    """The rational number in text."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{key} must be a rational number, got {text!r}") from None


def _even_degree(key: str, text: str) -> int:
    """The degree D in text, even and at least 2: the family's
    polynomial carries the term (x^2 + y^2)^(D/2)."""
    if not (text.isdigit() and int(text) >= 2 and int(text) % 2 == 0):
        raise ValueError(f"{key} must be an even integer of at least 2, got {text!r}")
    return int(text)


def _poly(key: str, text: str) -> Optional[Poly]:
    """The polynomial in text, or None for an empty text (no baseline)."""
    return parse_poly(text) if text else None


def _generator(key: str, text: str) -> str:
    if text not in ("ap", "cantor_half"):
        raise ValueError(f"unknown generator {text!r}")
    return text


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


def cs_lower_bound(floor: float, count: int, energy: int) -> float:
    """Frozen-constant Cauchy-Schwarz floor for the image covering count
    of P(A, A), given |A| = count and the polynomial's gradient_floor."""
    if floor <= 0 or energy <= 0:
        return 0.0
    return CS_CONSTANT * gridset.cs_growth_bound(count * count, energy, min(1.0, floor))


# ---------------------------------------------------------------------------
# Scenario families
# ---------------------------------------------------------------------------


def _scales(key: str, text: str) -> List[int]:
    """The scale ladder in text, checked before any measurement: an
    exponent fit needs three points, and every scale must be valid."""
    try:
        ladder = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise ValueError(f"{key} must be comma-separated integers, got {text!r}") from None
    if len(ladder) < 3:
        raise ValueError(f"{key} needs at least 3 scales for an exponent fit, got {len(ladder)}")
    if not all(1 <= k <= gridset.MAX_SCALE for k in ladder):
        raise ValueError(f"{key} must lie in [1, {gridset.MAX_SCALE}], got {ladder}")
    return ladder


def _run_poly_growth(p: dict) -> Tuple[Tuple[int, ...], dict, dict, dict]:
    P, baseline, scales = p["poly"], p["baseline_poly"], p["scales"]
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
        if p["generator"] == "ap":
            A = gridset.gen_ap(p["alpha"], p["eta"], Scale(k))
        else:
            A = half_dimensional_set(Scale(k))
        table = gridset.ProductBounds(P, A, A)
        image = len(table.image().grid.cells)
        energy = table.energy()
        bound = cs_lower_bound(floor, len(A.cells), energy)
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


def _run_eps_d_energy(p: dict) -> Tuple[Tuple[int, ...], dict, dict, dict]:
    alpha, eta, c, d_small, scales = p["alpha"], p["eta"], p["c"], p["d_small"], p["scales"]

    def poly_for(d: int) -> Poly:
        return parse_poly("x + y") + Poly.constant(c) * parse_poly("x^2 + y^2") ** (
            d // 2
        )

    p_small = poly_for(d_small)
    p_large = poly_for(p["d_large"])
    floor = gradient_floor(p_small)

    rows: Dict[str, List[float]] = {"energy_d_small": [], "energy_d_large": [], "cs_bound": [], "cs_ok": [], "image_count": []}
    for k in scales:
        A = gridset.gen_ap(alpha, eta, Scale(k))
        table = gridset.ProductBounds(p_small, A, A)
        e_small = table.energy()
        e_large = gridset.energy_count(p_large, A, A)
        image = len(table.image().grid.cells)
        bound = cs_lower_bound(floor, len(A.cells), e_small)
        rows["energy_d_small"].append(float(e_small))
        rows["energy_d_large"].append(float(e_large))
        rows["image_count"].append(float(image))
        rows["cs_bound"].append(bound)
        rows["cs_ok"].append(1.0 if image >= bound else 0.0)

    restricted_points = []
    restricted_counts = {}
    for k in p["restricted_scales"]:
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


def _run_sum_product(p: dict) -> Tuple[Tuple[int, ...], dict, dict, dict]:
    scales = p["scales"]
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
        bound = cs_lower_bound(floor, len(A.cells), energy)
        rows["cover_a"].append(float(len(A.cells)))
        rows["sum_count"].append(float(sums))
        rows["product_count"].append(float(prods))
        rows["growth_margin"].append(
            (sums + prods) / len(A.cells) ** p["growth_exponent"]
        )
        rows["cs_ok"].append(1.0 if image >= bound else 0.0)
    fits = {"sum_exponent": fit_exponent(list(zip(scales, rows["sum_count"])))}
    scalars = {
        "min_growth_margin": min(rows["growth_margin"]),
        "cs_all_ok": float(all(rows["cs_ok"])),
    }
    return tuple(scales), rows, fits, scalars


def _pins(key: str, text: str) -> List[Tuple[float, float]]:
    pins = []
    for chunk in text.split(";"):
        try:
            x, y = (float(t) for t in chunk.split(","))
        except ValueError:
            x = y = math.nan
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"{key} must be finite x,y points separated by ';', got {text!r}")
        pins.append((x, y))
    if len(pins) != 3:
        raise ValueError("exactly three pins required")
    return pins


def _window(key: str, text: str) -> Rect:
    try:
        x0, x1, y0, y1 = (Fraction(t) for t in text.split(","))
        return Rect(x0, x1, y0, y1)
    except (ValueError, ZeroDivisionError):
        raise ValueError(
            f"{key} must be four rationals x0,x1,y0,y1 with x0 <= x1 and y0 <= y1, got {text!r}"
        ) from None


def _run_three_projection(p: dict) -> Tuple[Tuple[int, ...], dict, dict, dict]:
    alpha, offset, scales, window = p["alpha"], p["offset"], p["scales"], p["window"]
    phi1, phi2, phi3 = (geomdecomp.PinnedDistance(pin) for pin in p["pins"])

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


def _run_pinned_distance(p: dict) -> Tuple[Tuple[int, ...], dict, dict, dict]:
    alpha, offset, scales, window = p["alpha"], p["offset"], p["scales"], p["window"]
    phis = [geomdecomp.PinnedDistance(pin) for pin in p["pins"]]

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


# The two projection families read the same parameters.
_PROJECTION_PARAMS = {
    "alpha": (_float, "0.5"),
    "offset": (_fraction, "3/8"),
    "scales": (_scales, "8,9,10"),
    "pins": (_pins, "0,0;1,0;0,1"),
    "window": (_window, "0.3,0.7,0.3,0.7"),
}

# Each family's runner, its parameters and the metric names (scalars and
# fits) its reports carry.  A parameter maps to (parser, default text),
# and a default of None marks a required key.  run_scenario checks the
# keys, parses every value and checks the metrics that expectations name
# before the run, so a misspelling can neither fall back to a default nor
# fail after the measurements; the runner gets the parsed values.  A test
# checks that docs/schema.md lists the same keys, defaults and metrics.
_FAMILIES = {
    "poly_growth": (
        _run_poly_growth,
        {
            "poly": (_poly, None),
            "baseline_poly": (_poly, ""),
            "generator": (_generator, "ap"),
            "alpha": (_float, "0.5"),
            "eta": (_float, "0.0"),
            "scales": (_scales, "10,11,12,13,14"),
        },
        ("image_exponent", "energy_exponent", "cs_all_ok"),
    ),
    "eps_d_energy": (
        _run_eps_d_energy,
        {
            "alpha": (_float, "0.5"),
            "eta": (_float, "0.0"),
            "c": (_fraction, "1"),
            "d_small": (_even_degree, "4"),
            "d_large": (_even_degree, "8"),
            "scales": (_scales, "10,11,12,13,14"),
            "restricted_scales": (_scales, "10,11,12,13,14,15,16,17,18,19,20"),
        },
        (
            "restricted_energy_exponent",
            "energy_d_small_exponent",
            "d_ordering_holds",
            "cs_all_ok",
            "restricted_cells_last",
        ),
    ),
    "sum_product": (
        _run_sum_product,
        {"scales": (_scales, "8,10,12"), "growth_exponent": (_float, "1.05")},
        ("sum_exponent", "min_growth_margin", "cs_all_ok"),
    ),
    "three_projection": (
        _run_three_projection,
        _PROJECTION_PARAMS,
        (
            "phi3_exponent",
            "phi1_exponent",
            "phi3_margin_min",
            "phi3_margin_nondegrading",
            "phi1_image_within_construction",
            "eta_x_max",
        ),
    ),
    "pinned_distance": (
        _run_pinned_distance,
        _PROJECTION_PARAMS,
        ("best_pinned_exponent", "pinned_margin", "eta_x_max"),
    ),
}

# poly_growth reports these only when a nonempty baseline_poly is given.
_BASELINE_METRICS = ("image_ratio_first", "image_ratio_last", "image_ratio_growth")


def _metric_names(family: str, parameters: Dict[str, str]) -> FrozenSet[str]:
    """Scalar and fit names a run of the family with these parameters reports."""
    metrics = _FAMILIES[family][2]
    return frozenset(metrics + _BASELINE_METRICS if parameters.get("baseline_poly") else metrics)


def run_scenario(s: Scenario) -> Report:
    """Execute a scenario and evaluate its expectations.

    Unknown, missing and malformed parameters and unknown metric names
    raise before any measurement, and parameter errors found while
    measuring raise too; expectation failures never do (they land in
    the report's outcomes).
    """
    if s.family not in _FAMILIES:
        raise ValueError(f"unknown scenario family {s.family!r}")
    run, params, _ = _FAMILIES[s.family]
    for key in sorted(s.parameters):
        if key not in params:
            raise ValueError(
                f"unknown parameter {key!r} for scenario family {s.family!r}; "
                f"accepted: {', '.join(sorted(params))}"
            )
    for key, (_, default) in params.items():
        if default is None and not s.parameters.get(key):
            raise ValueError(f"{key} is required for scenario family {s.family!r}")
    values = {
        key: parse(key, s.parameters.get(key, default)) for key, (parse, default) in params.items()
    }
    # The ap generator's condition (gridset.gen_ap); cantor_half reads neither key.
    if "eta" in values and values.get("generator") != "cantor_half":
        alpha, eta = values["alpha"], values["eta"]
        if not (0 < alpha <= 1 and eta >= 0 and alpha + eta <= 1):
            raise ValueError(
                f"need 0 < alpha <= 1, eta >= 0, alpha + eta <= 1, got alpha={alpha}, eta={eta}"
            )
    metrics = _metric_names(s.family, s.parameters)
    for e in s.expectations:
        if e.metric not in metrics:
            raise ValueError(
                f"expectation names unknown metric {e.metric!r} for scenario family "
                f"{s.family!r}; known: {', '.join(sorted(metrics))}"
            )
    start = time.perf_counter()
    scales, rows, fits, scalars = run(values)
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
