"""Tests for scenarios, reports, and the regression helper."""

import hashlib
import importlib.util
import itertools
import os
import random
import re
import sys
from collections import Counter
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from explab import expharness, geomdecomp, gridset, polyexpr
from explab.expharness import (
    SCHEMA_VERSION,
    _metric_names,
    Expectation,
    Outcome,
    Scenario,
    builtin_scenario,
    builtin_scenarios,
    gradient_floor,
    half_dimensional_set,
    parse_scenario,
    report_to_csv,
    report_to_dict,
    report_to_json,
    run_scenario,
)
from explab.gridset import GridSet2D, Scale, covering_number, fit_exponent
from explab.polyexpr import VARS2, Poly, Rect, interval_range, parse_poly
from test_geomdecomp import reference_map_image, reference_preimage
from test_golden import GOLDEN


def test_exponent_regression_exact():
    fit = fit_exponent([(k, 2.0**k) for k in range(5, 10)])
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.residual == pytest.approx(0.0, abs=1e-12)


def test_exponent_regression_constant():
    fit = fit_exponent([(k, 3.25) for k in range(5, 9)])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_exponent_regression_noisy():
    rng = random.Random(30)
    points = [
        (k, 2.0 ** (1.5 * k) * (1 + 0.1 * (2 * rng.random() - 1)))
        for k in range(8, 18)
    ]
    fit = fit_exponent(points)
    assert abs(fit.slope - 1.5) <= 0.05


def test_exponent_regression_degenerate():
    with pytest.raises(ValueError):
        fit_exponent([(5, 1.0), (6, 2.0)])


def test_half_dimensional_set_counts():
    for k in (8, 9, 10):
        S = half_dimensional_set(Scale(k))
        assert len(S.cells) == 2 ** ((k + 1) // 2)
        # Box dimension near one half across coarser scales.
        assert covering_number(S, k) == len(S.cells)


@pytest.mark.parametrize(
    "offset, shift",
    [("0", 0), ("3/8", 6), ("-3/8", -6), ("1/3", 5), ("-1/3", -5), ("31/32", 15), ("-1/17", 0)],
)
def test_half_dimensional_offset_shifts_by_int_toward_zero(offset, shift):
    # At k = 4: int(offset * 16) cells, so -1/3 shifts by -5, not floor's -6.
    scale = Scale(4)
    base = half_dimensional_set(scale).cells
    want = tuple(c + shift for c in base if 0 <= c + shift < 16)
    assert half_dimensional_set(scale, Fraction(offset)).cells == want


def test_builtin_scenarios_enumerated():
    names = [s.name for s in builtin_scenarios()]
    assert len(names) >= 7
    for required in (
        "special_form_collapse",
        "eps_alpha_cap",
        "eta_depends_on_D",
        "eps_D_energy",
        "small_c_delta",
        "three_projection",
        "pinned_distance",
    ):
        assert required in names


def format_scenario(s: Scenario) -> str:
    """The scenario file text of s, which parse_scenario reads back."""
    lines = [f"schema={SCHEMA_VERSION}", f"name={s.name}", f"family={s.family}"]
    if s.description:
        lines.append(f"description={s.description}")
    for key in sorted(s.parameters):
        lines.append(f"{key}={s.parameters[key]}")
    for e in s.expectations:
        lines.append("expect=" + " ".join(str(getattr(e, f.name)) for f in fields(Expectation)))
    return "\n".join(lines) + "\n"


def test_scenario_file_round_trip():
    for s in builtin_scenarios():
        text = format_scenario(s)
        parsed = parse_scenario(text)
        assert parsed == s


def test_scenario_file_requires_schema():
    with pytest.raises(ValueError):
        parse_scenario("name=x\nfamily=poly_growth\n")


def test_expectation_comparators():
    assert Expectation("m", "approx", 1.0, 0.1, "PAPER").check(1.05)
    assert not Expectation("m", "approx", 1.0, 0.1, "PAPER").check(1.2)
    assert Expectation("m", "ge", 1.0, 0.1, "DERIVED").check(0.95)
    assert Expectation("m", "le", 1.0, 0.1, "DERIVED").check(1.05)
    assert Expectation("m", "gt", 1.0, 0.0, "DERIVED").check(1.01)
    assert not Expectation("m", "gt", 1.0, 0.0, "DERIVED").check(1.0)
    with pytest.raises(ValueError):
        Expectation("m", "??", 1.0, 0.1, "PAPER")
    with pytest.raises(ValueError):
        Expectation("m", "ge", 1.0, 0.1, "GUESS")


@pytest.mark.parametrize("target, tolerance", [("nan", "0.1"), ("0", "inf"), ("-inf", "0.1"), ("1", "-inf")])
def test_non_finite_expectation_is_rejected(target, tolerance):
    # A nan target failed every run, an inf tolerance passed every run, and
    # either one made report_to_json print NaN or Infinity, which is not JSON.
    text = f"schema=1\nname=x\nfamily=sum_product\nexpect=sum_exponent approx {target} {tolerance} PAPER\n"
    with pytest.raises(ValueError, match="^target and tolerance must be finite$"):
        parse_scenario(text)
    with pytest.raises(ValueError, match="^target and tolerance must be finite$"):
        Expectation("sum_exponent", "ge", float(target), float(tolerance), "PAPER")


def test_run_scenario_rejects_bad_parameters():
    s = Scenario(
        "bad",
        "poly_growth",
        {"poly": "x + y", "generator": "ap", "alpha": "0.5", "eta": "0.75"},
        (),
    )
    with pytest.raises(ValueError):
        run_scenario(s)  # alpha + eta > 1


def test_run_scenario_rejects_unknown_parameter_before_running(monkeypatch):
    text = "schema=1\nname=typo\nfamily=poly_growth\npoly=x + y\nalpah=0.9\n"
    monkeypatch.setattr(gridset, "image_set", None)  # any work would fail differently
    monkeypatch.setattr(gridset, "ProductBounds", None)  # the runners' table entry point
    with pytest.raises(ValueError, match="'alpah'.*'poly_growth'"):
        run_scenario(parse_scenario(text))


@pytest.mark.parametrize(
    "family, parameters, metric, module, work",
    [
        ("three_projection", {"scales": "8,9,10"}, "phi3_exponnt", geomdecomp, "map_image_counts"),
        ("three_projection", {"scales": "8,9,10"}, "phi3_exponnt", geomdecomp, "common_preimage_cells"),
        ("pinned_distance", {"scales": "8,9,10"}, "pin1_imag", geomdecomp, "map_image_counts"),
        # image_ratio_* are reported only next to a baseline polynomial.
        ("poly_growth", {"poly": "x + y"}, "image_ratio_growth", gridset, "image_set"),
    ],
)
def test_run_scenario_rejects_unknown_metric_before_running(
    monkeypatch, family, parameters, metric, module, work
):
    monkeypatch.setattr(module, work, None)  # any work would fail differently
    monkeypatch.setattr(gridset, "ProductBounds", None)  # the runners' table entry point
    s = Scenario("typo", family, parameters, (Expectation(metric, "ge", 0.5, 0.0, "PAPER"),))
    with pytest.raises(ValueError, match=f"'{metric}'.*'{family}'"):
        run_scenario(s)


def _forbid_work(monkeypatch):
    for module, name in (
        (gridset, "energy_count"),
        (gridset, "image_set"),
        (gridset, "ProductBounds"),
        (geomdecomp, "map_image_counts"),
        (geomdecomp, "common_preimage_cells"),
    ):
        monkeypatch.setattr(module, name, None)  # any work would fail differently


@pytest.mark.parametrize(
    "family, key, ladder",
    [
        ("three_projection", "scales", "8"),
        ("pinned_distance", "scales", "8,9"),
        ("poly_growth", "scales", "10,"),
        ("sum_product", "scales", "8,10,31"),
        ("eps_d_energy", "restricted_scales", "10,11"),
        ("poly_growth", "scales", "14,14,14"),
        ("sum_product", "scales", "8,8,8"),
        ("eps_d_energy", "restricted_scales", "12,12,12"),
    ],
)
def test_run_scenario_rejects_bad_ladder_before_running(monkeypatch, family, key, ladder):
    parameters = {key: ladder, "poly": "x + y"} if family == "poly_growth" else {key: ladder}
    _forbid_work(monkeypatch)
    with pytest.raises(ValueError, match=key):
        run_scenario(Scenario("short", family, parameters, ()))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0.5x"])
@pytest.mark.parametrize(
    "family, key",
    [
        ("poly_growth", "alpha"),
        ("poly_growth", "eta"),
        ("eps_d_energy", "alpha"),
        ("eps_d_energy", "eta"),
        ("sum_product", "growth_exponent"),
        ("three_projection", "alpha"),
        ("pinned_distance", "alpha"),
    ],
)
def test_run_scenario_rejects_non_finite_float_before_running(monkeypatch, family, key, value):
    _forbid_work(monkeypatch)
    parameters = {key: value, "poly": "x + y"} if family == "poly_growth" else {key: value}
    with pytest.raises(ValueError, match=f"^{key} must be"):
        run_scenario(Scenario("bad", family, parameters, ()))


@pytest.mark.parametrize(
    "family, alpha, eta",
    [
        ("poly_growth", "0.5", "0.75"),
        ("eps_d_energy", "0.5", "0.75"),
        ("eps_d_energy", "1.5", "0"),
        ("poly_growth", "0", "0"),
        ("eps_d_energy", "0.5", "-0.25"),
    ],
)
def test_run_scenario_rejects_ap_parameters_before_running(monkeypatch, family, alpha, eta):
    _forbid_work(monkeypatch)
    monkeypatch.setattr(gridset, "gen_ap", None)
    monkeypatch.setattr(expharness, "gradient_floor", None)
    parameters = {"alpha": alpha, "eta": eta}
    if family == "poly_growth":
        parameters.update(poly="x + y", generator="ap")
    with pytest.raises(ValueError, match=f"alpha={float(alpha)}, eta={float(eta)}"):
        run_scenario(Scenario("bad", family, parameters, ()))


@pytest.mark.parametrize("given", [{"alpha": "0.5"}, {"eta": "0.75"}, {"alpha": "0.5", "eta": "0"}])
def test_cantor_half_rejects_alpha_and_eta_before_running(monkeypatch, given):
    # cantor_half reads neither key; a run with alpha=0.5, eta=0.75 used
    # to pass the ap check and measure the cantor set.
    _forbid_work(monkeypatch)
    monkeypatch.setattr(expharness, "half_dimensional_set", None)
    monkeypatch.setattr(expharness, "gradient_floor", None)
    parameters = {"poly": "x + y", "generator": "cantor_half", **given}
    with pytest.raises(ValueError, match=f"^{min(given)} needs generator=ap$"):
        run_scenario(Scenario("cantor", "poly_growth", parameters, ()))


def test_cantor_half_runs_without_alpha_and_eta():
    parameters = {"poly": "x + y", "generator": "cantor_half", "scales": "4,6,8"}
    report = run_scenario(Scenario("cantor", "poly_growth", parameters, ()))
    assert report.metrics["cover_a"] == (4.0, 8.0, 16.0)


@pytest.mark.parametrize("family", ["three_projection", "pinned_distance"])
@pytest.mark.parametrize(
    "pins",
    [
        "0,0;1,nan;0,1",
        "inf,0;1,0;0,1",
        "0,0;1;0,1",
        # Past 2^500: the first used to overflow np.hypot, and
        # pinned_distance reported every value cell as its image and passed.
        "1.7e308,1.7e308;1,0;0,1",
        "0,0;1,0;0,-1e200",
        "0,0;3.28e150,0;0,1",
    ],
)
def test_run_scenario_rejects_bad_pins_before_running(monkeypatch, family, pins):
    _forbid_work(monkeypatch)
    with pytest.raises(ValueError, match=r"^pins must be .* at most 2\^500 in absolute value"):
        run_scenario(Scenario("bad", family, {"pins": pins}, ()))


@pytest.mark.parametrize("key", ["d_small", "d_large"])
@pytest.mark.parametrize("value", ["3", "1", "0", "-2", "four"])
def test_eps_d_energy_rejects_odd_or_small_degree_before_running(monkeypatch, key, value):
    # d_small=3 used to run as D = 2 and report success.
    _forbid_work(monkeypatch)
    with pytest.raises(ValueError, match=f"^{key} must be"):
        run_scenario(Scenario("bad", "eps_d_energy", {key: value}, ()))


@pytest.mark.parametrize(
    "family, key, value",
    [
        ("three_projection", "offset", "abc"),
        ("pinned_distance", "offset", "1/0"),
        ("three_projection", "window", "0.3,0.7,0.3"),
        ("pinned_distance", "window", "0.3,0.7,0.3,x"),
        ("pinned_distance", "window", "0.7,0.3,0.3,0.7"),
        ("eps_d_energy", "c", "nan"),
        ("eps_d_energy", "c", "inf"),
        ("poly_growth", "scales", "8,a,10"),
        ("sum_product", "scales", "8,10.5,12"),
        ("eps_d_energy", "restricted_scales", "10,11,1/2"),
        # Non-ASCII digits: int() rejects the first and reads the second as 4.
        ("eps_d_energy", "d_small", "\u00b2"),
        ("eps_d_energy", "d_small", "\u0664"),
    ],
)
def test_run_scenario_rejects_malformed_rational_or_integer_before_running(
    monkeypatch, family, key, value
):
    _forbid_work(monkeypatch)
    parameters = {key: value, "poly": "x + y"} if family == "poly_growth" else {key: value}
    with pytest.raises(ValueError, match=f"^{key} must be"):
        run_scenario(Scenario("bad", family, parameters, ()))


@pytest.mark.parametrize("parameters", [{}, {"poly": ""}, {"scales": "8,9,10"}])
def test_run_scenario_rejects_missing_required_key_before_running(monkeypatch, parameters):
    # A poly_growth without poly used to end in KeyError: 'poly'.
    _forbid_work(monkeypatch)
    with pytest.raises(ValueError, match="^poly is required for scenario family 'poly_growth'$"):
        run_scenario(Scenario("bad", "poly_growth", parameters, ()))


@pytest.mark.parametrize("key", ["scales", "restricted_scales"])
@pytest.mark.parametrize(
    "ladder",
    [
        "8,9,1_0",  # int() takes underscores
        "8,9,\uff11\uff10",  # and full-width digits
        "8,,10",  # empty tokens were skipped
        "8,9,10,",
        "8,9,+-10",
        "8,9,10.0",
    ],
)
def test_scales_take_ascii_integers_only(monkeypatch, key, ladder):
    _forbid_work(monkeypatch)
    message = f"{key} must be comma-separated integers, got {ladder!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_scenario(Scenario("bad", "eps_d_energy", {key: ladder}, ()))


def test_scales_keep_signs_and_spaces():
    assert expharness._scales("scales", " +8, 9 ,10") == [8, 9, 10]
    with pytest.raises(ValueError, match=r"^scales must lie in \[1, 30\], got \[-1, 8, 9\]$"):
        expharness._scales("scales", "-1,8,9")


@pytest.mark.parametrize(
    "line, message",
    [
        ("alpha=0.6", "repeated key 'alpha' in scenario line 'alpha=0.6'"),
        ("name=other", "repeated key 'name' in scenario line 'name=other'"),
        ("schema=1", "repeated key 'schema' in scenario line 'schema=1'"),
        (
            "expect=image_exponent approx x 0.1 PAPER",
            "bad expectation 'image_exponent approx x 0.1 PAPER': target and tolerance",
        ),
        ("expect=image_exponent approx 0.5 1/10 PAPER", "bad expectation .*1/10 PAPER'"),
    ],
)
def test_parse_scenario_rejects_malformed_line(line, message):
    text = f"schema=1\nname=x\nfamily=poly_growth\npoly=x + y\nalpha=0.5\n{line}\n"
    with pytest.raises(ValueError, match=message):
        parse_scenario(text)


@pytest.mark.parametrize("schema", ["schema=abc", "schema=2", "name=x"])
def test_parse_scenario_names_a_bad_first_line(schema):
    with pytest.raises(ValueError, match=f"must start with schema=1, got '{schema}'"):
        parse_scenario(f"# comment\n{schema}\nname=x\nfamily=poly_growth\npoly=x + y\n")


def _docs_cell(default):
    return "required" if default is None else f"`{default}`" if default else "empty"


def test_schema_doc_lists_every_family_parameter_and_metric():
    doc_path = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "schema.md")
    with open(doc_path, encoding="utf-8") as fh:
        doc_lines = set(fh.read().splitlines())
    groups = {}  # families that share one params dict share their rows
    for family, (_, params, _) in expharness._FAMILIES.items():
        groups.setdefault(id(params), (params, []))[1].append(f"`{family}`")
    for params, families in groups.values():
        for key, (_, default) in params.items():
            row = f"| {', '.join(families)} | `{key}` | {_docs_cell(default)} |"
            assert row in doc_lines, row
    for family, (_, params, metrics) in expharness._FAMILIES.items():
        names = ", ".join(f"`{m}`" for m in metrics)
        if "baseline_poly" in params:
            extra = ", ".join(f"`{m}`" for m in expharness._BASELINE_METRICS)
            names += f"; with `baseline_poly` also {extra}"
        row = f"| `{family}` | {names} |"
        assert row in doc_lines, row


# One short run per row list of docs/schema.md, keyed by its family cell.
PER_SCALE_RUNS = {
    "`poly_growth`": ("poly_growth", {"poly": "x + y", "scales": "6,7,8"}),
    "`poly_growth` with `baseline_poly`": (
        "poly_growth",
        {"poly": "x + y + (x^2 + y^2)^2", "baseline_poly": "x + y", "scales": "6,7,8"},
    ),
    "`eps_d_energy`": ("eps_d_energy", {"scales": "6,7,8", "restricted_scales": "10,11,12"}),
    "`sum_product`": ("sum_product", {"scales": "6,8,10"}),
    "`three_projection`": ("three_projection", {"offset": "9/16", "scales": "8,9,10"}),
    "`pinned_distance`": ("pinned_distance", {"scales": "8,9,10"}),
}


def test_schema_doc_lists_every_family_per_scale_row():
    doc_path = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "schema.md")
    with open(doc_path, encoding="utf-8") as fh:
        doc_lines = fh.read().splitlines()
    documented = {}
    for line in doc_lines[doc_lines.index("| family | per-scale rows |") + 2 :]:
        if not line.startswith("|"):
            break
        label, rows = line[2:-2].split(" | ")
        documented[label] = {row.strip(" `") for row in rows.split(",")}
    assert documented.keys() == PER_SCALE_RUNS.keys()
    assert {family for family, _ in PER_SCALE_RUNS.values()} == set(expharness._FAMILIES)
    for label, (family, parameters) in PER_SCALE_RUNS.items():
        report = run_scenario(Scenario("rows", family, parameters, ()))
        assert set(report.metrics) == documented[label], label
        assert {len(values) for values in report.metrics.values()} == {len(report.scales)}, label


# Line text that survives a trip through a scenario file: no line breaks,
# no surrounding whitespace.
line_text = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=12
).map(str.strip)


@st.composite
def scenarios(draw):
    family = draw(st.sampled_from(sorted(expharness._FAMILIES)))
    _, params, metrics = expharness._FAMILIES[family]
    keys = draw(st.lists(st.sampled_from(sorted(params)), unique=True))
    number = st.floats(allow_nan=False, allow_infinity=False)
    expectations = st.builds(
        Expectation,
        st.sampled_from(metrics),
        st.sampled_from(expharness.COMPARATORS),
        number,
        number,
        st.sampled_from(expharness.PROVENANCE_TAGS),
    )
    return Scenario(
        draw(line_text),
        family,
        {key: draw(line_text) for key in keys},
        tuple(draw(st.lists(expectations, max_size=3))),
        draw(line_text),
    )


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_scenario_file_round_trip_over_family_keys(s):
    assert parse_scenario(format_scenario(s)) == s


def reference_gradient_floor(P):
    """gradient_floor on the Fraction enclosures of interval_range."""
    unit = Rect.of(0, 1, 0, 1)
    floors = []
    for var in ("x", "y"):
        enc = interval_range(P.partial(var), unit)
        if enc.lo > 0:
            floors.append(float(enc.lo))
        elif enc.hi < 0:
            floors.append(float(-enc.hi))
        else:
            floors.append(0.0)
    return min(floors)


@st.composite
def gradient_polys(draw):
    """Polynomials of degree <= 8, often with a dominant linear part so
    that both partials keep a sign on the unit square."""
    coefficient = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    monomials = st.tuples(st.integers(0, 4), st.integers(0, 4))
    terms = draw(st.dictionaries(monomials, coefficient, max_size=6))
    for linear in ((1, 0), (0, 1)):
        if draw(st.booleans()):
            terms[linear] = draw(st.sampled_from([-1, 1])) * draw(st.integers(40, 400))
    return Poly(VARS2, terms)


@settings(max_examples=200, deadline=None)
@given(gradient_polys())
def test_gradient_floor_equals_interval_range_reference(P):
    assert gradient_floor(P).hex() == reference_gradient_floor(P).hex()


# Runs of the three families that measure polynomials on cell products.
GUARD_SCENARIOS = [
    Scenario(
        "guard",
        "poly_growth",
        {"poly": "x + y + (x^2 + y^2)^2", "baseline_poly": "x + y", "scales": "6,7,8"},
        (),
    ),
    Scenario("guard", "eps_d_energy", {"scales": "6,7,8", "restricted_scales": "10,11,12"}, ()),
    Scenario("guard", "sum_product", {"scales": "6,8,10"}, ()),
]


def test_runs_take_no_interval_range_and_one_gradient_floor(monkeypatch):
    """interval_range is the oracle, not a kernel, and the runners count
    image cells with image_count(): they mark none (ProductBounds.image,
    range_union)."""
    expected = [report_to_json(run_scenario(s)) for s in GUARD_SCENARIOS]

    def forbidden(*args):
        raise AssertionError("a scenario run called an oracle or marked image cells")

    for module in (polyexpr, gridset, geomdecomp, expharness):
        for name in ("interval_range", "range_union"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(gridset.ProductBounds, "image", forbidden)
    floors = []
    real_floor = expharness.gradient_floor
    monkeypatch.setattr(expharness, "gradient_floor", lambda P: floors.append(P) or real_floor(P))
    for s, want in zip(GUARD_SCENARIOS, expected):
        floors.clear()
        assert report_to_json(run_scenario(s)) == want
        assert len(floors) == 1, s.family


@pytest.mark.parametrize("name", ["three_projection", "pinned_distance"])
def test_projection_runs_mark_no_image_cells(monkeypatch, name):
    """The projection runners count image cells with map_image_counts:
    they mark none (range_union, _runs)."""
    s = builtin_scenario(name)
    want = report_to_json(run_scenario(s))

    def forbidden(*args):
        raise AssertionError("a projection run marked image cells")

    for module in (gridset, geomdecomp):
        for attr in ("range_union", "_runs"):
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, forbidden)
    assert report_to_json(run_scenario(s)) == want


def spy_ladders(monkeypatch) -> list:
    """Patch ProductBounds.ladder to record the tables of every call."""
    ladders = []
    real = gridset.ProductBounds.ladder.__func__

    def ladder(cls, polys, sets):
        ladders.append(real(cls, polys, sets))
        return ladders[-1]

    monkeypatch.setattr(gridset.ProductBounds, "ladder", classmethod(ladder))
    return ladders


def test_runs_build_one_table_per_polynomial_and_scale(monkeypatch):
    """Each ladder's tables come from one filtered kernel call over the
    top scale's denominator, one per group of polynomials on the same
    sets: P with its baseline, p_small with p_large and then p_small on
    the restricted ladder, x + y with x * y."""
    expected = [report_to_json(run_scenario(s)) for s in GUARD_SCENARIOS]
    ladders, calls = spy_ladders(monkeypatch), []
    real_kernel = gridset.box_bounds

    def counting_kernel(polys, x0, x1, y0, y1, den, filtered=False):
        if filtered:
            calls.append((len(polys), den))
        return real_kernel(polys, x0, x1, y0, y1, den, filtered)

    monkeypatch.setattr(gridset, "box_bounds", counting_kernel)
    want = {
        "poly_growth": [(2, [6, 7, 8])],
        "eps_d_energy": [(2, [6, 7, 8]), (1, [10, 11, 12])],
        "sum_product": [(2, [6, 8, 10])],
    }
    for s, text in zip(GUARD_SCENARIOS, expected):
        ladders.clear()
        calls.clear()
        assert report_to_json(run_scenario(s)) == text
        got = [(len(tables), [t.A.scale.k for t in tables[0]]) for tables in ladders]
        assert got == want[s.family]
        assert calls == [(n, 2 ** max(ks)) for n, ks in got], s.family
        for tables in ladders:
            for P_tables in tables:
                assert len({id(t.P) for t in P_tables}) == 1, s.family


def test_ladders_take_unit_square_range_once_per_polynomial(monkeypatch):
    """Each ProductBounds.ladder call takes unit_square_range once per
    polynomial, in order, as it builds the tables, and the tables read it
    from their total slot, so no image takes it again: P and its
    baseline; p_small and p_large, then p_small alone for the restricted
    ladder; x + y and x * y."""
    expected = [report_to_json(run_scenario(s)) for s in GUARD_SCENARIOS]
    # ("ladder", *polys) and ("built",) around each call, ("unit", P) at each range
    events = []
    real_ladder, real_unit = gridset.ProductBounds.ladder.__func__, gridset.unit_square_range

    def ladder(cls, polys, sets):
        events.append(("ladder", *polys))
        tables = real_ladder(cls, polys, sets)
        events.append(("built",))
        return tables

    monkeypatch.setattr(gridset.ProductBounds, "ladder", classmethod(ladder))
    monkeypatch.setattr(gridset, "unit_square_range", lambda P: events.append(("unit", P)) or real_unit(P))
    growth = [str(parse_poly(text)) for text in ("x + y + (x^2 + y^2)^2", "x + y")]
    for s, text in zip(GUARD_SCENARIOS, expected):
        events.clear()
        assert report_to_json(run_scenario(s)) == text
        # The polynomials stay alive in events, so their ids stay theirs.
        got = [(kind, *map(id, polys)) for kind, *polys in events]
        ladders = [polys for kind, *polys in events if kind == "ladder"]
        ids = [[id(P) for P in polys] for polys in ladders]
        want = []
        for polys in ids:
            want += [("ladder", *polys), *(("unit", P) for P in polys), ("built",)]
        assert got == want, s.family
        if s.family == "poly_growth":
            assert [[str(P) for P in polys] for polys in ladders] == [growth]
        elif s.family == "eps_d_energy":
            (small, large), restricted = ids
            assert small != large and restricted == [small]
        else:
            assert ids == [[id(gridset.SUM_POLY), id(gridset.PRODUCT_POLY)]]


@pytest.mark.parametrize("family", ["three_projection", "pinned_distance"])
def test_projection_runs_make_one_preimage_pass_per_scale_and_one_image_pass_per_ladder(
    monkeypatch, family
):
    """three_projection asks phi1 and phi2 about the window of each scale,
    then phi1 to phi3 about the X of every scale at once; pinned_distance
    asks its three pins about every scale's X at once.  Each is one pass
    with one formula pass in it, and the report keeps its golden digest."""
    scenario = builtin_scenario(family)
    passes, formulas = [], []
    real_pass = geomdecomp._enclosure_pass
    real_cells = geomdecomp._FloatEnclosureMap._stacked_cells.__func__

    def scales_of(k):  # the scales of a pass's cells, set by set
        return [s for s, _ in itertools.groupby(np.ravel(k).tolist())]

    def counting_pass(phis, i, j, k):
        passes.append((len(phis), scales_of(k)))
        return real_pass(phis, i, j, k)

    def counting_cells(cls, maps, i, j, k):
        formulas.append((len(maps), scales_of(k)))
        return real_cells(cls, maps, i, j, k)

    monkeypatch.setattr(geomdecomp, "_enclosure_pass", counting_pass)
    monkeypatch.setattr(geomdecomp._FloatEnclosureMap, "_stacked_cells", classmethod(counting_cells))
    report = run_scenario(scenario)
    assert hashlib.sha256(report_to_json(report).encode()).hexdigest() == GOLDEN[family]
    ladder = list(report.scales)
    preimages = [(2, [k]) for k in ladder] if family == "three_projection" else []
    assert passes == formulas == preimages + [(3, ladder)]


def test_a_projection_ladder_pass_takes_one_image_call_per_ladder(monkeypatch):
    """The benchmark's projection_ladder pass runs nine ladders of three
    scales: nine map_image_counts calls (not one per scale) and one
    common_preimage_cells call per three_projection scale."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    calls = Counter()

    def counted(name):
        real = getattr(geomdecomp, name)

        def call(*args):
            calls[name] += 1
            return real(*args)

        return call

    for name in ("map_image_counts", "common_preimage_cells"):
        monkeypatch.setattr(geomdecomp, name, counted(name))
    ops = workloads.projection_ladder(101).ops
    outputs = [op.call() for op in ops]
    assert all(op.check(text) == [] for op, text in zip(ops, outputs))
    assert calls == {"map_image_counts": 9, "common_preimage_cells": 18}


@pytest.mark.parametrize(
    "family, parameters",
    [
        # X has one cell at 4 and none at 5.
        ("three_projection", {"scales": "4,5,6", "offset": "1/8", "window": "0,1/4,1/4,3/8"}),
        # A window narrower than a scale-5 cell holds scale-6 cells.
        ("pinned_distance", {"scales": "6,5,4", "offset": "0", "window": "1/64,3/64,1/64,3/64"}),
    ],
)
def test_empty_planar_set_at_a_later_scale_fails_before_any_image(monkeypatch, family, parameters):
    monkeypatch.setattr(geomdecomp, "map_image_counts", None)  # an image pass would fail differently
    with pytest.raises(ValueError) as err:
        run_scenario(Scenario("e", family, parameters, ()))
    window = ",".join(str(Fraction(t)) for t in parameters["window"].split(","))
    assert str(err.value) == (
        f"{family}: the planar set X is empty at scale 5 (window={window}, offset={parameters['offset']})"
    )


@pytest.mark.parametrize("family", ["three_projection", "pinned_distance"])
@pytest.mark.parametrize(
    "window, cut", [("-0.5,0.7,0.3,0.7", "0,0.7,0.3,0.7"), ("0.3,1.5,0.3,0.7", "0.3,1,0.3,0.7")]
)
def test_projection_window_past_the_unit_square_runs_as_its_cut(family, window, cut):
    # three_projection used to fail on these windows after measuring.
    past, inside = (
        report_to_json(run_scenario(Scenario("w", family, {"scales": "4,5,6", "window": w}, ())))
        for w in (window, cut)
    )
    assert past == inside


def test_pinned_distance_reads_the_window_rows():
    # y0 and y1 used to be parsed and checked but read by nothing.
    full, cut = (
        run_scenario(Scenario("w", "pinned_distance", {"scales": "6,7,8", "window": w}, ())).metrics["x_cells"]
        for w in ("0.3,0.7,0,1", "0.3,0.7,0.3,0.7")
    )
    assert full != cut


def test_three_projection_of_defaults_only_is_the_builtin():
    # With the shared default offset 3/8 this run failed with "empty set".
    s = parse_scenario("schema=1\nname=defaults\nfamily=three_projection\n")
    assert s.parameters == {} and s.expectations == ()
    got, want = (report_to_dict(run_scenario(t)) for t in (s, builtin_scenario("three_projection")))
    assert got.pop("scenario") == "defaults" and want.pop("scenario") == "three_projection"
    # The file carries no expectations, so its outcomes are empty.
    assert (got.pop("outcomes"), got.pop("all_passed")) == ([], True)
    del want["outcomes"], want["all_passed"]
    assert got == want


@pytest.mark.parametrize("family", ["three_projection", "pinned_distance"])
def test_empty_planar_set_names_the_family_scale_window_and_offset(family):
    # An offset of 1 shifts the whole set off the grid.
    parameters = {"scales": "4,5,6", "offset": "1", "window": "0.25,0.75,0,1"}
    with pytest.raises(ValueError) as err:
        run_scenario(Scenario("e", family, parameters, ()))
    assert str(err.value) == (
        f"{family}: the planar set X is empty at scale 4 (window=1/4,3/4,0,1, offset=1)"
    )


def test_three_projection_image_rows_equal_per_cell_references():
    # Off centre, the pins (0, 0) and (1, 0) see different images; in the
    # builtin's centred window the phi1 and phi2 rows are equal.
    window = "0.2,0.5,0.3,0.7"
    report = run_scenario(Scenario("o", "three_projection", {"window": window, "scales": "5,6,7"}, ()))
    rect = Rect(*(Fraction(t) for t in window.split(",")))
    phis = [geomdecomp.PinnedDistance(pin) for pin in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))]
    for row, k in enumerate(report.scales):
        scale = Scale(k)
        values = half_dimensional_set(scale, Fraction(9, 16))
        pre1, pre2 = (set(reference_preimage(phi, values, rect, scale)) for phi in phis[:2])
        X = GridSet2D.from_cells(scale, pre1 & pre2)
        assert report.metrics["x_cells"][row] == len(X)
        for n, phi in enumerate(phis, 1):
            assert report.metrics[f"phi{n}_image"][row] == len(reference_map_image(phi, X)), (n, k)
    assert report.metrics["phi1_image"] != report.metrics["phi2_image"]
    for n in (1, 3):
        fit = fit_exponent(list(zip(report.scales, report.metrics[f"phi{n}_image"])))
        assert report.fits[f"phi{n}_exponent"] == fit


def test_declared_metrics_are_the_reported_ones():
    for s in builtin_scenarios():
        parameters = dict(s.parameters, scales="8,9,10")
        if s.family == "eps_d_energy":
            parameters.update(scales="6,7,8", restricted_scales="10,11,12")
        report = run_scenario(Scenario(s.name, s.family, parameters, ()))
        declared = _metric_names(s.family, parameters)
        assert set(report.scalars) | set(report.fits) == declared, s.name


def test_run_scenario_reports_failed_expectation_without_raising():
    s = Scenario(
        "will_fail",
        "poly_growth",
        {"poly": "x + y", "generator": "ap", "alpha": "0.5", "scales": "8,9,10"},
        (Expectation("image_exponent", "approx", 9.9, 0.01, "DERIVED"),),
    )
    report = run_scenario(s)
    assert not report.all_passed
    assert report.outcomes[0].passed is False


def test_outcome_is_its_expectation_plus_the_measurement():
    s = builtin_scenario("special_form_collapse")
    short = Scenario(s.name, s.family, {**s.parameters, "scales": "8,9,10"}, s.expectations)
    report = run_scenario(short)
    data = report_to_dict(report)
    for e, o, d in zip(s.expectations, report.outcomes, data["outcomes"]):
        assert isinstance(o, Outcome) and isinstance(o, Expectation)
        fields = (e.metric, e.comparator, e.target, e.tolerance, e.tag, o.measured, o.passed)
        assert o == Outcome(*fields)
        assert o.passed is e.check(o.measured)
        # The serialised outcome, written out field by field.
        assert d == {
            "metric": e.metric, "comparator": e.comparator, "target": e.target,
            "tolerance": e.tolerance, "tag": e.tag, "measured": o.measured, "passed": o.passed,
        }
    for name, fit in report.fits.items():
        assert data["fits"][name] == {
            "slope": fit.slope, "intercept": fit.intercept, "residual": fit.residual,
            "points": [list(p) for p in fit.points],
        }
    # The base class's checks hold for outcomes too.
    with pytest.raises(ValueError, match="comparator"):
        Outcome("m", "??", 1.0, 0.1, "PAPER", 1.0, True)
    with pytest.raises(ValueError, match="tag"):
        Outcome("m", "ge", 1.0, 0.1, "GUESS", 1.0, True)


def test_special_form_collapse_report_shape():
    s = builtin_scenario("special_form_collapse")
    small = Scenario(s.name, s.family, {**s.parameters, "scales": "8,9,10"}, s.expectations)
    report = run_scenario(small)
    assert report.scales == (8, 9, 10)
    csv = report_to_csv(report)
    assert len(csv.strip().splitlines()) == 1 + 3  # header + one row per scale
    data = report_to_dict(report)
    assert set(data["metrics"]) == set(report.metrics)
    assert "wall_clock_seconds" not in data
    assert "wall_clock_seconds" in report_to_dict(report, include_timing=True)


def test_reports_are_deterministic():
    s = builtin_scenario("sum_product_cantor")
    a = report_to_json(run_scenario(s))
    b = report_to_json(run_scenario(s))
    assert a == b


def test_plot_data_written(tmp_path):
    from explab.expharness import write_plot_data

    s = builtin_scenario("sum_product_cantor")
    report = run_scenario(s)
    files = write_plot_data(report, str(tmp_path))
    assert files
    for path in files:
        lines = open(path).read().strip().splitlines()
        assert len(lines) == len(report.scales)
        for ln in lines:
            k, v = ln.split()
            int(k), float(v)
