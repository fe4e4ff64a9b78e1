"""Tests for scenarios, reports, and the regression helper."""

import os
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from explab import expharness, geomdecomp, gridset, polyexpr
from explab.expharness import (
    _metric_names,
    Expectation,
    Scenario,
    builtin_scenario,
    builtin_scenarios,
    format_scenario,
    gradient_floor,
    half_dimensional_set,
    parse_scenario,
    report_to_csv,
    report_to_dict,
    report_to_json,
    run_scenario,
)
from explab.gridset import Scale, covering_number, fit_exponent
from explab.polyexpr import VARS2, Poly, Rect, interval_range


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
        ("three_projection", {"scales": "8,9,10"}, "phi3_exponnt", geomdecomp, "preimage_cells"),
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
        (geomdecomp, "map_image"),
        (geomdecomp, "preimage_cells"),
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


def test_cantor_half_ignores_alpha_and_eta():
    parameters = {"poly": "x + y", "generator": "cantor_half", "alpha": "0.5", "eta": "0.75"}
    report = run_scenario(Scenario("cantor", "poly_growth", {**parameters, "scales": "4,6,8"}, ()))
    assert report.metrics["cover_a"] == (4.0, 8.0, 16.0)


@pytest.mark.parametrize("family", ["three_projection", "pinned_distance"])
@pytest.mark.parametrize("pins", ["0,0;1,nan;0,1", "inf,0;1,0;0,1", "0,0;1;0,1"])
def test_run_scenario_rejects_bad_pins_before_running(monkeypatch, family, pins):
    _forbid_work(monkeypatch)
    with pytest.raises(ValueError, match="^pins must be"):
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
    number = st.floats(allow_nan=False)
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
    expected = [report_to_json(run_scenario(s)) for s in GUARD_SCENARIOS]

    def forbidden(*args):
        raise AssertionError("interval_range is the oracle, not a kernel")

    for module in (polyexpr, gridset, geomdecomp, expharness):
        if hasattr(module, "interval_range"):
            monkeypatch.setattr(module, "interval_range", forbidden)
    floors = []
    real_floor = expharness.gradient_floor
    monkeypatch.setattr(expharness, "gradient_floor", lambda P: floors.append(P) or real_floor(P))
    for s, want in zip(GUARD_SCENARIOS, expected):
        floors.clear()
        assert report_to_json(run_scenario(s)) == want
        assert len(floors) == 1, s.family


def test_runs_build_one_table_per_polynomial_and_scale(monkeypatch):
    expected = [report_to_json(run_scenario(s)) for s in GUARD_SCENARIOS]

    tables, units = [], []  # the polynomials, kept alive so their ids stay theirs
    real_tables = gridset._product_bounds
    monkeypatch.setattr(
        gridset,
        "_product_bounds",
        lambda P, A, B: tables.append((P, A.scale.k)) or real_tables(P, A, B),
    )
    real_bounds = polyexpr.box_bounds

    def counting_bounds(P, *corners):
        if corners == (0, 1, 0, 1, 1):
            units.append(P)
        return real_bounds(P, *corners)

    monkeypatch.setattr(polyexpr, "box_bounds", counting_bounds)
    for s, want in zip(GUARD_SCENARIOS, expected):
        tables.clear()
        units.clear()
        assert report_to_json(run_scenario(s)) == want
        per_table = Counter((id(P), k) for P, k in tables)
        assert set(per_table.values()) == {1}, s.family
        # Two polynomials at three scales (P and the baseline, p_small and
        # p_large, x + y and x*y), and p_small on the restricted ladder.
        assert len(tables) == 6 + 3 * (s.family == "eps_d_energy"), s.family
        per_unit = Counter(map(id, units))
        assert units and set(per_unit.values()) == {1}, s.family


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
