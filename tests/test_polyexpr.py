"""Unit and property tests for the exact polynomial layer."""

import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from explab import polyexpr
from explab.polyexpr import (
    VARS2,
    ExpressionError,
    Interval,
    Poly,
    Rect,
    Reason,
    Verdict,
    box_bounds,
    classify_special_form,
    hf_general,
    hf_poly,
    interval_range,
    mp_numerator,
    parse_poly,
    poly2_to_poly4,
    unit_square_range,
)

X = parse_poly("x")
Y = parse_poly("y")


def random_poly(rng, max_degree, variables=("x", "y"), max_terms=6, coeff_range=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        while True:
            exps = tuple(rng.randint(0, max_degree) for _ in variables)
            if sum(exps) <= max_degree:
                break
        coeff = Fraction(rng.randint(-coeff_range, coeff_range), rng.randint(1, 3))
        terms[exps] = terms.get(exps, Fraction(0)) + coeff
    return Poly(variables, terms)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_simple_sum():
    p = parse_poly("x + y")
    assert p.terms == {(1, 0): 1, (0, 1): 1}


def test_parse_expands_example_quartic():
    p = parse_poly("x + y + (x^2 + y^2)^2")
    assert p.terms == {
        (1, 0): 1,
        (0, 1): 1,
        (4, 0): 1,
        (2, 2): 2,
        (0, 4): 1,
    }


def test_parse_syntax_error_position():
    with pytest.raises(ExpressionError) as err:
        parse_poly("x + + y")
    assert err.value.position == 4


def test_parse_rejects_unknown_identifier():
    with pytest.raises(ExpressionError):
        parse_poly("x + z")
    with pytest.raises(ExpressionError):
        parse_poly("x + xp")  # primed names need arity 4


def test_parse_rational_literals_and_arity4():
    p = parse_poly("1/2*x*yp - 3*xp", arity=4)
    assert p.terms == {(1, 0, 0, 1): Fraction(1, 2), (0, 1, 0, 0): -3}


def test_parse_rejects_fractional_exponent():
    with pytest.raises(ExpressionError):
        parse_poly("x^(1/2)")
    with pytest.raises(ExpressionError):
        parse_poly("x^1/2")


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(ExpressionError):
        parse_poly("2x")


def test_print_graded_lex():
    p = parse_poly("1/2*x + x^2*y")
    assert str(p) == "x^2*y + 1/2*x"
    assert str(Poly.zero()) == "0"


def test_parse_print_round_trip_random():
    rng = random.Random(1)
    for _ in range(50):
        p = random_poly(rng, 6)
        assert parse_poly(str(p)) == p


def test_add_sub_cancel_random():
    rng = random.Random(2)
    for _ in range(50):
        p = random_poly(rng, 6)
        q = random_poly(rng, 6)
        assert (p + q) - q == p


# Independent copies of the arithmetic on plain {exponents: Fraction}
# dictionaries, in the loop orders of the original implementation, so
# that the term order (which evaluate_float sums in) is checked too.


def reference_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c != 0}


def reference_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(u + v for u, v in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def reference_pow(a, n, arity):
    """Square-and-multiply from the constant 1, squaring after every bit."""
    result, base = {(0,) * arity: Fraction(1)}, a
    while n:
        if n & 1:
            result = reference_mul(result, base)
        base = reference_mul(base, base)
        n >>= 1
    return result


def reference_partial(a, idx):
    out = {}
    for e, c in a.items():
        if e[idx]:
            key = e[:idx] + (e[idx] - 1,) + e[idx + 1 :]
            out[key] = out.get(key, Fraction(0)) + c * e[idx]
    return {e: c for e, c in out.items() if c != 0}


def assert_canonical(P, expected):
    """P equals the validated Poly of the expected terms, in the same term
    order, with nonzero Fraction coefficients only."""
    assert P == Poly(P.variables, expected)
    assert list(P.terms) == list(expected)
    assert all(type(c) is Fraction and c != 0 for c in P.terms.values())
    assert all(type(e) is tuple and len(e) == len(P.variables) for e in P.terms)


small_coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)


@st.composite
def poly_pairs(draw):
    """Two polynomials over (x, y) or (x, xp, y, yp); some terms of the
    second cancel terms of the first."""
    variables = draw(st.sampled_from([VARS2, ("x", "xp", "y", "yp")]))
    monomials = st.tuples(*[st.integers(0, 3)] * len(variables))
    p = draw(st.dictionaries(monomials, small_coefficients, max_size=5))
    q = draw(st.dictionaries(monomials, small_coefficients, max_size=4))
    q.update({e: -c for e, c in p.items() if draw(st.booleans())})
    return Poly(variables, p), Poly(variables, q)


@settings(max_examples=200, deadline=None)
@given(poly_pairs(), st.integers(0, 4), st.integers(-3, 3))
def test_arithmetic_equals_fraction_reference(pair, n, m):
    P, Q = pair
    a, b = P.terms, Q.terms
    neg_b = {e: -c for e, c in b.items()}
    one = {(0,) * len(P.variables): Fraction(1)}
    assert_canonical(P + Q, reference_add(a, b))
    assert_canonical(P - Q, reference_add(a, neg_b))
    assert_canonical(-Q, neg_b)
    assert_canonical(P * Q, reference_mul(a, b))
    assert_canonical(P ** n, reference_pow(a, n, len(P.variables)))
    assert_canonical(P + m, reference_add(a, {(0,) * len(P.variables): Fraction(m)}))
    assert_canonical(m * P, reference_mul(a, {e: c * m for e, c in one.items()}))
    for idx, var in enumerate(P.variables):
        assert_canonical(P.partial(var), reference_partial(a, idx))
        assert_canonical(P.partial(var, 2), reference_partial(reference_partial(a, idx), idx))


def test_arithmetic_cancels_to_zero_and_trivial_powers():
    P = parse_poly("x + 1/3*y^2 - 2", 4)
    for zero in (P - P, P + (-P), -P + P, P * 0, P * Poly.zero(P.variables)):
        assert zero.is_zero and zero.terms == {} and zero == Poly.zero(P.variables)
    assert_canonical(P**0, {(0, 0, 0, 0): Fraction(1)})
    assert_canonical(P**1, dict(P.terms))
    assert_canonical(Poly.zero() ** 0, {(0, 0): Fraction(1)})
    assert Poly.zero() ** 3 == Poly.zero()
    assert parse_poly("x + y - x - y").terms == {}
    with pytest.raises(ValueError):
        P ** -1


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------


def test_partial_power_rule():
    p = parse_poly("x^2*y")
    assert p.partial("x") == parse_poly("2*x*y")


def test_partial_degree_drop():
    assert parse_poly("x + y").partial("x", 2).is_zero


def test_partial_quartic_against_finite_differences():
    p = parse_poly("x^4 + 2*x^2*y^2 + y^4")
    px = p.partial("x")
    assert px == parse_poly("4*x^3 + 4*x*y^2")
    rng = random.Random(3)
    h = 1e-6
    for _ in range(5):
        pt = {
            "x": Fraction(rng.randint(1, 20), rng.randint(1, 7)),
            "y": Fraction(rng.randint(1, 20), rng.randint(1, 7)),
        }
        x0, y0 = float(pt["x"]), float(pt["y"])
        fd = (
            p.evaluate_float({"x": x0 + h, "y": y0})
            - p.evaluate_float({"x": x0 - h, "y": y0})
        ) / (2 * h)
        exact = float(px.evaluate(pt))
        assert abs(fd - exact) <= 1e-4 * max(1.0, abs(exact))


def test_mixed_partials_commute_random():
    rng = random.Random(4)
    for _ in range(40):
        p = random_poly(rng, 8)
        assert p.partial("x").partial("y") == p.partial("y").partial("x")


# ---------------------------------------------------------------------------
# M_P and the classifier
# ---------------------------------------------------------------------------


def test_mp_vanishes_for_sum_and_product():
    assert mp_numerator(parse_poly("x + y")).is_zero
    assert mp_numerator(parse_poly("x*y")).is_zero


def test_mp_quadratic_form_hand_expansion():
    # P = x^2 + xy + y^2: second partials are constant, third vanish, so
    # M_P = -2 P_y^2 + 2 P_x^2 = 2 (P_x - P_y)(P_x + P_y) = 6 (x^2 - y^2).
    p = parse_poly("x^2 + x*y + y^2")
    assert mp_numerator(p) == parse_poly("6*x^2 - 6*y^2")


def _mixed_log_fd(p, point, h):
    px = p.partial("x")
    py = p.partial("y")

    def logratio(x, y):
        return math.log(abs(px.evaluate_float({"x": x, "y": y}))) - math.log(
            abs(py.evaluate_float({"x": x, "y": y}))
        )

    x0, y0 = point
    return (
        logratio(x0 + h, y0 + h)
        - logratio(x0 + h, y0 - h)
        - logratio(x0 - h, y0 + h)
        + logratio(x0 - h, y0 - h)
    ) / (4 * h * h)


def admissible_points(p, rng, count, require_curved=True):
    """Random rational points where P_x, P_y are comfortably nonzero.

    When require_curved is set, also insist |M_P|/(P_x P_y)^2 is bounded
    away from zero so a relative comparison against float finite
    differences is meaningful.
    """
    px = p.partial("x")
    py = p.partial("y")
    mp = mp_numerator(p)
    points = []
    for _ in range(4000):
        if len(points) == count:
            break
        pt = {
            "x": Fraction(rng.randint(5, 95), 100),
            "y": Fraction(rng.randint(5, 95), 100),
        }
        vx = px.evaluate(pt)
        vy = py.evaluate(pt)
        if abs(vx) < Fraction(1, 20) or abs(vy) < Fraction(1, 20):
            continue
        ratio = abs(vx / vy)
        if ratio < Fraction(1, 100) or ratio > 100:
            continue
        if require_curved:
            curv = abs(mp.evaluate(pt)) / (vx * vy) ** 2
            if curv < Fraction(1, 20):
                continue
        points.append(pt)
    return points


def test_mp_matches_mixed_log_finite_differences():
    rng = random.Random(5)
    checked = 0
    for _ in range(40):
        p = random_poly(rng, 6)
        mp = mp_numerator(p)
        if mp.is_zero:
            continue
        px = p.partial("x")
        py = p.partial("y")
        for pt in admissible_points(p, rng, 10):
            exact = float(mp.evaluate(pt))
            scale = float((px.evaluate(pt) * py.evaluate(pt)) ** 2)
            fd = _mixed_log_fd(p, (float(pt["x"]), float(pt["y"])), 1e-5)
            assert abs(exact - scale * fd) <= 1e-4 * abs(exact)
            checked += 1
    assert checked >= 100


def test_classifier_catalog():
    assert classify_special_form(parse_poly("x + y")).verdict == Verdict.SPECIAL_FORM
    assert classify_special_form(parse_poly("x*y")).verdict == Verdict.SPECIAL_FORM
    quartic = classify_special_form(parse_poly("x + y + (x^2 + y^2)^2"))
    assert quartic.verdict == Verdict.EXPANDER
    assert quartic.reason == Reason.MP_NONZERO
    assert quartic.witness is not None and not quartic.witness.is_zero
    quad = classify_special_form(parse_poly("x^2 + x*y + y^2"))
    assert quad.verdict == Verdict.EXPANDER


def test_classifier_degenerate_inputs():
    zero = classify_special_form(Poly.zero())
    assert zero.verdict == Verdict.SPECIAL_FORM
    assert zero.reason == Reason.PX_IDENTICALLY_ZERO
    const = classify_special_form(parse_poly("7"))
    assert const.reason == Reason.PX_IDENTICALLY_ZERO
    only_y = classify_special_form(parse_poly("y^3 - y"))
    assert only_y.reason == Reason.PX_IDENTICALLY_ZERO
    only_x = classify_special_form(parse_poly("x^2"))
    assert only_x.reason == Reason.PY_IDENTICALLY_ZERO
    split = classify_special_form(parse_poly("x^3 + y^2"))
    assert split.reason == Reason.PXY_IDENTICALLY_ZERO_AND_MP_ZERO
    cubed = classify_special_form(parse_poly("(x + y)^3"))
    assert cubed.verdict == Verdict.SPECIAL_FORM
    assert cubed.reason == Reason.MP_IDENTICALLY_ZERO
    with pytest.raises(ValueError, match="bivariate"):
        classify_special_form(poly2_to_poly4(parse_poly("x + y"), False))


# Univariate polynomials with a nonconstant term, as {exponent: coefficient}.
univariate_terms = st.dictionaries(
    st.integers(0, 6), st.fractions(-9, 9, max_denominator=7).filter(bool), max_size=5
).filter(lambda terms: any(terms.keys() - {0}))


@settings(max_examples=60, deadline=None)
@given(a=univariate_terms, b=univariate_terms)
def test_split_sum_is_decided_without_mp(a, b):
    """P = a(x) + b(y) has M_P = 0, and the classifier decides P_xy = 0
    without computing M_P."""
    P = Poly(VARS2, {(e, 0): c for e, c in a.items()}) + Poly(VARS2, {(0, e): c for e, c in b.items()})
    assert mp_numerator(P).is_zero
    with mock.patch.object(polyexpr, "mp_numerator", wraps=mp_numerator) as spy:
        result = classify_special_form(P)
    assert result.verdict == Verdict.SPECIAL_FORM
    assert result.reason == Reason.PXY_IDENTICALLY_ZERO_AND_MP_ZERO
    assert spy.call_count == 0


def compose_sum_form(rng, max_degree=3):
    """Random h(a(x) + b(y)) with univariate h, a, b of degree <= max_degree."""

    def univariate(var):
        out = Poly.zero()
        for e in range(max_degree + 1):
            c = rng.randint(-3, 3)
            if c:
                out = out + Poly.constant(c) * parse_poly(var) ** e
        if out.is_zero:
            out = parse_poly(var)
        return out

    inner = univariate("x") + univariate("y")
    result = Poly.zero()
    for e in range(max_degree + 1):
        c = rng.randint(-3, 3)
        if c:
            result = result + Poly.constant(c) * inner**e
    if result.degree() in (None, 0):
        result = inner
    return result


def test_classifier_closed_under_sum_composition():
    rng = random.Random(6)
    for _ in range(20):
        p = compose_sum_form(rng)
        assert classify_special_form(p).verdict == Verdict.SPECIAL_FORM


# ---------------------------------------------------------------------------
# H_F
# ---------------------------------------------------------------------------


def test_hf_poly_examples():
    assert hf_poly(parse_poly("x*y")) == parse_poly("x*y - xp*yp", arity=4)
    assert hf_poly(parse_poly("x + y")).is_zero
    assert hf_poly(parse_poly("x^2 + y^2")).is_zero


def test_hf_general_examples():
    assert hf_general(parse_poly("x + xp + y + yp", arity=4)).is_zero
    assert hf_general(parse_poly("x*yp", arity=4)).is_zero


def test_hf_general_reduces_to_hf_poly_random():
    rng = random.Random(7)
    for _ in range(25):
        p = random_poly(rng, 5)
        f = poly2_to_poly4(p, False) - poly2_to_poly4(p, True)
        assert hf_general(f) == hf_poly(p)


# ---------------------------------------------------------------------------
# interval enclosures
# ---------------------------------------------------------------------------


def test_interval_range_linear_exact():
    delta = Fraction(1, 16)
    rng_ = interval_range(parse_poly("x + y"), Rect.of(0, delta, 0, delta))
    assert rng_ == Interval(Fraction(0), 2 * delta)


def test_interval_range_monotone_product():
    assert interval_range(parse_poly("x*y"), Rect.of(1, 2, 1, 2)) == Interval(
        Fraction(1), Fraction(4)
    )


def test_interval_range_contains_true_range():
    enclosure = interval_range(parse_poly("x^2 - x"), Rect.of(0, 1, 0, 1))
    assert enclosure.lo <= Fraction(-1, 4) and enclosure.hi >= 0


def test_interval_range_soundness_random():
    rng = random.Random(8)
    for _ in range(20):
        p = random_poly(rng, 5)
        x0 = Fraction(rng.randint(-8, 8), 8)
        y0 = Fraction(rng.randint(-8, 8), 8)
        cell = Rect(x0, x0 + Fraction(1, rng.randint(1, 16)), y0, y0 + Fraction(1, 4))
        enclosure = interval_range(p, cell)
        for _ in range(100):
            pt = {
                "x": cell.x0 + (cell.x1 - cell.x0) * Fraction(rng.randint(0, 64), 64),
                "y": cell.y0 + (cell.y1 - cell.y0) * Fraction(rng.randint(0, 64), 64),
            }
            assert enclosure.contains(p.evaluate(pt))


def test_interval_arithmetic_negative_powers_and_products():
    iv = Interval(Fraction(-2), Fraction(3))
    assert iv.pow(2) == Interval(Fraction(0), Fraction(9))
    assert iv.pow(3) == Interval(Fraction(-8), Fraction(27))
    assert (iv * Interval(Fraction(-1), Fraction(2))).lo == Fraction(-4)
    assert Interval(Fraction(1), Fraction(2)).intersects(Interval(Fraction(2), Fraction(5)))
    assert not Interval(Fraction(0), Fraction(1)).intersects(
        Interval(Fraction(2), Fraction(3))
    )


# ---------------------------------------------------------------------------
# the integer box kernel against per-box interval_range
# ---------------------------------------------------------------------------


coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(bool)


@st.composite
def polys(draw):
    """Bivariate polynomials of degree <= 8, constants included."""
    degree = draw(st.integers(0, 8))
    monomials = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    chosen = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=6, unique=True))
    return Poly(VARS2, {m: draw(coefficients) for m in chosen})


@st.composite
def signed_edges(draw, den, size):
    """size intervals [a, b] over den with signed ends up to 3 den."""
    ends = st.tuples(st.integers(-3 * den, 3 * den), st.integers(0, 3 * den))
    pairs = draw(st.lists(ends, min_size=size, max_size=size))
    return [a for a, _ in pairs], [a + w for a, w in pairs]


@st.composite
def inflated_edges(draw, den, k, pad, size):
    """size scale-k cells grown by pad / den on both sides."""
    cells = draw(st.lists(st.integers(0, 2**k - 1), min_size=size, max_size=size))
    unit = den >> k
    return [c * unit - pad for c in cells], [(c + 1) * unit + pad for c in cells]


@st.composite
def box_batches(draw):
    """A denominator and x-, y-edge lists: signed boxes, or scale-k cells
    inflated by s (s = 1/3 makes den = 3 * 2^k, not a power of two)."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        den = draw(st.sampled_from([1, 3, 6, 2**7, 3 * 2**9, 2**30, 3 * 2**40]))
        return den, draw(signed_edges(den, m)), draw(signed_edges(den, n))
    k = draw(st.integers(1, 30))
    s = draw(st.sampled_from([Fraction(1, 3), Fraction(1, 2**k), Fraction(5, 2**k)]))
    den = math.lcm(2**k, s.denominator)
    pad = min(int(s * den), den)
    return den, draw(inflated_edges(den, k, pad, m)), draw(inflated_edges(den, k, pad, n))


def assert_box_bounds_exact(P, den, xs, ys, product, dtype):
    (x0, x1), (y0, y1) = ([np.array(v, dtype=dtype) for v in e] for e in (xs, ys))
    if product:
        lo, hi, scale = box_bounds(P, x0[:, None], x1[:, None], y0[None, :], y1[None, :], den)
        assert lo.shape == hi.shape == (x0.size, y0.size)
        pairs = [(a, b) for a in range(x0.size) for b in range(y0.size)]
    else:
        size = min(x0.size, y0.size)
        lo, hi, scale = box_bounds(P, x0[:size], x1[:size], y0[:size], y1[:size], den)
        assert lo.shape == hi.shape == (size,)
        pairs = [(a, a) for a in range(size)]
    for (a, b), l, h in zip(pairs, lo.ravel().tolist(), hi.ravel().tolist()):
        rect = Rect(*(Fraction(int(v), den) for v in (x0[a], x1[a], y0[b], y1[b])))
        iv = interval_range(P, rect)
        assert (Fraction(l, scale), Fraction(h, scale)) == (iv.lo, iv.hi)
    return lo


@settings(max_examples=300, deadline=None)
@given(polys(), box_batches(), st.booleans(), st.sampled_from([np.int64, object]))
def test_box_bounds_equal_interval_range(P, batch, product, dtype):
    assert_box_bounds_exact(P, *batch, product, dtype)


@pytest.mark.parametrize(
    "text, den, dtype",
    [
        # sum|c| * max(1, |corner|)^deg * den^(deg - i - j) stays below 2^63
        ("x^2*y - 3/2*x + 1/3", 2**10, np.int64),
        ("(x - y)^3 - 1/5", 3 * 2**15, np.int64),
        # degree 8 at den = 3 * 2^40 needs Python ints
        ("x + y - 1/16*(x^2 + y^2)^4 + 3/7", 3 * 2**40, object),
        ("x^8", 2**8, object),
    ],
)
def test_box_bounds_int64_and_object_paths(text, den, dtype):
    P = parse_poly(text)
    edges = ([-den, 0, den - 1, 2 * den], [1 - den, 1, den, 3 * den])
    lo = assert_box_bounds_exact(P, den, edges, edges, True, np.int64)
    assert lo.dtype == dtype
    assert assert_box_bounds_exact(P, den, edges, edges, False, object).dtype == dtype


def test_box_bounds_zero_polynomial_and_empty_batch():
    lo, hi, scale = box_bounds(Poly.zero(), np.array([0, 1]), np.array([1, 2]), 0, 5, 4)
    assert lo.tolist() == hi.tolist() == [0, 0] and scale == 1
    empty = np.array([], dtype=np.int64)
    lo, hi, _ = box_bounds(parse_poly("x*y - 1"), empty[:, None], empty[:, None], [[0]], [[1]], 8)
    assert lo.shape == hi.shape == (0, 1)


def reference_evaluate_float(P, point):
    """evaluate_float as it was before the float coefficients were cached."""
    vals = [float(point[v]) for v in P.variables]
    total = 0.0
    for exps, coeff in P.terms.items():
        term = float(coeff)
        for v, e in zip(vals, exps):
            if e:
                term *= v**e
        total += term
    return total


@settings(max_examples=100, deadline=None)
@given(polys(), st.lists(st.tuples(st.floats(-4, 4), st.floats(-4, 4)), min_size=1, max_size=5))
def test_evaluate_float_is_bit_identical_to_reference(P, points):
    # Repeated calls reuse the cached coefficients and must not drift.
    for x, y in points + points:
        point = {"x": x, "y": y}
        assert P.evaluate_float(point).hex() == reference_evaluate_float(P, point).hex()


@settings(max_examples=200, deadline=None)
@given(polys(), st.sampled_from([0, 1, 2**40, 2**70]))
def test_unit_square_range_equals_interval_range(P, factor):
    # factor 0 gives the zero polynomial; 2^70 puts box_bounds on Python ints.
    P = P * factor
    enc = unit_square_range(P)
    assert enc == interval_range(P, Rect.of(0, 1, 0, 1))
    assert type(enc.lo) is type(enc.hi) is Fraction


@settings(max_examples=100, deadline=None)
@given(polys(), st.sampled_from([0, 1, 2**70]))
def test_unit_square_range_is_taken_once_per_polynomial(P, factor):
    P = P * factor
    assert P._unit_range is None
    want = interval_range(P, Rect.of(0, 1, 0, 1))
    with mock.patch.object(polyexpr, "box_bounds", wraps=box_bounds) as spy:
        assert unit_square_range(P) == unit_square_range(P) == want
    assert spy.call_count == 1
    for built in (P + P, P - 1, P * P, -P, P**2, P.partial("x"), P.partial("y")):
        assert built._unit_range is None
