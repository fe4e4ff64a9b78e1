"""Unit and property tests for the exact polynomial layer."""

import math
import operator
import random
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from explab import gridset, polyexpr
from explab.gridset import box_bounds
from explab.polyexpr import (
    VARS2,
    VARS4,
    ExpressionError,
    Interval,
    Poly,
    Rect,
    Reason,
    Verdict,
    classify_special_form,
    hf_general,
    hf_poly,
    interval_range,
    mp_numerator,
    parse_poly,
    read_float,
    read_fraction,
    read_int,
    unit_square_range,
)

X = parse_poly("x")
Y = parse_poly("y")


def poly2_to_poly4(P: Poly, primed: bool) -> Poly:
    """Embed a bivariate polynomial into (x, xp, y, yp).

    primed=False maps (x, y) onto (x, y); primed=True onto (xp, yp).
    """
    if P.variables != VARS2:
        raise ValueError("embedding takes a bivariate polynomial")
    out = {}
    for (i, j), coeff in P.terms.items():
        key = (0, i, 0, j) if primed else (i, 0, j, 0)
        out[key] = coeff
    return Poly(VARS4, out)


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


NUMBER_READERS = [(read_int, int, " -12 "), (read_float, float, "+5e-1"), (read_fraction, Fraction, " 3/8 ")]


@pytest.mark.parametrize("read, convert, text", NUMBER_READERS)
def test_number_readers_read_what_their_converter_reads(read, convert, text):
    assert read(text) == convert(text) and type(read(text)) is type(convert(text))
    assert read.__name__ == convert.__name__  # argparse names a refused option's type by it


@pytest.mark.parametrize("read", [read_int, read_float, read_fraction])
@pytest.mark.parametrize("text", ["1_0", "\uff11", "\u0661", "1\u00a0", "\u00b2"])
def test_number_readers_refuse_underscores_and_non_ascii(read, text):
    with pytest.raises(ValueError, match=f"^not an ASCII number: {re.escape(repr(text))}$"):
        read(text)


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
    order, with nonzero Fraction coefficients only, and stores them as
    nonzero int numerators over a positive denominator in lowest terms."""
    assert P == Poly(P.variables, expected)
    assert list(P.terms) == list(expected) == list(P.num)
    assert all(type(c) is Fraction and c != 0 for c in P.terms.values())
    assert all(type(e) is tuple and len(e) == len(P.variables) for e in P.terms)
    assert all(type(c) is int and c != 0 for c in P.num.values())
    assert type(P.den) is int and P.den > 0 and math.gcd(P.den, *P.num.values()) == 1


small_coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)


@st.composite
def poly_pairs(draw):
    """Two polynomials over (x, y) or (x, xp, y, yp), each with its
    coefficients scaled by 1, 2^70 or 1/3^40; some terms of the second
    cancel terms of the first."""
    variables = draw(st.sampled_from([VARS2, ("x", "xp", "y", "yp")]))
    monomials = st.tuples(*[st.integers(0, 3)] * len(variables))
    factors = st.sampled_from([1, 2**70, Fraction(1, 3**40)])
    fp, fq = draw(factors), draw(factors)
    p = {e: c * fp for e, c in draw(st.dictionaries(monomials, small_coefficients, max_size=5)).items()}
    q = {e: c * fq for e, c in draw(st.dictionaries(monomials, small_coefficients, max_size=4)).items()}
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


# Poly's arithmetic as it was when Poly stored Fraction term maps, kept
# verbatim apart from the names: sums, differences, negation and partials
# on Fractions, products on integer numerators with one Fraction per term.


def reference_numerators(P):
    """The lcm of P's coefficient denominators, and P's numerators over it."""
    den = math.lcm(*(c.denominator for c in P.terms.values()))
    return den, {e: c.numerator * (den // c.denominator) for e, c in P.terms.items()}


def reference_convolve(a, b):
    """The product of two term maps."""
    out = {}
    get = out.get
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(map(operator.add, e1, e2))
            out[key] = get(key, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def reference_subtract(a, b):
    """a - b on term maps."""
    out = dict(a)
    get = out.get
    for e, c in b.items():
        out[e] = get(e, 0) - c
    return {e: c for e, c in out.items() if c}


def reference_derive(a, idx):
    """d/d(variable idx); distinct terms keep distinct exponents, so no zeros."""
    out = {}
    for exps, coeff in a.items():
        e = exps[idx]
        if e:
            out[exps[:idx] + (e - 1,) + exps[idx + 1 :]] = coeff * e
    return out


class ReferencePoly:
    """Poly on Fraction term maps: the constructor, the constructors of
    constants and variables, the operators and partial."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms):
        self.variables = tuple(variables)
        clean = {}
        for exps, coeff in terms.items():
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(self.variables) or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps!r}")
            clean[exps] = coeff
        self.terms = clean

    @classmethod
    def _from_terms(cls, variables, terms):
        poly = object.__new__(cls)
        poly.variables = variables
        poly.terms = terms
        return poly

    @classmethod
    def constant(cls, value, variables=VARS2):
        return cls(variables, {(0,) * len(variables): Fraction(value)})

    @classmethod
    def variable(cls, name, variables=VARS2):
        if name not in variables:
            raise ValueError(f"unknown variable {name!r}")
        exps = [0] * len(variables)
        exps[tuple(variables).index(name)] = 1
        return cls(variables, {tuple(exps): Fraction(1)})

    def _coerce(self, other):
        if isinstance(other, ReferencePoly):
            if other.variables != self.variables:
                raise ValueError("mixed variable signatures")
            return other
        return ReferencePoly.constant(other, self.variables)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            out[exps] = out.get(exps, 0) + coeff
        return ReferencePoly._from_terms(self.variables, {e: c for e, c in out.items() if c})

    __radd__ = __add__

    def __neg__(self):
        return ReferencePoly._from_terms(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return ReferencePoly._from_terms(self.variables, reference_subtract(self.terms, self._coerce(other).terms))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        den_a, a = reference_numerators(self)
        den_b, b = reference_numerators(self._coerce(other))
        scale = den_a * den_b
        return ReferencePoly._from_terms(
            self.variables, {e: Fraction(c, scale) for e, c in reference_convolve(a, b).items()}
        )

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers take non-negative integers")
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return ReferencePoly.constant(1, self.variables) if result is None else result

    def partial(self, variable, order=1):
        if variable not in self.variables:
            raise ValueError(f"variable {variable!r} not in {self.variables}")
        if order < 1:
            raise ValueError("derivative order must be a positive integer")
        idx = self.variables.index(variable)
        terms = self.terms
        for _ in range(order):
            terms = reference_derive(terms, idx)
        return ReferencePoly._from_terms(self.variables, terms)


@settings(max_examples=200, deadline=None)
@given(
    poly_pairs(),
    st.integers(0, 4),
    st.sampled_from([0, -3, 2**70, Fraction(-5, 3**40)]),
    st.lists(st.tuples(*[st.floats(-4, 4)] * 4), min_size=1, max_size=3),
)
def test_integer_arithmetic_equals_fraction_implementation(pair, n, m, points):
    P, Q = pair
    RP, RQ = (ReferencePoly(A.variables, A.terms) for A in pair)
    cases = [
        (P + Q, RP + RQ), (P - Q, RP - RQ), (-Q, -RQ), (P * Q, RP * RQ), (P**n, RP**n),
        (P + m, RP + m), (m - P, m - RP), (m * P, m * RP), (Q - P * Q, RQ - RP * RQ),
    ]
    cases += [(P.partial(v, order), RP.partial(v, order)) for v in P.variables for order in (1, 2)]
    for got, want in cases:
        assert_canonical(got, want.terms)
        assert str(got) == reference_str(want)
        assert (got == P, got == Q) == (want.terms == RP.terms, want.terms == RQ.terms)
        for values in points:
            point = dict(zip(P.variables, values))
            assert got.evaluate_float(point).hex() == reference_evaluate_float(want, point).hex()


def test_integer_paths_never_read_the_fraction_view(monkeypatch):
    texts = ["x + y + 3/4*(x^2 + y^2)^2", "-(1/3*x - 2/9*y)^3*(x + 1) + 5/6", "x^2*y - 1/2"]
    expected = [reference_str(reference_parse_poly(text)) for text in texts]
    expected_hf = [reference_str(reference_hf_poly(parse_poly(text))) for text in texts]
    view = Poly.terms

    def forbidden(P):
        raise AssertionError("read Poly.terms")

    monkeypatch.setattr(Poly, "terms", property(forbidden))
    corners = np.array([0, 3]), np.array([1, 8]), np.array([[2]]), np.array([[5]])
    for text, want, want_hf in zip(texts, expected, expected_hf):
        P = parse_poly(text)
        P.partial("x", 2), mp_numerator(P), classify_special_form(P), box_bounds((P,), *corners, 8)
        box_bounds((P, P.partial("y")), *corners, 8)
        assert str(P) == str(P) == want and str(hf_poly(P)) == want_hf
    hf_general(parse_poly("(x - xp)*(y + 1/2*yp)^2", 4))
    monkeypatch.setattr(Poly, "terms", view)
    # The view itself is built once, on the first read.
    P = parse_poly(texts[1])
    assert P._terms is None and P.terms is P.terms


# The parser as it was when it evaluated on Fraction Poly objects, kept
# verbatim on ReferencePoly as the oracle for parse_poly: every "+", "-",
# "*" and "^" builds a Fraction polynomial through ReferencePoly's operators.


class ReferenceParser:
    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, value, at = self.peek()
        if kind != "op" or value != op:
            raise ExpressionError(f"expected {op!r}", at)
        return self.advance()

    def parse(self):
        poly = self.expr()
        kind, value, at = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected {value!r}", at)
        return poly

    def expr(self):
        kind, value, _ = self.peek()
        negate = kind == "op" and value == "-"
        if negate:
            self.advance()
        poly = self.term()
        if negate:
            poly = -poly
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                poly = poly + rhs if value == "+" else poly - rhs
            else:
                return poly

    def term(self):
        poly = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                poly = poly * self.factor()
            else:
                return poly

    def factor(self):
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, at = self.peek()
            if kind != "int":
                raise ExpressionError("exponent must be a non-negative integer", at)
            self.advance()
            exponent = value
            kind, nxt, at = self.peek()
            if kind == "op" and nxt == "/":
                raise ExpressionError("exponent must be a non-negative integer", at)
            return base**exponent
        return base

    def atom(self):
        kind, value, at = self.advance()
        if kind == "int":
            numerator = value
            kind, nxt, _ = self.peek()
            if kind == "op" and nxt == "/":
                self.advance()
                kind, den, dat = self.peek()
                if kind != "int":
                    raise ExpressionError("expected integer denominator", dat)
                if den == 0:
                    raise ExpressionError("zero denominator", dat)
                self.advance()
                return ReferencePoly.constant(Fraction(numerator, den), self.variables)
            return ReferencePoly.constant(numerator, self.variables)
        if kind == "ident":
            if value not in self.variables:
                raise ExpressionError(f"unknown identifier {value!r}", at)
            return ReferencePoly.variable(value, self.variables)
        if kind == "op" and value == "(":
            poly = self.expr()
            self.expect_op(")")
            return poly
        raise ExpressionError("syntax error", at)


def reference_parse_poly(text: str, arity: int = 2) -> ReferencePoly:
    if arity == 2:
        variables = VARS2
    elif arity == 4:
        variables = VARS4
    else:
        raise ValueError("arity must be 2 or 4")
    return ReferenceParser(polyexpr._tokenize(text), variables).parse()


def parse_outcome(parse, text, arity):
    """The terms, in order, or the error text and offset."""
    try:
        return list(parse(text, arity).terms.items())
    except ExpressionError as exc:
        return str(exc), exc.position


literals = st.one_of(
    st.integers(0, 12).map(str),
    st.tuples(st.integers(0, 20), st.integers(1, 9)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.sampled_from(["1180591620717411303424", "1/3486784401", "0/7", "012"]),
)


@st.composite
def expression_texts(draw, names, depth=4):
    """Expression text of at most depth nested operators over the
    variables names: sums, differences, products, powers (^0 included),
    unary minus and differences of equal subexpressions, which cancel."""
    if depth == 0 or draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(names)) if draw(st.booleans()) else draw(literals)
    inner = expression_texts(names, depth - 1)
    kind = draw(st.sampled_from(["sum", "product", "power", "negate", "cancel"]))
    if kind == "sum":
        return f"{draw(inner)} {draw(st.sampled_from('+-'))} {draw(inner)}"
    if kind == "product":
        return f"({draw(inner)})*({draw(inner)})" if draw(st.booleans()) else f"{draw(inner)}*{draw(inner)}"
    if kind == "power":
        return f"({draw(inner)})^{draw(st.integers(0, 3))}"
    if kind == "negate":
        return f"(-{draw(inner)})"
    same = draw(inner)
    return f"({same}) - ({same})"


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 4]), st.data())
def test_parse_poly_equals_fraction_reference(arity, data):
    names = VARS2 if arity == 2 else VARS4
    text = data.draw(expression_texts(names))
    if data.draw(st.booleans()):
        text = "-" + text
    P = parse_poly(text, arity)
    assert P.variables == names
    assert_canonical(P, reference_parse_poly(text, arity).terms)


@pytest.mark.parametrize(
    "text, arity",
    [
        ("(x + 1)*(y + 2)", 2),
        ("(y + 2)*(x + 1)*(x - y)", 2),
        ("(x + 1/2*y)^3", 2),
        ("(x - y + 1)^5 - 2/3*x*y", 2),
        ("-(xp + 2*yp)*(x - 1)^2 + (y*yp - 1/5)^2", 4),
    ],
)
def test_parse_poly_keeps_the_product_and_power_term_order(text, arity):
    assert_canonical(parse_poly(text, arity), reference_parse_poly(text, arity).terms)


def test_parse_poly_cancels_to_zero_and_takes_zero_powers():
    for text in ("x - x", "(x + 1/2*y)^2 - (x + 1/2*y)*(x + 1/2*y)", "0*x^3", "0/5", "-(y - y)^0 + 1"):
        assert parse_poly(text).terms == {} == reference_parse_poly(text).terms
    for text in ("(x - x)^0", "x^0", "((x + y)^2)^0", "(0)^0"):
        assert_canonical(parse_poly(text), {(0, 0): Fraction(1)})
    assert_canonical(parse_poly("((x - 1/2)^2)^3", 4), reference_parse_poly("((x - 1/2)^2)^3", 4).terms)


MALFORMED = [
    "", " ", "x +", "+ x", "x + + y", "x^", "x^y", "x^-1", "x^1/2", "x^(1/2)", "1/0", "1/", "1/x",
    "(x", "x)", "()", "2x", "x y", "x & y", "z", "3^2^2", "--x", "x*-y", "1/2/3", "x^2.5", "é",
]


@pytest.mark.parametrize("arity", [2, 4])
@pytest.mark.parametrize("text", MALFORMED)
def test_parse_poly_errors_equal_reference(text, arity):
    message, offset = parse_outcome(parse_poly, text, arity)
    assert (message, offset) == parse_outcome(reference_parse_poly, text, arity)
    assert message.endswith(f"(at offset {offset})")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 4]), st.text("xyp01/2+-*^() z", max_size=14))
def test_parse_poly_outcome_equals_reference_on_any_text(arity, text):
    assert parse_outcome(parse_poly, text, arity) == parse_outcome(reference_parse_poly, text, arity)


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
# M_P, H_F and printing against their Fraction formulas
# ---------------------------------------------------------------------------
#
# Copies of mp_numerator, hf_poly and Poly.__str__ as they were before the
# library moved them onto integer numerators: Poly arithmetic in Fractions,
# H_F through the four-variable embedding, and Fraction arithmetic per
# printed term.


def reference_mp_numerator(P):
    px = P.partial("x")
    py = P.partial("y")
    pxx = px.partial("x")
    pxy = px.partial("y")
    pyy = py.partial("y")
    pxxy = pxx.partial("y")
    pxyy = pxy.partial("y")
    return py * py * (px * pxxy - pxx * pxy) - px * px * (py * pxyy - pxy * pyy)


def reference_hf_poly(P):
    px = P.partial("x")
    py = P.partial("y")
    pxy = px.partial("y")
    unprimed = poly2_to_poly4(px, False) * poly2_to_poly4(py, False)
    primed = poly2_to_poly4(px, True) * poly2_to_poly4(py, True)
    return unprimed * poly2_to_poly4(pxy, True) - primed * poly2_to_poly4(pxy, False)


def reference_str(P):
    if not P.terms:
        return "0"
    ordered = sorted(
        P.terms.items(),
        key=lambda item: (-sum(item[0]), tuple(-e for e in item[0])),
    )
    pieces = []
    for exps, coeff in ordered:
        mono = "*".join(
            v if e == 1 else f"{v}^{e}"
            for v, e in zip(P.variables, exps)
            if e
        )
        mag = abs(coeff)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        pieces.append(("-" if coeff < 0 else "+", body))
    sign, body = pieces[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


symbolic_coefficients = st.one_of(
    st.sampled_from([Fraction(1), Fraction(-1)]),
    st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(bool),
)


@st.composite
def symbolic_polys(draw):
    """Bivariate polynomials of degree <= 6 in one of four shapes (general,
    x only, y only, a(x) + b(y)), constants and the zero polynomial
    included, with rational coefficients scaled by 1, 2^70 or 1/3^40."""
    shape = draw(st.sampled_from(["general", "x", "y", "split"]))
    degree = draw(st.integers(0, 6))
    monomials = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    if shape == "x":
        monomials = [(i, 0) for i in range(degree + 1)]
    elif shape == "y":
        monomials = [(0, j) for j in range(degree + 1)]
    elif shape == "split":
        monomials = [(i, j) for i, j in monomials if not (i and j)]
    chosen = draw(st.lists(st.sampled_from(monomials), max_size=7, unique=True))
    factor = draw(st.sampled_from([1, 2**70, Fraction(1, 3**40)]))
    return Poly(VARS2, {m: draw(symbolic_coefficients) * factor for m in chosen})


@settings(max_examples=300, deadline=None)
@given(symbolic_polys())
def test_mp_and_hf_equal_fraction_formulas(P):
    mp, hf = mp_numerator(P), hf_poly(P)
    assert_canonical(mp, reference_mp_numerator(P).terms)
    assert_canonical(hf, reference_hf_poly(P).terms)
    assert (mp.variables, hf.variables) == (VARS2, VARS4)
    for built in (P, mp, hf):
        assert str(built) == reference_str(built)


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * 4),
        st.one_of(symbolic_coefficients, st.sampled_from([Fraction(2**70), Fraction(-1, 3**40)])),
        max_size=8,
    )
)
def test_four_variable_printing_equals_reference(terms):
    P = Poly(VARS4, terms)
    assert str(P) == reference_str(P)
    assert parse_poly(str(P), arity=4) == P


def test_hf_poly_rejects_non_bivariate_input():
    with pytest.raises(ValueError, match="hf_poly takes a bivariate polynomial"):
        hf_poly(parse_poly("x*yp", arity=4))


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
        ((lo, hi, scale, err),) = box_bounds((P,), x0[:, None], x1[:, None], y0[None, :], y1[None, :], den)
        assert lo.shape == hi.shape == (x0.size, y0.size)
        pairs = [(a, b) for a in range(x0.size) for b in range(y0.size)]
    else:
        size = min(x0.size, y0.size)
        ((lo, hi, scale, err),) = box_bounds((P,), x0[:size], x1[:size], y0[:size], y1[:size], den)
        assert lo.shape == hi.shape == (size,)
        pairs = [(a, a) for a in range(size)]
    assert err is None
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
    ((lo, hi, scale, _),) = box_bounds((Poly.zero(),), np.array([0, 1]), np.array([1, 2]), 0, 5, 4)
    assert lo.tolist() == hi.tolist() == [0, 0] and scale == 1
    empty = np.array([], dtype=np.int64)
    ((lo, hi, _, _),) = box_bounds((parse_poly("x*y - 1"),), empty[:, None], empty[:, None], [[0]], [[1]], 8)
    assert lo.shape == hi.shape == (0, 1)


def test_box_bounds_returns_at_once_on_empty_batches(monkeypatch):
    def forbidden(*args):
        raise AssertionError("box_bounds did per-term work on an empty batch")

    monkeypatch.setattr(gridset, "_pow_bounds", forbidden)
    monkeypatch.setattr(gridset, "_mul_bounds", forbidden)
    P = parse_poly("x^3*y - 1/3*y^2")
    empty = np.array([], dtype=np.int64)[:, None]
    # The dtype still follows the non-empty corners and the scale.
    for den, y1, dtype in ((8, 8, np.int64), (8, 2**62, object), (2**40, 2**40, object)):
        ((lo, hi, scale, _),) = box_bounds((P,), empty, empty, np.array([[0]]), np.array([[y1]]), den)
        assert lo.shape == hi.shape == (0, 1) and lo.dtype == hi.dtype == dtype
        assert scale == 3 * den**4
    ((lo, hi, scale, _),) = box_bounds((P,), 0, 8, empty.T, empty.T, 8)
    assert lo.shape == (1, 0) and lo.dtype == np.int64 and scale == 3 * 8**4


@st.composite
def joint_batches(draw):
    """1-4 polynomials (constants and the zero polynomial included, some
    scaled past the int64 cliff) and one batch of signed rectangles for
    all of them: (m, 1) x (1, n), flat, or empty."""
    scaled = st.builds(operator.mul, polys(), st.sampled_from([0, 1, 2**40, 2**70]))
    ps = draw(st.lists(scaled, min_size=1, max_size=4))
    den = draw(st.sampled_from([1, 3, 2**7, 3 * 2**20, 2**40]))
    m, n = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    (x0, x1), (y0, y1) = (np.array(draw(signed_edges(den, size)), dtype=np.int64) for size in (m, n))
    if draw(st.booleans()):
        return ps, (x0[:, None], x1[:, None], y0[None, :], y1[None, :], den)
    size = min(m, n)
    return ps, (x0[:size], x1[:size], y0[:size], y1[:size], den)


def assert_joint_equals_each(ps, corners, filtered=False):
    got = box_bounds(ps, *corners, filtered=filtered)
    assert len(got) == len(ps)
    for P, (lo, hi, scale, err) in zip(ps, got):
        ((want_lo, want_hi, want_scale, want_err),) = box_bounds((P,), *corners, filtered=filtered)
        assert (scale, err) == (want_scale, want_err)
        for a, b in ((lo, want_lo), (hi, want_hi)):
            assert (a.dtype, a.shape) == (b.dtype, b.shape) and a.tolist() == b.tolist()
    return [lo.dtype for lo, *_ in got]


@settings(max_examples=300, deadline=None)
@given(joint_batches(), st.booleans())
def test_box_bounds_of_several_polynomials_equal_one_call_each(batch, filtered):
    assert_joint_equals_each(*batch, filtered)


@pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0), (1, 0, 2)])
def test_box_bounds_of_several_polynomials_mix_int64_and_python_int_tables(order):
    # x^2*y - 1/3 fits int64 at den 2^8; x^8 and 2^70*x do not.
    texts = ["x^2*y - 1/3", "x^8", "2^70*x + y"]
    ps = [parse_poly(texts[n]) for n in order]
    edges = np.array([-256, 0, 255, 512]), np.array([-255, 1, 256, 768])
    corners = (edges[0][:, None], edges[1][:, None], edges[0][None, :], edges[1][None, :], 256)
    dtypes = assert_joint_equals_each(ps, corners)
    assert dtypes == [np.int64 if n == 0 else object for n in order]
    assert box_bounds([], *corners) == []


@st.composite
def nonneg_batches(draw):
    """A polynomial of degree <= 12 and (m, 1) x (1, n) boxes with
    corners in [0, 4 den], den = 2^k or 3 * 2^k: box_bounds on int64 or on
    Python ints, and every magnitude bound far below 2^1000."""
    degree = draw(st.integers(0, 12))
    monomials = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    chosen = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=6, unique=True))
    P = Poly(VARS2, {m: draw(coefficients) for m in chosen})
    den = draw(st.sampled_from([1, 3])) * 2 ** draw(st.integers(0, 40))
    edges = []
    for _ in "xy":
        starts = draw(st.lists(st.integers(0, 3 * den), min_size=1, max_size=4))
        widths = draw(st.lists(st.integers(0, den), min_size=len(starts), max_size=len(starts)))
        edges.append((np.array(starts), np.array(starts) + np.array(widths)))
    (x0, x1), (y0, y1) = edges
    return P, (x0[:, None], x1[:, None], y0[None, :], y1[None, :], den)


@settings(max_examples=300, deadline=None)
@given(nonneg_batches())
def test_filtered_box_bounds_within_err_of_box_bounds(batch):
    P, corners = batch
    ((lo, hi, scale, _),) = box_bounds((P,), *corners)
    ((f_lo, f_hi, f_scale, err),) = box_bounds((P,), *corners, filtered=True)
    assert f_scale == scale
    # Floats stand in for exactly the Python-int tables here.
    assert (err is None) == (lo.dtype == np.int64)
    if err is None:
        assert f_lo.dtype == np.int64 and np.array_equal(f_lo, lo) and np.array_equal(f_hi, hi)
        return
    assert f_lo.dtype == f_hi.dtype == np.float64 and f_lo.shape == lo.shape
    exact = lo.ravel().tolist() + hi.ravel().tolist()
    approx = f_lo.ravel().tolist() + f_hi.ravel().tolist()
    assert all(abs(Fraction(f) - e) <= Fraction(err) for e, f in zip(exact, approx))


@pytest.mark.parametrize(
    "text, den, low, floats",
    [
        ("x + y - 1/16*(x^2 + y^2)^4 + 3/7", 2**30, 0, True),
        # A negative corner, a magnitude bound of 2^1050 and an int64 table
        # keep box_bounds' own ends.
        ("x + y - 1/16*(x^2 + y^2)^4 + 3/7", 2**30, -1, False),
        ("x^35 + y", 2**30, 0, False),
        ("x^2*y - 3/2*x + 1/3", 2**10, 0, False),
    ],
)
def test_filtered_box_bounds_takes_floats_only_where_proven(text, den, low, floats):
    P = parse_poly(text)
    x0 = np.array([low, 0, den - 1])[:, None]
    corners = (x0, x0 + 1, x0.T, x0.T + 1, den)
    ((lo, hi, scale, _),) = box_bounds((P,), *corners)
    ((f_lo, f_hi, f_scale, err),) = box_bounds((P,), *corners, filtered=True)
    assert (err is not None, f_lo.dtype == np.float64) == (floats, floats)
    if not floats:
        assert f_lo.dtype == lo.dtype and np.array_equal(f_lo, lo) and np.array_equal(f_hi, hi)


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


def reference_unit_square_range(P):
    """unit_square_range summed over the Fraction coefficients."""
    const = P.terms.get((0, 0), Fraction(0))
    rest = [c for e, c in P.terms.items() if e != (0, 0)]
    return Interval(const + sum(c for c in rest if c < 0), const + sum(c for c in rest if c > 0))


@settings(max_examples=300, deadline=None)
@given(polys(), st.sampled_from([0, 1, Fraction(1, 3), Fraction(-7, 2**40), 2**70]))
def test_unit_square_range_equals_fraction_sums(P, factor):
    P = P * factor
    got, want = unit_square_range(P), reference_unit_square_range(P)
    assert (got.lo, got.hi) == (want.lo, want.hi)
    assert type(got.lo) is type(got.hi) is Fraction


@settings(max_examples=100, deadline=None)
@given(polys(), st.sampled_from([0, 1, 2**70]))
def test_unit_square_range_takes_no_interval_range(P, factor):
    P = P * factor
    want = interval_range(P, Rect.of(0, 1, 0, 1))
    with mock.patch.object(polyexpr, "interval_range", wraps=interval_range) as spy:
        assert unit_square_range(P) == want
    assert spy.call_count == 0
