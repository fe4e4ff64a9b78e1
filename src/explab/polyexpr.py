"""Exact sparse polynomial arithmetic, expression parsing, and the
special-form / expander dichotomy for bivariate polynomials.

A polynomial is a dictionary from exponent tuples to nonzero Fraction
coefficients, so every symbolic decision ("does this polynomial vanish
identically?") is exact.  Two variable signatures are supported:

  * bivariate, variables (x, y);
  * four-variable, variables (x, xp, y, yp), where xp and yp are the
    second copies of x and y used when counting value collisions
    P(x, y) = P(xp, yp).

The dichotomy test works through the degeneracy numerator

  M_P = (P_y)^2 (P_x P_xxy - P_xx P_xy) - (P_x)^2 (P_y P_xyy - P_xy P_yy),

which equals (P_x P_y)^2 * d^2/dxdy log(P_x/P_y) wherever the latter is
defined.  A bivariate polynomial with P_x, P_y, P_xy not identically zero
is locally of the shape h(a(x) + b(y)) exactly when M_P is the zero
polynomial; otherwise image sets P(A, B) grow and M_P is the witness.

The module also provides sound interval enclosures of polynomial ranges
on axis-aligned rational boxes (per-monomial interval products, exact
rational endpoints), which the grid measurements build on: interval_range
on one box in Fractions, and box_bounds, the same enclosure of a
bivariate polynomial on whole arrays of rectangles in exact integers, of
which unit_square_range takes the unit square.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Tuple, Union

import numpy as np

VARS2 = ("x", "y")
VARS4 = ("x", "xp", "y", "yp")

Coefficient = Union[int, Fraction]


class ExpressionError(ValueError):
    """Malformed expression text; ``position`` is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class Poly:
    """Sparse exact-rational polynomial over a fixed variable tuple.

    The term map is canonical: no zero coefficients are stored, so two
    instances represent the same polynomial exactly when their variables
    and term dictionaries are equal.  Instances are immutable by
    convention; all arithmetic returns new objects.  The constructor
    validates and canonicalises the terms; arithmetic and partial
    derivatives, whose results are canonical already, use _from_terms.
    """

    __slots__ = ("variables", "terms", "_float_terms", "_unit_range")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple, Coefficient]):
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
        self._float_terms = None
        self._unit_range = None

    @classmethod
    def _from_terms(cls, variables: Tuple[str, ...], terms: dict) -> "Poly":
        """The polynomial of a canonical term map (exponent tuples of the
        right length to nonzero Fractions), which it keeps unchecked."""
        poly = object.__new__(cls)
        poly.variables = variables
        poly.terms = terms
        poly._float_terms = None
        poly._unit_range = None
        return poly

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str] = VARS2) -> "Poly":
        return cls(variables, {})

    @classmethod
    def constant(cls, value: Coefficient, variables: Sequence[str] = VARS2) -> "Poly":
        return cls(variables, {(0,) * len(variables): Fraction(value)})

    @classmethod
    def variable(cls, name: str, variables: Sequence[str] = VARS2) -> "Poly":
        if name not in variables:
            raise ValueError(f"unknown variable {name!r}")
        exps = [0] * len(variables)
        exps[tuple(variables).index(name)] = 1
        return cls(variables, {tuple(exps): Fraction(1)})

    # -- basic queries ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> Optional[int]:
        """Total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __ne__(self, other) -> bool:
        return not self.__eq__(other)

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.variables != self.variables:
                raise ValueError("mixed variable signatures")
            return other
        return Poly.constant(other, self.variables)

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            out[exps] = out.get(exps, 0) + coeff
        return Poly._from_terms(self.variables, {e: c for e, c in out.items() if c})

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._from_terms(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Poly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Poly":
        other = self._coerce(other)
        if not self.terms or not other.terms:
            return Poly.zero(self.variables)
        # Clear denominators so the convolution runs in plain integers;
        # one exact division per output term restores the rationals.
        den_a = math.lcm(*(c.denominator for c in self.terms.values()))
        den_b = math.lcm(*(c.denominator for c in other.terms.values()))
        ints_a = [(e, c.numerator * (den_a // c.denominator)) for e, c in self.terms.items()]
        ints_b = [(e, c.numerator * (den_b // c.denominator)) for e, c in other.terms.items()]
        out: dict = {}
        get = out.get
        for e1, c1 in ints_a:
            for e2, c2 in ints_b:
                key = tuple(map(operator.add, e1, e2))
                out[key] = get(key, 0) + c1 * c2
        scale = den_a * den_b
        return Poly._from_terms(self.variables, {e: Fraction(c, scale) for e, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers take non-negative integers")
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return Poly.constant(1, self.variables) if result is None else result

    # -- calculus -----------------------------------------------------

    def partial(self, variable: str, order: int = 1) -> "Poly":
        """Exact formal partial derivative of the given order (>= 1)."""
        if variable not in self.variables:
            raise ValueError(f"variable {variable!r} not in {self.variables}")
        if order < 1:
            raise ValueError("derivative order must be a positive integer")
        idx = self.variables.index(variable)
        terms = self.terms
        for _ in range(order):
            nxt: dict = {}
            for exps, coeff in terms.items():
                e = exps[idx]
                if e == 0:
                    continue
                # Distinct terms keep distinct exponents: no sums, no zeros.
                nxt[exps[:idx] + (e - 1,) + exps[idx + 1 :]] = coeff * e
            terms = nxt
        return Poly._from_terms(self.variables, terms)

    # -- evaluation ---------------------------------------------------

    def evaluate(self, point: Mapping[str, Coefficient]) -> Fraction:
        """Exact evaluation at a rational point."""
        vals = [Fraction(point[v]) for v in self.variables]
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(vals, exps):
                if e:
                    term *= v**e
            total += term
        return total

    def evaluate_float(self, point: Mapping[str, float]) -> float:
        if self._float_terms is None:
            # Converted once per polynomial; the terms are never mutated.
            self._float_terms = [(exps, float(c)) for exps, c in self.terms.items()]
        vals = [float(point[v]) for v in self.variables]
        total = 0.0
        for exps, term in self._float_terms:
            for v, e in zip(vals, exps):
                if e:
                    term *= v**e
            total += term
        return total

    # -- printing -----------------------------------------------------

    def __str__(self) -> str:
        """Canonical form: graded-lex term order, rationals as a/b."""
        if not self.terms:
            return "0"
        ordered = sorted(
            self.terms.items(),
            key=lambda item: (-sum(item[0]), tuple(-e for e in item[0])),
        )
        pieces = []
        for exps, coeff in ordered:
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.variables, exps)
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

    def __repr__(self) -> str:
        return f"Poly({self.variables!r}, {str(self)!r})"


# ---------------------------------------------------------------------------
# Expression parsing
# ---------------------------------------------------------------------------
#
# Grammar (no implicit multiplication, '^' takes non-negative integers,
# '/' appears only inside rational literals a/b):
#
#   expr    = [ "-" ] term { ("+" | "-") term }
#   term    = factor { "*" factor }
#   factor  = atom [ "^" integer ]
#   atom    = number | identifier | "(" expr ")"
#   number  = integer [ "/" integer ]


_OPERATORS = set("+-*^()/")


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        if ch in _OPERATORS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ExpressionError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
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

    def parse(self) -> Poly:
        poly = self.expr()
        kind, value, at = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected {value!r}", at)
        return poly

    def expr(self) -> Poly:
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

    def term(self) -> Poly:
        poly = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                poly = poly * self.factor()
            else:
                return poly

    def factor(self) -> Poly:
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

    def atom(self) -> Poly:
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
                return Poly.constant(Fraction(numerator, den), self.variables)
            return Poly.constant(numerator, self.variables)
        if kind == "ident":
            if value not in self.variables:
                raise ExpressionError(f"unknown identifier {value!r}", at)
            return Poly.variable(value, self.variables)
        if kind == "op" and value == "(":
            poly = self.expr()
            self.expect_op(")")
            return poly
        raise ExpressionError("syntax error", at)


def parse_poly(text: str, arity: int = 2) -> Poly:
    """Parse expression text into a canonical polynomial.

    arity 2 admits identifiers x, y; arity 4 additionally admits xp, yp.
    Raises ExpressionError (with a 0-based offset) on malformed input.
    """
    if arity == 2:
        variables = VARS2
    elif arity == 4:
        variables = VARS4
    else:
        raise ValueError("arity must be 2 or 4")
    return _Parser(_tokenize(text), variables).parse()


# ---------------------------------------------------------------------------
# The dichotomy test and its four-variable companion
# ---------------------------------------------------------------------------


class Verdict(Enum):
    SPECIAL_FORM = "SpecialForm"
    EXPANDER = "Expander"


class Reason(Enum):
    PX_IDENTICALLY_ZERO = "PxIdenticallyZero"
    PY_IDENTICALLY_ZERO = "PyIdenticallyZero"
    PXY_IDENTICALLY_ZERO_AND_MP_ZERO = "PxyIdenticallyZeroAndMPZero"
    MP_IDENTICALLY_ZERO = "MPIdenticallyZero"
    MP_NONZERO = "MPNonzero"


@dataclass(frozen=True)
class Classification:
    verdict: Verdict
    reason: Reason
    witness: Optional[Poly] = None


def mp_numerator(P: Poly) -> Poly:
    """The degeneracy numerator M_P, exactly.

    M_P = (P_y)^2 (P_x P_xxy - P_xx P_xy) - (P_x)^2 (P_y P_xyy - P_xy P_yy).
    It vanishes identically iff the mixed-log expression
    d^2/dxdy log(P_x/P_y) does, which is the special-form criterion.
    """
    if P.variables != VARS2:
        raise ValueError("mp_numerator takes a bivariate polynomial")
    px = P.partial("x")
    py = P.partial("y")
    pxx = px.partial("x")
    pxy = px.partial("y")
    pyy = py.partial("y")
    pxxy = pxx.partial("y")
    pxyy = pxy.partial("y")
    return py * py * (px * pxxy - pxx * pxy) - px * px * (py * pxyy - pxy * pyy)


def classify_special_form(P: Poly) -> Classification:
    """Decide the dichotomy: special form h(a(x)+b(y)) versus expander.

    Degenerate inputs (the zero polynomial, constants, functions of one
    variable) are special forms via the vanishing-gradient clauses.  If
    P_xy vanishes identically the polynomial splits as a(x) + b(y), and
    both bracketed factors of M_P vanish with P_xy, so M_P is not
    computed.  The expander verdict carries the nonzero M_P as witness.
    """
    if P.variables != VARS2:
        raise ValueError("classify_special_form takes a bivariate polynomial")
    px = P.partial("x")
    if px.is_zero:
        return Classification(Verdict.SPECIAL_FORM, Reason.PX_IDENTICALLY_ZERO)
    py = P.partial("y")
    if py.is_zero:
        return Classification(Verdict.SPECIAL_FORM, Reason.PY_IDENTICALLY_ZERO)
    if px.partial("y").is_zero:
        return Classification(Verdict.SPECIAL_FORM, Reason.PXY_IDENTICALLY_ZERO_AND_MP_ZERO)
    mp = mp_numerator(P)
    if mp.is_zero:
        return Classification(Verdict.SPECIAL_FORM, Reason.MP_IDENTICALLY_ZERO)
    return Classification(Verdict.EXPANDER, Reason.MP_NONZERO, witness=mp)


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


def hf_poly(P: Poly) -> Poly:
    """H_F for F(x, xp, y, yp) = P(x, y) - P(xp, yp), exactly.

    H_F = P_x(x,y) P_y(x,y) P_xy(xp,yp) - P_x(xp,yp) P_y(xp,yp) P_xy(x,y).
    """
    px = P.partial("x")
    py = P.partial("y")
    pxy = px.partial("y")
    unprimed = poly2_to_poly4(px, False) * poly2_to_poly4(py, False)
    primed = poly2_to_poly4(px, True) * poly2_to_poly4(py, True)
    return unprimed * poly2_to_poly4(pxy, True) - primed * poly2_to_poly4(pxy, False)


def hf_general(F: Poly) -> Poly:
    """The four-term transversality bracket of a four-variable polynomial.

    H_F = F_x F_yp F_xpy - F_x F_y F_xpyp - F_xp F_yp F_xy + F_xp F_y F_xyp.
    For F = P(x,y) - P(xp,yp) this reduces to hf_poly(P).
    """
    if F.variables != VARS4:
        raise ValueError("hf_general takes a four-variable polynomial")
    fx = F.partial("x")
    fxp = F.partial("xp")
    fy = F.partial("y")
    fyp = F.partial("yp")
    fxpy = fxp.partial("y")
    fxpyp = fxp.partial("yp")
    fxy = fx.partial("y")
    fxyp = fx.partial("yp")
    return fx * fyp * fxpy - fx * fy * fxpyp - fxp * fyp * fxy + fxp * fy * fxyp


# ---------------------------------------------------------------------------
# Interval enclosures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """Closed interval with exact rational endpoints, lo <= hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    @staticmethod
    def point(value: Coefficient) -> "Interval":
        value = Fraction(value)
        return Interval(value, value)

    def contains(self, value: Coefficient) -> bool:
        return self.lo <= value <= self.hi

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def width(self) -> Fraction:
        return self.hi - self.lo

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(products), max(products))

    def scaled(self, c: Coefficient) -> "Interval":
        c = Fraction(c)
        if c >= 0:
            return Interval(self.lo * c, self.hi * c)
        return Interval(self.hi * c, self.lo * c)

    def pow(self, n: int) -> "Interval":
        if n < 0:
            raise ValueError("interval powers take non-negative integers")
        if n == 0:
            return Interval.point(1)
        lo_pow = self.lo**n
        hi_pow = self.hi**n
        if n % 2 == 1:
            return Interval(lo_pow, hi_pow)
        if self.lo >= 0:
            return Interval(lo_pow, hi_pow)
        if self.hi <= 0:
            return Interval(hi_pow, lo_pow)
        return Interval(Fraction(0), max(lo_pow, hi_pow))

    def abs_interval(self) -> "Interval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return Interval(-self.hi, -self.lo)
        return Interval(Fraction(0), max(-self.lo, self.hi))

    def sup_abs(self) -> Fraction:
        return max(abs(self.lo), abs(self.hi))


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle with exact rational corners."""

    x0: Fraction
    x1: Fraction
    y0: Fraction
    y1: Fraction

    def __post_init__(self):
        if self.x0 > self.x1 or self.y0 > self.y1:
            raise ValueError("empty rectangle")

    @staticmethod
    def of(x0, x1, y0, y1) -> "Rect":
        return Rect(Fraction(x0), Fraction(x1), Fraction(y0), Fraction(y1))

    def x_interval(self) -> Interval:
        return Interval(self.x0, self.x1)

    def y_interval(self) -> Interval:
        return Interval(self.y0, self.y1)


def interval_range(P: Poly, cell: Rect) -> Interval:
    """Sound enclosure of a bivariate polynomial's range on a rectangle.

    Per-monomial interval products with exact rational endpoints; the
    enclosure contains the true range and its width shrinks to zero with
    the rectangle (over-approximation from monomial decorrelation only).
    """
    if P.variables != VARS2:
        raise ValueError("interval_range takes a bivariate polynomial")
    if not P.terms:
        return Interval.point(0)
    box = (cell.x_interval(), cell.y_interval())
    pow_cache: list = [dict() for _ in box]

    def powed(vi: int, e: int) -> Interval:
        cache = pow_cache[vi]
        if e not in cache:
            cache[e] = box[vi].pow(e)
        return cache[e]

    lo = Fraction(0)
    hi = Fraction(0)
    for exps, coeff in P.terms.items():
        term = None
        for vi, e in enumerate(exps):
            if e:
                term = powed(vi, e) if term is None else term * powed(vi, e)
        if term is None:
            term = Interval.point(1)
        term = term.scaled(coeff)
        lo += term.lo
        hi += term.hi
    return Interval(lo, hi)


def _pow_bounds(
    a: np.ndarray, b: np.ndarray, n: int, nonneg: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """Interval.pow(n) on the integer intervals [a, b], elementwise;
    nonneg says that every a is at least 0."""
    if n == 1:
        return a, b
    lo, hi = a**n, b**n
    if n % 2 == 1 or nonneg:
        return lo, hi
    up = a >= 0
    down = b <= 0
    return (
        np.where(up, lo, np.where(down, hi, 0)),
        np.where(up, hi, np.where(down, lo, np.maximum(lo, hi))),
    )


def _mul_bounds(a, b, c, d, nonneg: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Interval.__mul__ of [a, b] and [c, d], elementwise; nonneg says
    that every a and every c is at least 0."""
    if nonneg:
        return a * c, b * d
    ac, ad, bc, bd = a * c, a * d, b * c, b * d
    return (
        np.minimum(np.minimum(ac, ad), np.minimum(bc, bd)),
        np.maximum(np.maximum(ac, ad), np.maximum(bc, bd)),
    )


def box_bounds(P: Poly, x0, x1, y0, y1, den: int) -> Tuple[np.ndarray, np.ndarray, int]:
    """interval_range of a bivariate P on arrays of rectangles, in integers.

    The corners x0, x1, y0, y1 are integer arrays over one common
    denominator den > 0: the rectangles are [x0/den, x1/den] x
    [y0/den, y1/den], with x0 <= x1 and y0 <= y1.  Corners may be
    negative and may exceed den, and the four arrays broadcast, so
    (m, 1) x-corners against (1, n) y-corners give the product set.
    Returns integer arrays lo, hi of the broadcast shape and an integer
    scale with [lo/scale, hi/scale] == interval_range(P, rect) exactly for
    every rectangle.  The per-monomial sign cases of Interval.pow and
    Interval.__mul__ are reproduced, so the result is the same natural
    enclosure (Moore 1966), only scaled by scale = lcm(coefficient
    denominators) * den^deg.

    Every corner, power, product, term and partial sum is at most
    max(1, |corner|)^deg * sum|c| * scale in magnitude (den^e stands in
    for the missing powers of a monomial), so the arrays are int64 when
    that bound, scale and every corner are below 2^63 and hold Python
    ints (dtype object) otherwise.
    """
    if P.variables != VARS2:
        raise ValueError("box_bounds takes a bivariate polynomial")
    edges = [np.asarray(v) for v in (x0, x1, y0, y1)]
    shape = np.broadcast_shapes(*(e.shape for e in edges))
    deg = P.degree() or 0
    cden = math.lcm(*(c.denominator for c in P.terms.values()))
    scale = cden * den**deg
    terms = [(i, j, c.numerator * (cden // c.denominator)) for (i, j), c in P.terms.items()]

    def reach(lo_edge, hi_edge) -> Tuple[int, bool]:
        """The largest |corner| (at least 1), and whether no corner is negative."""
        if not lo_edge.size or not hi_edge.size:
            return 1, True
        low = int(lo_edge.min())
        return max(1, abs(low), abs(int(hi_edge.max()))), low >= 0

    (mx, x_pos), (my, y_pos) = reach(*edges[:2]), reach(*edges[2:])
    bound = sum(abs(c) * mx**i * my**j * den ** (deg - i - j) for i, j, c in terms)
    dtype = np.int64 if max(bound, scale, mx, my) < 2**63 else object
    x0, x1, y0, y1 = (e.astype(dtype) for e in edges)
    lo = np.zeros(shape, dtype=dtype)
    hi = np.zeros(shape, dtype=dtype)
    x_pows: dict = {}
    y_pows: dict = {}
    for i, j, c in terms:
        weight = abs(c) * den ** (deg - i - j)
        if i and i not in x_pows:
            x_pows[i] = _pow_bounds(x0, x1, i, x_pos)
        if j and j not in y_pows:
            y_pows[j] = _pow_bounds(y0, y1, j, y_pos)
        # Scaling one factor by the positive weight first keeps every
        # intermediate below the bound and changes no min or max.  The
        # lower end of an even power is never negative.
        if i and j:
            ya, yb = y_pows[j]
            nonneg = (x_pos or i % 2 == 0) and (y_pos or j % 2 == 0)
            t_lo, t_hi = _mul_bounds(*x_pows[i], ya * weight, yb * weight, nonneg)
        elif i:
            t_lo, t_hi = (v * weight for v in x_pows[i])
        elif j:
            t_lo, t_hi = (v * weight for v in y_pows[j])
        else:
            t_lo = t_hi = weight
        if c > 0:
            lo += t_lo
            hi += t_hi
        else:
            lo -= t_hi
            hi -= t_lo
    return lo, hi, scale


def unit_square_range(P: Poly) -> Interval:
    """interval_range(P, [0, 1]^2), from box_bounds on the one rectangle
    in integers (int64 unless the coefficients are huge).  P keeps it, so
    each polynomial takes its range once."""
    if P._unit_range is None:
        lo, hi, scale = box_bounds(P, 0, 1, 0, 1, 1)
        P._unit_range = Interval(Fraction(int(lo), scale), Fraction(int(hi), scale))
    return P._unit_range
