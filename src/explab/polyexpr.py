"""Exact sparse polynomial arithmetic, expression parsing, and the
special-form / expander dichotomy for bivariate polynomials.

A polynomial is stored once, as integer numerators over one positive
denominator, so every symbolic decision ("does this polynomial vanish
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
Poly arithmetic, parse_poly, M_P and H_F all run on those integers; the
Fraction coefficients (Poly.terms) are built on a polynomial's first read.

The module also defines the natural interval enclosure (Moore 1966) of
a polynomial's range on an axis-aligned rational box, in Fractions:
Interval, whose sign rules are the definition, interval_range on one
box, and unit_square_range, its closed form on the unit square.  The
module uses the standard library only; the same enclosure of several
polynomials on whole arrays of rectangles, in one call, is
gridset.box_bounds, and interval_range is its oracle.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Tuple, Union

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

    num maps exponent tuples to nonzero int numerators over one common
    denominator den > 0, with gcd(den, *num.values()) == 1.  The form is
    canonical: two instances represent the same polynomial exactly when
    their variables, den and num are equal.  terms, the coefficients as
    Fractions in num's order, is built on first read.  Instances are
    immutable by convention; all arithmetic returns new objects, built
    by _of.  The constructor validates Fraction or int terms.
    """

    __slots__ = ("variables", "den", "num", "_terms", "_float_terms")

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
        # Over the lcm of the reduced denominators the form is in lowest terms.
        self.den = math.lcm(*(c.denominator for c in clean.values()))
        self.num = {e: c.numerator * (self.den // c.denominator) for e, c in clean.items()}
        self._terms = self._float_terms = None

    @classmethod
    def _of(cls, variables: Tuple[str, ...], den: int, num: dict) -> "Poly":
        """The polynomial of nonzero integer numerators over den > 0, in
        lowest terms; num keeps its order."""
        if den != 1:
            g = math.gcd(den, *num.values())
            if g != 1:
                den //= g
                num = {e: c // g for e, c in num.items()}
        poly = object.__new__(cls)
        poly.variables, poly.den, poly.num = variables, den, num
        poly._terms = poly._float_terms = None
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
    def terms(self) -> dict:
        """The coefficients as Fractions, in num's order, built on first read."""
        if self._terms is None:
            den = self.den
            self._terms = {e: Fraction(c, den) for e, c in self.num.items()}
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self.num

    def degree(self) -> Optional[int]:
        """Total degree, or None for the zero polynomial."""
        if not self.num:
            return None
        return max(sum(e) for e in self.num)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.variables == other.variables
            and self.den == other.den
            and self.num == other.num
        )

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.variables != self.variables:
                raise ValueError("mixed variable signatures")
            return other
        return Poly.constant(other, self.variables)

    def __add__(self, other, sign: int = 1) -> "Poly":
        """self + sign * other, over the lcm of the two denominators."""
        other = self._coerce(other)
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, -sign * (den // other.den)
        a = {e: c * fa for e, c in self.num.items()}
        return Poly._of(self.variables, den, _subtract(a, {e: c * fb for e, c in other.num.items()}))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._of(self.variables, self.den, {e: -c for e, c in self.num.items()})

    def __sub__(self, other) -> "Poly":
        return self.__add__(other, -1)

    def __rsub__(self, other) -> "Poly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Poly":
        other = self._coerce(other)
        return Poly._of(self.variables, self.den * other.den, _convolve(self.num, other.num))

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
        num = self.num
        for _ in range(order):
            num = _derive(num, idx)
        return Poly._of(self.variables, self.den, num)

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
            # Converted once per polynomial; int / int rounds correctly,
            # as float(Fraction) does.
            den = self.den
            self._float_terms = [(exps, c / den) for exps, c in self.num.items()]
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
        """Canonical form: graded-lex term order, rationals as a/b, each
        reduced from its integer numerator over den."""
        if not self.num:
            return "0"
        # Exponent tuples are distinct, so the reversed sort has no ties.
        ordered = sorted(self.num.items(), key=lambda item: (sum(item[0]), item[0]), reverse=True)
        den = self.den
        pieces = []
        for exps, c in ordered:
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.variables, exps)
                if e
            )
            g = math.gcd(c, den)
            n, d = c // g, den // g
            mag = str(abs(n)) if d == 1 else f"{abs(n)}/{d}"
            if not mono:
                body = mag
            elif mag == "1":
                body = mono
            else:
                body = f"{mag}*{mono}"
            pieces.append(("- " if n < 0 else "+ ") + body)
        text = " ".join(pieces)
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def __repr__(self) -> str:
        return f"Poly({self.variables!r}, {str(self)!r})"


# Integer term maps {exponents: numerator} over an implied common
# denominator, as Poly.num stores them.  Each helper drops zero terms; its
# loop order fixes the term order, which evaluate_float sums in.


def _convolve(a: dict, b: dict) -> dict:
    """The product of two term maps."""
    out: dict = {}
    get = out.get
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(map(operator.add, e1, e2))
            out[key] = get(key, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _subtract(a: dict, b: dict) -> dict:
    """a - b on term maps."""
    out = dict(a)
    get = out.get
    for e, c in b.items():
        out[e] = get(e, 0) - c
    return {e: c for e, c in out.items() if c}


def _derive(a: dict, idx: int) -> dict:
    """d/d(variable idx); distinct terms keep distinct exponents, so no zeros."""
    out = {}
    for exps, coeff in a.items():
        e = exps[idx]
        if e:
            out[exps[:idx] + (e - 1,) + exps[idx + 1 :]] = coeff * e
    return out


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
        if "0" <= ch <= "9":  # not str.isdigit, which also takes digits such as superscripts
            j = i
            while j < n and "0" <= text[j] <= "9":
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
    """Evaluates with Poly's own arithmetic, on integer numerators."""

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
            kind, nxt, at = self.peek()
            if kind == "op" and nxt == "/":
                raise ExpressionError("exponent must be a non-negative integer", at)
            return base**value
        return base

    def atom(self) -> Poly:
        kind, value, at = self.advance()
        if kind == "int":
            numerator, den = value, 1
            kind, nxt, _ = self.peek()
            if kind == "op" and nxt == "/":
                self.advance()
                kind, den, dat = self.peek()
                if kind != "int":
                    raise ExpressionError("expected integer denominator", dat)
                if den == 0:
                    raise ExpressionError("zero denominator", dat)
                self.advance()
            return Poly._of(self.variables, den, {(0,) * len(self.variables): numerator} if numerator else {})
        if kind == "ident":
            if value not in self.variables:
                raise ExpressionError(f"unknown identifier {value!r}", at)
            return Poly._of(self.variables, 1, {tuple(int(v == value) for v in self.variables): 1})
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
    Every derivative shares P's denominator den, so the formula runs on
    integer numerators and each term of M_P is one numerator over den^4.
    """
    if P.variables != VARS2:
        raise ValueError("mp_numerator takes a bivariate polynomial")
    px = _derive(P.num, 0)
    py = _derive(P.num, 1)
    pxx = _derive(px, 0)
    pxy = _derive(px, 1)
    pyy = _derive(py, 1)
    pxxy = _derive(pxx, 1)
    pxyy = _derive(pxy, 1)
    mp = _subtract(
        _convolve(_convolve(py, py), _subtract(_convolve(px, pxxy), _convolve(pxx, pxy))),
        _convolve(_convolve(px, px), _subtract(_convolve(py, pxyy), _convolve(pxy, pyy))),
    )
    return Poly._of(VARS2, P.den**4, mp)


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


def hf_poly(P: Poly) -> Poly:
    """H_F for F(x, xp, y, yp) = P(x, y) - P(xp, yp), exactly.

    H_F = P_x(x,y) P_y(x,y) P_xy(xp,yp) - P_x(xp,yp) P_y(xp,yp) P_xy(x,y),
    that is G(x,y) M(xp,yp) - G(xp,yp) M(x,y) with G = P_x P_y and
    M = P_xy, built on integer numerators over den^3.
    """
    if P.variables != VARS2:
        raise ValueError("hf_poly takes a bivariate polynomial")
    px = _derive(P.num, 0)
    g = _convolve(px, _derive(P.num, 1))
    m = _derive(px, 1)
    # Distinct (g, m) pairs give distinct exponents within each product.
    plus = {(i, k, j, l): cg * cm for (i, j), cg in g.items() for (k, l), cm in m.items()}
    minus = {(k, i, l, j): cg * cm for (i, j), cg in g.items() for (k, l), cm in m.items()}
    return Poly._of(VARS4, P.den**3, _subtract(plus, minus))


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


def unit_square_range(P: Poly) -> Interval:
    """interval_range(P, [0, 1]^2), in closed form: on the unit square
    every non-constant monomial ranges over [0, 1], so its term c * m over
    [min(0, c), max(0, c)].  The sums are taken on the integer numerators
    over P.den, with one Fraction per end."""
    if P.variables != VARS2:
        raise ValueError("unit_square_range takes a bivariate polynomial")
    const = P.num.get((0, 0), 0)
    rest = [c for e, c in P.num.items() if e != (0, 0)]
    neg = sum(c for c in rest if c < 0)
    pos = sum(c for c in rest if c > 0)
    return Interval(Fraction(const + neg, P.den), Fraction(const + pos, P.den))
