"""Planar geometric machinery on the dyadic grid.

Provides smooth planar maps with derivatives to third order (exact
polynomials, pinned distances, linear projections), Whitney-style
decompositions of regions presented as dyadic-square oracles, quadtree
band partitions pinning each tracked function into a dyadic value band
[v, 4v), coverings of thin neighborhoods of zero and level sets, the
Blaschke curvature of a 3-web of projection maps, and extraction of a
large Cartesian product from a 2D cell set by popularity pruning.
A CubeDecomposition keeps its cubes and pinned bands as arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .gridset import MAX_SCALE, GridSet1D, GridSet2D, Scale, box_bounds, cell_keys, format_gridset
from .gridset import nonconcentration_exponent, parse_gridset, value_cells
from .gridset import window_cells, _abs_ends, _check_dimension, _disjoint_runs
from .polyexpr import Interval, Poly, Rect, interval_range, mp_numerator, read_fraction, read_int

WEDGE_FLOOR = 1e-8
_NEWTON_TOL = 1e-13  # residual at which _newton_invert stops
_NEWTON_MAX_ITER = 60


class DegenerateGradientsError(ValueError):
    """Gradients pairwise too close to parallel for a 3-web evaluation."""


class NewtonConvergenceError(RuntimeError):
    """Local chart inversion failed to converge."""


# ---------------------------------------------------------------------------
# Smooth planar maps
# ---------------------------------------------------------------------------


class SmoothMap2:
    """A twice-plus differentiable planar map.

    Implementations, a map defined outside explab too, define the value,
    partial derivatives up to total order 3 and enclosure_rects, a sound
    interval enclosure of the range on a batch of rectangles (there is no
    default).  enclosure, the same on one rectangle, defaults to
    enclosure_rects on it.  Instances are immutable and shareable.

    enclosure_rects(x0, x1, y0, y1, den) is the batch form of enclosure:
    for integer corner arrays over one denominator, broadcasting like
    gridset.box_bounds' corners, it returns integer arrays lo, hi and an
    integer scale with [lo/scale, hi/scale] == enclosure() of each
    rectangle.
    The arrays are int64 only when scale < 2^63.  It is elementwise: a
    rectangle's ends depend on that rectangle (and the map) alone, never
    on the other rectangles of the call.  That is what lets
    _enclosure_pass ask several maps about the same cells at once, and
    split or stack batches freely: across the sets of a scale ladder, or
    as the columns and rows of a window.
    """

    def value(self, x: float, y: float) -> float:
        raise NotImplementedError

    def partial(self, x: float, y: float, ax: int, ay: int) -> float:
        """d^(ax+ay) / dx^ax dy^ay at (x, y); ax + ay <= 3."""
        raise NotImplementedError

    def enclosure(self, rect: Rect) -> Interval:
        """enclosure_rects on the one rectangle, over the lcm of its corner
        denominators."""
        corners = [Fraction(v) for v in (rect.x0, rect.x1, rect.y0, rect.y1)]
        den = math.lcm(*(v.denominator for v in corners))
        edges = (np.array([v.numerator * (den // v.denominator)]) for v in corners)
        lo, hi, scale = self.enclosure_rects(*edges, den)
        return Interval(Fraction(int(lo[0]), scale), Fraction(int(hi[0]), scale))

    def enclosure_rects(self, x0, x1, y0, y1, den: int) -> Tuple[np.ndarray, np.ndarray, int]:
        raise NotImplementedError

    def gradient(self, x: float, y: float) -> Tuple[float, float]:
        return self.partial(x, y, 1, 0), self.partial(x, y, 0, 1)

    # Coordinate detection lets curvature evaluation pick the exact chart.
    @property
    def is_coordinate_x(self) -> bool:
        return False

    @property
    def is_coordinate_y(self) -> bool:
        return False


def _hypot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise math.hypot: the square root of every scalar float
    enclosure, and of the cells _stacked_cells cannot decide with _sqrt_hypot."""
    return np.fromiter(map(math.hypot, a.tolist(), b.tolist()), dtype=float, count=a.size)


def _sqrt_hypot(a: np.ndarray, b: np.ndarray) -> np.ndarray:  # _stacked_cells' hypotenuse, see PinnedDistance
    return np.sqrt(a * a + b * b)


class _FloatEnclosureMap(SmoothMap2):
    """A map whose enclosure is one float formula, _bounds, on the edges
    of a rectangle, evaluated elementwise over float arrays with its
    square roots taken by the hypot it is given.

    _bounds takes the map's parameters, _params (the pin, or cos and
    sin), as arrays too, so parameters of shape (m, 1, ...) against edges
    of any shape evaluate m maps of one class on all those cells in one
    pass: each element sees the float operations of its own map and cell
    alone, so its value is the one a single map gives.  Edges of shape
    (c, 1) and (1, r), the columns and rows of a window, keep the
    per-axis operations at (m, c, 1) and (m, 1, r).

    enclosure_rects runs it on a batch with _hypot (math.hypot), its ends
    exact over one power of two, and that defines the enclosure (enclosure
    reads it on one rectangle).  _stacked_cells runs it on cell arrays
    with _sqrt_hypot, which may differ from math.hypot in the last bits,
    as a filter: an end v can land in another cell than enclosure's only
    when v * 2^k lies within _EDGE_BAND * (1 + |hi|) * 2^k of an integer,
    with hi the cell's upper end.  Those cells, found by map and cell, are
    recomputed with _hypot, their own row's parameters and their own
    scale; every other floor(v * 2^k) is certain.  A map whose formula
    takes no square root keeps _EDGE_BAND = 0 and skips the filter: numpy
    and Python floats round the same operations alike.
    """

    _EDGE_BAND = 0.0
    _params: Tuple[float, ...]

    @classmethod
    def _bounds(cls, params, x0, x1, y0, y1, hypot) -> Tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def enclosure_rects(self, x0, x1, y0, y1, den: int) -> Tuple[np.ndarray, np.ndarray, int]:
        edges = np.broadcast_arrays(*(np.asarray(v) for v in (x0, x1, y0, y1)))
        # int / int rounds as float(Fraction(v, den)); int64 divides do not past 2^53.
        corners = (np.array([v / den for v in e.ravel().tolist()]) for e in edges)
        bounds = self._bounds(self._params, *corners, _hypot)
        ends = [v.as_integer_ratio() for v in np.hstack(bounds).tolist()]
        scale = max((d for _, d in ends), default=1)
        lo, hi = np.array([n * (scale // d) for n, d in ends], dtype=object).reshape(2, -1)
        return lo.reshape(edges[0].shape), hi.reshape(edges[0].shape), scale

    @classmethod
    def _stacked_cells(cls, maps, i: np.ndarray, j: np.ndarray, k) -> np.ndarray:
        """_enclosure_pass of m maps of this class in one formula pass, its
        square roots by _sqrt_hypot, and one filter pass: the int64 arrays
        i, j and the scales k (an int or an int64 array) broadcast together
        to the cells' shape, so one call can take a column against a row of
        a window (whose squares then run per column and per row), or the
        cells of several sets at their own scales.  The result is an int64
        array of shape (2, m, *shape): j0 and j1, row r of each for maps[r].

        Each element takes d = 2^-k and n = 2^k of its own scale, so it
        sees the float operations of its own map, cell and scale alone, and
        its cells are the same bit for bit; so are the cells the filter
        recomputes, each with its own row's parameters and its own scale."""
        shape = np.broadcast_shapes(np.shape(i), np.shape(j), np.shape(k))
        n = np.ldexp(1.0, k)
        d = 1.0 / n  # exact, as is every product below with a power of two
        x0, y0 = i * d, j * d
        edges = (x0, x0 + d, y0, y0 + d)
        params = np.array([phi._params for phi in maps]).T  # one (m,) row per parameter
        ends = np.array(cls._bounds(params.reshape(*params.shape, *(1,) * len(shape)), *edges, _sqrt_hypot))
        ends *= n
        if cls._EDGE_BAND:
            band = cls._EDGE_BAND * (n + np.abs(ends[1]))
            near = (np.abs(ends - np.rint(ends)) < band).any(axis=0)
            if near.any():
                rows, *at = np.nonzero(near)
                cells = [np.broadcast_to(e, shape)[tuple(at)] for e in (*edges, n)]
                exact = cls._bounds(params[:, rows], *cells[:4], _hypot)
                ends[(slice(None), rows, *at)] = np.array(exact) * cells[4]
        return np.clip(np.floor(ends), 0, n - 1).astype(np.int64)


def _enclosure_pass(phis: Sequence[SmoothMap2], i: np.ndarray, j: np.ndarray, k) -> np.ndarray:
    """Value-grid cells of every map's enclosure on the same cells
    [i, i+1] x [j, j+1] (in units of 2^-k): the int64 arrays i, j and the
    scales k (an int or an int64 array) broadcast together to the cells'
    shape, and the result is an int64 array of shape (2, m, *shape)
    holding j0 = floor(lo * 2^k) and j1 = floor(hi * 2^k), each clamped
    to [0, 2^k - 1], where [lo, hi] is phis[r].enclosure() of the cell in
    row r.  The float maps of one class share one _stacked_cells pass;
    any other map takes value_cells of its enclosure_rects ends, one call
    per distinct scale."""
    groups = {}
    for r, phi in enumerate(phis):
        key = type(phi) if isinstance(phi, _FloatEnclosureMap) else r
        groups.setdefault(key, []).append(r)
    first = next(iter(groups), None)
    if len(groups) == 1 and isinstance(first, type):  # one float class: its pass is the result
        return first._stacked_cells(phis, i, j, k)
    shape = np.broadcast_shapes(np.shape(i), np.shape(j), np.shape(k))
    cells = np.empty((2, len(phis), *shape), dtype=np.int64)
    scales = np.broadcast_to(k, shape)
    for key, rows in groups.items():
        if isinstance(key, type):
            cells[:, rows] = key._stacked_cells([phis[r] for r in rows], i, j, k)
            continue
        for s in np.unique(scales).tolist():
            at = scales == s
            ci, cj = (np.broadcast_to(v, shape)[at] for v in (i, j))
            lo, hi, scale = phis[key].enclosure_rects(ci, ci + 1, cj, cj + 1, 1 << s)
            cells[:, key, at] = value_cells(lo, 0, scale, s), value_cells(hi, 0, scale, s)
    return cells


class PolynomialMap(SmoothMap2):
    """Exact polynomial realization; derivatives and enclosures are exact."""

    def __init__(self, poly: Poly):
        if poly.variables != ("x", "y"):
            raise ValueError("PolynomialMap takes a bivariate polynomial")
        self.poly = poly
        self._partials = {(0, 0): poly}

    def _poly_partial(self, ax: int, ay: int) -> Poly:
        if (ax, ay) not in self._partials:
            p = self.poly.partial("x", ax) if ax else self.poly
            self._partials[ax, ay] = p.partial("y", ay) if ay else p
        return self._partials[ax, ay]

    def value(self, x: float, y: float) -> float:
        return self.poly.evaluate_float({"x": x, "y": y})

    def partial(self, x: float, y: float, ax: int, ay: int) -> float:
        return self._poly_partial(ax, ay).evaluate_float({"x": x, "y": y})

    def enclosure(self, rect: Rect) -> Interval:
        return interval_range(self.poly, rect)

    def enclosure_rects(self, x0, x1, y0, y1, den: int) -> Tuple[np.ndarray, np.ndarray, int]:
        return box_bounds((self.poly,), x0, x1, y0, y1, den)[0][:3]

    @property
    def is_coordinate_x(self) -> bool:
        return self.poly.den == 1 and self.poly.num == {(1, 0): 1}

    @property
    def is_coordinate_y(self) -> bool:
        return self.poly.den == 1 and self.poly.num == {(0, 1): 1}


class PinnedDistance(_FloatEnclosureMap):
    """q -> |q - center|, smooth away from the pin.

    Derivatives are closed forms in u = x - cx, v = y - cy, r = |q - c|;
    the enclosure is the exact min/max distance from the pin to the
    rectangle with a tiny outward float pad.

    The filter band of _stacked_cells.  Its fl(sqrt(fl(fl(a^2) + fl(b^2))))
    lies within 2 eps = 2^-52 of the true hypotenuse, relative, and
    math.hypot within an ulp (one ulp apart on 6.3% of 1.7M grid inputs),
    so the two differ by less than u = 2^-50.  An underflowing square
    moves the root by under sqrt(2 * 2^-1074) ~ 2^-537, far below the
    2^-49 * D below.  Write D = 1 + dmax:
    - dmin and dmax move by at most u * dmax;
    - pad = _PAD * (1 + dmax) moves by less than 2^-88 * D (_PAD < 2^-39);
    - hi = dmax + pad moves by less than u * dmax + 2^-88 * D plus the
      rounding of the sum, 2^-52 * D: below 2^-49 * D;
    - lo = max(dmin - pad, 0): the subtraction may cancel, but it rounds
      by at most half an ulp of |dmin - pad| <= dmax, so lo also moves by
      less than 2^-49 * D, and max(., 0) does not widen a gap.
    Scaling by 2^k is exact, so floor(v * 2^k) can change only within
    2^-49 * D * 2^k of an integer.  _EDGE_BAND * (1 + hi) * 2^k, with
    hi >= dmax, is 2^9 times that.  Ends at an exact grid distance, such
    as (3/16, 4/16) from (0, 0), sit _PAD * D * 2^k from their integer,
    just outside the band, and are still certain there.

    The pin's coordinates are at most 2^500 in absolute value, so on edges
    in [0, 1] every intermediate of _bounds stays below about 2^502, a
    square below 2^1003 and v * 2^k below 2^533: finite, where a pin near
    the float maximum would overflow a square and make lo NaN.
    """

    _PAD = 1e-12
    _EDGE_BAND = 2.0**-40
    _MAX_COORDINATE = 2.0**500

    def __init__(self, center: Tuple[float, float]):
        self.center = (float(center[0]), float(center[1]))
        if not all(abs(c) <= self._MAX_COORDINATE for c in self.center):
            raise ValueError(
                f"the pin must be a point with coordinates of at most 2^500 in absolute value, got {self.center}"
            )
        self._params = self.center

    def value(self, x: float, y: float) -> float:
        r = math.hypot(x - self.center[0], y - self.center[1])
        if r == 0.0:
            raise ValueError("pinned distance evaluated at its center")
        return r

    def partial(self, x: float, y: float, ax: int, ay: int) -> float:
        """The closed forms below, taken on u, v and r scaled by 2^-e, with
        r = m 2^e and m in [1/2, 1), so no power or product leaves the
        float range; a partial of order n is homogeneous of degree 1 - n,
        so it is the scaled value times 2^(e (1 - n)).  Scaling by a power
        of two is exact and rounding commutes with it, so wherever the
        unscaled products stay normal the result is theirs bit for bit;
        the unscaled r^5 overflows past about 2^204 and u v^2 past 2^341."""
        u = x - self.center[0]
        v = y - self.center[1]
        r = math.hypot(u, v)
        if r == 0.0:
            raise ValueError("pinned distance evaluated at its center")
        order = (ax, ay)
        if order == (0, 0):
            return r
        m, e = math.frexp(r)
        u, v = math.ldexp(u, -e), math.ldexp(v, -e)
        m3 = m * m * m
        m5 = m3 * m * m
        table = {
            (1, 0): u / m,
            (0, 1): v / m,
            (2, 0): v * v / m3,
            (1, 1): -u * v / m3,
            (0, 2): u * u / m3,
            (3, 0): -3 * u * v * v / m5,
            (2, 1): v * (2 * u * u - v * v) / m5,
            (1, 2): u * (2 * v * v - u * u) / m5,
            (0, 3): -3 * u * u * v / m5,
        }
        if order not in table:
            raise ValueError("derivatives available up to total order 3")
        value = table[order]
        for _ in range(ax + ay - 1):  # two steps keep 2^(-2e) itself in range
            value = math.ldexp(value, -e)
        return value

    @classmethod
    def _bounds(cls, params, x0, x1, y0, y1, hypot):
        cx, cy = params
        dx = np.maximum(np.maximum(x0 - cx, 0.0), cx - x1)
        dy = np.maximum(np.maximum(y0 - cy, 0.0), cy - y1)
        dmin = hypot(dx, dy)
        dmax = hypot(
            np.maximum(np.abs(x0 - cx), np.abs(x1 - cx)),
            np.maximum(np.abs(y0 - cy), np.abs(y1 - cy)),
        )
        pad = cls._PAD * (1.0 + dmax)
        return np.maximum(dmin - pad, 0.0), dmax + pad


class LinearProjection(_FloatEnclosureMap):
    """q -> x cos(theta) + y sin(theta)."""

    def __init__(self, theta: float):
        self.theta = float(theta)
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")
        self.cos = math.cos(self.theta)
        self.sin = math.sin(self.theta)
        self._params = (self.cos, self.sin)

    def value(self, x: float, y: float) -> float:
        return x * self.cos + y * self.sin

    def partial(self, x: float, y: float, ax: int, ay: int) -> float:
        if (ax, ay) == (1, 0):
            return self.cos
        if (ax, ay) == (0, 1):
            return self.sin
        if ax + ay == 0:
            return self.value(x, y)
        return 0.0

    @classmethod
    def _bounds(cls, params, x0, x1, y0, y1, hypot):
        c, s = params
        corners = [x * c + y * s for x in (x0, x1) for y in (y0, y1)]
        return np.minimum.reduce(corners), np.maximum.reduce(corners)

    @property
    def is_coordinate_x(self) -> bool:
        return self.cos == 1.0 and self.sin == 0.0

    @property
    def is_coordinate_y(self) -> bool:
        return self.sin == 1.0 and self.cos == 0.0


# ---------------------------------------------------------------------------
# Dyadic squares, cube decompositions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DyadicSquare:
    """Closed dyadic square [i, i+1] x [j, j+1] at side 2^-depth."""

    depth: int
    i: int
    j: int

    def __post_init__(self):
        # Shifts, not 2**depth: a depth read from a file is not bounded yet.
        if self.depth < 0 or min(self.i, self.j) < 0 or (self.i | self.j) >> self.depth:
            raise ValueError("dyadic square out of range")

    def rect(self) -> Rect:
        side = Fraction(1, 2**self.depth)
        return Rect(self.i * side, (self.i + 1) * side, self.j * side, (self.j + 1) * side)


class CubeDecomposition:
    """Interior-disjoint dyadic squares with optional per-cube band data.

    Cubes are stored once, in listing order: cube c is the square
    (depth[c], i[c], j[c]) of three int64 arrays, and band_num[c, f] /
    band_den[c, f] (integers; one column per tracked function) is the
    pinned value v with v <= |f| < 4v on it.  A band table given as an
    int64 array stays int64 (band_partition's do wherever every end and
    scale is below 2^63); any other table is held as Python ints (dtype
    object).  The views cubes (DyadicSquares) and bands (rows of
    Fractions) are built on first read.  flagged marks cubes emitted
    without their geometric certificate; leftover holds the uncovered
    delta-cells.
    """

    def __init__(self, depth, i, j, band_num, band_den, flagged, leftover, fraction=None):
        self.depth, self.i, self.j = (np.asarray(a, dtype=np.int64) for a in (depth, i, j))
        self.band_num, self.band_den = (
            t if isinstance(t, np.ndarray) and t.dtype == np.int64 else np.asarray(t, dtype=object)
            for t in (band_num, band_den)
        )
        self.flagged, self.leftover = flagged, leftover
        self.a_leftover_fraction = fraction
        n = self.depth.shape
        shapes = (self.i.shape, self.j.shape, self.band_num.shape[:1], self.band_den.shape)
        if len(n) != 1 or shapes != (n, n, n, self.band_num.shape) or self.band_num.ndim != 2:
            raise ValueError("want arrays depth, i, j of one length n and band tables of n rows")
        if (self.band_den <= 0).any():
            raise ValueError("band denominators must be positive")
        if not all(0 <= c < n[0] for c in flagged):
            raise ValueError(f"flagged cube indices must lie in [0, {n[0]})")

    @cached_property
    def cubes(self) -> Tuple[DyadicSquare, ...]:
        return tuple(map(DyadicSquare, self.depth.tolist(), self.i.tolist(), self.j.tolist()))

    @cached_property
    def bands(self) -> Tuple[Tuple[Fraction, ...], ...]:
        rows = zip(self.band_num.tolist(), self.band_den.tolist())
        return tuple(tuple(map(Fraction, num, den)) for num, den in rows)

    def __eq__(self, other):
        fields = ("cubes", "bands", "flagged", "leftover", "a_leftover_fraction")
        same = (getattr(self, f) == getattr(other, f) for f in fields)
        return type(other) is type(self) and all(same)


def format_cube_decomposition(decomp: CubeDecomposition) -> str:
    m = decomp.band_num.shape[1]
    g = np.gcd(decomp.band_num, decomp.band_den)
    num, den = ((t // g).ravel().tolist() for t in (decomp.band_num, decomp.band_den))
    values = [str(a) if b == 1 else f"{a}/{b}" for a, b in zip(num, den)]
    row = "cube k={} i={} j={}" + "".join(f" band j={f} v={{}}" for f in range(m))
    squares = (decomp.depth.tolist(), decomp.i.tolist(), decomp.j.tolist())
    lines = list(map(row.format, *squares, *(values[f::m] for f in range(m))))
    for idx in decomp.flagged:
        lines[idx] += " flagged"
    return "\n".join([*lines, format_gridset(decomp.leftover)])


def _parse_cube_line(tokens: List[str]) -> Tuple[DyadicSquare, List[Fraction], bool]:
    fields = dict(t.split("=", 1) for t in tokens[1:4] if "=" in t)
    if tokens[0] != "cube" or set(fields) != {"k", "i", "j"}:
        raise ValueError("expected 'cube k=<depth> i=<i> j=<j>'")
    cube = DyadicSquare(read_int(fields["k"]), read_int(fields["i"]), read_int(fields["j"]))
    if cube.depth > MAX_SCALE:
        raise ValueError(f"cube depth above {MAX_SCALE}")
    values = []
    flagged = False
    rest = iter(tokens[4:])
    for tok in rest:
        if tok == "flagged":
            flagged = True
        elif tok == "band":
            index, value = next(rest, ""), next(rest, "")
            if not (index == f"j={len(values)}" and value.startswith("v=")):
                raise ValueError(f"band {len(values)} needs 'j={len(values)} v=<rational>'")
            values.append(read_fraction(value[2:]))
        else:
            raise ValueError(f"unknown token {tok!r}")
    return cube, values, flagged


def parse_cube_decomposition(text: str) -> CubeDecomposition:
    """Inverse of format_cube_decomposition; malformed text raises
    ValueError naming the offending line."""
    cube_lines = []
    grid_lines = []
    in_grid = False
    for ln in text.splitlines():
        if ln.startswith("gridset2d"):
            in_grid = True
        (grid_lines if in_grid else cube_lines).append(ln)
    cubes = []
    bands = []
    flagged = set()
    for ln in cube_lines:
        if not ln.strip():
            continue
        try:
            cube, values, is_flagged = _parse_cube_line(ln.split())
            if bands and len(values) != len(bands[0]):
                raise ValueError(f"{len(values)} bands, but the first cube has {len(bands[0])}")
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad cube line {ln!r}: {exc}") from None
        cubes.append(cube)
        bands.append(values)
        if is_flagged:
            flagged.add(len(cubes) - 1)
    leftover = parse_gridset("\n".join(grid_lines))
    if not isinstance(leftover, GridSet2D):
        raise ValueError("leftover block must be a gridset2d")
    index = np.array([(c.depth, c.i, c.j) for c in cubes], dtype=np.int64).reshape(-1, 3).T
    pairs = [(v.numerator, v.denominator) for row in bands for v in row]
    ends = np.array(pairs, dtype=object).reshape(len(bands), len(bands[0]) if bands else 0, 2)
    return CubeDecomposition(*index, *ends.transpose(2, 0, 1), frozenset(flagged), leftover)


# ---------------------------------------------------------------------------
# Whitney decomposition
# ---------------------------------------------------------------------------


class Region(Enum):
    INSIDE = "inside"
    OUTSIDE = "outside"
    BOUNDARY = "boundary"


RegionOracle = Callable[[DyadicSquare], Region]


class DyadicRegion:
    """A region oracle in batch form: classify(depth, i, j) answers for
    the squares (depth, i, j) of the int arrays i, j at once, as boolean
    arrays (inside, outside); a BOUNDARY square is neither.  Every region
    implements classify, and the call on one DyadicSquare reads it
    (PolynomialSignRegion keeps its own, the oracle of its kernel).
    """

    def __call__(self, square: DyadicSquare) -> Region:
        inside, outside = self.classify(square.depth, np.array([square.i]), np.array([square.j]))
        return Region.INSIDE if inside[0] else Region.OUTSIDE if outside[0] else Region.BOUNDARY

    def classify(self, depth: int, i, j) -> Tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError


class FullSquareRegion(DyadicRegion):
    """The whole open unit square (the ambient boundary is not held
    against membership; only dilates exiting the ambient count as exits)."""

    def classify(self, depth: int, i, j) -> Tuple[np.ndarray, np.ndarray]:
        return np.ones(np.shape(i), dtype=bool), np.zeros(np.shape(i), dtype=bool)


class PuncturedSquareRegion(DyadicRegion):
    """Unit square minus one point p of [0, 1]^2, exact (a point outside
    the square is a ValueError): a depth-d square (i, j) is BOUNDARY iff
    ceil(p 2^d) - 1 <= i <= floor(p 2^d) and likewise for j; every other
    square is INSIDE."""

    def __init__(self, point=(Fraction(1, 2), Fraction(1, 2))):
        self.point = (Fraction(point[0]), Fraction(point[1]))
        if not all(0 <= p <= 1 for p in self.point):
            raise ValueError("the puncture {},{} lies outside the unit square [0, 1]^2".format(*self.point))

    def classify(self, depth: int, i, j) -> Tuple[np.ndarray, np.ndarray]:
        n = 1 << depth
        held = np.ones(np.shape(i), dtype=bool)
        for v, p in zip((np.asarray(i), np.asarray(j)), self.point):
            held &= (math.ceil(p * n) - 1 <= v) & (v <= math.floor(p * n))
        return ~held, np.zeros_like(held)


class PolynomialSignRegion(DyadicRegion):
    """Omega = {P > 0}, decided by interval enclosures; {P < 0} is the
    region of -P."""

    def __init__(self, poly: Poly):
        self.poly = poly

    def __call__(self, square: DyadicSquare) -> Region:
        enc = interval_range(self.poly, square.rect())
        if enc.lo > 0:
            return Region.INSIDE
        if enc.hi <= 0:
            return Region.OUTSIDE
        return Region.BOUNDARY

    def classify(self, depth: int, i, j) -> Tuple[np.ndarray, np.ndarray]:
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        ((lo, hi, _, _),) = box_bounds((self.poly,), i, i + 1, j, j + 1, 1 << depth)
        return lo > 0, hi <= 0


def _offset_pairs(offsets: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The pairs (a, b) for a, b in offsets, a-major, as two columns."""
    return np.repeat(offsets, offsets.size), np.tile(offsets, offsets.size)


def _blocks(i: np.ndarray, j: np.ndarray, factor: int, pairs: Tuple[np.ndarray, np.ndarray]):
    """Squares (factor i + a, factor j + b) for the offset pairs (a, b) of
    _offset_pairs, listed square by square: with factor 2 and offsets 0, 1
    the children of each (i, j), with offsets -1..2 its dilate one level
    down."""
    a, b = pairs
    return ((factor * i)[:, None] + a).ravel(), ((factor * j)[:, None] + b).ravel()


def _ask_each(omega: RegionOracle, depth: int, i, j) -> Tuple[np.ndarray, np.ndarray]:
    pairs = zip(i.tolist(), j.tolist())
    answers = np.array([omega(DyadicSquare(depth, a, b)) for a, b in pairs], dtype=object)
    return answers == Region.INSIDE, answers == Region.OUTSIDE


_CHILDREN = _offset_pairs(np.arange(2))
_DILATE = _offset_pairs(np.arange(-1, 3))


def whitney_decompose(omega: RegionOracle, k_max: int) -> CubeDecomposition:
    """Dyadic squares Q inside the region whose 2-fold dilate exits it.

    BOUNDARY squares are refined until k_max; the unresolved delta-cells
    at k_max form the leftover.  An INSIDE square whose dilate stays
    interior can have no descendant with an exiting dilate (concentric
    dilates nest), so it is emitted immediately and flagged rather than
    refined to k_max.

    The dilate 2Q of a depth-d square is 4 x 4 squares of depth d + 1; it
    exits when it clips the ambient unit square or one of them is not
    answered INSIDE.  The tree is walked one depth at a time, with one
    classify call per depth d + 1: it answers the children of the depth-d
    BOUNDARY squares together with the dilate squares of the depth-d
    INSIDE squares, each distinct square once.  A plain callable oracle
    is asked square by square.  Cubes are listed by (depth, i, j).
    """
    if not 1 <= k_max <= MAX_SCALE:
        raise ValueError(f"k_max must lie in [1, {MAX_SCALE}]")
    classify = omega.classify if isinstance(omega, DyadicRegion) else partial(_ask_each, omega)
    cubes = []
    flags = []
    i = j = np.zeros(1, dtype=np.int64)
    inside, outside = classify(0, i, j)
    for depth in range(k_max + 1):
        side = 1 << depth
        order = np.lexsort((j[inside], i[inside]))
        ci, cj = i[inside][order], j[inside][order]
        # 2Q stays in the ambient square only for cubes off its edge.
        interior = (ci >= 1) & (ci <= side - 2) & (cj >= 1) & (cj <= side - 2)
        di, dj = _blocks(ci[interior], cj[interior], 2, _DILATE)
        boundary = ~(inside | outside)
        if depth < k_max:
            i, j = _blocks(i[boundary], j[boundary], 2, _CHILDREN)
        else:
            leftover = np.unique(cell_keys(i[boundary], j[boundary]))
            i = j = i[:0]
        keys, where = np.unique(
            np.concatenate((i, di)) << (depth + 1) | np.concatenate((j, dj)), return_inverse=True
        )
        ins, outs = classify(depth + 1, keys >> (depth + 1), keys & (2 * side - 1))
        ins, outs = ins[where], outs[where]
        exits = np.ones(ci.size, dtype=bool)
        exits[interior] = ~ins[i.size :].reshape(-1, 16).all(axis=1)
        cubes.append(np.stack((np.full(ci.size, depth), ci, cj)))
        flags.append(~exits)
        inside, outside = ins[: i.size], outs[: i.size]
    flagged = frozenset(np.flatnonzero(np.concatenate(flags)).tolist())
    leftover = GridSet2D._from_keys(Scale(k_max), leftover)
    depth, i, j = np.concatenate(cubes, axis=1)
    no_bands = np.empty((depth.size, 0), dtype=object)
    return CubeDecomposition(depth, i, j, no_bands, no_bands, flagged, leftover)


# ---------------------------------------------------------------------------
# Band partition
# ---------------------------------------------------------------------------


def _morton(i: np.ndarray, j: np.ndarray, bits: int) -> np.ndarray:
    """Interleaved bits of (i, j), the j bit above the i bit at each level,
    so the quadrants of a square sort as (0, 0), (1, 0), (0, 1), (1, 1)."""
    key = np.zeros_like(i)
    for b in range(bits):
        key |= ((i >> b) & 1) << (2 * b) | ((j >> b) & 1) << (2 * b + 1)
    return key


def band_partition(
    fs: Sequence[SmoothMap2],
    w: float,
    A: GridSet2D,
) -> CubeDecomposition:
    """Quadtree partition pinning every |f_j| into a band [v, 4v), v >= delta^w.

    A square is accepted when, for every tracked function, the interval
    enclosure of |f_j| has lower end at least delta^w and upper end
    strictly below four times the lower end; the pinned value is the
    lower end.  Squares whose enclosure tops out below delta^w can never
    be accepted and join the leftover; everything else splits until the
    delta-cells, where unresolved cells also join the leftover.  delta
    is A's scale, and the fraction of A's cells landing in the leftover
    is reported.

    The quadtree is walked one depth at a time, and every function is
    enclosed on every square of the depth in one call: the PolynomialMaps
    share one box_bounds call, and any other map answers through
    its own enclosure_rects.  The functions are tried in order, so a
    square is dead when some function tops out below delta^w on it while
    every function before it pins it; the running AND of the (functions x
    squares) verdicts gives that, and each decision reads only the
    square's own ends.  Cubes are listed in the pre-order of the recursive
    walk (by Morton key of their corner).  The band tables are int64 when
    every function's ends are, and Python ints otherwise.
    """
    if not math.isfinite(w):
        raise ValueError(f"w must be finite, got {w}")
    if w <= 0:
        raise ValueError("w must be positive")
    _check_dimension("band_partition", A, GridSet2D)
    scale = A.scale
    k = scale.k
    threshold = Fraction(2.0 ** (-k * w))

    polys = [f.poly for f in fs if isinstance(f, PolynomialMap)]
    # Per depth, the accepted cubes and their pinned ends: integers over
    # each function's scale, one row per function and one column per cube.
    cubes, nums, dens = [], [], []
    left_i, left_j = [], []
    i = j = np.zeros(1, dtype=np.int64)
    for depth in range(k + 1):
        edges = (i, i + 1, j, j + 1, 1 << depth)
        joint = iter(box_bounds(polys, *edges))
        ends = [next(joint) if isinstance(f, PolynomialMap) else f.enclosure_rects(*edges) for f in fs]
        # One row per function, int64 when every function's ends are.
        dtype = np.int64 if all(e[0].dtype == np.int64 for e in ends) else object
        lo, hi, scales = (np.array([e[n] for e in ends], dtype=dtype) for n in range(3))
        lo, hi = lo.reshape(len(fs), i.size), hi.reshape(len(fs), i.size)
        alo, ahi = _abs_ends(lo, hi)  # the enclosures of |f|
        # For an integer v, v/scale < threshold iff v < ceil(threshold*scale).
        floor_at = np.array([math.ceil(threshold * sc) for sc in scales.tolist()], dtype=dtype)[:, None]
        # Row f of pins: every function before f pins the square.
        pins = np.ones((len(fs) + 1, i.size), dtype=bool)
        np.logical_and.accumulate((alo >= floor_at) & (ahi // 4 < alo), axis=0, out=pins[1:])
        pinned = pins[-1]
        dead = (pins[:-1] & (ahi < floor_at)).any(axis=0)
        ci, cj = i[pinned], j[pinned]
        cubes.append(np.stack((np.full(ci.size, depth), ci, cj)))
        nums.append(alo[:, pinned])
        dens.append(np.repeat(scales[:, None], ci.size, axis=1))
        if dead.any():  # a dead square's delta-cells all join the leftover
            span = 1 << (k - depth)
            li, lj = _blocks(i[dead], j[dead], span, _offset_pairs(np.arange(span)))
            left_i.append(li)
            left_j.append(lj)
        split = ~(dead | pinned)
        if depth == k:
            left_i.append(i[split])
            left_j.append(j[split])
        else:
            i, j = _blocks(i[split], j[split], 2, _CHILDREN)

    depth, i, j = cubes = np.concatenate(cubes, axis=1)
    order = np.argsort(_morton(i << (k - depth), j << (k - depth), k))
    keys = np.sort(cell_keys(np.concatenate(left_i), np.concatenate(left_j)))
    leftover = GridSet2D._from_keys(scale, keys)
    # The last leftover key at or below each key a of A equals a when a's
    # cell is left over; at index -1 (none) it is the largest, above a.
    at = np.searchsorted(leftover.keys, A.keys, side="right") - 1
    in_leftover = int(np.count_nonzero(leftover.keys[at] == A.keys)) if len(leftover) else 0
    fraction = in_leftover / len(A) if len(A) else 0.0
    tables = (np.concatenate(ends, axis=1).T[order] for ends in (nums, dens))
    return CubeDecomposition(*cubes[:, order], *tables, frozenset(), leftover, fraction)


# ---------------------------------------------------------------------------
# Neighborhood coverings and level selection
# ---------------------------------------------------------------------------


ProductSet = Tuple[GridSet1D, GridSet1D]


def _inflation(func: str, A: Union[GridSet2D, ProductSet], s) -> Fraction:
    """s as an exact rational, checked to lie in [delta, 1], once A is
    checked to be a GridSet2D or a pair of GridSet1Ds."""
    sets = [A] if isinstance(A, (GridSet1D, GridSet2D)) else list(A)
    for S in sets:
        _check_dimension(func, S, GridSet2D if len(sets) == 1 else GridSet1D)
    delta = sets[0].scale.delta
    if isinstance(s, float) and not math.isfinite(s):
        raise ValueError(f"s must lie in [delta, 1], got {s}")
    s = Fraction(s)
    if not delta <= s <= 1:
        raise ValueError("s must lie in [delta, 1]")
    return s


def _level_covering(phi: SmoothMap2, A, s: Fraction, levels: Sequence[Fraction]) -> List[int]:
    """For each level t in [0, 1], the cells of A whose s-inflated cell
    has an enclosure of phi containing t.

    One enclosure_rects call bounds every inflated cell (a product set
    broadcasts its two factors) over the denominator lcm(2^k, den s).
    With the ends sorted, a level t costs two binary searches: a cell
    counts when lo <= floor(t scale) and hi >= ceil(t scale), and a cell
    with hi < ceil(t scale) has lo <= floor(t scale) too, so the count
    is #{lo <= floor(t scale)} - #{hi < ceil(t scale)}.
    """
    if isinstance(A, GridSet2D):
        k = A.scale.k
        i, j = A.indices()
    else:
        G1, G2 = A
        if G1.scale != G2.scale:
            raise ValueError("product factors must share a scale")
        k = G1.scale.k
        i, j = G1.keys[:, None], G2.keys[None, :]
    den = math.lcm(1 << k, s.denominator)
    unit, pad = den >> k, int(s * den)
    if den >= 2**61:  # corners reach 2 den + unit: keep them exact
        i, j = i.astype(object), j.astype(object)
    lo, hi, scale = phi.enclosure_rects(
        i * unit - pad, (i + 1) * unit + pad, j * unit - pad, (j + 1) * unit + pad, den
    )
    lo = np.sort(lo, axis=None)
    hi = np.sort(hi, axis=None)
    return [
        int(
            np.searchsorted(lo, math.floor(t * scale), side="right")
            - np.searchsorted(hi, math.ceil(t * scale), side="left")
        )
        for t in levels
    ]


def zero_nbhd_covering(phi: SmoothMap2, A, s) -> int:
    """Delta-cells of A meeting the s-neighborhood of the zero set of phi.

    Decided per cell by whether the enclosure of phi on the s-inflated
    cell contains zero; inflation is by s in each axis, a sound
    over-approximation of the Euclidean neighborhood.  The enclosures of
    all cells come from one enclosure_rects call (see _level_covering).
    """
    return _level_covering(phi, A, _inflation("zero_nbhd_covering", A, s), [Fraction(0)])[0]


@dataclass(frozen=True)
class SelectedLevel:
    t: float
    count: int


def select_level(
    phi: SmoothMap2, A: ProductSet, s: float, t0: float, kappa: float
) -> SelectedLevel:
    """Scan ceil(s^(-kappa/2)) levels t in [t0, 2 t0] and return the one
    whose s-neighborhood {phi = t} meets the fewest cells of A
    (ties resolved toward the smaller t).

    s must lie in [delta, 1].  The inflated cells are enclosed once and
    every level is counted against the same sorted ends (see
    _level_covering).
    """
    s = _inflation("select_level", A, s)
    if not 0 < kappa <= 1:
        raise ValueError("kappa must lie in (0, 1]")
    if not (float(s) ** (kappa / 2) < t0 <= 0.5):
        raise ValueError("need s^(kappa/2) < t0 <= 1/2")
    n = math.ceil(float(s) ** (-kappa / 2))
    t0f = Fraction(t0)
    candidates = [t0f + Fraction(i, max(n - 1, 1)) * t0f for i in range(n)]
    counts = _level_covering(phi, A, s, candidates)
    best = counts.index(min(counts))
    return SelectedLevel(float(candidates[best]), counts[best])


# ---------------------------------------------------------------------------
# Blaschke curvature
# ---------------------------------------------------------------------------


def _wedge(g1, g2) -> float:
    return g1[0] * g2[1] - g1[1] * g2[0]


def _check_gradients(phis, x, y):
    grads = [phi.gradient(x, y) for phi in phis]
    for a in range(3):
        for b in range(a + 1, 3):
            if abs(_wedge(grads[a], grads[b])) <= WEDGE_FLOOR:
                raise DegenerateGradientsError(
                    f"gradients of maps {a+1} and {b+1} are nearly parallel at "
                    f"({x}, {y})"
                )


def _chart_curvature(phi3: SmoothMap2, x: float, y: float) -> float:
    """Curvature in the chart phi1 = x, phi2 = y:
    2 * M / (P_x P_y)^2 with M the degeneracy numerator of P = phi3."""
    if isinstance(phi3, PolynomialMap):
        pt = {"x": Fraction(x), "y": Fraction(y)}
        px = phi3.poly.partial("x").evaluate(pt)
        py = phi3.poly.partial("y").evaluate(pt)
        m = mp_numerator(phi3.poly).evaluate(pt)
        return float(2 * m / (px * py) ** 2)
    px = phi3.partial(x, y, 1, 0)
    py = phi3.partial(x, y, 0, 1)
    pxx = phi3.partial(x, y, 2, 0)
    pxy = phi3.partial(x, y, 1, 1)
    pyy = phi3.partial(x, y, 0, 2)
    pxxy = phi3.partial(x, y, 2, 1)
    pxyy = phi3.partial(x, y, 1, 2)
    m = py * py * (px * pxxy - pxx * pxy) - px * px * (py * pxyy - pxy * pyy)
    return 2.0 * m / (px * py) ** 2


def _newton_invert(phi1, phi2, target, start):
    x, y = start
    for _ in range(_NEWTON_MAX_ITER):
        f1 = phi1.value(x, y) - target[0]
        f2 = phi2.value(x, y) - target[1]
        if abs(f1) < _NEWTON_TOL and abs(f2) < _NEWTON_TOL:
            return x, y
        a, b = phi1.gradient(x, y)
        c, d = phi2.gradient(x, y)
        det = a * d - b * c
        if det == 0.0:
            raise NewtonConvergenceError("singular chart Jacobian")
        x -= (d * f1 - b * f2) / det
        y -= (-c * f1 + a * f2) / det
    raise NewtonConvergenceError("chart inversion did not converge")


def _log_slope_ratio(phi1, phi2, phi3, x, y) -> float:
    """log |dphi3/dphi1 / dphi3/dphi2| via the inverse chart Jacobian."""
    g1 = phi1.gradient(x, y)
    g2 = phi2.gradient(x, y)
    g3 = phi3.gradient(x, y)
    det = _wedge(g1, g2)
    a1 = _wedge(g3, g2) / det  # dphi3/dphi1
    a2 = _wedge(g1, g3) / det  # dphi3/dphi2
    if a1 == 0.0 or a2 == 0.0:
        raise NewtonConvergenceError("vanishing chart slope in curvature stencil")
    return math.log(abs(a1 / a2))


def blaschke_curvature(
    phi1: SmoothMap2,
    phi2: SmoothMap2,
    phi3: SmoothMap2,
    p: Tuple[float, float],
    method: str = "auto",
    step: Optional[float] = None,
) -> float:
    """Coefficient of the 3-web curvature form 2 d/dphi1 d/dphi2
    log((dphi3/dphi1) / (dphi3/dphi2)) dphi1 ^ dphi2 at p.

    method 'chart' requires phi1 = x and phi2 = y and uses the closed
    form (exact rational arithmetic when phi3 is polynomial); 'newton'
    inverts the chart (phi1, phi2) on a four-point stencil of half-width
    step (nonzero and finite; None means 1e-4) and takes a centered
    mixed difference; 'auto' picks 'chart' when applicable.  The chart
    method reads no step, so a step given to it is an error.
    """
    x, y = float(p[0]), float(p[1])
    h = 1e-4 if step is None else float(step)
    if h == 0.0 or not math.isfinite(h):
        raise ValueError(f"step must be a nonzero finite number, got {step!r}")
    if method == "auto":
        method = "chart" if phi1.is_coordinate_x and phi2.is_coordinate_y else "newton"
    if method == "chart" and step is not None:
        raise ValueError("step needs method 'newton'; the chart method reads no step")
    if method == "chart" and not (phi1.is_coordinate_x and phi2.is_coordinate_y):
        raise ValueError("chart method needs phi1 = x and phi2 = y")
    if method not in ("chart", "newton"):
        raise ValueError(f"unknown method {method!r}")
    _check_gradients((phi1, phi2, phi3), x, y)
    if method == "chart":
        return _chart_curvature(phi3, x, y)

    u0 = phi1.value(x, y)
    v0 = phi2.value(x, y)
    corners = {}
    for su in (+1, -1):
        for sv in (+1, -1):
            qx, qy = _newton_invert(phi1, phi2, (u0 + su * h, v0 + sv * h), (x, y))
            corners[(su, sv)] = _log_slope_ratio(phi1, phi2, phi3, qx, qy)
    mixed = (
        corners[(1, 1)] - corners[(1, -1)] - corners[(-1, 1)] + corners[(-1, -1)]
    ) / (4 * h * h)
    return 2.0 * mixed


# ---------------------------------------------------------------------------
# Product extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtractionReport:
    x_count: int
    intersection_count: int
    ratio: float
    rounds: int
    col_threshold: float
    row_threshold: float
    alpha_a: float
    alpha_b: float
    eta_a: float
    eta_b: float


def extract_product(X: GridSet2D) -> Tuple[GridSet1D, GridSet1D, ExtractionReport]:
    """Popularity pruning of the bipartite cell graph of X.

    Columns (x-cells) and rows (y-cells) with degree below a quarter of
    the initial average degree are deleted, in simultaneous rounds with
    the thresholds fixed from the input, until a fixed point.  Every
    deletion removes fewer edges than its threshold, so the surviving
    product A x B keeps at least half of X.  The report records measured
    non-concentration exponents of the factors.
    """
    _check_dimension("extract_product", X, GridSet2D)
    if not len(X):
        raise ValueError("extract_product needs a nonempty set")
    # Per side (columns, then rows): the distinct indices, each cell's
    # position among them, the threshold and which indices survive.
    sides = [np.unique(v, return_inverse=True) for v in X.indices()]
    thresholds = [len(X) / (4.0 * values.size) for values, _ in sides]
    alive = [np.ones(values.size, dtype=bool) for values, _ in sides]
    live = np.ones(len(X), dtype=bool)  # the surviving cells of X
    rounds = 0
    while True:
        degrees = [np.bincount(of[live], minlength=a.size) for a, (_, of) in zip(alive, sides)]
        bad = [a & (d < t) for a, d, t in zip(alive, degrees, thresholds)]
        if not any(b.any() for b in bad):
            break
        rounds += 1
        for a, b, (_, of) in zip(alive, bad, sides):
            a &= ~b
            live &= a[of]

    A, B = (GridSet1D._from_keys(X.scale, values[a]) for (values, _), a in zip(sides, alive))
    alphas = [math.log2(max(1, len(G))) / X.scale.k for G in (A, B)]
    etas = [
        nonconcentration_exponent(G, max(a, 1e-9), a).eta if len(G) else 0.0
        for G, a in zip((A, B), alphas)
    ]
    kept = int(np.count_nonzero(live))
    report = ExtractionReport(len(X), kept, kept / len(X), rounds, *thresholds, *alphas, *etas)
    return A, B, report


# ---------------------------------------------------------------------------
# Images and preimages of smooth maps over cell sets
# ---------------------------------------------------------------------------


def _row_counts(first: np.ndarray, last: np.ndarray, row: np.ndarray, rows: int, k: int) -> List[int]:
    """len(range_union) of the ranges [first, last] in [0, 2^k) of each row
    r < rows (row names each range's row; the three broadcast together).
    Row r moves up by r << k into a stretch of its own.  The union's
    disjoint runs start in order, one of nonzero count in its own row's
    stretch, so the counts' prefix sums at each stretch split the total."""
    shift = row << k
    starts, counts = _disjoint_runs((first + shift).ravel(), (last + shift).ravel())
    at = np.searchsorted(starts, np.arange(rows + 1, dtype=np.int64) << k)
    return np.diff(np.concatenate(([0], np.cumsum(counts)))[at]).tolist()


def map_image_counts(phis: Sequence[SmoothMap2], sets: Sequence[GridSet2D]) -> List[List[int]]:
    """The size of each map's image on each set, one list (in map order)
    per set: the number of [0, 1] value-grid cells met by the map's
    enclosure on some cell of the set, values clamped into [0, 1].  One
    enclosure pass over all the sets' cells, each at its own set's scale,
    gives every cell's range [j0, j1] of value cells; _row_counts counts
    the ranges of every (set, map) pair without marking them, with
    offsets r << K for the largest scale K so every value grid fits."""
    for X in sets:
        _check_dimension("map_image_counts", X, GridSet2D)
    sizes = [len(X) for X in sets]
    ks = [X.scale.k for X in sets]
    i, j = np.concatenate([np.zeros((2, 0), dtype=np.int64), *(X.indices() for X in sets)], axis=1)
    j0, j1 = _enclosure_pass(phis, i, j, np.repeat(np.array(ks, dtype=np.int64), sizes))
    m = len(phis)
    # Row s * m + r holds map r on set s.
    row = np.repeat(np.arange(len(sets), dtype=np.int64) * m, sizes) + np.arange(m, dtype=np.int64)[:, None]
    counts = iter(_row_counts(j0, j1, row, len(sets) * m, max(ks, default=0)))
    return [[next(counts) for _ in phis] for _ in sets]


def common_preimage_cells(phis: Sequence[SmoothMap2], values: GridSet1D, window: Rect) -> GridSet2D:
    """Cells of the grid at the value set's scale inside the window whose
    enclosure under every map meets some cell of the value set (with no
    maps, every window cell), from one enclosure pass over the window.

    The window is the product of its columns and its rows, and the pass
    takes it as one: the column indices as a column against the row
    indices as a row, so the per-axis part of a map's formula runs once
    per column and once per row, and only the rest once per window cell.
    It gives every window cell's range [j0, j1] of value cells under each
    map, an (m, columns, rows) array.  A range meets the set when the
    count of value cells up to j1 exceeds the count below j0; both counts
    are prefix sums of the set, read by binary search in its sorted
    cells, so memory does not grow with 2^k.
    """
    _check_dimension("common_preimage_cells", values, GridSet1D)
    scale = values.scale
    cols, rows = (np.arange(first, stop, dtype=np.int64) for first, stop in window_cells(window, scale))
    j0, j1 = _enclosure_pass(phis, cols[:, None], rows[None, :], scale.k)
    member = values.keys
    meets = np.searchsorted(member, j1, side="right") > np.searchsorted(member, j0, side="left")
    # Row-major over (column, row): the hits come column by column, in order.
    at_col, at_row = np.nonzero(meets.all(axis=0))
    return GridSet2D._from_keys(scale, cell_keys(cols[at_col], rows[at_row]))

