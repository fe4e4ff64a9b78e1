"""Planar geometric machinery on the dyadic grid.

Provides smooth planar maps with derivatives to third order (exact
polynomials, pinned distances, linear projections), Whitney-style
decompositions of regions presented as dyadic-square oracles, quadtree
band partitions pinning each tracked function into a dyadic value band
[v, 4v), coverings of thin neighborhoods of zero and level sets, the
Blaschke curvature of a 3-web of projection maps, and extraction of a
large Cartesian product from a 2D cell set by popularity pruning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .gridset import GridSet1D, GridSet2D, Scale, nonconcentration_exponent
from .gridset import cell_keys, range_union, value_cells
from .polyexpr import Interval, Poly, Rect, box_bounds, interval_range

WEDGE_FLOOR = 1e-8


class DegenerateGradientsError(ValueError):
    """Gradients pairwise too close to parallel for a 3-web evaluation."""


class NewtonConvergenceError(RuntimeError):
    """Local chart inversion failed to converge."""


# ---------------------------------------------------------------------------
# Smooth planar maps
# ---------------------------------------------------------------------------


class SmoothMap2:
    """A twice-plus differentiable planar map.

    Implementations expose the value, partial derivatives up to total
    order 3, and a sound interval enclosure of the range on a rectangle.
    Instances are immutable and shareable.

    enclosure_rects(x0, x1, y0, y1, den) is the batch form of enclosure:
    for integer corner arrays over one denominator (broadcasting like
    polyexpr.box_bounds) it returns integer arrays lo, hi and an integer
    scale with [lo/scale, hi/scale] == enclosure() of each rectangle.
    The arrays are int64 only when scale < 2^63.  The default loops over
    enclosure() and puts the ends over the lcm of their denominators;
    PolynomialMap overrides it with the integer kernel.

    enclosure_cells(i, j, k) is the array form of enclosure on the grid:
    for int arrays i, j of scale-k cells [i, i+1] x [j, j+1] (in units of
    2^-k) it returns int64 arrays (j0, j1) with j0 = floor(lo * 2^k) and
    j1 = floor(hi * 2^k), each clamped to [0, 2^k - 1], where [lo, hi] is
    enclosure() of the cell.  Every implementation must agree with
    enclosure() cell for cell.  The default maps the ends from
    enclosure_rects to cells with gridset.value_cells; maps whose
    enclosure is a float formula override it with numpy over the cell
    edges i * 2^-k, which are exact in float (see _FloatEnclosureMap).
    """

    def value(self, x: float, y: float) -> float:
        raise NotImplementedError

    def partial(self, x: float, y: float, ax: int, ay: int) -> float:
        """d^(ax+ay) / dx^ax dy^ay at (x, y); ax + ay <= 3."""
        raise NotImplementedError

    def enclosure(self, rect: Rect) -> Interval:
        raise NotImplementedError

    def enclosure_rects(self, x0, x1, y0, y1, den: int) -> Tuple[np.ndarray, np.ndarray, int]:
        """Exact integer enclosure ends of a batch of rectangles."""
        edges = np.broadcast_arrays(*(np.asarray(v) for v in (x0, x1, y0, y1)))
        encs = [
            self.enclosure(Rect(*(Fraction(v, den) for v in corners)))
            for corners in zip(*(e.ravel().tolist() for e in edges))
        ]
        scale = math.lcm(*(v.denominator for e in encs for v in (e.lo, e.hi)))

        def ints(values) -> np.ndarray:
            out = [v.numerator * (scale // v.denominator) for v in values]
            return np.array(out, dtype=object).reshape(edges[0].shape)

        return ints(e.lo for e in encs), ints(e.hi for e in encs), scale

    def enclosure_cells(self, i, j, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Clamped value-grid cells of the enclosure's ends on each cell."""
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        lo, hi, scale = self.enclosure_rects(i, i + 1, j, j + 1, 1 << k)
        return value_cells(lo, 0, scale, k), value_cells(hi, 0, scale, k)

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
    enclosure, and of the cells enclosure_cells cannot decide with np.hypot."""
    return np.fromiter(map(math.hypot, a.tolist(), b.tolist()), dtype=float, count=a.size)


class _FloatEnclosureMap(SmoothMap2):
    """A map whose enclosure is one float formula, _bounds, on the edges
    of a rectangle, evaluated elementwise over float arrays with its
    square roots taken by the hypot it is given.

    enclosure runs it on one rectangle with _hypot (math.hypot), and that
    defines the enclosure.  enclosure_cells runs it on whole cell arrays
    with np.hypot, which may differ from math.hypot in the last bit, as a
    filter: an end v can land in another cell than enclosure's only when
    v * 2^k lies within _EDGE_BAND * (1 + |hi|) * 2^k of an integer, with
    hi the cell's upper end.  Those cells are recomputed with _hypot;
    every other floor(v * 2^k) is certain.  A map whose formula takes no
    square root keeps _EDGE_BAND = 0 and flags nothing: numpy and Python
    floats round the same operations alike.
    """

    _EDGE_BAND = 0.0

    def _bounds(self, x0, x1, y0, y1, hypot) -> Tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def enclosure(self, rect: Rect) -> Interval:
        edges = (np.array([float(v)]) for v in (rect.x0, rect.x1, rect.y0, rect.y1))
        lo, hi = self._bounds(*edges, _hypot)
        return Interval(Fraction(float(lo[0])), Fraction(float(hi[0])))

    def enclosure_cells(self, i, j, k: int) -> Tuple[np.ndarray, np.ndarray]:
        d = 0.5**k
        x0 = np.asarray(i, dtype=float) * d
        y0 = np.asarray(j, dtype=float) * d
        n = 1 << k
        edges = (x0, x0 + d, y0, y0 + d)
        # v * 2^k is exact in float: scaling by a power of two is.
        lo, hi = (v * n for v in self._bounds(*edges, np.hypot))
        band = self._EDGE_BAND * (n + np.abs(hi))
        near = (np.abs(lo - np.rint(lo)) < band) | (np.abs(hi - np.rint(hi)) < band)
        if near.any():
            exact = self._bounds(*(e[near] for e in edges), _hypot)
            lo[near], hi[near] = (v * n for v in exact)
        return tuple(np.clip(np.floor(v), 0, n - 1).astype(np.int64) for v in (lo, hi))


class PolynomialMap(SmoothMap2):
    """Exact polynomial realization; derivatives and enclosures are exact."""

    def __init__(self, poly: Poly):
        if poly.variables != ("x", "y"):
            raise ValueError("PolynomialMap takes a bivariate polynomial")
        self.poly = poly
        self._partials = {(0, 0): poly}

    def _poly_partial(self, ax: int, ay: int) -> Poly:
        key = (ax, ay)
        if key not in self._partials:
            p = self.poly
            if ax:
                p = p.partial("x", ax)
            if ay:
                p = p.partial("y", ay)
            self._partials[key] = p
        return self._partials[key]

    def value(self, x: float, y: float) -> float:
        return self.poly.evaluate_float({"x": x, "y": y})

    def partial(self, x: float, y: float, ax: int, ay: int) -> float:
        return self._poly_partial(ax, ay).evaluate_float({"x": x, "y": y})

    def enclosure(self, rect: Rect) -> Interval:
        return interval_range(self.poly, rect)

    def enclosure_rects(self, x0, x1, y0, y1, den: int) -> Tuple[np.ndarray, np.ndarray, int]:
        return box_bounds(self.poly, x0, x1, y0, y1, den)

    @property
    def is_coordinate_x(self) -> bool:
        return self.poly.terms == {(1, 0): Fraction(1)}

    @property
    def is_coordinate_y(self) -> bool:
        return self.poly.terms == {(0, 1): Fraction(1)}


class PinnedDistance(_FloatEnclosureMap):
    """q -> |q - center|, smooth away from the pin.

    Derivatives are closed forms in u = x - cx, v = y - cy, r = |q - c|;
    the enclosure is the exact min/max distance from the pin to the
    rectangle with a tiny outward float pad.

    The filter band of enclosure_cells.  np.hypot (libm) and math.hypot
    each stay within an ulp of the true hypotenuse; over 2.7M grid inputs
    (k = 3..19, corner, centre and random pins) they differ by at most
    one ulp, on 0.5% of them.  Allow u = 2^-50, four ulps, relative, and
    write D = 1 + dmax:
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
    """

    _PAD = 1e-12
    _EDGE_BAND = 2.0**-40

    def __init__(self, center: Tuple[float, float]):
        self.center = (float(center[0]), float(center[1]))
        if not all(math.isfinite(c) for c in self.center):
            raise ValueError("the pin must be a finite point")

    def value(self, x: float, y: float) -> float:
        r = math.hypot(x - self.center[0], y - self.center[1])
        if r == 0.0:
            raise ValueError("pinned distance evaluated at its center")
        return r

    def partial(self, x: float, y: float, ax: int, ay: int) -> float:
        u = x - self.center[0]
        v = y - self.center[1]
        r = math.hypot(u, v)
        if r == 0.0:
            raise ValueError("pinned distance evaluated at its center")
        order = (ax, ay)
        if order == (0, 0):
            return r
        r3 = r * r * r
        r5 = r3 * r * r
        table = {
            (1, 0): u / r,
            (0, 1): v / r,
            (2, 0): v * v / r3,
            (1, 1): -u * v / r3,
            (0, 2): u * u / r3,
            (3, 0): -3 * u * v * v / r5,
            (2, 1): v * (2 * u * u - v * v) / r5,
            (1, 2): u * (2 * v * v - u * u) / r5,
            (0, 3): -3 * u * u * v / r5,
        }
        if order not in table:
            raise ValueError("derivatives available up to total order 3")
        return table[order]

    def _bounds(self, x0, x1, y0, y1, hypot):
        cx, cy = self.center
        dx = np.maximum(np.maximum(x0 - cx, 0.0), cx - x1)
        dy = np.maximum(np.maximum(y0 - cy, 0.0), cy - y1)
        dmin = hypot(dx, dy)
        dmax = hypot(
            np.maximum(np.abs(x0 - cx), np.abs(x1 - cx)),
            np.maximum(np.abs(y0 - cy), np.abs(y1 - cy)),
        )
        pad = self._PAD * (1.0 + dmax)
        return np.maximum(dmin - pad, 0.0), dmax + pad


class LinearProjection(_FloatEnclosureMap):
    """q -> x cos(theta) + y sin(theta)."""

    def __init__(self, theta: float):
        self.theta = float(theta)
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")
        self.cos = math.cos(self.theta)
        self.sin = math.sin(self.theta)

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

    def _bounds(self, x0, x1, y0, y1, hypot):
        corners = [x * self.cos + y * self.sin for x in (x0, x1) for y in (y0, y1)]
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
        limit = 2**self.depth
        if self.depth < 0 or not (0 <= self.i < limit and 0 <= self.j < limit):
            raise ValueError("dyadic square out of range")

    def rect(self) -> Rect:
        side = Fraction(1, 2**self.depth)
        return Rect(self.i * side, (self.i + 1) * side, self.j * side, (self.j + 1) * side)


@dataclass(frozen=True)
class CubeDecomposition:
    """Interior-disjoint dyadic squares with optional per-cube band data.

    bands[c][f] is the pinned value v with v <= |f| < 4v on cube c for
    tracked function f (empty tuple when no functions are tracked).
    flagged marks cubes emitted without their geometric certificate.
    leftover holds the uncovered delta-cells.
    """

    cubes: Tuple[DyadicSquare, ...]
    bands: Tuple[Tuple[Fraction, ...], ...]
    flagged: frozenset
    leftover: GridSet2D
    a_leftover_fraction: Optional[float] = None


def format_cube_decomposition(decomp: CubeDecomposition) -> str:
    lines = []
    for idx, cube in enumerate(decomp.cubes):
        parts = [f"cube k={cube.depth} i={cube.i} j={cube.j}"]
        for fidx, v in enumerate(decomp.bands[idx]):
            parts.append(f"band j={fidx} v={v}")
        if idx in decomp.flagged:
            parts.append("flagged")
        lines.append(" ".join(parts))
    text = "\n".join(lines)
    from .gridset import format_gridset

    return (text + "\n" if text else "") + format_gridset(decomp.leftover)


def _parse_cube_line(tokens: List[str]) -> Tuple[DyadicSquare, Tuple[Fraction, ...], bool]:
    fields = dict(t.split("=", 1) for t in tokens[1:4] if "=" in t)
    if tokens[0] != "cube" or set(fields) != {"k", "i", "j"}:
        raise ValueError("expected 'cube k=<depth> i=<i> j=<j>'")
    cube = DyadicSquare(int(fields["k"]), int(fields["i"]), int(fields["j"]))
    values = []
    flagged = False
    rest = iter(tokens[4:])
    for tok in rest:
        if tok == "flagged":
            flagged = True
        elif tok == "band":
            index, value = next(rest, ""), next(rest, "")
            # Bands are stored in order, so the j=<idx> field is not kept.
            if not (index.startswith("j=") and value.startswith("v=")):
                raise ValueError("a band needs 'j=<idx> v=<rational>'")
            values.append(Fraction(value[2:]))
        else:
            raise ValueError(f"unknown token {tok!r}")
    return cube, tuple(values), flagged


def parse_cube_decomposition(text: str) -> CubeDecomposition:
    """Inverse of format_cube_decomposition; malformed text raises
    ValueError naming the offending line."""
    from .gridset import parse_gridset

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
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad cube line {ln!r}: {exc}") from None
        cubes.append(cube)
        bands.append(values)
        if is_flagged:
            flagged.add(len(cubes) - 1)
    leftover = parse_gridset("\n".join(grid_lines))
    if not isinstance(leftover, GridSet2D):
        raise ValueError("leftover block must be a gridset2d")
    return CubeDecomposition(tuple(cubes), tuple(bands), frozenset(flagged), leftover)


# ---------------------------------------------------------------------------
# Whitney decomposition
# ---------------------------------------------------------------------------


class Region(Enum):
    INSIDE = "inside"
    OUTSIDE = "outside"
    BOUNDARY = "boundary"


RegionOracle = Callable[[DyadicSquare], Region]


class DyadicRegion:
    """A region oracle with a batch form.

    classify(depth, i, j) answers for the squares (depth, i, j) of the
    int arrays i, j at once, as boolean arrays (inside, outside); a
    BOUNDARY square is neither.  The default loops over __call__;
    PolynomialSignRegion overrides it with the integer enclosure kernel.
    """

    def __call__(self, square: DyadicSquare) -> Region:
        raise NotImplementedError

    def classify(self, depth: int, i, j) -> Tuple[np.ndarray, np.ndarray]:
        answers = [
            self(DyadicSquare(depth, a, b))
            for a, b in zip(np.asarray(i).tolist(), np.asarray(j).tolist())
        ]
        return (
            np.array([r is Region.INSIDE for r in answers], dtype=bool),
            np.array([r is Region.OUTSIDE for r in answers], dtype=bool),
        )


class FullSquareRegion(DyadicRegion):
    """The whole open unit square (the ambient boundary is not held
    against membership; only dilates exiting the ambient count as exits)."""

    def __call__(self, square: DyadicSquare) -> Region:
        return Region.INSIDE


class PuncturedSquareRegion(DyadicRegion):
    """Unit square minus one point (given in exact coordinates)."""

    def __init__(self, point=(Fraction(1, 2), Fraction(1, 2))):
        self.point = (Fraction(point[0]), Fraction(point[1]))

    def __call__(self, square: DyadicSquare) -> Region:
        r = square.rect()
        px, py = self.point
        if r.x0 <= px <= r.x1 and r.y0 <= py <= r.y1:
            return Region.BOUNDARY
        return Region.INSIDE


class PolynomialSignRegion(DyadicRegion):
    """Omega = {P > 0} (or {P < 0}), decided by interval enclosures."""

    def __init__(self, poly: Poly, positive: bool = True):
        self.poly = poly
        self.positive = positive

    def __call__(self, square: DyadicSquare) -> Region:
        enc = interval_range(self.poly, square.rect())
        lo, hi = (enc.lo, enc.hi) if self.positive else (-enc.hi, -enc.lo)
        if lo > 0:
            return Region.INSIDE
        if hi <= 0:
            return Region.OUTSIDE
        return Region.BOUNDARY

    def classify(self, depth: int, i, j) -> Tuple[np.ndarray, np.ndarray]:
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        lo, hi, _ = box_bounds(self.poly, i, i + 1, j, j + 1, 1 << depth)
        if not self.positive:
            lo, hi = -hi, -lo
        return lo > 0, hi <= 0


def _blocks(i: np.ndarray, j: np.ndarray, factor: int, offsets: np.ndarray):
    """Squares (factor i + a, factor j + b) for a, b in offsets, listed
    square by square: with factor 2 and offsets 0, 1 the children of each
    (i, j), with offsets -1..2 its dilate one level down."""
    bi, bj = np.broadcast_arrays(
        (factor * i)[:, None, None] + offsets[:, None], (factor * j)[:, None, None] + offsets
    )
    return bi.ravel(), bj.ravel()


_CHILDREN = np.arange(2)
_DILATE = np.arange(-1, 3)


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
    is asked square by square through DyadicRegion.classify.  Cubes are
    listed by (depth, i, j).
    """
    if not 1 <= k_max <= 30:
        raise ValueError("k_max must lie in [1, 30]")
    classify = (
        omega.classify if isinstance(omega, DyadicRegion) else partial(DyadicRegion.classify, omega)
    )
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
        cubes += [DyadicSquare(depth, a, b) for a, b in zip(ci.tolist(), cj.tolist())]
        flags.append(~exits)
        inside, outside = ins[: i.size], outs[: i.size]
    return CubeDecomposition(
        tuple(cubes),
        tuple(() for _ in cubes),
        frozenset(np.flatnonzero(np.concatenate(flags)).tolist()),
        GridSet2D._from_keys(Scale(k_max), leftover),
    )


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
    scale: Scale,
    A: GridSet2D,
) -> CubeDecomposition:
    """Quadtree partition pinning every |f_j| into a band [v, 4v), v >= delta^w.

    A square is accepted when, for every tracked function, the interval
    enclosure of |f_j| has lower end at least delta^w and upper end
    strictly below four times the lower end; the pinned value is the
    lower end.  Squares whose enclosure tops out below delta^w can never
    be accepted and join the leftover; everything else splits until the
    delta-cells, where unresolved cells also join the leftover.  The
    fraction of A's cells landing in the leftover is reported.

    The quadtree is walked one depth at a time, with one enclosure_rects
    call per tracked function per depth; the functions are tried in
    order and a square leaves the level at the first one that rejects
    it.  Cubes are listed in the pre-order of the recursive walk (by
    Morton key of their corner).
    """
    if not math.isfinite(w):
        raise ValueError(f"w must be finite, got {w}")
    if w <= 0:
        raise ValueError("w must be positive")
    if A.scale != scale:
        raise ValueError("A must live at the partition scale")
    k = scale.k
    threshold = Fraction(2.0 ** (-k * w))

    accepted = []  # per depth: i, j and each function's (pinned ends, scale)
    left_i, left_j = [], []
    i = j = np.zeros(1, dtype=np.int64)
    for depth in range(k + 1):
        pinned = np.arange(i.size)  # squares every function so far pins
        dead = np.zeros(i.size, dtype=bool)
        lows = []
        for f in fs:
            a, b = i[pinned], j[pinned]
            lo, hi, f_scale = f.enclosure_rects(a, a + 1, b, b + 1, 1 << depth)
            # The ends of the enclosure of |f| (Interval.abs_interval).
            up, down = lo >= 0, hi <= 0
            alo = np.where(up, lo, np.where(down, -hi, 0))
            ahi = np.where(up, hi, np.where(down, -lo, np.maximum(-lo, hi)))
            # For an integer v, v/scale < threshold iff v < ceil(threshold*scale).
            floor_at = math.ceil(threshold * f_scale)
            dead[pinned[ahi < floor_at]] = True
            keep = (alo >= floor_at) & (ahi // 4 < alo)
            pinned = pinned[keep]
            lows = [(v[keep], sc) for v, sc in lows] + [(alo[keep], f_scale)]
        accepted.append((i[pinned], j[pinned], lows))
        if dead.any():  # a dead square's delta-cells all join the leftover
            span = 1 << (k - depth)
            li, lj = _blocks(i[dead], j[dead], span, np.arange(span))
            left_i.append(li)
            left_j.append(lj)
        split = ~dead
        split[pinned] = False
        if depth == k:
            left_i.append(i[split])
            left_j.append(j[split])
        else:
            i, j = _blocks(i[split], j[split], 2, _CHILDREN)

    cubes = []
    bands = []
    for depth, (ci, cj, lows) in enumerate(accepted):
        cubes += [DyadicSquare(depth, a, b) for a, b in zip(ci.tolist(), cj.tolist())]
        bands += [
            tuple(Fraction(int(v[n]), f_scale) for v, f_scale in lows) for n in range(ci.size)
        ]
    corners = [(c.i << (k - c.depth), c.j << (k - c.depth)) for c in cubes]
    order = np.argsort(_morton(*np.array(corners, dtype=np.int64).reshape(-1, 2).T, k))
    leftover = GridSet2D._from_keys(
        scale, np.sort(cell_keys(np.concatenate(left_i), np.concatenate(left_j)))
    )
    in_leftover = int(np.isin(A.keys, leftover.keys).sum())
    fraction = in_leftover / len(A.cells) if A.cells else 0.0
    return CubeDecomposition(
        tuple(cubes[n] for n in order),
        tuple(bands[n] for n in order),
        frozenset(),
        leftover,
        fraction,
    )


# ---------------------------------------------------------------------------
# Neighborhood coverings and level selection
# ---------------------------------------------------------------------------


ProductSet = Tuple[GridSet1D, GridSet1D]


def _inflation(A: Union[GridSet2D, ProductSet], s) -> Fraction:
    """s as an exact rational, checked to lie in [delta, 1]."""
    delta = A.scale.delta if isinstance(A, GridSet2D) else A[0].scale.delta
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
    return _level_covering(phi, A, _inflation(A, s), [Fraction(0)])[0]


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
    s = _inflation(A, s)
    if not 0 < kappa <= 1:
        raise ValueError("kappa must lie in (0, 1]")
    if not (float(s) ** (kappa / 2) < t0 <= 0.5):
        raise ValueError("need s^(kappa/2) < t0 <= 1/2")
    n = math.ceil(float(s) ** (-kappa / 2))
    if n == 1:
        candidates = [Fraction(t0)]
    else:
        t0f = Fraction(t0)
        candidates = [t0f + Fraction(i, n - 1) * t0f for i in range(n)]
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
    return grads


def _chart_curvature(phi3: SmoothMap2, x: float, y: float) -> float:
    """Curvature in the chart phi1 = x, phi2 = y:
    2 * M / (P_x P_y)^2 with M the degeneracy numerator of P = phi3."""
    if isinstance(phi3, PolynomialMap):
        from .polyexpr import mp_numerator

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


def _newton_invert(phi1, phi2, target, start, tol=1e-13, max_iter=60):
    x, y = start
    for _ in range(max_iter):
        f1 = phi1.value(x, y) - target[0]
        f2 = phi2.value(x, y) - target[1]
        if abs(f1) < tol and abs(f2) < tol:
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
    step: float = 1e-4,
) -> float:
    """Coefficient of the 3-web curvature form 2 d/dphi1 d/dphi2
    log((dphi3/dphi1) / (dphi3/dphi2)) dphi1 ^ dphi2 at p.

    method 'chart' requires phi1 = x and phi2 = y and uses the closed
    form (exact rational arithmetic when phi3 is polynomial); 'newton'
    inverts the chart (phi1, phi2) on a four-point stencil of half-width
    step (nonzero and finite) and takes a centered mixed difference;
    'auto' picks 'chart' when applicable.
    """
    x, y = float(p[0]), float(p[1])
    _check_gradients((phi1, phi2, phi3), x, y)
    if method == "auto":
        method = (
            "chart" if phi1.is_coordinate_x and phi2.is_coordinate_y else "newton"
        )
    if method == "chart":
        if not (phi1.is_coordinate_x and phi2.is_coordinate_y):
            raise ValueError("chart method needs phi1 = x and phi2 = y")
        return _chart_curvature(phi3, x, y)
    if method != "newton":
        raise ValueError(f"unknown method {method!r}")

    h = float(step)
    if h == 0.0 or not math.isfinite(h):
        raise ValueError(f"step must be a nonzero finite number, got {step!r}")
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
    if not X.cells:
        raise ValueError("extract_product needs a nonempty set")
    edges = set(X.cells)
    cols = {i for i, _ in edges}
    rows = {j for _, j in edges}
    col_threshold = len(edges) / (4.0 * len(cols))
    row_threshold = len(edges) / (4.0 * len(rows))

    rounds = 0
    while True:
        col_deg: dict = {}
        row_deg: dict = {}
        for i, j in edges:
            col_deg[i] = col_deg.get(i, 0) + 1
            row_deg[j] = row_deg.get(j, 0) + 1
        bad_cols = {i for i in cols if col_deg.get(i, 0) < col_threshold}
        bad_rows = {j for j in rows if row_deg.get(j, 0) < row_threshold}
        if not bad_cols and not bad_rows:
            break
        rounds += 1
        cols -= bad_cols
        rows -= bad_rows
        edges = {(i, j) for i, j in edges if i in cols and j in rows}

    scale = X.scale
    A = GridSet1D.from_cells(scale, cols)
    B = GridSet1D.from_cells(scale, rows)
    k = scale.k
    alpha_a = math.log2(max(1, len(A.cells))) / k
    alpha_b = math.log2(max(1, len(B.cells))) / k
    eta_a = (
        nonconcentration_exponent(A, max(alpha_a, 1e-9), alpha_a).eta if A.cells else 0.0
    )
    eta_b = (
        nonconcentration_exponent(B, max(alpha_b, 1e-9), alpha_b).eta if B.cells else 0.0
    )
    report = ExtractionReport(
        x_count=len(X.cells),
        intersection_count=len(edges),
        ratio=len(edges) / len(X.cells),
        rounds=rounds,
        col_threshold=col_threshold,
        row_threshold=row_threshold,
        alpha_a=alpha_a,
        alpha_b=alpha_b,
        eta_a=eta_a,
        eta_b=eta_b,
    )
    return A, B, report


# ---------------------------------------------------------------------------
# Images and preimages of smooth maps over cell sets
# ---------------------------------------------------------------------------


def map_image(phi: SmoothMap2, X: GridSet2D) -> GridSet1D:
    """Output cells on the [0, 1] value grid met by phi's enclosure on
    some cell of X (values are clamped into [0, 1]).

    One enclosure_cells call gives every cell's range [j0, j1] of value
    cells; the image is the sorted union of those ranges.
    """
    j0, j1 = phi.enclosure_cells(*X.indices(), X.scale.k)
    return GridSet1D._from_keys(X.scale, range_union(j0, j1))


def preimage_cells(
    phi: SmoothMap2, values: GridSet1D, window: Rect, scale: Scale
) -> GridSet2D:
    """Cells of the scale grid inside the window whose phi-enclosure meets
    some cell of the value set.

    One enclosure_cells call gives every window cell's range [j0, j1] of
    value cells.  A range meets the set when the count of value cells up
    to j1 exceeds the count below j0; both counts are prefix sums of the
    set, read by binary search in its sorted cells, so memory does not
    grow with 2^k.
    """
    if values.scale != scale:
        raise ValueError("value set must live at the target scale")
    d = scale.delta
    cols = np.arange(math.ceil(window.x0 / d), math.floor(window.x1 / d), dtype=np.int64)
    rows = np.arange(math.ceil(window.y0 / d), math.floor(window.y1 / d), dtype=np.int64)
    i = np.repeat(cols, rows.size)
    j = np.tile(rows, cols.size)
    j0, j1 = phi.enclosure_cells(i, j, scale.k)
    member = values.keys
    hit = np.searchsorted(member, j1, side="right") > np.searchsorted(member, j0, side="left")
    # The window is scanned column by column, so the hits are in order.
    return GridSet2D._from_keys(scale, cell_keys(i[hit], j[hit]))
