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
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .gridset import GridSet1D, GridSet2D, Scale, nonconcentration_exponent, range_union
from .polyexpr import Interval, Poly, Rect, interval_range

WEDGE_FLOOR = 1e-8


class DegenerateGradientsError(ValueError):
    """Gradients pairwise too close to parallel for a 3-web evaluation."""


class NewtonConvergenceError(RuntimeError):
    """Local chart inversion failed to converge."""


# ---------------------------------------------------------------------------
# Smooth planar maps
# ---------------------------------------------------------------------------


class SmoothMap2:
    """A twice-plus differentiable planar map on a rectangular domain.

    Implementations expose the value, partial derivatives up to total
    order 3, and a sound interval enclosure of the range on a rectangle.
    Instances are immutable and shareable.

    enclosure_cells(i, j, k) is the array form of enclosure on the grid:
    for int arrays i, j of scale-k cells [i, i+1] x [j, j+1] (in units of
    2^-k) it returns int64 arrays (j0, j1) with j0 = floor(lo * 2^k) and
    j1 = floor(hi * 2^k), each clamped to [0, 2^k - 1], where [lo, hi] is
    enclosure() of the cell.  Every implementation must agree with
    enclosure() cell for cell.  The default loops over enclosure(); maps
    whose enclosure is a float formula override it with numpy over the
    cell edges i * 2^-k, which are exact in float.  Such a formula must
    give bit-identical floats elementwise and on one rectangle, so a
    square root goes through math.hypot (see _hypot): np.hypot and
    np.sqrt(dx*dx + dy*dy) differ from it in the last bit on some
    grid-aligned inputs.
    """

    domain: Rect = Rect.of(0, 1, 0, 1)

    def value(self, x: float, y: float) -> float:
        raise NotImplementedError

    def partial(self, x: float, y: float, ax: int, ay: int) -> float:
        """d^(ax+ay) / dx^ax dy^ay at (x, y); ax + ay <= 3."""
        raise NotImplementedError

    def enclosure(self, rect: Rect) -> Interval:
        raise NotImplementedError

    def enclosure_cells(self, i, j, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Clamped value-grid cells of the enclosure's ends on each cell."""
        n = 1 << k
        d = Fraction(1, n)
        j0, j1 = [], []
        for a, b in zip(np.asarray(i).tolist(), np.asarray(j).tolist()):
            enc = self.enclosure(Rect(a * d, (a + 1) * d, b * d, (b + 1) * d))
            j0.append(min(max(math.floor(enc.lo * n), 0), n - 1))
            j1.append(min(max(math.floor(enc.hi * n), 0), n - 1))
        return np.array(j0, dtype=np.int64), np.array(j1, dtype=np.int64)

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
    """Elementwise math.hypot, the one square root the float enclosures use."""
    return np.fromiter(map(math.hypot, a.tolist(), b.tolist()), dtype=float, count=a.size)


class _FloatEnclosureMap(SmoothMap2):
    """A map whose enclosure is one float formula, _bounds, on the edges
    of a rectangle, evaluated elementwise over float arrays.  enclosure
    runs it on one rectangle and enclosure_cells on whole cell arrays, so
    the two cannot disagree."""

    def _bounds(self, x0, x1, y0, y1) -> Tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def enclosure(self, rect: Rect) -> Interval:
        edges = (np.array([float(v)]) for v in (rect.x0, rect.x1, rect.y0, rect.y1))
        lo, hi = self._bounds(*edges)
        return Interval(Fraction(float(lo[0])), Fraction(float(hi[0])))

    def enclosure_cells(self, i, j, k: int) -> Tuple[np.ndarray, np.ndarray]:
        d = 0.5**k
        x0 = np.asarray(i, dtype=float) * d
        y0 = np.asarray(j, dtype=float) * d
        n = 1 << k
        # floor(v * 2^k) is exact in float: scaling by a power of two is.
        return tuple(
            np.clip(np.floor(v * n), 0, n - 1).astype(np.int64)
            for v in self._bounds(x0, x0 + d, y0, y0 + d)
        )


class PolynomialMap(SmoothMap2):
    """Exact polynomial realization; derivatives and enclosures are exact."""

    def __init__(self, poly: Poly, domain: Rect = Rect.of(0, 1, 0, 1)):
        if poly.variables != ("x", "y"):
            raise ValueError("PolynomialMap takes a bivariate polynomial")
        self.poly = poly
        self.domain = domain
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
    """

    _PAD = 1e-12

    def __init__(self, center: Tuple[float, float], domain: Rect = Rect.of(0, 1, 0, 1)):
        self.center = (float(center[0]), float(center[1]))
        if not all(math.isfinite(c) for c in self.center):
            raise ValueError("the pin must be a finite point")
        self.domain = domain

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

    def _bounds(self, x0, x1, y0, y1):
        cx, cy = self.center
        dx = np.maximum(np.maximum(x0 - cx, 0.0), cx - x1)
        dy = np.maximum(np.maximum(y0 - cy, 0.0), cy - y1)
        dmin = _hypot(dx, dy)
        dmax = _hypot(
            np.maximum(np.abs(x0 - cx), np.abs(x1 - cx)),
            np.maximum(np.abs(y0 - cy), np.abs(y1 - cy)),
        )
        pad = self._PAD * (1.0 + dmax)
        return np.maximum(dmin - pad, 0.0), dmax + pad


class LinearProjection(_FloatEnclosureMap):
    """q -> x cos(theta) + y sin(theta)."""

    def __init__(self, theta: float, domain: Rect = Rect.of(0, 1, 0, 1)):
        self.theta = float(theta)
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")
        self.cos = math.cos(self.theta)
        self.sin = math.sin(self.theta)
        self.domain = domain

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

    def _bounds(self, x0, x1, y0, y1):
        corners = [x * self.cos + y * self.sin for x in (x0, x1) for y in (y0, y1)]
        return np.minimum.reduce(corners), np.maximum.reduce(corners)

    @property
    def is_coordinate_x(self) -> bool:
        return self.cos == 1.0 and self.sin == 0.0

    @property
    def is_coordinate_y(self) -> bool:
        return self.sin == 1.0 and self.cos == 0.0


def pinned_distance_map(center: Tuple[float, float]) -> PinnedDistance:
    return PinnedDistance(center)


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

    def children(self) -> Tuple["DyadicSquare", ...]:
        d, i, j = self.depth + 1, 2 * self.i, 2 * self.j
        return (
            DyadicSquare(d, i, j),
            DyadicSquare(d, i + 1, j),
            DyadicSquare(d, i, j + 1),
            DyadicSquare(d, i + 1, j + 1),
        )

    def delta_cells(self, k: int) -> Iterable[Tuple[int, int]]:
        """All scale-k cells inside the square (k >= depth)."""
        span = 1 << (k - self.depth)
        i0, j0 = self.i * span, self.j * span
        for i in range(i0, i0 + span):
            for j in range(j0, j0 + span):
                yield (i, j)


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


class FullSquareRegion:
    """The whole open unit square (the ambient boundary is not held
    against membership; only dilates exiting the ambient count as exits)."""

    def __call__(self, square: DyadicSquare) -> Region:
        return Region.INSIDE


class PuncturedSquareRegion:
    """Unit square minus one point (given in exact coordinates)."""

    def __init__(self, point=(Fraction(1, 2), Fraction(1, 2))):
        self.point = (Fraction(point[0]), Fraction(point[1]))

    def __call__(self, square: DyadicSquare) -> Region:
        r = square.rect()
        px, py = self.point
        if r.x0 <= px <= r.x1 and r.y0 <= py <= r.y1:
            return Region.BOUNDARY
        return Region.INSIDE


class PolynomialSignRegion:
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


def _dilate_exits(square: DyadicSquare, oracle: RegionOracle) -> bool:
    """True when the concentric 2-fold dilate 2Q is not contained in the
    region: either 2Q clips the ambient unit square, or one of its
    constituent half-depth dyadic squares is not answered INSIDE."""
    d = square.depth
    if d == 0:
        return True  # the dilate of the root always exits the ambient
    limit = 2 ** (d + 1)
    base_i, base_j = 2 * square.i - 1, 2 * square.j - 1
    for di in range(4):
        for dj in range(4):
            i, j = base_i + di, base_j + dj
            if not (0 <= i < limit and 0 <= j < limit):
                return True  # clipping at the ambient boundary counts as exiting
            if oracle(DyadicSquare(d + 1, i, j)) is not Region.INSIDE:
                return True
    return False


def whitney_decompose(omega: RegionOracle, k_max: int) -> CubeDecomposition:
    """Dyadic squares Q inside the region whose 2-fold dilate exits it.

    BOUNDARY squares are refined until k_max; the unresolved delta-cells
    at k_max form the leftover.  An INSIDE square whose dilate stays
    interior can have no descendant with an exiting dilate (concentric
    dilates nest), so it is emitted immediately and flagged rather than
    refined to k_max.
    """
    if not 1 <= k_max <= 30:
        raise ValueError("k_max must lie in [1, 30]")
    cubes = []
    flagged = set()
    leftover = []

    stack = [DyadicSquare(0, 0, 0)]
    while stack:
        square = stack.pop()
        answer = omega(square)
        if answer is Region.OUTSIDE:
            continue
        if answer is Region.INSIDE:
            cubes.append(square)
            if not _dilate_exits(square, omega):
                flagged.add(len(cubes) - 1)
            continue
        if square.depth >= k_max:
            leftover.append((square.i, square.j))
            continue
        stack.extend(square.children())

    order = sorted(range(len(cubes)), key=lambda n: (cubes[n].depth, cubes[n].i, cubes[n].j))
    ordered_cubes = tuple(cubes[n] for n in order)
    ordered_flags = frozenset(order.index(n) for n in flagged)
    return CubeDecomposition(
        ordered_cubes,
        tuple(() for _ in ordered_cubes),
        ordered_flags,
        GridSet2D.from_cells(Scale(k_max), leftover),
    )


# ---------------------------------------------------------------------------
# Band partition
# ---------------------------------------------------------------------------


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
    """
    if w <= 0:
        raise ValueError("w must be positive")
    if A.scale != scale:
        raise ValueError("A must live at the partition scale")
    k = scale.k
    threshold = Fraction(2.0 ** (-k * w))

    cubes = []
    bands = []
    leftover_cells = []

    def visit(square: DyadicSquare):
        lows = []
        split = False
        for f in fs:
            enc = f.enclosure(square.rect()).abs_interval()
            if enc.hi < threshold:
                leftover_cells.extend(square.delta_cells(k))
                return
            if enc.lo < threshold or enc.hi >= 4 * enc.lo:
                split = True
                break
            lows.append(enc.lo)
        if not split:
            cubes.append(square)
            bands.append(tuple(lows))
            return
        if square.depth >= k:
            leftover_cells.append((square.i, square.j))
            return
        for child in square.children():
            visit(child)

    visit(DyadicSquare(0, 0, 0))

    leftover = GridSet2D.from_cells(scale, leftover_cells)
    leftover_set = set(leftover.cells)
    in_leftover = sum(1 for c in A.cells if c in leftover_set)
    fraction = in_leftover / len(A.cells) if A.cells else 0.0
    return CubeDecomposition(
        tuple(cubes), tuple(bands), frozenset(), leftover, fraction
    )


# ---------------------------------------------------------------------------
# Neighborhood coverings and level selection
# ---------------------------------------------------------------------------


ProductSet = Tuple[GridSet1D, GridSet1D]


def _iter_cells(A: Union[GridSet2D, ProductSet]):
    if isinstance(A, GridSet2D):
        d = A.scale.delta
        for i, j in A.cells:
            yield Rect(i * d, (i + 1) * d, j * d, (j + 1) * d)
    else:
        G1, G2 = A
        if G1.scale != G2.scale:
            raise ValueError("product factors must share a scale")
        d = G1.scale.delta
        for i in G1.cells:
            x0, x1 = i * d, (i + 1) * d
            for j in G2.cells:
                yield Rect(x0, x1, j * d, (j + 1) * d)


def _level_covering(phi: SmoothMap2, A, s, t) -> int:
    s = Fraction(s)
    t = Fraction(t)
    count = 0
    for rect in _iter_cells(A):
        enc = phi.enclosure(rect.inflate(s))
        if enc.lo <= t <= enc.hi:
            count += 1
    return count


def zero_nbhd_covering(phi: SmoothMap2, A, s) -> int:
    """Delta-cells of A meeting the s-neighborhood of the zero set of phi.

    Decided per cell by whether the enclosure of phi on the s-inflated
    cell contains zero; inflation is by s in each axis, a sound
    over-approximation of the Euclidean neighborhood.
    """
    if isinstance(A, GridSet2D):
        delta = A.scale.delta
    else:
        delta = A[0].scale.delta
    s = Fraction(s)
    if not delta <= s <= 1:
        raise ValueError("s must lie in [delta, 1]")
    return _level_covering(phi, A, s, 0)


@dataclass(frozen=True)
class SelectedLevel:
    t: float
    count: int


def select_level(
    phi: SmoothMap2, A: ProductSet, s: float, t0: float, kappa: float
) -> SelectedLevel:
    """Scan ceil(s^(-kappa/2)) levels t in [t0, 2 t0] and return the one
    whose s-neighborhood {phi = t} meets the fewest cells of A
    (ties resolved toward the smaller t)."""
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
    best = None
    for t in candidates:
        count = _level_covering(phi, A, s, t)
        if best is None or count < best.count:
            best = SelectedLevel(float(t), count)
    return best


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
    inverts the chart (phi1, phi2) on a four-point stencil and takes a
    centered mixed difference; 'auto' picks 'chart' when applicable.
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

    u0 = phi1.value(x, y)
    v0 = phi2.value(x, y)
    h = float(step)
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
    px_enclosure: Tuple[float, float]
    py_enclosure: Tuple[float, float]


def extract_product(
    X: GridSet2D, P: SmoothMap2
) -> Tuple[GridSet1D, GridSet1D, ExtractionReport]:
    """Popularity pruning of the bipartite cell graph of X.

    Columns (x-cells) and rows (y-cells) with degree below a quarter of
    the initial average degree are deleted, in simultaneous rounds with
    the thresholds fixed from the input, until a fixed point.  Every
    deletion removes fewer edges than its threshold, so the surviving
    product A x B keeps at least half of X.  The report records measured
    non-concentration exponents of the factors and enclosure bounds on
    |P_x| and |P_y| over the unit square.
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
    unit = Rect.of(0, 1, 0, 1)
    if isinstance(P, PolynomialMap):
        px_enc = interval_range(P.poly.partial("x"), unit).abs_interval()
        py_enc = interval_range(P.poly.partial("y"), unit).abs_interval()
        px_bounds = (float(px_enc.lo), float(px_enc.hi))
        py_bounds = (float(py_enc.lo), float(py_enc.hi))
    else:
        px_bounds = (float("nan"), float("nan"))
        py_bounds = (float("nan"), float("nan"))
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
        px_enclosure=px_bounds,
        py_enclosure=py_bounds,
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
    cells = np.array(X.cells, dtype=np.int64).reshape(-1, 2)
    j0, j1 = phi.enclosure_cells(cells[:, 0], cells[:, 1], X.scale.k)
    return GridSet1D(X.scale, tuple(range_union(j0, j1).tolist()))


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
    member = np.array(values.cells, dtype=np.int64)
    hit = np.searchsorted(member, j1, side="right") > np.searchsorted(member, j0, side="left")
    # The window is scanned column by column, so the hits are in order.
    return GridSet2D(scale, tuple(zip(i[hit].tolist(), j[hit].tolist())))
