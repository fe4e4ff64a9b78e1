"""Discretized sets on the dyadic grid and their quantitative measurements.

Sets live at a scale delta = 2^-k as collections of dyadic cells (indices
in [0, 2^k)).  Cell membership is half-open [j*2^-k, (j+1)*2^-k); interval
computations against cells use the closed cell, so every counting routine
over-approximates deterministically.

A grid set holds its cells twice: as the public cells tuple, which
equality, hashing and the file format use, and as keys, a sorted,
read-only int64 array (the cells in 1-D; i << 32 | j in 2-D, which sorts
like the (i, j) tuples).  Kernels read and build the keys: the private
constructor _from_keys checks a key array with numpy (strictly
increasing, every index in [0, 2^k)) and keeps it, so the per-cell loop
of the tuple constructor runs only for sets built from tuples, whose
keys are made on first use.

Measurements: covering numbers at coarser scales, non-concentration
exponents over the dyadic interval tree, image sets P(A, B) through sound
interval enclosures, collision ("energy") counts of value quadruples
P(x, y) = P(xp, yp), and least-squares scaling exponents across a ladder
of scales.

Image sets and energies read one table, ProductBounds(P, A, B): the
enclosure of P on every cell product from polyexpr.box_bounds, as exact
integers over a common scale, with the cells broadcast as (m, 1) x
(1, n).  A caller that wants both the image and the energy of one P on
one A x B builds the table once and reads both from it; image_set and
energy_count build a table each.  Energies are counted by sorting
the lower ends and binary-searching the upper ends; value_cells turns
integer ends into clamped value-grid cells by exact floor division, for
image sets here and for smooth maps in geomdecomp.
energy_count_brute_force stays on the Fraction enclosures of
polyexpr.interval_range as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor, gcd, isfinite, log2
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from .polyexpr import Poly, Rect, box_bounds, interval_range, unit_square_range

MAX_SCALE = 30


@dataclass(frozen=True)
class Scale:
    """Dyadic scale delta = 2^-k."""

    k: int

    def __post_init__(self):
        if not 1 <= self.k <= MAX_SCALE:
            raise ValueError(f"scale k must satisfy 1 <= k <= {MAX_SCALE}")

    @property
    def delta(self) -> Fraction:
        return Fraction(1, 2**self.k)

    @property
    def cells(self) -> int:
        return 2**self.k


_LOW = 0xFFFFFFFF


def cell_keys(i, j):
    """The keys i << 32 | j of 2-D cells (i, j), which sort like the tuples."""
    return i << 32 | j


def _checked_keys(keys: np.ndarray, limit: int, packed: bool) -> np.ndarray:
    """keys, made read-only, after checking with numpy that they are a
    strictly increasing 1-D int64 array of cells (packed: of i << 32 | j
    keys) with every index in [0, limit)."""
    if not isinstance(keys, np.ndarray) or keys.dtype != np.int64 or keys.ndim != 1:
        raise ValueError("keys must be a 1-D int64 array")
    if keys.size:
        if keys[0] < 0 or not (keys[1:] > keys[:-1]).all():
            raise ValueError("cells must be strictly increasing and in range")
        top = (keys[-1] >> 32, (keys & _LOW).max()) if packed else (keys[-1],)
        if max(top) >= limit:
            raise ValueError("cell index out of range")
    keys.flags.writeable = False
    return keys


def _cache_keys(S, keys: np.ndarray) -> np.ndarray:
    keys.flags.writeable = False
    object.__setattr__(S, "_keys", keys)
    return keys


@dataclass(frozen=True)
class GridSet1D:
    scale: Scale
    cells: Tuple[int, ...]
    _keys: Optional[np.ndarray] = field(default=None, kw_only=True, repr=False, compare=False)

    def __post_init__(self):
        if self._keys is not None:  # built by _from_keys, which checked them
            return
        limit = self.scale.cells
        prev = -1
        for c in self.cells:
            if not prev < c < limit:
                raise ValueError("cells must be strictly increasing and in range")
            prev = c

    @classmethod
    def from_cells(cls, scale: Scale, cells: Iterable[int]) -> "GridSet1D":
        return cls(scale, tuple(sorted(set(int(c) for c in cells))))

    @classmethod
    def _from_keys(cls, scale: Scale, keys: np.ndarray) -> "GridSet1D":
        """The set of the cells in a sorted, unique int64 array, which
        becomes its keys."""
        keys = _checked_keys(keys, scale.cells, packed=False)
        return cls(scale, tuple(keys.tolist()), _keys=keys)

    @property
    def keys(self) -> np.ndarray:
        """The cells as a sorted, read-only int64 array."""
        if self._keys is None:
            return _cache_keys(self, np.array(self.cells, dtype=np.int64))
        return self._keys

    def __len__(self) -> int:
        return len(self.cells)


@dataclass(frozen=True)
class GridSet2D:
    scale: Scale
    cells: Tuple[Tuple[int, int], ...]
    _keys: Optional[np.ndarray] = field(default=None, kw_only=True, repr=False, compare=False)

    def __post_init__(self):
        if self._keys is not None:  # built by _from_keys, which checked them
            return
        limit = self.scale.cells
        prev = None
        for ij in self.cells:
            if prev is not None and not prev < ij:
                raise ValueError("cells must be strictly increasing")
            i, j = ij
            if not (0 <= i < limit and 0 <= j < limit):
                raise ValueError("cell index out of range")
            prev = ij

    @classmethod
    def from_cells(cls, scale: Scale, cells: Iterable[Tuple[int, int]]) -> "GridSet2D":
        return cls(scale, tuple(sorted(set((int(i), int(j)) for i, j in cells))))

    @classmethod
    def _from_keys(cls, scale: Scale, keys: np.ndarray) -> "GridSet2D":
        """The set of the cells keyed i << 32 | j in a sorted, unique
        int64 array, which becomes its keys."""
        keys = _checked_keys(keys, scale.cells, packed=True)
        return cls(scale, tuple(zip((keys >> 32).tolist(), (keys & _LOW).tolist())), _keys=keys)

    @property
    def keys(self) -> np.ndarray:
        """The cell keys i << 32 | j as a sorted, read-only int64 array."""
        if self._keys is None:
            ij = np.array(self.cells, dtype=np.int64).reshape(-1, 2)
            return _cache_keys(self, cell_keys(ij[:, 0], ij[:, 1]))
        return self._keys

    def indices(self) -> Tuple[np.ndarray, np.ndarray]:
        """The int64 arrays i and j of the cells, in order."""
        return self.keys >> 32, self.keys & _LOW

    def __len__(self) -> int:
        return len(self.cells)

    def intersection(self, other: "GridSet2D") -> "GridSet2D":
        if other.scale != self.scale:
            raise ValueError("scale mismatch")
        common = np.intersect1d(self.keys, other.keys, assume_unique=True)
        return GridSet2D._from_keys(self.scale, common)


GridSet = Union[GridSet1D, GridSet2D]


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------


def format_gridset(S: GridSet) -> str:
    """Text serialization: header line, then one cell per line, ascending."""
    if isinstance(S, GridSet1D):
        lines = [f"gridset1d k={S.scale.k}"]
        lines += [str(c) for c in S.cells]
    else:
        lines = [f"gridset2d k={S.scale.k}"]
        lines += [f"{i} {j}" for i, j in S.cells]
    return "\n".join(lines) + "\n"


def parse_gridset(text: str) -> GridSet:
    """Inverse of format_gridset; malformed text raises ValueError naming
    the offending line."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty gridset text")
    header = lines[0].split()
    if len(header) != 2 or not header[1].startswith("k=") or not header[1][2:].isdigit():
        raise ValueError(f"bad gridset header {lines[0]!r}")
    scale = Scale(int(header[1][2:]))
    cells = []
    if header[0] == "gridset1d":
        for ln in lines[1:]:
            try:
                cells.append(int(ln))
            except ValueError:
                raise ValueError(f"bad gridset1d line {ln!r}: want one integer") from None
        return GridSet1D(scale, tuple(cells))
    if header[0] == "gridset2d":
        for ln in lines[1:]:
            try:
                i, j = ln.split()
                cells.append((int(i), int(j)))
            except ValueError:
                raise ValueError(f"bad gridset2d line {ln!r}: want two integers i j") from None
        return GridSet2D(scale, tuple(cells))
    raise ValueError(f"bad gridset kind {header[0]!r}")


def save_gridset(S: GridSet, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_gridset(S))


def load_gridset(path: str) -> GridSet:
    with open(path, "r", encoding="ascii") as fh:
        return parse_gridset(fh.read())


# ---------------------------------------------------------------------------
# Covering numbers and non-concentration
# ---------------------------------------------------------------------------


def covering_number(S: GridSet, k_prime: int) -> int:
    """Number of dyadic cells at scale 2^-k_prime meeting S (k_prime <= k)."""
    k = S.scale.k
    if not 1 <= k_prime <= k:
        raise ValueError("k_prime out of range: need 1 <= k_prime <= k")
    shift = k - k_prime
    if isinstance(S, GridSet1D):
        return len({c >> shift for c in S.cells})
    return len({(i >> shift, j >> shift) for i, j in S.cells})


@dataclass(frozen=True)
class NonconcentrationResult:
    """Least eta with E(S cap J) <= |J|^kappa * delta^-(alpha+eta) over dyadic J.

    raw may be negative (set is more spread than required); eta is the
    reported value floored at zero, with floored recording that event.
    worst is the (level, prefix) of a maximizing dyadic interval.
    """

    eta: float
    floored: bool
    raw: float
    worst: Tuple[int, int]


# Tree keys are the cells in 1-D and the packed keys in 2-D (cells are
# below 2^30); clearing each field's top bit after key >> 1 gives the
# parent's key.
_PARENT_MASK = (0x7FFFFFFF << 32) | 0x7FFFFFFF


def _tree_scan(
    keys: Iterable[int], k: int, slope: float, offset: float
) -> Tuple[float, Tuple[int, int]]:
    """Largest (log2 E(S cap Q) + level * slope) / k - offset over the
    dyadic cubes Q of every level, and the (level, key) of its first
    maximiser: the scan runs from the finest level with a strict >, and
    only a level's largest count can give its largest value.  In 1-D the
    keys are the cells, ascending, so the first key with the largest
    count is the smallest prefix.
    """
    bucket = dict.fromkeys(keys, 1)
    best = None
    worst = (0, 0)
    for level in range(k, -1, -1):
        top = max(bucket.values())
        value = (log2(top) + level * slope) / k - offset
        if best is None or value > best:
            best = value
            worst = (level, next(key for key, count in bucket.items() if count == top))
        if level:
            parent: dict = {}
            for key, count in bucket.items():
                key = (key >> 1) & _PARENT_MASK
                parent[key] = parent.get(key, 0) + count
            bucket = parent
    return best, worst


def nonconcentration_exponent(
    S: GridSet1D, kappa: float, alpha: float
) -> NonconcentrationResult:
    if not isinstance(S, GridSet1D) or not S.cells:
        raise ValueError("nonconcentration_exponent needs a nonempty 1D grid set")
    if not 0 < kappa <= 1:
        raise ValueError("kappa must lie in (0, 1]")
    if not isfinite(alpha):
        raise ValueError("alpha must be finite")
    best, worst = _tree_scan(S.cells, S.scale.k, kappa, alpha)
    return NonconcentrationResult(max(0.0, best), best < 0, best, worst)


def nonconcentration_exponent_2d(X: GridSet2D, alpha: float) -> float:
    """Least eta >= 0 with E(X cap B) <= r^alpha * delta^-(2 alpha + eta)
    over all dyadic squares B of side r."""
    if not X.cells:
        raise ValueError("empty set")
    if not isfinite(alpha):
        raise ValueError("alpha must be finite")
    best, _ = _tree_scan(X.keys.tolist(), X.scale.k, alpha, 2 * alpha)
    return max(0.0, best)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def gen_ap(alpha: float, eta: float, scale: Scale) -> GridSet1D:
    """Arithmetic-progression test set: floor(delta^-alpha) cells at cell
    spacing ceil(delta^(alpha+eta) * 2^k), snapped to the dyadic grid."""
    if not (0 < alpha <= 1 and eta >= 0 and alpha + eta <= 1):  # NaN fails too
        raise ValueError("need 0 < alpha <= 1, eta >= 0, alpha + eta <= 1")
    k = scale.k
    count = floor(2.0 ** (k * alpha) + 1e-9)
    if count < 1:
        raise ValueError("delta^-alpha must be at least 1")
    spacing = max(1, ceil(2.0 ** (k * (1 - alpha - eta)) - 1e-9))
    cells = []
    for j in range(count):
        idx = j * spacing
        if idx >= scale.cells:
            break
        cells.append(idx)
    return GridSet1D(scale, tuple(cells))


def gen_cantor(branch_pattern: Iterable[int], base: int, depth: int) -> GridSet1D:
    """Depth-d iterate of a base-b digit restriction (b a power of 2).

    The result lives at scale k = d * log2(b) and has |pattern|^d cells.
    """
    pattern = sorted(set(int(p) for p in branch_pattern))
    if not pattern:
        raise ValueError("branch pattern must be nonempty")
    if base < 2 or base & (base - 1):
        raise ValueError("base must be a power of 2 so levels align to the grid")
    if any(not 0 <= p < base for p in pattern):
        raise ValueError("pattern digits must lie in [0, base)")
    bits = base.bit_length() - 1
    k = depth * bits
    if not 1 <= k <= MAX_SCALE:
        raise ValueError("depth * log2(base) must land in [1, 30]")
    cells = [0]
    for _ in range(depth):
        cells = [c * base + p for c in cells for p in pattern]
    return GridSet1D(Scale(k), tuple(sorted(cells)))


def restrict(S: GridSet1D, lo: Fraction, hi: Fraction) -> GridSet1D:
    """Cells of S whose closed interval meets [lo, hi]: the keys from
    ceil(lo * 2^k) - 1 to floor(hi * 2^k)."""
    n = S.scale.cells
    # Clamped to [-1, 2^k], the bounds select the same keys and fit int64.
    first = max(-1, min(ceil(Fraction(lo) * n) - 1, n))
    last = max(-1, min(floor(Fraction(hi) * n), n))
    keys = S.keys
    kept = keys[np.searchsorted(keys, first) : np.searchsorted(keys, last, side="right")]
    return GridSet1D._from_keys(S.scale, kept)


def coarsen(S: GridSet1D, k_new: int) -> GridSet1D:
    if k_new > S.scale.k:
        raise ValueError("coarsen target must not exceed the current scale")
    shift = S.scale.k - k_new
    return GridSet1D.from_cells(Scale(k_new), (c >> shift for c in S.cells))


# ---------------------------------------------------------------------------
# Image sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImageSet:
    """Output cells of P(A, B) on the renormalized [0, 1] grid.

    Values are affinely mapped from [value_lo, value_hi] (the enclosure of
    P on the unit square) onto [0, 1] before gridding; the map is recorded
    so covering counts can be traced back to raw value space.
    """

    grid: GridSet1D
    value_lo: Fraction
    value_hi: Fraction


def _runs(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of range(s, s + c) over paired starts and counts."""
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(int(counts.sum()))


def range_union(first: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Sorted int64 cells of the union of the inclusive ranges [first, last].

    In order of first, each range adds the cells beyond everything the
    earlier ranges reached, so the work is O(m log m) in the number of
    ranges plus the number of cells marked, whatever the grid size.
    """
    first = np.asarray(first, dtype=np.int64)
    order = np.argsort(first, kind="stable")
    first, last = first[order], np.asarray(last, dtype=np.int64)[order]
    reached = np.maximum.accumulate(np.concatenate(([-1], last)))[:-1]
    starts = np.maximum(first, reached + 1)
    return _runs(starts, np.maximum(last - starts + 1, 0))


def value_cells(v, offset: int, width: int, k: int) -> np.ndarray:
    """Value-grid cells floor((v - offset) * 2^k / width), clamped to
    [0, 2^k - 1] as int64, of integer ends v (int64 or Python ints) and
    integers offset, width > 0 over the same scale: value_lo * scale and
    span * scale for images, 0 and scale for maps.  With g = gcd(width,
    2^k) the cell is (v - offset) * (2^k / g) // (width / g) exactly, in
    int64 when (max|v| + |offset|) * 2^k / g and width / g are below 2^63
    and in Python ints otherwise.
    """
    v = np.asarray(v)
    n = 1 << k
    g = gcd(width, n)
    num, q = n // g, width // g
    reach = abs(offset) + (max(abs(int(v.min())), abs(int(v.max()))) if v.size else 0)
    v = v.astype(np.int64 if max(reach * num, q) < 2**63 else object, copy=False)
    cells = (v - offset) * num // q
    return np.minimum(np.maximum(cells, 0), n - 1).astype(np.int64)


def _product_bounds(P: Poly, A: GridSet1D, B: GridSet1D) -> Tuple[np.ndarray, np.ndarray, int]:
    """box_bounds of P on every closed cell product S x T, flat and a-major."""
    a, b = A.keys[:, None], B.keys[None, :]
    lo, hi, scale = box_bounds(P, a, a + 1, b, b + 1, A.scale.cells)
    return lo.ravel(), hi.ravel(), scale


# Upper bound on the intersecting pairs whose H_F bracket is evaluated in
# one vectorised block, which caps the memory of the filtered count.
_BLOCK_PAIRS = 1 << 16


class ProductBounds:
    """The enclosures [lo / scale, hi / scale] of P on every closed cell
    product S x T of A x B, flat and a-major, taken once by box_bounds.

    The image set and the energy of P on A x B both read this one table,
    so a caller that wants both builds it once.
    """

    __slots__ = ("P", "A", "B", "lo", "hi", "scale")

    def __init__(self, P: Poly, A: GridSet1D, B: GridSet1D):
        if A.scale != B.scale:
            raise ValueError("A and B must share a scale")
        self.P, self.A, self.B = P, A, B
        self.lo, self.hi, self.scale = _product_bounds(P, A, B)

    def image(self) -> ImageSet:
        """Over-approximate covering of P(A, B) by output cells at the input scale.

        An output cell is included when the interval enclosure of P on some
        closed cell product S x T meets it (after affine renormalization of
        P's range on the unit square, from unit_square_range, onto [0, 1]).
        A constant P fills cell 0 when A x B is nonempty.
        """
        grid_scale = self.A.scale
        total = unit_square_range(self.P)
        span = total.width()
        if span == 0:
            return ImageSet(GridSet1D(grid_scale, (0,) if self.lo.size else ()), total.lo, total.hi)
        # On the unit square every non-constant monomial ranges over [0, 1], so
        # value_lo and span are sums of coefficients and value_lo * scale and
        # span * scale are integers.  Every lo is at least value_lo; the top
        # cell is half-open, so value_hi lands one past it and is clamped back.
        offset, width = int(total.lo * self.scale), int(span * self.scale)
        first, last = (value_cells(v, offset, width, grid_scale.k) for v in (self.lo, self.hi))
        cells = range_union(first, last)
        return ImageSet(GridSet1D._from_keys(grid_scale, cells), total.lo, total.hi)

    def energy(self, hf_min: Optional[float] = None) -> int:
        """Ordered count of cell quadruples (S, S', T, T') in A^2 x B^2 whose
        interval enclosures of P on S x T and S' x T' intersect.

        With hf_min set, quadruples whose four-variable enclosure of |H_F|
        (computed as G M' - G' M from the per-pair ranges G of P_x P_y and M
        of P_xy) has supremum bound below hf_min are excluded.

        Enclosures of P_x P_y and P_xy come from box_bounds on the cell
        products too.  Two closed intervals miss each other exactly when
        one starts after the other ends, so the unfiltered count over N
        pairs is N^2 - 2 * sum_q #{p : lo_p > hi_q}: one sort of the lower
        ends and a binary search per upper end, O(N log N).  The filtered
        count visits only the intersecting pairs, found the same way, and
        tests the bracket in exact integers.
        """
        if hf_min is not None and not isfinite(hf_min):
            raise ValueError("hf_min must be finite")
        lo, hi = self.lo, self.hi
        n = lo.size
        if hf_min is None:
            above = n - np.searchsorted(np.sort(lo), hi, side="right")
            return n * n - 2 * int(above.sum())

        P, A, B = self.P, self.A, self.B
        px = P.partial("x")
        g_lo, g_hi, g_scale = _product_bounds(px * P.partial("y"), A, B)
        m_lo, m_hi, m_scale = _product_bounds(px.partial("y"), A, B)
        # sup|bracket| is an integer in units of 1/(g_scale * m_scale), so the
        # test against hf_min is a test against the ceiling of the threshold.
        threshold = ceil(Fraction(hf_min) * g_scale * m_scale)
        # Products of two table entries need twice their bits.
        largest = [int(np.abs(t).max(initial=0)) for t in (g_lo, g_hi, m_lo, m_hi)]
        if 2 * max(largest[:2]) * max(largest[2:]) >= 2**63:
            g_lo, g_hi, m_lo, m_hi = (t.astype(object) for t in (g_lo, g_hi, m_lo, m_hi))

        # Sorted by lo, the pair at position r meets exactly the pairs at
        # positions r .. ends[r] - 1: they start no earlier and no later than
        # it ends.  Each unordered pair is visited once, the diagonal included.
        order = np.argsort(lo, kind="stable")
        ends = np.searchsorted(lo[order], hi[order], side="right")
        total = 0
        step = max(1, _BLOCK_PAIRS // max(n, 1))
        for r0 in range(0, n, step):
            rows = np.arange(r0, min(r0 + step, n))
            counts = ends[rows] - rows
            p = order[np.repeat(rows, counts)]
            q = order[_runs(rows, counts)]
            first = [g_lo[p] * m_lo[q], g_lo[p] * m_hi[q], g_hi[p] * m_lo[q], g_hi[p] * m_hi[q]]
            second = [g_lo[q] * m_lo[p], g_lo[q] * m_hi[p], g_hi[q] * m_lo[p], g_hi[q] * m_hi[p]]
            # The interval G_p M_q - G_q M_p; its sup |.| is max(hi, -lo).
            low = np.minimum.reduce(first) - np.maximum.reduce(second)
            high = np.maximum.reduce(first) - np.minimum.reduce(second)
            passes = np.maximum(high, -low) >= threshold
            total += 2 * int(np.count_nonzero(passes)) - int(np.count_nonzero(passes[p == q]))
        return total


def image_set(P: Poly, A: GridSet1D, B: GridSet1D) -> ImageSet:
    """ProductBounds(P, A, B).image()."""
    return ProductBounds(P, A, B).image()


_SUM_POLY = Poly(("x", "y"), {(1, 0): 1, (0, 1): 1})
_PRODUCT_POLY = Poly(("x", "y"), {(1, 1): 1})


def sum_set(A: GridSet1D, B: GridSet1D) -> GridSet1D:
    return image_set(_SUM_POLY, A, B).grid


def product_set(A: GridSet1D, B: GridSet1D) -> GridSet1D:
    return image_set(_PRODUCT_POLY, A, B).grid


# ---------------------------------------------------------------------------
# Energy counting
# ---------------------------------------------------------------------------


def energy_count(
    P: Poly,
    A: GridSet1D,
    B: GridSet1D,
    hf_min: Optional[float] = None,
) -> int:
    """ProductBounds(P, A, B).energy(hf_min)."""
    return ProductBounds(P, A, B).energy(hf_min)


def energy_count_brute_force(
    P: Poly, A: GridSet1D, B: GridSet1D, hf_min: Optional[float] = None
) -> int:
    """Independent O(N^2) oracle: test range intersection per quadruple,
    with every enclosure taken from interval_range on the cell product."""
    if A.scale != B.scale:
        raise ValueError("A and B must share a scale")
    d = A.scale.delta
    rects = [Rect(a * d, (a + 1) * d, b * d, (b + 1) * d) for a in A.cells for b in B.cells]
    intervals = [interval_range(P, r) for r in rects]
    if hf_min is not None:
        px = P.partial("x")
        g_poly = px * P.partial("y")
        m_poly = px.partial("y")
        g_table = [interval_range(g_poly, r) for r in rects]
        m_table = [interval_range(m_poly, r) for r in rects]
        threshold = Fraction(hf_min)
    total = 0
    for i in range(len(intervals)):
        for j in range(len(intervals)):
            if not intervals[i].intersects(intervals[j]):
                continue
            if hf_min is not None:
                bracket = g_table[i] * m_table[j] - g_table[j] * m_table[i]
                if bracket.sup_abs() < threshold:
                    continue
            total += 1
    return total


def cs_growth_bound(cover_x: int, energy: int, c: float) -> float:
    """Cauchy-Schwarz lower-bound functional c * cover^2 / energy."""
    if energy <= 0:
        raise ValueError("energy must be positive")
    if energy < cover_x:
        raise ValueError("energy below diagonal count: energy >= cover required")
    if not 0 < c <= 1:
        raise ValueError("c must lie in (0, 1]")
    return c * cover_x * cover_x / energy


# ---------------------------------------------------------------------------
# Exponent fits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentFit:
    """OLS fit of log2(value) against k; slope is the delta^-slope exponent."""

    slope: float
    intercept: float
    residual: float
    points: Tuple[Tuple[int, float], ...]


def fit_exponent(points: Sequence[Tuple[int, float]]) -> ExponentFit:
    if len(points) < 3:
        raise ValueError("need at least 3 scales for an exponent fit")
    ks = np.array([float(k) for k, _ in points])
    if np.allclose(ks, ks[0]):
        raise ValueError("degenerate fit: all scales equal")
    values = np.array([float(v) for _, v in points])
    if np.any(values <= 0):
        raise ValueError("values must be positive")
    logs = np.log2(values)
    slope, intercept = np.polyfit(ks, logs, 1)
    predicted = slope * ks + intercept
    residual = float(np.sqrt(np.mean((logs - predicted) ** 2)))
    stored = tuple((int(k), float(y)) for k, y in zip(ks, logs))
    return ExponentFit(float(slope), float(intercept), residual, stored)


def box_dim_fit(
    family: Callable[[int], GridSet1D], k_range: Sequence[int]
) -> ExponentFit:
    """Box-dimension estimate: slope of log2 cell count across scales."""
    ks = list(k_range)
    if len(ks) < 3:
        raise ValueError("need at least 3 scales")
    points = []
    for k in ks:
        S = family(k)
        points.append((S.scale.k, len(S.cells)))
    return fit_exponent(points)
