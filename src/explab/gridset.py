"""Discretized sets on the dyadic grid and their quantitative measurements.

Sets live at a scale delta = 2^-k as collections of dyadic cells (indices
in [0, 2^k)).  Cell membership is half-open [j*2^-k, (j+1)*2^-k); interval
computations against cells use the closed cell, so every counting routine
over-approximates deterministically.

A grid set stores one form of its cells: keys, a sorted, read-only
int64 array (the cells in 1-D; i << 32 | j in 2-D, which sorts like the
(i, j) tuples).  Equality, hashing, the file format and the kernels read
the keys; the cells tuple is derived from them, and only when read.
The private constructor _from_keys checks a key array with numpy
(strictly increasing, every index in [0, 2^k)) and keeps it; the public
constructor checks a cells tuple the same way and falls back to a
per-cell loop only to name a fault.

Measurements: covering numbers at coarser scales, non-concentration
exponents over the dyadic interval tree, image sets P(A, B) through sound
interval enclosures, collision ("energy") counts of value quadruples
P(x, y) = P(xp, yp), and least-squares scaling exponents across a ladder
of scales.

The array enclosure kernel lives here too, with one entry:
box_bounds(polys, x0, x1, y0, y1, den, filtered=False), the natural
enclosure (Moore 1966) of polyexpr.interval_range on arrays of
rectangles, of several polynomials in one call, in integers or, with
filtered set, in float64 within a proven error err.  _abs_ends,
_pow_bounds and _mul_bounds write each of Interval's sign rules once.

Image sets and energies read one table, ProductBounds(P, A, B): the
enclosure of P on every cell product, flat and a-major, from the
filtered kernel (integers where they fit int64, else float64 within
err).  A caller that wants both the image and the energy of one P on one
A x B builds the table once and reads both from it; image_set and
energy_count build a table each, but energy_count with hf_min takes the
exact ends of P, P_x P_y and P_xy from one box_bounds call and builds
no table.  ProductBounds.ladder builds the tables of several
polynomials on every set of a scale ladder in shared kernel calls, the
cells of each scale shifted onto the top scale's grid, and takes
unit_square_range(P), the range that images renormalize by, once per
polynomial per call.  A constant P's cell ranges are all cell 0.
Energies are counted by sorting the lower ends and binary-searching the
upper ends; value_cells turns integer ends into clamped value-grid cells
by exact floor division, for image sets here and for smooth maps in
geomdecomp.  On a float table both are a filtered predicate (Shewchuk
1997; Bronnimann, Burnikel and Pion 2001): a float comparison or floor
decides where err puts it beyond doubt, and exact integer ends, from
box_bounds on the gathered corners of only the pairs in doubt, decide
the rest; box_bounds derives err with the slack that those comparisons
spend.  energy_count_brute_force stays on the Fraction enclosures of
polyexpr.interval_range as an independent oracle.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from functools import cached_property
from math import ceil, floor, gcd, isfinite, log2
from typing import Callable, Iterable, NoReturn, Optional, Sequence, Tuple, Union

import numpy as np

from .polyexpr import VARS2, Poly, Rect, interval_range, unit_square_range

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


class _GridSet:
    """A scale and keys, the sorted, read-only int64 array that is the
    one stored form of the set; equality and hashing read both.

    GridSet1D(scale, cells) and GridSet2D(scale, cells) check the cells
    with numpy and, when that fails, with the subclass's per-cell loop,
    which raises the message naming the fault.  The cells tuple is made
    from the keys when something first reads it.
    """

    _width = 1  # indices per cell

    def __init__(self, scale: Scale, cells):
        packed = self._width == 2
        try:
            rows = np.array(cells)
            if rows.size and rows.dtype.kind not in "iu":
                raise ValueError("cells must be integers")
            rows = rows.astype(np.int64).reshape(len(rows), self._width)
            # Indices are range-checked before 2-D cells are packed into keys.
            if rows.size and (rows.min() < 0 or rows.max() >= scale.cells):
                raise ValueError("cell index out of range")
            keys = _checked_keys(cell_keys(*rows.T) if packed else rows[:, 0], scale.cells, packed)
        except (ValueError, TypeError, OverflowError):
            self._check_cells(cells, scale.cells)
            raise
        vars(self).update(scale=scale, keys=keys)

    @classmethod
    def _from_keys(cls, scale: Scale, keys: np.ndarray):
        """The set of the cells keyed by a sorted, unique int64 array,
        which becomes its keys."""
        S = object.__new__(cls)
        vars(S).update(scale=scale, keys=_checked_keys(keys, scale.cells, cls._width == 2))
        return S

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.scale == other.scale and np.array_equal(self.keys, other.keys)

    def __hash__(self) -> int:
        return hash((self.scale, self.keys.tobytes()))

    def __len__(self) -> int:
        return self.keys.size

    def __repr__(self) -> str:
        return f"{type(self).__name__}(scale={self.scale!r}, cells={self.cells!r})"


class GridSet1D(_GridSet):
    """Cells of [0, 1) at a scale; keys are the cells."""

    @staticmethod
    def _check_cells(cells, limit: int) -> None:
        prev = -1
        for c in cells:
            if not prev < c < limit:
                raise ValueError("cells must be strictly increasing and in range")
            prev = c

    @classmethod
    def from_cells(cls, scale: Scale, cells: Iterable[int]) -> "GridSet1D":
        return cls(scale, tuple(sorted(set(int(c) for c in cells))))

    @cached_property
    def cells(self) -> Tuple[int, ...]:
        return tuple(self.keys.tolist())


class GridSet2D(_GridSet):
    """Cells (i, j) of [0, 1)^2 at a scale; keys are i << 32 | j."""

    _width = 2

    @staticmethod
    def _check_cells(cells, limit: int) -> None:
        prev = None
        for ij in map(tuple, cells):  # numpy rows do not compare as one truth value
            if prev is not None and not prev < ij:
                raise ValueError("cells must be strictly increasing")
            i, j = ij
            if not (0 <= i < limit and 0 <= j < limit):
                raise ValueError("cell index out of range")
            prev = ij

    @classmethod
    def from_cells(cls, scale: Scale, cells: Iterable[Tuple[int, int]]) -> "GridSet2D":
        return cls(scale, tuple(sorted(set((int(i), int(j)) for i, j in cells))))

    @cached_property
    def cells(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(zip(*(a.tolist() for a in self.indices())))

    def indices(self) -> Tuple[np.ndarray, np.ndarray]:
        """The int64 arrays i and j of the cells, in order."""
        return self.keys >> 32, self.keys & _LOW


GridSet = Union[GridSet1D, GridSet2D]


def _check_dimension(func: str, S, cls: type) -> None:
    """Raise unless S is a cls: a set of the other dimension gives these
    functions wrong answers, not errors."""
    if not isinstance(S, cls):
        raise ValueError(f"{func} needs a {cls.__name__}, got a {type(S).__name__}")


def _check_product(func: str, A, B) -> None:
    """Raise unless A and B are GridSet1Ds at one scale."""
    for S in (A, B):
        _check_dimension(func, S, GridSet1D)
    if A.scale != B.scale:
        raise ValueError("A and B must share a scale")


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------


def format_gridset(S: GridSet) -> str:
    """Text serialization: header line, then one cell per line, ascending."""
    if isinstance(S, GridSet1D):
        lines = [f"gridset1d k={S.scale.k}", *map(str, S.keys.tolist())]
    else:
        i, j = S.indices()
        lines = [f"gridset2d k={S.scale.k}", *map("{} {}".format, i.tolist(), j.tolist())]
    return "\n".join(lines) + "\n"


def parse_gridset(text: str) -> GridSet:
    """Inverse of format_gridset, read as one byte array: ASCII text of a
    header line `gridset1d|gridset2d k=<digits>`, then lines of one token
    (two in 2-D) of 1-18 digits, split as str.split and str.splitlines do.
    Any other text raises the ValueError that names its first fault."""
    try:
        b = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    except UnicodeEncodeError as exc:
        raise ValueError(f"non-ASCII character {text[exc.start]!r} (at offset {exc.start})") from None
    space = (b == 32) | (b - 9 <= 4) | (b - 28 <= 3)  # uint8 wraps below the range
    edges = np.flatnonzero(np.diff(space, prepend=True, append=True))
    first, stop = edges[::2], edges[1::2]  # token t is text[first[t]:stop[t]]
    kind, k = (text[f:s] for f, s in zip(first[:2], stop[:2])) if first.size > 1 else ("", "")
    cls, width = (GridSet2D, 2) if kind == "gridset2d" else (GridSet1D, 1)
    # Lines break at \n-\r and \x1c-\x1e; only the header's first token
    # and every width-th cell token may begin one.
    begins = np.diff(np.cumsum((b - 10 <= 3) | (b - 28 <= 2))[first], prepend=-1) > 0
    want = np.zeros_like(begins)
    want[:1] = want[2::width] = True
    body, lengths = (first[2] if first.size > 2 else b.size), stop[2:] - first[2:]
    if not (
        kind in ("gridset1d", "gridset2d") and k[:2] == "k=" and k[2:].isdigit()
        and np.array_equal(begins, want) and lengths.size % width == 0
        and (lengths <= 18).all() and ((b[body:] - 48 <= 9) | space[body:]).all()
    ):
        _raise_text_fault(text)
    # Each cell is its digits times powers of ten, summed a place at a time
    # from every token's last byte; bytes before a short token count 0.
    last, values = stop[2:] - 1, np.zeros(lengths.size, dtype=np.int64)
    for place in range(lengths.max(initial=0)):
        values += (b[last - place] - 48) * ((lengths > place) * 10**place)
    return cls(Scale(int(k[2:])), values.reshape(-1, width))


def _raise_text_fault(text: str) -> NoReturn:
    """Raise the ValueError naming the first fault of an ASCII text that
    parse_gridset's arrays refused: the empty text, the header, the
    scale, the kind, or the first line that is not one cell."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty gridset text")
    header = lines[0].split()
    if len(header) != 2 or not header[1].startswith("k=") or not header[1][2:].isdigit():
        raise ValueError(f"bad gridset header {lines[0]!r}")
    Scale(int(header[1][2:]))
    width, want = {"gridset1d": (1, "one integer"), "gridset2d": (2, "two integers i j")}.get(header[0], (0, ""))
    if not width:
        raise ValueError(f"bad gridset kind {header[0]!r}")
    for ln in lines[1:]:
        tokens = ln.split()
        if len(tokens) != width or not all(t.isdigit() and len(t) <= 18 for t in tokens):
            raise ValueError(f"bad {header[0]} line {ln!r}: want {want}")
    # Not reached: the arrays accept every text whose lines pass the walk.
    raise ValueError("unreadable gridset text")


def save_gridset(S: GridSet, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_gridset(S))


def load_gridset(path: str) -> GridSet:
    """parse_gridset of a file's text, decoded as UTF-8 so that a
    non-ASCII character gets parse_gridset's message."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        byte, at = data[exc.start], exc.start
        raise ValueError(f"gridset file is not UTF-8: byte {byte:#04x} at offset {at}") from None
    return parse_gridset(text)


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
        return np.unique(S.keys >> shift).size
    i, j = S.indices()
    return np.unique(cell_keys(i >> shift, j >> shift)).size


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


# Elements per block of _tree_scan's ancestor matrix: 32 MiB of int64.
_SCAN_BLOCK = 1 << 22
# Row s: the shift of the ancestor matrix, and the mask that clears the
# low s bits of i which keys >> s moves into the top of the j field.
_SHIFTS = np.arange(MAX_SCALE + 1, dtype=np.int64)[:, None]
_FIELD_MASKS = ~(((1 << _SHIFTS) - 1) << (32 - _SHIFTS))


def _tree_scan(
    keys: np.ndarray, k: int, slope: float, offset: float, packed: bool
) -> Tuple[float, Tuple[int, int]]:
    """Largest (log2 E(S cap Q) + level * slope) / k - offset over the
    dyadic cubes Q of every level, and the (level, key) of its first
    maximiser, from the sorted int64 keys (packed: i << 32 | j keys).

    Row s of the ancestor matrix keys >> s holds every element's cube at
    level k - s.  In 2-D the shift also moves the low s bits of i into the
    top of the j field; _FIELD_MASKS clears them, leaving
    (i >> s) << 32 | j >> s, and one sort per row makes each cube one run
    of equal keys.  In 1-D the rows are already ascending.  One != between
    neighbouring columns marks the run starts and one maximum.accumulate
    over the start positions gives every element's run start, so its
    position in its run; a row's largest position plus one is its
    largest run, which is its largest cube count E(S cap Q).

    The scan runs from the finest level with a strict >, and only a
    level's largest count can give its largest value, which is the same
    Python float expression as a per-cube scan.  The witness key is the
    first maximal run of the chosen row (argmax), which in an ascending
    row is the smallest key with the largest count: in 1-D the smallest
    prefix.  The levels go in blocks of at most _SCAN_BLOCK elements (at
    least one level), so memory stays a few times the keys' own.
    """
    n = keys.size
    pos = np.arange(n)
    rows = max(1, _SCAN_BLOCK // n)
    best = None
    worst = (0, 0)
    for first in range(0, k + 1, rows):
        block = slice(first, min(first + rows, k + 1))
        cubes = keys >> _SHIFTS[block]
        if packed:
            cubes &= _FIELD_MASKS[block]
            cubes.sort(axis=1)
        run = np.zeros(cubes.shape, dtype=np.int64)
        np.multiply(cubes[:, 1:] != cubes[:, :-1], pos[1:], out=run[:, 1:])
        np.maximum.accumulate(run, axis=1, out=run)
        np.subtract(pos, run, out=run)  # every element's position in its run
        chosen = None
        for r, top in enumerate(run.max(axis=1).tolist()):
            value = (log2(top + 1) + (k - first - r) * slope) / k - offset
            if best is None or value > best:
                best, chosen = value, r
        if chosen is not None:
            worst = (k - first - chosen, int(cubes[chosen, run[chosen].argmax()]))
    return best, worst


def nonconcentration_exponent(S: GridSet1D, kappa: float, alpha: float) -> NonconcentrationResult:
    if not isinstance(S, GridSet1D) or not len(S):
        raise ValueError("nonconcentration_exponent needs a nonempty 1D grid set")
    if not 0 < kappa <= 1:
        raise ValueError("kappa must lie in (0, 1]")
    if not isfinite(alpha):
        raise ValueError("alpha must be finite")
    best, worst = _tree_scan(S.keys, S.scale.k, kappa, alpha, packed=False)
    return NonconcentrationResult(max(0.0, best), best < 0, best, worst)


def nonconcentration_exponent_2d(X: GridSet2D, alpha: float) -> float:
    """Least eta >= 0 with E(X cap B) <= r^alpha * delta^-(2 alpha + eta)
    over all dyadic squares B of side r."""
    _check_dimension("nonconcentration_exponent_2d", X, GridSet2D)
    if not len(X):
        raise ValueError("empty set")
    if not isfinite(alpha):
        raise ValueError("alpha must be finite")
    best, _ = _tree_scan(X.keys, X.scale.k, alpha, 2 * alpha, packed=True)
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
    # The multiples of spacing below 2^k, at most count of them.
    cells = np.arange(min(count, -(-scale.cells // spacing)), dtype=np.int64) * spacing
    return GridSet1D._from_keys(scale, cells)


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
    # Digits sorted below base keep each level's cells in order.
    cells = np.zeros(1, dtype=np.int64)
    for _ in range(depth):
        cells = (cells[:, None] * base + np.array(pattern, dtype=np.int64)).ravel()
    return GridSet1D._from_keys(Scale(k), cells)


def window_cells(window: Rect, scale: Scale) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """The cells inside the window, which may reach past the unit square:
    for its x side and its y side, the index range first <= i < stop of
    the cells [i, i + 1] * delta inside [lo, hi], cut to the grid."""
    n = scale.cells
    sides = ((window.x0, window.x1), (window.y0, window.y1))
    return tuple((max(0, ceil(lo * n)), min(n, floor(hi * n))) for lo, hi in sides)


def restrict(S: GridSet1D, lo: Fraction, hi: Fraction) -> GridSet1D:
    """Cells of S whose closed interval meets [lo, hi]: the keys from
    ceil(lo * 2^k) - 1 to floor(hi * 2^k)."""
    _check_dimension("restrict", S, GridSet1D)
    n = S.scale.cells
    # Clamped to [-1, 2^k], the bounds select the same keys and fit int64.
    first = max(-1, min(ceil(Fraction(lo) * n) - 1, n))
    last = max(-1, min(floor(Fraction(hi) * n), n))
    keys = S.keys
    kept = keys[np.searchsorted(keys, first) : np.searchsorted(keys, last, side="right")]
    return GridSet1D._from_keys(S.scale, kept)


# ---------------------------------------------------------------------------
# Enclosures on arrays of rectangles
# ---------------------------------------------------------------------------


def _abs_ends(lo, hi) -> tuple:
    """Interval.abs_interval on the intervals [lo, hi], elementwise: the
    pair of ends of |[lo, hi]|."""
    up, down = lo >= 0, hi <= 0
    return np.where(up, lo, np.where(down, -hi, 0)), np.where(up, hi, np.where(down, -lo, np.maximum(-lo, hi)))


def _mul_bounds(xs, ys) -> tuple:
    """Interval.__mul__ of the intervals of the pairs xs = (a, b) and
    ys = (c, d), elementwise: the pair of ends of the product."""
    (a, b), (c, d) = xs, ys
    ac, ad, bc, bd = a * c, a * d, b * c, b * d
    return np.minimum(np.minimum(ac, ad), np.minimum(bc, bd)), np.maximum(np.maximum(ac, ad), np.maximum(bc, bd))


def _pow_bounds(ab: np.ndarray, n: int, nonneg: bool) -> np.ndarray:
    """Interval.pow(n) on the intervals [ab[0], ab[1]], elementwise, stacked
    the same way; nonneg says that every ab[0] is at least 0.  An even
    power is the power of |[ab[0], ab[1]]| (_abs_ends), whose ends are
    Interval.pow's bit for bit: float powers are n - 1 multiplications,
    monotone on non-negative floats, whose rounding box_bounds' err
    bounds (libm pow carries no bound)."""
    if n % 2 == 0 and not nonneg:
        ab = np.array(_abs_ends(*ab))
    if ab.dtype != np.float64:
        return ab**n
    p = ab
    for _ in range(n - 1):
        p = p * ab
    return p


def _reach(lo_edge: np.ndarray, hi_edge: np.ndarray) -> Tuple[int, bool]:
    """The largest |corner| (at least 1), and whether no corner is negative."""
    if not lo_edge.size or not hi_edge.size:
        return 1, True
    low = int(lo_edge.min())
    return max(1, abs(low), abs(int(hi_edge.max()))), low >= 0


def _stacked(a: np.ndarray, b: np.ndarray, ndim: int, dtype) -> np.ndarray:
    """The corners a, b broadcast together, cast to dtype and stacked as
    one (2, ...) array, padded to ndim dimensions after the first."""
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    return np.array((a, b), dtype=dtype).reshape(2, *(1,) * (ndim - a.ndim), *a.shape)


def box_bounds(polys: Sequence[Poly], x0, x1, y0, y1, den: int, filtered: bool = False) -> list:
    """The one enclosure kernel: interval_range of each bivariate P in
    polys on arrays of rectangles, as one (lo, hi, scale, err) per P.

    The corners x0, x1, y0, y1 are integer arrays over one common
    denominator den > 0: the rectangles are [x0/den, x1/den] x
    [y0/den, y1/den], with x0 <= x1 and y0 <= y1.  Corners may be
    negative and may exceed den, and the four arrays broadcast, so
    (m, 1) x-corners against (1, n) y-corners give the product set.  lo
    and hi have the broadcast shape, and the integer scale gives
    [lo/scale, hi/scale] == interval_range(P, rect) exactly for every
    rectangle.  The per-monomial sign cases of Interval.pow and
    Interval.__mul__ are reproduced, so the result is the same natural
    enclosure (Moore 1966), only scaled by scale = lcm(coefficient
    denominators) * den^deg.

    Every corner, power, product, term and partial sum is at most bound
    = sum over the monomials c x^i y^j of |c| mx^i my^j den^(deg-i-j) in
    magnitude, with mx, my the largest |corner| (at least 1; den^e
    stands in for the missing powers of a monomial).  So lo and hi are
    int64 when bound, scale and every corner are below 2^63, hold Python
    ints (dtype object) otherwise, and err is None.  The corners are
    reduced to their largest magnitude and sign once and cast once per
    dtype, and each power table x^i, y^j is built once per dtype for
    every polynomial that has the exponent; each P picks its dtype from
    its own bound, so its ends are the same in any company.

    With filtered set, where the ends would be Python ints, no corner is
    negative and bound < 2^1000, lo and hi are float64 instead, every
    end within err of the exact end (both over scale).  The error, with
    u = 2^-53 and gamma_n = n u / (1 - n u) (Higham 2002, section 3.1):
    every corner is below 2^53, so a float.  A term is x^i * (y^j * w),
    its powers taken by repeated multiplication (_pow_bounds on floats)
    and its weight w = |c| den^(deg-i-j) rounded to float once: i + j +
    1 factors, all exact but w, and i + j multiplications, so its
    relative error is at most gamma_(i+j+1) <= gamma_(deg+1).  Adding m
    terms into 0 rounds m - 1 times, so an end is the exact sum of its
    terms, each off by at most gamma_(deg+m) relatively; their
    magnitudes sum to at most bound, so |float end - exact end| <=
    gamma_(deg+m) bound.  No value is subnormal (each is 0 or at least
    1), and none overflows: each power, product, term and partial sum is
    at most (1 + gamma_(deg+m)) bound < 2^1024, as every |c| is at least
    1.  err = 2 (deg+m+2) u float(bound) rounds twice, from exact
    factors, so err >= 2 (deg+m+2) u bound (1-u)^2 >= gamma_(deg+m+2)
    bound: the end error, and room for two more roundings of values up
    to 2 bound, which covers adding a threshold such as hi + 2 err
    (ProductBounds._above).

    Ends are one (2, ...) array, the pair (lo, hi), so that a sign-free
    step is one array operation on both; signed products take
    _mul_bounds' pair.
    """
    if any(P.variables != VARS2 for P in polys):
        raise ValueError("box_bounds takes a bivariate polynomial")
    edges = [np.asarray(v) for v in (x0, x1, y0, y1)]
    shape = np.broadcast_shapes(*(e.shape for e in edges))
    (mx, x_pos), (my, y_pos) = _reach(*edges[:2]), _reach(*edges[2:])
    # Per dtype, the power tables of each axis: x^i as one (2, ...) array
    # of its lower and upper ends, padded to the rectangles' dimensions.
    tables: dict = {}
    out = []
    for P in polys:
        deg = P.degree() or 0
        scale = P.den * den**deg
        terms = [(i, j, c) for (i, j), c in P.num.items()]
        bound = sum(abs(c) * mx**i * my**j * den ** (deg - i - j) for i, j, c in terms)
        dtype = np.int64 if max(bound, scale, mx, my) < 2**63 else object
        err = None
        if filtered and dtype is object and x_pos and y_pos and max(mx, my) < 2**53 and bound < 2**1000:
            dtype, err = np.float64, 2 * (deg + len(terms) + 2) * 2.0**-53 * float(bound)
        ends = np.zeros((2, *shape), dtype=dtype)  # lo and hi
        out.append((ends[0], ends[1], scale, err))
        if not ends.size:
            continue
        if dtype not in tables:
            tables[dtype] = [{1: _stacked(a, b, len(shape), dtype)} for a, b in (edges[:2], edges[2:])]
        x_pows, y_pows = tables[dtype]
        cast = float if err is not None else int
        for i, j, c in terms:
            weight = cast(abs(c) * den ** (deg - i - j))
            if i and i not in x_pows:
                x_pows[i] = _pow_bounds(x_pows[1], i, x_pos)
            if j and j not in y_pows:
                y_pows[j] = _pow_bounds(y_pows[1], j, y_pos)
            # Scaling one factor by the positive weight first keeps every
            # intermediate below the bound and changes no min or max.  The
            # lower end of an even power is never negative.
            if i and j:
                nonneg = (x_pos or i % 2 == 0) and (y_pos or j % 2 == 0)
                y = y_pows[j] * weight
                term = x_pows[i] * y if nonneg else _mul_bounds(x_pows[i], y)
            elif i:
                term = x_pows[i] * weight
            elif j:
                term = y_pows[j] * weight
            else:
                term = weight
            if c > 0:
                ends += term
            else:  # lo -= the term's upper end, hi -= its lower end
                ends -= term[::-1] if i or j else term
    return out


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


def _disjoint_runs(first: np.ndarray, last: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Starts and counts of the disjoint runs whose union is the union of
    the inclusive ranges [first, last]: in order of first, each range adds
    the cells beyond everything the earlier ranges reached, O(m log m) in
    the number m of ranges, whatever the grid size."""
    first = np.asarray(first, dtype=np.int64)
    order = np.argsort(first, kind="stable")
    first, last = first[order], np.asarray(last, dtype=np.int64)[order]
    reached = np.maximum.accumulate(np.concatenate(([-1], last)))[:-1]
    starts = np.maximum(first, reached + 1)
    return starts, np.maximum(last - starts + 1, 0)


def range_union(first: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Sorted int64 cells of the union of the inclusive ranges [first, last]."""
    return _runs(*_disjoint_runs(first, last))


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


def _corners(A: GridSet1D, B: GridSet1D, shift: int = 0, pairs=None) -> tuple:
    """box_bounds' corners and denominator for the closed cell products
    S x T of A x B, every index shifted left by shift over the denominator
    2^(k + shift): all of them as (m, 1) x (1, n), or those at the flat
    a-major indices pairs."""
    a, b, width = A.keys << shift, B.keys << shift, 1 << shift
    if pairs is None:
        a, b = a[:, None], b[None, :]
    else:
        a, b = a[pairs // len(B)], b[pairs % len(B)]
    return a, a + width, b, b + width, A.scale.cells << shift


# Upper bound on the intersecting pairs whose H_F bracket is evaluated in
# one vectorised block, which caps the memory of the filtered count.
_BLOCK_PAIRS = 1 << 16

_U = 2.0**-53  # the unit roundoff of float64

# Sets of a ladder share a kernel call while its rows times its columns
# stay within this; past it the cross-set pairs would cost more than a call.
_LADDER_PAIRS = 1 << 14


class ProductBounds:
    """The enclosures [lo / scale, hi / scale] of P on every closed cell
    product S x T of A x B, flat and a-major, from box_bounds with
    filtered set.

    The image set and the energy of P on A x B both read this one table,
    so a caller that wants both builds it once.  Where box_bounds' exact
    ends would be Python ints the table holds float64 ends, each within
    err of its exact end (box_bounds derives err); err is None when lo
    and hi are box_bounds' exact integers.  A float table decides every
    comparison and floor that err puts beyond doubt and takes box_bounds'
    exact ends, on the gathered corners of only the pairs in doubt, for
    the rest, so every count is the exact table's.

    ProductBounds.ladder(polys, sets) builds the tables of several
    polynomials on every set (A, B) of a scale ladder, and ProductBounds(P,
    A, B) is the ladder of one set.  Consecutive sets share one kernel
    call while its rows (cells of A) times its columns (cells of B) stay
    within _LADDER_PAIRS, and each table reads its own block of it.  With
    K the call's top scale, a set at scale k enters it with its cell
    indices shifted left by shift = K - k over the denominator 2^K: the
    same rectangles.  A table keeps the call's scale and err and its
    shift, at which it takes its exact ends too, and counts as the set
    alone: box_bounds sums c x^i y^j den^(deg-i-j) over the monomials, on
    corners picked by Interval's sign rules, and the shift multiplies
    every such term, and scale = P.den den^deg, by 2^(shift deg) > 0.  So
    every sign rule picks the same end, every comparison of two ends in
    energy() comes out the same, and every floor((v - offset) 2^k /
    width) of value_cells is unchanged, offset and width being taken over
    the table's scale.  A filtered call's err bounds every end of the
    call (box_bounds: corners below 2^53 are exact floats, no
    value is subnormal, bound < 2^1000 holds for the whole call), so each
    float decision stands; a set below the top scale may be filtered
    where its own table would be int64, and counts the same.
    """

    __slots__ = ("P", "A", "B", "lo", "hi", "scale", "err", "shift", "total")

    def __new__(cls, P: Poly, A: GridSet1D, B: GridSet1D):
        return cls.ladder((P,), [(A, B)])[0][0]

    @classmethod
    def ladder(cls, polys: Sequence[Poly], sets: Sequence[Tuple[GridSet1D, GridSet1D]]) -> list:
        """[[table of P on A x B for (A, B) in sets] for P in polys]; the
        tables of one P share its total = unit_square_range(P), taken once
        per polynomial per call."""
        groups, rows, cols = [], 0, 0
        for A, B in sets:
            _check_product("ProductBounds", A, B)
            rows, cols = rows + len(A), cols + len(B)
            if not groups or rows * cols > _LADDER_PAIRS:
                groups.append([])
                rows, cols = len(A), len(B)
            groups[-1].append((A, B))
        totals = [unit_square_range(P) for P in polys]
        out = [[] for _ in polys]
        for group in groups:
            top = max(A.scale.k for A, _ in group)
            corners = [_corners(A, B, top - A.scale.k)[:4] for A, B in group]
            edges = corners[0] if len(group) == 1 else [
                np.concatenate([c[e] for c in corners], axis=e // 2) for e in range(4)
            ]
            ends = box_bounds(polys, *edges, 1 << top, filtered=True)
            for tables, P, total, (lo, hi, scale, err) in zip(out, polys, totals, ends):
                r = c = 0
                for A, B in group:
                    table = object.__new__(cls)
                    table.P, table.A, table.B, table.shift = P, A, B, top - A.scale.k
                    block = np.s_[r : r + len(A), c : c + len(B)]
                    table.lo, table.hi = lo[block].ravel(), hi[block].ravel()
                    table.scale, table.err, table.total = scale, err, total
                    tables.append(table)
                    r, c = r + len(A), c + len(B)
        return out

    def _exact_at(self, pairs: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
        """box_bounds' exact ends lo, hi of the pairs at the flat indices
        pairs, or of every pair when pairs is None: an exact table's own
        lo and hi, a float table's from one more kernel call."""
        if pairs is None:
            if self.err is None:
                return self.lo, self.hi
            ((lo, hi, _, _),) = box_bounds((self.P,), *_corners(self.A, self.B, self.shift))
            return lo.ravel(), hi.ravel()
        idx, pos = np.unique(pairs, return_inverse=True)
        ((lo, hi, _, _),) = box_bounds((self.P,), *_corners(self.A, self.B, self.shift, idx))
        return lo[pos], hi[pos]

    def _cell_ranges(self) -> Tuple[np.ndarray, np.ndarray]:
        """The first and last output cells of every pair's enclosure, as
        image() renormalizes them: cell 0 for every pair when P is constant."""
        total = self.total
        span = total.width()
        if span == 0:
            zeros = np.zeros(self.lo.size, dtype=np.int64)
            return zeros, zeros
        # On the unit square every non-constant monomial ranges over [0, 1], so
        # value_lo and span are sums of coefficients and value_lo * scale and
        # span * scale are integers.  Every lo is at least value_lo; the top
        # cell is half-open, so value_hi lands one past it and is clamped back.
        offset, width, k = int(total.lo * self.scale), int(span * self.scale), self.A.scale.k
        if self.err is not None and max(abs(offset), width) < 2**1000:
            return self._float_cells(offset, width, k)
        cells = value_cells(np.concatenate(self._exact_at()), offset, width, k)
        return cells[: self.lo.size], cells[self.lo.size :]

    def image(self) -> ImageSet:
        """Over-approximate covering of P(A, B) by output cells at the input scale.

        An output cell is included when the interval enclosure of P on some
        closed cell product S x T meets it (after affine renormalization of
        P's range on the unit square, self.total, onto [0, 1]).  A constant
        P's cell ranges are all cell 0, so it fills cell 0 when A x B is
        nonempty.
        """
        cells = range_union(*self._cell_ranges())
        return ImageSet(GridSet1D._from_keys(self.A.scale, cells), self.total.lo, self.total.hi)

    def image_count(self) -> int:
        """len(self.image().grid), counted from the same cell ranges
        without marking the cells: the scenario runners read only this."""
        return int(_disjoint_runs(*self._cell_ranges())[1].sum())

    def _float_cells(self, offset: int, width: int, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """value_cells(lo, offset, width, k) and value_cells(hi, ...) of a
        float table, both below 2^1000 in magnitude.

        With r = 2^k / width, an end v lands in cell floor(t), clamped, at
        t = (v - offset) r, and t lies in [0, 2^k]: every enclosure lies
        inside the unit square's.  The float t' = (v' - float(offset)) *
        float(r), with |v' - v| <= err and float(r) correctly rounded (a
        normal float, as r >= 2^(k-1000)), rounds three times, so |t' - t|
        <= gamma_3 2^k + 2 (err + u |offset|) r =: eta0.  The additions
        t' -+ eta round by at most u (|t'| + eta), so eta = 2 eta0 +
        4 u 2^k keeps t' - eta <= t <= t' + eta as computed; eta below is
        twice that expression evaluated in five roundings of positive
        terms, so at least it.  floor is monotone, so where the clamped
        floors of t' - eta and t' + eta agree they are the cell, and
        every other end takes value_cells on its exact integer.
        """
        n, size = 1 << k, self.lo.size
        off, r = float(offset), n / width
        eta = 24 * _U * n + 8 * (self.err + _U * abs(off)) * r
        t = (np.concatenate((self.lo, self.hi)) - off) * r
        cells, top = (np.clip(np.floor(t + s), 0, n - 1).astype(np.int64) for s in (-eta, eta))
        doubt = np.flatnonzero(cells != top)
        if doubt.size:
            lo, hi = self._exact_at(doubt % size)
            cells[doubt] = value_cells(np.where(doubt < size, lo, hi), offset, width, k)
        return cells[:size], cells[size:]

    def _above(self) -> int:
        """#{(p, q) : lo_p > hi_q} over the ordered pairs.

        An exact table takes n^2 less the binary-search count of lo_p <=
        hi_q.  On a float table, with ends within err of the exact ones
        and |hi'| <= (1 + gamma_(deg+m)) bound, lo'_p > hi'_q + 2 err as
        computed puts lo_p - hi_q above 2 err - 2 gamma_(deg+m) bound - u
        (|hi'_q| + 2 err) >= 0, as err >= gamma_(deg+m+2) bound, and lo'_p
        < hi'_q - 2 err as computed puts it below 0 the same way.  Only
        the pairs in between are compared on their exact ends.
        """
        lo, hi, n = self.lo, self.hi, self.lo.size
        sorted_lo = np.sort(lo)
        if self.err is None:
            return n * n - int(np.searchsorted(sorted_lo, hi, side="right").sum())
        band = 2 * self.err
        sure = np.searchsorted(sorted_lo, hi + band, side="right")
        maybe = np.searchsorted(sorted_lo, hi - band, side="left")
        above = n * n - int(sure.sum())
        counts = sure - maybe
        if counts.any():
            # Positions maybe .. sure - 1 never split equal values, so any
            # sorting order names the same pairs.
            q = np.repeat(np.arange(n), counts)
            p = np.argsort(lo)[_runs(maybe, counts)]
            ends_lo, ends_hi = self._exact_at(np.concatenate((p, q)))
            above += int(np.count_nonzero(ends_lo[: p.size] > ends_hi[p.size :]))
        return above

    def energy(self) -> int:
        """Ordered count of cell quadruples (S, S', T, T') in A^2 x B^2 whose
        interval enclosures of P on S x T and S' x T' intersect.

        Two closed intervals miss each other exactly when one starts after
        the other ends, so the count over N pairs is N^2 - 2 * sum_q #{p :
        lo_p > hi_q} (_above): one sort of the lower ends and a binary
        search per upper end, O(N log N).
        """
        n = self.lo.size
        return n * n - 2 * self._above()


def image_set(P: Poly, A: GridSet1D, B: GridSet1D) -> ImageSet:
    """ProductBounds(P, A, B).image()."""
    return ProductBounds(P, A, B).image()


SUM_POLY = Poly(("x", "y"), {(1, 0): 1, (0, 1): 1})
PRODUCT_POLY = Poly(("x", "y"), {(1, 1): 1})


def sum_set(A: GridSet1D, B: GridSet1D) -> GridSet1D:
    return image_set(SUM_POLY, A, B).grid


def product_set(A: GridSet1D, B: GridSet1D) -> GridSet1D:
    return image_set(PRODUCT_POLY, A, B).grid


# ---------------------------------------------------------------------------
# Energy counting
# ---------------------------------------------------------------------------


def energy_count(P: Poly, A: GridSet1D, B: GridSet1D, hf_min: Optional[float] = None) -> int:
    """ProductBounds(P, A, B).energy(), or with hf_min set, that count
    without the quadruples whose four-variable enclosure of |H_F|
    (computed as G M' - G' M from the per-pair ranges G of P_x P_y and M
    of P_xy) has supremum bound below hf_min.  That count takes the exact
    ends of P, P_x P_y and P_xy on the cell products from one box_bounds
    call, visits only the pairs whose P enclosures intersect, found by
    sorting the lower ends, and tests the bracket in exact integers.
    """
    if hf_min is None:
        return ProductBounds(P, A, B).energy()
    _check_product("ProductBounds", A, B)
    if not isfinite(hf_min):
        raise ValueError("hf_min must be finite")
    px = P.partial("x")
    (lo, hi, _), (g_lo, g_hi, g_scale), (m_lo, m_hi, m_scale) = (
        (lo.ravel(), hi.ravel(), scale)
        for lo, hi, scale, _ in box_bounds((P, px * P.partial("y"), px.partial("y")), *_corners(A, B))
    )
    n = lo.size
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
        first_lo, first_hi = _mul_bounds((g_lo[p], g_hi[p]), (m_lo[q], m_hi[q]))
        second_lo, second_hi = _mul_bounds((g_lo[q], g_hi[q]), (m_lo[p], m_hi[p]))
        # The interval G_p M_q - G_q M_p; its sup |.| is max(hi, -lo).
        low, high = first_lo - second_hi, first_hi - second_lo
        passes = np.maximum(high, -low) >= threshold
        total += 2 * int(np.count_nonzero(passes)) - int(np.count_nonzero(passes[p == q]))
    return total


def energy_count_brute_force(
    P: Poly, A: GridSet1D, B: GridSet1D, hf_min: Optional[float] = None
) -> int:
    """Independent O(N^2) oracle: test range intersection per quadruple,
    with every enclosure taken from interval_range on the cell product."""
    _check_product("energy_count_brute_force", A, B)
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
    points: Tuple[Tuple[Union[int, float], float], ...]


def fit_exponent(points: Sequence[Tuple[int, float]]) -> ExponentFit:
    if len(points) < 3:
        raise ValueError("need at least 3 scales for an exponent fit")
    ks = [float(k) for k, _ in points]
    if not all(map(isfinite, ks)):  # LAPACK would reject them, writing to stderr
        raise ValueError("scales must be finite")
    if all(abs(k - ks[0]) <= 1e-08 + 1e-05 * abs(ks[0]) for k in ks):
        raise ValueError("degenerate fit: all scales equal")
    ks = np.array(ks)
    values = [float(v) for _, v in points]
    if not all(map(isfinite, values)):
        raise ValueError("values must be finite")
    if min(values) <= 0:
        raise ValueError("values must be positive")
    logs = np.log2(values)
    # np.polyfit(ks, logs, 1), bit for bit, without its argument checks:
    # columns (k, 1) scaled to unit norm, lstsq at polyfit's rcond.
    lhs = np.vander(ks, 2)
    scale = np.sqrt((lhs * lhs).sum(0))
    slope, intercept = np.linalg.lstsq(lhs / scale, logs, len(ks) * np.finfo(float).eps)[0] / scale
    predicted = slope * ks + intercept
    residual = float(np.sqrt(np.mean((logs - predicted) ** 2)))
    # An integral scale is stored as an int, as the reports print it.
    stored = tuple((int(k) if k.is_integer() else float(k), float(y)) for k, y in zip(ks, logs))
    return ExponentFit(float(slope), float(intercept), residual, stored)


def box_dim_fit(family: Callable[[int], GridSet1D], k_range: Sequence[int]) -> ExponentFit:
    """Box-dimension estimate: slope of log2 cell count across scales."""
    ks = list(k_range)
    if len(ks) < 3:
        raise ValueError("need at least 3 scales")
    return fit_exponent([(S.scale.k, len(S)) for S in map(family, ks)])
