"""Tests for smooth maps, decompositions, curvature, and product extraction."""

import math
import random
from fractions import Fraction
from typing import Iterator, Sequence, Tuple, Union
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from explab.geomdecomp import (
    CubeDecomposition,
    DegenerateGradientsError,
    DyadicSquare,
    FullSquareRegion,
    LinearProjection,
    PinnedDistance,
    PolynomialMap,
    PolynomialSignRegion,
    ProductSet,
    PuncturedSquareRegion,
    Region,
    RegionOracle,
    SelectedLevel,
    SmoothMap2,
    band_partition,
    blaschke_curvature,
    extract_product,
    format_cube_decomposition,
    map_image,
    parse_cube_decomposition,
    preimage_cells,
    select_level,
    whitney_decompose,
    zero_nbhd_covering,
)
from explab.gridset import GridSet1D, GridSet2D, Scale, gen_ap
from explab.polyexpr import VARS2, Poly, Rect, mp_numerator, parse_poly

P_QUAD = parse_poly("x^2 + x*y + y^2")


def full_grid_2d(k):
    return GridSet2D.from_cells(
        Scale(k), [(i, j) for i in range(2**k) for j in range(2**k)]
    )


# ---------------------------------------------------------------------------
# smooth maps
# ---------------------------------------------------------------------------


def test_pinned_distance_values():
    phi = PinnedDistance((0.0, 0.0))
    assert phi.value(0.6, 0.8) == pytest.approx(1.0)
    assert phi.partial(0.6, 0.8, 1, 0) == pytest.approx(0.6)
    with pytest.raises(ValueError):
        phi.value(0.0, 0.0)


def _fd_partial(f, x, y, ax, ay, h=1e-5):
    if ax > 0:
        return (
            _fd_partial(f, x + h, y, ax - 1, ay, h)
            - _fd_partial(f, x - h, y, ax - 1, ay, h)
        ) / (2 * h)
    if ay > 0:
        return (
            _fd_partial(f, x, y + h, ax, ay - 1, h)
            - _fd_partial(f, x, y - h, ax, ay - 1, h)
        ) / (2 * h)
    return f(x, y)


@pytest.mark.parametrize(
    "make_map",
    [
        lambda: PinnedDistance((0.1, -0.2)),
        lambda: PolynomialMap(parse_poly("x^3 - 2*x*y + y^2 + 1")),
        lambda: LinearProjection(0.7),
    ],
)
def test_derivatives_match_finite_differences(make_map):
    phi = make_map()
    rng = random.Random(21)
    for _ in range(10):
        x = rng.uniform(0.3, 0.9)
        y = rng.uniform(0.3, 0.9)
        for ax in range(4):
            for ay in range(4 - ax):
                if ax + ay == 0:
                    continue
                exact = phi.partial(x, y, ax, ay)
                # Differentiate the order-reduced exact partial once by a
                # centered difference; this keeps the FD noise at first order.
                if ax:
                    fd = _fd_partial(
                        lambda a, b: phi.partial(a, b, ax - 1, ay), x, y, 1, 0
                    )
                else:
                    fd = _fd_partial(
                        lambda a, b: phi.partial(a, b, ax, ay - 1), x, y, 0, 1
                    )
                assert abs(fd - exact) <= 1e-4 * max(1.0, abs(exact))


def test_enclosures_are_sound():
    rng = random.Random(22)
    maps = [
        PinnedDistance((0.25, 0.5)),
        PolynomialMap(P_QUAD),
        LinearProjection(np_theta := 1.1),
    ]
    for phi in maps:
        for _ in range(20):
            x0 = rng.uniform(0.0, 0.8)
            y0 = rng.uniform(0.0, 0.8)
            rect = Rect.of(
                Fraction(round(x0 * 64), 64),
                Fraction(round(x0 * 64), 64) + Fraction(1, 32),
                Fraction(round(y0 * 64), 64),
                Fraction(round(y0 * 64), 64) + Fraction(1, 32),
            )
            enc = phi.enclosure(rect)
            for _ in range(30):
                px = rng.uniform(float(rect.x0), float(rect.x1))
                py = rng.uniform(float(rect.y0), float(rect.y1))
                if isinstance(phi, PinnedDistance) and phi.value(px, py) == 0:
                    continue
                assert float(enc.lo) - 1e-9 <= phi.value(px, py) <= float(enc.hi) + 1e-9


# ---------------------------------------------------------------------------
# Whitney decomposition
# ---------------------------------------------------------------------------


class EmptyRegion:
    def __call__(self, square):
        return Region.OUTSIDE


def test_whitney_empty_region():
    decomp = whitney_decompose(EmptyRegion(), 6)
    assert decomp.cubes == ()
    assert len(decomp.leftover.cells) == 0


def test_whitney_full_square_single_root_cube():
    decomp = whitney_decompose(FullSquareRegion(), 6)
    assert len(decomp.cubes) == 1
    assert decomp.cubes[0] == DyadicSquare(0, 0, 0)
    assert decomp.flagged == frozenset()


def _dilate_subsquares(square):
    d = square.depth
    for di in range(4):
        for dj in range(4):
            yield d + 1, 2 * square.i - 1 + di, 2 * square.j - 1 + dj


def test_whitney_punctured_square():
    k_max = 7
    oracle = PuncturedSquareRegion()
    decomp = whitney_decompose(oracle, k_max)

    # Interior disjointness via exact rational rectangles.
    rects = [c.rect() for c in decomp.cubes]
    for a in range(len(rects)):
        for b in range(a + 1, len(rects)):
            ra, rb = rects[a], rects[b]
            assert (
                ra.x1 <= rb.x0 or rb.x1 <= ra.x0 or ra.y1 <= rb.y0 or rb.y1 <= ra.y0
            )

    by_depth = {}
    for idx, cube in enumerate(decomp.cubes):
        by_depth.setdefault(cube.depth, []).append(idx)
        # Every cube lies inside the region.
        assert oracle(cube) is Region.INSIDE
        if idx not in decomp.flagged:
            # Exhaustive dilate check: some half-depth square of 2Q exits.
            exits = False
            limit = 2 ** (cube.depth + 1)
            for d, i, j in _dilate_subsquares(cube):
                if not (0 <= i < limit and 0 <= j < limit):
                    exits = True
                    break
                if oracle(DyadicSquare(d, i, j)) is not Region.INSIDE:
                    exits = True
                    break
            assert exits

    # Cube sizes halve toward the puncture: each generation from 3 on holds
    # a bounded number of cubes hugging the center.
    for depth in range(3, k_max):
        near = [
            idx
            for idx in by_depth.get(depth, [])
            if max(
                abs(float(decomp.cubes[idx].rect().x0) - 0.5),
                abs(float(decomp.cubes[idx].rect().y0) - 0.5),
            )
            <= 2.0 ** (1 - depth)
        ]
        assert 1 <= len(near) <= 16

    # Unresolved boundary cells at k_max surround the puncture.
    assert len(decomp.leftover.cells) == 4


def test_whitney_rejects_bad_kmax():
    with pytest.raises(ValueError):
        whitney_decompose(FullSquareRegion(), 0)


# ---------------------------------------------------------------------------
# band partition
# ---------------------------------------------------------------------------


def test_band_partition_constant_function():
    k = 6
    A = full_grid_2d(3)
    A = GridSet2D.from_cells(Scale(k), [(i, j) for i in range(2**k) for j in range(2**k)])
    decomp = band_partition([PolynomialMap(parse_poly("1"))], 0.5, Scale(k), A)
    assert len(decomp.cubes) == 1
    assert decomp.cubes[0].depth == 0
    assert len(decomp.leftover.cells) == 0
    assert decomp.a_leftover_fraction == 0.0


def test_band_partition_coordinate_strip():
    # f = x with delta^w = 2^-3 at k = 6: the leftover is exactly the strip
    # x < 1/8 and accepted cubes pin x into dyadic bands [v, 2v].
    k = 6
    A = GridSet2D.from_cells(Scale(k), [(i, j) for i in range(2**k) for j in range(2**k)])
    decomp = band_partition([PolynomialMap(parse_poly("x"))], 0.5, Scale(k), A)
    strip = {(i, j) for i in range(8) for j in range(2**k)}
    assert set(decomp.leftover.cells) == strip
    assert decomp.a_leftover_fraction == pytest.approx(8 / 64)
    for cube, bands in zip(decomp.cubes, decomp.bands):
        rect = cube.rect()
        v = bands[0]
        assert v == rect.x0  # pinned value is the enclosure's lower end
        assert v >= Fraction(1, 8)
        assert rect.x1 <= 2 * rect.x0  # cubes tile dyadic annuli in x


def test_band_partition_certificates_sampled():
    k = 8
    A = GridSet2D.from_cells(Scale(k), [(i, j) for i in range(0, 2**k, 4) for j in range(0, 2**k, 4)])
    px = PolynomialMap(P_QUAD.partial("x"))
    py = PolynomialMap(P_QUAD.partial("y"))
    pxy = PolynomialMap(P_QUAD.partial("x").partial("y"))
    mp = PolynomialMap(mp_numerator(P_QUAD))
    decomp = band_partition([px, py, pxy, mp], 0.2, Scale(k), A)
    rng = random.Random(23)
    assert decomp.cubes
    for cube, bands in list(zip(decomp.cubes, decomp.bands))[:50]:
        rect = cube.rect()
        for f, v in zip((px, py, pxy, mp), bands):
            assert v >= Fraction(2.0 ** (-k * 0.2))
            for _ in range(50):
                x = rng.uniform(float(rect.x0), float(rect.x1))
                y = rng.uniform(float(rect.y0), float(rect.y1))
                value = abs(f.value(x, y))
                assert float(v) - 1e-12 <= value < 4 * float(v) + 1e-12


def test_band_partition_leftover_shrinks_with_scale():
    fractions = []
    for k in (8, 9, 10):
        A = GridSet2D.from_cells(
            Scale(k), [(i, j) for i in range(0, 2**k, 8) for j in range(0, 2**k, 8)]
        )
        px = PolynomialMap(P_QUAD.partial("x"))
        decomp = band_partition([px], 0.2, Scale(k), A)
        fractions.append(decomp.a_leftover_fraction)
    assert fractions[0] >= fractions[1] >= fractions[2]


# ---------------------------------------------------------------------------
# zero neighborhoods and level selection
# ---------------------------------------------------------------------------


def test_zero_nbhd_no_zeros():
    k = 6
    A = full_grid_2d(k)
    phi = PolynomialMap(parse_poly("x - 3"))
    assert zero_nbhd_covering(phi, A, Fraction(1, 2**k)) == 0


def test_zero_nbhd_diagonal_band():
    k = 7
    A = full_grid_2d(k)
    phi = PolynomialMap(parse_poly("x - y"))
    count = zero_nbhd_covering(phi, A, Fraction(1, 2**k))
    # s-inflated cells give the band |i - j| <= 3: an independent per-diagonal
    # count is sum over |d| <= 3 of (2^k - |d|) = 7 * 2^k - 12.
    n = 2**k
    assert count == 7 * n - 12
    assert 3 * n <= count <= 8 * n


def test_zero_nbhd_product_ap_sets():
    k = 10
    G = gen_ap(0.5, 0.0, Scale(k))
    phi = PolynomialMap(parse_poly("x - y"))
    count = zero_nbhd_covering(phi, (G, G), Fraction(1, 2**k))
    # AP spacing exceeds the band width, so only the diagonal cells remain.
    assert count == len(G.cells)


def test_zero_nbhd_monotone_in_s_and_a():
    k = 6
    A = full_grid_2d(k)
    phi = PolynomialMap(P_QUAD - 1)
    d = Fraction(1, 2**k)
    counts = [zero_nbhd_covering(phi, A, s) for s in (d, 2 * d, 4 * d, Fraction(1, 8))]
    assert counts == sorted(counts)
    sub = GridSet2D.from_cells(Scale(k), A.cells[: len(A.cells) // 2])
    assert zero_nbhd_covering(phi, sub, d) <= counts[0]


def test_select_level_translation_invariance():
    k = 6
    A = (
        GridSet1D(Scale(k), tuple(range(2**k))),
        GridSet1D(Scale(k), tuple(range(2**k))),
    )
    phi = PolynomialMap(parse_poly("x"))
    s = Fraction(1, 2**k)
    best = select_level(phi, A, s, 0.25, kappa=1.0)
    # Every level cuts a vertical strip of (nearly) the same width, so the
    # minimizer count matches any single level up to one cell column.
    reference = reference_level_covering(phi, A, s, Fraction(1, 4))
    assert abs(best.count - reference) <= 2**k


def test_select_level_finds_gap_in_ap():
    k = 10
    ap = gen_ap(0.5, 0.0, Scale(k))
    full = GridSet1D(Scale(k), tuple(range(2**k)))
    phi = PolynomialMap(parse_poly("x"))
    best = select_level(phi, (ap, full), Fraction(1, 2**k), 0.26, kappa=0.5)
    assert best.count == 0


def test_select_level_min_leq_mean():
    k = 5
    A = (
        GridSet1D(Scale(k), tuple(range(2**k))),
        GridSet1D(Scale(k), tuple(range(2**k))),
    )
    phi = PolynomialMap(parse_poly("x*y"))
    s = Fraction(1, 2**k)
    kappa = 1.0
    best = select_level(phi, A, s, 0.25, kappa=kappa)
    n = math.ceil(float(s) ** (-kappa / 2))
    t0 = Fraction(1, 4)
    candidates = [t0 + Fraction(i, n - 1) * t0 for i in range(n)]
    counts = [reference_level_covering(phi, A, s, t) for t in candidates]
    assert best.count <= sum(counts) / len(counts)


def test_select_level_precondition():
    k = 6
    A = (
        GridSet1D(Scale(k), tuple(range(2**k))),
        GridSet1D(Scale(k), tuple(range(2**k))),
    )
    with pytest.raises(ValueError):
        select_level(PolynomialMap(parse_poly("x")), A, Fraction(1, 4), 0.2, kappa=1.0)


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


def test_curvature_linear_projections_vanish():
    rng = random.Random(24)
    phis = [LinearProjection(t) for t in (0.2, 1.1, 2.3)]
    for _ in range(20):
        p = (rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9))
        assert abs(blaschke_curvature(*phis, p)) < 1e-8


def test_curvature_product_map_vanishes():
    phi1 = PolynomialMap(parse_poly("x"))
    phi2 = PolynomialMap(parse_poly("y"))
    phi3 = PolynomialMap(parse_poly("x*y"))
    assert blaschke_curvature(phi1, phi2, phi3, (0.5, 1.0 / 3.0)) == 0.0


def test_curvature_chart_matches_newton():
    rng = random.Random(25)
    phi1 = PolynomialMap(parse_poly("x"))
    phi2 = PolynomialMap(parse_poly("y"))
    phi3 = PolynomialMap(P_QUAD)
    checked = 0
    for _ in range(40):
        p = (rng.uniform(0.15, 0.95), rng.uniform(0.15, 0.95))
        if abs(phi3.partial(*p, 1, 0)) < 0.1 or abs(phi3.partial(*p, 0, 1)) < 0.1:
            continue
        chart = blaschke_curvature(phi1, phi2, phi3, p, method="chart")
        newton = blaschke_curvature(phi1, phi2, phi3, p, method="newton")
        if abs(chart) > 1e-6:
            assert abs(chart - newton) <= 1e-3 * abs(chart)
            checked += 1
    assert checked >= 10


def test_curvature_special_form_consistency():
    # A special form with nonvanishing P_x, P_y, P_xy has zero curvature
    # wherever defined; an expander has nonzero curvature somewhere.
    rng = random.Random(26)
    phi1 = PolynomialMap(parse_poly("x"))
    phi2 = PolynomialMap(parse_poly("y"))
    special = PolynomialMap(parse_poly("(x + y)^3 + x + y"))
    expander = PolynomialMap(P_QUAD)
    nonzero = 0
    for _ in range(30):
        p = (rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9))
        try:
            assert abs(blaschke_curvature(phi1, phi2, special, p)) < 1e-8
            if abs(blaschke_curvature(phi1, phi2, expander, p)) > 1e-3:
                nonzero += 1
        except DegenerateGradientsError:
            continue
    assert nonzero > 0


def test_curvature_pinned_triple_nonzero():
    pins = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    phis = [PinnedDistance(c) for c in pins]
    value = blaschke_curvature(*phis, (0.45, 0.62))
    assert abs(value) > 1e-3


def test_curvature_degenerate_gradients_raise():
    phis = [LinearProjection(0.0), LinearProjection(0.0), LinearProjection(1.0)]
    with pytest.raises(DegenerateGradientsError):
        blaschke_curvature(*phis, (0.5, 0.5))


# ---------------------------------------------------------------------------
# product extraction
# ---------------------------------------------------------------------------


def test_extract_product_exact_product_untouched():
    k = 8
    A0 = gen_ap(0.5, 0.0, Scale(k))
    X = GridSet2D.from_cells(Scale(k), [(i, j) for i in A0.cells for j in A0.cells])
    A, B, report = extract_product(X)
    assert A.cells == A0.cells
    assert B.cells == A0.cells
    assert report.intersection_count == len(X.cells)
    assert report.ratio == 1.0


def test_extract_product_full_grid():
    k = 4
    X = full_grid_2d(k)
    A, B, _ = extract_product(X)
    assert len(A.cells) == 2**k and len(B.cells) == 2**k


def test_extract_product_prunes_noise():
    rng = random.Random(27)
    k = 8
    A0 = gen_ap(0.5, 0.0, Scale(k))
    product = [(i, j) for i in A0.cells for j in A0.cells]
    noise = set()
    while len(noise) < len(product) // 9:
        cell = (rng.randrange(2**k), rng.randrange(2**k))
        if cell not in product:
            noise.add(cell)
    X = GridSet2D.from_cells(Scale(k), product + list(noise))
    A, B, report = extract_product(X)
    assert report.intersection_count >= len(X.cells) / 2
    # Surviving rows and columns all meet their degree thresholds.
    edges = set(X.cells) & {(i, j) for i in A.cells for j in B.cells}
    for i in A.cells:
        assert sum(1 for e in edges if e[0] == i) >= report.col_threshold
    for j in B.cells:
        assert sum(1 for e in edges if e[1] == j) >= report.row_threshold


# ---------------------------------------------------------------------------
# map images, preimages, serialization
# ---------------------------------------------------------------------------


def test_map_image_distance_annulus():
    k = 7
    X = GridSet2D.from_cells(Scale(k), [(40, 40), (41, 40), (40, 41)])
    phi = PinnedDistance((0.0, 0.0))
    img = map_image(phi, X)
    d = 1.0 / 2**k
    r = math.hypot(40.5 * d, 40.5 * d)
    assert any(abs((c + 0.5) * d - r) < 4 * d for c in img.cells)
    assert len(img.cells) <= 12


def test_preimage_cells_annulus():
    k = 7
    values = GridSet1D.from_cells(Scale(k), [64])  # distances near 1/2
    phi = PinnedDistance((0.0, 0.0))
    X = preimage_cells(phi, values, Rect.of(0, 1, 0, 1), Scale(k))
    d = 1.0 / 2**k
    for i, j in X.cells:
        r = math.hypot((i + 0.5) * d, (j + 0.5) * d)
        assert abs(r - 0.504) < 6 * d
    assert len(X.cells) > 0


# Reference copies of the per-cell code the array kernel replaced: the
# float enclosure formulas of the two float maps, written with Python
# floats and math.hypot, and the per-cell bodies of map_image and
# preimage_cells.


def reference_bounds(phi, rect):
    x0, x1 = float(rect.x0), float(rect.x1)
    y0, y1 = float(rect.y0), float(rect.y1)
    if isinstance(phi, LinearProjection):
        corners = [x * phi.cos + y * phi.sin for x in (x0, x1) for y in (y0, y1)]
        return min(corners), max(corners)
    cx, cy = phi.center
    dx = max(x0 - cx, 0.0, cx - x1)
    dy = max(y0 - cy, 0.0, cy - y1)
    dmin = math.hypot(dx, dy)
    dmax = math.hypot(max(abs(x0 - cx), abs(x1 - cx)), max(abs(y0 - cy), abs(y1 - cy)))
    pad = PinnedDistance._PAD * (1.0 + dmax)
    return max(0.0, dmin - pad), dmax + pad


def reference_map_image(phi, X):
    n = X.scale.cells
    d = X.scale.delta
    marks = set()
    for i, j in X.cells:
        enc = phi.enclosure(Rect(i * d, (i + 1) * d, j * d, (j + 1) * d))
        j0 = max(0, min(int(enc.lo * n), n - 1))
        j1 = max(0, min(int(enc.hi * n), n - 1))
        marks.update(range(j0, j1 + 1))
    return tuple(sorted(marks))


def reference_preimage(phi, values, window, scale):
    n = scale.cells
    d = scale.delta
    member = set(values.cells)
    cells = []
    for i in range(math.ceil(window.x0 / d), math.floor(window.x1 / d)):
        for j in range(math.ceil(window.y0 / d), math.floor(window.y1 / d)):
            enc = phi.enclosure(Rect(i * d, (i + 1) * d, j * d, (j + 1) * d))
            j0 = max(0, min(math.floor(enc.lo * n), n - 1))
            j1 = max(0, min(math.floor(enc.hi * n), n - 1))
            if any(v in member for v in range(j0, j1 + 1)):
                cells.append((i, j))
    return tuple(cells)


# Pin coordinates: anywhere, non-dyadic, or on a cell edge of some scale,
# inside or outside the unit square.
coordinates = st.one_of(
    st.floats(min_value=-1.0, max_value=2.0, allow_nan=False),
    st.sampled_from([0.3, 0.1, 0.7, 1 / 3]),
    st.builds(lambda m, e: m / 2**e, st.integers(-64, 128), st.integers(0, 12)),
)
float_maps = st.one_of(
    st.builds(PinnedDistance, st.tuples(coordinates, coordinates)),
    st.builds(LinearProjection, st.floats(min_value=-4.0, max_value=4.0)),
)
smooth_maps = st.one_of(
    float_maps,
    st.sampled_from([P_QUAD, parse_poly("x - y"), parse_poly("1/3*y^2 - x*y")]).map(PolynomialMap),
)


@st.composite
def cell_blocks(draw):
    """A scale and the cells of an axis-aligned block of at most 24 x 24."""
    k = draw(st.integers(1, 12))
    n = 2**k
    i0, j0 = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    cols = np.arange(i0, i0 + draw(st.integers(0, min(24, n - i0))))
    rows = np.arange(j0, j0 + draw(st.integers(0, min(24, n - j0))))
    return k, np.repeat(cols, rows.size), np.tile(rows, cols.size)


def assert_cells_equal_reference(phi, k, i, j):
    n = 2**k
    d = Fraction(1, n)
    cells = phi.enclosure_cells(i, j, k)
    assert all(c.dtype == np.int64 and c.shape == i.shape for c in cells)
    for a, b, j0, j1 in zip(i.tolist(), j.tolist(), *(c.tolist() for c in cells)):
        rect = Rect(a * d, (a + 1) * d, b * d, (b + 1) * d)
        lo, hi = reference_bounds(phi, rect)
        enc = phi.enclosure(rect)
        assert (float(enc.lo), float(enc.hi)) == (lo, hi)
        assert (enc.lo, enc.hi) == (Fraction(lo), Fraction(hi))
        assert j0 == max(0, min(math.floor(lo * n), n - 1))
        assert j1 == max(0, min(math.floor(hi * n), n - 1))


@settings(max_examples=200, deadline=None)
@given(float_maps, cell_blocks())
def test_float_enclosures_are_bit_identical_to_reference(phi, block):
    assert_cells_equal_reference(phi, *block)


# Inputs inside the filter band of PinnedDistance.enclosure_cells: ends
# that lie within an ulp or two of a cell edge m * 2^-k, where np.hypot
# alone could pick the wrong cell.


def in_band_case(k, a, b, m, end, s, flip, transpose):
    """A pin for cell (a, b) at scale k that puts the cell's lower (end
    "lo") or upper (end "hi") enclosure end on m * 2^-k, give or take the
    rounding: on the cell's row at height s in [0, 1] of it, left of the
    cell (right with flip), with x and y swapped by transpose."""
    d = 0.5**k
    x0, x1, y0, y1 = a * d, (a + 1) * d, b * d, (b + 1) * d
    cy = y0 + s * d
    reach = max(cy - y0, y1 - cy)
    if end == "lo":
        # dmin is the gap along the row and lo = gap - pad.
        gap = m * d
        for _ in range(3):
            gap = m * d + PinnedDistance._PAD * (1 + math.hypot(gap + d, reach))
        cx = x1 + gap if flip else x0 - gap
    else:
        # dmax runs to the far edge of the cell and hi = dmax + pad.
        far = m * d - PinnedDistance._PAD * (1 + m * d)
        run = math.sqrt(far * far - reach * reach)
        cx = x0 + run if flip else x1 - run
    pin, cell = ((cy, cx), (b, a)) if transpose else ((cx, cy), (a, b))
    return PinnedDistance(pin), k, np.array([cell[0]]), np.array([cell[1]])


@st.composite
def in_band_cases(draw):
    k = draw(st.integers(1, 12))
    cell = st.integers(0, 2**k - 1)
    end = draw(st.sampled_from(["lo", "hi"]))
    # hi needs a far edge at least half a cell off the pin: m >= 2.
    m = draw(st.integers(0 if end == "lo" else 2, 64))
    s = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    case = in_band_case(k, draw(cell), draw(cell), m, end, s, draw(st.booleans()), draw(st.booleans()))
    return case, end, m


def assert_in_band(phi, k, i, j, end, m):
    d = Fraction(1, 2**k)
    a, b = int(i[0]), int(j[0])
    lo, hi = reference_bounds(phi, Rect(a * d, (a + 1) * d, b * d, (b + 1) * d))
    v = lo if end == "lo" else hi
    assert abs(v * 2**k - m) < 2.0**-48 * (1 + hi) * 2**k


@settings(max_examples=300, deadline=None)
@given(in_band_cases())
def test_float_enclosures_in_the_filter_band_equal_reference(case):
    (phi, k, i, j), end, m = case
    assert_in_band(phi, k, i, j, end, m)
    assert_cells_equal_reference(phi, k, i, j)


def pythagorean_cases():
    """Cells whose near or far corner lies at an exact grid distance
    (3-4-5, 5-12-13, 8-15-17 or 20-21-29 cells) from a corner pin."""
    cases = []
    for p, q, k in ((3, 4, 4), (4, 3, 4), (5, 12, 4), (6, 8, 5), (8, 15, 5), (20, 21, 6)):
        n = 2**k
        for near in (True, False):
            # The near corner of cell (p, q) from (0, 0) is (p, q) * 2^-k;
            # the far corner of cell (p - 1, q - 1) is.
            a, b = (p, q) if near else (p - 1, q - 1)
            for pin, (ca, cb) in (
                ((0.0, 0.0), (a, b)),
                ((1.0, 0.0), (n - 1 - a, b)),
                ((0.0, 1.0), (a, n - 1 - b)),
                ((1.0, 1.0), (n - 1 - a, n - 1 - b)),
            ):
                cases.append((PinnedDistance(pin), k, np.array([ca]), np.array([cb])))
    return cases


@pytest.mark.parametrize("case", pythagorean_cases())
def test_float_enclosures_at_exact_grid_distances_equal_reference(case):
    assert_cells_equal_reference(*case)


@pytest.mark.parametrize("ulps", [4, -4])
def test_filter_holds_for_a_hypot_four_ulps_off(ulps):
    """The band of PinnedDistance allows np.hypot to be up to four ulps
    off math.hypot.  A stand-in that is exactly that far off must still
    give the cells of the math.hypot enclosure; with the band shrunk to
    nothing it does not."""

    def off_hypot(a, b):
        v = np.fromiter(map(math.hypot, np.ravel(a).tolist(), np.ravel(b).tolist()), float)
        for _ in range(abs(ulps)):
            v = np.nextafter(v, math.copysign(math.inf, ulps))
        return v.reshape(np.shape(a))

    rng = random.Random(ulps)
    cases = pythagorean_cases()
    for _ in range(200):
        k = rng.randint(1, 12)
        end = rng.choice(["lo", "hi"])
        m = rng.randint(0 if end == "lo" else 2, 64)
        a, b = rng.randrange(2**k), rng.randrange(2**k)
        flips = rng.random() < 0.5, rng.random() < 0.5
        cases.append(in_band_case(k, a, b, m, end, rng.choice([0.0, 0.5, 1.0]), *flips))
    with mock.patch.object(np, "hypot", off_hypot):
        for phi, k, i, j in cases:
            # The cell and its neighbours, so the recomputed cells sit
            # among cells the filter leaves to the stand-in.
            cols = np.arange(max(i[0] - 1, 0), min(i[0] + 2, 2**k))
            rows = np.arange(max(j[0] - 1, 0), min(j[0] + 2, 2**k))
            assert_cells_equal_reference(phi, k, np.repeat(cols, rows.size), np.tile(rows, cols.size))


@settings(max_examples=100, deadline=None)
@given(smooth_maps, st.data())
def test_map_image_equals_per_cell_loop(phi, data):
    k = data.draw(st.integers(1, 12))
    cell = st.integers(0, 2**k - 1)
    X = GridSet2D.from_cells(Scale(k), data.draw(st.lists(st.tuples(cell, cell), max_size=60)))
    assert map_image(phi, X).cells == reference_map_image(phi, X)


@settings(max_examples=100, deadline=None)
@given(smooth_maps, st.data())
def test_preimage_cells_equals_per_cell_loop(phi, data):
    k = data.draw(st.integers(1, 12))
    n = 2**k
    cells = data.draw(st.lists(st.integers(0, n - 1), max_size=20))
    values = GridSet1D.from_cells(Scale(k), cells)
    # Window edges on a grid four times finer, so some fall between
    # cell edges; at most 24 cells across, possibly none.
    x0, y0 = (Fraction(data.draw(st.integers(0, 4 * n)), 4 * n) for _ in range(2))
    x1 = min(Fraction(1), x0 + Fraction(data.draw(st.integers(0, 96)), 4 * n))
    y1 = min(Fraction(1), y0 + Fraction(data.draw(st.integers(0, 96)), 4 * n))
    window = Rect(x0, x1, y0, y1)
    got = preimage_cells(phi, values, window, Scale(k))
    assert got.cells == reference_preimage(phi, values, window, Scale(k))


@pytest.mark.parametrize(
    "phi", [PinnedDistance((0.3, 0.0)), LinearProjection(0.4), PolynomialMap(P_QUAD)]
)
def test_map_image_and_preimage_of_nothing_are_empty(phi):
    scale = Scale(5)
    assert map_image(phi, GridSet2D(scale, ())).cells == ()
    full = GridSet1D(scale, tuple(range(32)))
    # A window of zero width, and one narrower than a cell between two edges.
    x = Fraction(1, 3)
    for window in (Rect.of(x, x, 0, 1), Rect.of(x, x + Fraction(1, 64), 0, 1)):
        assert preimage_cells(phi, full, window, scale).cells == ()
    assert preimage_cells(phi, GridSet1D(scale, ()), Rect.of(0, 1, 0, 1), scale).cells == ()


@pytest.mark.parametrize(
    "make", [lambda: PinnedDistance((math.inf, 0.0)), lambda: LinearProjection(math.nan)]
)
def test_float_maps_reject_non_finite_parameters(make):
    with pytest.raises(ValueError):
        make()


def test_cube_decomposition_round_trip():
    k = 6
    A = full_grid_2d(k)
    decomp = band_partition([PolynomialMap(parse_poly("x"))], 0.5, Scale(k), A)
    text = format_cube_decomposition(decomp)
    parsed = parse_cube_decomposition(text)
    assert parsed.cubes == decomp.cubes
    assert parsed.bands == decomp.bands
    assert parsed.leftover == decomp.leftover


@pytest.mark.parametrize(
    "line",
    [
        "cube k=1 i=0 j=0 band j=0 x=1/2",
        "cube k=1 i=0 j=0 band",
        "cube k=1 i=0 j=0 band j=0",
        "cube k=1 i=0",
        "cube k=1 i=0 q=0",
        "cube k=1 i=0 j=zero",
        "cube k=1 i=0 j=0 band j=0 v=1/0",
        "cube k=1 i=2 j=0",
        "cube k=1 i=0 j=0 stray",
        "square k=1 i=0 j=0",
    ],
)
def test_cube_decomposition_rejects_malformed_line(line):
    with pytest.raises(ValueError, match="bad cube line"):
        parse_cube_decomposition(line + "\ngridset2d k=1\n")


# ---------------------------------------------------------------------------
# batched enclosures against reference copies of the per-box code
# ---------------------------------------------------------------------------

# Verbatim copies of the recursive walks, the per-cell level count and the
# per-cell enclosure_cells loop that the batched kernels replaced (only the
# names differ).  They take every enclosure one box at a time through the
# public scalar enclosure or region call, so they share no code with
# polyexpr.box_bounds.  Three small helpers they use live here, as only the
# tests need them.


def children(square: DyadicSquare) -> Tuple[DyadicSquare, ...]:
    """The four depth + 1 quadrants of the square, (0, 0), (1, 0), (0, 1), (1, 1)."""
    d, i, j = square.depth + 1, 2 * square.i, 2 * square.j
    return tuple(DyadicSquare(d, i + a, j + b) for b in (0, 1) for a in (0, 1))


def delta_cells(square: DyadicSquare, k: int) -> Iterator[Tuple[int, int]]:
    """All scale-k cells inside the square (k >= depth)."""
    span = 1 << (k - square.depth)
    i0, j0 = square.i * span, square.j * span
    for i in range(i0, i0 + span):
        for j in range(j0, j0 + span):
            yield (i, j)


def inflate(rect: Rect, s) -> Rect:
    """The rectangle grown by s on every side."""
    s = Fraction(s)
    return Rect(rect.x0 - s, rect.x1 + s, rect.y0 - s, rect.y1 + s)


def reference_dilate_exits(square: DyadicSquare, oracle: RegionOracle) -> bool:
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


def reference_whitney_decompose(omega: RegionOracle, k_max: int) -> CubeDecomposition:
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
            if not reference_dilate_exits(square, omega):
                flagged.add(len(cubes) - 1)
            continue
        if square.depth >= k_max:
            leftover.append((square.i, square.j))
            continue
        stack.extend(children(square))

    order = sorted(range(len(cubes)), key=lambda n: (cubes[n].depth, cubes[n].i, cubes[n].j))
    ordered_cubes = tuple(cubes[n] for n in order)
    ordered_flags = frozenset(order.index(n) for n in flagged)
    return CubeDecomposition(
        ordered_cubes,
        tuple(() for _ in ordered_cubes),
        ordered_flags,
        GridSet2D.from_cells(Scale(k_max), leftover),
    )


def reference_band_partition(
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
                leftover_cells.extend(delta_cells(square, k))
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
        for child in children(square):
            visit(child)

    visit(DyadicSquare(0, 0, 0))

    leftover = GridSet2D.from_cells(scale, leftover_cells)
    leftover_set = set(leftover.cells)
    in_leftover = sum(1 for c in A.cells if c in leftover_set)
    fraction = in_leftover / len(A.cells) if A.cells else 0.0
    return CubeDecomposition(
        tuple(cubes), tuple(bands), frozenset(), leftover, fraction
    )


def reference_iter_cells(A: Union[GridSet2D, ProductSet]):
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


def reference_level_covering(phi: SmoothMap2, A, s, t) -> int:
    s = Fraction(s)
    t = Fraction(t)
    count = 0
    for rect in reference_iter_cells(A):
        enc = phi.enclosure(inflate(rect, s))
        if enc.lo <= t <= enc.hi:
            count += 1
    return count


def reference_select_level(
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
        count = reference_level_covering(phi, A, s, t)
        if best is None or count < best.count:
            best = SelectedLevel(float(t), count)
    return best


def reference_enclosure_cells(self, i, j, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Clamped value-grid cells of the enclosure's ends on each cell."""
    n = 1 << k
    d = Fraction(1, n)
    j0, j1 = [], []
    for a, b in zip(np.asarray(i).tolist(), np.asarray(j).tolist()):
        enc = self.enclosure(Rect(a * d, (a + 1) * d, b * d, (b + 1) * d))
        j0.append(min(max(math.floor(enc.lo * n), 0), n - 1))
        j1.append(min(max(math.floor(enc.hi * n), 0), n - 1))
    return np.array(j0, dtype=np.int64), np.array(j1, dtype=np.int64)


def plain(region):
    """The region as a bare callable, which whitney_decompose asks square
    by square."""
    return lambda square: region(square)


region_polys = st.one_of(
    st.sampled_from(
        [
            "x^2 + y^2 - 5/16",
            "x^2 + y^2 - 3/8",
            "x - y",
            "x*y - 1/8 + x^3",
            "-1",
            "1",
            "y - 1/3*x^2 - 1/5",
        ]
    ).map(parse_poly),
    st.dictionaries(
        st.sampled_from([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (1, 2)]),
        st.fractions(min_value=-2, max_value=2, max_denominator=6).filter(bool),
        min_size=1,
    ).map(lambda terms: Poly(VARS2, terms)),
)
unit_points = st.fractions(min_value=0, max_value=1, max_denominator=12)
regions = st.one_of(
    st.builds(PolynomialSignRegion, region_polys, st.booleans()),
    st.builds(PuncturedSquareRegion, st.tuples(unit_points, unit_points)),
    st.just(FullSquareRegion()),
    st.just(EmptyRegion()),
)


@settings(max_examples=80, deadline=None)
@given(regions, st.integers(1, 6), st.booleans())
def test_whitney_equals_recursive_walk(omega, k_max, as_callable):
    got = whitney_decompose(plain(omega) if as_callable else omega, k_max)
    want = reference_whitney_decompose(omega, k_max)
    assert format_cube_decomposition(got) == format_cube_decomposition(want)
    assert got == want


@pytest.mark.parametrize(
    "region",
    [
        "poly-pos:x^2 + y^2 - 5/16",
        "poly-neg:x^2 + y^2 - 3/8",
        "poly-neg:x*y - 1/8 + x^3",
        "poly-pos:-1",
        "punctured",
    ],
)
def test_whitney_cli_regions_equal_recursive_walk(region):
    if region == "punctured":
        omega = PuncturedSquareRegion((Fraction(1, 3), Fraction(3, 4)))
    else:
        omega = PolynomialSignRegion(parse_poly(region[9:]), region.startswith("poly-pos"))
    got = whitney_decompose(omega, 7)
    assert format_cube_decomposition(got) == format_cube_decomposition(
        reference_whitney_decompose(omega, 7)
    )


band_maps = st.one_of(
    region_polys.map(PolynomialMap),
    st.sampled_from(
        [
            P_QUAD.partial("x"),
            P_QUAD.partial("x").partial("y"),
            mp_numerator(parse_poly("x + y + (x^2 + y^2)^2")),
        ]
    ).map(PolynomialMap),
    float_maps,
)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(band_maps, max_size=3),
    st.sampled_from([0.1, 0.2, 0.5, 1.0, 3.0]),
    st.integers(1, 6),
    st.data(),
)
def test_band_partition_equals_recursive_walk(fs, w, k, data):
    cell = st.integers(0, 2**k - 1)
    A = GridSet2D.from_cells(Scale(k), data.draw(st.lists(st.tuples(cell, cell), max_size=40)))
    got = band_partition(fs, w, Scale(k), A)
    want = reference_band_partition(fs, w, Scale(k), A)
    assert format_cube_decomposition(got) == format_cube_decomposition(want)
    assert got == want


def test_band_partition_quartic_equals_recursive_walk():
    # The certified band command: the quartic expander's four functions.
    P = parse_poly("x + y + (x^2 + y^2)^2")
    px, py = P.partial("x"), P.partial("y")
    fs = [PolynomialMap(f) for f in (px, py, px.partial("y"), mp_numerator(P))]
    k = 6
    A = GridSet2D.from_cells(
        Scale(k), [(i, j) for i in range(0, 2**k, 4) for j in range(0, 2**k, 4)]
    )
    got = band_partition(fs, 0.2, Scale(k), A)
    want = reference_band_partition(fs, 0.2, Scale(k), A)
    assert got.cubes and format_cube_decomposition(got) == format_cube_decomposition(want)
    assert got.a_leftover_fraction == want.a_leftover_fraction


@settings(max_examples=80, deadline=None)
@given(smooth_maps, st.data())
def test_level_counts_equal_per_cell_loop(phi, data):
    k = data.draw(st.integers(1, 8))
    cell = st.integers(0, 2**k - 1)
    product = data.draw(st.booleans())
    if product:
        A = tuple(
            GridSet1D.from_cells(Scale(k), data.draw(st.lists(cell, max_size=8))) for _ in "ab"
        )
    else:
        A = GridSet2D.from_cells(Scale(k), data.draw(st.lists(st.tuples(cell, cell), max_size=40)))
    delta = Fraction(1, 2**k)
    s = data.draw(
        st.sampled_from([delta, 3 * delta, Fraction(1, 3), Fraction(1), 1 / 3]).filter(
            lambda v: delta <= v <= 1
        )
    )
    assert zero_nbhd_covering(phi, A, s) == reference_level_covering(phi, A, s, 0)
    t0 = data.draw(st.sampled_from([0.26, 0.3, 0.5]))
    kappa = data.draw(st.sampled_from([0.5, 1.0]))
    if product and float(s) ** (kappa / 2) < t0:
        assert select_level(phi, A, s, t0, kappa) == reference_select_level(phi, A, s, t0, kappa)


@pytest.mark.parametrize("phi", [PinnedDistance((0.3, -0.2)), LinearProjection(0.7)])
def test_select_level_float_maps_equal_per_cell_loop(phi):
    k = 5
    A = (GridSet1D(Scale(k), tuple(range(32))), GridSet1D(Scale(k), tuple(range(0, 32, 2))))
    s = Fraction(1, 32)
    assert select_level(phi, A, s, 0.3, 1.0) == reference_select_level(phi, A, s, 0.3, 1.0)


@st.composite
def polys(draw):
    """Bivariate polynomials of degree <= 8, constants included."""
    degree = draw(st.integers(0, 8))
    monomials = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    chosen = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=6, unique=True))
    coefficient = st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(bool)
    return Poly(VARS2, {m: draw(coefficient) for m in chosen})


@settings(max_examples=150, deadline=None)
@given(polys().map(PolynomialMap), cell_blocks())
def test_polynomial_enclosure_cells_equal_per_cell_loop(phi, block):
    k, i, j = block
    got = phi.enclosure_cells(i, j, k)
    want = reference_enclosure_cells(phi, i, j, k)
    assert all(c.dtype == np.int64 and c.shape == i.shape for c in got)
    assert [c.tolist() for c in got] == [c.tolist() for c in want]


@pytest.mark.parametrize(
    "s", [0, Fraction(-1, 64), -0.5, Fraction(1, 128), Fraction(3, 2), math.nan, math.inf]
)
def test_select_level_rejects_s_outside_delta_one(s):
    k = 6
    A = (GridSet1D(Scale(k), tuple(range(2**k))), GridSet1D(Scale(k), tuple(range(2**k))))
    # The base map has no enclosure: any work before the check would raise
    # NotImplementedError instead.
    with pytest.raises(ValueError, match=r"s must lie in \[delta, 1\]"):
        select_level(SmoothMap2(), A, s, 0.26, kappa=0.5)
