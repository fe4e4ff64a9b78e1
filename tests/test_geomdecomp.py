"""Tests for smooth maps, decompositions, curvature, and product extraction."""

import math
import random
import tracemalloc
from fractions import Fraction
from typing import Iterator, Sequence, Tuple, Union
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from explab.geomdecomp import (
    CubeDecomposition,
    DegenerateGradientsError,
    DyadicSquare,
    ExtractionReport,
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
    common_preimage_cells,
    extract_product,
    format_cube_decomposition,
    map_image_counts,
    parse_cube_decomposition,
    select_level,
    whitney_decompose,
    zero_nbhd_covering,
)
from explab import geomdecomp
from explab.geomdecomp import _enclosure_pass, _hypot, _row_counts, _sqrt_hypot
from explab.gridset import GridSet1D, GridSet2D, Scale, gen_ap, nonconcentration_exponent
from explab.gridset import range_union
from explab.polyexpr import VARS2, Interval, Poly, Rect, mp_numerator, parse_poly

P_QUAD = parse_poly("x^2 + x*y + y^2")


def full_grid_2d(k):
    return GridSet2D.from_cells(
        Scale(k), [(i, j) for i in range(2**k) for j in range(2**k)]
    )


def packed(cubes, bands, flagged, leftover, fraction=None) -> CubeDecomposition:
    """The decomposition of a list of DyadicSquares and one row of band
    values (rationals) per square, packed into the stored arrays."""
    index = ([getattr(c, f) for c in cubes] for f in ("depth", "i", "j"))
    values = [[Fraction(v) for v in row] for row in bands]
    shape = (len(cubes), len(values[0]) if values else 0)
    tables = (
        np.array([[getattr(v, f) for v in row] for row in values], dtype=object).reshape(shape)
        for f in ("numerator", "denominator")
    )
    return CubeDecomposition(*index, *tables, flagged, leftover, fraction)


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


PARTIAL_ORDERS = [(ax, ay) for ax in range(4) for ay in range(4 - ax) if ax + ay]


def reference_pinned_partial(center, x, y, ax, ay):
    """PinnedDistance.partial as it was, on the unscaled u, v and r: the
    bit pattern every ordinary pin keeps."""
    u, v = x - center[0], y - center[1]
    r = math.hypot(u, v)
    r3 = r * r * r
    r5 = r3 * r * r
    return {
        (1, 0): u / r,
        (0, 1): v / r,
        (2, 0): v * v / r3,
        (1, 1): -u * v / r3,
        (0, 2): u * u / r3,
        (3, 0): -3 * u * v * v / r5,
        (2, 1): v * (2 * u * u - v * v) / r5,
        (1, 2): u * (2 * v * v - u * u) / r5,
        (0, 3): -3 * u * u * v / r5,
    }[ax, ay]


def fraction_pinned_partial(center, x, y, ax, ay):
    """The closed form of d^(ax+ay)|q - c| / dx^ax dy^ay in Fractions, with
    r = |q - c| to 200 bits: u, v and r^2 are exact."""
    u, v = Fraction(x) - Fraction(center[0]), Fraction(y) - Fraction(center[1])
    r2 = u * u + v * v
    r = Fraction(math.isqrt(r2.numerator * r2.denominator << 400), r2.denominator << 200)
    numerators = {
        (1, 0): u,
        (0, 1): v,
        (2, 0): v * v,
        (1, 1): -u * v,
        (0, 2): u * u,
        (3, 0): -3 * u * v * v,
        (2, 1): v * (2 * u * u - v * v),
        (1, 2): u * (2 * v * v - u * u),
        (0, 3): -3 * u * u * v,
    }
    return numerators[ax, ay] / r ** (2 * (ax + ay) - 1)


@pytest.mark.parametrize(
    "center",
    [(2.0**100, 0.0), (0.0, -(2.0**204)), (2.0**204, 2.0**204), (2.0**300, 0.0), (-(2.0**300), 0.5),
     (2.0**500, 2.0**500), (1e100, 0.0), (0.1, -0.2)],
)
def test_pinned_distance_partials_equal_the_closed_form_at_far_pins(center):
    phi = PinnedDistance(center)
    for x, y in ((0.3, 0.4), (0.0, 1.0), (0.7, 0.2)):
        for ax, ay in PARTIAL_ORDERS:
            want = float(fraction_pinned_partial(center, x, y, ax, ay))
            got = phi.partial(x, y, ax, ay)
            assert abs(got - want) <= 8 * math.ulp(want), (x, y, ax, ay, got, want)
    # The case that read 0.0: about 8e-301, a normal float.
    if center == (1e100, 0.0):
        assert phi.partial(0.3, 0.4, 2, 1) == pytest.approx(8e-301, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(*[st.floats(min_value=-1e20, max_value=1e20)] * 2),
    st.tuples(*[st.floats(min_value=-2.0, max_value=2.0)] * 2),
)
def test_pinned_distance_partials_keep_their_bits_at_ordinary_pins(center, point):
    # Wherever the unscaled products stay normal, the scaled form rounds the
    # same operations to the same bits.
    u, v = point[0] - center[0], point[1] - center[1]
    r = math.hypot(u, v)
    factors = [a for a in (u, v) if a]  # a zero factor makes its products exact zeros
    products = [r * r * r, r * r * r * r * r] + [a * b * c for a in factors for b in factors for c in factors]
    if not all(2.0**-1022 <= abs(p) < math.inf for p in products):
        return
    phi = PinnedDistance(center)
    for ax, ay in PARTIAL_ORDERS:
        assert phi.partial(*point, ax, ay).hex() == reference_pinned_partial(center, *point, ax, ay).hex()


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
    decomp = band_partition([PolynomialMap(parse_poly("1"))], 0.5, A)
    assert len(decomp.cubes) == 1
    assert decomp.cubes[0].depth == 0
    assert len(decomp.leftover.cells) == 0
    assert decomp.a_leftover_fraction == 0.0


def test_band_partition_coordinate_strip():
    # f = x with delta^w = 2^-3 at k = 6: the leftover is exactly the strip
    # x < 1/8 and accepted cubes pin x into dyadic bands [v, 2v].
    k = 6
    A = GridSet2D.from_cells(Scale(k), [(i, j) for i in range(2**k) for j in range(2**k)])
    decomp = band_partition([PolynomialMap(parse_poly("x"))], 0.5, A)
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
    decomp = band_partition([px, py, pxy, mp], 0.2, A)
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
        decomp = band_partition([px], 0.2, A)
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


def test_coordinate_maps_are_detected_without_the_fraction_view():
    # The coord:x and coord:y maps of the CLI; method auto asks both.
    phi1 = PolynomialMap(parse_poly("x"))
    phi2 = PolynomialMap(parse_poly("y"))
    phi3 = PolynomialMap(P_QUAD)
    chart = blaschke_curvature(phi1, phi2, phi3, (0.6, 0.7), method="chart")
    assert blaschke_curvature(phi1, phi2, phi3, (0.6, 0.7)) == chart
    assert phi1.poly._terms is None and phi2.poly._terms is None
    assert phi1.is_coordinate_x and not phi1.is_coordinate_y
    assert phi2.is_coordinate_y and not phi2.is_coordinate_x
    assert not PolynomialMap(parse_poly("2*x")).is_coordinate_x
    assert not PolynomialMap(parse_poly("1/2*x")).is_coordinate_x


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


def test_curvature_step_is_read_by_the_newton_method_alone():
    phi1, phi2, phi3 = (PolynomialMap(parse_poly(e)) for e in ("x", "y", "x^2 + x*y"))
    for method in ("auto", "chart"):
        with pytest.raises(ValueError, match="^step needs method 'newton'; the chart method reads no step$"):
            blaschke_curvature(phi1, phi2, phi3, (0.5, 0.5), method=method, step=1e-4)
    newton = blaschke_curvature(phi1, phi2, phi3, (0.5, 0.5), method="newton")
    assert blaschke_curvature(phi1, phi2, phi3, (0.5, 0.5), method="newton", step=1e-4) == newton


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


@pytest.mark.parametrize(
    "method, message",
    [("bogus", "unknown method 'bogus'"), ("chart", "chart method needs phi1 = x and phi2 = y")],
)
def test_curvature_method_is_checked_before_the_gradients(method, message):
    # The maps' gradients are parallel too; the method is the first fault.
    x = PolynomialMap(parse_poly("x"))
    with pytest.raises(ValueError, match=f"^{message}$") as exc:
        blaschke_curvature(x, x, x, (0.3, 0.4), method=method)
    assert not isinstance(exc.value, DegenerateGradientsError)


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
    img = reference_map_image(phi, X)
    assert map_image_counts((phi,), (X,)) == [[len(img)]]
    d = 1.0 / 2**k
    r = math.hypot(40.5 * d, 40.5 * d)
    assert any(abs((c + 0.5) * d - r) < 4 * d for c in img)
    assert len(img) <= 12


def test_preimage_cells_annulus():
    k = 7
    values = GridSet1D.from_cells(Scale(k), [64])  # distances near 1/2
    phi = PinnedDistance((0.0, 0.0))
    X = common_preimage_cells((phi,), values, Rect.of(0, 1, 0, 1))
    d = 1.0 / 2**k
    for i, j in X.cells:
        r = math.hypot((i + 0.5) * d, (j + 0.5) * d)
        assert abs(r - 0.504) < 6 * d
    assert len(X.cells) > 0


# Reference copies of the per-cell code the array kernel replaced: the
# float enclosure formulas of the two float maps, written with Python
# floats and math.hypot, and the per-cell bodies of a map's image and
# preimage.


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
def cell_blocks(draw, side=24):
    """A scale and the cells of an axis-aligned block of at most side x side."""
    k = draw(st.integers(1, 12))
    n = 2**k
    i0, j0 = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    cols = np.arange(i0, i0 + draw(st.integers(0, min(side, n - i0))))
    rows = np.arange(j0, j0 + draw(st.integers(0, min(side, n - j0))))
    return k, np.repeat(cols, rows.size), np.tile(rows, cols.size)


def assert_cells_equal_reference(phi, k, i, j):
    n = 2**k
    d = Fraction(1, n)
    cells = _enclosure_pass((phi,), i, j, k)[:, 0]
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


# Inputs inside the filter band of PinnedDistance's cells: ends that lie
# within an ulp or two of a cell edge m * 2^-k, where the fast hypotenuse
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


def random_in_band_cases(rng, count):
    """count in_band_case inputs drawn from rng."""
    cases = []
    for _ in range(count):
        k = rng.randint(1, 12)
        end = rng.choice(["lo", "hi"])
        m = rng.randint(0 if end == "lo" else 2, 64)
        a, b = rng.randrange(2**k), rng.randrange(2**k)
        flips = rng.random() < 0.5, rng.random() < 0.5
        cases.append(in_band_case(k, a, b, m, end, rng.choice([0.0, 0.5, 1.0]), *flips))
    return cases


def with_neighbours(phi, k, i, j):
    """The case's cell and its neighbours, so the recomputed cells sit
    among cells the filter leaves to the fast hypotenuse."""
    cols = np.arange(max(i[0] - 1, 0), min(i[0] + 2, 2**k))
    rows = np.arange(max(j[0] - 1, 0), min(j[0] + 2, 2**k))
    return phi, k, np.repeat(cols, rows.size), np.tile(rows, cols.size)


def hypot_off_by(ulps):
    """A stand-in for the fast hypotenuse exactly ulps ulps off math.hypot."""

    def off_hypot(a, b):
        a, b = np.broadcast_arrays(a, b)
        v = np.fromiter(map(math.hypot, a.ravel().tolist(), b.ravel().tolist()), float)
        for _ in range(abs(ulps)):
            v = np.nextafter(v, math.copysign(math.inf, ulps))
        return v.reshape(a.shape)

    return off_hypot


@pytest.mark.parametrize("ulps", [4, -4])
def test_filter_holds_for_a_hypot_four_ulps_off(ulps):
    """The band of PinnedDistance allows the fast hypotenuse to be up to
    four ulps off math.hypot.  A stand-in that is exactly that far off
    must still give the cells of the math.hypot enclosure; with the band
    shrunk to nothing it does not."""
    cases = pythagorean_cases() + random_in_band_cases(random.Random(ulps), 200)
    with mock.patch.object(geomdecomp, "_sqrt_hypot", hypot_off_by(ulps)):
        for case in cases:
            assert_cells_equal_reference(*with_neighbours(*case))


def sqrt_filter_cases(rng):
    """Blocks of 8 x 8 cells at k = 3..16 from corner, centre and random
    pins, the exact grid distances of pythagorean_cases, and 60 in-band
    cases per scale, each with its neighbours."""
    cases = pythagorean_cases()
    block = np.arange(8)
    for k in range(3, 17):
        n = 2**k
        for pin in (*CORNERS, (0.5, 0.5), (rng.random(), rng.random()), (rng.uniform(-1, 2), rng.random())):
            a, b = rng.randrange(n - 7), rng.randrange(n - 7)
            cases.append((PinnedDistance(pin), k, np.repeat(a + block, 8), np.tile(b + block, 8)))
        for _ in range(60):
            end = rng.choice(["lo", "hi"])
            m = rng.randint(0 if end == "lo" else 2, 64)
            a, b = rng.randrange(n), rng.randrange(n)
            flips = rng.random() < 0.5, rng.random() < 0.5
            cases.append(with_neighbours(*in_band_case(k, a, b, m, end, rng.choice([0.0, 0.5, 1.0]), *flips)))
    return cases


def fast_cells_differ(phi, k, i, j) -> bool:
    """Whether sqrt(a*a + b*b) in place of math.hypot moves some end of
    these cells into another value cell."""
    n = 2.0**k
    edges = (i / n, (i + 1) / n, j / n, (j + 1) / n)
    fast, exact = (np.floor(np.array(phi._bounds(phi._params, *edges, h)) * n) for h in (_sqrt_hypot, _hypot))
    return bool((np.clip(fast, 0, n - 1) != np.clip(exact, 0, n - 1)).any())


@pytest.mark.parametrize("seed", range(2))
def test_sqrt_filter_cells_equal_per_cell_enclosures(seed):
    """The square-root pass gives the cells of math.hypot's enclosure,
    also where the square root alone would not: some inputs here land an
    end of sqrt(a*a + b*b) in another cell, so a band of zero, or in-band
    cells recomputed with the square root or not at all, fail."""
    cases = sqrt_filter_cases(random.Random(seed))
    assert sum(fast_cells_differ(*case) for case in cases) >= 2
    for case in cases:
        assert_cells_equal_reference(*case)


@settings(max_examples=100, deadline=None)
@given(smooth_maps, st.data())
def test_map_image_equals_per_cell_loop(phi, data):
    k = data.draw(st.integers(1, 12))
    cell = st.integers(0, 2**k - 1)
    X = GridSet2D.from_cells(Scale(k), data.draw(st.lists(st.tuples(cell, cell), max_size=60)))
    assert map_image_counts((phi,), (X,)) == [[len(reference_map_image(phi, X))]]


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
    got = common_preimage_cells((phi,), values, window)
    assert got.cells == reference_preimage(phi, values, window, Scale(k))


@pytest.mark.parametrize(
    "phi", [PinnedDistance((0.3, 0.0)), LinearProjection(0.4), PolynomialMap(P_QUAD)]
)
def test_map_image_and_preimage_of_nothing_are_empty(phi):
    scale = Scale(5)
    assert map_image_counts((phi,), (GridSet2D(scale, ()),)) == [[0]]
    full = GridSet1D(scale, tuple(range(32)))
    # A window of zero width, and one narrower than a cell between two edges.
    x = Fraction(1, 3)
    for window in (Rect.of(x, x, 0, 1), Rect.of(x, x + Fraction(1, 64), 0, 1)):
        assert common_preimage_cells((phi,), full, window).cells == ()
    assert common_preimage_cells((phi,), GridSet1D(scale, ()), Rect.of(0, 1, 0, 1)).cells == ()


@pytest.mark.parametrize(
    "phi", [PinnedDistance((0.3, 0.0)), LinearProjection(0.4), PolynomialMap(P_QUAD)]
)
@pytest.mark.parametrize(
    "window, cut",
    [
        ((-0.5, 0.75, 0.25, 0.75), (0, 0.75, 0.25, 0.75)),
        ((0.25, 1.5, 0.25, 0.75), (0.25, 1, 0.25, 0.75)),
        ((0.25, 0.75, -0.5, 0.75), (0.25, 0.75, 0, 0.75)),
        ((0.25, 0.75, 0.25, 1.5), (0.25, 0.75, 0.25, 1)),
        ((-1, 2, -1, 2), (0, 1, 0, 1)),
    ],
)
def test_preimage_cells_of_a_window_past_the_grid_are_those_of_its_cut(phi, window, cut):
    # Such windows used to scan cells off the grid and fail.
    scale = Scale(5)
    values = GridSet1D(scale, tuple(range(0, 32, 3)))
    got = common_preimage_cells((phi,), values, Rect.of(*window))
    assert got.cells == reference_preimage(phi, values, Rect.of(*cut), scale)
    assert got.cells


@pytest.mark.parametrize(
    "make",
    [
        lambda: PinnedDistance((math.inf, 0.0)),
        lambda: LinearProjection(math.nan),
        # Pins past 2^500: (1.7e308, 1.7e308) used to overflow np.hypot
        # into NaN ends, and the image held every value cell.
        lambda: PinnedDistance((1.7e308, 1.7e308)),
        lambda: PinnedDistance((0.0, -(2.0**501))),
        lambda: PinnedDistance((math.nextafter(2.0**500, math.inf), 0.5)),
    ],
)
def test_float_maps_reject_non_finite_parameters(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("pin", [(2.0**500, 2.0**500), (-(2.0**500), 0.25)])
def test_pinned_distance_at_two_to_the_500_has_finite_ends(pin):
    phi = PinnedDistance(pin)
    for k in (5, 30):
        n = 2**k
        cols = np.array([0, 1, n - 1], dtype=np.int64)
        i, j = np.repeat(cols, 3), np.tile(cols, 3)
        assert_cells_equal_reference(phi, k, i, j)
        X = GridSet2D.from_cells(Scale(k), zip(i.tolist(), j.tolist()))
        assert reference_map_image(phi, X) == (n - 1,)
        assert map_image_counts((phi,), (X,)) == [[1]]


def test_cube_decomposition_round_trip():
    k = 6
    A = full_grid_2d(k)
    decomp = band_partition([PolynomialMap(parse_poly("x"))], 0.5, A)
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
        "cube k=1 i=0 j=0 band j=5 v=1/2",
        "cube k=1 i=0 j=0 band j=0 v=1\ncube k=1 i=1 j=0",
        "cube k=40 i=0 j=0",
        # int and Fraction read underscores and other scripts' digits.
        "cube k=1_0 i=0 j=0",
        "cube k=\uff11 i=0 j=0",
        "cube k=1 i=0 j=0 band j=0 v=1_0/3",
        "cube k=1 i=0 j=0 band j=0 v=\uff11/3",
    ],
)
def test_cube_decomposition_rejects_malformed_line(line):
    with pytest.raises(ValueError, match="bad cube line"):
        parse_cube_decomposition(line + "\ngridset2d k=1\n")


def test_cube_decomposition_rejects_number_texts_by_name():
    with pytest.raises(ValueError, match=r"^bad cube line 'cube k=1_0 i=0 j=0': not an ASCII number: '1_0'$"):
        parse_cube_decomposition("cube k=1_0 i=0 j=0\ngridset2d k=3\n")


@pytest.mark.parametrize(
    "line, message",
    [("cube k=100000000 i=0 j=0", "cube depth above 30"), ("cube k=40 i=-1 j=0", "dyadic square out of range")],
)
def test_cube_depth_is_refused_without_building_two_to_the_depth(line, message):
    # 2**(10**8) alone is a 12.5 MB integer.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^bad cube line '{line}': {message}$"):
            parse_cube_decomposition(line + "\ngridset2d k=3\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_dyadic_square_range_equals_the_power_of_two_bound():
    for depth in range(-1, 4):
        for i in range(-2, 2**max(depth, 0) + 2):
            for j in (-1, 0, 2**max(depth, 0) - 1, 2**max(depth, 0)):
                inside = depth >= 0 and 0 <= i < 2**depth and 0 <= j < 2**depth
                try:
                    DyadicSquare(depth, i, j)
                    built = True
                except ValueError as exc:
                    assert str(exc) == "dyadic square out of range"
                    built = False
                assert built == inside, (depth, i, j)


def test_cube_decomposition_skips_blank_cube_lines():
    text = "cube k=1 i=0 j=0 band j=0 v=1/2\ncube k=1 i=1 j=0 band j=0 v=3\ngridset2d k=3\n5 6\n"
    spaced = text.replace("\n", "\n\n \t\n", 1)
    assert parse_cube_decomposition(spaced) == parse_cube_decomposition(text)


@pytest.mark.parametrize("cubes", ["", "cube k=1 i=0 j=0\n"])
def test_cube_decomposition_rejects_a_gridset1d_leftover_block(cubes):
    with pytest.raises(ValueError, match="^bad cube line 'gridset1d k=3'"):
        parse_cube_decomposition(cubes + "gridset1d k=3\n5\n")


ONE_BAND = np.array([[1]], dtype=object)
NO_BANDS = np.empty((1, 0), dtype=object)


@pytest.mark.parametrize(
    "index, num, den",
    [
        (([0], [0], [0]), np.empty((0, 0), dtype=object), np.empty((0, 0), dtype=object)),
        (([1], [0, 1], [0]), NO_BANDS, NO_BANDS),
        (([1, 1], [0, 1], [0, 0]), NO_BANDS, NO_BANDS),
        (([[1]], [[0]], [[0]]), NO_BANDS, NO_BANDS),
        (([0], [0], [0]), np.array([1], dtype=object), np.array([1], dtype=object)),
        (([0], [0], [0]), ONE_BAND, NO_BANDS),
    ],
)
def test_cube_decomposition_rejects_arrays_that_disagree(index, num, den):
    # The first case is one cube without a band row, which the text form
    # would drop.
    with pytest.raises(ValueError):
        CubeDecomposition(*index, num, den, frozenset(), GridSet2D(Scale(1), ()))


@pytest.mark.parametrize(
    "den, flagged, message",
    [
        ([[0]], frozenset(), "band denominators must be positive"),
        ([[-4]], frozenset(), "band denominators must be positive"),
        ([[0]], frozenset({5}), "band denominators must be positive"),
        ([[1]], frozenset({5}), r"flagged cube indices must lie in \[0, 1\)"),
        ([[1]], frozenset({1}), r"flagged cube indices must lie in \[0, 1\)"),
        ([[1]], frozenset({-1}), r"flagged cube indices must lie in \[0, 1\)"),
    ],
)
def test_cube_decomposition_rejects_bad_denominators_and_flags(den, flagged, message):
    # The first three rows hold the hand-built table that printed v=1/0.
    leftover = GridSet2D(Scale(1), ())
    with pytest.raises(ValueError, match=message):
        CubeDecomposition([1], [0], [0], [[1]], den, flagged, leftover)
    with pytest.raises(ValueError, match=r"\[0, 0\)"):
        CubeDecomposition([], [], [], np.empty((0, 0), dtype=object), np.empty((0, 0), dtype=object), {0}, leftover)
    kept = CubeDecomposition([1], [0], [0], [[1]], [[3]], frozenset({0}), leftover)
    assert format_cube_decomposition(kept).splitlines()[0] == "cube k=1 i=0 j=0 band j=0 v=1/3 flagged"


def test_cube_decomposition_keeps_int64_band_tables_and_exact_lists():
    leftover = GridSet2D(Scale(2), ())
    num, den = np.array([[6, 1], [3, 4]]), np.array([[4, 1], [9, 8]])
    tables = CubeDecomposition([1, 1], [0, 1], [0, 0], num, den, frozenset(), leftover)
    lists = CubeDecomposition([1, 1], [0, 1], [0, 0], num.tolist(), den.tolist(), frozenset(), leftover)
    assert tables.band_num.dtype == tables.band_den.dtype == np.int64
    assert lists.band_num.dtype == lists.band_den.dtype == object
    text = format_cube_decomposition(tables)
    assert text == format_cube_decomposition(lists) and tables == lists
    assert text.splitlines()[:2] == ["cube k=1 i=0 j=0 band j=0 v=3/2 band j=1 v=1", "cube k=1 i=1 j=0 band j=0 v=1/3 band j=1 v=1/2"]
    # Integers past int64 in a list stay exact (numpy alone reads [[2^63, 3]] as floats).
    big = CubeDecomposition([0], [0], [0], [[2**63, 3]], [[2**64 + 2, 2**62]], frozenset(), leftover)
    assert big.bands == ((Fraction(2**62, 2**63 + 1), Fraction(3, 2**62)),)
    assert format_cube_decomposition(big).startswith(f"cube k=0 i=0 j=0 band j=0 v={2**62}/{2**63 + 1} band j=1 v=3/{2**62}")


# ---------------------------------------------------------------------------
# batched enclosures against reference copies of the per-box code
# ---------------------------------------------------------------------------

# Verbatim copies of the recursive walks, the per-cell level count and the
# per-cell enclosure loop that the batched kernels replaced (only the
# names differ).  They take every enclosure one box at a time through the
# public scalar enclosure or region call, on polyexpr's Fraction intervals,
# so they share no code with gridset's array kernel (box_bounds and its
# sign-rule helpers).  Three small helpers they use live here, as only the
# tests need them.  So do the per-rectangle enclosure_rects loop that the
# float maps' batch formula replaced and the Rect/Fraction calls of the two
# fixed regions, which the reference walk asks in place of their classify.


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
    return packed(
        ordered_cubes,
        tuple(() for _ in ordered_cubes),
        ordered_flags,
        GridSet2D.from_cells(Scale(k_max), leftover),
    )


def reference_band_partition(
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
    delta-cells, where unresolved cells also join the leftover.  The
    fraction of A's cells landing in the leftover is reported.
    """
    if w <= 0:
        raise ValueError("w must be positive")
    scale = A.scale
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
    return packed(
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


def reference_float_enclosure(phi, rect: Rect) -> Interval:
    """The float maps' enclosure of one rectangle as they once defined it:
    _bounds on the corners as floats, with math.hypot."""
    edges = (np.array([float(v)]) for v in (rect.x0, rect.x1, rect.y0, rect.y1))
    lo, hi = phi._bounds(phi._params, *edges, _hypot)
    return Interval(Fraction(float(lo[0])), Fraction(float(hi[0])))


def reference_enclosure(phi, rect: Rect) -> Interval:
    """enclosure of one rectangle; for a float map, by the reference above,
    not through the batch formula its enclosure now reads."""
    if isinstance(phi, (PinnedDistance, LinearProjection)):
        return reference_float_enclosure(phi, rect)
    return phi.enclosure(rect)


def reference_enclosure_cells(self, i, j, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Clamped value-grid cells of the enclosure's ends on each cell."""
    n = 1 << k
    d = Fraction(1, n)
    j0, j1 = [], []
    for a, b in zip(np.asarray(i).tolist(), np.asarray(j).tolist()):
        enc = reference_enclosure(self, Rect(a * d, (a + 1) * d, b * d, (b + 1) * d))
        j0.append(min(max(math.floor(enc.lo * n), 0), n - 1))
        j1.append(min(max(math.floor(enc.hi * n), 0), n - 1))
    return np.array(j0, dtype=np.int64), np.array(j1, dtype=np.int64)


def reference_enclosure_rects(self, x0, x1, y0, y1, den: int) -> Tuple[np.ndarray, np.ndarray, int]:
    """Exact integer enclosure ends of a batch of rectangles."""
    edges = np.broadcast_arrays(*(np.asarray(v) for v in (x0, x1, y0, y1)))
    encs = [
        reference_enclosure(self, Rect(*(Fraction(v, den) for v in corners)))
        for corners in zip(*(e.ravel().tolist() for e in edges))
    ]
    scale = math.lcm(*(v.denominator for e in encs for v in (e.lo, e.hi)))

    def ints(values) -> np.ndarray:
        out = [v.numerator * (scale // v.denominator) for v in values]
        return np.array(out, dtype=object).reshape(edges[0].shape)

    return ints(e.lo for e in encs), ints(e.hi for e in encs), scale


class ReferencePuncturedRegion:
    """Unit square minus one point (given in exact coordinates)."""

    def __init__(self, point=(Fraction(1, 2), Fraction(1, 2))):
        self.point = (Fraction(point[0]), Fraction(point[1]))

    def __call__(self, square: DyadicSquare) -> Region:
        r = square.rect()
        px, py = self.point
        if r.x0 <= px <= r.x1 and r.y0 <= py <= r.y1:
            return Region.BOUNDARY
        return Region.INSIDE


def reference_full_square(square: DyadicSquare) -> Region:
    return Region.INSIDE


def reference_oracle(region) -> RegionOracle:
    """The per-square answers the reference walk asks: the Rect/Fraction
    calls of the fixed regions above, the interval_range call of a sign
    region (its own), and a bare callable as it is."""
    if isinstance(region, PuncturedSquareRegion):
        return ReferencePuncturedRegion(region.point)
    if isinstance(region, FullSquareRegion):
        return reference_full_square
    return region


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
    st.builds(lambda P, positive: PolynomialSignRegion(P if positive else -P), region_polys, st.booleans()),
    st.builds(PuncturedSquareRegion, st.tuples(unit_points, unit_points)),
    st.just(FullSquareRegion()),
    st.just(EmptyRegion()),
)


@settings(max_examples=80, deadline=None)
@given(regions, st.integers(1, 6), st.booleans())
def test_whitney_equals_recursive_walk(omega, k_max, as_callable):
    got = whitney_decompose(plain(omega) if as_callable else omega, k_max)
    want = reference_whitney_decompose(reference_oracle(omega), k_max)
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
        P = parse_poly(region[9:])
        omega = PolynomialSignRegion(P if region.startswith("poly-pos") else -P)
    got = whitney_decompose(omega, 7)
    assert format_cube_decomposition(got) == format_cube_decomposition(
        reference_whitney_decompose(reference_oracle(omega), 7)
    )


@pytest.mark.parametrize(
    "omega",
    [FullSquareRegion()]
    + [PuncturedSquareRegion(p) for p in ((0.5, 0.5), ("1/3", "3/4"), (0, 0), (1, 1), (1, "1/2"))],
    ids=["full", "centre", "third", "origin", "corner", "edge"],
)
def test_whitney_fixed_regions_at_kmax_12_equal_recursive_walk(omega):
    got = whitney_decompose(omega, 12)
    want = reference_whitney_decompose(reference_oracle(omega), 12)
    assert format_cube_decomposition(got) == format_cube_decomposition(want)
    assert got == want


def unit_dyadics(depth):
    """m / 2^e in [0, 1], for e up to depth."""
    return st.integers(0, depth).flatmap(lambda e: st.integers(0, 2**e).map(lambda m: Fraction(m, 2**e)))


# Puncture coordinates in [0, 1]: on a dyadic edge or corner of some
# depth, next to one, any small rational, or one with a large denominator.
puncture_coordinates = st.one_of(
    unit_dyadics(12),
    st.builds(lambda p, s: p + s * Fraction(1, 3**30), unit_dyadics(6), st.sampled_from([-1, 1])).filter(
        lambda p: 0 <= p <= 1
    ),
    st.fractions(min_value=0, max_value=1, max_denominator=40),
    st.builds(lambda m: Fraction(m, 7 * 2**61 + 3), st.integers(0, 7 * 2**61 + 3)),
)


@settings(max_examples=300, deadline=None)
@given(st.tuples(puncture_coordinates, puncture_coordinates), st.integers(0, 12), st.data())
def test_punctured_classify_equals_fraction_reference(point, depth, data):
    n = 2**depth
    region, reference = PuncturedSquareRegion(point), ReferencePuncturedRegion(point)
    # The squares around the point (clamped into the grid) and random ones.
    ci, cj = (min(max(math.floor(p * n), 0), n - 1) for p in region.point)
    square = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    squares = [(a, b) for a in range(ci - 2, ci + 3) for b in range(cj - 2, cj + 3)]
    squares = [(a, b) for a, b in squares if 0 <= a < n and 0 <= b < n]
    squares += data.draw(st.lists(square, max_size=20))
    i, j = (np.array([c[axis] for c in squares], dtype=np.int64) for axis in (0, 1))
    inside, outside = region.classify(depth, i, j)
    want = [reference(DyadicSquare(depth, a, b)) for a, b in squares]
    assert inside.dtype == outside.dtype == bool and inside.shape == outside.shape == i.shape
    assert inside.tolist() == [r is Region.INSIDE for r in want]
    assert outside.tolist() == [r is Region.OUTSIDE for r in want]
    assert [region(DyadicSquare(depth, a, b)) for a, b in squares] == want


@pytest.mark.parametrize("depth", [0, 1, 5, 12])
def test_fixed_regions_classify_empty_and_whole_levels(depth):
    n = 2**depth
    i, j = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)
    inside, outside = FullSquareRegion().classify(depth, i, j)
    assert inside.all() and not outside.any() and inside.shape == (n * n,)
    centre = PuncturedSquareRegion().classify(depth, i, j)
    # The centre is a corner of four squares below depth 1, inside the root.
    assert (~centre[0]).sum() == (1 if depth == 0 else 4) and not centre[1].any()
    for region in (FullSquareRegion(), PuncturedSquareRegion()):
        assert [a.shape for a in region.classify(depth, i[:0], j[:0])] == [(0,), (0,)]


@pytest.mark.parametrize(
    "point",
    [(2, 2), (Fraction(-1, 2), Fraction(1, 2)), (Fraction(1, 2), 1 + Fraction(1, 2**70)), (-Fraction(1, 2**70), 0),
     (0.5, 1.5)],
)
def test_puncture_outside_the_unit_square_is_an_error(point):
    with pytest.raises(ValueError, match=r"^the puncture \S+ lies outside the unit square \[0, 1\]\^2$"):
        PuncturedSquareRegion(point)


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
    got = band_partition(fs, w, A)
    want = reference_band_partition(fs, w, A)
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
    got = band_partition(fs, 0.2, A)
    want = reference_band_partition(fs, 0.2, A)
    assert got.cubes and format_cube_decomposition(got) == format_cube_decomposition(want)
    assert got.a_leftover_fraction == want.a_leftover_fraction


class DepthStep(SmoothMap2):
    """Enclosed by [0, 0] on the unit square and by [1, 1] on every smaller
    rectangle: not inclusion isotone, so whether a square that tops out
    below delta^w is dead or split shows in the result."""

    def enclosure_rects(self, x0, x1, y0, y1, den: int):
        value = np.full(np.broadcast_shapes(*(np.shape(v) for v in (x0, x1, y0, y1))), int(den > 1))
        return value, value.copy(), 1


QUARTIC = parse_poly("x + y + (x^2 + y^2)^2")
QUARTIC_BANDS = [QUARTIC.partial("x"), QUARTIC.partial("y"), QUARTIC.partial("x").partial("y"), mp_numerator(QUARTIC)]


@pytest.mark.parametrize(
    "fs, w, dtype",
    [
        # Polynomial maps around float maps, in several orders.
        ([PolynomialMap(QUARTIC_BANDS[0]), LinearProjection(0.7), PolynomialMap(QUARTIC_BANDS[3])], 0.2, object),
        ([PinnedDistance((-0.5, 1.5)), PolynomialMap(QUARTIC_BANDS[1]), PolynomialMap(QUARTIC_BANDS[2])], 0.2, object),
        ([PolynomialMap(parse_poly("x")), PinnedDistance((0.3, 0.3)), PolynomialMap(parse_poly("y + 1/4"))], 0.5, object),
        # x splits the root while 1/1000*y tops out below delta^w on it: the
        # root is split, not dead, as x does not pin it.
        ([PolynomialMap(parse_poly("x")), PolynomialMap(parse_poly("1/1000*y"))], 0.5, np.int64),
        ([PolynomialMap(parse_poly("1/1000*y + 1/2")), PolynomialMap(parse_poly("x"))], 0.5, np.int64),
        # The root: x does not pin it, so DepthStep's [0, 0] splits it; first
        # in the list, DepthStep kills it.
        ([PolynomialMap(parse_poly("x")), DepthStep()], 0.5, np.int64),
        ([DepthStep(), PolynomialMap(parse_poly("x"))], 0.5, np.int64),
        ([PolynomialMap(parse_poly("x + y")), LinearProjection(0.3), DepthStep()], 0.5, object),
        ([PolynomialMap(f) for f in QUARTIC_BANDS], 0.2, np.int64),
        # 2^70 x puts its ends and scale past int64.
        ([PolynomialMap(QUARTIC_BANDS[0]), PolynomialMap(parse_poly("2^70*x + 2^70"))], 0.2, object),
        ([], 0.2, np.int64),
    ],
)
@pytest.mark.parametrize("k", [1, 4, 6])
def test_band_partition_on_mixed_lists_equals_recursive_walk(fs, w, dtype, k):
    A = GridSet2D.from_cells(Scale(k), [(i, j) for i in range(0, 2**k, 3) for j in range(1, 2**k, 2)])
    got = band_partition(fs, w, A)
    want = reference_band_partition(fs, w, A)
    assert format_cube_decomposition(got) == format_cube_decomposition(want)
    assert got == want and got.a_leftover_fraction == want.a_leftover_fraction
    # The band tables stay int64 only where every function's ends are.
    assert got.band_num.dtype == got.band_den.dtype == dtype
    assert got.band_num.shape == got.band_den.shape == (got.depth.size, len(fs))


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


@pytest.mark.parametrize(
    "phi", [PolynomialMap(parse_poly("x - y + 1/3")), PinnedDistance((0.3, -0.2)), LinearProjection(0.7)]
)
def test_level_counts_past_int64_equal_per_cell_loop(phi):
    """s over 2^70 puts the inflated corners past int64: the cells reach
    enclosure_rects as Python ints, and the counts stay the loop's."""
    k = 5
    A = (GridSet1D(Scale(k), tuple(range(32))), GridSet1D(Scale(k), tuple(range(0, 32, 2))))
    s = Fraction(2**65 + 1, 2**70)
    want = reference_level_covering(phi, A, s, 0), reference_select_level(phi, A, s, 0.3, 1.0)
    enclosure_rects, dtypes = type(phi).enclosure_rects, []

    def spy(self, x0, *rest):
        dtypes.append(x0.dtype)
        return enclosure_rects(self, x0, *rest)

    with mock.patch.object(type(phi), "enclosure_rects", spy):
        got = zero_nbhd_covering(phi, A, s), select_level(phi, A, s, 0.3, 1.0)
    assert got == want and dtypes == [object, object]


@pytest.mark.parametrize(
    "count",
    [zero_nbhd_covering, lambda phi, A, s: select_level(phi, A, s, 0.5, 1.0)],
    ids=["zero_nbhd_covering", "select_level"],
)
def test_product_factors_at_two_scales_are_rejected(count):
    A = (GridSet1D(Scale(3), (1, 2)), GridSet1D(Scale(4), (1, 2)))
    with pytest.raises(ValueError, match="^product factors must share a scale$"):
        count(LinearProjection(0.7), A, Fraction(1, 8))


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
    got = _enclosure_pass((phi,), i, j, k)[:, 0]
    want = reference_enclosure_cells(phi, i, j, k)
    assert all(c.dtype == np.int64 and c.shape == i.shape for c in got)
    assert [c.tolist() for c in got] == [c.tolist() for c in want]


# The stacked pass: several maps asked about the same cells at once.  Each
# row must be the per-cell loop's, whatever the other rows hold.

CORNERS = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
pass_maps = st.one_of(
    smooth_maps,
    st.builds(PinnedDistance, st.sampled_from(CORNERS)),
    st.builds(LinearProjection, st.sampled_from([0.0, math.pi / 4, math.pi / 2, 2.0])),
    polys().map(PolynomialMap),
)


def assert_pass_rows_equal_reference(phis, k, i, j):
    cells = _enclosure_pass(phis, i, j, k)
    assert cells.dtype == np.int64 and cells.shape == (2, len(phis), i.size)
    for r, phi in enumerate(phis):
        want = reference_enclosure_cells(phi, i, j, k)
        assert [cells[0, r].tolist(), cells[1, r].tolist()] == [w.tolist() for w in want], (r, phi)


@settings(max_examples=150, deadline=None)
@given(st.lists(pass_maps, min_size=1, max_size=5), cell_blocks(side=8))
def test_enclosure_pass_rows_equal_per_cell_loop(phis, block):
    k, i, j = block
    assert_pass_rows_equal_reference(phis, k, i, j)


# A map that is not a float map takes value_cells of its enclosure_rects
# ends, one call per distinct scale of the pass: each cell must still be
# taken at its own scale, not at another cell's.


def test_enclosure_pass_asks_a_non_float_map_once_per_scale():
    """DepthStep's every cell is the top one of its own grid, 2^k - 1, so
    a cell taken at another scale shows."""
    dens = []

    class CountedDepthStep(DepthStep):
        def enclosure_rects(self, x0, x1, y0, y1, den: int):
            dens.append(den)
            return super().enclosure_rects(x0, x1, y0, y1, den)

    ks = np.array([3, 30, 3, 5, 9, 30, 3], dtype=np.int64)
    i, j = np.arange(7, dtype=np.int64), 2**ks - 1
    phis = [CountedDepthStep(), PinnedDistance((0.3, 0.6)), PolynomialMap(P_QUAD), PolynomialMap(parse_poly("x - y"))]
    cells = _enclosure_pass(phis, i, j, ks)
    assert sorted(dens) == [2**3, 2**5, 2**9, 2**30]
    assert cells[:, 0].tolist() == [(2**ks - 1).tolist()] * 2
    for r, phi in enumerate(phis):
        for c, k in enumerate(ks.tolist()):
            want = reference_enclosure_cells(phi, i[c : c + 1], j[c : c + 1], k)
            assert cells[:, r, c].tolist() == [int(w[0]) for w in want], (r, c)


def in_band_rows(phis, k, i, j):
    """The rows whose ends lie inside PinnedDistance's filter band on some
    of the cells, by the reference floats."""
    n, d = 2**k, Fraction(1, 2**k)
    rows = set()
    for r, phi in enumerate(phis):
        for a, b in zip(i.tolist(), j.tolist()):
            lo, hi = reference_bounds(phi, Rect(a * d, (a + 1) * d, b * d, (b + 1) * d))
            band = PinnedDistance._EDGE_BAND * (1 + hi) * n
            if any(abs(v * n - round(v * n)) < band for v in (lo, hi)):
                rows.add(r)
    return rows


@pytest.mark.parametrize("seed", range(6))
def test_enclosure_pass_recomputes_in_band_cells_with_their_own_row(seed):
    """One map's ends fall inside the filter band, the others' do not: the
    recomputed cells must take that map's pin, not another row's."""
    rng = random.Random(seed)
    for case in random_in_band_cases(rng, 40):
        phi, k, i, j = with_neighbours(*case)
        others = [PinnedDistance((rng.uniform(-1, 2), rng.uniform(-1, 2))) for _ in range(2)]
        phis = [others[0], phi, others[1]][: rng.choice([2, 3])]
        if in_band_rows(phis, k, i, j) == {1}:
            assert_pass_rows_equal_reference(phis, k, i, j)
            assert_pass_rows_equal_reference(phis[::-1], k, i, j)


@pytest.mark.parametrize("ulps", [4, -4])
def test_stacked_filter_holds_for_a_hypot_four_ulps_off(ulps):
    """test_filter_holds_for_a_hypot_four_ulps_off with every case one row
    of a three-map pass, so the recomputed cells sit in rows 0, 1 and 2."""
    cases = pythagorean_cases() + random_in_band_cases(random.Random(ulps), 100)
    with mock.patch.object(geomdecomp, "_sqrt_hypot", hypot_off_by(ulps)):
        for n, case in enumerate(cases):
            phi, k, i, j = with_neighbours(*case)
            phis = [PinnedDistance(CORNERS[n % 4]), PinnedDistance((0.3, 0.6))]
            phis.insert(n % 3, phi)
            assert_pass_rows_equal_reference(phis, k, i, j)


@pytest.mark.parametrize(
    "phis",
    [
        [PinnedDistance((0.3, 0.0)), PinnedDistance((1.0, 1.0))],
        [LinearProjection(0.4), PolynomialMap(P_QUAD), PinnedDistance((0.3, 0.0))],
        [],
    ],
)
def test_enclosure_pass_of_no_cells_is_empty(phis):
    empty = np.zeros(0, dtype=np.int64)
    cells = _enclosure_pass(phis, empty, empty, 5)
    assert cells.dtype == np.int64 and cells.shape == (2, len(phis), 0)
    scale = Scale(5)
    assert map_image_counts(phis, [GridSet2D(scale, ())]) == [[0] * len(phis)]
    assert map_image_counts(phis, []) == []
    full = GridSet1D(scale, tuple(range(32)))
    x = Fraction(1, 3)
    assert common_preimage_cells(phis, full, Rect.of(x, x, 0, 1)).cells == ()


@settings(max_examples=100, deadline=None)
@given(st.lists(pass_maps, min_size=1, max_size=4), st.data())
def test_map_image_counts_equal_per_map_references(phis, data):
    k = data.draw(st.integers(1, 10))
    n = 2**k
    cell = st.integers(0, n - 1)
    # Corner cells and a map that reaches both ends put images on cells 0
    # and 2^k - 1, next to the neighbouring rows' stretches of the union.
    corners = st.sampled_from([(0, 0), (0, n - 1), (n - 1, 0), (n - 1, n - 1)])
    cells = data.draw(st.lists(st.tuples(cell, cell), max_size=40)) + data.draw(st.lists(corners))
    X = GridSet2D.from_cells(Scale(k), cells)
    ends = data.draw(st.sampled_from([PinnedDistance((0.0, 0.0)), LinearProjection(0.0)]))
    phis = phis[:]
    phis.insert(data.draw(st.integers(0, len(phis))), ends)
    assert map_image_counts(phis, [X]) == [[len(reference_map_image(phi, X)) for phi in phis]]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_row_counts_equal_per_row_range_union_sizes(data):
    """Rows of short ranges on cells 0 and 2^k - 1 and in between, some
    empty (last < first) and one row all empty: a wrong row offset moves
    a row's cells into its neighbour's count or drops them."""
    k = data.draw(st.integers(1, 30))
    m, n = data.draw(st.integers(0, 5)), data.draw(st.integers(1, 6))
    top = 2**k - 1
    cell = st.sampled_from([0, top]) | st.integers(0, top)
    first = np.array(data.draw(st.lists(cell, min_size=m * n, max_size=m * n)), dtype=np.int64)
    widths = np.array(data.draw(st.lists(st.integers(-2, 4), min_size=m * n, max_size=m * n)))
    first = first.reshape(m, n)
    last = np.clip(first + widths.reshape(m, n), 0, top)
    if m:
        empty = data.draw(st.integers(0, m - 1))
        last[empty] = first[empty] - 1
    got = _row_counts(first, last, np.arange(m, dtype=np.int64)[:, None], m, k)
    assert got == [len(range_union(a, b)) for a, b in zip(first, last)]


@settings(max_examples=100, deadline=None)
@given(st.lists(pass_maps, min_size=1, max_size=3), st.data())
def test_common_preimage_cells_equal_the_intersection_of_references(phis, data):
    k = data.draw(st.integers(1, 10))
    n = 2**k
    values = GridSet1D.from_cells(Scale(k), data.draw(st.lists(st.integers(0, n - 1), max_size=20)))
    x0, y0 = (Fraction(data.draw(st.integers(0, 4 * n)), 4 * n) for _ in range(2))
    x1 = min(Fraction(1), x0 + Fraction(data.draw(st.integers(0, 48)), 4 * n))
    y1 = min(Fraction(1), y0 + Fraction(data.draw(st.integers(0, 48)), 4 * n))
    window = Rect(x0, x1, y0, y1)
    got = common_preimage_cells(phis, values, window)
    each = [reference_preimage(phi, values, window, Scale(k)) for phi in phis]
    assert got.cells == tuple(c for c in each[0] if all(c in other for other in each[1:]))


# A ladder pass: the cells of several sets, each at its own scale, in one
# enclosure pass and one union.


@st.composite
def ladders(draw):
    """1-4 sets of at most 12 cells at scales in [1, 30], repeated scales
    and empty sets included, corner cells often."""
    pool = draw(st.lists(st.integers(1, 30) | st.sampled_from([1, 30]), min_size=1, max_size=3))
    sets = []
    for k in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4)):
        top = 2**k - 1
        cell = st.sampled_from([0, top]) | st.integers(0, top)
        sets.append(GridSet2D.from_cells(Scale(k), draw(st.lists(st.tuples(cell, cell), max_size=12))))
    return sets


def assert_ladder_equals_per_set_references(phis, sets):
    want = [[len(reference_map_image(phi, X)) for phi in phis] for X in sets]
    assert map_image_counts(phis, sets) == want


@settings(max_examples=100, deadline=None)
@given(st.lists(pass_maps, min_size=1, max_size=3), ladders())
@example(
    [PinnedDistance((0.0, 0.0)), LinearProjection(0.0), PolynomialMap(P_QUAD)],
    [GridSet2D.from_cells(Scale(k), [(0, 0), (2**k - 1, 2**k - 1), (1, 2**k - 1)]) for k in (3, 9, 5, 9)],
)
def test_map_image_counts_of_a_ladder_equal_per_set_references(phis, sets):
    assert_ladder_equals_per_set_references(phis, sets)


@pytest.mark.parametrize("seed", range(6))
def test_ladder_pass_recomputes_in_band_cells_at_their_own_scale(seed):
    """Each in-band case is a set of a ladder behind sets at other scales,
    its pin one row among others: the recomputed ends must take the case's
    own scale and its own pin."""
    rng = random.Random(seed)
    for case in random_in_band_cases(rng, 30):
        phi, k, i, j = with_neighbours(*case)
        others = [rng.choice([s for s in (1, 4, 7, 12, 20, 30) if s != k]) for _ in range(2)]
        sets = [
            GridSet2D.from_cells(Scale(s), [(rng.randrange(2**s), rng.randrange(2**s)) for _ in range(3)])
            for s in others
        ]
        sets.insert(rng.choice([1, 2]), GridSet2D.from_cells(Scale(k), zip(i.tolist(), j.tolist())))
        phis = [PinnedDistance((rng.uniform(-1, 2), rng.uniform(-1, 2))), phi, LinearProjection(0.3)]
        assert 1 in in_band_rows(phis, k, i, j)
        assert_ladder_equals_per_set_references(phis, sets)


@pytest.mark.parametrize("seed", range(3))
def test_window_pass_recomputes_in_band_cells_at_their_own_column_and_row(seed):
    """A window pass takes columns against rows: an in-band cell found in
    the (map, column, row) array must be recomputed with its own map's
    pin, column and row."""
    rng = random.Random(seed)
    for phi, k, i, j in random_in_band_cases(rng, 40):
        cols = np.arange(max(i[0] - 1, 0), min(i[0] + 3, 2**k))
        rows = np.arange(max(j[0] - 2, 0), min(j[0] + 2, 2**k))
        phis = [PinnedDistance((rng.uniform(-1, 2), rng.uniform(-1, 2))), phi]
        got = _enclosure_pass(phis, cols[:, None], rows[None, :], k)
        assert got.shape == (2, 2, cols.size, rows.size)
        ci, cj = np.repeat(cols, rows.size), np.tile(rows, cols.size)
        assert 1 in in_band_rows(phis, k, ci, cj)
        for r, p in enumerate(phis):
            want = reference_enclosure_cells(p, ci, cj, k)
            assert [got[0, r].ravel().tolist(), got[1, r].ravel().tolist()] == [w.tolist() for w in want]


WINDOW_MAPS = [PinnedDistance((0.2, 0.9)), LinearProjection(0.3), PolynomialMap(parse_poly("x^2 - 1/3*y"))]


@pytest.mark.parametrize(
    "phis",
    [WINDOW_MAPS[:1], WINDOW_MAPS, [PinnedDistance((0.2, 0.9)), PinnedDistance((1.0, 0.3))], []],
    ids=["pin", "mixed", "pins", "none"],
)
@pytest.mark.parametrize(
    "window, cut",
    [
        # Wider than tall, and taller than wide.
        (("1/10", "4/5", "3/10", "9/20"), None),
        (("3/10", "9/20", "1/10", "4/5"), None),
        # Past the grid on two sides, and on all four.
        (("-1/2", "3/4", "1/4", "3/2"), ("0", "3/4", "1/4", "1")),
        (("-1", "2", "-1", "2"), ("0", "1", "0", "1")),
        # One column, one row, one cell.
        (("3/8", "13/32", "0", "1"), None),
        (("0", "1", "5/32", "3/16"), None),
        (("3/8", "13/32", "5/32", "3/16"), None),
        # No column, or no row: zero width, or 1/3 to 1/3 + 1/64, narrower
        # than a cell.
        (("1/3", "1/3", "0", "1"), None),
        (("0", "1", "1/3", "67/192"), None),
    ],
)
def test_common_preimage_window_is_the_product_of_its_columns_and_rows(phis, window, cut):
    scale = Scale(5)
    values = GridSet1D(scale, tuple(range(0, 32, 3)))
    rect, cut = (Rect(*map(Fraction, w)) for w in (window, cut or window))
    got = common_preimage_cells(phis, values, rect)
    d = scale.delta
    cols = range(math.ceil(cut.x0 / d), math.floor(cut.x1 / d))
    rows = range(math.ceil(cut.y0 / d), math.floor(cut.y1 / d))
    each = [set(reference_preimage(phi, values, cut, scale)) for phi in phis]
    assert got.cells == tuple((a, b) for a in cols for b in rows if all((a, b) in e for e in each))


@st.composite
def rect_batches(draw):
    """Corners over one denominator, m x 1 in x against 1 x n in y (either
    may be empty), as int64 when they fit and object arrays otherwise."""
    den = draw(st.sampled_from([1, 5, 8, 64, 3 * 2**10, 7 * 2**20, 2**54, 3 * 2**61]))
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))

    def column(size, shape):
        corner = st.integers(-2 * den, 3 * den)
        starts = np.array(draw(st.lists(corner, min_size=size, max_size=size)), dtype=object)
        widths = np.array(draw(st.lists(st.integers(0, den), min_size=size, max_size=size)), dtype=object)
        return starts.reshape(shape), (starts + widths).reshape(shape)

    x0, x1 = column(m, (m, 1))
    y0, y1 = column(n, (1, n))
    edges = (x0, x1, y0, y1)
    if den < 2**60 and draw(st.booleans()):
        edges = tuple(e.astype(np.int64) for e in edges)
    return (*edges, den)


@settings(max_examples=300, deadline=None)
@given(float_maps, rect_batches())
def test_float_enclosure_rects_equal_per_rectangle_loop(phi, batch):
    lo, hi, scale = phi.enclosure_rects(*batch)
    want_lo, want_hi, want_scale = reference_enclosure_rects(phi, *batch)
    assert scale == want_scale
    assert lo.shape == hi.shape == want_lo.shape and lo.dtype == hi.dtype == object
    assert lo.tolist() == want_lo.tolist() and hi.tolist() == want_hi.tolist()


@st.composite
def fraction_rects(draw):
    """Rectangles whose corners are rationals over dyadic and non-dyadic
    denominators, some past 2^53, inside and around the unit square."""
    def corner():
        den = draw(st.sampled_from([1, 3, 7, 10, 64, 3 * 2**10, 5**30, 2**70, 3 * 2**61 + 1]))
        return Fraction(draw(st.integers(-den, 2 * den)), den)

    (x0, x1), (y0, y1) = sorted((corner(), corner())), sorted((corner(), corner()))
    return Rect(x0, x1, y0, y1)


@settings(max_examples=300, deadline=None)
@given(fraction_rects(), st.data())
def test_float_enclosure_equals_per_rectangle_reference(rect, data):
    # Pins anywhere, on the unit square's corners and edges, and on the
    # rectangle's own corners and edges; projections at several angles.
    on_rect = st.tuples(
        st.sampled_from([rect.x0, rect.x1, (rect.x0 + rect.x1) / 2]),
        st.sampled_from([rect.y0, rect.y1, (rect.y0 + rect.y1) / 2]),
    ).map(lambda p: (float(p[0]), float(p[1])))
    unit_edges = st.tuples(st.sampled_from([0.0, 0.5, 1.0, 1 / 3]), st.sampled_from([0.0, 1.0]))
    phi = data.draw(
        st.one_of(
            float_maps,
            st.builds(PinnedDistance, st.one_of(on_rect, unit_edges, unit_edges.map(lambda p: p[::-1]))),
            st.builds(LinearProjection, st.sampled_from([0.0, math.pi / 6, math.pi / 4, math.pi / 2, 2.0, math.pi, -1.0])),
        )
    )
    got, want = phi.enclosure(rect), reference_float_enclosure(phi, rect)
    assert (got.lo, got.hi) == (want.lo, want.hi)


def test_float_enclosure_rects_take_math_hypot():
    """The fast hypotenuse and math.hypot differ in the last bits on some
    of these rectangles; the batch must give math.hypot's ends, as
    enclosure does."""
    phi = PinnedDistance((0.3, 0.7))
    k = 6
    cells = np.arange(2**k)
    i, j = cells[:, None], cells[None, :]
    d = 0.5**k
    edges = (i * d, (i + 1) * d, j * d, (j + 1) * d)
    edges = tuple(np.broadcast_to(e, (2**k, 2**k)).ravel() for e in edges)
    by_sqrt, by_math = (np.hstack(phi._bounds(phi._params, *edges, h)) for h in (_sqrt_hypot, _hypot))
    assert (by_sqrt != by_math).any()
    got = phi.enclosure_rects(i, i + 1, j, j + 1, 2**k)
    want = reference_enclosure_rects(phi, i, i + 1, j, j + 1, 2**k)
    assert got[2] == want[2] and [a.tolist() for a in got[:2]] == [a.tolist() for a in want[:2]]


def test_float_map_decompositions_build_no_rects(monkeypatch):
    k = 5
    A = (GridSet1D(Scale(k), tuple(range(0, 32, 3))), GridSet1D(Scale(k), tuple(range(32))))
    X = GridSet2D.from_cells(Scale(k), [(i, j) for i in range(0, 32, 3) for j in range(32)])
    maps = [PinnedDistance((0.3, -0.2)), LinearProjection(0.7)]
    requests = (
        lambda: format_cube_decomposition(band_partition(maps, 0.4, X)),
        lambda: format_cube_decomposition(band_partition(maps[1:], 0.2, X)),
        lambda: select_level(maps[0], A, Fraction(1, 32), 0.3, 1.0),
        lambda: select_level(maps[1], A, Fraction(3, 32), 0.4, 1.0),
        lambda: zero_nbhd_covering(maps[0], X, Fraction(1, 3)),
        lambda: zero_nbhd_covering(maps[1], A, 1 / 3),
    )
    before = [request() for request in requests]

    def forbidden(self):
        raise AssertionError("a float map path built a Rect")

    monkeypatch.setattr(Rect, "__post_init__", forbidden)
    assert [request() for request in requests] == before
    assert all("cube k=" in text for text in before[:2])
    with pytest.raises(AssertionError, match="Rect"):
        maps[0].enclosure(Rect.of(0, 1, 0, 1))


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


# ---------------------------------------------------------------------------
# product extraction against the dict-based pruning it replaced
# ---------------------------------------------------------------------------


def reference_extract_product(X: GridSet2D) -> Tuple[GridSet1D, GridSet1D, ExtractionReport]:
    """Verbatim copy of the set and dict popularity pruning that the
    bincount rounds of extract_product replaced (only the name differs)."""
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


@st.composite
def extraction_inputs(draw):
    k = draw(st.integers(1, 7))
    n = 2**k
    # A dense block plus scattered noise prunes over several rounds.
    block, density, rng = draw(st.integers(0, n)), draw(st.integers(1, 4)), draw(st.randoms())
    cells = {(i, j) for i in range(block) for j in range(block) if rng.randrange(density) == 0}
    cells |= set(draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=60)))
    if not cells:
        cells = {(0, 0)}
    return GridSet2D.from_cells(Scale(k), cells)


@settings(max_examples=300, deadline=None)
@given(extraction_inputs())
def test_extract_product_equals_dict_reference(X):
    A, B, report = extract_product(X)
    want_a, want_b, want = reference_extract_product(X)
    assert (A, B) == (want_a, want_b)
    assert report == want  # every field, rounds and thresholds included


def test_extract_product_reference_sees_several_rounds():
    rng = random.Random(5)
    cells = {(i, j) for i in range(16) for j in range(16)}
    cells |= {(rng.randrange(64), rng.randrange(64)) for _ in range(300)}
    X = GridSet2D.from_cells(Scale(6), cells)
    _, _, report = extract_product(X)
    assert report == reference_extract_product(X)[2] and report.rounds >= 2


# ---------------------------------------------------------------------------
# cube decompositions through their text form
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda: band_partition([PolynomialMap(parse_poly(e)) for e in ("x", "y")], 0.4, full_grid_2d(5)),
        lambda: band_partition(
            [PolynomialMap(mp_numerator(parse_poly("x^2*y + x*y^3 + x")))], 0.2, full_grid_2d(5)
        ),
        lambda: band_partition([PolynomialMap(parse_poly("3*x + 1"))], 0.2, full_grid_2d(4)),
        lambda: band_partition([], 0.2, full_grid_2d(3)),
        lambda: whitney_decompose(PolynomialSignRegion(parse_poly("x^2 + y^2 - 3/8")), 6),
        lambda: whitney_decompose(PuncturedSquareRegion(), 5),
    ],
)
def test_cube_decomposition_text_round_trips(make):
    decomp = make()
    text = format_cube_decomposition(decomp)
    parsed = parse_cube_decomposition(text)
    assert parsed.cubes == decomp.cubes and parsed.bands == decomp.bands
    assert parsed.flagged == decomp.flagged and parsed.leftover == decomp.leftover
    assert format_cube_decomposition(parsed) == text
    # Every value prints in lowest terms, as str(Fraction) does.
    values = [t[2:] for line in text.splitlines() for t in line.split() if t.startswith("v=")]
    assert values == [str(v) for row in decomp.bands for v in row]


def test_hand_built_cube_decomposition_keeps_its_bands():
    cubes = (DyadicSquare(1, 0, 0), DyadicSquare(1, 1, 0))
    bands = ((Fraction(1, 4), Fraction(6, 4)), (Fraction(-3, 2**70), 2))
    decomp = packed(cubes, bands, frozenset({1}), GridSet2D(Scale(1), ((0, 1),)))
    assert decomp.bands == bands and decomp.band_num.shape == (2, 2)
    text = format_cube_decomposition(decomp)
    assert text.splitlines()[:2] == [
        "cube k=1 i=0 j=0 band j=0 v=1/4 band j=1 v=3/2",
        f"cube k=1 i=1 j=0 band j=0 v=-3/{2**70} band j=1 v=2 flagged",
    ]
    assert parse_cube_decomposition(text) == decomp
