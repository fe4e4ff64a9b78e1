"""Tests for grid sets, generators, image/energy measurements, and fits."""

import random
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from itertools import product
from math import floor, inf, log2, nan
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import explab.gridset as gridset_module
from explab.geomdecomp import (
    LinearProjection,
    PolynomialMap,
    band_partition,
    common_preimage_cells,
    extract_product,
    map_image_counts,
    select_level,
    zero_nbhd_covering,
)
from explab.gridset import (
    GridSet1D,
    GridSet2D,
    ProductBounds,
    Scale,
    box_bounds,
    box_dim_fit,
    covering_number,
    cs_growth_bound,
    energy_count,
    energy_count_brute_force,
    fit_exponent,
    format_gridset,
    gen_ap,
    gen_cantor,
    image_set,
    nonconcentration_exponent,
    nonconcentration_exponent_2d,
    parse_gridset,
    product_set,
    restrict,
    sum_set,
    value_cells,
    window_cells,
)
from explab.polyexpr import VARS2, Interval, Poly, Rect, interval_range, parse_poly

P_SUM = parse_poly("x + y")


def random_set(rng, k, count):
    cells = rng.sample(range(2**k), count)
    return GridSet1D.from_cells(Scale(k), cells)


# ---------------------------------------------------------------------------
# covering numbers
# ---------------------------------------------------------------------------


def test_covering_full_interval():
    k = 8
    S = GridSet1D(Scale(k), tuple(range(2**k)))
    assert covering_number(S, k) == 2**k


def test_covering_endpoints():
    k = 8
    S = GridSet1D.from_cells(Scale(k), [0, 2**k - 1])
    assert covering_number(S, 1) == 2


def test_covering_ap_at_own_scale():
    S = gen_ap(0.5, 0.0, Scale(12))
    assert covering_number(S, 12) == 2**6


def test_covering_out_of_range():
    S = gen_ap(0.5, 0.0, Scale(8))
    with pytest.raises(ValueError):
        covering_number(S, 9)
    with pytest.raises(ValueError):
        covering_number(S, 0)


def test_coarsening_monotonicity_random():
    rng = random.Random(10)
    for _ in range(20):
        k = rng.randint(4, 10)
        S = random_set(rng, k, rng.randint(1, 2**k))
        for kp in range(2, k + 1):
            a = covering_number(S, kp - 1)
            b = covering_number(S, kp)
            assert a <= b <= 2 * a


def test_coarsening_monotonicity_2d_random():
    rng = random.Random(11)
    for _ in range(10):
        k = rng.randint(3, 7)
        cells = {(rng.randrange(2**k), rng.randrange(2**k)) for _ in range(40)}
        S = GridSet2D.from_cells(Scale(k), cells)
        for kp in range(2, k + 1):
            a = covering_number(S, kp - 1)
            b = covering_number(S, kp)
            assert a <= b <= 4 * a


# ---------------------------------------------------------------------------
# non-concentration
# ---------------------------------------------------------------------------


def test_nonconcentration_full_interval():
    S = GridSet1D(Scale(10), tuple(range(2**10)))
    res = nonconcentration_exponent(S, kappa=0.5, alpha=0.5)
    assert res.eta == pytest.approx(0.5, abs=1e-12)
    assert res.worst == (0, 0)


def test_nonconcentration_single_cell_floored():
    S = GridSet1D.from_cells(Scale(10), [37])
    res = nonconcentration_exponent(S, kappa=0.5, alpha=0.5)
    assert res.eta == 0.0  # every J gives count <= 1
    # With kappa < alpha the raw optimum is strictly negative and the
    # reported value is floored at zero with the flag set.
    res2 = nonconcentration_exponent(S, kappa=0.5, alpha=0.75)
    assert res2.eta == 0.0
    assert res2.floored and res2.raw < 0


def test_nonconcentration_ap_bounded_by_eta0():
    k = 12
    eta0 = 0.25
    S = gen_ap(0.5, eta0, Scale(k))
    res = nonconcentration_exponent(S, kappa=0.5, alpha=0.5)
    assert res.eta <= eta0 + 4.0 / k


def test_nonconcentration_2d_product():
    k = 6
    G = gen_ap(0.5, 0.0, Scale(k))
    X = GridSet2D.from_cells(Scale(k), [(i, j) for i in G.cells for j in G.cells])
    eta = nonconcentration_exponent_2d(X, alpha=0.5)
    assert eta <= 0.5  # products of spread sets concentrate mildly at best


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_nonconcentration_rejects_non_finite_parameters(value):
    S = GridSet1D.from_cells(Scale(6), [1, 5, 9])
    X = GridSet2D.from_cells(Scale(6), [(1, 2), (5, 9)])
    with pytest.raises(ValueError, match="alpha must be finite"):
        nonconcentration_exponent(S, kappa=0.5, alpha=value)
    with pytest.raises(ValueError, match="kappa"):
        nonconcentration_exponent(S, kappa=value, alpha=0.5)
    with pytest.raises(ValueError, match="alpha must be finite"):
        nonconcentration_exponent_2d(X, alpha=value)


def reference_nonconcentration_exponent(S, kappa, alpha):
    """The per-prefix scan of the dyadic tree, before the 1-D and 2-D
    exponents shared _tree_scan."""
    k = S.scale.k
    best = None
    worst = (0, 0)
    bucket = {c: 1 for c in S.cells}
    for level in range(k, -1, -1):
        for prefix, count in bucket.items():
            value = (log2(count) + level * kappa) / k - alpha
            if best is None or value > best:
                best = value
                worst = (level, prefix)
        if level:
            parent = {}
            for prefix, count in bucket.items():
                parent[prefix >> 1] = parent.get(prefix >> 1, 0) + count
            bucket = parent
    return max(0.0, best), best < 0, best, worst


def reference_nonconcentration_exponent_2d(X, alpha):
    k = X.scale.k
    bucket = {ij: 1 for ij in X.cells}
    best = None
    for level in range(k, -1, -1):
        for _, count in bucket.items():
            value = (log2(count) + level * alpha) / k - 2 * alpha
            if best is None or value > best:
                best = value
        if level:
            parent = {}
            for (i, j), count in bucket.items():
                key = (i >> 1, j >> 1)
                parent[key] = parent.get(key, 0) + count
            bucket = parent
    return max(0.0, best)


exponents = st.sampled_from([1e-9, 0.25, 0.5, 0.75, 1.0]) | st.floats(0.01, 1.0)


@st.composite
def tree_cells(draw, k, width):
    """Cells at scale k (tuples of width indices in 2-D): up to 60 drawn
    ones plus up to four whole dyadic blocks of one depth, which fill
    their levels and tie with each other, a few hundred cells at most."""
    index = st.integers(0, 2**k - 1)
    cell = index if width == 1 else st.tuples(index, index)
    cells = set(draw(st.lists(cell, max_size=60)))
    depth = draw(st.integers(0, min(k, 6 if width == 1 else 3)))
    prefix = st.integers(0, 2 ** (k - depth) - 1)
    prefix = prefix if width == 1 else st.tuples(prefix, prefix)
    for p in draw(st.lists(prefix, max_size=4)):
        blocks = [range(c << depth, (c + 1) << depth) for c in (p if width == 2 else (p,))]
        cells.update(product(*blocks) if width == 2 else blocks[0])
    return sorted(cells) or [draw(cell)]


def assert_scans_equal_references(k, cells, squares, kappa, alpha):
    S = GridSet1D.from_cells(Scale(k), cells)
    res = nonconcentration_exponent(S, kappa, alpha)
    assert (res.eta, res.floored, res.raw, res.worst) == reference_nonconcentration_exponent(
        S, kappa, alpha
    )
    X = GridSet2D.from_cells(Scale(k), squares)
    assert nonconcentration_exponent_2d(X, alpha) == reference_nonconcentration_exponent_2d(X, alpha)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 30), exponents, exponents | st.floats(-1.0, 2.0))
def test_tree_scan_equals_per_prefix_scan(data, k, kappa, alpha):
    cells = data.draw(tree_cells(k, 1))
    squares = data.draw(tree_cells(k, 2))
    assert_scans_equal_references(k, cells, squares, kappa, alpha)


TOP = 2**30 - 1


@pytest.mark.parametrize(
    "squares",
    [
        # A full 2 x 2 block at the top of both fields: i = 2^30 - 2 and
        # 2^30 - 1 share a parent, so must their cells.
        [(TOP - 1, TOP - 1), (TOP - 1, TOP), (TOP, TOP - 1), (TOP, TOP)],
        [(TOP, 0), (TOP, 1), (TOP - 1, 0), (TOP - 1, 1), (3, 0)],
        # Odd i next to even i of the same parent, and of the next parent.
        [(4, 6), (5, 6), (4, 7), (5, 7), (6, 6), (7, 7)],
        [(5, 9), (6, 9), (5, 8), (6, 8)],
        [(2**29 - 1, 0), (2**29, 0), (2**29 - 1, 1), (2**29, 1)],
        [(i, j) for i in range(TOP - 7, TOP + 1) for j in (0, 1, TOP)],
        # (0, 2^29) sorts between (0, 0) and (1, 0), whose cube it does not
        # share before level 0: only a sorted row counts the two together.
        [(0, 0), (0, 2**29), (1, 0)],
    ],
)
@pytest.mark.parametrize("alpha", [1e-9, 0.03, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("block", [gridset_module._SCAN_BLOCK, 1, 7])
def test_tree_scan_at_the_top_of_the_packed_fields(squares, alpha, block):
    cells = sorted({i for i, _ in squares} | {j for _, j in squares})
    with mock.patch.object(gridset_module, "_SCAN_BLOCK", block):
        assert_scans_equal_references(30, cells, squares, 1.0, alpha)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 30), exponents, exponents | st.floats(-1.0, 2.0))
def test_tree_scan_in_blocks_equals_one_block(data, k, kappa, alpha):
    """With the block bound cut to a few levels' worth of keys, the scan
    runs in several blocks and must still give the one-block result."""
    S = GridSet1D.from_cells(Scale(k), data.draw(tree_cells(k, 1)))
    X = GridSet2D.from_cells(Scale(k), data.draw(tree_cells(k, 2)))
    whole_1d, whole_2d = nonconcentration_exponent(S, kappa, alpha), nonconcentration_exponent_2d(X, alpha)
    rows = data.draw(st.integers(1, k + 1))

    def block(T):  # rows levels per block, or just under rows + 1, or one level
        return data.draw(st.sampled_from([rows * len(T), (rows + 1) * len(T) - 1, 1]))

    with mock.patch.object(gridset_module, "_SCAN_BLOCK", block(S)):
        assert nonconcentration_exponent(S, kappa, alpha) == whole_1d
    with mock.patch.object(gridset_module, "_SCAN_BLOCK", block(X)):
        assert nonconcentration_exponent_2d(X, alpha) == whole_2d


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_gen_ap_dyadic_spacing():
    S = gen_ap(0.5, 0.0, Scale(8))
    assert len(S.cells) == 16
    assert all(c == j * 16 for j, c in enumerate(S.cells))


def test_gen_ap_full_interval():
    S = gen_ap(1.0, 0.0, Scale(6))
    assert len(S.cells) == 64


def test_gen_ap_eta_quarter():
    # alpha = 1/2, eta = 1/4 at k = 8: 16 cells at position spacing
    # delta^(3/4) = 1/64, i.e. 4 cells apart on the k = 8 grid.
    S = gen_ap(0.5, 0.25, Scale(8))
    assert len(S.cells) == 16
    assert all(c == 4 * j for j, c in enumerate(S.cells))
    d = S.scale.delta
    assert S.cells[1] * d - S.cells[0] * d == Fraction(1, 64)


def test_gen_ap_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gen_ap(0.5, 0.75, Scale(8))
    with pytest.raises(ValueError):
        gen_ap(0.0, 0.0, Scale(8))


@pytest.mark.parametrize(
    "alpha, eta",
    [(nan, 0.0), (0.5, nan), (nan, nan), (inf, 0.0), (0.5, inf),
     (0.5, -0.25), (1.5, 0.0)],
)
def test_gen_ap_rejects_nan_and_out_of_range(alpha, eta):
    with pytest.raises(ValueError, match=r"^need 0 < alpha <= 1, eta >= 0, alpha \+ eta <= 1$"):
        gen_ap(alpha, eta, Scale(8))


def test_gen_cantor_counts():
    S = gen_cantor({0, 1}, 4, 5)
    assert S.scale.k == 10
    assert len(S.cells) == 32


def test_gen_cantor_full_pattern_is_interval():
    S = gen_cantor(range(4), 4, 3)
    assert len(S.cells) == 2**6


def test_gen_cantor_singleton():
    S = gen_cantor({0}, 2, 7)
    assert S.cells == (0,)


def test_gen_cantor_rejects_misaligned_base():
    with pytest.raises(ValueError):
        gen_cantor({0, 1}, 3, 4)
    with pytest.raises(ValueError):
        gen_cantor(set(), 4, 4)


def reference_restrict(S, lo, hi):
    """restrict as a per-cell Fraction test."""
    d = S.scale.delta
    return tuple(c for c in S.cells if c * d <= hi and (c + 1) * d >= lo)


@st.composite
def restrict_bounds(draw, k):
    """Cell edges m / 2^k from below -1 to above 2, nudged off the grid or
    not, and far-off values."""
    edge = Fraction(draw(st.integers(-(2 ** (k + 1)), 3 * 2**k)), 2**k)
    nudge = draw(st.sampled_from([0, 0, Fraction(1, 3 * 2**k), -Fraction(1, 3 * 2**k), Fraction(1, 7)]))
    return draw(st.sampled_from([edge + nudge, edge + nudge, Fraction(-(10**30)), Fraction(10**30)]))


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 12))
def test_restrict_equals_fraction_reference(data, k):
    lo, hi = data.draw(restrict_bounds(k)), data.draw(restrict_bounds(k))
    # Random cells, and the cells next to both bounds, where an off-by-one shows.
    near = [floor(v * 2**k) + d for v in (lo, hi) for d in (-2, -1, 0, 1)]
    cells = data.draw(st.lists(st.integers(0, 2**k - 1), max_size=12))
    S = GridSet1D.from_cells(Scale(k), cells + [c for c in near if 0 <= c < 2**k])
    R = restrict(S, lo, hi)
    assert R.cells == reference_restrict(S, lo, hi)
    assert R.keys.tolist() == list(R.cells) and R.scale == S.scale


# ---------------------------------------------------------------------------
# image sets
# ---------------------------------------------------------------------------


def test_image_two_point_sumset():
    k = 8
    A = GridSet1D.from_cells(Scale(k), [0, 2 ** (k - 1)])
    img = image_set(P_SUM, A, A)
    # sums near 0, 1/2, 1 -> after renormalizing [0, 2] to [0, 1]:
    # clusters near 0, 1/4, 1/2.  At most two cells per cluster.
    clusters = {c >> (k - 2) for c in img.grid.cells}
    assert clusters == {0, 1, 2}
    assert 3 <= len(img.grid.cells) <= 6


def test_image_ap_sumset_collapse():
    k = 12
    A = gen_ap(0.5, 0.0, Scale(k))
    grid = sum_set(A, A)
    n = len(A.cells)
    assert len(grid.cells) <= 2 * (2 * n - 1) + 2


def test_image_renormalization_recorded():
    k = 6
    A = GridSet1D(Scale(k), tuple(range(2**k)))
    img = image_set(parse_poly("x + y + (x^2 + y^2)^2"), A, A)
    assert img.value_lo == 0
    assert img.value_hi == 6  # 2 + (1 + 1)^2 at the far corner


def test_image_soundness_random_samples():
    rng = random.Random(12)
    k = 7
    P = parse_poly("x^2 + x*y + y^2")
    A = random_set(rng, k, 24)
    B = random_set(rng, k, 24)
    img = image_set(P, A, B)
    span = img.value_hi - img.value_lo
    member = set(img.grid.cells)
    d = Fraction(1, 2**k)
    for _ in range(200):
        a = rng.choice(A.cells)
        b = rng.choice(B.cells)
        pt = {
            "x": a * d + d * Fraction(rng.randint(0, 16), 16),
            "y": b * d + d * Fraction(rng.randint(0, 16), 16),
        }
        value = (P.evaluate(pt) - img.value_lo) / span
        cell = min(int(value * 2**k), 2**k - 1)
        assert cell in member


def test_sum_set_single_cell():
    A = GridSet1D.from_cells(Scale(8), [0])
    s = sum_set(A, A)
    assert len(s.cells) <= 2
    assert all(c <= 1 for c in s.cells)


def test_product_set_matches_image():
    rng = random.Random(13)
    A = random_set(rng, 6, 10)
    assert product_set(A, A).cells == image_set(parse_poly("x*y"), A, A).grid.cells


def test_sum_product_growth_on_cantor():
    A = gen_cantor({0, 1}, 4, 6)
    total = len(sum_set(A, A).cells) + len(product_set(A, A).cells)
    assert total > len(A.cells) ** 1.05


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------


def test_energy_two_cell_example():
    k = 6
    A = GridSet1D.from_cells(Scale(k), [0, 8])
    assert energy_count(P_SUM, A, A) == 6
    assert energy_count_brute_force(P_SUM, A, A) == 6


def test_energy_diagonal_lower_bound_random():
    rng = random.Random(14)
    for _ in range(10):
        A = random_set(rng, 6, rng.randint(1, 12))
        B = random_set(rng, 6, rng.randint(1, 12))
        assert energy_count(P_SUM, A, B) >= len(A.cells) * len(B.cells)


def test_energy_matches_brute_force_random():
    rng = random.Random(15)
    for _ in range(12):
        k = rng.randint(4, 6)
        P = parse_poly(
            rng.choice(
                ["x + y", "x*y", "x^2 + x*y + y^2", "x + y + (x^2 + y^2)^2"]
            )
        )
        A = random_set(rng, k, rng.randint(2, 10))
        B = random_set(rng, k, rng.randint(2, 10))
        assert energy_count(P, A, B) == energy_count_brute_force(P, A, B)


def test_energy_hf_zero_threshold_keeps_touching_pairs():
    # Enclosures of x + y on adjacent cells share an endpoint, and H_F of
    # x + y vanishes, so a zero threshold keeps every intersecting pair.
    A = GridSet1D(Scale(5), tuple(range(6)))
    assert energy_count(P_SUM, A, A, hf_min=0.0) == energy_count(P_SUM, A, A)
    assert energy_count(P_SUM, A, A) == energy_count_brute_force(P_SUM, A, A)


def test_energy_ap_exponent_near_three_alpha():
    points = []
    for k in range(10, 15):
        A = gen_ap(0.5, 0.0, Scale(k))
        points.append((k, energy_count(P_SUM, A, A)))
    fit = fit_exponent(points)
    assert 1.35 <= fit.slope <= 1.65


def test_energy_hf_filter_bounded_by_unfiltered():
    rng = random.Random(16)
    P = parse_poly("x^2 + x*y + y^2")
    for _ in range(6):
        A = random_set(rng, 5, rng.randint(2, 8))
        B = random_set(rng, 5, rng.randint(2, 8))
        base = energy_count(P, A, B)
        for hf_min in (0.0, 1e-6, 1e-2, 0.5):
            filtered = energy_count(P, A, B, hf_min=hf_min)
            assert filtered <= base
            assert filtered == energy_count_brute_force(P, A, B, hf_min=hf_min)


def test_energy_symmetry_under_pair_swap():
    # The collision relation is symmetric, so the ordered count is
    # len(pairs) plus twice the number of unordered colliding pairs: parity
    # check that the count minus the diagonal is even.
    rng = random.Random(17)
    for _ in range(8):
        A = random_set(rng, 5, rng.randint(2, 8))
        B = random_set(rng, 5, rng.randint(2, 8))
        total = energy_count(P_SUM, A, B)
        assert (total - len(A.cells) * len(B.cells)) % 2 == 0


def test_cs_growth_bound_arithmetic():
    assert cs_growth_bound(16, 256, 1.0) == pytest.approx(1.0)
    assert cs_growth_bound(2**6, int(2**12.5), 1.0) == pytest.approx(
        2**12 / int(2**12.5), rel=1e-9
    )
    assert cs_growth_bound(16, 256, 0.5) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        cs_growth_bound(16, 0, 1.0)
    with pytest.raises(ValueError):
        cs_growth_bound(16, 8, 1.0)


# ---------------------------------------------------------------------------
# fits
# ---------------------------------------------------------------------------


def test_fit_exponent_exact_powers():
    fit = fit_exponent([(k, 2.0**k) for k in range(6, 12)])
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.residual == pytest.approx(0.0, abs=1e-12)


def test_fit_exponent_constant():
    fit = fit_exponent([(k, 7.0) for k in range(6, 10)])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_exponent_synthetic_noise():
    rng = random.Random(18)
    points = [
        (k, 2.0 ** (1.5 * k) * (1 + 0.1 * (2 * rng.random() - 1))) for k in range(8, 16)
    ]
    fit = fit_exponent(points)
    assert abs(fit.slope - 1.5) <= 0.05


def test_fit_exponent_rejects_degenerate():
    with pytest.raises(ValueError):
        fit_exponent([(8, 1.0), (9, 2.0)])
    with pytest.raises(ValueError):
        fit_exponent([(8, 1.0), (8, 2.0), (8, 3.0)])
    with pytest.raises(ValueError, match="^values must be positive$"):
        fit_exponent([(8, 1.0), (9, 0.0), (10, 2.0)])
    for bad in (nan, inf, -inf):
        with pytest.raises(ValueError, match="^values must be finite$"):
            fit_exponent([(1, 1.0), (2, bad), (3, 4.0)])


@pytest.mark.parametrize("bad", [inf, -inf, nan])
def test_fit_exponent_rejects_non_finite_scale_quietly(capfd, bad):
    # inf passed the equal-scales check and reached LAPACK, which printed
    # "DLASCL parameter number 4 had an illegal value" and raised
    # LinAlgError; nan passed it too.
    with pytest.raises(ValueError, match="^scales must be finite$"):
        fit_exponent([(1, 1.0), (2, 2.0), (bad, 4.0)])
    assert capfd.readouterr().err == ""


def test_fit_exponent_stores_scales_untruncated():
    # These points fit slope 5; int(k) stored their scales as 0, 0, 0.
    fit = fit_exponent([(0.4, 2.0), (0.6, 4.0), (0.8, 8.0)])
    assert fit.slope == pytest.approx(5.0)
    assert fit.points == ((0.4, 1.0), (0.6, 2.0), (0.8, 3.0))
    # An integral scale, whatever its type, is stored as an int.
    fit = fit_exponent([(6, 2.0), (7.0, 4.0), (np.int64(8), 8.0)])
    assert fit.points == ((6, 1.0), (7, 2.0), (8, 3.0))
    assert [type(k) for k, _ in fit.points] == [int] * 3


def polyfit_reference(points):
    """(slope, intercept) of np.polyfit on the points, as fit_exponent reads them."""
    ks = np.array([float(k) for k, _ in points])
    logs = np.log2([float(v) for _, v in points])
    return tuple(float(c) for c in np.polyfit(ks, logs, 1))


@st.composite
def fit_points(draw):
    """3-8 points with positive values: at distinct integer scales up to
    30, or near-degenerate, every scale k0 but one at k0 + 2^-e (e up to
    10, past fit_exponent's tolerance of 1e-8 + 1e-5 k0)."""
    n = draw(st.integers(3, 8))
    if draw(st.booleans()):
        ks = draw(st.lists(st.integers(1, 30), min_size=n, max_size=n, unique=True))
    else:
        k0 = draw(st.integers(1, 30))
        ks = draw(st.permutations([k0] * (n - 1) + [k0 + 2.0 ** -draw(st.integers(0, 10))]))
    values = st.floats(min_value=1e-3, max_value=1e18)
    return [(k, draw(values)) for k in ks]


@settings(max_examples=300, deadline=None)
@given(fit_points())
def test_fit_exponent_equals_polyfit(points):
    fit = fit_exponent(points)
    assert (fit.slope, fit.intercept) == polyfit_reference(points)


def test_box_dim_full_interval():
    fit = box_dim_fit(
        lambda k: GridSet1D(Scale(k), tuple(range(2**k))), range(6, 11)
    )
    assert abs(fit.slope - 1.0) <= 0.01


def test_box_dim_cantor_half():
    fit = box_dim_fit(lambda d: gen_cantor({0, 1}, 4, d), range(3, 8))
    assert abs(fit.slope - 0.5) <= 0.03


def test_box_dim_expander_image_on_cantor():
    P = parse_poly("x^2 + x*y + y^2")

    def family(d):
        A = gen_cantor({0, 1}, 4, d)
        return image_set(P, A, A).grid

    fit = box_dim_fit(family, range(3, 7))
    assert fit.slope >= 0.55


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def test_gridset_round_trip_1d():
    rng = random.Random(19)
    S = random_set(rng, 9, 40)
    assert parse_gridset(format_gridset(S)) == S


def test_gridset_round_trip_2d():
    rng = random.Random(20)
    cells = {(rng.randrange(2**7), rng.randrange(2**7)) for _ in range(50)}
    S = GridSet2D.from_cells(Scale(7), cells)
    assert parse_gridset(format_gridset(S)) == S


def test_gridset_rejects_bad_header():
    with pytest.raises(ValueError):
        parse_gridset("gridset3d k=5\n1\n")


@pytest.mark.parametrize(
    "text, line",
    [
        ("gridset1d k=3\n1\nx\n", "bad gridset1d line 'x'"),
        ("gridset1d k=3\n1 2\n", "bad gridset1d line '1 2'"),
        ("gridset2d k=3\n0 1\n1 2 3\n", "bad gridset2d line '1 2 3'"),
        ("gridset2d k=3\n1\n", "bad gridset2d line '1'"),
        ("gridset2d k=3\n1 y\n", "bad gridset2d line '1 y'"),
        ("gridset1d k=abc\n1\n", "bad gridset header 'gridset1d k=abc'"),
    ],
)
def test_gridset_names_a_bad_line(text, line):
    with pytest.raises(ValueError, match=f"^{line}"):
        parse_gridset(text)


# ---------------------------------------------------------------------------
# array-built grid sets against their tuple builds
# ---------------------------------------------------------------------------


@st.composite
def cell_lists_2d(draw, max_size=40):
    k = draw(st.integers(1, 30))
    cell = st.integers(0, 2**k - 1)
    return k, draw(st.lists(st.tuples(cell, cell), max_size=max_size))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 30).flatmap(lambda k: st.tuples(st.just(k), st.lists(st.integers(0, 2**k - 1)))))
def test_array_built_gridset_1d_equals_from_cells(case):
    k, cells = case
    want = GridSet1D.from_cells(Scale(k), cells)
    got = GridSet1D._from_keys(Scale(k), np.unique(np.array(cells, dtype=np.int64)))
    assert got.cells == want.cells and got == want and hash(got) == hash(want)
    assert len(got) == len(want) and format_gridset(got) == format_gridset(want)
    assert got.keys.tolist() == want.keys.tolist() == list(want.cells)
    assert got.keys.dtype == want.keys.dtype == np.int64


@settings(max_examples=200, deadline=None)
@given(cell_lists_2d())
def test_array_built_gridset_2d_equals_from_cells(case):
    k, cells = case
    want = GridSet2D.from_cells(Scale(k), cells)
    keys = np.unique(np.array([i << 32 | j for i, j in cells], dtype=np.int64))
    got = GridSet2D._from_keys(Scale(k), keys)
    assert got.cells == want.cells and got == want and hash(got) == hash(want)
    assert len(got) == len(want) and format_gridset(got) == format_gridset(want)
    assert got.keys.tolist() == want.keys.tolist() == [i << 32 | j for i, j in want.cells]
    assert [a.tolist() for a in got.indices()] == [[c[n] for c in want.cells] for n in (0, 1)]


window_ends = st.one_of(
    st.fractions(min_value=-2, max_value=3, max_denominator=60),
    st.builds(lambda m, e: Fraction(m, 2**e), st.integers(-64, 128), st.integers(0, 14)),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-(10**20)), Fraction(10**20)]),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), *[window_ends] * 4)
def test_window_cells_equal_fraction_reference(k, a, b, c, d):
    """Non-dyadic ends, ends on a cell edge of some scale, and windows
    that reach past the unit square."""
    n = 2**k
    window = Rect(min(a, b), max(a, b), min(c, d), max(c, d))
    sides = window_cells(window, Scale(k))
    for (first, stop), (lo, hi) in zip(sides, ((window.x0, window.x1), (window.y0, window.y1))):
        assert type(first) is int and type(stop) is int and 0 <= first and stop <= n
        assert list(range(first, stop)) == [i for i in range(n) if lo <= Fraction(i, n) and Fraction(i + 1, n) <= hi]


_LINE = GridSet1D(Scale(6), (1, 5, 9, 33))
_ROW = GridSet2D(Scale(6), ((0, 1), (0, 5), (0, 9)))  # every i is 0
_PLANE = GridSet2D(Scale(6), ((1, 2), (3, 5), (7, 9)))


@pytest.mark.parametrize(
    "func, call",
    [
        ("restrict", lambda: restrict(_PLANE, Fraction(0), Fraction(1))),
        ("nonconcentration_exponent_2d", lambda: nonconcentration_exponent_2d(_LINE, 0.5)),
        (
            "band_partition",
            lambda: band_partition([PolynomialMap(parse_poly("1"))], 0.5, _LINE),
        ),
        # energy_count(x + y, X, X) was 15 and sum_set(X, X) was {63}.
        ("ProductBounds", lambda: ProductBounds(P_SUM, _LINE, _PLANE)),
        ("ProductBounds", lambda: image_set(P_SUM, _PLANE, _LINE)),
        ("ProductBounds", lambda: energy_count(P_SUM, _PLANE, _PLANE)),
        ("ProductBounds", lambda: sum_set(_PLANE, _PLANE)),
        ("ProductBounds", lambda: product_set(_LINE, _ROW)),
        ("energy_count_brute_force", lambda: energy_count_brute_force(P_SUM, _PLANE, _PLANE)),
        # An empty set before, with no maps or one.
        ("common_preimage_cells", lambda: common_preimage_cells([], _PLANE, Rect.of(0, 1, 0, 1))),
        (
            "common_preimage_cells",
            lambda: common_preimage_cells([LinearProjection(0.5)], _PLANE, Rect.of(0, 1, 0, 1)),
        ),
        # AttributeError before: a GridSet1D has no indices().
        ("map_image_counts", lambda: map_image_counts([LinearProjection(0.5)], [_LINE])),
        ("map_image_counts", lambda: map_image_counts([LinearProjection(0.5)], [_PLANE, _LINE])),
        ("extract_product", lambda: extract_product(_LINE)),
        # TypeError before: a GridSet1D is no pair.
        ("zero_nbhd_covering", lambda: zero_nbhd_covering(LinearProjection(0.5), _LINE, 0.25)),
        ("zero_nbhd_covering", lambda: zero_nbhd_covering(LinearProjection(0.5), (_LINE, _ROW), 0.25)),
        ("select_level", lambda: select_level(LinearProjection(0.5), _LINE, 0.25, 0.4, 0.5)),
        ("select_level", lambda: select_level(LinearProjection(0.5), (_PLANE, _LINE), 0.25, 0.4, 0.5)),
    ],
    ids=[
        "restrict", "nonconc_2d", "bands",
        "product_bounds", "image_set", "energy_count", "sum_set", "product_set",
        "energy_brute_force", "preimage_values", "common_preimage_values", "map_image_counts",
        "map_image_counts_ladder", "extract_product",
        "zero_nbhd_line", "zero_nbhd_pair", "select_level_line", "select_level_pair",
    ],
)
def test_set_of_the_wrong_dimension_is_rejected(func, call):
    with pytest.raises(ValueError, match=rf"^{func} needs a GridSet[12]D, got a GridSet[12]D$"):
        call()


@pytest.mark.parametrize(
    "keys",
    [
        [3, 1],  # unsorted
        [1, 1, 2],  # duplicate
        [-1, 2],  # below range
        [2, 16],  # past 2^k
    ],
)
def test_array_built_gridset_1d_rejects_bad_keys(keys):
    with pytest.raises(ValueError):
        GridSet1D._from_keys(Scale(4), np.array(keys, dtype=np.int64))


@pytest.mark.parametrize(
    "cells",
    [
        [(3, 0), (1, 2)],  # unsorted
        [(1, 2), (1, 2)],  # duplicate
        [(1, 3), (1, 2)],  # unsorted within a column
        [(1, 2), (16, 0)],  # i past 2^k
        [(0, 16), (1, 2)],  # j past 2^k
    ],
)
def test_array_built_gridset_2d_rejects_bad_keys(cells):
    with pytest.raises(ValueError):
        GridSet2D._from_keys(Scale(4), np.array([i << 32 | j for i, j in cells], dtype=np.int64))


@pytest.mark.parametrize(
    "keys",
    [
        np.array([-5, 3], dtype=np.int64),  # a negative key
        np.array([0, 1], dtype=np.int32),  # not int64
        np.array([[0, 1]], dtype=np.int64),  # not 1-D
        [0, 1],  # not an array
    ],
)
def test_array_built_gridsets_reject_malformed_arrays(keys):
    for cls in (GridSet1D, GridSet2D):
        with pytest.raises(ValueError):
            cls._from_keys(Scale(4), keys)


def test_gridset_keys_are_read_only():
    for S in (
        GridSet1D.from_cells(Scale(4), [1, 5]),
        GridSet1D._from_keys(Scale(4), np.array([1, 5], dtype=np.int64)),
        GridSet2D.from_cells(Scale(4), [(1, 5)]),
        GridSet2D._from_keys(Scale(4), np.array([1 << 32 | 5], dtype=np.int64)),
    ):
        with pytest.raises(ValueError):
            S.keys[0] = 0


def test_image_constant_polynomial_single_cell():
    A = GridSet1D.from_cells(Scale(6), [0, 5, 9])
    img = image_set(parse_poly("3"), A, A)
    assert img.grid.cells == (0,)
    assert ProductBounds(parse_poly("3"), A, A).image_count() == 1
    assert img.value_lo == img.value_hi == 3


def test_image_constant_polynomial_on_empty_sets_is_empty():
    empty = GridSet1D(Scale(6), ())
    A = GridSet1D.from_cells(Scale(6), [0, 5, 9])
    for P in (parse_poly("3"), Poly.zero()):
        for X, Y in ((empty, empty), (empty, A), (A, empty)):
            img = image_set(P, X, Y)
            assert img.grid.cells == () == image_set(P_SUM, X, Y).grid.cells
            assert ProductBounds(P, X, Y).image_count() == 0 == ProductBounds(P_SUM, X, Y).image_count()
            assert_value_range_exact(P, img)


# ---------------------------------------------------------------------------
# the integer pair-enclosure kernel against per-box interval_range
# ---------------------------------------------------------------------------


# Ends of at most 2^10 keep every power up to the fifth and every product
# exact in int64 and float64; object arrays take ends past 2^63.
_END_BOUNDS = {np.int64: 2**10, np.float64: 2**10, object: 2**70}


@st.composite
def end_pairs(draw):
    """A dtype and two pairs (lo, hi) of arrays, each a batch of the same
    number of intervals, signed, straddling zero or touching it."""
    dtype = draw(st.sampled_from(list(_END_BOUNDS)))
    bound = _END_BOUNDS[dtype]
    ends = st.one_of(st.just(0), st.integers(-4, 4), st.integers(-bound, bound))
    size = draw(st.integers(1, 12))
    rows = st.lists(st.tuples(ends, ends).map(sorted), min_size=size, max_size=size)
    return dtype, *(tuple(np.array(side, dtype=dtype) for side in zip(*draw(rows))) for _ in range(2))


def as_intervals(ends):
    return [Interval(Fraction(int(a)), Fraction(int(b))) for a, b in zip(*ends)]


def assert_ends_equal(got, want, dtype):
    assert all(np.asarray(end).dtype == np.dtype(dtype) for end in got)
    assert [(int(a), int(b)) for a, b in zip(*got)] == [(w.lo, w.hi) for w in want]


@settings(max_examples=300, deadline=None)
@given(end_pairs(), st.integers(1, 5))
def test_sign_rule_helpers_equal_interval_arithmetic(batch, n):
    """_abs_ends, _pow_bounds and _mul_bounds against Interval's
    abs_interval, pow and __mul__, elementwise."""
    dtype, xs, ys = batch
    xi, yi = as_intervals(xs), as_intervals(ys)
    assert_ends_equal(gridset_module._abs_ends(*xs), [x.abs_interval() for x in xi], dtype)
    powers = [x.pow(n) for x in xi]
    assert_ends_equal(gridset_module._pow_bounds(np.array(xs), n, False), powers, dtype)
    if (xs[0] >= 0).all():
        assert_ends_equal(gridset_module._pow_bounds(np.array(xs), n, True), powers, dtype)
    assert_ends_equal(gridset_module._mul_bounds(xs, ys), [x * y for x, y in zip(xi, yi)], dtype)


def cell_rect(k, a, b):
    d = Fraction(1, 2**k)
    return Rect(a * d, (a + 1) * d, b * d, (b + 1) * d)


def marked_cells(P, A, B):
    """Oracle for image_set: mark output cells box by box in Fractions."""
    k = A.scale.k
    n = 2**k
    total = interval_range(P, Rect.of(0, 1, 0, 1))
    span = total.hi - total.lo
    if span == 0:
        return (0,) if A.cells and B.cells else ()
    marks = set()
    for a in A.cells:
        for b in B.cells:
            iv = interval_range(P, cell_rect(k, a, b))
            j0 = min(max(floor((iv.lo - total.lo) * n / span), 0), n - 1)
            j1 = min(max(floor((iv.hi - total.lo) * n / span), 0), n - 1)
            marks.update(range(j0, j1 + 1))
    return tuple(sorted(marks))


def grid_product_bounds(P, A, B):
    """box_bounds on every cell product of A x B, flat and a-major."""
    a = np.array(A.cells, dtype=np.int64)[:, None]
    b = np.array(B.cells, dtype=np.int64)[None, :]
    ((lo, hi, scale, _),) = box_bounds((P,), a, a + 1, b, b + 1, 2**A.scale.k)
    return lo.ravel(), hi.ravel(), scale


def assert_bounds_exact(P, A, B):
    lo, hi, scale = grid_product_bounds(P, A, B)
    pairs = [(a, b) for a in A.cells for b in B.cells]
    assert lo.shape == hi.shape == (len(pairs),)
    for (a, b), l, h in zip(pairs, lo.tolist(), hi.tolist()):
        iv = interval_range(P, cell_rect(A.scale.k, a, b))
        assert (Fraction(l, scale), Fraction(h, scale)) == (iv.lo, iv.hi)
    return lo


coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(bool)


@st.composite
def polys(draw):
    """Bivariate polynomials of degree <= 8, with or without a constant."""
    degree = draw(st.integers(1, 8))
    monomials = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i) if i + j]
    chosen = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=6, unique=True))
    terms = {m: draw(coefficients) for m in chosen}
    if draw(st.booleans()):
        terms[(0, 0)] = draw(coefficients)
    return Poly(VARS2, terms)


@st.composite
def cell_sets(draw, max_size=4):
    k = draw(st.integers(1, 30))
    cell = st.integers(0, 2**k - 1)
    A = GridSet1D.from_cells(Scale(k), draw(st.lists(cell, max_size=max_size)))
    B = GridSet1D.from_cells(Scale(k), draw(st.lists(cell, max_size=max_size)))
    return A, B


@settings(max_examples=150, deadline=None)
@given(polys(), cell_sets(max_size=6))
def test_pair_bounds_equal_interval_range(P, sets):
    assert_bounds_exact(P, *sets)


@settings(max_examples=150, deadline=None)
@given(polys(), cell_sets(max_size=6))
def test_image_set_equals_per_box_marking(P, sets):
    A, B = sets
    img = image_set(P, A, B)
    assert img.grid.cells == marked_cells(P, A, B)
    assert_value_range_exact(P, img)


def assert_value_range_exact(P, img):
    total = interval_range(P, Rect.of(0, 1, 0, 1))
    assert (img.value_lo, img.value_hi) == (total.lo, total.hi)
    assert type(img.value_lo) is type(img.value_hi) is Fraction


def test_image_zero_polynomial_single_cell():
    A = GridSet1D.from_cells(Scale(5), [0, 3, 31])
    img = image_set(Poly.zero(), A, A)
    assert img.grid.cells == marked_cells(Poly.zero(), A, A) == (0,)
    assert_value_range_exact(Poly.zero(), img)


@settings(max_examples=100, deadline=None)
@given(polys(), cell_sets(), st.floats(min_value=0, max_value=16))
def test_energy_equals_brute_force_property(P, sets, hf_min):
    A, B = sets
    assert energy_count(P, A, B) == energy_count_brute_force(P, A, B)
    assert energy_count(P, A, B, hf_min=hf_min) == energy_count_brute_force(
        P, A, B, hf_min=hf_min
    )


def table_polys(kind):
    """Polynomials of a kind: any of degree <= 8, constant (zero
    included), or x + y + c (x^2 + y^2)^4, past int64 from k = 8 on."""
    if kind == "poly":
        return polys()
    if kind == "constant":
        return (coefficients | st.just(Fraction(0))).map(Poly.constant)
    return coefficients.map(lambda c: P_SUM + Poly.constant(c) * parse_poly("(x^2 + y^2)^4"))


@st.composite
def table_inputs(draw):
    """P, A and B for ProductBounds: empty A or B, constant P (zero
    included) and degree-8 P on the object path (k >= 8) among them."""
    kind = draw(st.sampled_from(("poly", "constant", "octic")))
    k = draw(st.integers(8 if kind == "octic" else 1, 30))
    cell = st.integers(0, 2**k - 1)
    A, B = (GridSet1D.from_cells(Scale(k), draw(st.lists(cell, max_size=4))) for _ in "AB")
    return kind, draw(table_polys(kind)), A, B


@settings(max_examples=150, deadline=None)
@given(table_inputs(), st.floats(min_value=0, max_value=16))
def test_product_bounds_equal_oracles(case, hf_min):
    kind, P, A, B = case
    table = ProductBounds(P, A, B)
    assert kind != "octic" or (table.err is not None and table.lo.dtype == np.float64)
    # One table answers every question, in any order.
    assert table.energy() == energy_count_brute_force(P, A, B)
    img = table.image()
    assert img.grid.cells == marked_cells(P, A, B)
    assert_value_range_exact(P, img)
    assert energy_count(P, A, B, hf_min) == energy_count_brute_force(P, A, B, hf_min=hf_min)
    assert table.energy() == energy_count(P, A, B)
    assert table.image() == image_set(P, A, B)


@st.composite
def ladder_inputs(draw):
    """P and a ladder of 1-4 sets (A, B) at mixed scales up to 9: empty
    sets and A != B among them, and for the octic a top scale of 8 or 9,
    so that its call is past int64 and filtered while a set below the
    top alone may be int64."""
    kind = draw(st.sampled_from(("poly", "constant", "octic")))
    scales = draw(st.lists(st.integers(1, 9), min_size=1, max_size=4))
    if kind == "octic":
        scales[0] = draw(st.integers(8, 9))
    sets = []
    for k in scales:
        cells = st.lists(st.integers(0, 2**k - 1), max_size=4)
        sets.append(tuple(GridSet1D.from_cells(Scale(k), draw(cells)) for _ in "AB"))
    return draw(table_polys(kind)), draw(st.permutations(sets))


@settings(max_examples=100, deadline=None)
@given(ladder_inputs(), st.sampled_from([None, 1, 40]))
def test_ladder_tables_equal_one_set_tables_and_oracles(case, budget):
    """Each table of a ladder is its one-set table with every exact end
    and the scale multiplied by 2^(shift deg), shift = K - k: the same
    image and energy, which brute force confirms.  These ladders share
    one call; with a budget of 1 or 40 pairs the sets split into calls,
    and K is the top scale of a set's own call."""
    P, sets = case
    deg = P.degree() or 0
    top = max(A.scale.k for A, _ in sets)
    with mock.patch.object(gridset_module, "_LADDER_PAIRS", budget or gridset_module._LADDER_PAIRS):
        (tables,) = ProductBounds.ladder((P,), sets)
    assert len(tables) == len(sets)
    for table, (A, B) in zip(tables, sets):
        one = ProductBounds(P, A, B)
        assert (table.A, table.B) == (A, B) and 0 <= table.shift <= top - A.scale.k
        assert budget or table.shift == top - A.scale.k
        factor = 2 ** (table.shift * deg)
        assert table.scale == one.scale * factor
        want = [[int(v) * factor for v in ends] for ends in one._exact_at()]
        assert [[int(v) for v in ends] for ends in table._exact_at()] == want
        pairs = np.arange(len(A) * len(B))
        assert [[int(v) for v in ends] for ends in table._exact_at(pairs)] == want
        assert table.image() == one.image()
        assert table.image().grid.cells == marked_cells(P, A, B)
        assert table.energy() == one.energy() == energy_count_brute_force(P, A, B)


@contextmanager
def unfiltered_kernel():
    """box_bounds with the float filter switched off: every table built
    inside holds box_bounds' exact ends, int64 or Python ints."""
    real = gridset_module.box_bounds

    def unfiltered(polys, x0, x1, y0, y1, den, filtered=False):
        return real(polys, x0, x1, y0, y1, den)

    with mock.patch.object(gridset_module, "box_bounds", unfiltered):
        yield


def exact_path(P, A, B):
    """energy and image of P on A x B from box_bounds' exact table."""
    with unfiltered_kernel():
        table = ProductBounds(P, A, B)
        assert table.err is None
        return table.energy(), table.image()


@settings(max_examples=150, deadline=None)
@given(ladder_inputs(), st.sampled_from([None, 1, 40]), st.booleans())
def test_image_count_equals_image_and_per_box_marking(case, budget, exact):
    """image_count() counts the cells that image() marks and that the
    per-box marking marks, on every kind of table: int64, Python ints
    (the octic past int64 with the filter off), float-filtered (the
    octic at a top scale of 8 or 9), constant P, empty A or B, and sets
    shifted inside a ladder call, whole or split by a budget of 1 or 40
    pairs."""
    P, sets = case
    with unfiltered_kernel() if exact else nullcontext():
        with mock.patch.object(gridset_module, "_LADDER_PAIRS", budget or gridset_module._LADDER_PAIRS):
            (tables,) = ProductBounds.ladder((P,), sets)
    for table, (A, B) in zip(tables, sets):
        if (P.degree() or 0) == 8 and A.scale.k + table.shift >= 8:
            assert table.lo.dtype == (object if exact else np.float64)
        count = table.image_count()
        assert count == len(table.image().grid) == len(marked_cells(P, A, B))
        assert table.image_count() == count  # a second count reads the same table


@contextmanager
def kernel_calls():
    """Record (polys, filtered, size) for every box_bounds call made
    inside: size None for corners (m, 1) x (1, n), every cell product,
    else the number of flat rectangles, the pairs of an exact gather."""
    calls = []
    real = gridset_module.box_bounds

    def spy(polys, x0, x1, y0, y1, den, filtered=False):
        calls.append((tuple(polys), filtered, None if np.ndim(x0) == 2 else np.size(x0)))
        return real(polys, x0, x1, y0, y1, den, filtered)

    with mock.patch.object(gridset_module, "box_bounds", spy):
        yield calls


def filtered_run(P, A, B):
    """energy and image of the float table of P on A x B, with the sizes
    of the exact-end gathers each of them made."""
    table = ProductBounds(P, A, B)
    assert table.err is not None and table.lo.dtype == table.hi.dtype == np.float64
    with kernel_calls() as calls:
        energy = table.energy()
        energy_gathers = calls[:]
        calls.clear()
        image = table.image()
    for polys, filtered, _ in energy_gathers + calls:
        assert polys == (P,) and not filtered
    return energy, image, [size for *_, size in energy_gathers], [size for *_, size in calls]


def assert_filtered_equals_oracles(P, A, B):
    """The float table's energy and image equal brute force, per-box
    marking and the exact table's; returns the gathers they made."""
    energy, image, energy_gathers, image_gathers = filtered_run(P, A, B)
    assert energy == energy_count_brute_force(P, A, B)
    assert image.grid.cells == marked_cells(P, A, B)
    assert (energy, image) == exact_path(P, A, B)
    return energy_gathers, image_gathers


positive_coefficients = st.fractions(min_value=Fraction(1, 12), max_value=12, max_denominator=12)


@st.composite
def symmetric_ties(draw):
    """A symmetric P of degree 8-10 with positive coefficients, x + y
    among its terms, and A holding cells a, b, a + 1, b + 1 at k = 9-20.
    The enclosure of P rises with each corner, so lo on (a + 1, b + 1)
    equals hi on (a, b) exactly, and so does lo on (b + 1, a + 1), whose
    float is the mirrored terms summed in another order."""
    degree = draw(st.integers(8, 10))
    k = draw(st.integers(9, 20))
    monomials = [(i, j) for i in range(degree + 1) for j in range(i, degree + 1 - i) if i + j]
    chosen = draw(st.lists(st.sampled_from(monomials), max_size=4, unique=True))
    terms = {(1, 0): Fraction(1), (0, 1): Fraction(1)}
    for i, j in chosen + [(0, degree)]:
        terms[(i, j)] = terms[(j, i)] = draw(positive_coefficients)
    a, b = (draw(st.integers(0, 2**k - 2)) for _ in "ab")
    extra = draw(st.lists(st.integers(0, 2**k - 1), max_size=2))
    return Poly(VARS2, terms), GridSet1D.from_cells(Scale(k), sorted({a, b, a + 1, b + 1, *extra}))


@settings(max_examples=150, deadline=None)
@given(symmetric_ties())
def test_filtered_energy_resolves_exact_ties(case):
    P, A = case
    energy_gathers, _ = assert_filtered_equals_oracles(P, A, A)
    assert energy_gathers and None not in energy_gathers  # the tied pairs' exact ends


@st.composite
def near_ties(draw):
    """P = x + y + c x^d (d = 8-10) with A holding a and a + 2 (a <= 3)
    and B holding b and the top cell: lo on (a + 2, b) exceeds hi on
    (a, b) by c ((a + 2)^d - (a + 1)^d) / den^d, less than the filter's
    band, so the pair is above only by its exact ends."""
    d, k = draw(st.integers(8, 10)), draw(st.integers(9, 14))
    P = P_SUM + Poly.constant(draw(positive_coefficients)) * parse_poly(f"x^{d}")
    a = draw(st.integers(0, 3))
    b = draw(st.integers(0, 2**k - 2))
    extra = draw(st.lists(st.integers(0, 2**k - 1), max_size=2))
    A = GridSet1D.from_cells(Scale(k), sorted({a, a + 2, *extra}))
    B = GridSet1D.from_cells(Scale(k), sorted({b, 2**k - 1}))
    return P, A, B


@settings(max_examples=100, deadline=None)
@given(near_ties())
def test_filtered_energy_resolves_pairs_inside_the_band(case):
    energy_gathers, _ = assert_filtered_equals_oracles(*case)
    assert energy_gathers and None not in energy_gathers


@st.composite
def edge_ends(draw):
    """c times a sum of 1, 2 or 4 monomials of degree <= d (d = 6-10, one
    of degree d), on the single cell 2^(k-1) or 2^(k-1) - 1 at k = d + 2
    (at least 11, for Python-int ends) to 20: P(1/2, 1/2) is that cell's
    lo or hi, and it lies exactly on the value-cell edge 2^k P(1/2, 1/2) /
    (number of monomials c)."""
    d = draw(st.integers(6, 10))
    k = draw(st.integers(max(d + 2, 11), 20))
    monomials = [(i, j) for i in range(d + 1) for j in range(d + 1 - i) if 0 < i + j < d]
    count = draw(st.sampled_from([1, 2, 4]))
    others = st.lists(st.sampled_from(monomials), min_size=count - 1, max_size=count - 1, unique=True)
    chosen = draw(others)
    top = draw(st.integers(0, d))
    c = draw(positive_coefficients)
    P = Poly(VARS2, {m: c for m in chosen + [(top, d - top)]})
    A = GridSet1D.from_cells(Scale(k), [2 ** (k - 1) - draw(st.integers(0, 1))])
    return P, A


@settings(max_examples=100, deadline=None)
@given(edge_ends())
def test_filtered_image_takes_exact_cells_on_value_cell_edges(case):
    P, A = case
    _, image_gathers = assert_filtered_equals_oracles(P, A, A)
    assert image_gathers and None not in image_gathers  # the end on the edge


def test_filtered_table_past_float_range_keeps_exact_ends():
    # Degree 35 at k = 30: the magnitude bound is about 2^1050, past any
    # float, so the table holds box_bounds' Python ints.
    A = GridSet1D.from_cells(Scale(30), [0, 1, 2**29, 2**30 - 1])
    P = parse_poly("x + y - 1/16*x^35 + 3/7")
    table = ProductBounds(P, A, A)
    assert table.err is None and table.lo.dtype == object
    assert table.energy() == energy_count_brute_force(P, A, A)
    assert table.image().grid.cells == marked_cells(P, A, A)
    assert energy_count(P, A, A, 0.5) == energy_count_brute_force(P, A, A, hf_min=0.5)
    # x^35 + y at k = 29 on cells 0 and 1: the ends' bound is 2^987 + 2^35,
    # so the ends are floats, but the value grid's width 2^1016 is not a
    # safe float: the image takes the exact table.
    A = GridSet1D.from_cells(Scale(29), [0, 1])
    P = parse_poly("x^35 + y")
    energy_gathers, image_gathers = assert_filtered_equals_oracles(P, A, A)
    assert image_gathers == [None]


@pytest.mark.parametrize(
    "text, k, cells, dtype",
    [
        ("x + y + (x^2 + y^2)^2", 8, [0, 3, 17, 128, 255], np.int64),
        # Its ProductBounds table would be float, filtered.
        ("x + y - 1/16*(x^2 + y^2)^4 + 3/7", 9, [0, 3, 256, 511], object),
        ("x + y - 1/16*x^35 + 3/7", 30, [0, 1, 2**29, 2**30 - 1], object),
    ],
)
@pytest.mark.parametrize("hf_min", [0, 0.001, 0.5, 4])
def test_hf_energy_takes_one_kernel_call(text, k, cells, dtype, hf_min):
    """energy_count with hf_min reads the exact ends of P, P_x P_y and
    P_xy from one unfiltered call on every cell product, and builds no
    ProductBounds table."""
    P, A = parse_poly(text), GridSet1D.from_cells(Scale(k), cells)
    px = P.partial("x")
    polys = (P, px * P.partial("y"), px.partial("y"))
    with kernel_calls() as calls, mock.patch.object(ProductBounds, "ladder", side_effect=AssertionError):
        count = energy_count(P, A, A, hf_min=hf_min)
    assert calls == [(polys, False, None)]
    assert count == energy_count_brute_force(P, A, A, hf_min=hf_min)
    (lo, _, _, _), *_ = gridset_module.box_bounds(polys, *gridset_module._corners(A, A))
    assert lo.dtype == dtype


def test_hf_energy_checks_sets_before_hf_min():
    """A set of the wrong dimension, then a scale mismatch, then a hf_min
    that is not finite: each is named while the ones after it hold too."""
    A, B = GridSet1D(Scale(4), (1,)), GridSet1D(Scale(5), (1,))
    with pytest.raises(ValueError, match="^ProductBounds needs a GridSet1D, got a GridSet2D$"):
        energy_count(P_SUM, _PLANE, B, hf_min=nan)
    with pytest.raises(ValueError, match="^A and B must share a scale$"):
        energy_count(P_SUM, A, B, hf_min=nan)
    for bad in (nan, inf, -inf):
        with pytest.raises(ValueError, match="^hf_min must be finite$"):
            energy_count(P_SUM, A, A, hf_min=bad)


@pytest.mark.parametrize(
    "text, k, dtype",
    [("x + y", 6, np.int64), ("x + y - 1/16*x^35 + 3/7", 30, object)],
)
def test_exact_table_counts_pairs_without_gathers(text, k, dtype):
    """An exact table (err None) counts ordered pairs with lo_p > hi_q by
    binary search alone: the ties lo_p == hi_q of neighbouring cells
    make no exact gather and no kernel call."""
    P, A = parse_poly(text), GridSet1D.from_cells(Scale(k), [0, 1, 2, 5, 6])
    table = ProductBounds(P, A, A)
    assert table.err is None and table.lo.dtype == dtype
    with kernel_calls() as calls:
        assert table.energy() == energy_count_brute_force(P, A, A)
    assert calls == []


def test_product_bounds_rejects_scale_mismatch():
    with pytest.raises(ValueError, match="share a scale"):
        ProductBounds(P_SUM, GridSet1D(Scale(4), (1,)), GridSet1D(Scale(5), (1,)))
    A = GridSet1D(Scale(4), (1,))
    with pytest.raises(ValueError, match="share a scale"):
        ProductBounds.ladder((P_SUM,), [(A, A), (A, GridSet1D(Scale(5), (1,)))])
    assert ProductBounds.ladder((P_SUM, P_SUM), []) == [[], []]


def test_kernel_empty_set():
    P = parse_poly("x + y + (x^2 + y^2)^2")
    empty = GridSet1D(Scale(6), ())
    B = GridSet1D.from_cells(Scale(6), [1, 7, 40])
    lo, hi, _ = grid_product_bounds(P, empty, B)
    assert lo.size == hi.size == 0
    assert image_set(P, empty, B).grid.cells == ()
    assert energy_count(P, empty, B) == 0
    assert energy_count(P, B, empty, hf_min=0.01) == 0


def test_kernel_constant_polynomial():
    A = GridSet1D.from_cells(Scale(9), [0, 17, 511])
    P = parse_poly("-5/3")
    assert_bounds_exact(P, A, A)
    assert image_set(P, A, A).grid.cells == (0,)
    assert_value_range_exact(P, image_set(P, A, A))
    assert energy_count(P, A, A) == 81 == energy_count_brute_force(P, A, A)


def test_kernel_object_path_degree_8_at_k30():
    k = 30
    A = GridSet1D.from_cells(Scale(k), [0, 3, 2**29, 2**k - 1])
    P = parse_poly("x + y - 1/16*(x^2 + y^2)^4 + 3/7")
    assert assert_bounds_exact(P, A, A).dtype == object
    assert image_set(P, A, A).grid.cells == marked_cells(P, A, A)
    assert_value_range_exact(P, image_set(P, A, A))
    assert energy_count(P, A, A) == energy_count_brute_force(P, A, A)
    assert energy_count(P, A, A, hf_min=0.1) == energy_count_brute_force(P, A, A, hf_min=0.1)


@pytest.mark.parametrize("text, dtype", [("4*x*y - 3*x^2", np.int64), ("4*x*y - 4*x^2", object)])
def test_kernel_int64_budget_edge(text, dtype):
    # The largest corner is 2^k, so box_bounds' budget sum|c| * 2^(k deg)
    # is 7 * 2^60, just under 2^63, then exactly 2^63; the extreme cell
    # products reach it.
    k = 30
    A = GridSet1D.from_cells(Scale(k), [0, 1, 2**k - 2, 2**k - 1])
    P = parse_poly(text)
    assert assert_bounds_exact(P, A, A).dtype == dtype
    assert image_set(P, A, A).grid.cells == marked_cells(P, A, A)
    assert energy_count(P, A, A) == energy_count_brute_force(P, A, A)


# A corner of 1 keeps box_bounds on int64 at k=14, while value_lo * scale
# (-132 * 2^56) and span * scale (85 * 2^56) do not fit: value_cells must
# take Python ints from the values it receives.
P_WIDE = parse_poly("1/4*x^2*y^2 - 4*y - 13/5")


def test_image_and_energy_past_int64_offset_single_cell():
    A = GridSet1D(Scale(14), (0,))
    assert grid_product_bounds(P_WIDE, A, A)[0].dtype == np.int64
    assert image_set(P_WIDE, A, A).grid.cells == marked_cells(P_WIDE, A, A) == (15419, 15420)
    assert energy_count(P_WIDE, A, A) == energy_count_brute_force(P_WIDE, A, A) == 1
    for hf_min in (0.0, 0.5, 100.0):
        assert energy_count(P_WIDE, A, A, hf_min=hf_min) == energy_count_brute_force(
            P_WIDE, A, A, hf_min=hf_min
        )


def test_image_and_energy_past_int64_offset_empty_set():
    empty = GridSet1D(Scale(14), ())
    B = GridSet1D.from_cells(Scale(14), [0, 1, 2**13, 2**14 - 1])
    for A, C in ((empty, B), (B, empty), (empty, empty)):
        assert image_set(P_WIDE, A, C).grid.cells == marked_cells(P_WIDE, A, C) == ()
        assert energy_count(P_WIDE, A, C) == energy_count_brute_force(P_WIDE, A, C) == 0
        assert energy_count(P_WIDE, A, C, hf_min=0.5) == 0
        assert energy_count_brute_force(P_WIDE, A, C, hf_min=0.5) == 0


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-(2**62), 2**62), max_size=6),
    st.booleans(),
    st.integers(-(2**66), 2**66),
    st.integers(1, 2**66),
    st.integers(1, 30),
)
def test_value_cells_equal_fraction_floor(values, as_int64, offset, width, k):
    # int64 ends with an offset or a product past 2^63 must move to Python ints.
    v = np.array(values, dtype=np.int64 if as_int64 else object)
    n = 2**k
    expected = [min(max(floor(Fraction((x - offset) * n, width)), 0), n - 1) for x in values]
    cells = value_cells(v, offset, width, k)
    assert cells.dtype == np.int64
    assert cells.tolist() == expected


# ---------------------------------------------------------------------------
# the file format's array path against the line loop
# ---------------------------------------------------------------------------


@st.composite
def gridsets(draw):
    k = draw(st.integers(1, 30))
    cell = st.integers(0, 2**k - 1)
    if draw(st.booleans()):
        return GridSet1D.from_cells(Scale(k), draw(st.lists(cell, max_size=40)))
    return GridSet2D.from_cells(Scale(k), draw(st.lists(st.tuples(cell, cell), max_size=40)))


@settings(max_examples=300, deadline=None)
@given(gridsets())
def test_gridset_text_round_trip(S):
    text = format_gridset(S)
    back = parse_gridset(text)
    assert type(back) is type(S) and back == S and hash(back) == hash(S)
    assert back.cells == S.cells and format_gridset(back) == text


def test_empty_gridsets_round_trip():
    for S in (GridSet1D(Scale(5), ()), GridSet2D(Scale(5), ())):
        assert parse_gridset(format_gridset(S)) == S and len(S) == 0 and S.cells == ()


def reference_parse_gridset(text):
    """The line loop that parse_gridset once fell back to, one line at a
    time with int() on each token, plus two rules: a non-ASCII text is
    refused, and only runs of 1-18 ASCII digits are integers."""
    for offset, ch in enumerate(text):
        if not ch.isascii():
            raise ValueError(f"non-ASCII character {ch!r} (at offset {offset})")
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
                cells.append(reference_int(ln))
            except ValueError:
                raise ValueError(f"bad gridset1d line {ln!r}: want one integer") from None
        return GridSet1D(scale, tuple(cells))
    if header[0] == "gridset2d":
        for ln in lines[1:]:
            try:
                i, j = ln.split()
                cells.append((reference_int(i), reference_int(j)))
            except ValueError:
                raise ValueError(f"bad gridset2d line {ln!r}: want two integers i j") from None
        return GridSet2D(scale, tuple(cells))
    raise ValueError(f"bad gridset kind {header[0]!r}")


def reference_int(token):
    """int(token) for a run of 1-18 ASCII digits; ValueError otherwise."""
    if not (token.isascii() and token.isdigit() and len(token) <= 18):
        raise ValueError(f"not a cell index: {token!r}")
    return int(token)


def outcome(parse, text):
    """parse(text), or the message of the ValueError it raises."""
    try:
        return parse(text)
    except ValueError as exc:
        return f"ValueError: {exc}"


def parse_by_arrays(text):
    """parse_gridset with the line walker made to raise, so only texts the
    byte arrays accept parse."""
    def line_walker(text):
        raise AssertionError("the line walker ran")

    with pytest.MonkeyPatch.context() as m:
        m.setattr(gridset_module, "_raise_text_fault", line_walker)
        return parse_gridset(text)

# Whitespace str.split and str.splitlines treat specially, tokens that
# are not runs of 1-18 ASCII digits, and non-ASCII spaces, line breaks
# and digits.
SPACES = [" ", "  ", "\t", " \t ", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\xa0"]
BREAKS = ["\n", "\r\n", "\r", "\n\n", "\n \t\n", "\x0b", "\x1c", "\x85", "\u2028"]
ODD_TOKENS = ["+3", "1_0", "07", "-0", "-1", "٣", "x", "1.5", "99999999999999999999", "16", "0x1"]
LONG_TOKENS = ["9" * 18, "0" * 17 + "3", "0" * 18 + "3", "1" + "0" * 18, "9" * 19, "0" * 19 + "1", "9" * 20, "000"]
NON_ASCII = ["\xa0", "\u2003", "\u3000", "\x85", "\u2028", "\u2029", "\u0663", "\uff13", "\u0967", "\xe9"]


@st.composite
def gridset_texts(draw):
    """Header and cell lines built from the alphabets above: cells in and
    out of range at k = 1..5, in any order.  One text in four may hold
    non-ASCII characters, one more of them put anywhere."""
    wide = draw(st.integers(0, 3)) == 0

    def pick(alphabet):
        return draw(st.sampled_from([a for a in alphabet if wide or a.isascii()]))

    kind = draw(st.sampled_from(["gridset1d", "gridset2d"]))
    odd = [t for t in ODD_TOKENS + LONG_TOKENS + ["1073741824", "4294967296"] if wide or t.isascii()]
    token = st.integers(0, 40).map(str) | st.sampled_from(odd)
    # Half the texts hold one cell's worth of tokens per row.
    width = 1 + (kind == "gridset2d") if draw(st.booleans()) else None
    rows = draw(st.lists(st.lists(token, min_size=width or 0, max_size=width or 3), max_size=8))
    # Half the headers are split by a space; some of SPACES break lines.
    split = pick(SPACES) if draw(st.booleans()) else " "
    parts = [pick(["", "\n", " \n"]), kind, split, f"k={draw(st.integers(1, 5))}"]
    for row in rows:
        parts.append(pick(BREAKS))
        for t in row:
            parts += [t, pick(SPACES)]
    text = "".join(parts) + pick(["", "\n", "\t"])
    if wide:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(NON_ASCII)) + text[at:]
    return text


@settings(max_examples=600, deadline=None)
@given(gridset_texts())
def test_array_parse_equals_line_loop(text):
    assert outcome(parse_gridset, text) == outcome(reference_parse_gridset, text)


@settings(max_examples=400, deadline=None)
@given(st.one_of(gridset_texts(), st.text(alphabet="gridset12dk= \t\n\r\x0b\x1c0123456789", max_size=30)))
def test_line_walker_catch_all_never_runs(text):
    # The walker's last line raises only for a text whose every line it
    # accepts; the arrays accept each such text, so parse_gridset never
    # hands the walker one.
    walk, messages = gridset_module._raise_text_fault, []

    def line_walker(text):
        try:
            walk(text)
        except ValueError as exc:
            messages.append(str(exc))
            raise

    with pytest.MonkeyPatch.context() as m:
        m.setattr(gridset_module, "_raise_text_fault", line_walker)
        outcome(parse_gridset, text)
    assert "unreadable gridset text" not in messages


def test_array_parse_takes_well_formed_messy_text():
    text = "\n  gridset2d\tk=4 \r\n\n 3\t 1\n\x0b3  2 \n\x1c5 0\n"
    # Every nonblank line holds the header's or a cell's tokens, so the
    # arrays read it.
    want = GridSet2D(Scale(4), ((3, 1), (3, 2), (5, 0)))
    assert parse_by_arrays(text) == want == reference_parse_gridset(text)


@settings(max_examples=200, deadline=None)
@given(gridsets())
def test_formatted_gridsets_take_the_byte_path(S):
    assert parse_by_arrays(format_gridset(S)) == S


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 18), st.integers(0, 10**18 - 1)), max_size=8), st.data())
def test_byte_path_sums_every_digit_place(tokens, data):
    # Cells past 2^30 fail the set's check, so a stand-in class records
    # the values the byte path hands it.
    class Recorded:
        def __init__(self, scale, cells):
            self.values = cells.ravel().tolist()

    values = [value % 10**digits for digits, value in tokens]
    # Leading zeros fill each token to its drawn width.
    texts = [str(value).zfill(digits) for value, (digits, _) in zip(values, tokens)]
    text = "gridset1d k=5" + "".join(data.draw(st.sampled_from(["\n", "\r\n", " \n\t"])) + t for t in texts)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(gridset_module, "GridSet1D", Recorded)
        assert parse_by_arrays(text).values == values


@pytest.mark.parametrize(
    "text, result",
    [
        # 18 digits at most, leading zeros and all.
        ("gridset1d k=30\n000000000000000005\n000000001073741823\n", GridSet1D(Scale(30), (5, 2**30 - 1))),
        ("gridset2d k=3\r\n007 000000000000000001\r\n", GridSet2D(Scale(3), ((7, 1),))),
        ("gridset1d k=4\r\n\r\n 00\r\n15\r\n", GridSet1D(Scale(4), (0, 15))),
        ("gridset1d k=30\n999999999999999999\n", "cells must be strictly increasing and in range"),
        # 19 and 20 digits: not a cell index, in range or not.
        ("gridset1d k=30\n0000000000000000005\n", "bad gridset1d line '0000000000000000005': want one integer"),
        ("gridset1d k=30\n00000000000000000005\n", "bad gridset1d line '00000000000000000005': want one integer"),
        ("gridset1d k=30\n9223372036854775807\n", "bad gridset1d line '9223372036854775807': want one integer"),
        ("gridset2d k=3\n1 9223372036854775808\n", "bad gridset2d line '1 9223372036854775808': want two integers i j"),
        ("gridset1d k=30\n99999999999999999999\n", "bad gridset1d line '99999999999999999999': want one integer"),
        # Not ASCII: the character and its offset.
        ("gridset1d k=3\n\u0663\n", "non-ASCII character '\u0663' (at offset 14)"),
        ("gridset1d k=3\n1\u00a0\n2\n", "non-ASCII character '\\xa0' (at offset 15)"),
        ("gridset1d k=3\n1\x852\n", "non-ASCII character '\\x85' (at offset 15)"),
        ("gridset1d\u00a0k=3\n1\n", "non-ASCII character '\\xa0' (at offset 9)"),
        ("gridset1d k=\uff13\n1\n", "non-ASCII character '\uff13' (at offset 12)"),
    ],
)
def test_byte_path_takes_short_ascii_digit_tokens_only(text, result):
    if isinstance(result, str):
        assert outcome(parse_gridset, text) == f"ValueError: {result}" == outcome(reference_parse_gridset, text)
    else:
        assert parse_by_arrays(text) == result == reference_parse_gridset(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty gridset text"),
        (" \n\t\n", "empty gridset text"),
        ("gridset3d k=5\n1\n", "bad gridset kind 'gridset3d'"),
        ("gridset3d k=0\n1\n", "scale k must satisfy 1 <= k <= 30"),
        ("gridset1d\n1\n", "bad gridset header 'gridset1d'"),
        ("gridset1d\nk=3\n1\n", "bad gridset header 'gridset1d'"),
        ("gridset1d k=3 x\n1\n", "bad gridset header 'gridset1d k=3 x'"),
        ("gridset1d k=0\n", "scale k must satisfy 1 <= k <= 30"),
        ("gridset1d k=3\n1\nx\n", "bad gridset1d line 'x': want one integer"),
        ("gridset1d k=3\n 1 2 \n", "bad gridset1d line '1 2': want one integer"),
        ("gridset2d k=3\n1\n", "bad gridset2d line '1': want two integers i j"),
        ("gridset2d k=3\n0 1\n1 2 3\n", "bad gridset2d line '1 2 3': want two integers i j"),
        ("gridset2d k=3\n1 1.5\n", "bad gridset2d line '1 1.5': want two integers i j"),
        # signs, underscores and other spellings int() takes
        ("gridset1d k=3\n+3\n", "bad gridset1d line '+3': want one integer"),
        ("gridset1d k=3\n1_0\n", "bad gridset1d line '1_0': want one integer"),
        ("gridset1d k=3\n-1\n", "bad gridset1d line '-1': want one integer"),
        ("gridset2d k=3\n0 -1\n", "bad gridset2d line '0 -1': want two integers i j"),
        ("gridset1d k=3\n99999999999999999999\n", "bad gridset1d line '99999999999999999999': want one integer"),
        ("gridset2d k=3\n99999999999999999999 0\n", "bad gridset2d line '99999999999999999999 0': want two integers i j"),
        # out of range
        ("gridset1d k=3\n1\n8\n", "cells must be strictly increasing and in range"),
        ("gridset2d k=3\n0 8\n", "cell index out of range"),
        ("gridset2d k=3\n0 4294967296\n", "cell index out of range"),
        # not increasing
        ("gridset1d k=3\n2\n1\n", "cells must be strictly increasing and in range"),
        ("gridset1d k=3\n2\n2\n", "cells must be strictly increasing and in range"),
        ("gridset2d k=3\n1 2\n1 2\n", "cells must be strictly increasing"),
        ("gridset2d k=3\n1 2\n0 9\n", "cells must be strictly increasing"),
        ("gridset2d k=3\n0 9\n1 2\n", "cell index out of range"),
    ],
)
def test_gridset_text_errors_keep_their_messages(text, message):
    assert outcome(parse_gridset, text) == f"ValueError: {message}" == outcome(reference_parse_gridset, text)


@pytest.mark.parametrize(
    "cls, cells, message",
    [
        (GridSet1D, (3, 1), "cells must be strictly increasing and in range"),
        (GridSet1D, (1, 16), "cells must be strictly increasing and in range"),
        (GridSet1D, (-1,), "cells must be strictly increasing and in range"),
        (GridSet1D, (2**70,), "cells must be strictly increasing and in range"),
        (GridSet2D, ((1, 2), (1, 2)), "cells must be strictly increasing"),
        (GridSet2D, ((1, 2), (1, 16)), "cell index out of range"),
        (GridSet2D, ((0, 2**32),), "cell index out of range"),
        (GridSet2D, ((0, -1),), "cell index out of range"),
        (GridSet2D, ((1, 2, 3),), "too many values to unpack (expected 2)"),
        # Accepted by the per-cell loop alone, but not integers.
        (GridSet1D, (1.5,), "cells must be integers"),
        (GridSet2D, ((1, 0.0),), "cells must be integers"),
    ],
)
def test_gridset_constructor_errors_keep_their_messages(cls, cells, message):
    with pytest.raises(ValueError) as exc:
        cls(Scale(4), cells)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "cls, cells, message",
    [
        (GridSet1D, (3, 1), "cells must be strictly increasing and in range"),
        (GridSet1D, (3, 3), "cells must be strictly increasing and in range"),
        (GridSet1D, (1, 16), "cells must be strictly increasing and in range"),
        (GridSet2D, ((2, 1), (1, 1)), "cells must be strictly increasing"),
        (GridSet2D, ((1, 2), (1, 1)), "cells must be strictly increasing"),
        (GridSet2D, ((1, 2), (1, 2)), "cells must be strictly increasing"),
        (GridSet2D, ((1, 2), (1, 16)), "cell index out of range"),
        (GridSet2D, ((16, 0), (1, 2)), "cell index out of range"),
        (GridSet2D, ((0, -1),), "cell index out of range"),
    ],
)
def test_array_and_list_cells_give_the_tuple_messages(cls, cells, message):
    forms = [cells, np.array(cells, dtype=np.int64), [list(c) if isinstance(c, tuple) else c for c in cells]]
    for form in forms:
        with pytest.raises(ValueError) as exc:
            cls(Scale(4), form)
        assert str(exc.value) == message


def test_gridsets_are_frozen_and_compare_by_scale_and_keys():
    S = GridSet1D(Scale(4), (1, 5))
    with pytest.raises(AttributeError):
        S.keys = np.array([1], dtype=np.int64)
    assert S == GridSet1D(Scale(4), [1, 5]) != GridSet1D(Scale(5), (1, 5))
    assert S != GridSet2D(Scale(4), ()) and GridSet1D(Scale(4), ()) != GridSet2D(Scale(4), ())
    assert len({S, GridSet1D.from_cells(Scale(4), [5, 1, 5])}) == 1
    assert repr(GridSet2D(Scale(3), ((0, 1),))) == "GridSet2D(scale=Scale(k=3), cells=((0, 1),))"
