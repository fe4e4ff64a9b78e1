"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion runs at its stated tolerance and wall-clock budget.
Failures are collected per criterion so the summary line always prints
before the assertion fires.
"""

import random
import time

from explab.expharness import builtin_scenario, builtin_scenarios, run_scenario
from explab.geomdecomp import (
    DegenerateGradientsError,
    DyadicSquare,
    LinearProjection,
    PinnedDistance,
    PolynomialMap,
    PuncturedSquareRegion,
    Region,
    band_partition,
    blaschke_curvature,
    extract_product,
    whitney_decompose,
)
from explab.gridset import (
    GridSet1D,
    GridSet2D,
    Scale,
    energy_count,
    energy_count_brute_force,
)
from explab.polyexpr import Verdict, classify_special_form, mp_numerator, parse_poly

from test_polyexpr import admissible_points, compose_sum_form, random_poly


def _finish(number, name, started, budget, failures):
    elapsed = time.perf_counter() - started
    status = "PASS" if not failures and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} [{elapsed:.1f}s / budget {budget}s]")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"
    assert not failures, f"criterion {number} failures: {failures}"


def test_criterion_01_classifier_catalog():
    started = time.perf_counter()
    failures = []
    rng = random.Random(101)
    special = ["x + y", "x*y", "(x + y)^3", "x + y + x*y"]
    for text in special:
        if classify_special_form(parse_poly(text)).verdict != Verdict.SPECIAL_FORM:
            failures.append(f"{text} not SpecialForm")
    for _ in range(20):
        p = compose_sum_form(rng, max_degree=3)
        if classify_special_form(p).verdict != Verdict.SPECIAL_FORM:
            failures.append(f"composition {p} not SpecialForm")
    expanders = ["x^2 + x*y + y^2"] + [
        f"x + y + (x^2 + y^2)^{d // 2}" for d in (4, 6, 8)
    ]
    for text in expanders:
        if classify_special_form(parse_poly(text)).verdict != Verdict.EXPANDER:
            failures.append(f"{text} not Expander")
    _finish(1, "classifier catalog", started, 1.0, failures)


def test_criterion_02_mp_identity():
    started = time.perf_counter()
    failures = []
    rng = random.Random(102)
    h = 1e-5
    tol = 1e-4
    polys = 0
    while polys < 50:
        p = random_poly(rng, 6)
        px, py = p.partial("x"), p.partial("y")
        if px.is_zero or py.is_zero:
            continue
        mp = mp_numerator(p)
        if mp.is_zero:
            # Degenerate draws: both sides of the identity vanish; verify the
            # finite difference is numerically negligible at spread points.
            points = admissible_points(p, rng, 3, require_curved=False)
            if len(points) < 3:
                continue
            from test_polyexpr import _mixed_log_fd

            for pt in points:
                scale = float((px.evaluate(pt) * py.evaluate(pt)) ** 2)
                fd = _mixed_log_fd(p, (float(pt["x"]), float(pt["y"])), h)
                if abs(scale * fd) > tol * max(1.0, scale):
                    failures.append(f"zero-MP poly fails at {pt}")
            polys += 1
            continue
        points = admissible_points(p, rng, 10)
        if len(points) < 10:
            continue
        from test_polyexpr import _mixed_log_fd

        for pt in points:
            exact = float(mp.evaluate(pt))
            scale = float((px.evaluate(pt) * py.evaluate(pt)) ** 2)
            fd = _mixed_log_fd(p, (float(pt["x"]), float(pt["y"])), h)
            if abs(exact - scale * fd) > tol * abs(exact):
                failures.append(f"poly {polys} point {pt}")
        polys += 1
    _finish(2, "M_P finite-difference identity", started, 10.0, failures)


def test_criterion_03_special_form_collapse():
    started = time.perf_counter()
    failures = []
    report = run_scenario(builtin_scenario("special_form_collapse"))
    energy = report.fits["energy_exponent"].slope
    image = report.fits["image_exponent"].slope
    if not 1.35 <= energy <= 1.65:
        failures.append(f"energy exponent {energy:.4f} outside [1.35, 1.65]")
    if not 0.4 <= image <= 0.6:
        failures.append(f"image exponent {image:.4f} outside [0.4, 0.6]")
    _finish(3, "special-form collapse", started, 60.0, failures)


def test_criterion_04_energy_depends_on_d():
    started = time.perf_counter()
    failures = []
    report = run_scenario(builtin_scenario("eps_D_energy"))
    slope = report.fits["restricted_energy_exponent"].slope
    if not 0.60 <= slope <= 0.90:
        failures.append(f"restricted exponent {slope:.4f} outside [0.60, 0.90]")
    if report.scalars["d_ordering_holds"] != 1.0:
        failures.append("energies not ordered by D at every scale")
    _finish(4, "energy depends on D", started, 120.0, failures)


def test_criterion_05_eta_depends_on_d():
    started = time.perf_counter()
    failures = []
    report = run_scenario(builtin_scenario("eta_depends_on_D"))
    image = report.fits["image_exponent"].slope
    if not 0.4 <= image <= 0.6:
        failures.append(f"image exponent {image:.4f} outside [0.4, 0.6]")
    _finish(5, "eta depends on D", started, 60.0, failures)


def test_criterion_06_cauchy_schwarz_consistency():
    # Every builtin scenario that measures a polynomial image alongside its
    # collision energy must satisfy image >= (1/64) * c * cover^2 / energy
    # at every scale, with c the certified gradient floor and 1/64 frozen.
    # (The two pinned-distance scenarios measure no polynomial image and
    # carry no cs rows.)
    started = time.perf_counter()
    failures = []
    checked = 0
    for scenario in builtin_scenarios():
        report = run_scenario(scenario)
        if "cs_ok" not in report.metrics:
            continue
        checked += 1
        if not all(v == 1.0 for v in report.metrics["cs_ok"]):
            failures.append(f"{scenario.name} violates the CS floor")
    if checked < 5:
        failures.append("fewer than five scenarios exercised the CS floor")
    _finish(6, "Cauchy-Schwarz consistency", started, 240.0, failures)


def test_criterion_07_whitney_and_bands():
    started = time.perf_counter()
    failures = []

    # Whitney on the punctured square: exhaustive per-cube verification.
    oracle = PuncturedSquareRegion()
    decomp = whitney_decompose(oracle, 7)
    for idx, cube in enumerate(decomp.cubes):
        if oracle(cube) is not Region.INSIDE:
            failures.append(f"cube {cube} not inside the region")
        if idx in decomp.flagged:
            continue
        limit = 2 ** (cube.depth + 1)
        exits = False
        for di in range(4):
            for dj in range(4):
                i, j = 2 * cube.i - 1 + di, 2 * cube.j - 1 + dj
                if not (0 <= i < limit and 0 <= j < limit):
                    exits = True
                elif oracle(DyadicSquare(cube.depth + 1, i, j)) is not Region.INSIDE:
                    exits = True
        if not exits:
            failures.append(f"dilate of {cube} does not exit the region")
    rects = [c.rect() for c in decomp.cubes]
    for a in range(len(rects)):
        for b in range(a + 1, len(rects)):
            ra, rb = rects[a], rects[b]
            if not (
                ra.x1 <= rb.x0 or rb.x1 <= ra.x0 or ra.y1 <= rb.y0 or rb.y1 <= ra.y0
            ):
                failures.append(f"cubes {a} and {b} overlap")

    # Band partition for the quadratic expander: per-cube certificates on
    # 50 samples, and the leftover fraction shrinks as k grows.
    P = parse_poly("x^2 + x*y + y^2")
    fs = [
        PolynomialMap(P.partial("x")),
        PolynomialMap(P.partial("y")),
        PolynomialMap(P.partial("x").partial("y")),
        PolynomialMap(mp_numerator(P)),
    ]
    rng = random.Random(107)
    fractions = []
    for k in (8, 9, 10):
        scale = Scale(k)
        A = GridSet2D.from_cells(
            scale, [(i, j) for i in range(0, 2**k, 8) for j in range(0, 2**k, 8)]
        )
        decomp = band_partition(fs, 0.2, scale, A)
        fractions.append(len(decomp.leftover.cells) / 4**k)
        if k == 10:
            floor = 2.0 ** (-k * 0.2)
            for cube, bands in zip(decomp.cubes, decomp.bands):
                rect = cube.rect()
                x0, x1, y0, y1 = (float(e) for e in (rect.x0, rect.x1, rect.y0, rect.y1))
                for f, v in zip(fs, map(float, bands)):
                    if v < floor - 1e-12:
                        failures.append(f"band value below delta^w on {cube}")
                    for _ in range(50):
                        x = rng.uniform(x0, x1)
                        y = rng.uniform(y0, y1)
                        value = abs(f.value(x, y))
                        if not (v - 1e-9 <= value < 4 * v + 1e-9):
                            failures.append(f"certificate fails on {cube}")
                            break
    if not fractions[0] > fractions[1] > fractions[2]:
        failures.append(f"leftover fractions not decreasing: {fractions}")
    _finish(7, "Whitney and band properties", started, 30.0, failures)


def test_criterion_08_curvature_degeneracy():
    started = time.perf_counter()
    failures = []
    rng = random.Random(108)

    linear = [LinearProjection(t) for t in (0.3, 1.2, 2.4)]
    for _ in range(100):
        p = (rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
        if abs(blaschke_curvature(*linear, p)) >= 1e-8:
            failures.append(f"linear triple curvature not flat at {p}")

    pins = [PinnedDistance(c) for c in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))]
    large = 0
    for _ in range(100):
        p = (rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7))
        try:
            if abs(blaschke_curvature(*pins, p)) > 1e-3:
                large += 1
        except DegenerateGradientsError:
            pass
    if large < 90:
        failures.append(f"pinned curvature large at only {large}/100 points")

    phi1 = PolynomialMap(parse_poly("x"))
    phi2 = PolynomialMap(parse_poly("y"))
    phi3 = PolynomialMap(parse_poly("x^2 + x*y + y^2"))
    agreements = 0
    for _ in range(60):
        p = (rng.uniform(0.15, 0.95), rng.uniform(0.15, 0.95))
        if abs(phi3.partial(*p, 1, 0)) < 0.1 or abs(phi3.partial(*p, 0, 1)) < 0.1:
            continue
        chart = blaschke_curvature(phi1, phi2, phi3, p, method="chart")
        newton = blaschke_curvature(phi1, phi2, phi3, p, method="newton")
        if abs(chart) > 1e-6:
            agreements += 1
            if abs(chart - newton) > 1e-3 * abs(chart):
                failures.append(f"chart/newton disagree at {p}")
    if agreements < 10:
        failures.append("too few chart/newton comparison points")
    _finish(8, "curvature degeneracy and non-degeneracy", started, 10.0, failures)


def test_criterion_09_product_extraction():
    started = time.perf_counter()
    failures = []
    rng = random.Random(109)
    for trial in range(20):
        k = rng.choice((7, 8))
        count = rng.randint(12, 40)
        cols = rng.sample(range(2**k), count)
        rows_ = rng.sample(range(2**k), count)
        product = [(i, j) for i in cols for j in rows_]
        noise = set()
        while len(noise) < len(product) // 9:
            cell = (rng.randrange(2**k), rng.randrange(2**k))
            noise.add(cell)
        X = GridSet2D.from_cells(Scale(k), set(product) | noise)
        _, _, report = extract_product(X)
        if report.intersection_count < report.x_count / 2:
            failures.append(
                f"trial {trial}: kept {report.intersection_count} of {report.x_count}"
            )
    _finish(9, "product extraction keeps half", started, 20.0, failures)


def test_criterion_10_oracle_equivalence():
    started = time.perf_counter()
    failures = []
    rng = random.Random(110)
    for trial in range(10):
        p = random_poly(rng, 4)
        k = rng.randint(4, 6)
        A = GridSet1D.from_cells(
            Scale(k), rng.sample(range(2**k), rng.randint(3, 12))
        )
        B = GridSet1D.from_cells(
            Scale(k), rng.sample(range(2**k), rng.randint(3, 12))
        )
        fast = energy_count(p, A, B)
        slow = energy_count_brute_force(p, A, B)
        if fast != slow:
            failures.append(f"trial {trial}: sweep {fast} != brute {slow}")
    _finish(10, "energy oracle equivalence", started, 30.0, failures)


def test_criterion_11_three_projection():
    started = time.perf_counter()
    failures = []
    report = run_scenario(builtin_scenario("three_projection"))
    margins = report.metrics["phi3_margin"]
    if min(margins) <= 0:
        failures.append(f"margins not positive: {margins}")
    for a, b in zip(margins, margins[1:]):
        if b < a - 0.02:
            failures.append(f"margin degrades across scales: {margins}")
    if report.scalars["phi1_image_within_construction"] != 1.0:
        failures.append("construction bound on the small projections violated")
    _finish(11, "three-projection growth", started, 120.0, failures)
