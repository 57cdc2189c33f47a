"""Acceptance gate: one test per release criterion, each printing a
single PASS/FAIL line with the measured quantity and its tolerance.
"""

import math
import time
from random import Random

import conftest
import pytest

from altrank.cli import main
from altrank.counting import (
    LatticeBasis,
    check_det_identity,
    check_inner_product_identity,
    count_alternating_by_rank,
    fit_counting_exponent,
)
from altrank.fitting import exponent_fit
from altrank.groups import (
    AbelianPGroup,
    SymplecticPGroup,
    alternating_square_cyclic_density,
    cl_measure,
    delaunay_measure,
)
from altrank.linalg import (
    AlternatingMatrix,
    IntegerMatrix,
    cokernel,
    determinant,
    matmul,
    pfaffian,
    smith_normal_form,
)
from altrank.model import (
    ModelConfig,
    count_curves_exact,
    empirical_cl_distribution,
    empirical_sha_distribution,
    empirical_square_cyclic_fraction,
    predicted_table,
    rank_survey,
)
from altrank.periods import period_bound_scan, real_period, real_period_quadrature


def record(num: int, passed: bool, detail: str) -> bool:
    line = f"ACCEPTANCE {num:>2}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    return passed


def random_alternating(n, bound, rng):
    m = n * (n - 1) // 2
    return AlternatingMatrix(n, tuple(rng.randint(-bound, bound) for _ in range(m)))


# ---------------------------------------------------------------------------


def test_criterion_01_predicted_table():
    reference = {
        10**10: (30.8, 42.7, 19.2, 7.3),
        10**11: (32.6, 43.9, 17.4, 6.0),
        10**12: (34.2, 45.0, 15.8, 5.0),
        10**13: (35.6, 45.9, 14.4, 4.1),
        10**14: (36.9, 46.6, 13.0, 3.4),
        10**15: (38.1, 47.2, 11.9, 2.8),
    }
    t0 = time.perf_counter()
    rows = predicted_table(sorted(reference))
    elapsed = time.perf_counter() - t0
    worst = 0.0
    for h, *cols in rows:
        for got, want in zip(cols, reference[h]):
            worst = max(worst, abs(got - want))
    ok = worst <= 0.1 and elapsed < 1.0
    assert record(
        1,
        ok,
        f"predicted table worst deviation {worst:.3f} pp (tol 0.1), "
        f"{elapsed:.3f}s (cap 1s)",
    )


def test_criterion_02_cl_distribution_large_n():
    t0 = time.perf_counter()
    dist = empirical_cl_distribution(8, 2, 8, 100_000, Random(20260))
    elapsed = time.perf_counter() - t0
    ref_trivial = cl_measure(AbelianPGroup(2, ())).value
    ref_z2 = cl_measure(AbelianPGroup(2, (1,))).value
    dev_trivial = abs(dist.frequency("2:[]") - ref_trivial)
    dev_z2 = abs(dist.frequency("2:[1]") - ref_z2)
    ok = dev_trivial <= 0.01 and dev_z2 <= 0.01 and elapsed < 300
    assert record(
        2,
        ok,
        f"cokernel law at n=8: P(trivial) dev {dev_trivial:.4f}, "
        f"P(Z/2) dev {dev_z2:.4f} (tol 0.01 each), {elapsed:.0f}s (cap 300s)",
    )


def test_criterion_03_conditioned_torsion_both_parities():
    t0 = time.perf_counter()
    trivial_group = SymplecticPGroup(AbelianPGroup(2, ()))
    checks = []
    for n, r, seed in ((10, 0, 30010), (9, 1, 30009)):
        dist = empirical_sha_distribution(n, 10**4, r, 2, 10**4, Random(seed))
        ref = delaunay_measure(trivial_group, r).value
        checks.append((n, r, abs(dist.frequency("2:[]") - ref), ref))
    elapsed = time.perf_counter() - t0
    ok = all(dev <= 0.02 for _, _, dev, _ in checks) and elapsed < 1800
    detail = ", ".join(
        f"(n={n},r={r}) P(trivial) dev {dev:.4f} vs {ref:.5f}"
        for n, r, dev, ref in checks
    )
    assert record(3, ok, f"{detail} (tol 0.02 each), {elapsed:.0f}s (cap 1800s)")


def test_criterion_04_square_of_cyclic_fraction():
    t0 = time.perf_counter()
    est = empirical_square_cyclic_fraction(10, 10**4, 10**4, Random(40010))
    elapsed = time.perf_counter() - t0
    ref = alternating_square_cyclic_density(10**5).value
    dev = abs(est.value - ref)
    ok = dev <= 0.02
    assert record(
        4,
        ok,
        f"corank-0 square-of-cyclic fraction at n=10 {est.value:.4f} "
        f"(stderr {est.stderr:.4f}) vs {ref:.5f} (dev {dev:.4f}, tol 0.02), "
        f"{elapsed:.0f}s",
    )


def test_criterion_05_rank_deficient_counting_slopes():
    t0 = time.perf_counter()
    fit_l2 = fit_counting_exponent(3, 2, list(range(5, 21)), "l2")
    pts = []
    for x in range(2, 9):
        hist = count_alternating_by_rank(4, x, "box")
        pts.append((x, hist.at_most(2) / hist.total))
    fit_box = exponent_fit(pts)
    elapsed = time.perf_counter() - t0
    dev_l2 = abs(fit_l2.slope - 3.0)
    dev_box = abs(fit_box.slope - (-2.0))
    ok = dev_l2 <= 0.4 and dev_box <= 0.3 and elapsed < 600
    assert record(
        5,
        ok,
        f"census slopes: sphere-norm rank-2 {fit_l2.slope:.3f} vs 3 "
        f"(tol 0.4), box corank>=2 fraction {fit_box.slope:.3f} vs -2 "
        f"(tol 0.3), {elapsed:.0f}s (cap 600s)",
    )


def test_criterion_06_survey_slope():
    t0 = time.perf_counter()
    grid = [10**k for k in (6, 9, 12, 15, 18, 21, 24)]
    cfg = ModelConfig(seed=60607)
    _records, fits = rank_survey(grid, 1_000_000, cfg)
    elapsed = time.perf_counter() - t0
    slope = fits[2].slope
    dev = abs(slope - (-1 / 24))
    ok = dev <= 0.02 and elapsed < 3600
    assert record(
        6,
        ok,
        f"log P(rk'>=2) vs log H slope {slope:.4f} vs -1/24 = -0.0417 "
        f"(dev {dev:.4f}, tol 0.02) at 1e6 draws per height, "
        f"{elapsed:.0f}s (cap 3600s)",
    )


def test_criterion_07_exact_identities_zero_tolerance():
    t0 = time.perf_counter()
    rng = Random(70707)
    bad = []

    for _ in range(10_000):
        n = rng.randint(1, 8)
        a = random_alternating(n, rng.randint(1, 9), rng)
        if pfaffian(a) ** 2 != determinant(a.to_integer_matrix()):
            bad.append("pfaffian-square")
            break

    for _ in range(1000):
        nr, nc = rng.randint(2, 5), rng.randint(2, 5)
        m = IntegerMatrix.from_rows(
            [[rng.randint(-30, 30) for _ in range(nc)] for _ in range(nr)]
        )
        dec = smith_normal_form(m)
        if abs(determinant(dec.U)) != 1 or abs(determinant(dec.V)) != 1:
            bad.append("unimodular-factors")
            break
        prod = matmul(matmul(dec.U, m), dec.V)
        if any(
            prod.entry(i, j) != (dec.divisors[i] if i == j else 0)
            for i in range(nr)
            for j in range(nc)
        ):
            bad.append("diagonal-reconstruction")
            break

    for _ in range(2000):
        n = rng.randint(2, 8)
        t = cokernel(random_alternating(n, 4, rng)).torsion
        if t[0::2] != t[1::2]:
            bad.append("paired-torsion")
            break

    def random_basis():
        while True:
            r = rng.randrange(2, 5)
            dim = r + rng.randrange(0, 3)
            try:
                return LatticeBasis(
                    tuple(
                        tuple(rng.randint(-20, 20) for _ in range(dim))
                        for _ in range(r)
                    )
                )
            except ValueError:
                continue

    for _ in range(1000):
        if not check_inner_product_identity(random_basis()):
            bad.append("wedge-inner-product")
            break
    for _ in range(1000):
        if not check_det_identity(random_basis()):
            bad.append("wedge-determinant")
            break

    elapsed = time.perf_counter() - t0
    ok = not bad
    assert record(
        7,
        ok,
        "exact identities "
        + ("all hold" if ok else f"violated: {', '.join(bad)}")
        + " (1e4 pfaffian squares, 1e3 diagonal factorizations, "
        f"2e3 torsion pairings, 1e3 + 1e3 wedge identities), {0:.0f}s".format(
            elapsed
        ),
    )


def test_criterion_08_curve_count_constant():
    t0 = time.perf_counter()
    count = count_curves_exact(10**7)
    elapsed = time.perf_counter() - t0
    zeta10 = math.pi**10 / 93555
    kappa = 2 ** (4 / 3) * 3 ** (-1.5) / zeta10
    ratio = count / (10**7) ** (5 / 6)
    rel = abs(ratio - kappa) / kappa
    ok = rel <= 0.05 and elapsed < 600
    assert record(
        8,
        ok,
        f"curve census {count} gives {ratio:.5f} per height^(5/6) vs "
        f"{kappa:.5f} (rel dev {rel:.4f}, tol 0.05), {elapsed:.0f}s (cap 600s)",
    )


def test_criterion_09_period_routes_and_growth():
    t0 = time.perf_counter()
    rng = Random(90909)
    curves = []
    while len(curves) < 100:
        a4, a6 = rng.randint(-50, 50), rng.randint(-50, 50)
        if 4 * a4**3 + 27 * a6**2 != 0:
            curves.append((a4, a6))
    worst_quad = max(
        abs(real_period(a4, a6).omega - real_period_quadrature(a4, a6))
        for a4, a6 in curves
    )
    worst_scale = 0.0
    for a4, a6 in curves:
        base = real_period(a4, a6).omega
        for lam in (2, 3, 5):
            scaled = real_period(lam**4 * a4, lam**6 * a6).omega
            worst_scale = max(worst_scale, abs(scaled * lam - base))
    _summary, rows = period_bound_scan((10**4, 10**10), 1000, rng)
    positive = all(u > 0 and math.isfinite(u) for *_rest, u in rows)
    growth_constant = max(u / math.log(h) for _, _, h, _, _, u in rows)
    elapsed = time.perf_counter() - t0
    ok = worst_quad <= 1e-8 and worst_scale <= 1e-9 and positive
    assert record(
        9,
        ok,
        f"period routes agree to {worst_quad:.1e} (tol 1e-8), scaling "
        f"covariance to {worst_scale:.1e} (tol 1e-9), normalized period "
        f"positive over 1000 curves with empirical growth constant "
        f"C = {growth_constant:.3f} per log H, {elapsed:.0f}s",
    )


def test_criterion_10_thread_count_invariance(tmp_path):
    t0 = time.perf_counter()
    args = [
        "--h-grid",
        "1e6,1e8,1e10",
        "--curves-per-band",
        "900",
        "--seed",
        "777",
    ]
    outs = {}
    for threads in (1, 3):
        out = tmp_path / f"t{threads}"
        rc = main(["simulate", "--out", str(out), "--threads", str(threads)] + args)
        assert rc == 0
        outs[threads] = (out / "survey.csv").read_bytes()
    elapsed = time.perf_counter() - t0
    ok = outs[1] == outs[3]
    assert record(
        10,
        ok,
        "survey output bytes "
        + ("identical" if ok else "DIFFER")
        + f" across thread counts 1 and 3 at a shared seed, {elapsed:.0f}s",
    )
