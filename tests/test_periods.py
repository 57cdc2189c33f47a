import math
from random import Random

import mpmath
import pytest

from altrank.periods import (
    discriminant,
    period_bound_scan,
    real_period,
    real_period_quadrature,
)


def mp_period(a4, a6):
    """Arbitrary-precision oracle: length of the real locus under
    |dx/2y|, which is one traversal of each branch by dx/sqrt(cubic).

    Roots via polyroots plus a findroot polish (the polish keeps the
    integrand real near the endpoints), tanh-sinh quadrature for the
    singular endpoints.  Slow; used only on a handful of fixed curves.
    """
    with mpmath.workdps(40):
        roots = mpmath.polyroots([1, 0, a4, a6])
        real = sorted(r.real for r in roots if abs(r.imag) < mpmath.mpf(10) ** -25)
        real = [mpmath.findroot(lambda x: x**3 + a4 * x + a6, r) for r in real]

        def f(x):
            return 1 / mpmath.sqrt(x**3 + a4 * x + a6)

        if len(real) == 3:
            r1, r2, r3 = real
            total = mpmath.quad(f, [r3, r3 + 1, mpmath.inf])
            total += mpmath.quad(f, [r1, (r1 + r2) / 2, r2])
        else:
            r = real[0]
            total = mpmath.quad(f, [r, r + 1, mpmath.inf])
        return float(total)


FIXED_CURVES = [(-1, 0), (0, 1), (1, 1), (-2, 1), (-7, 6), (3, -5), (-5, 0), (0, -4)]


def random_nonsingular(rng, bound=50):
    while True:
        a4 = rng.randint(-bound, bound)
        a6 = rng.randint(-bound, bound)
        if discriminant(a4, a6) != 0:
            return a4, a6


# ---------------------------------------------------------------------------


def test_discriminant_values():
    assert discriminant(-1, 0) == 64
    assert discriminant(0, 1) == -432
    rng = Random(50)
    for _ in range(40):
        a4, a6 = rng.randint(-99, 99), rng.randint(-99, 99)
        assert discriminant(a4, a6) == -16 * (4 * a4**3 + 27 * a6**2)


def test_frozen_period_values():
    r = real_period(-1, 0)
    assert r.omega == pytest.approx(5.244115108584239, rel=1e-13)
    assert r.components == 2
    r = real_period(0, 1)
    assert r.omega == pytest.approx(4.206546315976363, rel=1e-13)
    assert r.components == 1


def test_lemniscatic_closed_form():
    # y^2 = x^3 - x has total period Gamma(1/4)^2 / sqrt(2 pi)
    want = math.gamma(0.25) ** 2 / math.sqrt(2 * math.pi)
    assert real_period(-1, 0).omega == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("a4,a6", FIXED_CURVES)
def test_period_against_mpmath_oracle(a4, a6):
    got = real_period(a4, a6)
    want = mp_period(a4, a6)
    assert got.omega == pytest.approx(want, rel=1e-10)


def test_agm_vs_quadrature_random():
    rng = Random(51)
    worst = 0.0
    for _ in range(60):
        a4, a6 = random_nonsingular(rng)
        agm = real_period(a4, a6).omega
        quad = real_period_quadrature(a4, a6)
        worst = max(worst, abs(agm - quad))
    assert worst <= 1e-8


def test_scaling_invariance():
    # omega(u^4 a4, u^6 a6) * u == omega(a4, a6): the integral rescales
    # exactly under (x, y) -> (u^2 x, u^3 y)
    rng = Random(52)
    for _ in range(25):
        a4, a6 = random_nonsingular(rng, bound=20)
        base = real_period(a4, a6)
        for u in (2, 3, 5):
            scaled = real_period(u**4 * a4, u**6 * a6)
            assert scaled.components == base.components
            assert scaled.omega * u == pytest.approx(base.omega, abs=1e-9, rel=1e-11)


def test_components_track_discriminant_sign():
    rng = Random(53)
    for _ in range(60):
        a4, a6 = random_nonsingular(rng)
        r = real_period(a4, a6)
        if discriminant(a4, a6) > 0:
            assert r.components == 2
        else:
            assert r.components == 1


def test_known_root_family():
    # cubic with roots a, a+1, -(2a+1): period is 2 pi / agm(sqrt(3a+2), 1)
    for a in range(1, 7):
        a4 = -3 * a * a - 3 * a - 1
        a6 = a * (a + 1) * (2 * a + 1)
        got = real_period(a4, a6)
        assert got.components == 2
        want = float(2 * mpmath.pi / mpmath.agm(mpmath.sqrt(3 * a + 2), 1))
        assert got.omega == pytest.approx(want, rel=1e-12)


def test_singular_curves_rejected():
    for a4, a6 in [(0, 0), (-3, 2), (-48, 128), (-27, 54)]:
        with pytest.raises(ValueError):
            real_period(a4, a6)


# ---------------------------------------------------------------------------


def test_period_bound_scan_contract():
    summary, rows = period_bound_scan((10**4, 10**6), 150, Random(54))
    assert summary["samples"] == 150
    assert summary["h_range"] == [10**4, 10**6]
    assert len(rows) == 150
    for key in ("normalized", "normalized_per_log"):
        stats = summary[key]
        assert set(stats) == {"min", "q25", "median", "q75", "max"}
        assert 0 < stats["min"] <= stats["median"] <= stats["max"]
        assert math.isfinite(stats["max"])
    for a4, a6, h, disc, omega, normalized in rows[:20]:
        assert disc == discriminant(a4, a6)
        assert omega == pytest.approx(real_period(a4, a6).omega, rel=1e-12)
        assert normalized == pytest.approx(omega * h ** (1.0 / 12.0), rel=1e-12)
        assert h <= 10**6


def test_period_bound_scan_validation():
    rng = Random(55)
    with pytest.raises(ValueError):
        period_bound_scan((10**4, 10**6), 50, rng)
    with pytest.raises(ValueError):
        period_bound_scan((10**6, 10**4), 200, rng)
    with pytest.raises(ValueError):
        period_bound_scan((10, 10**4), 200, rng)
    with pytest.raises(ValueError, match="at most"):
        period_bound_scan((10**4, 10**320), 200, rng)  # past float range
