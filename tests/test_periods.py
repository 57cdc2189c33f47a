import math
from random import Random

import mpmath
import pytest

from altrank import periods
from altrank.model import MAX_FLOAT_HEIGHT, MIN_HEIGHT, _band_nonempty, sample_curve_in_band
from altrank.periods import (
    _EST_RELATIVE_ERROR,
    _agm,
    _gauss_kronrod,
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


def mp_period_carlson(a4, a6):
    """Arbitrary-precision oracle at any height, in closed form.

    The curve is rescaled to coefficients of size about 1 (omega scales
    as 1/u under (a4, a6) -> (a4/u^4, a6/u^6)), its roots found by
    polyroots, and each real branch is 2*R_F of the root differences:
    both components of the three-root locus are 2*R_F(r3-r1, r3-r2, 0),
    the one-root branch is 2*R_F(0, r - z, r - conj(z)).  Carlson's R_F
    is computed by the duplication theorem, not by an AGM, and takes a
    few ms, where mp_period's tanh-sinh takes about 0.1 s a curve.

    Its precision grows with the coefficients.  The discriminant is a
    nonzero int, so two roots lie at least about 2^(-bits/2) apart
    relative to their size, where bits is the bit length of
    |a4|^3 + a6^2: 40 digits beyond that gap are kept, and polyroots gets
    as many extra bits, and steps, as it needs to separate such a pair.
    """
    bits = (abs(a4) ** 3 + a6 * a6).bit_length()
    with mpmath.workdps(40 + bits * 3 // 20):
        u = max(abs(mpmath.mpf(a4)) ** 0.25, abs(mpmath.mpf(a6)) ** (mpmath.mpf(1) / 6))
        roots = sorted(
            mpmath.polyroots(
                [1, 0, a4 / u**4, a6 / u**6], maxsteps=50 + bits, extraprec=10 + bits // 2
            ),
            key=lambda z: (abs(z.imag), z.real),
        )
        if discriminant(a4, a6) > 0:
            r1, r2, r3 = sorted(z.real for z in roots)
            total = 4 * mpmath.elliprf(r3 - r1, r3 - r2, 0)
        else:
            r, z = roots[0].real, roots[1]
            total = 2 * mpmath.elliprf(0, r - z, r - mpmath.conj(z)).real
        return float(total / u)


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


@pytest.mark.parametrize("a4,a6", FIXED_CURVES)
def test_carlson_oracle_matches_quadrature_oracle(a4, a6):
    assert mp_period_carlson(a4, a6) == pytest.approx(mp_period(a4, a6), rel=1e-14)


# band caps from the smallest to the largest height period-scan accepts
BAND_CAPS = [10**3, 10**20, 10**60, 10**100, 10**200, 10**300, MAX_FLOAT_HEIGHT]


@pytest.mark.parametrize(
    "cap", BAND_CAPS, ids=["1e3", "1e20", "1e60", "1e100", "1e200", "1e300", "max"]
)
def test_routes_agree_in_every_band(cap):
    # tolerances fixed before any run: the two double-precision routes to
    # 1e-12 relative, and the AGM to its own stated error against the
    # 40-digit oracle
    rng = Random(56)
    for _ in range(20):
        curve = sample_curve_in_band(cap, rng)
        agm = real_period(curve.a4, curve.a6).omega
        quad = real_period_quadrature(curve.a4, curve.a6)
        oracle = mp_period_carlson(curve.a4, curve.a6)
        assert abs(quad - agm) <= 1e-12 * agm, curve
        assert abs(agm - oracle) <= _EST_RELATIVE_ERROR * oracle, curve


# e away from the singular (x - k)^2 (x + 2k) = x^3 - 3k^2 x + 2k^3, and
# its mirror image: the two roots near k are about sqrt(e/3k) apart (a
# complex pair when e > 0), so their gap is the difference of two close
# floats for any route that finds all three roots in double precision
NEAR_SINGULAR = [
    (-3 * k * k, sign * (2 * k**3 + e))
    for k in [10**j for j in (2, 4, 6, 8, 10, 20, 30, 40, 50, 60, 70)]
    for e in (1, -1, 7, -7)
    for sign in (1, -1)
]


def test_routes_stay_right_near_singular_curves():
    # tolerances fixed before any run: the AGM within its own est_error,
    # the quadrature within 1e-12 relative or a ValueError that names the
    # curve; the oracle's precision grows with the height
    refused = []
    for a4, a6 in NEAR_SINGULAR:
        oracle = mp_period_carlson(a4, a6)
        agm = real_period(a4, a6)
        assert abs(agm.omega - oracle) <= agm.est_error, (a4, a6)
        try:
            quad = real_period_quadrature(a4, a6)
        except ValueError as exc:
            assert f"({a4}, {a6})" in str(exc)
            refused.append((a4, a6))
            continue
        assert abs(quad - oracle) <= 1e-12 * oracle, (a4, a6)
    # only the one-root peak between the real root and infinity can be too
    # narrow for 500 G7-K15 pieces
    assert all(discriminant(a4, a6) < 0 and a6 > 0 for a4, a6 in refused), refused


class _CountingMath:
    """math with a count of ulp calls: one per step of either loop."""

    def __init__(self):
        self.ulps = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def ulp(self, v):
        self.ulps += 1
        return math.ulp(v)


def test_agm_stops_within_one_ulp(monkeypatch):
    counting = _CountingMath()
    monkeypatch.setattr(periods, "math", counting)
    a = 1.5
    g = math.nextafter(a, 0.0)
    assert _agm(a, g) in (a, g)
    assert counting.ulps == 1
    counting.ulps = 0
    assert _agm(1.0, 1e-10) == pytest.approx(float(mpmath.agm(1, 1e-10)), rel=1e-15)
    assert counting.ulps <= 10


def test_newton_and_agm_stop_well_before_their_caps(monkeypatch):
    # a stop rule of step > 1e-16*y cycles forever on (53, -119); each
    # real_period runs one Newton loop and one AGM, about 6 and 4 steps
    counting = _CountingMath()
    monkeypatch.setattr(periods, "math", counting)
    curves = [(53, -119), *NEAR_SINGULAR]
    rng = Random(57)
    for cap in BAND_CAPS:
        for _ in range(50):
            curve = sample_curve_in_band(cap, rng)
            curves.append((curve.a4, curve.a6))
    worst = 0
    for a4, a6 in curves:
        counting.ulps = 0
        real_period(a4, a6)
        worst = max(worst, counting.ulps)
    assert worst <= 20


def test_quadrature_fails_loudly_where_it_cannot_converge():
    # a cross-check that stops short must raise, not return its last sum
    assert _gauss_kronrod(math.cos, 0.0, math.pi / 2) == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ValueError, match="tolerance"):
        _gauss_kronrod(lambda x: math.sin(1e6 * x), 0.0, 1.0)


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


def test_curves_past_double_precision_refused():
    # k = 1e100 of the near-singular family: -a4 = 3e200 is past 1e200,
    # where sqrt(-a4) alone passes 1e100 and the Newton loop's 2y^3 nears
    # the float limit
    with pytest.raises(ValueError, match="too large for double precision"):
        real_period(-3 * 10**200, 2 * 10**300 - 1)


@pytest.mark.parametrize("a4", [-(10**199), 10**199])
def test_discriminant_past_the_float_range_refused(a4):
    # y0 is below 1e100, but 4*a4**3 + 27*a6**2 is about 1e597, and its
    # quarter is no float: both routes refuse by name, before any float
    for route in (real_period, real_period_quadrature):
        with pytest.raises(ValueError, match="too large for double precision"):
            route(a4, 10**295)


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


def test_scan_refuses_a_range_that_reaches_an_empty_band():
    # below 1e4 the bands of caps 100-107 and 216-242 hold no valid
    # curve; a range that reaches one is refused whatever the seed,
    # naming the first such cap, and its neighbours run
    empty = [cap for cap in range(MIN_HEIGHT, 10**4) if not _band_nonempty(cap)]
    assert empty == [*range(100, 108), *range(216, 243)]
    for h_range, cap in [((240, 5000), 240), ((200, 5000), 216), ((100, 10**6), 100), ((108, 216), 216)]:
        for seed in range(1, 11):
            with pytest.raises(ValueError, match=rf"reach cap {cap}, and no valid curve has height in \({cap}/2, {cap}\]"):
                period_bound_scan(h_range, 100, Random(seed))
    for h_range in [(108, 215), (243, 5000)]:
        summary, _rows = period_bound_scan(h_range, 100, Random(1))
        assert summary["samples"] == 100
