"""Real periods of y^2 = x^3 + a4*x + a6 and the height-normalized scan.

The full real locus is integrated: both components when the cubic has
three real roots (positive discriminant), one otherwise.  The two
components carry equal length for the invariant differential, which the
quadrature cross-check verifies rather than assumes.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .model import MAX_FLOAT_HEIGHT, MIN_HEIGHT, sample_curve_in_band

__all__ = [
    "PeriodResult",
    "discriminant",
    "real_period",
    "real_period_quadrature",
    "period_bound_scan",
]


class PeriodResult(NamedTuple):
    omega: float
    est_error: float
    components: int


def discriminant(a4: int, a6: int) -> int:
    return -16 * (4 * a4**3 + 27 * a6**2)


def _cbrt(v: float) -> float:
    return math.copysign(abs(v) ** (1.0 / 3.0), v)


def _polish(root: float, a4: float, a6: float) -> float:
    for _ in range(4):
        f = root * (root * root + a4) + a6
        df = 3 * root * root + a4
        if df == 0:
            break
        step = f / df
        root -= step
        if abs(step) <= 1e-15 * (abs(root) + 1):
            break
    return root


def _real_roots(a4, a6):
    """Real roots of x^3 + a4*x + a6, ascending; three or one of them.

    Trig form when all roots are real (which forces a4 < 0), a
    cancellation-free Cardano branch otherwise, then Newton polish.
    """
    disc4 = 4 * a4**3 + 27 * a6**2
    if disc4 == 0:
        raise ValueError("singular cubic")
    a4f, a6f = float(a4), float(a6)
    if disc4 < 0:
        m = 2 * math.sqrt(-a4f / 3)
        c = 3 * a6f / (a4f * m)
        phi = math.acos(min(1.0, max(-1.0, c)))
        roots = sorted(
            _polish(m * math.cos((phi - 2 * math.pi * k) / 3), a4f, a6f)
            for k in range(3)
        )
        return roots
    s = math.sqrt(a6f * a6f / 4 + a4f**3 / 27)
    u3 = -a6f / 2 - s if a6f >= 0 else -a6f / 2 + s
    u = _cbrt(u3)
    root = u - a4f / (3 * u) if u else 0.0
    return [_polish(root, a4f, a6f)]


def _agm(a: float, g: float) -> float:
    for _ in range(80):
        if abs(a - g) <= 1e-16 * a:
            break
        a, g = 0.5 * (a + g), math.sqrt(a * g)
    return 0.5 * (a + g)


# double-precision AGM with polished roots carries a few tens of ulps
_EST_RELATIVE_ERROR = 1e-13


def real_period(a4, a6, tol: float = 1e-9) -> PeriodResult:
    """Total length of the real locus for |dx/2y|, by AGM.

    Three real roots r1 < r2 < r3: two components of equal length,
    total 2*pi / agm(sqrt(r3-r1), sqrt(r3-r2)).  One real root r: a
    single component of length pi / agm(sqrt(w), s/2) where
    w = sqrt(3r^2 + a4) and s^2 = 3r + 2w; s/2 is evaluated through its
    conjugate form when r < 0 to dodge cancellation.
    """
    if tol <= _EST_RELATIVE_ERROR * 10:
        raise ValueError(f"tolerance {tol} below double-precision reach")
    roots = _real_roots(a4, a6)
    if len(roots) == 3:
        r1, r2, r3 = roots
        omega = 2 * math.pi / _agm(math.sqrt(r3 - r1), math.sqrt(r3 - r2))
        components = 2
    else:
        r = roots[0]
        w = math.sqrt(3 * r * r + float(a4))
        if r < 0:
            # (w + 1.5r)/2 cancels badly for negative r; use the conjugate form
            half_sq = (0.75 * r * r + float(a4)) / (2 * (w - 1.5 * r))
        else:
            half_sq = (w + 1.5 * r) / 2
        omega = math.pi / _agm(math.sqrt(w), math.sqrt(half_sq))
        components = 1
    est = _EST_RELATIVE_ERROR * omega
    if not (omega > 0 and math.isfinite(omega)) or est >= tol:
        raise ValueError("period iteration failed to reach tolerance")
    return PeriodResult(omega, est, components)


def real_period_quadrature(a4, a6) -> float:
    """Independent adaptive-quadrature evaluation of the same integral.

    Substitutions remove every endpoint singularity: x = top_root + t^2
    for the unbounded piece, a sine parametrization between the two
    lower roots for the bounded oval.  Slower than the AGM route; meant
    for cross-checks.
    """
    from scipy.integrate import quad

    roots = _real_roots(a4, a6)
    if len(roots) == 3:
        r1, r2, r3 = roots
        unbounded = 2 * quad(
            lambda t: ((t * t + r3 - r1) * (t * t + r3 - r2)) ** -0.5,
            0,
            math.inf,
            epsabs=1e-13,
            epsrel=1e-13,
            limit=300,
        )[0]
        c, h = (r1 + r2) / 2, (r2 - r1) / 2
        oval = quad(
            lambda th: (r3 - c - h * math.sin(th)) ** -0.5,
            -math.pi / 2,
            math.pi / 2,
            epsabs=1e-13,
            epsrel=1e-13,
            limit=300,
        )[0]
        return unbounded + oval
    r = roots[0]
    q0 = 3 * r * r + float(a4)
    return 2 * quad(
        lambda t: (t**4 + 3 * r * t * t + q0) ** -0.5,
        0,
        math.inf,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=300,
    )[0]


def _stats(values) -> dict:
    s = sorted(values)
    n = len(s)

    def q(p: float) -> float:
        return s[round(p * (n - 1))]

    return {
        "min": s[0],
        "q25": q(0.25),
        "median": q(0.5),
        "q75": q(0.75),
        "max": s[-1],
    }


def period_bound_scan(h_range, samples: int, rng):
    """Normalized periods omega * h^(1/12) over random curves with
    log-uniform height caps in h_range.

    Returns (summary, rows); rows carry (a4, a6, height, discriminant,
    omega, normalized) for CSV emission.  The band constants are
    reported, not asserted against fixed values.
    """
    h_lo, h_hi = h_range
    if samples < 100:
        raise ValueError("need at least 100 samples")
    if h_lo < MIN_HEIGHT or h_hi <= h_lo:
        raise ValueError("bad height range")
    if h_hi > MAX_FLOAT_HEIGHT:
        raise ValueError(f"heights must be at most {MAX_FLOAT_HEIGHT:.6g}")
    rows = []
    normalized = []
    per_log = []
    log_lo, log_hi = math.log(h_lo), math.log(h_hi)
    for _ in range(samples):
        cap = max(MIN_HEIGHT, round(math.exp(rng.uniform(log_lo, log_hi))))
        curve = sample_curve_in_band(cap, rng)
        h = curve.height
        omega = real_period(curve.a4, curve.a6).omega
        u = omega * h ** (1.0 / 12.0)
        rows.append(
            (curve.a4, curve.a6, h, discriminant(curve.a4, curve.a6), omega, u)
        )
        normalized.append(u)
        per_log.append(u / math.log(h))
    if not all(v > 0 and math.isfinite(v) for v in normalized):
        raise AssertionError("normalized period left the positive range")
    summary = {
        "samples": samples,
        "h_range": [h_lo, h_hi],
        "normalized": _stats(normalized),
        "normalized_per_log": _stats(per_log),
    }
    return summary, rows

