"""Real periods of y^2 = x^3 + a4*x + a6 and the height-normalized scan.

The full real locus is integrated: both components when the cubic has
three real roots (positive discriminant), one otherwise.  The two
components carry equal length for the invariant differential, which the
quadrature cross-check verifies rather than assumes.
"""

from __future__ import annotations

import heapq
import math
from typing import NamedTuple

from .model import MAX_FLOAT_HEIGHT, MIN_HEIGHT, _band_nonempty, sample_curve_in_band

__all__ = [
    "PeriodResult",
    "discriminant",
    "real_period",
    "real_period_quadrature",
    "check_period_scan",
    "period_scan_rows",
    "period_scan_summary",
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


def real_period(a4, a6) -> PeriodResult:
    """Total length of the real locus for |dx/2y|, by AGM.

    Three real roots r1 < r2 < r3: two components of equal length,
    total 2*pi / agm(sqrt(r3-r1), sqrt(r3-r2)).  One real root r: a
    single component of length pi / agm(sqrt(w), s/2) where
    w = sqrt(3r^2 + a4) and s^2 = 3r + 2w; s/2 is evaluated through its
    conjugate form when r < 0 to dodge cancellation.
    """
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
    if not (omega > 0 and math.isfinite(omega)) or est >= 1e-9:
        raise ValueError("period iteration failed to reach tolerance")
    return PeriodResult(omega, est, components)


# QUADPACK's qk15 rule: the positive 15-point Kronrod nodes on [-1, 1]
# (those of odd index are the 7-point Gauss nodes), then the Kronrod and
# the Gauss weights
_XK = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
)
_WK = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
)
_QUAD_RELATIVE_TOL = 1e-13
_QUAD_MAX_PIECES = 500


def _gauss_kronrod(f, a, b) -> float:
    """Integral of f over the finite [a, b] by QUADPACK's QAG loop: the
    piece with the largest |K15 - G7| is bisected until the summed
    |K15 - G7| is at most _QUAD_RELATIVE_TOL of the summed K15 values;
    ValueError past _QUAD_MAX_PIECES pieces.
    """

    def piece(lo, hi):
        c, h = (lo + hi) / 2, (hi - lo) / 2
        fc = f(c)
        k, g = _WK[7] * fc, _WG[3] * fc
        for i in range(7):
            pair = f(c - h * _XK[i]) + f(c + h * _XK[i])
            k += _WK[i] * pair
            if i % 2:
                g += _WG[i // 2] * pair
        return (-abs(k - g) * h, lo, hi, k * h)

    pieces = [piece(a, b)]
    while True:
        total = math.fsum(p[3] for p in pieces)
        if -math.fsum(p[0] for p in pieces) <= _QUAD_RELATIVE_TOL * abs(total):
            return total
        if len(pieces) == _QUAD_MAX_PIECES:
            raise ValueError("quadrature failed to reach tolerance")
        _, lo, hi, _ = heapq.heappop(pieces)
        heapq.heappush(pieces, piece(lo, (lo + hi) / 2))
        heapq.heappush(pieces, piece((lo + hi) / 2, hi))


def _integral_to_inf(g, scale: float) -> float:
    # t = scale*s/(1 - s); analytic at s = 1, since g(t) ~ 1/t^2
    return _gauss_kronrod(
        lambda s: g(scale * s / (1 - s)) * scale / (1 - s) ** 2, 0.0, 1.0
    )


def real_period_quadrature(a4, a6) -> float:
    """Independent evaluation of the same integral by adaptive quadrature.

    Substitutions remove every endpoint singularity: x = top_root + t^2
    for the unbounded piece, a sine parametrization between the two
    lower roots for the bounded oval.  Then t in [0, inf) maps to s in
    [0, 1) by t = L*s/(1 - s), with L = sqrt(r3 - r1) for three roots
    and q0^(1/4) for one, so the mass stays near s = 1/2 at any height.
    The rule is G7-K15, bisected until the summed |K15 - G7|, which
    bounds the G7 error, is at most 1e-13 of the value; the K15 value
    returned is far more accurate.  Slower than the AGM route; meant for
    cross-checks.
    """
    roots = _real_roots(a4, a6)
    if len(roots) == 3:
        r1, r2, r3 = roots
        d1, d2 = r3 - r1, r3 - r2
        unbounded = 2 * _integral_to_inf(
            lambda t: ((t * t + d1) * (t * t + d2)) ** -0.5, math.sqrt(d1)
        )
        c, h = (r1 + r2) / 2, (r2 - r1) / 2
        oval = _gauss_kronrod(
            lambda th: (r3 - c - h * math.sin(th)) ** -0.5, -math.pi / 2, math.pi / 2
        )
        return unbounded + oval
    r = roots[0]
    q0 = 3 * r * r + float(a4)
    return 2 * _integral_to_inf(
        lambda t: (t**4 + 3 * r * t * t + q0) ** -0.5, q0**0.25
    )


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


def check_period_scan(h_range, samples: int) -> None:
    """Refuse fewer than 100 samples, or a height range that reaches a cap
    whose band holds no valid curve (caps 100-107 and 216-242), by name."""
    h_lo, h_hi = h_range
    if samples < 100:
        raise ValueError("need at least 100 samples")
    if h_lo < MIN_HEIGHT or h_hi <= h_lo:
        raise ValueError("bad height range")
    if h_hi > MAX_FLOAT_HEIGHT:
        raise ValueError(f"heights must be at most {MAX_FLOAT_HEIGHT:.6g}")
    # each cap the log-uniform draw can round to; from 1e4 up every band holds a curve
    for cap in range(round(h_lo), min(round(h_hi) + 1, 10_000)):
        if not _band_nonempty(cap):
            raise ValueError(
                f"heights [{h_lo}, {h_hi}] reach cap {cap}, and no valid curve "
                f"has height in ({cap}/2, {cap}]"
            )


def period_scan_rows(h_range, samples: int, rng) -> list:
    """(a4, a6, height, discriminant, omega, omega * h^(1/12)) of `samples`
    random curves with log-uniform height caps in a checked h_range."""
    log_lo, log_hi = math.log(h_range[0]), math.log(h_range[1])
    rows = []
    for _ in range(samples):
        cap = max(MIN_HEIGHT, round(math.exp(rng.uniform(log_lo, log_hi))))
        curve = sample_curve_in_band(cap, rng)
        a4, a6, h = curve.a4, curve.a6, curve.height
        omega = real_period(a4, a6).omega
        rows.append((a4, a6, h, discriminant(a4, a6), omega, omega * h ** (1.0 / 12.0)))
    return rows


def period_scan_summary(h_range, rows) -> dict:
    """Quantiles of the normalized periods of the rows, and of each over
    log(height).  The band constants are reported, not asserted against
    fixed values."""
    normalized = [row[5] for row in rows]
    if not all(v > 0 and math.isfinite(v) for v in normalized):
        raise AssertionError("normalized period left the positive range")
    return {
        "samples": len(rows),
        "h_range": list(h_range),
        "normalized": _stats(normalized),
        "normalized_per_log": _stats([row[5] / math.log(row[2]) for row in rows]),
    }


def period_bound_scan(h_range, samples: int, rng):
    """(summary, rows) of one checked scan in a single chunk."""
    check_period_scan(h_range, samples)
    rows = period_scan_rows(h_range, samples, rng)
    return period_scan_summary(h_range, rows), rows
