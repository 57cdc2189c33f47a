"""Real periods of y^2 = x^3 + a4*x + a6 and the height-normalized scan.

The full real locus is integrated: both components when the cubic has
three real roots (positive discriminant), one otherwise.  The two
components carry equal length for the invariant differential, which the
quadrature cross-check verifies rather than assumes.

Both routes take every root gap from one real root and the exact
integer discriminant (_root_and_gap), and refuse by name, in ints, a
curve whose root or discriminant would leave the float range.  The AGM
holds its est_error up to a singular curve; near one the quadrature
agrees to 1e-12 or raises a ValueError that names the curve
(tests/test_periods.py).  A scan is checked once (check_period_scan),
drawn in chunks of rows (period_scan_rows) and summarized over all rows
(period_scan_summary).  This module does not import counting, so
period-scan and verify period never load it.
"""

from __future__ import annotations

import heapq
import math
from typing import NamedTuple

from .model import MAX_FLOAT_HEIGHT, MIN_HEIGHT, _band_nonempty, _curve_stream

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


# Within these -a4, |a6| and |disc4| give y0 <= 2e100, where 2y^3 is a
# float, and a float disc4 / 4; every band curve has y0 < 1e52
_A4_BOUND, _A6_BOUND, _DISC4_BOUND = 10**200, 10**300, 4 * MAX_FLOAT_HEIGHT


def _root_and_gap(a4, a6):
    """(r, q, t) for x^3 + a4*x + a6: the real root r of largest |r|,
    simple and of the sign of -a6; q = 3r^2 + a4 > 0, the product of r's
    differences to the other two roots; and their squared gap t (< 0 for
    a complex pair) from the exact int q^2 * t = -(4*a4^3 + 27*a6^2).

    |r| is the largest root of y^3 + a4*y - |a6|, by Newton as y <- (2y^3 +
    |a6|) / (3y^2 + a4) from y0 = |a6|^(1/3) + sqrt(max(0, -a4)), where
    that function is nonnegative, increasing and convex: the steps fall
    monotonically, and the loop stops on a step of at most one ulp.
    """
    disc4 = 4 * a4**3 + 27 * a6**2
    if disc4 == 0:
        raise ValueError("singular cubic")
    # in ints, before any float is formed
    if a4 < -_A4_BOUND or abs(a6) > _A6_BOUND or abs(disc4) > _DISC4_BOUND:
        raise ValueError(f"curve ({a4}, {a6}) too large for double precision")
    a4f, c = float(a4), float(abs(a6))
    y = c ** (1.0 / 3.0) + math.sqrt(max(0.0, -a4f))
    for _ in range(100):  # at most 8 steps on band curves
        nxt = (2 * y * y * y + c) / (3 * y * y + a4f)
        if y - nxt <= math.ulp(y):
            break
        y = nxt
    q = 3 * y * y + a4f
    # int true division rounds disc4 / 4 correctly and keeps it finite up
    # to MAX_FLOAT_HEIGHT, where disc4 may not be; dividing by q twice
    # never forms q * q, which may overflow at y near 1e100
    return (-y if a6 > 0 else y), q, -4 * (disc4 / 4 / q / q)


def _agm(a: float, g: float) -> float:
    for _ in range(80):
        # adjacent floats can only swap places; within one ulp is converged
        if abs(a - g) <= math.ulp(a):
            break
        a, g = 0.5 * (a + g), math.sqrt(a * g)
    return 0.5 * (a + g)


# double-precision AGM on root gaps with a few ulps of error each
_EST_RELATIVE_ERROR = 1e-13


def real_period(a4, a6) -> PeriodResult:
    """Total length of the real locus for |dx/2y|, by AGM.

    Three real roots r1 < r2 < r3: two components of equal length,
    total 2*pi / agm(sqrt(r3-r1), sqrt(r3-r2)).  One real root r: a
    single component of length pi / agm(sqrt(w), s/2) where
    w = sqrt(3r^2 + a4) and s^2 = 3r + 2w; s/2 is evaluated through its
    conjugate form when r < 0.  No gap is a difference of close floats.
    """
    r, q, t = _root_and_gap(a4, a6)
    if t > 0:
        d1, d2, _width = _three_root_gaps(r, q, t)
        omega = 2 * math.pi / _agm(math.sqrt(d1), math.sqrt(d2))
        components = 2
    else:
        w = math.sqrt(q)
        if r < 0:
            # (w + 1.5r)/2 cancels for negative r; its conjugate form has
            # numerator 0.75r^2 + a4 = -t/4
            half_sq = -t / (8 * (w - 1.5 * r))
        else:
            half_sq = (w + 1.5 * r) / 2
        omega = math.pi / _agm(math.sqrt(w), math.sqrt(half_sq))
        components = 1
    est = _EST_RELATIVE_ERROR * omega
    if not (omega > 0 and math.isfinite(omega)) or est >= 1e-9:
        raise ValueError("period iteration failed to reach tolerance")
    return PeriodResult(omega, est, components)


def _three_root_gaps(r, q, t):
    """(r3 - r1, r3 - r2, r2 - r1) from _root_and_gap's (r, q, t > 0)."""
    # the other two roots have midpoint -r/2 and gap sqrt(t), so r3 - r1
    # is 1.5|r| + sqrt(t)/2 whichever end r is; r's other gap is q over it
    gap = math.sqrt(t)
    far = 1.5 * abs(r) + gap / 2
    near = q / far
    return (far, near, gap) if r > 0 else (far, gap, near)


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

    Substitutions remove every endpoint singularity and put each peak of
    a near-singular curve at an endpoint, where floats resolve it:
    x = top_root + tau^2 for the unbounded piece, split at the peak for one
    root; x = r2 - (r2 - r1)*sin(phi)^2 for the oval.  Then [0, inf) maps
    to s in [0, 1) by u = L*s/(1 - s), with L = sqrt(r3 - r1) for three
    roots and (3r^2 + a4)^(1/4) for one, so the mass stays near s = 1/2.  The rule is G7-K15, bisected until the summed
    |K15 - G7|, which bounds the G7 error, is at most 1e-13 of the value;
    the K15 value returned is far more accurate.  A peak too narrow for
    the rule raises a ValueError naming the curve.  Meant for cross-checks.
    """
    r, q, t = _root_and_gap(a4, a6)
    try:
        if t > 0:
            d1, d2, width = _three_root_gaps(r, q, t)
            unbounded = 2 * _integral_to_inf(
                lambda u: ((u * u + d1) * (u * u + d2)) ** -0.5, math.sqrt(d1)
            )
            # r3 - x = d2 + width*sin(phi)^2 on the oval
            oval = 2 * _gauss_kronrod(
                lambda ph: (d2 + width * math.sin(ph) ** 2) ** -0.5, 0.0, math.pi / 2
            )
            return unbounded + oval
        # the quartic (tau^2 + 1.5r)^2 - t/4 in u = |tau - t0| on each side
        # of its peak t0 = sqrt(max(0, -1.5r)); the left side is empty when r >= 0
        t0, lift = math.sqrt(max(0.0, -1.5 * r)), max(0.0, 1.5 * r)
        left = _gauss_kronrod(lambda u: ((u * (2 * t0 - u)) ** 2 - t / 4) ** -0.5, 0.0, t0)
        right = _integral_to_inf(
            lambda u: ((u * (2 * t0 + u) + lift) ** 2 - t / 4) ** -0.5, q**0.25
        )
        return 2 * (left + right)
    except ValueError as exc:
        raise ValueError(f"{exc} on the curve (a4, a6) = ({a4}, {a6})") from None


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
        a4, a6, h = next(_curve_stream(cap, rng))
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
