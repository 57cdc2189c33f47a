"""Least-squares power-law fitting on log-log axes."""

from __future__ import annotations

import math
from typing import NamedTuple

__all__ = ["FitResult", "exponent_fit"]


class FitResult(NamedTuple):
    slope: float
    intercept: float
    r_squared: float


def exponent_fit(points) -> FitResult:
    """Fit y = C * x^slope through (x, y) pairs by least squares on logs.

    Requires at least three points with x > 0 and y > 0.  A constant
    series fits exactly with slope 0 and r_squared 1.  Sums are
    math.fsum, correctly rounded, so the floats do not depend on the
    Python version (built-in sum of floats changed in 3.12).
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 3:
        raise ValueError("need at least three points")
    if any(x <= 0 or y <= 0 for x, y in pts):
        raise ValueError("all coordinates must be positive")
    xs = [math.log(x) for x, _ in pts]
    ys = [math.log(y) for _, y in pts]
    n = len(pts)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("all x values coincide")
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    ss_tot = math.fsum((y - my) ** 2 for y in ys)
    ss_res = math.fsum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return FitResult(slope, intercept, r_squared)
