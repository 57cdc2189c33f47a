"""Exact counts of alternating integer matrices by rank, and the two
Gram-determinant identities for wedge bases built from lattice vectors.

Counting norms: "box" bounds every entry (|a_ij| <= bound), "l2" bounds
the Frobenius norm strictly (sum of squares of all entries < bound^2,
i.e. 2 * sum over the upper triangle).
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import product
from typing import NamedTuple

from .fitting import FitResult, exponent_fit
from .frozen import frozen
from .linalg import (
    AlternatingMatrix,
    IntegerMatrix,
    _alternating_rank,
    _upper_index,
    determinant,
)

__all__ = [
    "CapExceededError",
    "RankHistogram",
    "LatticeBasis",
    "CountFit",
    "census_cells",
    "count_alternating_by_rank",
    "fit_census",
    "fit_counting_exponent",
    "gram_det",
    "build_wedge_basis",
    "check_inner_product_identity",
    "check_det_identity",
]

ENUMERATION_CAP = 10**9


class CapExceededError(ValueError):
    """The requested exact enumeration would visit too many cells."""


class CountFit(NamedTuple):
    slope: float
    intercept: float
    r_squared: float
    used_bounds: tuple
    skipped_bounds: tuple


@frozen
class RankHistogram:
    n: int
    bound: int
    norm: str
    counts: dict

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def at_most(self, r: int) -> int:
        return sum(c for k, c in self.counts.items() if k <= r)

    def fit_count(self, r: int) -> int:
        """What the slope fit tracks: rank <= r (box) or exactly r (l2)."""
        return self.at_most(r) if self.norm == "box" else self.counts.get(r, 0)


def _pfaffian_zero_count_box(x: int) -> int:
    """#{alternating 4x4, entries in [-x, x], Pfaffian = 0}, exactly.

    The Pfaffian is u - v + w for three independent products of entry
    pairs, so the count is a convolution of the product-distribution
    vector with itself.
    """
    span = x * x
    prod_counts = [0] * (2 * span + 1)
    for s in range(-x, x + 1):
        for t in range(-x, x + 1):
            prod_counts[s * t + span] += 1
    total = 0
    for u in range(-span, span + 1):
        pu = prod_counts[u + span]
        if not pu:
            continue
        for v in range(max(-span, u - span), min(span, u + span) + 1):
            pv = prod_counts[v + span]
            if pv:
                total += pu * pv * prod_counts[v - u + span]
    return total


def census_cells(n: int, bound: int, norm: str = "box") -> int:
    """Cells count_alternating_by_rank visits (an upper estimate for l2);
    raises CapExceededError above ENUMERATION_CAP."""
    if n < 0 or bound < 0:
        raise ValueError("dimension and bound must be nonnegative")
    if norm not in ("box", "l2"):
        raise ValueError(f"unknown norm {norm!r}")
    if norm == "l2" and bound < 1:
        # the strict bound |A| < 0 admits no matrix, not even zero
        raise ValueError(f"l2 bound must be at least 1, got {bound}")
    m = n * (n - 1) // 2
    if norm == "box":
        side = 2 * bound + 1
    else:
        # l2: strict bound |A| < bound, i.e. 2 * sum a_ij^2 <= bound^2 - 1
        side = 2 * math.isqrt((bound * bound - 1) // 2) + 1
    # side**m >= 2**m > ENUMERATION_CAP once m passes the cap's bit length,
    # so a huge power is never formed, nor printed
    if side > 1 and (m > ENUMERATION_CAP.bit_length() or side**m > ENUMERATION_CAP):
        raise CapExceededError(f"{side}**{m} cells exceed cap {ENUMERATION_CAP}")
    return side**m


def count_alternating_by_rank(n: int, bound: int, norm: str = "box") -> RankHistogram:
    """Exact histogram of rank over a finite family of alternating matrices."""
    cells = census_cells(n, bound, norm)
    m = n * (n - 1) // 2
    if norm == "box":
        if n <= 1:
            return RankHistogram(n, bound, norm, {0: 1})
        if n == 2:
            return RankHistogram(n, bound, norm, {0: 1, 2: 2 * bound})
        if n == 4:
            # rank <= 2 is exactly Pfaffian = 0; rank 0 is the zero matrix
            z = _pfaffian_zero_count_box(bound)
            counts = {0: 1, 2: z - 1, 4: cells - z}
            return RankHistogram(n, bound, norm, {k: v for k, v in counts.items() if v})
        counts: Counter = Counter()
        rng = range(-bound, bound + 1)
        for upper in product(rng, repeat=m):
            counts[_alternating_rank(n, upper)] += 1
        return RankHistogram(n, bound, norm, dict(counts))

    budget = (bound * bound - 1) // 2
    counts = Counter()
    upper = [0] * m

    def rec(idx: int, rem: int):
        if idx == m:
            counts[_alternating_rank(n, upper)] += 1
            return
        amax = math.isqrt(rem)
        for v in range(-amax, amax + 1):
            upper[idx] = v
            rec(idx + 1, rem - v * v)
        upper[idx] = 0

    if m == 0:
        counts[0] += 1
    else:
        rec(0, budget)
    return RankHistogram(n, bound, norm, dict(counts))


def fit_census(points) -> CountFit:
    """Log-log slope of census counts against the bound, from at least
    four (bound, count) pairs.  Bounds whose count is zero are skipped
    and reported.  Counts below 20 are dropped unless that
    would leave fewer than three points; then every positive count is
    used.
    """
    if len(points) < 4:
        raise ValueError("need at least four bounds")
    pts = [(b, y) for b, y in points if y]
    skipped = [b for b, y in points if not y]
    big = [(b, y) for b, y in pts if y >= 20]
    used = big if len(big) >= 3 else pts
    if len(used) < 3:
        raise ValueError("too few nonzero counts to fit")
    fit = exponent_fit(used)
    return CountFit(
        fit.slope,
        fit.intercept,
        fit.r_squared,
        tuple(b for b, _ in used),
        tuple(skipped),
    )


def fit_counting_exponent(n: int, r: int, bounds, norm: str = "l2") -> CountFit:
    """fit_census of the rank-r census: l2 mode counts matrices of rank
    exactly r (expected slope n*r/2), box mode rank <= r (expected slope
    n*(n-r)/2)."""
    return fit_census(
        [(b, count_alternating_by_rank(n, b, norm).fit_count(r)) for b in bounds]
    )


# ---------------------------------------------------------------------------
# lattice bases and wedge matrices


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


@frozen
class LatticeBasis:
    """Tuple of linearly independent integer vectors of equal dimension."""

    vectors: tuple

    def __post_init__(self):
        vecs = tuple(tuple(int(x) for x in v) for v in self.vectors)
        object.__setattr__(self, "vectors", vecs)
        if not vecs:
            raise ValueError("basis must be nonempty")
        dim = len(vecs[0])
        if any(len(v) != dim for v in vecs):
            raise ValueError("vectors must share a dimension")
        if len(vecs) > dim:
            raise ValueError("more vectors than the ambient dimension")
        if gram_det(self) == 0:
            raise ValueError("vectors are linearly dependent")

    @property
    def r(self) -> int:
        return len(self.vectors)

    @property
    def dim(self) -> int:
        return len(self.vectors[0])


def gram_det(basis) -> int:
    # accept a LatticeBasis or a raw sequence of vectors (used during
    # LatticeBasis validation, before the instance exists)
    vecs = basis.vectors if isinstance(basis, LatticeBasis) else tuple(basis)
    g = IntegerMatrix.from_rows([[_dot(u, v) for v in vecs] for u in vecs])
    return determinant(g)


def build_wedge_basis(basis: LatticeBasis) -> list:
    """Alternating matrices v_i (x) v_j - v_j (x) v_i for i < j."""
    if basis.r < 2:
        raise ValueError("need at least two vectors")
    vecs = basis.vectors
    n = basis.dim
    out = []
    for i in range(basis.r):
        for j in range(i + 1, basis.r):
            vi, vj = vecs[i], vecs[j]
            upper = []
            for s in range(n):
                for t in range(s + 1, n):
                    upper.append(vi[s] * vj[t] - vj[s] * vi[t])
            out.append(AlternatingMatrix(n, tuple(upper)))
    return out


def _frobenius_alt(a: AlternatingMatrix, b: AlternatingMatrix) -> int:
    # full-matrix inner product; upper entries each appear twice
    return 2 * sum(x * y for x, y in zip(a.upper, b.upper))


def check_inner_product_identity(basis: LatticeBasis) -> bool:
    """(w_ij, w_st) == 2 (v_i . v_s)(v_j . v_t) - 2 (v_i . v_t)(v_j . v_s)
    for every pair of wedge matrices, exactly."""
    vecs = basis.vectors
    wedges = build_wedge_basis(basis)
    pairs = [(i, j) for i in range(basis.r) for j in range(i + 1, basis.r)]
    for a, (i, j) in enumerate(pairs):
        for b, (s, t) in enumerate(pairs):
            lhs = _frobenius_alt(wedges[a], wedges[b])
            rhs = 2 * _dot(vecs[i], vecs[s]) * _dot(vecs[j], vecs[t]) - 2 * _dot(
                vecs[i], vecs[t]
            ) * _dot(vecs[j], vecs[s])
            if lhs != rhs:
                return False
    return True


def check_det_identity(basis: LatticeBasis) -> bool:
    """det Gram(wedges) == 2^(r(r-1)/2) * det Gram(vectors)^(r-1), exactly."""
    r = basis.r
    if r < 2:
        raise ValueError("need at least two vectors")
    wedges = build_wedge_basis(basis)
    g = IntegerMatrix.from_rows(
        [[_frobenius_alt(a, b) for b in wedges] for a in wedges]
    )
    lhs = determinant(g)
    rhs = 2 ** (r * (r - 1) // 2) * gram_det(basis) ** (r - 1)
    return lhs == rhs

