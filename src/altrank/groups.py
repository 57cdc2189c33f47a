"""Finite abelian p-groups, automorphism counts, and limiting measures.

The automorphism counts are closed forms, which the tests check against
brute-force enumerators on small groups.  Infinite products carry
certified truncation tails, and the finite-n cokernel law is an exact
Fraction.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

from .frozen import frozen
from .primes import is_prime, primes_up_to

__all__ = [
    "AbelianPGroup",
    "SymplecticPGroup",
    "MeasureValue",
    "aut_order",
    "symplectic_aut_order",
    "cl_measure",
    "finite_cl_law",
    "delaunay_measure",
    "alternating_square_cyclic_density",
    "group_label",
    "partitions_up_to",
    "symplectic_support",
]


@frozen
class AbelianPGroup:
    """Direct sum of Z/p^e over the exponent partition (empty = trivial)."""

    p: int
    exponents: tuple

    def __post_init__(self):
        if not isinstance(self.exponents, tuple):
            object.__setattr__(self, "exponents", tuple(self.exponents))
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        ex = self.exponents
        if any(not isinstance(e, int) or e <= 0 for e in ex):
            raise ValueError("exponents must be positive integers")
        if any(ex[i] < ex[i + 1] for i in range(len(ex) - 1)):
            raise ValueError("exponents must be weakly decreasing")

    @classmethod
    def from_valuations(cls, p: int, vals) -> "AbelianPGroup":
        """Build from an unordered iterable of valuations, dropping zeros."""
        return cls(p, tuple(sorted((v for v in vals if v), reverse=True)))

    @property
    def order(self) -> int:
        return self.p ** sum(self.exponents)

    @property
    def p_rank(self) -> int:
        return len(self.exponents)


@frozen
class SymplecticPGroup:
    """base x base-dual with the standard nondegenerate alternating pairing.

    The underlying abelian group has every exponent of `base` doubled in
    multiplicity, hence square order.
    """

    base: AbelianPGroup

    def underlying(self) -> AbelianPGroup:
        doubled = tuple(
            sorted((e for e in self.base.exponents for _ in range(2)), reverse=True)
        )
        return AbelianPGroup(self.base.p, doubled)

    @property
    def p(self) -> int:
        return self.base.p

    @property
    def order(self) -> int:
        return self.base.order ** 2


@frozen
class MeasureValue:
    """A numeric value plus a certified bound on the truncation tail."""

    value: float
    tail_bound: float

    def __post_init__(self):
        if self.tail_bound < 0:
            raise ValueError("tail bound must be nonnegative")

    def within_unit_interval(self) -> bool:
        return self.value - self.tail_bound >= -1e-12 and self.value + self.tail_bound <= 1 + 1e-12

    def _require_unit(self) -> "MeasureValue":
        if not self.within_unit_interval():
            raise AssertionError(f"value escaped [0, 1]: {self}")
        return self


# ---------------------------------------------------------------------------
# automorphism counts


def _unit_count(p: int, size_log: int, layers, step: int) -> int:
    """p^size_log * prod over layer sizes m of prod_{i=1..m} (1 - p^(-step*i)),
    in integers."""
    out = 1
    for m in layers:
        for i in range(1, m + 1):
            out *= p ** (step * i) - 1
            size_log -= step * i
    return out * p**size_log


def aut_order(g: AbelianPGroup) -> int:
    """#Aut(G) = #End(G) * prod over layers prod_{i=1..m} (1 - p^-i).

    A layer is the m summands Z/p^k of one exponent k, and #End(G) =
    p^(sum of min(e, f) over ordered pairs of exponents).  End(G) modulo
    its radical is the product of the matrix rings M_m(F_p), whose units
    are the GL_m(F_p), each of order p^(m^2) prod_{i=1..m} (1 - p^-i).
    """
    ex = g.exponents
    end_log = sum(min(e, f) for e in ex for f in ex)
    return _unit_count(g.p, end_log, Counter(ex).values(), 1)


def symplectic_aut_order(s: SymplecticPGroup) -> int:
    """#Sp(G) = #Sym^2(G) * prod over layers of the base
    prod_{i=1..a} (1 - p^-2i), a the layer's size.

    #Sym^2(G) = p^(sum of min(e, f) over unordered pairs of exponents of
    the doubled group G, each exponent also paired with itself).  The
    count has the shape of aut_order's: the pairing-preserving maps
    reduce onto the groups Sp_2a(F_p), each of order
    p^(a(2a+1)) prod_{i=1..a} (1 - p^-2i).  The tests enumerate the same
    count for small groups.
    """
    ex = s.underlying().exponents
    sym_log = sum(min(e, f) for i, e in enumerate(ex) for f in ex[i:])
    return _unit_count(s.p, sym_log, Counter(s.base.exponents).values(), 2)


# ---------------------------------------------------------------------------
# measures


def _truncated_product(p: int, i0: int, coef: int, off: int, tol: float):
    """prod_{i >= i0} (1 - p^-(coef*i + off)) with a certified tail bound.

    Stops once the next factor deviates from 1 by under tol/10 and the
    certified tail is below tol.  The tail uses |log(1-x)| <= 2x for
    x <= 1/2 and a geometric sum with ratio p^-coef <= 1/2.
    """
    value = 1.0
    i = i0
    fp = float(p)
    while True:
        value *= 1.0 - fp ** (-(coef * i + off))
        nxt = fp ** (-(coef * (i + 1) + off))
        tail = value * (-math.expm1(-4.0 * nxt))
        if nxt < tol / 10.0 and tail <= tol:
            return value, tail
        i += 1


def cl_measure(g: AbelianPGroup) -> MeasureValue:
    """Limit frequency of g as the p-part of the cokernel of a large
    uniform square p-adic matrix: prod_{i>=1}(1 - p^-i) / #Aut(g)."""
    base, tail = _truncated_product(g.p, 1, 1, 0, 1e-12)
    aut = aut_order(g)
    return MeasureValue(base / aut, tail / aut)._require_unit()


def finite_cl_law(g: AbelianPGroup, n: int) -> Fraction:
    """Exact frequency of g as the p-part of the cokernel of a
    Haar-uniform n x n matrix over Z_p (Friedman and Washington, 1989):
    prod_{i=1..n}(1 - p^-i) * prod_{i=n-r+1..n}(1 - p^-i) / #Aut(g), r
    the p-rank of g, and 0 when r > n.  As n grows it tends to
    cl_measure(g).  Refuses n < 0."""
    if n < 0:
        raise ValueError(f"matrix size n must be nonnegative, got {n}")
    r = len(g.exponents)
    if r > n:
        return Fraction(0)
    law = Fraction(1, aut_order(g))
    for i in [*range(1, n + 1), *range(n - r + 1, n + 1)]:
        law *= 1 - Fraction(1, g.p**i)
    return law


def delaunay_measure(s: SymplecticPGroup, r: int) -> MeasureValue:
    """Limit frequency of s under the rank-r alternating cokernel law.

    value = #G^(1-r) / #Sp(G) * prod_{i >= r+1} (1 - p^(1-2i)) where G is
    the underlying doubled group and #Sp its pairing-preserving
    automorphism count.
    """
    if r < 0:
        raise ValueError("rank must be nonnegative")
    p = s.p
    base, tail = _truncated_product(p, r + 1, 2, -1, 1e-12)
    sp = symplectic_aut_order(s)
    order = s.order
    if r == 0:
        scale = order / sp
    else:
        scale = 1.0 / (sp * order ** (r - 1))
    return MeasureValue(scale * base, scale * tail)._require_unit()


def alternating_square_cyclic_density(prime_cutoff: int) -> MeasureValue:
    """Limit fraction of corank-0 alternating cokernels whose torsion is
    the square of a cyclic group, as a product over p <= cutoff.

    Summing the rank-0 law of delaunay_measure over G = (Z/p^e)^2, where
    #G = p^(2e) and #Sp(G) = p^(3e-2) (p^2 - 1) for e >= 1, gives the
    local factor
        f_p = C_p (1 + p^2/((p^2 - 1)(p - 1)))
            = (1 + u_p) prod_{i >= 2} (1 - p^(1-2i)),   u_p = 1/(p^3 - p).
    f_p is the mass of a set of groups, so f_p <= 1; and since
    sum_{i >= 2} p^(1-2i) = u_p, f_p >= (1 + u_p)(1 - u_p) = 1 - u_p^2.
    With u_p <= (p - 1)^-3 the omitted primes multiply the value by
    something in [1 - S, 1], S = sum_{m >= cutoff} m^-6
    <= cutoff^-6 + cutoff^-5 / 5.  The tail bound adds the relative
    truncation tails of the per-prime products to S; the limit lies in
    [value - tail, value].
    """
    if prime_cutoff < 2:
        raise ValueError("prime cutoff must be at least 2")
    value = 1.0
    rel_tail = prime_cutoff**-6.0 + prime_cutoff**-5.0 / 5.0
    for p in primes_up_to(prime_cutoff):
        base, tail = _truncated_product(p, 2, 2, -1, 1e-16)
        value *= (1.0 + 1.0 / (p**3 - p)) * base
        rel_tail += tail / base
    # the limit lies in [value - tail, value], so the value itself must
    # be in [0, 1]; _require_unit's symmetric check of value + tail would
    # fail spuriously at small cutoffs, where the tail is large
    if not 0.0 <= value <= 1.0:
        raise AssertionError(f"value escaped [0, 1]: {value}")
    return MeasureValue(value, value * rel_tail)


def group_label(g) -> str:
    """Canonical label: 'p:[e1,e2,...]' with exponents descending."""
    if isinstance(g, SymplecticPGroup):
        g = g.underlying()
    elif not isinstance(g, AbelianPGroup):
        raise TypeError(f"g must be an AbelianPGroup or SymplecticPGroup, got {g!r}")
    return f"{g.p}:[{','.join(map(str, g.exponents))}]"


# ---------------------------------------------------------------------------
# support enumeration


def partitions_up_to(total: int):
    """All partitions (descending tuples) with sum <= total, incl. ()
    when total >= 0."""
    out = [()] if total >= 0 else []

    def rec(prefix, remaining, largest):
        for part in range(min(remaining, largest), 0, -1):
            cand = prefix + (part,)
            out.append(cand)
            rec(cand, remaining - part, part)

    rec((), total, total)
    out.sort(key=lambda t: (sum(t), t))
    return out


def symplectic_support(p: int, max_half_size: int):
    """All SymplecticPGroup with base partition summing to <= max_half_size."""
    return [
        SymplecticPGroup(AbelianPGroup(p, lam))
        for lam in partitions_up_to(max_half_size)
    ]
