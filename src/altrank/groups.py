"""Finite abelian p-groups, automorphism counts, and limiting measures.

Closed-form counts (Hillar-Rhea for plain automorphisms, an
orbit-stabilizer reduction for pairing-preserving ones) are paired with
brute-force enumerators that stay contractual oracles for small groups.
Infinite products carry certified truncation tails.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

from .frozen import frozen
from .primes import is_prime, primes_up_to

__all__ = [
    "UnsupportedSizeError",
    "AbelianPGroup",
    "SymplecticPGroup",
    "MeasureValue",
    "aut_order",
    "aut_order_brute",
    "symplectic_aut_order",
    "symplectic_aut_order_brute",
    "cl_measure",
    "delaunay_measure",
    "alternating_square_cyclic_density",
    "group_label",
    "partitions_up_to",
    "symplectic_support",
]


class UnsupportedSizeError(ValueError):
    """Brute-force enumeration refused: the group order exceeds the cap."""


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


def aut_order(g: AbelianPGroup) -> int:
    """Automorphism count of a finite abelian p-group (Hillar-Rhea form)."""
    e = sorted(g.exponents)  # ascending
    n = len(e)
    if n == 0:
        return 1
    p = g.p
    d = [0] * n
    c = [0] * n
    for k in range(n):
        d[k] = max(l for l in range(n) if e[l] == e[k]) + 1
        c[k] = min(l for l in range(n) if e[l] == e[k]) + 1
    out = 1
    for k in range(n):
        out *= p ** d[k] - p**k
    for j in range(n):
        out *= (p ** e[j]) ** (n - d[j])
    for i in range(n):
        out *= (p ** (e[i] - 1)) ** (n - c[i] + 1)
    return out


def aut_order_brute(g: AbelianPGroup) -> int:
    """Count automorphisms by enumerating every endomorphism matrix.

    The (i, j) entry of an endomorphism lives in Hom(Z/p^e_j, Z/p^e_i),
    a cyclic group of order p^min(e_i, e_j); the map is invertible iff
    its reduction mod p is invertible (Nakayama plus finiteness).  Only
    feasible for tiny groups; raises UnsupportedSizeError beyond 2**20
    candidate matrices.
    """
    cap = 1 << 20
    ex = g.exponents
    m = len(ex)
    if m == 0:
        return 1
    p = g.p
    total = 1
    ranges = []
    for i in range(m):
        for j in range(m):
            ranges.append(p ** min(ex[i], ex[j]))
            total *= ranges[-1]
    if total > cap:
        raise UnsupportedSizeError(
            f"{total} endomorphism matrices exceed brute-force cap {cap}"
        )
    count = 0
    for flat in itertools.product(*[range(k) for k in ranges]):
        # mod-p reduction: entries where e_i > e_j carry a forced factor
        # of p^(e_i - e_j), so they reduce to 0
        red = []
        for i in range(m):
            row = []
            for j in range(m):
                v = flat[i * m + j]
                row.append(v % p if ex[i] <= ex[j] else 0)
            red.append(row)
        if _rank_mod_p(red, m, p) == m:
            count += 1
    return count


def _rank_mod_p(rows, m: int, p: int) -> int:
    r = 0
    for col in range(m):
        piv = -1
        for i in range(r, m):
            if rows[i][col] % p:
                piv = i
                break
        if piv < 0:
            continue
        rows[piv], rows[r] = rows[r], rows[piv]
        inv = pow(rows[r][col], -1, p)
        for i in range(r + 1, m):
            f = (rows[i][col] * inv) % p
            if f:
                for j in range(col, m):
                    rows[i][j] = (rows[i][j] - f * rows[r][j]) % p
        r += 1
        if r == m:
            break
    return r


def _gl_order(p: int, a: int) -> int:
    out = 1
    pa = p**a
    for i in range(a):
        out *= pa - p**i
    return out


def _sp_order(p: int, a: int) -> int:
    # a = 2m even
    m = a // 2
    out = p ** (m * m)
    for i in range(1, m + 1):
        out *= p ** (2 * i) - 1
    return out


def _alternating_pairing_count(p: int, doubled) -> int:
    """Number of nondegenerate alternating pairings on the doubled group.

    Layer recursion over distinct exponent values k (ascending): the
    rank-a_k layer contributes a unit-block count p^((k-1) a(a-1)/2)
    times the count of nondegenerate alternating forms on F_p^a times
    free choices against everything of smaller exponent.
    """
    mult = Counter(doubled)
    total = 1
    below_log = 0
    for k in sorted(mult):
        a = mult[k]
        total *= p ** ((k - 1) * a * (a - 1) // 2)
        total *= _gl_order(p, a) // _sp_order(p, a)
        total *= (p**below_log) ** a
        below_log += k * a
    return total


def symplectic_aut_order(s: SymplecticPGroup) -> int:
    """Count of automorphisms preserving the alternating pairing.

    The plain automorphism count divided by the number of nondegenerate
    alternating pairings (orbit-stabilizer; the action of Aut on
    pairings is transitive).  `symplectic_aut_order_brute` enumerates
    the same count for small groups.
    """
    g = s.underlying()
    total = aut_order(g)
    pairings = _alternating_pairing_count(s.p, g.exponents)
    if total % pairings:
        raise AssertionError("pairing count does not divide automorphism count")
    return total // pairings


def symplectic_aut_order_brute(s: SymplecticPGroup) -> int:
    """Backtracking count of pairing-preserving automorphisms.

    A pairing-preserving endomorphism is injective (nondegeneracy) and
    hence bijective, so it suffices to count homomorphisms that preserve
    the pairing on generators.  Generators are ordered in hyperbolic
    pairs; the search prunes on every pairing constraint against the
    images already fixed.
    """
    cap = 3**8
    lam = s.base.exponents
    p = s.p
    order = s.order
    if order > cap:
        raise UnsupportedSizeError(f"group order {order} exceeds brute-force cap {cap}")
    if not lam:
        return 1
    mu = [e for e in lam for _ in range(2)]  # generator order exponents
    m2 = len(mu)
    lam_max = lam[0]
    q = p**lam_max
    mods = [p**e for e in mu]
    weights = [p ** (lam_max - e) for e in lam]

    elements = list(itertools.product(*[range(md) for md in mods]))
    nelem = len(elements)

    def ord_exp(c) -> int:
        o = 0
        for s_, v in enumerate(c):
            if v:
                e = mu[s_]
                w = 0
                while v % p == 0 and w < e:
                    v //= p
                    w += 1
                if e - w > o:
                    o = e - w
        return o

    def pair(c, d) -> int:
        tot = 0
        for t in range(len(lam)):
            i0 = 2 * t
            tot += weights[t] * (c[i0] * d[i0 + 1] - c[i0 + 1] * d[i0])
        return tot % q

    # pairing targets between generator j and earlier generator i
    basis = [tuple(int(t == s_) for t in range(m2)) for s_ in range(m2)]
    target = [[pair(basis[j], basis[i]) for i in range(j)] for j in range(m2)]

    by_maxexp: dict = {}
    orders = [ord_exp(c) for c in elements]
    for e in set(mu):
        by_maxexp[e] = [ix for ix in range(nelem) if orders[ix] <= e]

    table = None
    if nelem <= 1024:
        table = [[pair(a, b) for b in elements] for a in elements]

    count = 0
    chosen: list = []

    def rec(j: int):
        nonlocal count
        if j == m2:
            count += 1
            return
        tj = target[j]
        if table is not None:
            for ix in by_maxexp[mu[j]]:
                ti = table[ix]
                ok = True
                for u in range(j):
                    if ti[chosen[u]] != tj[u]:
                        ok = False
                        break
                if ok:
                    chosen.append(ix)
                    rec(j + 1)
                    chosen.pop()
        else:
            for ix in by_maxexp[mu[j]]:
                h = elements[ix]
                ok = True
                for u in range(j):
                    if pair(h, elements[chosen[u]]) != tj[u]:
                        ok = False
                        break
                if ok:
                    chosen.append(ix)
                    rec(j + 1)
                    chosen.pop()

    rec(0)
    return count


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
    return f"{g.p}:[{','.join(map(str, g.exponents))}]"


# ---------------------------------------------------------------------------
# support enumeration


def partitions_up_to(total: int):
    """All partitions (descending tuples) with sum <= total, incl. ()."""
    out = [()]

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
