import itertools
import math

import pytest
from mpmath import mp, nprod, power

from altrank.groups import (
    AbelianPGroup,
    MeasureValue,
    SymplecticPGroup,
    alternating_square_cyclic_density,
    aut_order,
    cl_measure,
    delaunay_measure,
    finite_cl_law,
    group_label,
    partitions_up_to,
    symplectic_aut_order,
    symplectic_support,
)
from altrank.linalg import diag_valuations_mod

mp.dps = 30


def mp_phi(p, start=1):
    # prod_{i >= start} (1 - p^-i)
    return float(nprod(lambda i: 1 - power(p, -i), [start, mp.inf]))


def mp_delaunay_tailprod(p, r):
    # prod_{i >= r+1} (1 - p^(1-2i))
    return float(nprod(lambda i: 1 - power(p, 1 - 2 * i), [r + 1, mp.inf]))


# ---------------------------------------------------------------------------
# brute-force oracles for the closed-form automorphism counts


class UnsupportedSizeError(ValueError):
    """Brute-force enumeration refused: the group order exceeds the cap."""


def aut_order_brute(g: AbelianPGroup) -> int:
    """Count automorphisms by enumerating every endomorphism matrix.

    The (i, j) entry of an endomorphism lives in Hom(Z/p^e_j, Z/p^e_i),
    a cyclic group of order p^min(e_i, e_j); the map is invertible iff
    its reduction mod p is invertible (Nakayama plus finiteness), that
    is, when linalg's local Smith kernel mod p finds no zero diagonal.
    Only feasible for tiny groups; raises UnsupportedSizeError beyond
    2**20 candidate matrices.
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
        if None not in diag_valuations_mod(red, m, p, 1):
            count += 1
    return count


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
# group containers


def test_group_basics():
    g = AbelianPGroup(2, (3, 1))
    assert g.order == 16
    assert g.p_rank == 2
    assert group_label(g) == "2:[3,1]"
    assert group_label(AbelianPGroup(3, ())) == "3:[]"


def test_group_validation():
    with pytest.raises(ValueError):
        AbelianPGroup(4, (1,))
    with pytest.raises(ValueError):
        AbelianPGroup(2, (1, 2))  # must be weakly decreasing
    with pytest.raises(ValueError):
        AbelianPGroup(2, (0,))


def test_from_valuations_drops_zeros_and_sorts():
    g = AbelianPGroup.from_valuations(5, [0, 2, 1, 0, 2])
    assert g.exponents == (2, 2, 1)


def test_symplectic_doubles():
    s = SymplecticPGroup(AbelianPGroup(2, (2, 1)))
    assert s.underlying().exponents == (2, 2, 1, 1)
    assert s.order == 64
    assert s.p == 2
    assert group_label(s) == "2:[2,2,1,1]"


# ---------------------------------------------------------------------------
# automorphism counts: Hillar-Rhea closed form vs brute enumeration


@pytest.mark.parametrize(
    "p,lam",
    [
        (2, ()),
        (2, (1,)),
        (2, (2,)),
        (2, (3,)),
        (2, (1, 1)),
        (2, (2, 1)),
        (2, (2, 2)),
        (2, (1, 1, 1)),
        (2, (3, 1)),
        (3, ()),
        (3, (1,)),
        (3, (2,)),
        (3, (1, 1)),
        (5, (1,)),
    ],
)
def test_aut_order_matches_brute(p, lam):
    g = AbelianPGroup(p, lam)
    assert aut_order(g) == aut_order_brute(g)


def test_aut_order_cyclic_closed_form():
    # Aut(Z/p^e) is (Z/p^e)^*, order p^e - p^(e-1)
    for p in (2, 3, 5, 7):
        for e in range(1, 6):
            assert aut_order(AbelianPGroup(p, (e,))) == p**e - p ** (e - 1)


def test_aut_order_elementary_abelian_is_gl():
    # brute force is out of reach for (1,1,1,1) at p = 3; the classical
    # |GL_k(F_p)| = prod (p^k - p^i) substitutes as the oracle
    for p in (2, 3):
        for k in range(1, 5):
            gl = 1
            for i in range(k):
                gl *= p**k - p**i
            assert aut_order(AbelianPGroup(p, (1,) * k)) == gl
    assert aut_order(AbelianPGroup(3, (1, 1, 1, 1))) == 24261120


def test_aut_order_known_textbook_values():
    assert aut_order(AbelianPGroup(2, (2, 1))) == 8  # Z/4 + Z/2
    assert aut_order(AbelianPGroup(2, (3, 1))) == 16  # Z/8 + Z/2
    assert aut_order(AbelianPGroup(2, (2, 2))) == 96  # |GL_2(Z/4)|
    assert aut_order(AbelianPGroup(2, (3, 2, 1))) == 2048


def test_aut_order_brute_cap():
    with pytest.raises(UnsupportedSizeError):
        aut_order_brute(AbelianPGroup(2, (1, 1, 1, 1, 1)))


# ---------------------------------------------------------------------------
# symplectic automorphism counts


@pytest.mark.parametrize(
    "p,lam,expected,run_brute",
    [
        (2, (), 1, True),
        (2, (1,), 6, True),  # Sp_2(Z/2) = SL_2(F_2)
        (2, (2,), 48, True),  # SL_2(Z/4)
        (2, (3,), 384, True),  # SL_2(Z/8)
        (2, (1, 1), 720, True),  # Sp_4(F_2)
        (2, (2, 1), 4608, True),
        (2, (3, 1), 36864, True),
        (2, (2, 2), 737280, False),  # brute takes ~9 s; value was brute-confirmed once
        (3, (), 1, True),
        (3, (1,), 24, True),  # SL_2(F_3)
        (3, (1, 1), 51840, True),  # Sp_4(F_3)
    ],
)
def test_symplectic_aut_order_closed_vs_brute(p, lam, expected, run_brute):
    s = SymplecticPGroup(AbelianPGroup(p, lam))
    assert symplectic_aut_order(s) == expected
    if run_brute:
        assert symplectic_aut_order_brute(s) == expected


def test_symplectic_cyclic_base_closed_form():
    # Sp of (Z/p^e)^2 is SL_2(Z/p^e), order p^(3e) (1 - p^-2)
    for p in (2, 3, 5):
        for e in range(1, 4):
            s = SymplecticPGroup(AbelianPGroup(p, (e,)))
            want = p ** (3 * e) * (p * p - 1) // (p * p)
            assert symplectic_aut_order(s) == want


def test_symplectic_brute_cap():
    with pytest.raises(UnsupportedSizeError):
        symplectic_aut_order_brute(SymplecticPGroup(AbelianPGroup(3, (3, 2))))


def test_symplectic_divides_full_aut():
    # pairing-preserving automorphisms form a subgroup
    for p, lam in [(2, (1,)), (2, (2, 1)), (3, (1,)), (2, (1, 1))]:
        s = SymplecticPGroup(AbelianPGroup(p, lam))
        full = aut_order(s.underlying())
        assert full % symplectic_aut_order(s) == 0


# ---------------------------------------------------------------------------
# measures against mpmath oracles


def test_cl_measure_against_oracle():
    for p in (2, 3, 5):
        phi = mp_phi(p)
        for lam in partitions_up_to(3):
            g = AbelianPGroup(p, lam)
            m = cl_measure(g)
            want = phi / aut_order(g)
            assert abs(m.value - want) <= 1e-12 + m.tail_bound


def test_finite_cl_law_tends_to_cl_measure():
    # the finite-n law differs from the limit by a factor 1 - O(p^(r-n))
    for p in (2, 3, 5):
        for lam in partitions_up_to(3):
            g = AbelianPGroup(p, lam)
            m = cl_measure(g)
            assert abs(float(finite_cl_law(g, 60)) - m.value) <= 1e-12 + m.tail_bound
    # a 0 x 0 matrix has trivial cokernel; p-rank above n is never reached
    assert finite_cl_law(AbelianPGroup(2, ()), 0) == 1
    assert finite_cl_law(AbelianPGroup(3, (1, 1)), 1) == 0


def test_cl_measure_trivial_known_value():
    m = cl_measure(AbelianPGroup(2, ()))
    assert abs(m.value - 0.2887880950866024) <= 1e-12 + m.tail_bound
    # Z/2 has trivial automorphism group: same mass
    m2 = cl_measure(AbelianPGroup(2, (1,)))
    assert abs(m2.value - 0.2887880950866024) <= 1e-12 + m2.tail_bound


def test_delaunay_measure_against_oracle():
    for p in (2, 3):
        for r in (0, 1, 2):
            tailprod = mp_delaunay_tailprod(p, r)
            for lam in partitions_up_to(2):
                s = SymplecticPGroup(AbelianPGroup(p, lam))
                order = s.order
                sp = symplectic_aut_order(s)
                want = order ** (1 - r) / sp * tailprod
                m = delaunay_measure(s, r)
                assert abs(m.value - want) <= 1e-12 + m.tail_bound


def test_delaunay_trivial_frozen_values():
    triv2 = SymplecticPGroup(AbelianPGroup(2, ()))
    m0 = delaunay_measure(triv2, 0)
    m1 = delaunay_measure(triv2, 1)
    assert abs(m0.value - 0.4194224417951076) <= 1e-12 + m0.tail_bound
    assert abs(m1.value - 0.8388448835902152) <= 1e-12 + m1.tail_bound
    triv3 = SymplecticPGroup(AbelianPGroup(3, ()))
    m3 = delaunay_measure(triv3, 0)
    assert abs(m3.value - 0.6390045766374778) <= 1e-12 + m3.tail_bound


def test_delaunay_rejects_negative_rank():
    with pytest.raises(ValueError):
        delaunay_measure(SymplecticPGroup(AbelianPGroup(2, ())), -1)


def test_measures_sum_below_one():
    # partial sums of a probability measure over distinct atoms
    for r in (0, 1):
        total = sum(
            delaunay_measure(SymplecticPGroup(AbelianPGroup(2, lam)), r).value
            for lam in partitions_up_to(6)
        )
        assert total <= 1 + 1e-9
    assert (
        sum(cl_measure(AbelianPGroup(2, lam)).value for lam in partitions_up_to(6))
        <= 1 + 1e-9
    )


def test_measure_sums_capture_most_mass():
    # frozen partial sums; regression guard for the support enumeration
    s0 = sum(
        delaunay_measure(SymplecticPGroup(AbelianPGroup(2, lam)), 0).value
        for lam in partitions_up_to(6)
    )
    s1 = sum(
        delaunay_measure(SymplecticPGroup(AbelianPGroup(2, lam)), 1).value
        for lam in partitions_up_to(6)
    )
    assert s0 > 0.99
    assert s1 > 0.9999
    assert abs(s0 - 0.9904821464176368) < 1e-10
    assert abs(s1 - 0.9999993360917414) < 1e-10


def test_alternating_square_cyclic_factor_is_summed_delaunay_law():
    # the local factor is the rank-0 mass of (Z/p^e)^2 summed over e; the
    # factor at p is the ratio of the products at p and at the prime before
    prev = 1.0
    for p in (2, 3, 5, 7, 11):
        cur = alternating_square_cyclic_density(p).value
        summed = sum(
            delaunay_measure(
                SymplecticPGroup(AbelianPGroup(p, (e,) if e else ())), 0
            ).value
            for e in range(60)
        )
        assert abs(cur / prev - summed) < 1e-12
        prev = cur


def test_alternating_square_cyclic_density_small_cutoff_by_hand():
    want = 1.0
    for p in (2, 3, 5, 7):
        factor = 1 + 1 / (p**3 - p)
        for i in range(2, 60):
            factor *= 1 - p ** (1 - 2 * i)
        want *= factor
    got = alternating_square_cyclic_density(10)
    assert abs(got.value - want) < 1e-15
    assert got.tail_bound > 0


def test_alternating_square_cyclic_density_tail_and_limit():
    coarse = alternating_square_cyclic_density(100)
    fine = alternating_square_cyclic_density(10**5)
    # both limits lie in [value - tail, value], so the brackets overlap
    assert fine.value <= coarse.value
    assert coarse.value - fine.value <= coarse.tail_bound + fine.tail_bound
    assert abs(fine.value - 0.9770556810) < 1e-9
    with pytest.raises(ValueError):
        alternating_square_cyclic_density(1)


# ---------------------------------------------------------------------------
# MeasureValue plumbing


def test_measure_value_unit_interval():
    ok = MeasureValue(0.5, 1e-12)
    assert ok.within_unit_interval()
    assert not MeasureValue(1.5, 0.0).within_unit_interval()
    with pytest.raises(ValueError):
        MeasureValue(0.5, -1e-3)


# ---------------------------------------------------------------------------
# support enumeration


def test_partitions_up_to_exact_list():
    # ordered by (sum, lexicographic)
    got = partitions_up_to(4)
    assert got == [
        (),
        (1,),
        (1, 1),
        (2,),
        (1, 1, 1),
        (2, 1),
        (3,),
        (1, 1, 1, 1),
        (2, 1, 1),
        (2, 2),
        (3, 1),
        (4,),
    ]


def test_partition_counts_match_euler():
    # cumulative partition numbers: p(0..n) sums
    partial = [1, 2, 4, 7, 12, 19, 30]  # sum of p(k), k <= n for n = 0..6
    for n, want in enumerate(partial):
        assert len(partitions_up_to(n)) == want


def test_symplectic_support_shape():
    groups = symplectic_support(2, 3)
    assert len(groups) == 7
    labels = [group_label(s) for s in groups]
    assert labels[0] == "2:[]"
    assert "2:[1,1]" in labels
    assert all(s.p == 2 for s in groups)
