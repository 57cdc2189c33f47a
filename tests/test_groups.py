import math

import pytest
from mpmath import mp, nprod, power

from altrank.groups import (
    AbelianPGroup,
    MeasureValue,
    SymplecticPGroup,
    UnsupportedSizeError,
    alternating_square_cyclic_density,
    aut_order,
    aut_order_brute,
    cl_measure,
    delaunay_measure,
    group_label,
    partitions_up_to,
    symplectic_aut_order,
    symplectic_aut_order_brute,
    symplectic_support,
)

mp.dps = 30


def mp_phi(p, start=1):
    # prod_{i >= start} (1 - p^-i)
    return float(nprod(lambda i: 1 - power(p, -i), [start, mp.inf]))


def mp_delaunay_tailprod(p, r):
    # prod_{i >= r+1} (1 - p^(1-2i))
    return float(nprod(lambda i: 1 - power(p, 1 - 2 * i), [r + 1, mp.inf]))


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
