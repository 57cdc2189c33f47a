import math
from random import Random

import pytest
from hypothesis import given, strategies as st

from altrank.primes import factorize, iroot, is_prime, primes_up_to


def test_primes_up_to_small():
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_primes_up_to_density():
    # pi(10^4) = 1229 is classical
    assert len(primes_up_to(10**4)) == 1229


def test_is_prime_agrees_with_sieve():
    table = set(primes_up_to(2000))
    for n in range(2000):
        assert is_prime(n) == (n in table)


def test_is_prime_large_known():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287
    assert is_prime(10**18 + 9)
    # strong pseudoprime to the twelve bases 2..37 (below psi_13)
    assert not is_prime(318665857834031151167461)  # 399165290221 * 798330580441
    # psi_13 = 1287836182261 * 2575672364521 is a strong pseudoprime to
    # all thirteen bases, so is_prime refuses it and every larger n
    psi_13 = 3317044064679887385961981
    assert not is_prime(psi_13 - 1)
    for n in (psi_13, psi_13 + 1, 2**89 - 1):
        with pytest.raises(ValueError, match=f"exact only below {psi_13}, got {n}$"):
            is_prime(n)


@pytest.mark.parametrize("n", [1.0, 7.0, 2.5], ids=["one", "prime-valued", "fraction"])
def test_is_prime_refuses_a_float_by_name(n):
    # refused, not rounded: is_prime(1.0) was False and is_prime(7.0) True
    with pytest.raises(TypeError) as refused:
        is_prime(n)
    assert str(refused.value) == f"n must be an int, got {n!r}"


def test_factorize_roundtrip_random():
    rng = Random(1)
    for _ in range(200):
        n = rng.randint(1, 10**9)
        fac = factorize(n)
        prod = 1
        for p, e in fac.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_factorize_semiprime():
    p, q = 1000003, 1000033
    assert factorize(p * q) == {p: 1, q: 1}


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)


@given(st.integers(min_value=0, max_value=10**500), st.integers(min_value=1, max_value=40))
def test_iroot_is_floor_root(n, k):
    r = iroot(n, k)
    assert r**k <= n < (r + 1) ** k


def test_iroot_exact_powers():
    for k in range(1, 8):
        for b in (0, 1, 2, 3, 10, 12345):
            assert iroot(b**k, k) == b
            if b**k > 0:
                assert iroot(b**k - 1, k) == b - 1


def test_iroot_huge_no_float_loss():
    # would fail if routed through floating point
    n = (10**20 + 39) ** 3
    assert iroot(n, 3) == 10**20 + 39
    assert iroot(n - 1, 3) == 10**20 + 38
    # beyond the float range, and roots far above 2**50 where a float
    # seed would land millions of units off
    assert iroot(10**420, 3) == 10**140
    assert iroot(10**420 - 1, 3) == 10**140 - 1
    for n, k in ((10**400, 3), (10**400, 828), (10**70, 3), (10**70 + 1, 5)):
        r = iroot(n, k)
        assert r**k <= n < (r + 1) ** k


def test_iroot_rejects_negative():
    with pytest.raises(ValueError):
        iroot(-1, 2)


@pytest.mark.parametrize("n,k", [(5, 0), (5, -1), (0, 0)])
def test_iroot_rejects_k_below_one(n, k):
    # a k-th root needs k >= 1; k = 0 would divide by zero
    with pytest.raises(ValueError, match=f"k >= 1, got {k}"):
        iroot(n, k)
