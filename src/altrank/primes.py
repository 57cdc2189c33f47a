"""Small deterministic number theory helpers shared across the package.

Everything here works on exact Python integers.  Primality is a
deterministic Miller-Rabin below PSI_13 ~ 3.3e24 (larger n are refused),
factorization is trial division plus Brent's cycle method.  Factors of
PSI_13 or more are strong probable primes to the same 13 bases.
"""

from __future__ import annotations

import math

# the first 13 prime bases are deterministic below PSI_13 (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    """Deterministic primality test; n >= PSI_13 raises ValueError."""
    if n >= PSI_13:
        raise ValueError(f"is_prime is exact only below {PSI_13}, got {n}")
    return _probable_prime(n)


def _probable_prime(n: int) -> bool:
    """Trial division by _SMALL_PRIMES, then Miller-Rabin to every base
    in _MR_BASES: exact for n < PSI_13, a strong probable prime above."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(n: int) -> list[int]:
    """All primes <= n by a plain sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(2, n + 1) if sieve[i]]


def _brent(n: int) -> int:
    """One nontrivial factor of composite odd n."""
    if n % 2 == 0:
        return 2
    seed = 1
    while True:
        y, c, m = seed, seed, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        seed += 1


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {p: exponent}."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _brent(m)
        stack.append(d)
        stack.append(m // d)
    return dict(sorted(out.items()))


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0, exact."""
    if n < 0:
        raise ValueError("iroot expects n >= 0")
    if n == 0:
        return 0
    if k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
    # integer Newton from 2**ceil(bits/k) > root decreases to the floor
    x = 1 << -(-n.bit_length() // k)
    while (y := ((k - 1) * x + n // x ** (k - 1)) // k) < x:
        x = y
    return x
