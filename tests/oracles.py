"""Independent brute-force oracles.

Everything here avoids the code paths under test: divisor sums come from
divisor enumeration, primality from trial division, and equation solutions
from scanning x and recognizing powers of two bitwise.
"""

from math import isqrt

# The Mersenne exponents up to 31, from the literature: 2**p - 1 is prime
# for exactly these p <= 31.
MERSENNE_EXPONENTS_TO_31 = (2, 3, 5, 7, 13, 17, 19, 31)


def divisor_sum_naive(n: int) -> int:
    """Sum of divisors by paired enumeration up to sqrt(n)."""
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d
            other = n // d
            if other != d:
                total += other
        d += 1
    return total


def sigma_table(limit: int) -> list[int]:
    """sigma(n) for 0 <= n <= limit by sieve accumulation."""
    table = [0] * (limit + 1)
    for d in range(1, limit + 1):
        for m in range(d, limit + 1, d):
            table[m] += d
    return table


def prime_sieve(limit: int) -> bytearray:
    """sieve[n] == 1 iff n is prime, for n <= limit."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p:limit + 1:p] = b"\x00" * len(range(p * p, limit + 1, p))
    return sieve


def smallest_prime_factors(limit: int) -> list[int]:
    """spf[n] is the least prime factor of n, for 2 <= n <= limit (spf[0] = spf[1] = 0)."""
    spf = list(range(limit + 1))
    spf[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


def prime_divisors_naive(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, increasing, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def brute_rn_solutions(d: int, c: int, n_max: int) -> list[tuple[int, int]]:
    """All (x, n) with x >= 1, 0 <= n <= n_max, d*x**2 + c == 2**n, by scanning x."""
    hi = (1 << n_max) - c
    if hi < d:
        return []
    out = []
    for x in range(1, isqrt(hi // d) + 2):
        t = d * x * x + c
        if t >= 1 and t & (t - 1) == 0:
            n = t.bit_length() - 1
            if n <= n_max:
                out.append((x, n))
    return out


def brute_rn_solutions_fast(d: int, c: int, n_max: int = 40) -> list[tuple[int, int]]:
    """Vectorized variant of brute_rn_solutions for bulk acceptance runs."""
    import numpy as np

    hi = (1 << n_max) - c
    if hi < d:
        return []
    x_hi = isqrt(hi // d) + 1
    xs = np.arange(1, x_hi + 1, dtype=np.int64)
    t = d * xs * xs + c
    mask = (t > 0) & ((t & (t - 1)) == 0)
    out = []
    for x, tv in zip(xs[mask].tolist(), t[mask].tolist()):
        n = int(tv).bit_length() - 1
        if n <= n_max:
            out.append((int(x), n))
    return out
