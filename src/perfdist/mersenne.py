"""Mersenne-prime testing and even-perfect-number construction.

Every even perfect number is 2**(p-1) * (2**p - 1) with 2**p - 1 prime,
so deciding "is there an even perfect number with exponent p" reduces to
a primality test of 2**p - 1: a search for a small factor first, whose
factor is a certificate anyone can replay, then the Lucas-Lehmer test.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

from .arith import is_prime

# Mersenne exponents up to 31: an oracle table for cross-checks only; no
# verdict reads it, every status comes from running the test itself.
KNOWN_MERSENNE_EXPONENTS = (2, 3, 5, 7, 13, 17, 19, 31)

# Lucas-Lehmer on 2**p - 1 costs p-2 squarings of p-bit numbers; the cap
# keeps a single call bounded without FFT multiplication.
DEFAULT_EXPONENT_CAP = 10007


def _mod_mersenne(x: int, p: int, m: int) -> int:
    # reduce a non-negative x modulo m = 2**p - 1 by folding high bits
    while x > m:
        x = (x & m) + (x >> p)
    return 0 if x == m else x


@lru_cache(maxsize=None)
def lucas_lehmer(p: int) -> str:
    """Lucas-Lehmer test: "prime" iff 2**p - 1 is prime, for odd prime 3 <= p <= the cap.

    Iterates s <- s**2 - 2 modulo 2**p - 1 from s = 4; 2**p - 1 is prime
    exactly when the (p-2)-th iterate vanishes.
    """
    if p == 2:
        raise ValueError("p = 2 is handled by the caller as the special value 3")
    if p < 3 or is_prime(p) != "prime":
        raise ValueError(f"lucas_lehmer requires an odd prime exponent, got {p}")
    if p > DEFAULT_EXPONENT_CAP:
        raise ValueError(f"exponent {p} exceeds the cap {DEFAULT_EXPONENT_CAP}")
    m = (1 << p) - 1
    s = 4
    for _ in range(p - 2):
        s = _mod_mersenne(s * s - 2 + m, p, m)
    return "prime" if s == 0 else "composite"


@lru_cache(maxsize=None)
def small_factor(p: int) -> int | None:
    """The least proper factor q = 2kp + 1 of 2**p - 1 with 1 <= k <= p, or None.

    Every prime factor of 2**p - 1, for an odd prime p, is 2kp + 1 (Euler)
    and is +-1 mod 8 (2 is a square mod it, Fermat), so only those q are
    tried.  Neither 3 nor 5 divides 2**p - 1, so q divisible by either is
    skipped before the pow.  The search stops at k = p (q <= 2p**2 + 1), a
    fixed rule, and at q**2 <= 2**p - 1, so that a prime 2**p - 1 (p = 3,
    5, ...) never reports itself.  The least such q is prime: each prime
    factor of a composite one would pass the same tests and come first.
    """
    if p < 3 or is_prime(p) != "prime":
        raise ValueError(f"small_factor requires an odd prime exponent, got {p}")
    q_max = min(2 * p * p + 1, isqrt((1 << p) - 1))
    for q in range(2 * p + 1, q_max + 1, 2 * p):
        if q & 7 in (1, 7) and q % 3 and q % 5 and pow(2, p, q) == 1:
            return q
    return None


def classify(p: int) -> str:
    """Status of 2**p - 1 for prime p: "prime", "composite", or "untested" above the cap.

    Up to the cap, a factor from `small_factor` settles "composite";
    only when it finds none does `lucas_lehmer` run.
    """
    if is_prime(p) != "prime":
        raise ValueError(f"Mersenne exponents must be prime, got {p}")
    if p == 2:
        return "prime"  # 2**2 - 1 = 3
    if p > DEFAULT_EXPONENT_CAP:
        return "untested"
    if small_factor(p) is not None:
        return "composite"
    return lucas_lehmer(p)


def even_perfect(p: int) -> int:
    """The even perfect number 2**(p-1) * (2**p - 1); classifies 2**p - 1 first."""
    status = classify(p)
    if status != "prime":
        raise ValueError(f"2**{p} - 1 is {status}; no even perfect number at this exponent")
    return (1 << (p - 1)) * ((1 << p) - 1)
