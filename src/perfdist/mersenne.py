"""Mersenne-prime testing and even-perfect-number construction.

Every even perfect number is 2**(p-1) * (2**p - 1) with 2**p - 1 prime,
so deciding "is there an even perfect number with exponent p" reduces to
the Lucas-Lehmer test.
"""

from __future__ import annotations

from functools import lru_cache

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


def classify(p: int) -> str:
    """Status of 2**p - 1 for prime p: "prime", "composite", or "untested" above the cap."""
    if is_prime(p) != "prime":
        raise ValueError(f"Mersenne exponents must be prime, got {p}")
    if p == 2:
        return "prime"  # 2**2 - 1 = 3
    if p > DEFAULT_EXPONENT_CAP:
        return "untested"
    return lucas_lehmer(p)


def even_perfect(p: int) -> int:
    """The even perfect number 2**(p-1) * (2**p - 1); classifies 2**p - 1 first."""
    status = classify(p)
    if status != "prime":
        raise ValueError(f"2**{p} - 1 is {status}; no even perfect number at this exponent")
    return (1 << (p - 1)) * ((1 << p) - 1)
