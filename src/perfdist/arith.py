"""Arbitrary-precision integer primitives.

2-adic valuation, primality, budgeted factorization, divisor sums, and
the perfect/triangular-number predicates everything else is built on.

Factoring has one path and one setting: the primes below 100 are divided
out, and Brent rho splits whatever is left within `budget` iterations, at
least 1 (DEFAULT_BUDGET unless given).

Primality is deterministic for n < 318665857834031151167461 (the strong
pseudoprime bound for the first twelve prime bases, comfortably above
2**64).  Larger inputs get MILLER_RABIN_ROUNDS extra Miller-Rabin rounds
with witnesses derived deterministically from n, and a passing verdict is
reported as "probably_prime" (error probability <= 4**-rounds).
Composite verdicts are always certain.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import gcd, isqrt
from typing import NamedTuple


class FactorBudgetError(RuntimeError):
    """Raised when an operation needs a complete factorization but the budget ran out."""


# A NamedTuple cannot define __new__, so a record that checks its fields
# subclasses _Checked and a bare field tuple, and checks them there.
class _Checked:
    __slots__ = ()

    # NamedTuple's own _make, which _replace builds through, would skip __new__
    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


MILLER_RABIN_ROUNDS = 40
DEFAULT_BUDGET = 10_000_000  # Brent-rho iterations per factorization


class _Factorization(NamedTuple):
    value: int
    factors: tuple[tuple[int, int], ...]
    complete: bool


class Factorization(_Checked, _Factorization):
    """Multiset of (prime, exponent) pairs for `value`, plus a completeness flag.

    When complete is False the unfactored part is exposed as `cofactor`
    (a composite the budget could not split).  Primes are strictly
    increasing; the product of prime powers times the cofactor is `value`.
    """

    __slots__ = ()

    def __new__(cls, value: int, factors: tuple[tuple[int, int], ...], complete: bool):
        if value < 1:
            raise ValueError("value must be >= 1")
        prev = 1
        prod = 1
        for p, e in factors:
            if p <= prev or e < 1:
                raise ValueError("factors must be strictly increasing primes with exponent >= 1")
            prev = p
            prod *= p**e
        if value % prod != 0:
            raise ValueError("factor product does not divide value")
        if complete and prod != value:
            raise ValueError("complete factorization must account for the whole value")
        return super().__new__(cls, value, factors, complete)

    @property
    def cofactor(self) -> int:
        prod = 1
        for p, e in self.factors:
            prod *= p**e
        return self.value // prod


def v2(n: int) -> int:
    """2-adic valuation: the largest e with 2**e dividing n. n must be nonzero."""
    if n == 0:
        raise ValueError("v2(0) is undefined")
    return (n & -n).bit_length() - 1


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
                 73, 79, 83, 89, 97)
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)

# Strong-pseudoprime thresholds: testing against the listed bases is a proof
# of primality for n below the bound.
_MR_LADDER = (
    (2_047, (2,)),
    (1_373_653, (2, 3)),
    (9_080_191, (31, 73)),
    (25_326_001, (2, 3, 5)),
    (3_215_031_751, (2, 3, 5, 7)),
    (4_759_123_141, (2, 7, 61)),
    (1_122_004_669_633, (2, 13, 23, 1662803)),
    (2_152_302_898_747, (2, 3, 5, 7, 11)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318_665_857_834_031_151_167_461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
)

DETERMINISTIC_PRIMALITY_BOUND = _MR_LADDER[-1][0]


def _mr_witness_says_composite(n: int, a: int, d: int, r: int) -> bool:
    # n - 1 = d * 2**r with d odd
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int) -> str:
    """Classify n as "prime", "composite", or "probably_prime".

    Deterministic below DETERMINISTIC_PRIMALITY_BOUND; composite answers
    are certain at every size.
    """
    if n <= 97:
        return "prime" if n in _SMALL_PRIME_SET else "composite"
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return "composite"
    if n < _SMALL_PRIMES[-1] ** 2:
        return "prime"

    d = n - 1
    r = v2(d)
    d >>= r

    if n < DETERMINISTIC_PRIMALITY_BOUND:
        for bound, bases in _MR_LADDER:
            if n < bound:
                for a in bases:
                    if _mr_witness_says_composite(n, a, d, r):
                        return "composite"
                return "prime"

    # Witnesses drawn from a PRNG seeded by n keep verdicts reproducible.
    rng = random.Random(n * 2654435761 + 0x9E3779B9)
    for _ in range(MILLER_RABIN_ROUNDS):
        a = rng.randrange(2, n - 1)
        if _mr_witness_says_composite(n, a, d, r):
            return "composite"
    return "probably_prime"


def _brent_rho(n: int, budget: list[int]) -> int | None:
    """One Brent-cycle factor attempt on odd composite n; a nontrivial divisor or None.

    Decrements budget[0] by the number of polynomial iterations spent.
    Fully deterministic: the polynomial constant walks 1, 2, 3, ...
    """
    for c in range(1, 32):
        if budget[0] <= 0:
            return None
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            budget[0] -= r
            k = 0
            while k < r and g == 1:
                ys = y
                steps = min(128, r - k)
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                budget[0] -= steps
                g = gcd(q, n)
                k += steps
            if budget[0] <= 0 and g == 1:
                return None
            r *= 2
        if g != n:
            return g
        # Backtrack one step at a time after a lumped gcd collapsed to n.
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            budget[0] -= 1
            g = gcd(abs(x - ys), n)
            if budget[0] <= 0 and g == 1:
                return None
        if g != n:
            return g
        # cycle degenerated for this c; try the next constant
    return None


@lru_cache(maxsize=512)
def factorize(n: int, budget: int = DEFAULT_BUDGET) -> Factorization:
    """Factor n: divide out the primes below 100, then split the rest by Brent rho.

    Rho works within `budget` iterations; exhaustion yields complete=False,
    never an error.
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    if budget < 1:
        raise ValueError(f"the factor budget must be >= 1, got {budget}")

    found: dict[int, int] = {}
    rest = n
    for p in _SMALL_PRIMES:
        while rest % p == 0:
            found[p] = found.get(p, 0) + 1
            rest //= p

    left = [budget]
    unfactored = 1
    pending = [rest] if rest > 1 else []
    while pending:
        m = pending.pop()
        if is_prime(m) != "composite":
            found[m] = found.get(m, 0) + 1
            continue
        f = _brent_rho(m, left)
        if f is None or f in (1, m):
            unfactored *= m
            continue
        pending.append(f)
        pending.append(m // f)

    factors = tuple(sorted(found.items()))
    return Factorization(n, factors, unfactored == 1)


def sigma(f: Factorization) -> int:
    """Sum of divisors from a complete factorization."""
    if not f.complete:
        raise ValueError("sigma requires a complete factorization")
    total = 1
    for p, e in f.factors:
        total *= (p ** (e + 1) - 1) // (p - 1)
    return total


def is_perfect(n: int, budget: int = DEFAULT_BUDGET) -> str:
    """"perfect" iff the divisor sum of n equals 2n; "unknown" only on budget exhaustion."""
    if n < 1:
        raise ValueError("is_perfect requires n >= 1")
    f = factorize(n, budget)
    if not f.complete:
        return "unknown"
    return "perfect" if sigma(f) == 2 * n else "not_perfect"


def triangular_index(delta: int) -> int | None:
    """The b >= 2 with b*(b-1)//2 == delta, or None if delta is not triangular."""
    if delta < 1:
        raise ValueError("triangular_index requires delta >= 1")
    b = (1 + isqrt(8 * delta + 1)) // 2
    return b if b * (b - 1) // 2 == delta else None


def squarefree_divisors(n: int, budget: int = DEFAULT_BUDGET) -> list[int]:
    """All squarefree divisors of n, increasing. Needs a complete factorization."""
    f = factorize(n, budget)
    if not f.complete:
        raise FactorBudgetError(f"cannot enumerate squarefree divisors of {n}: factorization incomplete")
    divisors = [1]
    for p, _ in f.factors:
        divisors += [d * p for d in divisors]
    return sorted(divisors)


def is_squarefree(n: int, budget: int = DEFAULT_BUDGET) -> bool:
    """True when no prime square divides n. Needs a complete factorization."""
    if n < 1:
        raise ValueError("is_squarefree requires n >= 1")
    f = factorize(n, budget)
    if not f.complete:
        raise FactorBudgetError(f"cannot certify {n} squarefree: factorization incomplete")
    return all(e == 1 for _, e in f.factors)

