import random
from math import gcd

import pytest

from perfdist import arith
from perfdist.arith import (
    DETERMINISTIC_PRIMALITY_BOUND,
    FactorBudgetError,
    Factorization,
    factorize,
    is_perfect,
    is_prime,
    is_squarefree,
    order_of_two,
    sigma,
    squarefree_divisors,
    triangular_index,
    v2,
)

from oracles import divisor_sum_naive, prime_sieve, sigma_table, trial_division_is_prime

# two primes (both 1 mod 4) just above the trial-division bound 10^6;
# their product resists a crippled rho budget, which is how "unknown"
# paths get exercised
HARD_P, HARD_Q = 1_000_033, 1_000_037
TINY_BUDGET = 1


def test_v2():
    assert v2(28) == 2
    assert v2(2**5 - 6) == 1
    assert v2(7) == 0
    assert v2(-8) == 3
    with pytest.raises(ValueError):
        v2(0)
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(1, 10**9)
        e = 0
        m = n
        while m % 2 == 0:
            e += 1
            m //= 2
        assert v2(n) == e


def test_is_prime_examples():
    assert is_prime(7) == "prime"
    assert is_prime(2047) == "composite"  # 23 * 89
    assert 2047 == 23 * 89
    assert is_prime(1) == "composite"
    assert is_prime(0) == "composite"
    assert is_prime(-7) == "composite"
    assert is_prime(2) == "prime"


def test_is_prime_agrees_with_trial_division():
    sieve = prime_sieve(1_000_000)
    for n in range(1_000_001):
        assert (is_prime(n) == "prime") == bool(sieve[n]), n


def test_is_prime_strong_pseudoprime_boundaries():
    # classic strong pseudoprimes sit exactly on the witness-ladder rungs
    for n in (2047, 1373653, 25326001, 3215031751, 3825123056546413051):
        assert is_prime(n) == "composite", n
    for n in (2053, 1373677, 3215031767, 2**61 - 1):
        assert is_prime(n) == "prime", n


def test_is_prime_large_inputs():
    assert DETERMINISTIC_PRIMALITY_BOUND > 2**64
    m89 = 2**89 - 1  # Mersenne prime, above the deterministic range
    assert is_prime(m89) == "probably_prime"
    assert is_prime(2**101 - 1) == "composite"
    # determinism of the probable-prime path
    assert is_prime(m89) == is_prime(m89)


def test_factorize_examples():
    f = factorize(8125)
    assert f.factors == ((5, 4), (13, 1)) and f.complete
    assert factorize(22).factors == ((2, 1), (11, 1))
    f1 = factorize(1)
    assert f1.factors == () and f1.complete and f1.cofactor == 1
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_budget_exhaustion():
    n = HARD_P * HARD_Q
    f = factorize(n, TINY_BUDGET)
    assert not f.complete
    assert f.cofactor == n
    full = factorize(n)
    assert full.complete and full.factors == ((HARD_P, 1), (HARD_Q, 1))
    # a budget below 1 is an error, not an exhausted budget, at every n
    for bad in (0, -5):
        for m in (1, 12, n):
            with pytest.raises(ValueError):
                factorize(m, bad)


def _full_wheel(n: int, monkeypatch) -> tuple[dict, int, bool]:
    # trial division with the prime-cofactor exit switched off
    with monkeypatch.context() as m:
        m.setattr(arith, "is_prime", lambda _: "composite")
        return arith._trial_divide(n)


def test_trial_division_early_exit_matches_full_wheel(monkeypatch):
    # the exit needs a cofactor above bound^2, so the bound is cut to 1000; the bound
    # is not part of factorize's cache key, so the cache is cleared before and after
    monkeypatch.setattr(arith, "TRIAL_DIVISION_BOUND", 1000)
    factorize.cache_clear()
    big = 10**30 + 57  # a probable prime
    cases = {
        "large prime times small primes": (big * 2**5 * 3 * 7**2 * 997,
                                           {2: 5, 3: 1, 7: 2, 997: 1, big: 1}),
        "prime power above bound^2": (997**7, {997: 7}),
        "prime power times a large prime": (991**3 * big, {991: 3, big: 1}),
        "two primes near the bound": (997 * 1009, {997: 1, 1009: 1}),
        "two primes above the bound": (1009 * 1013, {1009: 1, 1013: 1}),
        "composite cofactor": (5 * 1009 * 1013 * 1019, {5: 1, 1009: 1, 1013: 1, 1019: 1}),
        "composite cofactor with a large prime": (3 * 7 * 1013 * big,
                                                  {3: 1, 7: 1, 1013: 1, big: 1}),
    }
    # with the bound at 1000 the wheel never tries 1009, so factorize finds it by rho
    assert arith._trial_divide(1009 * 1013) == ({}, 1009 * 1013, False)
    try:
        for name, (n, expected) in cases.items():
            found, rest, rest_is_prime = arith._trial_divide(n)
            assert (found, rest) == _full_wheel(n, monkeypatch)[:2], name
            assert rest_is_prime == (rest == big), name
            # factorize goes on from (found, rest) and the flag alone, so its result is the same too
            f = factorize(n)
            assert f.complete and dict(f.factors) == expected, name
    finally:
        factorize.cache_clear()


def test_trial_division_stops_at_a_prime_cofactor(monkeypatch):
    big = 10**30 + 57
    asked = []
    said = {}  # verdicts the spy reports in place of is_prime's

    def spy(n):
        asked.append(n)
        return said.get(n) or is_prime(n)

    monkeypatch.setattr(arith, "is_prime", spy)
    # checked once after 2 and 3 are stripped: the wheel never starts
    assert arith._trial_divide(12 * big) == ({2: 2, 3: 1}, big, True)
    assert asked == [big]
    # any verdict but "composite" stops the wheel, shown here by one that
    # leaves the factor 1009 unfound
    for verdict in ("prime", "probably_prime"):
        said[1009 * big] = verdict
        assert arith._trial_divide(1009 * big) == ({}, 1009 * big, True)
        assert arith._trial_divide(5 * 1009 * big) == ({5: 1}, 1009 * big, True)
    # checked after each division, and not while the cofactor is below bound^2
    asked.clear()
    assert arith._trial_divide(5**3 * 7 * big) == ({5: 3, 7: 1}, big, True)
    assert asked == [5**3 * 7 * big, 5**2 * 7 * big, 5 * 7 * big, 7 * big, big]
    asked.clear()
    assert arith._trial_divide(5**3 * 1009) == ({5: 3}, 1009, False)
    assert asked == []


def test_factorize_tests_a_prime_cofactor_once(monkeypatch):
    big = 10**30 + 57
    asked = []

    def spy(n):
        asked.append(n)
        return is_prime(n)

    monkeypatch.setattr(arith, "is_prime", spy)
    factorize.cache_clear()
    f = factorize(12 * big)
    assert f.complete and f.factors == ((2, 2), (3, 1), (big, 1))
    assert asked.count(big) == 1
    # a cofactor the wheel leaves below bound^2 is still tested by factorize
    asked.clear()
    assert factorize(5**3 * 1009).factors == ((5, 3), (1009, 1))
    assert asked == [1009]


def test_factorize_random_reconstruction():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randrange(1, 10**10)
        f = factorize(n)
        prod = f.cofactor
        for p, e in f.factors:
            prod *= p**e
            assert trial_division_is_prime(p) or p > 10**6
        assert prod == n
        assert f.complete == (f.cofactor == 1)


def test_factorization_invariants_enforced():
    with pytest.raises(ValueError):
        Factorization(12, ((3, 1), (2, 2)), True)  # primes out of order
    with pytest.raises(ValueError):
        Factorization(12, ((2, 3),), True)  # product does not match value
    with pytest.raises(ValueError):
        Factorization(10, ((2, 1), (3, 1)), False)  # 6 does not divide 10
    Factorization(12, ((2, 2), (3, 1)), True)
    assert Factorization(12, ((2, 2),), False).cofactor == 3


def test_order_of_two():
    # 2^k - 1 has order exactly k; 999983 is prime, 3 * 5^3 * 7^2 mixes prime powers
    for k in range(1, 21):
        assert order_of_two((1 << k) - 1) == k
    for m in (999983, 3 * 5**3 * 7**2):
        k, v = 1, 2 % m
        while v != 1:
            k, v = k + 1, v * 2 % m
        assert order_of_two(m) == k, m
    for bad in (0, -3, 2, 12):
        with pytest.raises(ValueError):
            order_of_two(bad)
    with pytest.raises(FactorBudgetError):
        order_of_two(HARD_P * HARD_Q, TINY_BUDGET)


def test_sigma_examples():
    assert sigma(factorize(6)) == 12
    assert sigma(factorize(9)) == 13
    assert divisor_sum_naive(8125) == 10934
    assert sigma(factorize(8125)) == 10934


def test_sigma_requires_complete_factorization():
    f = factorize(HARD_P * HARD_Q, TINY_BUDGET)
    with pytest.raises(ValueError):
        sigma(f)


def test_sigma_matches_bruteforce_small():
    table = sigma_table(3000)
    for n in range(1, 3001):
        assert sigma(factorize(n)) == table[n]


def test_sigma_multiplicative_on_coprime_pairs():
    rng = random.Random(13)
    done = 0
    while done < 300:
        a = rng.randrange(2, 10**4)
        b = rng.randrange(2, 10**4)
        if gcd(a, b) != 1:
            continue
        assert sigma(factorize(a * b)) == sigma(factorize(a)) * sigma(factorize(b))
        done += 1


def test_is_perfect():
    assert is_perfect(28) == "perfect"
    assert is_perfect(6) == "perfect"
    assert is_perfect(25) == "not_perfect"
    assert is_perfect(8125) == "not_perfect"
    assert is_perfect(1) == "not_perfect"
    assert is_perfect(HARD_P * HARD_Q, TINY_BUDGET) == "unknown"
    with pytest.raises(ValueError):
        is_perfect(0)


def test_triangular_index():
    assert triangular_index(3) == 3
    assert triangular_index(15) == 6
    assert triangular_index(4) is None
    assert triangular_index(1) == 2
    for b in range(2, 300):
        assert triangular_index(b * (b - 1) // 2) == b
    with pytest.raises(ValueError):
        triangular_index(0)


def test_squarefree_divisors():
    assert squarefree_divisors(10) == [1, 2, 5, 10]
    assert squarefree_divisors(22) == [1, 2, 11, 22]
    assert squarefree_divisors(1) == [1]
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randrange(1, 10**6)
        divs = squarefree_divisors(n)
        omega = len(factorize(n).factors)
        assert len(divs) == 2**omega
        assert divs == sorted(set(divs))
        for d in divs:
            assert n % d == 0 and is_squarefree(d)


def test_squarefree_divisors_budget_error():
    with pytest.raises(FactorBudgetError):
        squarefree_divisors(HARD_P * HARD_Q, TINY_BUDGET)

