import pytest

from perfdist.arith import is_prime
from perfdist.decider import check_candidate
from perfdist.mersenne import classify, lucas_lehmer, small_factor

from oracles import MERSENNE_EXPONENTS_TO_31, trial_division_is_prime


def test_lucas_lehmer_examples():
    assert lucas_lehmer(7) == "prime"
    assert lucas_lehmer(11) == "composite"
    assert (2**11 - 1) == 23 * 89
    assert lucas_lehmer(3) == "prime"


def test_lucas_lehmer_matches_trial_division_up_to_31():
    for p in range(3, 32):
        if is_prime(p) != "prime":
            continue
        expected = trial_division_is_prime(2**p - 1)
        assert (lucas_lehmer(p) == "prime") == expected, p
        assert (p in MERSENNE_EXPONENTS_TO_31) == expected


def test_lucas_lehmer_rejects_bad_exponents():
    with pytest.raises(ValueError):
        lucas_lehmer(2)
    with pytest.raises(ValueError):
        lucas_lehmer(9)
    with pytest.raises(ValueError):
        lucas_lehmer(1)
    with pytest.raises(ValueError):
        lucas_lehmer(10009)  # the next prime above the cap


def test_classify():
    assert classify(2) == "prime"
    assert classify(11) == "composite"
    assert classify(13) == "prime"
    assert classify(10009) == "untested"
    with pytest.raises(ValueError):
        classify(9)


# Every p <= 10007 with 2^p - 1 prime, as published by GIMPS.
PUBLISHED_MERSENNE_EXPONENTS = (2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127, 521, 607, 1279,
                                2203, 2281, 3217, 4253, 4423, 9689, 9941)


def test_small_factor_finds_nothing_on_mersenne_primes():
    for p in PUBLISHED_MERSENNE_EXPONENTS[1:]:  # odd exponents only
        assert small_factor(p) is None, p
    for bad in (2, 9, 1):
        with pytest.raises(ValueError):
            small_factor(bad)


def test_classify_does_not_count_a_prime_as_its_own_factor():
    # without the q^2 <= 2^p - 1 stop, q = 7 and q = 31 would be "found"
    assert classify(3) == classify(5) == "prime"


def test_classify_agrees_with_lucas_lehmer_below_300():
    for p in range(3, 300):
        if is_prime(p) != "prime":
            continue
        assert classify(p) == lucas_lehmer(p), p
        q = small_factor(p)
        if q is not None:
            assert 1 < q < (1 << p) - 1 and pow(2, p, q) == 1, p
            assert lucas_lehmer(p) == "composite", p


def test_small_factor_on_benchmark_exponents():
    expected = {4421: None, 4999: 209959, 7499: 99121783, 9931: None, 10007: 240169}
    assert {p: small_factor(p) for p in expected} == expected


def test_check_candidate_skips_lucas_lehmer_when_a_factor_exists():
    lucas_lehmer.cache_clear()
    c = check_candidate(10007, 3)
    assert (c.mersenne_status, c.mersenne_factor, c.outcome) == ("composite", 240169, "eliminated")
    assert lucas_lehmer.cache_info().misses == 0
