import pytest

from perfdist.arith import is_perfect, is_prime
from perfdist.mersenne import (
    KNOWN_MERSENNE_EXPONENTS,
    classify,
    even_perfect,
    lucas_lehmer,
)

from oracles import trial_division_is_prime


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
        assert (p in KNOWN_MERSENNE_EXPONENTS) == expected
    assert tuple(sorted(KNOWN_MERSENNE_EXPONENTS)) == (2, 3, 5, 7, 13, 17, 19, 31)


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


def test_even_perfect_examples():
    assert even_perfect(2) == 6
    assert even_perfect(3) == 28
    assert even_perfect(7) == 8128


def test_even_perfect_requires_mersenne_prime():
    with pytest.raises(ValueError):
        even_perfect(11)


def test_even_perfect_values_are_perfect():
    for p in (2, 3, 5, 7, 13, 17, 19):
        assert is_perfect(even_perfect(p)) == "perfect"


def test_even_perfect_mod_4_split():
    # every even perfect number is 0 mod 4 except 6
    assert even_perfect(2) % 4 == 2
    for p in (3, 5, 7, 13):
        assert even_perfect(p) % 4 == 0
