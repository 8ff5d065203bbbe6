import copy
import itertools
import pickle
import random
import sys
from functools import lru_cache
from math import gcd, isqrt, lcm

import pytest

from perfdist import arith, rn
from perfdist.arith import is_prime, is_squarefree, order_of_two
from perfdist.rn import (
    BUILTIN_TABLE,
    DEFAULT_MODULI,
    RNEquation,
    RNSolution,
    SieveReport,
    analyze,
    direct_search,
    power_cycle,
    sieve,
    solution_at,
)

from oracles import brute_rn_solutions


def random_equations(seed, count, d_max=30, c_max=50):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randrange(1, d_max + 1)
        c = rng.randrange(-c_max, c_max + 1)
        if c == 0:
            continue
        try:
            out.append(RNEquation(d, c))
        except ValueError:
            continue  # d not squarefree
    return out


def test_equation_validation():
    with pytest.raises(ValueError):
        RNEquation(0, 3)
    with pytest.raises(ValueError):
        RNEquation(5, 0)
    with pytest.raises(ValueError):
        RNEquation(4, 3)
    with pytest.raises(ValueError):
        RNEquation(12, 3)
    assert RNEquation(10, -2).d == 10
    assert str(RNEquation(1, -5)) == "1*x^2 - 5 = 2^n"


def test_direct_search_examples():
    assert direct_search(RNEquation(5, 3), 0, 200) == [RNSolution(1, 3), RNSolution(5, 7)]
    assert direct_search(RNEquation(2, 6), 0, 100) == [RNSolution(1, 3)]
    assert direct_search(RNEquation(5, 3), 8, 100) == []
    assert brute_rn_solutions(5, 3, 25) == [(1, 3), (5, 7)]
    with pytest.raises(ValueError):
        direct_search(RNEquation(5, 3), 10, 5)


def test_direct_search_matches_bruteforce():
    for eq in random_equations(99, 150):
        got = [(s.x, s.n) for s in direct_search(eq, 0, 25)]
        assert got == brute_rn_solutions(eq.d, eq.c, 25), eq


def test_solution_at():
    assert solution_at(RNEquation(5, 3), 7) == RNSolution(5, 7)
    assert solution_at(RNEquation(5, 3), 6) is None
    assert solution_at(RNEquation(1, 8), 3) is None  # x = 0 is out of domain
    assert solution_at(RNEquation(1, -17), 2) is None  # negative right side
    # past 2^64 a quotient that is no square mod 47 or 53 is rejected before
    # isqrt: every planted solution is still found, x a multiple of 47 or 53
    # included, and random exponents agree with a plain isqrt
    rng = random.Random(71)
    planted = [(d, x, n) for d, x, n in
               ((rng.randrange(1, 200), rng.randrange(1 << rng.choice((0, 32, 500)), 1 << 1000)
                 * rng.choice((1, 47, 53, 2491)), rng.randrange(64, 2001)) for _ in range(600))
               if is_squarefree(d) and (1 << n) != d * x * x]
    assert len(planted) > 300 and sum(x >> 32 > 0 for _, x, _ in planted) > 200
    for d, x, n in planted:
        assert solution_at(RNEquation(d, (1 << n) - d * x * x), n) == RNSolution(x, n), (d, x, n)

    def reference(eq, n):
        t = (1 << n) - eq.c
        q, r = divmod(t, eq.d)
        return RNSolution(isqrt(q), n) if t > 0 and r == 0 and isqrt(q) ** 2 == q else None

    for d, x, n in planted:
        # near misses: d*(x^2 + k) + c = 2^n, mostly a non-square quotient
        eq = RNEquation(d, (1 << n) - d * (x * x + rng.randrange(1, 5000)))
        for m in (n, n - 1, n + 1, rng.randrange(0, 2001)):
            assert solution_at(eq, m) == reference(eq, m), (eq, m)


def test_power_cycle_matches_iteration():
    # the definition: iterate 2^n mod m until a value repeats
    for m in range(2, 5001):
        seen: dict[int, int] = {}
        v, i = 1 % m, 0
        while v not in seen:
            seen[v] = i
            v, i = v * 2 % m, i + 1
        assert power_cycle(m) == (seen[v], i - seen[v]), m


def test_power_cycle_reproduces_powers_of_two():
    for m in range(2, 65):
        threshold, period = power_cycle(m)
        for n in range(201):
            expected = pow(2, n, m)
            if n >= threshold:
                assert pow(2, threshold + (n - threshold) % period, m) == expected, m
        # threshold is minimal and period divides any repeat distance
        if threshold > 0:
            assert pow(2, threshold - 1, m) not in [
                pow(2, threshold + i, m) for i in range(period)
            ]


def test_power_cycle_agrees_with_order_of_two_near_the_modulus_bound():
    # the walk of 2^k against the factoring order_of_two, on moduli of up to
    # MAX_MODULUS where the walk is longest
    for m in (999983, 999999, 524287, 3 << 18, rn.MAX_MODULUS):
        t = (m & -m).bit_length() - 1
        assert power_cycle.__wrapped__(m) == (t, order_of_two(m >> t)), m
    assert power_cycle(524287) == (0, 19) and power_cycle(3 << 18) == (18, 2)


def test_modulus_tables_tell_an_odd_prime_by_its_count_of_squares():
    # an odd m is prime iff it has (m + 1)/2 squares, and only a prime's
    # tables name a least non-square for its square classes
    for m in range(2, 400):
        _, _, squares, _, non_square = rn._modulus_tables.__wrapped__(m)
        assert (non_square > 0) == (m % 2 == 1 and is_prime(m) == "prime"), m
        assert squares == {x * x % m for x in range(m)}, m
        if non_square:
            assert non_square not in squares and all(x in squares for x in range(non_square)), m


def test_sieve_start_up_factors_nothing(monkeypatch):
    # the periods, tables and plan come from walking powers of two, never from
    # a factorization: with every cache cleared and factoring forbidden, a
    # branch still runs through all 14 moduli and the lift to 27720
    eq = RNEquation(1, 7)  # checking d squarefree factors it, so before the ban
    forbidden = (arith.factorize, arith.order_of_two)

    def refuse(*args, **kwargs):
        raise AssertionError("the sieve start-up factored a number")

    for name, module in list(sys.modules.items()):
        if name == "perfdist" or name.startswith("perfdist."):
            for attr, value in list(vars(module).items()):
                if any(value is f for f in forbidden):
                    monkeypatch.setattr(module, attr, refuse)
    for cached in (power_cycle, rn._modulus_tables, rn._sieve_plan, rn._tile):
        cached.cache_clear()
    tables = _fresh_caches(monkeypatch)
    assert sorted(tables) == sorted(DEFAULT_MODULI) and not any(tables.values())
    for n_min in (0, 3):
        st = analyze(eq, n_min)
        assert st.status == "open" and st.open_mask
        # every modulus memoized a mask for the open branch, under d*m + c
        assert all(masks.get(m + 7 % m) for m, masks in tables.items())
        assert st.rule_trace[0]["emptied_at"] is None
    assert rn._sieve_plan()[0][6][2] > 1  # 17 lifts the mask from period 60


def test_sieve_known_obstructions():
    r = sieve(RNEquation(1, 6), 3, n_parity="odd")
    assert r.surviving_classes == ()
    assert (r.n_threshold, r.period) == (0, 2)

    r = sieve(RNEquation(1, -5), 8, n_min=3)
    assert r.surviving_classes == ()
    assert (r.n_threshold, r.period) == (3, 1)
    assert r.small_n_to_check == ()

    r = sieve(RNEquation(11, 6), 4, n_min=2)
    assert r.surviving_classes == ()

    # without the parity constraint the even class survives mod 3
    r = sieve(RNEquation(1, 6), 3)
    assert r.surviving_classes == (0,)


def test_sieve_small_n_listing():
    r = sieve(RNEquation(1, -5), 16, n_min=1)
    assert r.n_threshold == 4
    assert r.small_n_to_check == (1, 2, 3)
    r = sieve(RNEquation(1, -5), 16, n_min=1, n_parity="odd")
    assert r.small_n_to_check == (1, 3)
    with pytest.raises(ValueError, match="n_min"):
        sieve(RNEquation(1, -5), 8, n_min=-2)


def test_sieve_soundness_random():
    moduli = (3, 4, 5, 7, 8, 9, 11, 13, 16, 32)
    for eq in random_equations(7, 120):
        solutions = brute_rn_solutions(eq.d, eq.c, 25)
        for m in moduli:
            report = sieve(eq, m)
            for x, n in solutions:
                if n >= report.n_threshold:
                    assert n % report.period in report.surviving_classes, (eq, m, x, n)
            report_odd = sieve(eq, m, n_parity="odd")
            for x, n in solutions:
                if n >= report_odd.n_threshold and n % 2 == 1:
                    assert n % report_odd.period in report_odd.surviving_classes, (eq, m, x, n)


def _per_class_sieve(eq, m, n_min, n_parity):
    # reference: one pow(2, n0, m) per class, reachable set from every x mod m
    threshold, period = power_cycle(m)
    reachable = {(eq.d * (x * x) + eq.c) % m for x in range(m)}
    base = max(n_min, threshold)
    surviving = []
    for r in range(period):
        if n_parity == "odd" and period % 2 == 0 and r % 2 == 0:
            continue
        n0 = base + (r - base) % period
        if pow(2, n0, m) in reachable:
            surviving.append(r)
    small = tuple(n for n in range(n_min, threshold) if n_parity != "odd" or n % 2 == 1)
    return SieveReport(eq, m, n_min, n_parity, threshold, period, tuple(surviving), small)


def test_sieve_tables_match_per_class_powers():
    rng = random.Random(5)
    for eq in random_equations(13, 400, d_max=200, c_max=10**6):
        m = rng.randrange(2, 131)
        n_min = rng.randrange(0, 21)
        for parity in ("any", "odd"):
            assert sieve(eq, m, n_min, parity) == _per_class_sieve(eq, m, n_min, parity), \
                (eq, m, n_min, parity)


def test_builtin_table():
    assert list(BUILTIN_TABLE) == [(5, 3)]
    assert BUILTIN_TABLE[5, 3].solutions == (RNSolution(1, 3), RNSolution(5, 7))
    assert BUILTIN_TABLE.get((2, -2)) is None
    for (d, c), entry in BUILTIN_TABLE.items():
        assert (entry.d, entry.c) == (d, c) and entry.source
        # each listed pair solves the equation by substitution, and no other
        # solution has n <= 3000
        for x, n in entry.solutions:
            assert x >= 1 and n >= 0 and d * x * x + c == 1 << n, (d, c, x, n)
        assert direct_search(RNEquation(d, c), 0, 3000) == list(entry.solutions)


def test_set_bits_matches_the_bit_by_bit_reference():
    def reference(mask):
        return [i for i in range(mask.bit_length()) if mask >> i & 1]

    rng = random.Random(14)
    masks = [0] + [1 << i for i in (0, 1, 59, 60, 63, 64, 2000)]
    masks += [rng.getrandbits(bits) for bits in (1, 8, 60, 61, 64, 65, 2001) for _ in range(20)]
    # wider than one 2048-bit piece: around the piece boundary, and 27720-bit
    # masks full, with only the top bit, and with 228 bits set
    masks += [1 << 2047, 1 << 2048, (1 << 2049) - 1, rng.getrandbits(6000)]
    masks += [(1 << 27720) - 1, 1 << 27719, sum(1 << r for r in rng.sample(range(27720), 228))]
    # the 27720-bit class masks analyze keeps, and the 2001-bit masks of the
    # exponents an open branch searches
    width = rn.DEFAULT_N_MAX + 1
    for eq in [RNEquation(1, 7), RNEquation(2, 14), RNEquation(5, -16)] + \
            random_equations(14, 20, d_max=60, c_max=500):
        for n_min in (0, 7):
            st = analyze(eq, n_min)
            if st.status != "closed_complete":
                masks += [st.facts[1], st.facts[1] & ((1 << width) - 1)]
    assert any(m.bit_length() > 27000 for m in masks)
    for mask in masks:
        assert rn._set_bits(mask) == reference(mask), mask


def test_analyze_table_route():
    st = analyze(RNEquation(5, 3))
    assert st.status == "closed_complete"
    assert st.solutions == (RNSolution(1, 3), RNSolution(5, 7))
    assert st.rule_trace[0]["rule"] == "completeness_table"


# x^2 +- 1 = 2^m and 2x^2 +- 2 = 2^n each have one solution; the sieve
# closes every shape, and its finite checks find the solution whenever
# n_min and the parity admit it
ADJACENT_SHAPES = {(1, 1): RNSolution(1, 1), (1, -1): RNSolution(3, 3),
                   (2, 2): RNSolution(1, 2), (2, -2): RNSolution(3, 4)}


def test_adjacent_powers_patterns():
    for (d, c), solution in ADJACENT_SHAPES.items():
        st = analyze(RNEquation(d, c))
        assert st.status == "closed_finite_n", (d, c)
        assert st.solutions == (solution,), (d, c)


def test_adjacent_powers_sets_are_complete_small_scan():
    plus = {(x, m) for x in range(1, 2001) for m in range(26)
            if x * x + 1 == 1 << m}
    minus = {(x, m) for x in range(1, 2001) for m in range(26)
             if x * x - 1 == 1 << m}
    assert plus == {(1, 1)}
    assert minus == {(3, 3)}
    # no search up to n = 60 adds to the one solution of each shape
    for (d, c), solution in ADJACENT_SHAPES.items():
        assert direct_search(RNEquation(d, c), 0, 60) == [solution]
        assert d * solution.x * solution.x + c == 1 << solution.n


def test_analyze_adjacent_route():
    # from n_min = 3 on a prime n is odd: only x^2 - 1 = 2^3 stays in scope
    for n_min, kept in ((0, set(ADJACENT_SHAPES)), (2, {(1, -1), (2, 2), (2, -2)}),
                        (3, {(1, -1)})):
        for (d, c), solution in ADJACENT_SHAPES.items():
            st = analyze(RNEquation(d, c), n_min)
            assert st.status == "closed_finite_n", (d, c, n_min)
            assert [t["rule"] for t in st.rule_trace] == ["sieve", "finite_checks"]
            assert st.solutions == ((solution,) if (d, c) in kept else ()), (d, c, n_min)


def test_analyze_prime_closure_route():
    # 5x^2 - 16 = 2^n has (2, 2) and (4, 6); 480 classes mod 27720 survive,
    # each an even one, and each holds at most the prime gcd(r, 27720)
    eq = RNEquation(5, -16)
    st = analyze(eq)
    assert st.status == "closed_finite_n"
    assert st.solutions == (RNSolution(2, 2),)
    surviving = rn._set_bits(st.facts[1])
    assert len(surviving) == 480 and surviving[:4] == [2, 6, 186, 206]
    assert {gcd(r, 27720) for r in surviving} == {2, 6, 18, 22, 66, 198}
    sieved = st.rule_trace[0]
    assert (sieved["emptied_at"], sieved["open_classes"], st.open_mask) == (None, [], 0)
    # the prime 2 lies below valid_from = 6, so the finite checks test it
    # and no class lists it again
    finite = st.rule_trace[-1]
    assert finite == {"rule": "finite_checks", "n_values": [0, 1, 2, 3, 4, 5],
                      "solutions": [[2, 2]]}


def test_prime_classes_from_valid_from_on_go_to_the_finite_checks():
    # 3x^2 + 125 = 2^7 at x = 1.  With n odd from 3 on, the classes 7, 31
    # and 43 survive mod 60, and each of the ten that survive mod 27720 is
    # a multiple of 7: they hold no prime but 7, in the class 7.  That prime
    # is not below valid_from = 6, so the finite checks test it, and it is
    # the branch's one solution.
    eq = RNEquation(3, 125)
    st = analyze(eq, 3)
    assert st.status == "closed_finite_n" and st.solutions == (RNSolution(1, 7),)
    sieved, finite = st.rule_trace
    surviving = rn._set_bits(st.facts[1])
    assert len(surviving) == 10 and surviving[:3] == [7, 2527, 7567]
    assert {gcd(r, 27720) for r in surviving} == {7}
    assert (sieved["n_parity"], sieved["valid_from"]) == ("odd", 6)
    assert (sieved["emptied_at"], sieved["open_classes"]) == (None, [])
    assert finite == {"rule": "finite_checks", "n_values": [3, 5, 7], "solutions": [[1, 7]]}
    # past 7 the class holds no prime at all, and nothing is left to test
    st = analyze(eq, 8)
    assert st.status == "closed_finite_n" and st.solutions == ()
    assert st.rule_trace[-1]["n_values"] == []
    # the primes a class can hold that way divide 27720; 7 and 11 reach valid_from
    _, threshold, _, units, primes = rn._sieve_plan()
    assert (threshold, rn._set_bits(primes)) == (6, [2, 3, 5, 7, 11])
    assert units == sum(1 << r for r in range(27720) if gcd(r, 27720) == 1)


def test_analyze_sieve_closure_route():
    # 22x^2 + 6 = 2 mod 4 and 2^n never is from n = 2 on
    st = analyze(RNEquation(22, 6), n_min=3)
    assert st.status == "closed_finite_n"
    assert st.solutions == ()
    assert st.facts[1] == 0 and st.rule_trace[0]["emptied_at"] == 64

    # same equation without n_min picks up nothing below the threshold either
    st = analyze(RNEquation(22, 6))
    assert st.status == "closed_finite_n"
    assert st.solutions == ()


def test_analyze_open_route():
    # the classic x^2 + 7 = 2^n: x odd gives x^2 + 7 = 0 mod 8, so the
    # n >= 3 class survives every power-of-two modulus
    st = analyze(RNEquation(1, 7))
    assert st.status == "open"
    assert {(s.x, s.n) for s in st.solutions} == {(1, 3), (3, 4), (5, 5), (11, 7), (181, 15)}
    assert st.rule_trace[-1]["rule"] == "direct_search"
    # the trace is kept as plain values, so the status pickles and compares
    restored = pickle.loads(pickle.dumps(st))
    assert restored == st and restored.rule_trace == st.rule_trace


def _planted(seed, count, n_range):
    # equations built around a solution (x, n), n drawn from n_range(index)
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randrange(*n_range(len(out)))
        d, x = rng.randrange(1, 60), rng.randrange(1, 1000)
        c = (1 << n) - d * x * x
        if c != 0 and is_squarefree(d):
            out.append(RNEquation(d, c))
    return out


def _planted_high(count):
    # solutions at prime n in 300..2000, spread over them, for a search up to n_max = 2000
    primes = [n for n in range(300, 2001) if is_prime(n) == "prime"]

    def at_prime(i):
        n = primes[37 * i % len(primes)]
        return n, n + 1

    return _planted(63, count, at_prime)


def _open_search_mismatches(equations, n_mins):
    """(open branches, those with solutions, mismatching cases) of analyze's
    bounded search against the full-range direct search, over every combination:
    an open branch must find every solution, a closed one each of prime exponent."""
    open_branches = with_solutions = 0
    mismatches = []
    reference = {}
    for eq, n_min in itertools.product(equations, n_mins):
        st = analyze(eq, n_min)
        parity, n_max = rn.n_constraints(n_min)
        if (eq, n_max) not in reference:
            reference[eq, n_max] = direct_search(eq, 0, n_max)
        expected = tuple(s for s in reference[eq, n_max]
                         if s.n >= n_min and (parity != "odd" or s.n % 2 == 1))
        if st.status != "open":
            ok = {s for s in expected if is_prime(s.n) == "prime"} <= set(st.solutions)
        else:
            open_branches += 1
            with_solutions += bool(st.solutions)
            ok = (st.solutions == expected
                  and st.rule_trace[-1]["solutions"] == [s.as_pair() for s in expected])
        if not ok:
            mismatches.append((eq, n_min))
    return open_branches, with_solutions, mismatches


def test_analyze_open_search_matches_full_range_search():
    # an open branch tests only exponents below valid_from and in classes
    # that survive every modulus, up to n_max = 2000; the full-range direct
    # search is the reference.  Half the planted solutions have n <= 20,
    # and a third set has n in 300..2000.
    planted = _planted(61, 360, lambda i: (1, 21 if i % 2 else 151))
    open_branches, with_solutions, mismatches = _open_search_mismatches(
        random_equations(61, 240, d_max=60, c_max=500) + planted, (0, 2, 7, 61))
    assert mismatches == [] and open_branches > 400 and with_solutions > 300
    open_branches, with_solutions, mismatches = _open_search_mismatches(
        _planted_high(120), (0, 61))
    assert mismatches == [] and open_branches > 200 and with_solutions > 200


def _fresh_caches(monkeypatch):
    """Each modulus's mask table, by modulus, of a fresh sieve plan.

    analyze keeps its class masks in the tables of rn._sieve_plan(); with a
    fresh plan it sieves again through whatever rn._sieve_classes is in
    place, not through masks an earlier test left, and the test's masks go
    with the plan when monkeypatch restores the old one.
    """
    monkeypatch.setattr(rn, "_sieve_plan", lru_cache(rn._sieve_plan.__wrapped__))
    return {m: masks for m, _, _, _, masks in rn._sieve_plan()[0]}


@pytest.mark.parametrize("q", DEFAULT_MODULI[6:])
def test_open_search_check_catches_a_search_prime_losing_a_class(monkeypatch, q):
    # the comparison above must fail once one of the primes 17..43, the
    # moduli ANDed at period 27720, forgets one class
    sieve_classes = rn._sieve_classes

    def lossy(m, d, c):
        classes = sieve_classes(m, d, c)
        return classes & classes - 1 if m == q else classes

    _fresh_caches(monkeypatch)
    monkeypatch.setattr(rn, "_sieve_classes", lossy)
    _, _, mismatches = _open_search_mismatches(_planted_high(24), (0,))
    assert mismatches


def test_square_class_is_the_least_residue_of_the_same_legendre_symbol():
    for q in DEFAULT_MODULI:
        canonical = [rn._square_class(q, d) for d in range(q)]
        assert len(canonical) == q
        if is_prime(q) != "prime":  # 9 and 64 keep d itself
            assert canonical == list(range(q))
            continue
        symbol = [pow(d, (q - 1) // 2, q) for d in range(q)]  # Euler's criterion
        for d in range(q):
            rep = canonical[d]
            assert symbol[rep] == symbol[d], (q, d)
            assert all(symbol[e] != symbol[d] for e in range(rep)), (q, d)
        assert len(set(canonical)) == 3


def test_search_prime_classes_depend_on_the_square_class_of_d():
    # for every sieve modulus, the classes of d*x^2 + c are those of d's
    # representative, so members of one square class may share a mask
    for q in DEFAULT_MODULI:
        assert 27720 % power_cycle(q)[1] == 0
        for d, c in itertools.product(range(q), repeat=2):
            assert rn._sieve_classes(q, rn._square_class(q, d), c) == rn._sieve_classes(q, d, c), \
                (q, d, c)


def test_sieve_ands_the_period_60_moduli_by_their_closing_share():
    # the share of pairs (d mod m, c mod m) whose classes, lifted to period
    # 60, hold no odd n: DEFAULT_MODULI lists the six moduli ANDed at period
    # 60 by that share, the one that closes the most branches alone first,
    # and the sieve ANDs every modulus in the listed order
    steps, _, start, _, _ = rn._sieve_plan()
    share = {}
    for m in DEFAULT_MODULI[:6]:
        lift = rn._tile(1, power_cycle(m)[1], 60)
        share[m] = sum(not rn._sieve_classes(m, d, c) * lift & start["odd"]
                       for d in range(m) for c in range(m)) / (m * m)
    assert list(DEFAULT_MODULI[:6]) == sorted(share, key=share.get, reverse=True)
    assert [step[:2] for step in steps[:6]] == [(m, 60) for m in DEFAULT_MODULI[:6]]
    assert [round(100 * share[m]) for m in DEFAULT_MODULI[:6]] == [87, 44, 20, 14, 9, 8]
    assert [m for m, *_ in steps] == list(DEFAULT_MODULI)


def test_no_sieve_modulus_divides_another():
    # an equation solvable mod k is solvable mod each divisor of k, so a
    # divisor's sieve would add nothing to the combination
    assert [(m, k) for m in DEFAULT_MODULI for k in DEFAULT_MODULI
            if k != m and k % m == 0] == []


def test_analyze_validation():
    # a negative n_min is rejected before any rule runs, open branch or not
    for eq in (RNEquation(1, -5), RNEquation(5, 3)):
        with pytest.raises(ValueError, match="n_min"):
            analyze(eq, n_min=-2)
    # the parity and search bound follow from n_min, and the moduli combine
    # to period 27720, for odd n as for any
    assert [rn.n_constraints(n) for n in (0, 2, 3, 2000, 2003)] == [
        ("any", 2000), ("any", 2000), ("odd", 2000), ("odd", 2000), ("odd", 2003)]
    for n_min, parity in ((0, "any"), (3, "odd")):
        sieved = analyze(RNEquation(1, -5), n_min).rule_trace[0]
        assert (sieved["combined_period"], sieved["n_parity"]) == (27720, parity)


def test_analyze_closures_never_miss_bruteforce_solutions():
    # at n_min = 0 the kept mask covers every n: each brute-force solution
    # lies in a kept class or below valid_from, an open branch finds them
    # all, and a closed one every solution whose exponent is prime
    for eq in random_equations(31, 200):
        st = analyze(eq)
        brute = brute_rn_solutions(eq.d, eq.c, 25)
        found = {(s.x, s.n) for s in st.solutions}
        if st.status == "open":
            assert found.issuperset(brute), eq
        else:
            assert found.issuperset((x, n) for x, n in brute if is_prime(n) == "prime"), eq
        if st.status != "closed_complete":
            assert all(n < st.rule_trace[0]["valid_from"] or st.facts[1] >> n % 27720 & 1
                       for _, n in brute), (eq, brute)


def test_analyze_prime_closure_never_misses_prime_exponents():
    # the prime-class closure is the sharpest rule; a closed branch must
    # still capture every brute-force solution whose exponent is prime
    for eq in random_equations(77, 300):
        st = analyze(eq, n_min=2)
        brute = [(x, n) for x, n in brute_rn_solutions(eq.d, eq.c, 25)
                 if n >= 2 and is_prime(n) == "prime"]
        found = {(s.x, s.n) for s in st.solutions}
        assert found.issuperset(brute), (eq, st.status, brute)


def _parent_intersection(reports, n_parity):
    # reference for the combined classes: the residues of the right parity,
    # lifted one modulus at a time and filtered by its classes, and the
    # first modulus that left none
    period, surviving = 2, [r for r in range(2) if n_parity != "odd" or r % 2 == 1]
    emptied_at = None
    for t in reports:
        lifted, classes = lcm(period, t.period), set(t.surviving_classes)
        surviving = sorted(r for r0 in surviving for r in range(r0, lifted, period)
                           if r % t.period in classes)
        period = lifted
        if not surviving and emptied_at is None:
            emptied_at = t.modulus
    return period, surviving, emptied_at


def test_analyze_sieve_trace_matches_uncached_sieve(monkeypatch):
    # a multiple of every modulus
    shift = lcm(*DEFAULT_MODULI)
    # the random equations all close at the moduli; a planted solution with
    # n >= 6 keeps its class open
    equations = [eq for eq in random_equations(83, 40, d_max=60, c_max=500)
                 + _planted(83, 40, lambda i: (6, 200))
                 if BUILTIN_TABLE.get(eq) is None]
    cases = list(itertools.product(equations, (0, 2, 7, 61)))
    # the same cases with c moved by a multiple of every modulus: same residues
    shifted = [(RNEquation(eq.d, eq.c + shift), n_min) for eq, n_min in cases]

    expected = {}
    # sieve() keeps nothing, so each reference sieves afresh
    for eq, n_min in cases + shifted:
        parity, _ = rn.n_constraints(n_min)
        reports = [sieve(eq, m, n_min, parity) for m in DEFAULT_MODULI]
        period, surviving, emptied_at = _parent_intersection(reports, parity)
        open_classes = [r for r in surviving if gcd(r, period) == 1]
        expected[eq, n_min] = sum(1 << r for r in surviving), {
            "rule": "sieve",
            "moduli": list(DEFAULT_MODULI),
            "combined_period": period,
            "n_min": n_min,
            "n_parity": parity,
            "valid_from": max([n_min] + [t.n_threshold for t in reports]),
            "emptied_at": emptied_at,
            "open_classes": open_classes,
        }
    kept = [entry for mask, entry in expected.values() if mask]
    assert len(kept) > 200 and sum(bool(entry["open_classes"]) for entry in kept) > 80

    def check(case):
        st = analyze(*case)
        assert (st.facts[1], st.rule_trace[0]) == expected[case], case

    tables = _fresh_caches(monkeypatch)
    for case in cases:
        check(case)
    held = {m: dict(masks) for m, masks in tables.items()}
    for case, moved in zip(reversed(cases), reversed(shifted)):
        check(case)
        check(moved)
    # the warm pass, shifted equations included, found every key at its mask
    assert all(held[m].items() == masks.items() for m, masks in tables.items())
    assert sum(map(len, held.values())) > 100


def test_branch_closed_by_the_first_anded_modulus_is_emptied_at_64(monkeypatch):
    # 5x^2 + 5 = 5(x^2 + 1) is never 0 mod 64, and 2^n is from n = 6 on: the
    # first modulus analyze ANDs closes the branch, with one empty mask in
    # its table, and the one sieve entry names it; rendering it sieves nothing
    eq = RNEquation(5, 5)
    tables = _fresh_caches(monkeypatch)
    assert rn._sieve_plan()[0][0][:2] == (64, 60)
    # later moduli alone would keep classes, so only the order names 64
    assert any(sieve(eq, m, 3, "odd").surviving_classes for m in DEFAULT_MODULI[1:])
    st = analyze(eq, 3)
    monkeypatch.setattr(rn, "_sieve_classes", None)
    sieved, finite = st.rule_trace
    assert st.status == "closed_finite_n" and finite["n_values"] == [3, 5]
    assert {m: list(masks) for m, masks in tables.items() if masks} == {64: [5 * 64 + 5]}
    assert tables[64][5 * 64 + 5] == 0
    assert (sieved["emptied_at"], sieved["valid_from"], sieved["open_classes"]) == (64, 6, [])


def test_analyze_trace_shares_no_cached_lists():
    eq = RNEquation(1, 7)
    first = analyze(eq).rule_trace
    before = copy.deepcopy(first)
    first[0]["open_classes"].append(10**6)
    first[0]["moduli"].append(10**6)
    first[-1]["solutions"].append([1, 10**6])
    assert analyze(eq).rule_trace == tuple(before)
    moved = analyze(RNEquation(1, 7 + lcm(*DEFAULT_MODULI))).rule_trace
    assert moved[0] == before[0] and moved[0]["open_classes"]


def _sieve_misses(st, solutions, n_min):
    """The solutions, from a direct search, that st's sieve lost.

    A solution must lie in a kept class mod the combined period or among
    the exponents tested directly, and a prime one must be among st's
    solutions (up to st's bound when the branch is open).
    """
    parity, n_max = rn.n_constraints(n_min)
    missed = []
    for s in solutions:
        if s.n < n_min or parity == "odd" and s.n % 2 == 0:
            continue
        if st.status == "closed_complete":
            kept = s in st.solutions
        else:
            sieved, last = st.rule_trace
            tested = (last["n_values"] if st.status == "closed_finite_n"
                      else range(n_min, sieved["valid_from"]))
            kept = s.n in tested or st.facts[1] >> s.n % sieved["combined_period"] & 1
        if is_prime(s.n) == "prime" and (st.status != "open" or s.n <= n_max):
            kept &= s in st.solutions
        if not kept:
            missed.append(s)
    return missed


def test_sieve_never_misses_a_solution_of_a_decide_branch():
    # every branch decide analyzes for b < 300, called as decide calls it,
    # against every solution with n <= 3000
    from perfdist.decider import _min_exponent, generate_branches

    branches = 0
    for b in range(3, 300):
        delta = b * (b - 1) // 2
        if delta % 4 != 3:
            continue
        p_min = _min_exponent(delta)
        for _, d, c in generate_branches(b).surviving:
            eq = RNEquation(d, c, known_squarefree=True)
            st = analyze(eq, p_min)
            misses = _sieve_misses(st, direct_search(eq, p_min, 3000), p_min)
            assert misses == [], (b, d, c)
            branches += 1
    assert branches > 500


def test_sieve_never_misses_a_solution_of_a_random_equation():
    # random and planted equations, each solution with n <= 3000 checked
    # against the kept classes under every exponent constraint
    equations = random_equations(97, 60, d_max=60, c_max=500) + \
        _planted(97, 60, lambda i: (1, 40 if i % 2 else 200)) + [RNEquation(3, 125)]
    with_solutions = 0
    for eq in equations:
        solutions = direct_search(eq, 0, 3000)
        with_solutions += bool(solutions)
        for n_min in (0, 2, 3, 7):
            assert _sieve_misses(analyze(eq, n_min), solutions, n_min) == [], (eq, n_min)
    assert with_solutions > 60
