import hashlib
import json
from functools import lru_cache
from pathlib import Path

import pytest

from perfdist import decider, rn
from perfdist.arith import (
    DEFAULT_BUDGET,
    factorize,
    is_perfect,
    is_squarefree,
    squarefree_divisors,
)
from perfdist.decider import (
    ODD_PERFECT_LOG10_BOUND,
    case_analysis,
    check_candidate,
    config,
    decide,
    fingerprint,
    generate_branches,
    verify_pair,
)
from perfdist.mersenne import KNOWN_MERSENNE_EXPONENTS, even_perfect, lucas_lehmer

from oracles import divisor_sum_naive, trial_division_is_prime


def test_case_analysis_examples():
    ca = case_analysis(11)
    assert ca.touchard_blocked and ca.in_scope and ca.b is None

    ca = case_analysis(15)
    assert not ca.touchard_blocked and ca.mod4_class == 3 and ca.b == 6 and ca.in_scope

    ca = case_analysis(9)
    assert not ca.touchard_blocked and ca.mod4_class == 1 and not ca.in_scope

    ca = case_analysis(13)  # 13 = 1 mod 12
    assert ca.touchard_blocked

    with pytest.raises(ValueError):
        case_analysis(10)
    with pytest.raises(ValueError):
        case_analysis(-3)


def test_generate_branches_b6():
    gen = generate_branches(6)
    assert list(gen.surviving) == [
        ("A", 1, -5), ("A", 11, -5), ("B", 2, 6), ("B", 22, 6),
    ]
    assert {(p["side"], p["d"]) for p in gen.pruned} == {
        ("A", 2), ("A", 22), ("B", 1), ("B", 11),
    }


def test_generate_branches_b3():
    gen = generate_branches(3)
    assert list(gen.surviving) == [
        ("A", 2, -2), ("A", 10, -2), ("B", 1, 3), ("B", 5, 3),
    ]
    # before pruning, each side sees every squarefree divisor of 10
    assert squarefree_divisors(2 * (2 * 3 - 1)) == [1, 2, 5, 10]


def test_generate_branches_cover_the_divisor_cross_product():
    for b in range(3, 40):
        gen = generate_branches(b)
        divisors = squarefree_divisors(2 * (2 * b - 1))
        expected = {(side, d) for side in ("A", "B") for d in divisors}
        got = {(side, d) for side, d, _ in gen.surviving}
        got |= {(p["side"], p["d"]) for p in gen.pruned}
        assert got == expected, b
        for p in gen.pruned:
            assert "side_value_v2" in p and "reason" in p
        for side, _, c in gen.surviving:
            assert c == (1 - b if side == "A" else b)


def test_branch_divisors_are_squarefree():
    # decide builds each branch's equation without factoring d again
    for b in range(3, 300):
        gen = generate_branches(b)
        assert all(is_squarefree(d) for _, d, _ in gen.surviving), b
        assert all(is_squarefree(pr["d"]) for pr in gen.pruned), b


def test_generate_branches_validation():
    with pytest.raises(ValueError):
        generate_branches(2)


def test_check_candidate_examples():
    c = check_candidate(7, 3)
    assert (c.m, c.n_candidate, c.perfect_status) == (8128, 8125, "not_perfect")

    c = check_candidate(3, 3)
    assert (c.m, c.n_candidate, c.perfect_status) == (28, 25, "not_perfect")
    # the odd-perfect bound settles 25 with no factoring
    assert c.rule == "odd_perfect_bound"

    c = check_candidate(3, 15)
    assert (c.m, c.n_candidate, c.perfect_status) == (28, 13, "not_perfect")
    assert divisor_sum_naive(13) == 14

    c = check_candidate(2, 3)
    assert c.mersenne_status == "prime" and c.n_candidate == 3
    assert c.outcome == "eliminated"

    # m <= delta leaves no positive partner, so nothing is left to resolve
    c = check_candidate(3, 99)
    assert (c.m, c.n_candidate, c.perfect_status, c.rule) == (28, -71, None, None)
    assert c.outcome == "eliminated" and c.to_dict()["outcome"] == "eliminated"
    assert check_candidate(3, 27).outcome == "eliminated"  # m - delta = 1 is not perfect
    assert check_candidate(3, 29).outcome == "eliminated"  # m - delta = -1

    c = check_candidate(11, 55)
    assert c.mersenne_status == "composite" and c.outcome == "eliminated"
    assert c.mersenne_factor == 23 and c.to_dict()["mersenne_factor"] == 23


def test_check_candidate_runs_lucas_lehmer_once():
    lucas_lehmer.cache_clear()
    assert check_candidate(61, 3).mersenne_status == "prime"
    info = lucas_lehmer.cache_info()
    assert (info.misses, info.hits) == (1, 0)


def test_check_candidate_settles_by_odd_perfect_bound():
    # b = 2^55 + 3 forces the candidate p = 107; its m - delta has 61 digits
    b = (1 << 55) + 3
    delta = b * (b - 1) // 2
    factorize.cache_clear()
    c = check_candidate(107, delta)
    assert c.mersenne_status == "prime" and c.n_candidate % 2 == 1
    assert (c.rule, c.perfect_status, c.outcome) == ("odd_perfect_bound", "not_perfect", "eliminated")
    assert set(c.to_dict()) == {"p", "mersenne_status", "mersenne_factor", "m", "n_candidate",
                                "perfect_status", "rule", "outcome"}
    assert factorize.cache_info().misses == 0


def test_odd_perfect_bound_boundary():
    limit = 10**ODD_PERFECT_LOG10_BOUND
    m = even_perfect(3217)
    factorize.cache_clear()
    below = check_candidate(3217, m - (limit - 1))
    assert below.n_candidate == limit - 1
    assert (below.rule, below.perfect_status) == ("odd_perfect_bound", "not_perfect")

    # past the bound no rule applies, and nothing is factored
    above = check_candidate(3217, m - (limit + 1))
    assert above.n_candidate == limit + 1
    assert (above.rule, above.perfect_status, above.outcome) == (None, "unknown", "unresolved")
    assert factorize.cache_info().misses == 0

    # an even delta gives an even m - delta, which the bound does not cover
    with pytest.raises(ValueError):
        check_candidate(3, 2)


def test_delta_past_the_odd_perfect_bound_is_settled_without_factoring():
    # 10^1500 + 9 = 1 mod 12: the mod-12 filter eliminates it, and delta + 6
    # lies past the bound, so its perfectness stays unknown
    factorize.cache_clear()
    rep = decide(10**ODD_PERFECT_LOG10_BOUND + 9)
    assert rep.verdict == "eliminated"
    assert rep.delta_plus_6_check == {"value": 10**ODD_PERFECT_LOG10_BOUND + 15,
                                      "perfect_status": "unknown", "rule": None}
    assert "odd_perfect_bound" not in rep.certificates
    assert factorize.cache_info().misses == 0


def test_decide_past_the_exponent_bound_closes_every_branch():
    # 2b - 1 = 3^1263 gives a 1205-digit delta whose least exponent p_min = 2003
    # passes DEFAULT_N_MAX = 2000; analyze still gets n_max >= n_min
    b = (3**1263 + 1) // 2
    delta = b * (b - 1) // 2
    assert delta % 4 == 3 and len(str(delta)) == 1205
    rep = decide(delta)
    assert rep.certificates["exponent_floor"]["p_min"] == 2003 > rn.DEFAULT_N_MAX
    assert rep.verdict == "eliminated" and rep.obstructions == ()
    assert len(rep.branches) == 4 and rep.candidates == ()
    assert all(br.status.status == "closed_finite_n" for br in rep.branches)
    assert rep.delta_plus_6_check["rule"] == "odd_perfect_bound"


def test_decide_3():
    rep = decide(3)
    assert rep.verdict == "eliminated"
    assert rep.delta_plus_6_check == {"value": 9, "perfect_status": "not_perfect",
                                      "rule": "odd_perfect_bound"}
    assert rep.certificates["odd_perfect_bound"]["log10_bound"] == ODD_PERFECT_LOG10_BOUND
    by_key = {(br.side, br.d): br for br in rep.branches}
    assert set(by_key) == {("A", 2), ("A", 10), ("B", 1), ("B", 5)}
    # 2x^2 - 2 = 2^n: every class the sieve keeps shares a factor with 27720
    a2 = by_key[("A", 2)].status
    assert a2.status == "closed_finite_n"
    assert [t["rule"] for t in a2.rule_trace] == ["sieve", "finite_checks"]
    assert a2.rule_trace[0]["emptied_at"] is None and a2.rule_trace[0]["open_classes"] == []
    assert a2.rule_trace[1]["n_values"] == [2, 3, 4, 5]
    assert [s.as_pair() for s in a2.solutions] == [[3, 4]]
    assert by_key[("B", 5)].status.rule_trace[0]["rule"] == "completeness_table"
    assert [s.as_pair() for s in by_key[("B", 5)].status.solutions] == [[1, 3], [5, 7]]
    assert by_key[("A", 10)].status.status == "closed_finite_n"
    assert by_key[("B", 1)].status.status == "closed_finite_n"
    assert [c.p for c in rep.candidates] == [2, 3, 7]
    assert {c.p: c.n_candidate for c in rep.candidates} == {2: 3, 3: 25, 7: 8125}
    assert all(c.outcome == "eliminated" for c in rep.candidates)


def test_decide_15():
    rep = decide(15)
    assert rep.verdict == "eliminated"
    assert [(br.side, br.d) for br in rep.branches] == [
        ("A", 1), ("A", 11), ("B", 2), ("B", 22),
    ]
    by_key = {(br.side, br.d): br for br in rep.branches}
    # every branch is a sieve certificate: 2x^2 + 6 = 2^n too is emptied at 64
    for br in rep.branches:
        assert br.status.status == "closed_finite_n"
        assert br.status.rule_trace[0]["emptied_at"] == 64
        assert br.status.rule_trace[1]["n_values"] == [3, 5]
    assert [s.as_pair() for s in by_key[("B", 2)].status.solutions] == [[1, 3]]
    assert [c.p for c in rep.candidates] == [3]
    assert rep.candidates[0].n_candidate == 13
    assert rep.delta_plus_6_check["perfect_status"] == "not_perfect"


def test_decide_11_touchard():
    rep = decide(11)
    assert rep.verdict == "eliminated"
    assert rep.branches == () and rep.candidates == ()
    assert rep.certificates["touchard"]["blocked"]


def test_decide_out_of_scope():
    assert decide(9).verdict == "out_of_scope"
    assert decide(21).verdict == "out_of_scope"  # triangular but 1 mod 4
    assert decide(7).verdict == "out_of_scope"  # 3 mod 4 but not triangular


def test_decide_rejects_even():
    with pytest.raises(ValueError):
        decide(8)


def test_decide_candidates_respect_exponent_floor():
    for delta in (3, 15, 55, 91):
        rep = decide(delta)
        for cand in rep.candidates:
            assert (1 << (cand.p - 1)) * ((1 << cand.p) - 1) - delta >= 1


def test_decide_soundness_against_known_perfect_numbers():
    # an eliminated delta must clear a brute scan over all even perfect
    # numbers with p <= 31, plus the delta + 6 route
    deltas = [3, 11, 15] + [b * (b - 1) // 2 for b in range(3, 61)
                            if (b * (b - 1) // 2) % 4 == 3]
    eliminated = 0
    for delta in deltas:
        rep = decide(delta)
        if rep.verdict != "eliminated":
            continue
        eliminated += 1
        assert is_perfect(delta + 6) != "perfect"
        for p in KNOWN_MERSENNE_EXPONENTS:
            m = even_perfect(p)
            if m - delta >= 1:
                assert is_perfect(m - delta) != "perfect", (delta, p)
    assert eliminated >= 4  # 3, 11, 15 and at least one fresh elimination


def test_decide_deterministic_output():
    assert decide(3).to_json() == decide(3).to_json()
    assert decide(15).to_json() == decide(15).to_json()
    assert decide(55).to_json() == decide(55).to_json()


def test_decide_inconclusive_names_obstruction():
    rep = decide(55)
    assert rep.verdict == "inconclusive"
    assert any("open" in obs for obs in rep.obstructions)
    # the open branches still get their search solutions verified
    assert any(c.p == 5 and c.outcome == "eliminated" for c in rep.candidates)


def test_decide_budget_exhaustion_is_inconclusive_not_an_error():
    # 2*(2b - 1) = 2 * (hard semiprime): branch generation cannot enumerate
    # squarefree divisors under a starved budget; delta + 6 needs no budget,
    # because it is odd and below the odd-perfect bound
    semiprime = 1_000_033 * 1_000_037
    b = (semiprime + 1) // 2
    delta = b * (b - 1) // 2
    assert delta % 4 == 3 and delta % 12 not in (1, 11)
    starved = 1
    rep = decide(delta, starved)
    assert rep.verdict == "inconclusive"
    assert any("squarefree divisors" in obs for obs in rep.obstructions)
    assert not any("delta + 6" in obs for obs in rep.obstructions)
    assert rep.delta_plus_6_check["rule"] == "odd_perfect_bound"

    # small inputs stay decidable even under the same starved budget
    assert decide(15, starved).verdict == "eliminated"


def test_decide_rejects_a_factor_budget_below_1():
    # a mod-12-blocked delta such as 11 never factors, so only this check sees the budget
    for delta, budget in ((11, 0), (15, -5)):
        with pytest.raises(ValueError, match=f"^the factor budget must be >= 1, got {budget}$"):
            decide(delta, budget)


def test_config_fingerprint_tracks_content():
    # scan records made under this fingerprint are reused on resume
    assert fingerprint(DEFAULT_BUDGET) == "4a1e98322531e678"
    # the odd-perfect bound is a hashed constant, not a setting
    assert config(DEFAULT_BUDGET)["odd_perfect_log10_bound"] == ODD_PERFECT_LOG10_BOUND == 1500
    assert fingerprint(999) != fingerprint(DEFAULT_BUDGET)
    # the budget is the one factoring setting; the bound and rounds are hashed constants
    assert config(DEFAULT_BUDGET)["budget"] == {
        "trial_division_bound": 10**6, "rho_iteration_budget": 10**7, "primality_rounds": 40}


def test_reports_are_byte_identical_to_pinned_digest():
    """One SHA-256 over every in-scope report for b in 3..299, in order.

    Refactors must leave reports byte-identical.  A change that alters
    reports on purpose updates this constant and says so in CHANGES.md.
    """
    digest = hashlib.sha256()
    for b in range(3, 300):
        delta = b * (b - 1) // 2
        if delta % 4 == 3:
            digest.update(decide(delta).to_json().encode("ascii") + b"\n")
    assert digest.hexdigest() == \
        "eb7655bf4b2b8dc933d2e9430fc0e651c31f343053d7b87fc38c642f52c2daae"


def test_no_pruned_exponent_reaches_the_floor():
    # the parity pruning holds for p > v, v = v2(b - 1) on side A and v2(b)
    # on side B; no exponent p <= v needs a check because v < p_min, and an
    # in-scope b has v <= 1 on both sides
    def v2(n):
        return (n & -n).bit_length() - 1

    for b in range(3, 100_001):
        delta = b * (b - 1) // 2
        assert max(v2(b - 1), v2(b)) < decider._min_exponent(delta), b
        if delta % 4 == 3:
            assert b % 8 in (3, 6), b


def test_min_exponent_is_the_least_prime_past_delta():
    # the definition: walk up from p = 2 to the first prime p with m(p) > delta
    def m(p):
        return (1 << (p - 1)) * ((1 << p) - 1)

    def least(delta):
        p = 2
        while m(p) <= delta or not trial_division_is_prime(p):
            p += 1
        return p

    primes = [p for p in range(2, 62) if trial_division_is_prime(p)]
    deltas = list(range(1, 100_000, 2)) + [m(p) + e for p in primes for e in (-1, 1)]
    for delta in deltas:
        assert decider._min_exponent(delta) == least(delta), delta


def test_reports_are_byte_identical_over_the_benchmark_ranges():
    """SHA-256 digests over every in-scope report for b in 3..2999, and over
    five deltas of 33 to 77 digits that force candidate exponents 61..127.

    Over 750 deltas the lifted-mask dict serves most lookups warm, so a
    lookup that returns a wrong or altered mask changes these digests.
    """
    def digest(bs):
        h = hashlib.sha256()
        for b in bs:
            h.update(decide(b * (b - 1) // 2).to_json().encode("ascii") + b"\n")
        return h.hexdigest()

    assert digest(b for b in range(3, 3000) if b * (b - 1) // 2 % 4 == 3) == \
        "42f0f396ea742495d969c216e7d498eb27bb5fc671b15fb2de904cc09fc9a537"
    # b = 2^p - 2x^2 with x odd and 2b - 1 prime forces the candidate exponent p
    family = [(1 << p) - 2 * x * x for p, x in ((127, 31), (61, 59), (89, 17), (107, 41))]
    assert digest([(1 << 55) + 3] + family) == \
        "f08b3f8d178481d8bbab6800a8c0ca21ea9b8f448f9fe9c3d32b4691ab9b9e5c"


def test_benchmark_scan_builds_at_most_5005_class_masks(monkeypatch):
    # keyed d*m + c for d = d mod m, c = c mod m: at most m^2 keys per modulus,
    # but the d of one square class share the mask built for the least of them,
    # so a modulus with s square classes builds at most s*m masks
    moduli = rn.DEFAULT_MODULI
    bound = sum(len({rn._square_class(m, d) for d in range(m)}) * m for m in moduli)
    assert bound == 5005 and sum(m * m for m in moduli) == 12421
    # a fresh plan holds fresh tables, and monkeypatch restores the old plan
    monkeypatch.setattr(rn, "_sieve_plan", lru_cache(rn._sieve_plan.__wrapped__))
    for b in range(3, 3000):
        if b * (b - 1) // 2 % 4 == 3:
            decide(b * (b - 1) // 2)
    keys = [(m, *divmod(key, m), masks) for m, _, _, _, masks in rn._sieve_plan()[0]
            for key in masks]
    built = [(m, d, c) for m, d, c, _ in keys if rn._square_class(m, d) == d]
    assert 0 < len(built) <= bound and len(keys) <= 12421
    assert {m for m, *_ in keys} == set(moduli)
    # an aliased key holds the very mask of its square class's least member
    for m, d, c, masks in keys:
        assert masks[d * m + c] is masks[rn._square_class(m, d) * m + c]


def test_verdict_count_over_the_benchmark_scan():
    """b = 3..2999: 441 of the 750 in-scope deltas are eliminated, 358 branches open.

    The benchmark's baseline set (329 deltas, recorded when it was defined)
    must stay inside the eliminated set; a change that settles more deltas
    raises these counts, and one that loses a verdict fails here.
    """
    path = Path(__file__).resolve().parents[1] / "perfbench" / "eliminated_baseline.json"
    baseline = set(json.loads(path.read_text())["eliminated_b"])
    eliminated, open_branches, in_scope = set(), 0, 0
    for b in range(3, 3000):
        delta = b * (b - 1) // 2
        if delta % 4 != 3:
            continue
        report = decide(delta)
        in_scope += 1
        if report.verdict == "eliminated":
            eliminated.add(b)
        open_branches += sum(br.status.status == "open" for br in report.branches)
    assert (in_scope, len(eliminated), open_branches) == (750, 441, 358)
    assert len(baseline) == 329 and baseline <= eliminated


def test_report_serialization_roundtrip():
    rep = decide(15)
    blob = rep.to_json()
    parsed = json.loads(blob)
    assert parsed["verdict"] == "eliminated"
    assert parsed["config_fingerprint"] == fingerprint(rep.budget)
    from perfdist.decider import canonical_json

    assert canonical_json(parsed) == blob


def test_verify_pair():
    chk = verify_pair(28, 6)
    assert chk.both_perfect and chk.distance == 22

    chk = verify_pair(28, 25)
    assert not chk.both_perfect and chk.distance == 3

    chk = verify_pair(8128, 496)
    assert chk.both_perfect and chk.distance == 7632
    assert divisor_sum_naive(8128) == 2 * 8128 and divisor_sum_naive(496) == 2 * 496

    with pytest.raises(ValueError):
        verify_pair(0, 6)
    for bad in (0, -5):
        with pytest.raises(ValueError):
            verify_pair(28, 6, bad)
