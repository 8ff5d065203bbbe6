import hashlib
import json

import pytest

from perfdist.arith import BudgetConfig, is_perfect, is_prime, squarefree_divisors
from perfdist.decider import (
    DEFAULT_CONFIG,
    DeciderConfig,
    case_analysis,
    check_candidate,
    decide,
    generate_branches,
    verify_pair,
)
from perfdist.mersenne import KNOWN_MERSENNE_EXPONENTS, even_perfect, lucas_lehmer

from oracles import divisor_sum_naive


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
    assert [(br.side, br.d, br.c) for br in gen.branches] == [
        ("A", 1, -5), ("A", 11, -5), ("B", 2, 6), ("B", 22, 6),
    ]
    assert {(p["side"], p["d"]) for p in gen.pruned} == {
        ("A", 2), ("A", 22), ("B", 1), ("B", 11),
    }
    assert gen.forced_candidate_primes == ()


def test_generate_branches_b3():
    gen = generate_branches(3)
    assert [(br.side, br.d, br.c) for br in gen.branches] == [
        ("A", 2, -2), ("A", 10, -2), ("B", 1, 3), ("B", 5, 3),
    ]
    # before pruning, each side sees every squarefree divisor of 10
    assert squarefree_divisors(2 * (2 * 3 - 1)) == [1, 2, 5, 10]


def test_generate_branches_cover_the_divisor_cross_product():
    for b in range(3, 40):
        gen = generate_branches(b)
        divisors = squarefree_divisors(2 * (2 * b - 1))
        expected = {(side, d) for side in ("A", "B") for d in divisors}
        got = {(br.side, br.d) for br in gen.branches}
        got |= {(p["side"], p["d"]) for p in gen.pruned}
        assert got == expected, b
        for p in gen.pruned:
            assert "side_value_v2" in p and "reason" in p
        for br in gen.branches:
            assert br.c == (1 - b if br.side == "A" else b)


def test_generate_branches_validation():
    with pytest.raises(ValueError):
        generate_branches(2)


def test_check_candidate_examples():
    c = check_candidate(7, 3)
    assert (c.m, c.n_candidate, c.perfect_status) == (8128, 8125, "not_perfect")

    c = check_candidate(3, 3)
    assert (c.m, c.n_candidate, c.perfect_status) == (28, 25, "not_perfect")
    assert c.euler_filter == "impossible"  # 25 = 5^2 has no odd exponent

    c = check_candidate(3, 15)
    assert (c.m, c.n_candidate, c.perfect_status) == (28, 13, "not_perfect")
    assert divisor_sum_naive(13) == 14

    c = check_candidate(2, 3)
    assert c.mersenne_status == "prime" and c.n_candidate == 3
    assert c.outcome == "eliminated"

    c = check_candidate(11, 55)
    assert c.mersenne_status == "composite" and c.outcome == "eliminated"


def test_check_candidate_runs_lucas_lehmer_once():
    lucas_lehmer.cache_clear()
    assert check_candidate(61, 3).mersenne_status == "prime"
    info = lucas_lehmer.cache_info()
    assert (info.misses, info.hits) == (1, 0)


def test_check_candidate_reports_probable_prime_factors():
    # q is the least probable prime above 10^30, past the deterministic bound
    q = 10**30 + 57
    assert is_prime(q) == "probably_prime"
    assert all(is_prime(10**30 + k) == "composite" for k in range(1, 57))
    m = even_perfect(89)
    c = check_candidate(89, m - q)
    assert c.n_candidate == q and c.probable_prime_factors == (q,)
    assert c.outcome == "eliminated"


def test_decide_3():
    rep = decide(3)
    assert rep.verdict == "eliminated"
    assert rep.delta_plus_6_check == {"value": 9, "perfect_status": "not_perfect"}
    by_key = {(br.side, br.d): br for br in rep.branches}
    assert set(by_key) == {("A", 2), ("A", 10), ("B", 1), ("B", 5)}
    assert by_key[("A", 2)].status.status == "closed_complete"
    assert by_key[("A", 2)].status.rule_trace[0]["rule"] == "adjacent_powers"
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
    assert by_key[("B", 2)].status.status == "closed_complete"
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


def test_decide_verdict_monotone_under_larger_config():
    bigger = DeciderConfig(moduli=DEFAULT_CONFIG.moduli + (128, 17, 25))
    for delta in (3, 15):
        assert decide(delta, bigger).verdict == "eliminated"


def test_decide_inconclusive_names_obstruction():
    rep = decide(55)
    assert rep.verdict == "inconclusive"
    assert any("open" in obs for obs in rep.obstructions)
    # the open branches still get their search solutions verified
    assert any(c.p == 5 and c.outcome == "eliminated" for c in rep.candidates)


def test_decide_budget_exhaustion_is_inconclusive_not_an_error():
    # 2*(2b - 1) = 2 * (hard semiprime): branch generation cannot enumerate
    # squarefree divisors under a starved budget, and delta + 6 is unknowable
    semiprime = 1_000_033 * 1_000_037
    b = (semiprime + 1) // 2
    delta = b * (b - 1) // 2
    assert delta % 4 == 3 and delta % 12 not in (1, 11)
    starved = DeciderConfig(budget=BudgetConfig(trial_division_bound=100,
                                                rho_iteration_budget=1,
                                                primality_rounds=2))
    rep = decide(delta, starved)
    assert rep.verdict == "inconclusive"
    assert any("squarefree divisors" in obs for obs in rep.obstructions)
    assert any("delta + 6" in obs for obs in rep.obstructions)

    # small inputs stay decidable even under the same starved budget
    assert decide(15, starved).verdict == "eliminated"


def test_config_fingerprint_tracks_content():
    # scan records made under this fingerprint are reused on resume
    assert DEFAULT_CONFIG.fingerprint() == DeciderConfig().fingerprint() == "ac6dee2574285228"
    other = DeciderConfig(budget=BudgetConfig(rho_iteration_budget=999))
    assert other.fingerprint() != DEFAULT_CONFIG.fingerprint()


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
        "ff87c3a83af300bee79988049dc65f7175006fcfb54ab08b02d918ff18f75291"


def test_report_serialization_roundtrip():
    rep = decide(15)
    blob = rep.to_json()
    parsed = json.loads(blob)
    assert parsed["verdict"] == "eliminated"
    assert parsed["config_fingerprint"] == rep.config.fingerprint()
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
