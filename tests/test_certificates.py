"""Re-verify emitted elimination certificates from the JSON alone.

Everything here is recomputed with naive arithmetic (trial division,
divisor enumeration, direct congruence scans); the only perfdist call is
the one that produces the report.  A failure means a certificate cannot
be checked independently, which defeats its purpose.
"""

import json
from math import gcd, isqrt, lcm

from perfdist.decider import decide


# --- naive primitives, deliberately independent of the package ------------

def naive_sigma(n: int) -> int:
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d + (n // d if n // d != d else 0)
        d += 1
    return total


def naive_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def naive_squarefree_divisors(n: int) -> set[int]:
    divs = set()
    for d in range(1, n + 1):
        if n % d == 0 and all(d % (p * p) != 0 for p in range(2, isqrt(d) + 1)):
            divs.add(d)
    return divs


def naive_power_cycle(m: int) -> tuple[int, int]:
    seen = {}
    v = 1 % m
    i = 0
    while v not in seen:
        seen[v] = i
        v = v * 2 % m
        i += 1
    return seen[v], i - seen[v]


def exact_solution(d: int, c: int, n: int):
    t = (1 << n) - c
    if t <= 0 or t % d:
        return None
    r = isqrt(t // d)
    return [r, n] if r * r == t // d else None


def parity_ok(n: int, parity: str) -> bool:
    return parity != "odd" or n % 2 == 1


# --- certificate replay ----------------------------------------------------

def check_sieve_cert(cert: dict) -> None:
    d, c = cert["equation"]["d"], cert["equation"]["c"]
    m = cert["modulus"]
    threshold, period = naive_power_cycle(m)
    assert cert["n_threshold"] == threshold and cert["period"] == period
    reachable = {(d * x * x + c) % m for x in range(m)}
    base = max(cert["n_min"], threshold)
    expected = []
    for r in range(period):
        if cert["n_parity"] == "odd" and period % 2 == 0 and r % 2 == 0:
            continue
        n0 = base + (r - base) % period
        if pow(2, n0, m) in reachable:
            expected.append(r)
    assert cert["surviving_classes"] == expected
    assert cert["small_n_to_check"] == [
        n for n in range(cert["n_min"], threshold) if parity_ok(n, cert["n_parity"])
    ]


def check_branch(branch: dict, p_min: int, parity: str) -> None:
    d, c = branch["d"], branch["c"]
    trace = branch["rule_trace"]
    rules = [t["rule"] for t in trace]

    for s in branch["solutions"]:
        assert exact_solution(d, c, s[1]) == s
        assert s[1] >= p_min and parity_ok(s[1], parity)

    if branch["status"] == "closed_complete":
        head = trace[0]
        assert head["rule"] in ("completeness_table", "adjacent_powers")
        for s in head["complete_solutions"]:
            assert exact_solution(d, c, s[1]) == s
        kept = [s for s in head["complete_solutions"]
                if s[1] >= p_min and parity_ok(s[1], parity)]
        assert branch["solutions"] == kept
        if head["rule"] == "adjacent_powers":
            v = head["power_shift"]
            assert d == 1 << v and abs(c) == 1 << v
            # bounded completeness scan for the claimed exact rule
            for x in range(1, 100_001):
                t = d * x * x + c
                if t >= 1 and t & (t - 1) == 0:
                    assert [x, t.bit_length() - 1] in head["complete_solutions"]
        return

    sieves = [t for t in trace if t["rule"] == "sieve"]
    combo = next(t for t in trace if t["rule"] == "sieve_combination")
    for cert in sieves:
        assert cert["equation"] == {"d": d, "c": c}
        assert cert["n_min"] == p_min and cert["n_parity"] == parity
        check_sieve_cert(cert)
    assert combo["moduli"] == [cert["modulus"] for cert in sieves]

    # the combination, lifted one modulus at a time: a residue r mod K
    # stands for r, r + K, ... mod lcm(K, period), each kept iff its class
    # mod the modulus's period survived; no residue is tested twice
    period, surviving = 2, [r for r in range(2) if parity_ok(r, parity)]
    for cert in sieves:
        lifted, classes = lcm(period, cert["period"]), set(cert["surviving_classes"])
        surviving = sorted(r for r0 in surviving for r in range(r0, lifted, period)
                           if r % cert["period"] in classes)
        period = lifted
    assert combo["combined_period"] == period
    assert combo["valid_from"] == max([p_min] + [cert["n_threshold"] for cert in sieves])
    assert combo["surviving_classes"] == surviving

    # n is prime in decide: a class r with g = gcd(r, K) > 1 holds at most the prime g
    open_classes = [r for r in surviving if gcd(r, period) == 1]
    if surviving:
        closure = next(t for t in trace if t["rule"] == "prime_class_closure")
        assert closure["open_classes"] == open_classes
        assert closure["closed_classes"] == [{"residue": r, "gcd": gcd(r, period)}
                                             for r in surviving if gcd(r, period) != 1]
    assert (branch["status"] == "open") == bool(open_classes)

    if branch["status"] == "closed_finite_n":
        finite = next(t for t in trace if t["rule"] == "finite_checks")
        must_check = {n for n in range(p_min, combo["valid_from"]) if parity_ok(n, parity)}
        # a prime the closed classes hold at or past valid_from is checked too
        must_check |= {r for r in surviving if r >= combo["valid_from"] and naive_is_prime(r)
                       and gcd(r, period) == r}
        assert set(finite["n_values"]) == must_check
        expected = [s for n in sorted(must_check)
                    if (s := exact_solution(d, c, n)) is not None]
        assert finite["solutions"] == expected
        assert branch["solutions"] == expected
        return

    # an open branch lists every solution up to its bound, each exponent tested
    search = next(t for t in trace if t["rule"] == "direct_search")
    expected = [s for n in range(p_min, search["n_max"] + 1)
                if parity_ok(n, parity) and (s := exact_solution(d, c, n)) is not None]
    assert search["n_min"] == p_min and search["solutions"] == expected
    assert branch["solutions"] == sorted(expected)


def check_perfectness(report: dict, entry: dict, value: int, decisive: bool) -> None:
    """An odd value below 10^1500 is not perfect (Ochem and Rao, 2012).

    That bound is the only rule: a value at or past it must be "unknown"
    with no rule.  When the verdict rests on the value (every check of a
    delta the mod-12 filter does not block), it must not be "eliminated".
    """
    assert value % 2 == 1
    if entry["rule"] == "odd_perfect_bound":
        assert entry["perfect_status"] == "not_perfect"
        assert value < 10**1500
        assert report["certificates"]["odd_perfect_bound"]["log10_bound"] == 1500
        return
    assert entry["rule"] is None and entry["perfect_status"] == "unknown"
    assert value >= 10**1500
    if decisive:
        assert report["verdict"] != "eliminated"


def check_report(report: dict) -> None:
    delta = report["delta"]
    assert delta >= 1 and delta % 2 == 1

    touchard = report["certificates"]["touchard"]
    assert touchard["residue_mod_12"] == delta % 12
    assert touchard["blocked"] == (delta % 12 in (1, 11))
    if touchard["blocked"]:
        assert report["verdict"] == "eliminated"
        check_perfectness(report, report["delta_plus_6"], delta + 6, decisive=False)
        return

    b = report["case_analysis"]["b"]
    assert b * (b - 1) // 2 == delta and delta % 4 == 3

    d6 = report["delta_plus_6"]
    assert d6["value"] == delta + 6
    if d6["perfect_status"] == "not_perfect":
        assert naive_sigma(delta + 6) != 2 * (delta + 6)
    check_perfectness(report, d6, delta + 6, decisive=True)

    floor = report["certificates"]["exponent_floor"]
    p_min, parity = floor["p_min"], floor["n_parity"]
    assert naive_is_prime(p_min)
    assert (1 << (p_min - 1)) * ((1 << p_min) - 1) > delta
    smaller = [p for p in range(2, p_min) if naive_is_prime(p)]
    assert all((1 << (p - 1)) * ((1 << p) - 1) <= delta for p in smaller)
    assert parity == ("odd" if p_min > 2 else "any")

    # branch coverage: surviving + pruned = sides x squarefree divisors
    divisors = naive_squarefree_divisors(2 * (2 * b - 1))
    covered = {(br["side"], br["d"]) for br in report["branches"]}
    for pruned in report["certificates"]["parity_pruning"]:
        side, d = pruned["side"], pruned["d"]
        covered.add((side, d))
        const = b - 1 if side == "A" else b
        v = pruned["side_value_v2"]
        assert v == (0 if const % 2 else (const & -const).bit_length() - 1)
        # the valuation argument really excludes this d for p > v
        assert (d % 2 == 0) != (v % 2 == 1)
        checked = {chk["p"] for chk in pruned["small_prime_checks"]}
        assert checked == {p for p in range(2, v + 1) if naive_is_prime(p)}
        for chk in pruned["small_prime_checks"]:
            assert exact_solution(d, pruned["c"], chk["p"]) == chk["solution"]
    assert covered == {(s, d) for s in ("A", "B") for d in divisors}

    for branch in report["branches"]:
        assert branch["c"] == (1 - b if branch["side"] == "A" else b)
        check_branch(branch, p_min, parity)

    # every prime exponent exhibited by a branch must have been checked
    exhibited = {s[1] for br in report["branches"] for s in br["solutions"]
                 if naive_is_prime(s[1])}
    checked_ps = {c["p"] for c in report["candidates"]}
    assert exhibited <= checked_ps

    for cand in report["candidates"]:
        p = cand["p"]
        assert naive_is_prime(p)
        q = cand["mersenne_factor"]
        if q is not None:
            # a factor certifies 2^p - 1 composite with one modular power
            assert cand["mersenne_status"] == "composite"
            assert 1 < q < (1 << p) - 1 and pow(2, p, q) == 1
        mersenne_prime = naive_is_prime((1 << p) - 1)
        assert (cand["mersenne_status"] == "prime") == mersenne_prime
        if not mersenne_prime:
            continue
        m = (1 << (p - 1)) * ((1 << p) - 1)
        assert cand["m"] == m and cand["n_candidate"] == m - delta
        if cand["perfect_status"] == "not_perfect":
            assert naive_sigma(m - delta) != 2 * (m - delta)
        check_perfectness(report, cand, m - delta, decisive=True)

    if report["verdict"] == "eliminated":
        assert d6["perfect_status"] == "not_perfect"
        assert all(br["status"] in ("closed_complete", "closed_finite_n")
                   for br in report["branches"])
        assert all(c["outcome"] == "eliminated" for c in report["candidates"])
        assert report["obstructions"] == []


def test_certificates_replay_for_worked_deltas():
    for delta in (3, 15, 231):
        report = json.loads(decide(delta).to_json())
        assert report["verdict"] == "eliminated"
        check_report(report)


def test_certificates_replay_for_every_in_scope_delta_below_b_100():
    verdicts = []
    for b in range(3, 100):
        delta = b * (b - 1) // 2
        if delta % 4 == 3:
            report = json.loads(decide(delta).to_json())
            check_report(report)
            verdicts.append(report["verdict"])
    assert len(verdicts) == 25 and {"eliminated", "inconclusive"} <= set(verdicts)


def test_certificates_replay_for_blocked_and_inconclusive():
    report = json.loads(decide(11).to_json())
    check_report(report)

    # delta + 6 past the odd-perfect bound: the mod-12 filter alone eliminates
    report = json.loads(decide(10**1500 + 9).to_json())
    assert report["verdict"] == "eliminated"
    assert report["delta_plus_6"]["perfect_status"] == "unknown"
    check_report(report)

    report = json.loads(decide(55).to_json())
    assert report["verdict"] == "inconclusive"
    check_report(report)
    assert any(br["status"] == "open" for br in report["branches"])
    assert report["obstructions"]
