"""Re-verify emitted elimination certificates from the JSON alone.

Everything here is recomputed with naive arithmetic (trial division,
divisor enumeration, direct congruence scans); the only perfdist calls are
those that produce the certificates.  A failure means a certificate cannot
be checked independently, which defeats its purpose.
"""

import copy
import json
from math import gcd, isqrt, lcm

import pytest

from perfdist.decider import decide
from perfdist.rn import RNEquation, analyze

# the sieve moduli of the method, in the order their classes are intersected
MODULI = [64, 9, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]
# b = 2^55 + 3, and b = 2^p - 2x^2 with 2b - 1 prime, which forces the candidate exponent p
LARGE_B = [(1 << 55) + 3] + [(1 << p) - 2 * x * x
                             for p, x in ((127, 31), (61, 59), (89, 17), (107, 41))]
# the one cited closure: (d, c) = (5, 3), its complete solutions and its citation
CITED_ROW = (5, 3, [[1, 3], [5, 7]],
             "Ramanujan-Nagell literature: 5x^2 + 3 = 2^n has exactly (x,n) = (1,3), (5,7) "
             "in positive integers")


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


def naive_v2(n: int) -> int:
    e = 0
    while n % 2 == 0:
        n, e = n // 2, e + 1
    return e


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


def naive_classes(d: int, c: int, m: int) -> tuple[int, int, set[int]]:
    """(threshold, period, classes) of d*x^2 + c = 2^n mod m: from n = threshold
    on, 2^n mod m repeats with the period, and a class r survives iff some
    x mod m reaches the value of 2^n there."""
    threshold, period = naive_power_cycle(m)
    reachable = {(d * x * x + c) % m for x in range(m)}
    classes = {r for r in range(period)
               if pow(2, threshold + (r - threshold) % period, m) in reachable}
    return threshold, period, classes


# --- certificate replay ----------------------------------------------------


def check_branch(branch: dict, moduli: list[int], p_min: int, parity: str) -> None:
    """Replay one branch: the sieve moduli come from the report's config, and
    p_min and the parity of n from its exponent floor."""
    d, c = branch["d"], branch["c"]
    trace = branch["rule_trace"]
    rules = [t["rule"] for t in trace]

    for s in branch["solutions"]:
        assert exact_solution(d, c, s[1]) == s
        assert s[1] >= p_min and parity_ok(s[1], parity)

    if branch["status"] == "closed_complete":
        # only the cited row closes a branch without a sieve certificate
        head = trace[0]
        assert rules == ["completeness_table"]
        assert (d, c, head["complete_solutions"], head["source"]) == CITED_ROW
        for s in head["complete_solutions"]:
            assert exact_solution(d, c, s[1]) == s
        assert branch["solutions"] == [s for s in head["complete_solutions"]
                                       if s[1] >= p_min and parity_ok(s[1], parity)]
        return

    cert = trace[0]
    assert rules == ["sieve", "direct_search" if branch["status"] == "open" else "finite_checks"]

    # the classes of each modulus, intersected in order and lifted one
    # modulus at a time: a residue r mod K stands for r, r + K, ... mod
    # lcm(K, period), each kept iff its class mod the modulus's period
    # survived; no residue is tested twice.  The combined period K and
    # valid_from, past which every n lies in a class, follow from the moduli
    period, surviving = 2, [r for r in range(2) if parity_ok(r, parity)]
    valid_from, emptied_at = p_min, None
    for m in moduli:
        threshold, m_period, classes = naive_classes(d, c, m)
        lifted = lcm(period, m_period)
        surviving = sorted(r for r0 in surviving for r in range(r0, lifted, period)
                           if r % m_period in classes)
        period, valid_from = lifted, max(valid_from, threshold)
        if not surviving and emptied_at is None:
            emptied_at = m
    assert cert["emptied_at"] == emptied_at

    # n is prime: a class r with g = gcd(r, K) > 1 holds at most the prime g
    open_classes = [r for r in surviving if gcd(r, period) == 1]
    assert cert["open_classes"] == open_classes
    assert (branch["status"] == "open") == bool(open_classes)

    if branch["status"] == "closed_finite_n":
        must_check = {n for n in range(p_min, valid_from) if parity_ok(n, parity)}
        # a prime the closed classes hold at or past valid_from is checked too
        must_check |= {r for r in surviving if r >= valid_from and naive_is_prime(r)
                       and gcd(r, period) == r}
        assert trace[1]["n_values"] == sorted(must_check)
        assert branch["solutions"] == [s for n in sorted(must_check)
                                       if (s := exact_solution(d, c, n)) is not None]
        return

    # an open branch lists every solution up to its bound, each exponent tested
    assert branch["solutions"] == [s for n in range(p_min, trace[1]["n_max"] + 1)
                                   if parity_ok(n, parity)
                                   and (s := exact_solution(d, c, n)) is not None]


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


def check_exponent_floor(report: dict) -> tuple[int, str]:
    """(p_min, n_parity) of the report, once p_min is checked to be the
    least prime p with 2^(p-1)*(2^p - 1) > delta."""
    delta = report["delta"]
    floor = report["certificates"]["exponent_floor"]
    p_min, parity = floor["p_min"], floor["n_parity"]
    assert naive_is_prime(p_min)
    assert (1 << (p_min - 1)) * ((1 << p_min) - 1) > delta
    smaller = [p for p in range(2, p_min) if naive_is_prime(p)]
    assert all((1 << (p - 1)) * ((1 << p) - 1) <= delta for p in smaller)
    assert parity == ("odd" if p_min > 2 else "any")
    return p_min, parity


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

    p_min, parity = check_exponent_floor(report)
    moduli = report["config"]["moduli"]
    assert moduli == MODULI

    # branch coverage: one parity claim per side, in side order; on each side
    # the surviving d are exactly the squarefree divisors d of 2(2b - 1) with
    # v2(d) = v mod 2, where v = v2(c) is the valuation of the side value
    # 2^p - c for p > v, and every exponent p <= v lies below the floor
    divisors = sorted(naive_squarefree_divisors(2 * (2 * b - 1)))
    pruning = report["certificates"]["parity_pruning"]
    assert [e["side"] for e in pruning] == ["A", "B"]
    expected = []
    for e in pruning:
        v = e["side_value_v2"]
        assert e["c"] == (1 - b if e["side"] == "A" else b)
        assert v == naive_v2(e["c"]) and v < p_min
        expected += [(e["side"], d) for d in divisors if naive_v2(d) % 2 == v % 2]
    assert [(br["side"], br["d"]) for br in report["branches"]] == expected

    for branch in report["branches"]:
        assert branch["c"] == (1 - b if branch["side"] == "A" else b)
        check_branch(branch, moduli, p_min, parity)

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


def test_certificates_replay_for_every_in_scope_delta_below_b_3000():
    # the benchmark scan's range: every report it decides is replayed
    verdicts = []
    for b in range(3, 3000):
        delta = b * (b - 1) // 2
        if delta % 4 == 3:
            report = json.loads(decide(delta).to_json())
            check_report(report)
            verdicts.append(report["verdict"])
    assert len(verdicts) == 750 and {"eliminated", "inconclusive"} <= set(verdicts)


def test_certificates_replay_for_the_large_deltas():
    # 2b - 1 and 2^p - 1 are too large for naive divisors, sigma and trial
    # division, so branch coverage and candidates go unchecked here; the
    # exponent floor and every branch certificate are replayed
    statuses = set()
    for b in LARGE_B:
        report = json.loads(decide(b * (b - 1) // 2).to_json())
        p_min, parity = check_exponent_floor(report)
        assert report["config"]["moduli"] == MODULI and report["branches"]
        for branch in report["branches"]:
            check_branch(branch, MODULI, p_min, parity)
            statuses.add(branch["status"])
    assert {"closed_finite_n", "open"} <= statuses


def _altered(branch: dict) -> list[dict]:
    """Copies of a sieved branch, each with one of its own facts altered."""
    cert, last = branch["rule_trace"][0], branch["rule_trace"][-1]
    open_classes, period = cert["open_classes"], lcm(2, *(naive_power_cycle(m)[1] for m in MODULI))
    extra = next(r for r in range(1, period) if gcd(r, period) == 1 and r not in open_classes)
    changes = [
        (0, "emptied_at", None if cert["emptied_at"] else 43),
        (0, "emptied_at", 9 if cert["emptied_at"] == 64 else 64),
        (0, "open_classes", sorted([*open_classes, extra])),
    ]
    if open_classes:
        changes += [(0, "open_classes", open_classes[1:]), (0, "open_classes", open_classes[:-1])]
    if last["rule"] == "finite_checks":
        values = last["n_values"]
        changes += [(-1, "n_values", changed)
                    for changed in (values[:-1], values[1:], [*values, values[-1] + 2])]
    out = []
    for index, field, value in changes:
        altered = copy.deepcopy(branch)
        altered["rule_trace"][index][field] = value
        out.append(altered)
    if branch["solutions"]:
        out.append({**copy.deepcopy(branch), "solutions": branch["solutions"][:-1]})
    return out


def _altered_shared(report: dict) -> list[dict]:
    """Copies of a report, each with the moduli of its config or the parity of
    its exponent floor altered: the facts every sieve certificate reads."""
    moduli, floor = report["config"]["moduli"], report["certificates"]["exponent_floor"]
    out = []
    for changed in (moduli[:-1], moduli[1:], [moduli[1], moduli[0], *moduli[2:]],
                    [*moduli[:6], moduli[7], moduli[6], *moduli[8:]]):
        out.append(copy.deepcopy(report))
        out[-1]["config"]["moduli"] = changed
    out.append(copy.deepcopy(report))
    out[-1]["certificates"]["exponent_floor"]["n_parity"] = \
        "any" if floor["n_parity"] == "odd" else "odd"
    return out


def _branch(report: dict, side: str, d: int) -> dict:
    return next(br for br in report["branches"] if (br["side"], br["d"]) == (side, d))


def test_checker_rejects_each_altered_sieve_certificate():
    # branches emptied at 64, one whose kept classes all share a factor with
    # 27720, one closed by the prime classes alone, and an open one: the
    # checker accepts each as rendered and no altered copy
    report_3, report_15, report_55 = (json.loads(decide(delta).to_json())
                                      for delta in (3, 15, 55))
    opened = next(br for br in report_55["branches"] if br["status"] == "open")
    # 3x^2 + 125 = 2^n: every class left for odd n >= 3 is a multiple of 7
    st = analyze(RNEquation(3, 125), 3)
    by_primes = json.loads(json.dumps({
        "side": "A", "d": 3, "c": 125, "status": st.status,
        "solutions": [s.as_pair() for s in st.solutions], "rule_trace": list(st.rule_trace)}))
    cases = [(_branch(report_15, "A", 1), report_15), (_branch(report_15, "B", 2), report_15),
             (_branch(report_3, "A", 2), report_3), (by_primes, None), (opened, report_55)]
    assert [br["rule_trace"][0]["emptied_at"] for br, _ in cases] == [64, 64, None, None, None]
    assert [br["status"] for br, _ in cases] == ["closed_finite_n"] * 4 + ["open"]
    assert [br["solutions"] for br, _ in cases[1:3]] == [[[1, 3]], [[3, 4]]]
    assert by_primes["rule_trace"][-1]["n_values"] == [3, 5, 7]
    for branch, report in cases:
        p_min, parity = check_exponent_floor(report) if report else (3, "odd")
        check_branch(branch, MODULI, p_min, parity)
        if report:
            check_report(report)
        altered = _altered(branch)
        assert len(altered) >= 5
        for bad in altered:
            with pytest.raises(AssertionError):
                check_branch(bad, MODULI, p_min, parity)
            if report:
                # and the report check rejects the report that carries it
                bad_report = copy.deepcopy(report)
                bad_report["branches"] = [bad if br == branch else br for br in report["branches"]]
                with pytest.raises(AssertionError):
                    check_report(bad_report)
    # the moduli and the parity of n are stated once per report, and altering
    # either is rejected there
    for report in (report_3, report_15, report_55):
        altered = _altered_shared(report)
        assert len(altered) == 5
        for bad in altered:
            with pytest.raises(AssertionError):
                check_report(bad)


def _altered_pruning(report: dict) -> list[dict]:
    """Copies of a report, each with its parity-pruning certificate or its
    coverage altered."""
    pruning = report["certificates"]["parity_pruning"]
    first = pruning[0]
    # a surviving branch on the first side, and a copy of it whose d, a
    # divisor too, has the parity that side prunes
    kept = next(br for br in report["branches"] if br["side"] == first["side"])
    pruned_d = kept["d"] * 2 if kept["d"] % 2 else kept["d"] // 2
    out = []
    for i in range(len(pruning)):
        for shift in (1, 2):
            out.append(copy.deepcopy(report))
            out[-1]["certificates"]["parity_pruning"][i]["side_value_v2"] += shift
        out.append(copy.deepcopy(report))
        del out[-1]["certificates"]["parity_pruning"][i]
    repeated = copy.deepcopy(report)
    repeated["certificates"]["parity_pruning"].append(first)
    shifted = copy.deepcopy(report)
    # a wrong c of the same valuation: each side's v is 0 or 1 here
    shifted["certificates"]["parity_pruning"][0]["c"] += 4
    removed = copy.deepcopy(report)
    removed["branches"].remove(kept)
    added = copy.deepcopy(report)
    added["branches"].insert(0, {**copy.deepcopy(kept), "d": pruned_d})
    return out + [repeated, shifted, removed, added]


def test_checker_rejects_each_altered_parity_pruning():
    # a valuation off by one or two, a dropped side, a repeated side, a wrong
    # side constant, a surviving branch removed and a branch of the pruned
    # parity added: the checker accepts each report as rendered and no
    # altered copy
    for delta in (55, 231):
        report = json.loads(decide(delta).to_json())
        check_report(report)
        pruning = report["certificates"]["parity_pruning"]
        assert [(e["side"], e["side_value_v2"] % 2) for e in pruning] in (
            [("A", 0), ("B", 1)], [("A", 1), ("B", 0)])
        assert all(set(e) == {"side", "c", "side_value_v2", "reason"} for e in pruning)
        altered = _altered_pruning(report)
        assert len(altered) == 3 * len(pruning) + 4
        for bad in altered:
            with pytest.raises(AssertionError):
                check_report(bad)


def test_the_cited_row_is_the_only_completeness_table_entry():
    # every branch of delta = 15 is a sieve certificate; delta = 3 cites the row once
    report_3, report_15 = (json.loads(decide(delta).to_json()) for delta in (3, 15))
    cited = {delta: [(br["side"], br["d"]) for br in report["branches"]
                     if br["rule_trace"][0]["rule"] == "completeness_table"]
             for delta, report in ((3, report_3), (15, report_15))}
    assert cited == {3: [("B", 5)], 15: []}


def test_checker_accepts_only_the_cited_row():
    # entries that pass substitution and agree with their branch are still
    # rejected unless they are the cited row: one with another source, one
    # that drops (5, 7), and one for 2x^2 + 6 = 2^n in delta = 15's report
    report_3, report_15 = (json.loads(decide(delta).to_json()) for delta in (3, 15))
    row = _branch(report_3, "B", 5)
    check_branch(row, MODULI, 2, "any")
    other_source, dropped = copy.deepcopy(row), copy.deepcopy(row)
    other_source["rule_trace"][0]["source"] = "a proof"
    dropped["solutions"] = [[1, 3]]
    dropped["rule_trace"][0]["complete_solutions"] = [[1, 3]]
    b2 = _branch(report_15, "B", 2)
    cited = {**b2, "status": "closed_complete", "rule_trace": [{
        "rule": "completeness_table", "complete_solutions": [[1, 3]],
        "source": "elementary 2-adic descent: 2x^2 + 6 = 2^n has only (x,n) = (1,3)"}]}
    for bad, p_min, parity in ((other_source, 2, "any"), (dropped, 2, "any"), (cited, 3, "odd")):
        with pytest.raises(AssertionError):
            check_branch(bad, MODULI, p_min, parity)
    for bad, report, branch in ((other_source, report_3, row), (cited, report_15, b2)):
        bad_report = copy.deepcopy(report)
        bad_report["branches"] = [bad if br == branch else br for br in report["branches"]]
        with pytest.raises(AssertionError):
            check_report(bad_report)


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
