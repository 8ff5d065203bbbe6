"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v`; the per-criterion lines are
repeated in the terminal summary.
"""

import json
import random
import time
from math import isqrt

import numpy as np

from perfdist.arith import factorize, is_perfect, is_prime, sigma
from perfdist.cli import main
from perfdist.mersenne import lucas_lehmer
from perfdist.rn import RNEquation, adjacent_powers, direct_search, sieve

from conftest import acceptance_results
from oracles import brute_rn_solutions_fast, sigma_table, trial_division_is_prime


def _verdict(num: int, ok: bool, note: str = "") -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'}" + (f" ({note})" if note else "")
    print(line)
    acceptance_results.append(line)
    assert ok, line


def _cli_decide(capsys, delta: str):
    t0 = time.perf_counter()
    code = main(["decide", delta, "--json"])
    elapsed = time.perf_counter() - t0
    report = json.loads(capsys.readouterr().out)
    return code, report, elapsed


def _branch_map(report: dict) -> dict:
    return {(br["side"], br["d"]): br for br in report["branches"]}


def test_criterion_1_decide_3(capsys):
    code, rep, elapsed = _cli_decide(capsys, "3")

    ok = code == 0 and rep["verdict"] == "eliminated" and elapsed < 5.0
    ok &= rep["delta_plus_6"] == {"value": 9, "perfect_status": "not_perfect",
                                  "rule": "odd_perfect_bound"}

    branches = _branch_map(rep)
    ok &= set(branches) == {("A", 2), ("A", 10), ("B", 1), ("B", 5)}

    table_trace = branches[("B", 5)]["rule_trace"][0]
    ok &= table_trace["rule"] == "completeness_table"
    ok &= table_trace["complete_solutions"] == [[1, 3], [5, 7]]

    by_p = {c["p"]: c for c in rep["candidates"]}
    ok &= by_p[3]["n_candidate"] == 25 and by_p[3]["perfect_status"] == "not_perfect"
    ok &= by_p[7]["n_candidate"] == 8125 and by_p[7]["perfect_status"] == "not_perfect"

    ok &= branches[("A", 2)]["status"] == "closed_complete"
    ok &= branches[("A", 2)]["rule_trace"][0]["rule"] == "adjacent_powers"
    for key in (("B", 1), ("A", 10)):
        rules = [t["rule"] for t in branches[key]["rule_trace"]]
        ok &= branches[key]["status"] == "closed_finite_n"
        ok &= "sieve" in rules and "finite_checks" in rules

    _verdict(1, ok, f"{elapsed:.2f}s")


def test_criterion_2_decide_15(capsys):
    code, rep, elapsed = _cli_decide(capsys, "15")

    ok = code == 0 and rep["verdict"] == "eliminated" and elapsed < 5.0
    branches = _branch_map(rep)
    ok &= [(br["side"], br["d"]) for br in rep["branches"]] == [
        ("A", 1), ("A", 11), ("B", 2), ("B", 22)]

    for key in (("A", 1), ("A", 11)):
        # x^2 = 5 has no root mod 8, so none mod 64, the 2-adic sieve modulus
        sieved = [t for t in branches[key]["rule_trace"] if t["rule"] == "sieve"]
        ok &= len(sieved) == 1 and sieved[0]["emptied_at"] == 64
        ok &= branches[key]["status"] == "closed_finite_n"
        ok &= branches[key]["solutions"] == []

    b2 = branches[("B", 2)]
    ok &= b2["status"] == "closed_complete"
    ok &= b2["rule_trace"][0]["rule"] == "completeness_table"
    ok &= b2["solutions"] == [[1, 3]]

    ok &= [c["p"] for c in rep["candidates"]] == [3]
    ok &= rep["candidates"][0]["n_candidate"] == 13
    ok &= rep["candidates"][0]["perfect_status"] == "not_perfect"

    _verdict(2, ok, f"{elapsed:.2f}s")


def test_criterion_3_decide_11_touchard_only(capsys):
    code, rep, _ = _cli_decide(capsys, "11")
    ok = code == 0 and rep["verdict"] == "eliminated"
    ok &= rep["certificates"]["touchard"]["blocked"]
    ok &= rep["certificates"]["touchard"]["residue_mod_12"] == 11
    ok &= rep["branches"] == [] and rep["candidates"] == []
    _verdict(3, ok)


def test_criterion_4_rn_solve_5_3(capsys):
    t0 = time.perf_counter()
    code = main(["rn", "solve", "5", "3", "--n-max", "200", "--json"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    ok = code == 0 and elapsed < 1.0
    ok &= json.loads(out)["solutions"] == [[1, 3], [5, 7]]
    _verdict(4, ok, f"{elapsed:.3f}s")


def test_criterion_5_sieve_reproductions():
    cases = [
        (RNEquation(1, 6), 3, 0, "odd"),
        (RNEquation(11, 6), 4, 2, "any"),
        (RNEquation(1, -5), 8, 3, "any"),
        (RNEquation(11, -5), 8, 3, "any"),
    ]
    ok = True
    for eq, modulus, n_min, parity in cases:
        report = sieve(eq, modulus, n_min=n_min, n_parity=parity)
        ok &= report.surviving_classes == ()
    _verdict(5, ok)


def test_criterion_6a_sigma_vs_bruteforce_to_1e5():
    t0 = time.perf_counter()
    table = sigma_table(100_000)
    ok = all(sigma(factorize(n)) == table[n] for n in range(1, 100_001))
    _verdict(6, ok, f"6a sigma<=1e5, {time.perf_counter() - t0:.1f}s")


def test_criterion_6b_perfect_set_to_3_4e7():
    t0 = time.perf_counter()
    # exhaustive below 1e6 with an independent divisor-sieve oracle
    limit = 1_000_000
    acc = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit // 2 + 1):
        acc[2 * d::d] += d
    acc[1:] += np.arange(1, limit + 1, dtype=np.int64)
    hits = (np.nonzero(acc[1:] == 2 * np.arange(1, limit + 1, dtype=np.int64))[0] + 1).tolist()
    ok = hits == [6, 28, 496, 8128]

    known = [6, 28, 496, 8128, 33550336]
    ok &= all(is_perfect(n) == "perfect" for n in known)

    rng = random.Random(340)
    checked = 0
    while checked < 2000:
        n = rng.randrange(1_000_001, 34_000_001)
        if n in known:
            continue
        ok &= is_perfect(n) == "not_perfect"
        checked += 1
    _verdict(6, ok, f"6b perfect set<=3.4e7, {time.perf_counter() - t0:.1f}s")


def test_criterion_6c_lucas_lehmer_vs_trial_division():
    ok = True
    for p in range(3, 32):
        if is_prime(p) != "prime":
            continue
        ok &= (lucas_lehmer(p) == "prime") == trial_division_is_prime(2**p - 1)
    _verdict(6, ok, "6c lucas-lehmer p<=31")


def test_criterion_6d_sieve_soundness_and_search_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(1000)
    moduli = (3, 4, 5, 7, 8, 9, 11, 13, 16, 32)
    ok = True
    count = 0
    while count < 1000:
        d = rng.randrange(1, 31)
        c = rng.randrange(-50, 51)
        if c == 0:
            continue
        try:
            eq = RNEquation(d, c)
        except ValueError:
            continue
        count += 1
        brute = brute_rn_solutions_fast(d, c, 40)
        ok &= [(s.x, s.n) for s in direct_search(eq, 0, 40)] == brute
        for m in moduli:
            report = sieve(eq, m)
            for x, n in brute:
                if n >= report.n_threshold:
                    ok &= n % report.period in report.surviving_classes
    _verdict(6, ok, f"6d {count} equations, {time.perf_counter() - t0:.1f}s")


def test_criterion_6e_adjacent_powers_exhaustive():
    t0 = time.perf_counter()
    xs = np.arange(1, 1_000_001, dtype=np.int64)
    found_plus = set()
    found_minus = set()
    for sign, bucket in ((1, found_plus), (-1, found_minus)):
        t = xs * xs + sign
        mask = (t > 0) & ((t & (t - 1)) == 0)
        for x, tv in zip(xs[mask].tolist(), t[mask].tolist()):
            bucket.add((int(x), int(tv).bit_length() - 1))
    # m-scan complements the x-scan out to m = 60
    for m in range(61):
        for sign, bucket in ((1, found_plus), (-1, found_minus)):
            t = (1 << m) - sign
            r = isqrt(t) if t >= 0 else -1
            if r >= 1 and r * r == t:
                bucket.add((r, m))
    plus = {(s.x, s.n) for s in adjacent_powers(RNEquation(1, 1))}
    minus = {(s.x, s.n) for s in adjacent_powers(RNEquation(1, -1))}
    ok = found_plus == plus == {(1, 1)}
    ok &= found_minus == minus == {(3, 3)}
    _verdict(6, ok, f"6e x<=1e6 m<=60, {time.perf_counter() - t0:.1f}s")


def test_criterion_7_scan_3_to_30(tmp_path, capsys):
    out_file = tmp_path / "scan.jsonl"
    t0 = time.perf_counter()
    code = main(["scan", "--b-from", "3", "--b-to", "30", "--out", str(out_file)])
    elapsed = time.perf_counter() - t0
    capsys.readouterr()

    ok = code == 0
    first = out_file.read_bytes()
    records = [json.loads(line) for line in first.decode().splitlines()]

    expected_deltas = [b * (b - 1) // 2 for b in range(3, 31)
                       if (b * (b - 1) // 2) % 4 == 3]
    ok &= [r["delta"] for r in records] == expected_deltas
    verdicts = {r["delta"]: r["verdict"] for r in records}
    ok &= verdicts[3] == "eliminated" and verdicts[15] == "eliminated"
    ok &= all(v != "solution_found" for v in verdicts.values())

    code2 = main(["scan", "--b-from", "3", "--b-to", "30", "--out", str(out_file)])
    capsys.readouterr()
    ok &= code2 == 0 and out_file.read_bytes() == first

    _verdict(7, ok, f"{len(records)} records, {elapsed:.1f}s")
