"""Output checks applied to every repetition; each failed item counts in failed_share.

The expectations are held here, not taken from perfdist: the eliminated
deltas of b = 3..2999 as recorded when the benchmark was defined
(eliminated_baseline.json), the candidate exponent each large delta forces,
and the published list of Mersenne exponents.
"""

from __future__ import annotations

import json
from pathlib import Path

# Every known Mersenne-prime exponent (GIMPS, as of October 2024).
PUBLISHED_MERSENNE_EXPONENTS = frozenset((
    2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217,
    4253, 4423, 9689, 9941, 11213, 19937, 21701, 23209, 44497, 86243, 110503, 132049,
    216091, 756839, 859433, 1257787, 1398269, 2976221, 3021377, 6972593, 13466917,
    20996011, 24036583, 25964951, 30402457, 32582657, 37156667, 42643801, 43112609,
    57885161, 74207281, 77232917, 82589933, 136279841,
))

EXIT_BY_VERDICT = {"eliminated": 0, "solution_found": 3}  # anything else exits 2


def load_eliminated_baseline() -> set[int]:
    path = Path(__file__).with_name("eliminated_baseline.json")
    return set(json.loads(path.read_text())["eliminated_b"])


def parse_records(text: str) -> dict[int, dict]:
    records = (json.loads(line) for line in text.splitlines() if line.strip())
    return {rec["delta"]: rec for rec in records}


def scan_failures(j1_text: str, j2_text: str, b_range: range,
                  eliminated_b: set[int]) -> dict[int, list[str]]:
    """For every in-scope b of the range, the reasons its scan records fail (empty if none).

    The jobs-1 and jobs-2 record files must hold the same record for every
    in-scope delta, apart from elapsed_ms; no record may report a solution;
    and a delta eliminated in the baseline must still be eliminated.
    """
    j1, j2 = parse_records(j1_text), parse_records(j2_text)
    failures: dict[int, list[str]] = {}
    for b in b_range:
        delta = b * (b - 1) // 2
        if delta % 4 != 3:
            continue
        reasons = []
        r1, r2 = j1.get(delta), j2.get(delta)
        if r1 is None or r2 is None:
            reasons.append("record missing")
        else:
            if ({k: v for k, v in r1.items() if k != "elapsed_ms"}
                    != {k: v for k, v in r2.items() if k != "elapsed_ms"}):
                reasons.append("jobs-1 and jobs-2 records differ")
            if r1["verdict"] == "solution_found":
                reasons.append("solution_found")
            if b in eliminated_b and r1["verdict"] != "eliminated":
                reasons.append(f"eliminated at baseline, now {r1['verdict']}")
        failures[b] = reasons
    return failures


def scan_exit_expected(records: dict[int, dict]) -> int:
    solved = any(rec["verdict"] == "solution_found" for rec in records.values())
    return 3 if solved else 0


def decide_failures(result: dict, expected_candidates: list[int]) -> list[str]:
    reasons = []
    if result["candidates"] != expected_candidates:
        reasons.append(f"candidates {result['candidates']} != {expected_candidates}")
    if result["verdict"] == "solution_found":
        reasons.append("solution_found")
    if result["cli_verdict"] != result["verdict"]:
        reasons.append("command-line verdict differs from library verdict")
    if result["cli_exit"] != EXIT_BY_VERDICT.get(result["verdict"], 2):
        reasons.append(f"exit code {result['cli_exit']} for verdict {result['verdict']}")
    return reasons


def candidate_failures(result: dict, p: int) -> list[str]:
    expected = "prime" if p in PUBLISHED_MERSENNE_EXPONENTS else "composite"
    if result["mersenne_status"] != expected:
        return [f"2^{p} - 1 reported {result['mersenne_status']}, published: {expected}"]
    return []
