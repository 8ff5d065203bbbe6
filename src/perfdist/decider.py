"""The full decision procedure for one odd delta.

Pipeline: the mod-12 congruence filter (delta = +-1 mod 12 can never be a
distance between perfect numbers), scope check (the method needs delta
triangular and 3 mod 4), the delta+6 perfectness check, branch generation
over squarefree divisors with 2-adic parity pruning, equation analysis
with n restricted to primes, and verification of every candidate exponent
(a small-factor search on 2^p - 1, then Lucas-Lehmer, then a perfectness
check).  Both perfectness checks are on odd numbers, and one rule settles
them: the Ochem-Rao bound, no odd perfect number lies below 10**1500.  A
value at or above it is reported "unknown", never factored.  The report
carries enough certificates to re-check the verdict independently.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from . import mersenne
from .arith import (
    DEFAULT_BUDGET,
    MILLER_RABIN_ROUNDS,
    TRIAL_DIVISION_BOUND,
    FactorBudgetError,
    is_perfect,
    is_prime,
    squarefree_divisors,
    triangular_index,
    v2,
)
from .rn import (
    BUILTIN_TABLE,
    BranchStatus,
    DEFAULT_MODULI,
    DEFAULT_N_MAX,
    RNEquation,
    analyze,
    n_constraints,
)


# Ochem and Rao proved that every odd perfect number exceeds 10**1500, so an
# odd n below it is not perfect.  A proven theorem, not a setting: decide()
# takes no argument for it, but config() hashes it.
ODD_PERFECT_LOG10_BOUND = 1500
ODD_PERFECT_SOURCE = ("P. Ochem and M. Rao, Odd perfect numbers are greater than 10^1500, "
                      "Math. Comp. 81 (2012), 1869-1877")
_ODD_PERFECT_LIMIT = 10**ODD_PERFECT_LOG10_BOUND


def _odd_perfect_check(value: int) -> tuple[str, str | None]:
    # (perfect_status, rule) of an odd value: only the bound settles it
    if value % 2 == 0:
        raise ValueError("the odd-perfect bound settles odd values only")
    if value < _ODD_PERFECT_LIMIT:
        return "not_perfect", "odd_perfect_bound"
    return "unknown", None


def canonical_json(obj) -> str:
    """Stable serialization: sorted keys, compact separators, ASCII only."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def config(budget: int) -> dict:
    """Everything decide() depends on besides delta: the Brent-rho `budget`
    and the fixed constants of the method (sieve moduli, search bound,
    trial-division bound, Miller-Rabin rounds, exponent cap, odd-perfect
    bound and the one cited row of rn.BUILTIN_TABLE).  The fingerprint
    hashes it, so changing any one of them invalidates older scan records.
    """
    return {
        "moduli": list(DEFAULT_MODULI),
        "n_max": DEFAULT_N_MAX,
        "budget": {"trial_division_bound": TRIAL_DIVISION_BOUND,
                   "rho_iteration_budget": budget,
                   "primality_rounds": MILLER_RABIN_ROUNDS},
        "exponent_cap": mersenne.DEFAULT_EXPONENT_CAP,
        "odd_perfect_log10_bound": ODD_PERFECT_LOG10_BOUND,
        "table": [e.to_dict() for e in BUILTIN_TABLE.values()],
    }


def fingerprint(budget: int) -> str:
    """The first 16 hex digits of the SHA-256 of config(budget) as canonical JSON."""
    import hashlib  # here, not at import: only fingerprints use it, and loading it is slow

    digest = hashlib.sha256(canonical_json(config(budget)).encode("ascii"))
    return digest.hexdigest()[:16]


class CaseAnalysis(NamedTuple):
    """Congruence and triangularity facts that route delta through the procedure."""

    delta: int
    touchard_blocked: bool
    mod4_class: int
    b: int | None
    in_scope: bool

    def to_dict(self) -> dict:
        return self._asdict()


def case_analysis(delta: int) -> CaseAnalysis:
    """Classify an odd delta: mod-12 blocking, mod-4 class, triangular index, scope."""
    if delta < 1 or delta % 2 == 0:
        raise ValueError("delta must be a positive odd integer")
    blocked = delta % 12 in (1, 11)
    mod4 = delta % 4
    b = triangular_index(delta)
    in_scope = blocked or (mod4 == 3 and b is not None)
    return CaseAnalysis(delta, blocked, mod4, b, in_scope)


class Branch(NamedTuple):
    """One (side, d) pair: side A encodes 2**p = d*x**2 - b + 1, side B 2**p = d*x**2 + b."""

    side: str  # "A" | "B"
    d: int
    c: int
    status: BranchStatus

    def to_dict(self) -> dict:
        return {"side": self.side, "d": self.d, "c": self.c, "status": self.status.status,
                "solutions": [s.as_pair() for s in self.status.solutions],
                "rule_trace": list(self.status.rule_trace)}


class BranchGeneration(NamedTuple):
    """Surviving branches plus the facts behind every pruned (side, d) pair.

    `surviving` holds (side, d, c) per surviving pair and `pruning` holds
    (side, d, c, v) per pruned pair, where v is the side value's 2-adic
    valuation for p > v.  `pruned` renders the pruning facts on each read.
    """

    surviving: tuple[tuple, ...]
    pruning: tuple[tuple, ...]

    @property
    def pruned(self) -> tuple[dict, ...]:
        # the side value is 2**p - c: 2**p + (b - 1) on A, 2**p - b on B
        return tuple({
            "side": side, "d": d, "c": c, "side_value_v2": v,
            "reason": (f"v2(2^p {'+' if side == 'A' else '-'} {abs(c)}) = {v} for p > {v}, "
                       f"while v2(d*x^2) = {v2(d)} mod 2 != {v} mod 2"),
        } for side, d, c, v in self.pruning)


def generate_branches(b: int, budget: int = DEFAULT_BUDGET) -> BranchGeneration:
    """Enumerate squarefree divisors of 2*(2b-1) per side and prune by 2-adic parity.

    Side A's value 2**p - 1 + b and side B's 2**p - b have a fixed 2-adic
    valuation v once p exceeds v, so v2(d) must match v mod 2 (x**2
    contributes an even valuation).  No exponent p <= v needs a check:
    2**v divides b - 1 or b, so 2**p <= b and 2**(p-1)*(2**p - 1) <=
    b*(b-1)/2 = delta, which puts p below decide's exponent floor.
    """
    if b < 3:
        raise ValueError("triangular index must be >= 3")
    divisors = squarefree_divisors(2 * (2 * b - 1), budget)
    surviving = []
    pruning = []
    for side in ("A", "B"):
        c = 1 - b if side == "A" else b
        # side value is 2**p + (b - 1) on A and 2**p - b on B
        const = b - 1 if side == "A" else b
        v = v2(const) if const % 2 == 0 else 0
        want_even_d = v % 2 == 1
        for d in divisors:
            if (d % 2 == 0) == want_even_d:
                surviving.append((side, d, c))
            else:
                pruning.append((side, d, c, v))
    # divisors come increasing and side A first, so branches are in (side, d) order
    return BranchGeneration(tuple(surviving), tuple(pruning))


class CandidateCheck(NamedTuple):
    """Verification record for one exponent p that survived branch analysis."""

    p: int
    mersenne_status: str  # "prime" | "composite" | "untested"
    m: int | None = None
    n_candidate: int | None = None
    perfect_status: str | None = None
    rule: str | None = None  # "odd_perfect_bound" once 1 <= m - delta < 10**1500
    mersenne_factor: int | None = None  # a factor of 2**p - 1 certifying "composite"

    @property
    def outcome(self) -> str:
        if self.mersenne_status == "composite":
            return "eliminated"
        if self.mersenne_status == "untested":
            return "unresolved"
        # m - delta < 1 leaves no positive partner; no rule can find m - delta perfect
        if self.perfect_status == "not_perfect" or self.n_candidate < 1:
            return "eliminated"
        return "unresolved"

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "mersenne_status": self.mersenne_status,
            "mersenne_factor": self.mersenne_factor,
            "m": self.m,
            "n_candidate": self.n_candidate,
            "perfect_status": self.perfect_status,
            "rule": self.rule,
            "outcome": self.outcome,
        }


def _ep_value(p: int) -> int:
    # candidate even-perfect value at exponent p, no primality assumed
    return (1 << (p - 1)) * ((1 << p) - 1)


def check_candidate(p: int, delta: int) -> CandidateCheck:
    """Test whether exponent p yields the pair (2**(p-1)*(2**p - 1), that minus delta).

    2**p - 1 is "composite" with its factor when `mersenne.small_factor`
    finds one (cached, so classify's search is not repeated), and then
    Lucas-Lehmer never runs.  m - delta is odd for odd delta; below
    10**1500 the Ochem-Rao bound settles it with no factoring, and at or
    above it the perfectness stays "unknown".
    """
    status = mersenne.classify(p)
    if status != "prime":
        factor = mersenne.small_factor(p) if status == "composite" else None
        return CandidateCheck(p, status, mersenne_factor=factor)
    m = _ep_value(p)
    n_cand = m - delta
    if n_cand < 1:
        return CandidateCheck(p, "prime", m, n_cand)
    return CandidateCheck(p, "prime", m, n_cand, *_odd_perfect_check(n_cand))


def _delta_plus_6_check(delta: int) -> dict:
    status, rule = _odd_perfect_check(delta + 6)
    return {"value": delta + 6, "perfect_status": status, "rule": rule}


class PairCheck(NamedTuple):
    """Perfectness of two integers and their distance."""

    x: int
    y: int
    x_status: str
    y_status: str
    both_perfect: bool
    distance: int

    def to_dict(self) -> dict:
        return self._asdict()


def verify_pair(x: int, y: int, budget: int = DEFAULT_BUDGET) -> PairCheck:
    """Report whether x and y are both perfect, and |x - y|."""
    if x < 1 or y < 1:
        raise ValueError("verify_pair requires positive integers")
    xs = is_perfect(x, budget)
    ys = is_perfect(y, budget)
    return PairCheck(x, y, xs, ys, xs == "perfect" and ys == "perfect", abs(x - y))


class DecisionReport(NamedTuple):
    """Verdict for one delta plus every certificate used to reach it."""

    delta: int
    case_analysis: CaseAnalysis
    delta_plus_6_check: dict | None
    branches: tuple[Branch, ...]
    candidates: tuple[CandidateCheck, ...]
    verdict: str  # "eliminated" | "inconclusive" | "out_of_scope"
    base_certificates: dict
    obstructions: tuple[str, ...]
    budget: int
    generation: BranchGeneration | None = None

    @property
    def certificates(self) -> dict:
        # parity_pruning is rendered from the generation on each read
        if self.generation is None:
            return dict(self.base_certificates)
        return {**self.base_certificates, "parity_pruning": list(self.generation.pruned)}

    def to_dict(self) -> dict:
        return {
            "delta": self.delta,
            "verdict": self.verdict,
            "case_analysis": self.case_analysis.to_dict(),
            "delta_plus_6": self.delta_plus_6_check,
            "branches": [br.to_dict() for br in self.branches],
            "candidates": [c.to_dict() for c in self.candidates],
            "certificates": self.certificates,
            "obstructions": list(self.obstructions),
            "config": config(self.budget),
            "config_fingerprint": fingerprint(self.budget),
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())


def _min_exponent(delta: int) -> int:
    # here 2^(p-1)*(2^p - 1) < 2^(2p-1) <= delta still holds
    p = max(2, (delta.bit_length() - 1) // 2)
    while _ep_value(p) <= delta:
        p += 1
        while is_prime(p) != "prime":
            p += 1
    return p


def decide(delta: int, budget: int = DEFAULT_BUDGET) -> DecisionReport:
    """Run the whole procedure on one odd delta and assemble the verdict.

    eliminated: delta provably cannot be the distance between two perfect
    numbers (every branch closed, every candidate refuted, delta+6 not
    perfect -- or the mod-12 filter already blocks it).  inconclusive: an
    open branch, an exhausted budget or a value past the odd-perfect bound
    stands in the way; the obstruction is named.  out_of_scope: the method
    does not cover this delta.  A pair would need an odd perfect number, so
    decide never returns "solution_found".  `budget` (at least 1) is the
    Brent-rho iteration budget of each factorization.
    """
    if budget < 1:
        raise ValueError(f"the factor budget must be >= 1, got {budget}")
    ca = case_analysis(delta)
    certificates: dict = {
        "touchard": {"residue_mod_12": delta % 12, "blocked": ca.touchard_blocked},
    }

    def report(verdict, d6=None, branches=(), candidates=(), obstructions=(), gen=None):
        rules = [d6["rule"]] if d6 else []
        rules += [c.rule for c in candidates]
        if "odd_perfect_bound" in rules:
            certificates["odd_perfect_bound"] = {
                "log10_bound": ODD_PERFECT_LOG10_BOUND,
                "statement": f"every odd perfect number exceeds 10^{ODD_PERFECT_LOG10_BOUND}",
                "source": ODD_PERFECT_SOURCE,
            }
        return DecisionReport(delta, ca, d6, tuple(branches), tuple(candidates),
                              verdict, certificates, tuple(obstructions), budget, gen)

    if ca.touchard_blocked:
        certificates["touchard"]["conclusion"] = (
            "delta = +-1 mod 12 can never be a distance between two perfect numbers")
        return report("eliminated", _delta_plus_6_check(delta))

    if not ca.in_scope:
        reason = ("delta = 1 mod 4 would require an odd perfect number exceeding an even one; "
                  "the factorization step needs delta = 3 mod 4"
                  if ca.mod4_class == 1 else
                  "delta is not a triangular number, so 2n = (2^p - 1 + b)(2^p - b) is unavailable")
        certificates["scope"] = {"mod4_class": ca.mod4_class, "b": ca.b, "reason": reason}
        return report("out_of_scope")

    obstructions: list[str] = []

    d6 = _delta_plus_6_check(delta)
    if d6["perfect_status"] == "unknown":
        obstructions.append(f"perfectness of delta + 6 = {d6['value']} unknown: "
                            f"not below the odd-perfect bound 10^{ODD_PERFECT_LOG10_BOUND}")

    assert ca.b is not None
    try:
        gen = generate_branches(ca.b, budget)
    except FactorBudgetError:
        obstructions.append(
            f"cannot enumerate squarefree divisors of 2*(2b-1) = {2 * (2 * ca.b - 1)} "
            "within factor budget")
        return report("inconclusive", d6, obstructions=obstructions)

    p_min = _min_exponent(delta)
    n_parity, _ = n_constraints(p_min)
    certificates["exponent_floor"] = {
        "p_min": p_min,
        "n_parity": n_parity,
        "reason": "least prime p with 2^(p-1)*(2^p - 1) > delta; smaller p cannot give m - delta >= 1",
    }

    branches = []
    for side, d, c in gen.surviving:
        status = analyze(RNEquation(d, c, True), p_min)
        branches.append(tuple.__new__(Branch, (side, d, c, status)))  # skips NamedTuple's __new__
        if status.status == "open":  # with n prime, a branch stays open only on open classes
            obstructions.append(f"branch {side} d={d}: {status.open_mask.bit_count()} open classes")

    candidate_ps = {s.n for br in branches for s in br.status.solutions
                    if is_prime(s.n) == "prime"}
    candidates = [check_candidate(p, delta) for p in sorted(candidate_ps)]

    for cand in candidates:
        if cand.outcome == "unresolved":
            why = ("Mersenne test skipped: exponent above cap"
                   if cand.mersenne_status == "untested"
                   else f"m - delta not below the odd-perfect bound 10^{ODD_PERFECT_LOG10_BOUND}")
            obstructions.append(f"candidate p={cand.p} unresolved ({why})")

    return report("inconclusive" if obstructions else "eliminated", d6, branches, candidates,
                  obstructions, gen)
