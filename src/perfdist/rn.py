"""Analysis of equations d*x**2 + c = 2**n in unknowns x >= 1, n >= 0.

Three closure mechanisms, applied in order: a curated completeness table
(entries carry citations and are re-verified by substitution), an exact
rule for the x**2 +- 1 = 2**m patterns, and modular sieving of the
residue classes of n at the fixed moduli DEFAULT_MODULI, combined at their
common period as bit masks memoized per (modulus, d mod m, c mod m,
odd-only), and optionally closed by the "n must be prime" side condition.
Whatever survives is reported open, with a bounded search over the
exponents that every sieve and every SEARCH_PRIMES sieve keeps; each sieve
is sound, so it finds every solution up to the bound.  analyze records
only facts: the closing rule, the surviving mask and the (n_min, n_parity)
sieved under.  The rule trace, a certificate per applied rule, is rendered
from them when read.
"""

from __future__ import annotations

import json
from functools import lru_cache
from math import gcd, isqrt, lcm
from typing import NamedTuple

from .arith import _Checked, is_squarefree, order_of_two, v2

DEFAULT_MODULI = (3, 4, 5, 7, 8, 9, 11, 13, 16, 32, 64)
DEFAULT_N_MAX = 2000
# the per-modulus tables of sieve() cost time and memory linear in the
# modulus; a larger one would run for minutes before any answer.
MAX_MODULUS = 10**6


class _RNEquation(NamedTuple):
    d: int
    c: int


class RNEquation(_Checked, _RNEquation):
    """The pair (d, c) of d*x**2 + c = 2**n; d squarefree positive, c nonzero."""

    __slots__ = ()

    # known_squarefree skips factoring d, e.g. for a squarefree divisor
    def __new__(cls, d: int, c: int, known_squarefree: bool = False):
        if d < 1:
            raise ValueError("d must be a positive integer")
        if c == 0:
            raise ValueError("c must be nonzero")
        if not known_squarefree and not is_squarefree(d):
            raise ValueError(f"d = {d} is not squarefree")
        return tuple.__new__(cls, (d, c))

    def __str__(self) -> str:
        sign = "+" if self.c >= 0 else "-"
        return f"{self.d}*x^2 {sign} {abs(self.c)} = 2^n"

    def to_dict(self) -> dict:
        return self._asdict()


class RNSolution(NamedTuple):
    """A pair (x, n); holders guarantee d*x**2 + c == 2**n exactly."""

    x: int
    n: int

    def as_pair(self) -> list[int]:
        return [self.x, self.n]


def solution_at(eq: RNEquation, n: int) -> RNSolution | None:
    """The unique solution with this n, if 2**n - c is d times a positive square."""
    t = (1 << n) - eq.c
    if t <= 0 or t % eq.d != 0:
        return None
    q = t // eq.d
    r = isqrt(q)
    if r * r != q:
        return None
    return RNSolution(r, n)


def _solutions_at(eq: RNEquation, exponents) -> list[RNSolution]:
    return [s for s in (solution_at(eq, n) for n in exponents) if s is not None]


def direct_search(eq: RNEquation, n_min: int, n_max: int) -> list[RNSolution]:
    """Exactly all solutions with n in [n_min, n_max], by testing each exponent."""
    if n_min > n_max:
        raise ValueError("n_min must not exceed n_max")
    return _solutions_at(eq, range(max(n_min, 0), n_max + 1))


def adjacent_powers(eq: RNEquation) -> list[RNSolution] | None:
    """Complete solution set when the equation reduces to x**2 +- 1 = 2**m.

    Applies exactly when d = 2**v and |c| = 2**v (v in {0, 1}, d squarefree).
    x**2 + 1 = 2**m: an odd x forces 2**m == 2 mod 4, so (1, 1) only.
    x**2 - 1 = 2**m: (x-1)(x+1) are powers of two differing by 2, so (3, 3) only.
    Returns None when the pattern does not apply.
    """
    v = v2(eq.d)
    if eq.d != 1 << v or abs(eq.c) != 1 << v:
        return None
    if eq.c > 0:
        return [RNSolution(1, 1 + v)]
    return [RNSolution(3, 3 + v)]


class SieveReport(NamedTuple):
    """Which residue classes of n (mod period) can carry solutions, modulo `modulus`.

    The sequence 2**n mod modulus is eventually periodic: constant on
    n mod period once n >= n_threshold.  A class survives iff some x mod
    modulus satisfies d*x**2 + c == 2**n there.  Any true solution with
    n >= max(n_min, n_threshold) lies in a surviving class; exponents in
    [n_min, n_threshold) are listed in small_n_to_check for direct testing.
    """

    equation: RNEquation
    modulus: int
    n_min: int
    n_parity: str  # "any" | "odd"
    n_threshold: int
    period: int
    surviving_classes: tuple[int, ...]
    small_n_to_check: tuple[int, ...]

    def to_dict(self) -> dict:
        # the "sieve" rule-trace entry; every list and dict in it is new
        return {
            "rule": "sieve",
            "equation": self.equation.to_dict(),
            "modulus": self.modulus,
            "n_min": self.n_min,
            "n_parity": self.n_parity,
            "n_threshold": self.n_threshold,
            "period": self.period,
            "surviving_classes": list(self.surviving_classes),
            "small_n_to_check": list(self.small_n_to_check),
        }


def _in_range(sols, n_min: int, n_parity: str) -> tuple[RNSolution, ...]:
    return tuple(sorted(s for s in sols if s.n >= n_min and (n_parity != "odd" or s.n % 2)))


def _exponents(lo: int, hi: int, parity: str) -> range:
    # the n in [lo, hi) of the given parity, for lo >= 0
    return range(lo | 1, hi, 2) if parity == "odd" else range(lo, hi)


@lru_cache(maxsize=None)
def power_cycle(modulus: int) -> tuple[int, int]:
    """(n_threshold, period) of 2**n mod modulus, without iterating.

    For modulus = 2**t * m with m odd, 2**n mod 2**t is 0 exactly from
    n = t on, and 2**n mod m is purely periodic with period ord_m(2); so
    the threshold is t and the period is that order.
    """
    if not 2 <= modulus <= MAX_MODULUS:
        raise ValueError(f"modulus must be between 2 and {MAX_MODULUS}, got {modulus}")
    t = v2(modulus)
    return t, order_of_two(modulus >> t)


@lru_cache(maxsize=None)
def _modulus_tables(modulus: int) -> tuple[int, int, tuple[int, ...], tuple[int, ...]]:
    """(n_threshold, period, squares, cycle) for one modulus.

    squares holds every x**2 mod modulus; cycle[r] is 2**n mod modulus for
    any n = r (mod period) with n >= n_threshold, which is a function of r
    alone because the sequence is periodic from n_threshold on.
    """
    threshold, period = power_cycle(modulus)
    squares = tuple({x * x % modulus for x in range(modulus)})
    cycle = tuple(pow(2, threshold + (r - threshold) % period, modulus) for r in range(period))
    return threshold, period, squares, cycle


# analyze's lifted masks by (m, d mod m, c mod m, odd_only): at most 2m**2
# keys per ANDed modulus, 9,082 for DEFAULT_MODULI.  A scan over b < 3000
# fills 746 of them.
_lifted: dict = {}


def _sieve_classes(modulus: int, d: int, c: int, odd_only: bool) -> tuple[int, ...]:
    """The classes r (mod period) where d*x**2 + c == 2**n (mod modulus) is solvable.

    Only d and c modulo `modulus` matter, and odd_only drops the even classes.
    """
    d, c = d % modulus, c % modulus
    _, period, squares, cycle = _modulus_tables(modulus)
    reachable = {(d * s + c) % modulus for s in squares}
    return tuple(r for r in range(period)
                 if cycle[r] in reachable and not (odd_only and r % 2 == 0))


def _set_bits(mask: int) -> list[int]:
    # the positions of the 1 bits of mask, least first
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


def sieve(eq: RNEquation, modulus: int, n_min: int = 0, n_parity: str = "any") -> SieveReport:
    """Sieve the residue classes of n modulo the eventual period of 2**n mod modulus.

    Sound, never complete: a surviving class may still hold no solution.
    When the period is even, classes fix the parity of n and the parity
    constraint removes mismatched classes; an odd period carries both
    parities, so the constraint cannot exclude anything at this modulus.
    """
    if n_parity not in ("any", "odd"):
        raise ValueError("n_parity must be 'any' or 'odd'")
    if n_min < 0:
        raise ValueError(f"n_min must be >= 0, got {n_min}")
    threshold, period = power_cycle(modulus)
    classes = _sieve_classes(modulus, eq.d, eq.c, n_parity == "odd" and period % 2 == 0)
    small = tuple(_exponents(n_min, threshold, n_parity))
    return SieveReport(eq, modulus, n_min, n_parity, threshold, period, classes, small)


class TableEntry(NamedTuple):
    """A complete solution set for one equation, with a citation for the claim."""

    d: int
    c: int
    solutions: tuple[RNSolution, ...]
    source: str

    def verify(self) -> None:
        eq = RNEquation(self.d, self.c)
        for s in self.solutions:
            t = eq.d * s.x * s.x + eq.c
            # the bit length first: 2**n is never built wider than t
            if s.x < 1 or s.n < 0 or t.bit_length() != s.n + 1 or t != 1 << s.n:
                raise ValueError(f"table entry for {eq} lists a non-solution {s}")

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "c": self.c,
            "solutions": [s.as_pair() for s in sorted(self.solutions)],
            "source": self.source,
        }


class _CompletenessTable(NamedTuple):
    entries: tuple[TableEntry, ...]


class CompletenessTable(_Checked, _CompletenessTable):
    """Curated equations whose full solution sets are known from the literature."""

    __slots__ = ()

    def __new__(cls, entries: tuple[TableEntry, ...]):
        for entry in entries:
            entry.verify()
        return super().__new__(cls, entries)

    def lookup(self, d: int, c: int) -> TableEntry | None:
        for entry in self.entries:
            if entry.d == d and entry.c == c:
                return entry
        return None

    def merged_with(self, entries: tuple[TableEntry, ...]) -> "CompletenessTable":
        """New table where `entries` override same-(d, c) rows of this one."""
        keep = [e for e in self.entries if not any(x.d == e.d and x.c == e.c for x in entries)]
        return CompletenessTable(tuple(keep) + entries)

    def to_dict(self) -> list[dict]:
        return [e.to_dict() for e in self.entries]


BUILTIN_TABLE = CompletenessTable((
    TableEntry(5, 3, (RNSolution(1, 3), RNSolution(5, 7)),
               "Ramanujan-Nagell literature: 5x^2 + 3 = 2^n has exactly (x,n) = (1,3), (5,7) "
               "in positive integers"),
    TableEntry(2, 6, (RNSolution(1, 3),),
               "elementary 2-adic descent: 2x^2 + 6 = 2^n forces x^2 + 3 = 2^(n-1), and "
               "x^2 + 3 = 2^m has only (x,m) = (1,2) since x^2 = -3 mod 8 is impossible"),
))


def _json_int(value) -> int:
    # a JSON integer only: not a float such as 5.7 or Infinity, nor true or false
    if type(value) is not int:
        raise ValueError(f"{json.dumps(value)} is not an integer")
    return value


def load_table(path: str) -> CompletenessTable:
    """Read table entries from a JSON-lines file and merge them over BUILTIN_TABLE.

    One object per line: {"d": int, "c": int, "solutions": [[x, n], ...],
    "source": str}, where d, c, x and n must be JSON integers.  Blank lines
    and lines starting with # are skipped.  Every entry is re-verified by
    substitution on load.
    """
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                obj = json.loads(line)
                entry = TableEntry(
                    _json_int(obj["d"]), _json_int(obj["c"]),
                    tuple(RNSolution(_json_int(x), _json_int(n)) for x, n in obj["solutions"]),
                    str(obj["source"]),
                )
                entry.verify()
            except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
                raise ValueError(f"{path}:{lineno}: bad table entry: {exc}") from exc
            entries.append(entry)
    return BUILTIN_TABLE.merged_with(tuple(entries))


class BranchStatus(NamedTuple):
    """Outcome of analysing one equation under the stated n-constraints.

    closed_complete: `solutions` is provably the complete set.
    closed_finite_n: everything outside a finite, explicitly-checked set of
    exponents is excluded by the certificates in `rule_trace`.
    open: at least one residue class with infinitely many admissible n survived.

    `rule` names the last rule applied and `facts` what `rule_trace` renders
    the certificates from on each read: the TableEntry for "completeness_table",
    () for "adjacent_powers", and for "finite_checks" or "direct_search"
    (n_min, n_parity, mask, primes_only, n_max), where bit r of mask is set
    iff class r of the combined period survived every sieve.
    """

    equation: RNEquation
    status: str  # "closed_complete" | "closed_finite_n" | "open"
    solutions: tuple[RNSolution, ...]
    rule: str
    facts: tuple = ()

    @property
    def open_classes(self) -> list[int]:
        # the classes the prime-class closure left open, [] if it did not run
        if self.status == "closed_complete" or not self.facts[3]:
            return []
        return _set_bits(self.facts[2] & _sieve_plan(*self.facts[:2])[4])

    @property
    def rule_trace(self) -> tuple[dict, ...]:
        eq, kept = self.equation, [s.as_pair() for s in self.solutions]
        if self.rule == "completeness_table":
            return ({"rule": self.rule, "source": self.facts.source, "kept": kept,
                     "complete_solutions": [s.as_pair() for s in sorted(self.facts.solutions)]},)
        if self.rule == "adjacent_powers":
            return ({"rule": self.rule, "pattern": f"x^2 {'+' if eq.c > 0 else '-'} 1 = 2^m",
                     "power_shift": v2(eq.d), "kept": kept,
                     "complete_solutions": [s.as_pair() for s in adjacent_powers(eq)]},)
        n_min, n_parity, mask, primes_only, n_max = self.facts
        period, valid_from, _, _, units = _sieve_plan(n_min, n_parity)
        trace = [sieve(eq, m, n_min, n_parity).to_dict() for m in DEFAULT_MODULI]
        trace.append({"rule": "sieve_combination", "moduli": list(DEFAULT_MODULI),
                      "combined_period": period, "valid_from": valid_from,
                      "surviving_classes": _set_bits(mask)})
        if primes_only and mask:
            # a class r with gcd(r, 60) > 1 holds at most the prime gcd(r, 60) <= 5,
            # below valid_from (64's threshold is 6), so the finite checks test it
            trace.append({"rule": "prime_class_closure", "n_restricted_to_primes": True,
                          "closed_classes": [{"residue": r, "gcd": gcd(r, period)}
                                             for r in _set_bits(mask & ~units)],
                          "open_classes": self.open_classes})
        if self.rule == "finite_checks":
            trace.append({"rule": self.rule, "solutions": kept,
                          "n_values": list(_exponents(n_min, valid_from, n_parity))})
        else:
            trace.append({"rule": self.rule, "n_min": n_min, "n_max": n_max, "solutions": kept})
        return tuple(trace)


# Odd primes q with ord_q(2) dividing 720720, not in DEFAULT_MODULI.  Their
# sieves are sound, so filtering the bounded search with them changes no
# result, and they stay out of the config fingerprint.
SEARCH_PRIMES = (17, 19, 23, 29, 31, 37, 41, 43)


@lru_cache(maxsize=None)
def _square_class(q: int) -> tuple[int, ...]:
    # by d mod q, the least d' of d's Legendre symbol: d'*x^2 takes the values of
    # d*x^2 mod q, so a search prime's classes take 2q + 1 memo keys, not q^2
    squares = set(_modulus_tables(q)[2])
    non_square = min(set(range(q)) - squares)
    return tuple(d if d < 2 else 1 if d in squares else non_square for d in range(q))


@lru_cache(maxsize=None)
def _repunit(period: int, width: int) -> int:
    # times a period-bit mask: the mask repeated over at least width bits
    copies = -(-width // period)
    return ((1 << (period * copies)) - 1) // ((1 << period) - 1)


@lru_cache(maxsize=1024)
def _search_mask(q: int, d: int, c: int, width: int) -> int:
    # search prime q's classes for d*x^2 + c, repeated over at least width bits;
    # analyze passes d's square-class representative and c mod q, so one width
    # takes at most 3q keys (720 for SEARCH_PRIMES)
    classes = _sieve_classes(q, d, c, False)
    return sum(1 << r for r in classes) * _repunit(_modulus_tables(q)[1], width)


@lru_cache(maxsize=256)
def _sieve_plan(n_min: int, n_parity: str) -> tuple:
    """(combined period, valid_from, starting mask, ANDed, units) for analyze's sieve.

    The combined period is the lcm of 2 and the periods of DEFAULT_MODULI,
    60, so a residue's parity is the parity of every n in its class.  ANDed
    holds (modulus, odd_only, period) for the moduli that no other listed
    modulus is a multiple of: where d*x**2 + c == 2**n is solvable mod k it
    is solvable mod each divisor m of k, and from k's threshold on (never
    below m's) a class of n fixes 2**n mod both, so m's mask holds k's.
    Units has bit r set iff gcd(r, combined period) == 1.
    """
    cycles = [(m, *power_cycle(m)) for m in DEFAULT_MODULI]
    period = lcm(2, *[p for _, _, p in cycles])
    anded = tuple((m, n_parity == "odd" and p % 2 == 0, p) for m, _, p in cycles
                  if not any(k % m == 0 and k != m for k in DEFAULT_MODULI))
    start = 2 * _repunit(2, period) if n_parity == "odd" else (1 << period) - 1
    units = sum(1 << r for r in range(period) if gcd(r, period) == 1)
    return period, max([n_min] + [t for _, t, _ in cycles]), start, anded, units


def analyze(eq: RNEquation,
            n_min: int = 0,
            n_parity: str = "any",
            n_max: int = DEFAULT_N_MAX,
            table: CompletenessTable = BUILTIN_TABLE,
            primes_only: bool = False) -> BranchStatus:
    """Run the closure pipeline on one equation.

    Order: completeness table, adjacent-powers rule, then sieving: the
    surviving classes are intersected at the combined period of
    DEFAULT_MODULI by ANDing memoized bit masks until one leaves nothing.
    An empty intersection closes the branch up to finitely many small
    exponents, each tested directly.  When the caller declares n restricted
    to primes, a surviving class r mod k with g = gcd(r, k) > 1 contains at
    most the single prime g and closes too.  Anything else is reported open
    with the solutions with n <= n_max, found by testing only the exponents
    below valid_from or in surviving classes that pass every search prime.
    """
    if n_parity not in ("any", "odd"):
        raise ValueError("n_parity must be 'any' or 'odd'")
    if n_min < 0:
        raise ValueError(f"n_min must be >= 0, got {n_min}")
    if n_max < n_min:
        raise ValueError("n_max must be >= n_min")
    combined_period, valid_from, mask, anded, units = _sieve_plan(n_min, n_parity)

    entry = table.lookup(eq.d, eq.c)
    if entry is not None:
        return BranchStatus(eq, "closed_complete", _in_range(entry.solutions, n_min, n_parity),
                            "completeness_table", entry)
    exact = adjacent_powers(eq) if eq.d <= 2 else None  # it needs d = |c| in {1, 2}
    if exact is not None:
        return BranchStatus(eq, "closed_complete", _in_range(exact, n_min, n_parity),
                            "adjacent_powers")

    # one dict lookup per ANDed modulus: its classes lifted to combined_period
    lifted = _lifted.get
    for m, odd_only, period in anded:
        key = (m, eq.d % m, eq.c % m, odd_only)
        lift = lifted(key)
        if lift is None:
            lift = _lifted[key] = (sum(1 << r for r in _sieve_classes(m, eq.d, eq.c, odd_only))
                                   * _repunit(period, combined_period))
        mask &= lift
        if not mask:
            break
    facts = (n_min, n_parity, mask, primes_only, n_max)
    leftover = _exponents(n_min, valid_from, n_parity)
    if not mask or primes_only and not mask & units:
        found = _solutions_at(eq, leftover) if n_min < valid_from else ()
        return BranchStatus(eq, "closed_finite_n", tuple(sorted(found)), "finite_checks", facts)

    # exact: every sieve is sound, so a solution with n >= valid_from lies
    # in a class of the mask (closed prime classes included), and its n
    # lies in a surviving class of every search prime
    width = n_max + 1
    wanted = (mask * _repunit(combined_period, width)) >> valid_from << valid_from
    wanted |= sum(1 << n for n in leftover)
    for q in SEARCH_PRIMES:
        wanted &= _search_mask(q, _square_class(q)[eq.d % q], eq.c % q, width)
    found = _solutions_at(eq, _set_bits(wanted & ((1 << width) - 1)))
    return BranchStatus(eq, "open", tuple(sorted(found)), "direct_search", facts)
