"""Analysis of equations d*x**2 + c = 2**n in unknowns x >= 1, n >= 0.

Two closure mechanisms, applied in order: a fixed completeness table of one
cited equation (BUILTIN_TABLE, hashed into every fingerprint), and one
modular sieve: the classes of n mod 27720 that every modulus of
DEFAULT_MODULI keeps, of which a prime n can lie only in those prime to
27720.  Whatever survives is reported open, with a bounded search over the
surviving classes, which finds every solution up to the bound as each
sieve is sound.  analyze records only facts, from which the rule trace,
one certificate per rule, is rendered.
The sieve's tables, and its memo of class masks by modulus, are built on
first use, not at import, and factor nothing.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt, lcm, prod
from typing import NamedTuple

from .arith import _Checked, is_prime, is_squarefree, v2

# In the order analyze ANDs them, which reports and the config list: see _sieve_plan.
# Their periods combine to 27720.  None divides another (solvable mod k means mod k's divisors).
DEFAULT_MODULI = (64, 9, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
DEFAULT_N_MAX = 2000
# bounds sieve()'s tables, whose time and memory grow with the modulus
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
    # past 2**64 isqrt dominates: first reject a non-square mod 47 or 53 (Euler's criterion)
    if q >> 64:
        r = q % 2491  # 47 * 53, neither a sieve modulus
        if pow(r, 23, 47) == 46 or pow(r, 26, 53) == 52:
            return None
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


class SieveReport(NamedTuple):
    """Which residue classes of n (mod period) can carry solutions, modulo `modulus`.

    2**n mod modulus depends only on n mod period once n >= n_threshold.
    A class survives iff some x mod modulus has d*x**2 + c == 2**n there.
    Any solution with n >= max(n_min, n_threshold) lies in a surviving
    class; small_n_to_check lists the n in [n_min, n_threshold).
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
        # the output of `rn sieve --json`; every list and dict in it is new
        return {"rule": "sieve", **self._asdict(), "equation": self.equation.to_dict(),
                "surviving_classes": list(self.surviving_classes),
                "small_n_to_check": list(self.small_n_to_check)}


def _in_range(sols, n_min: int, n_parity: str) -> tuple[RNSolution, ...]:
    return tuple(sorted(s for s in sols if s.n >= n_min and (n_parity != "odd" or s.n % 2)))


def _exponents(lo: int, hi: int, parity: str) -> range:
    # the n in [lo, hi) of the given parity, for lo >= 0
    return range(lo | 1, hi, 2) if parity == "odd" else range(lo, hi)


@lru_cache(maxsize=None)
def power_cycle(modulus: int) -> tuple[int, int]:
    """(n_threshold, period) of 2**n mod modulus = 2**t * m, m odd: 2**n mod 2**t
    is 0 from n = t on, and 2**n mod m has period ord_m(2), found by walking
    2**k mod m (at most 36 steps for a sieve modulus)."""
    if not 2 <= modulus <= MAX_MODULUS:
        raise ValueError(f"modulus must be between 2 and {MAX_MODULUS}, got {modulus}")
    t = v2(modulus)
    odd = modulus >> t
    period, power = 1, 2 % odd
    while power > 1:
        period, power = period + 1, power * 2 % odd
    return t, period


@lru_cache(maxsize=None)
def _modulus_tables(modulus: int) -> tuple:
    """(n_threshold, period, squares, cycle, non_square): the x**2 mod modulus,
    cycle[r] = 2**n mod modulus for n = r (mod period) past n_threshold, and
    the least non-square of an odd prime, else 0."""
    threshold, period = power_cycle(modulus)
    squares = frozenset({x * x % modulus for x in range(modulus // 2 + 1)})
    cycle, power = [0] * period, pow(2, threshold, modulus)
    for n in range(threshold, threshold + period):
        cycle[n % period], power = power, power * 2 % modulus
    # an odd m is prime iff it has (m + 1)/2 squares (by CRT, fewer otherwise)
    non_square = (next(x for x in range(2, modulus) if x not in squares)
                  if modulus % 2 and 2 * len(squares) > modulus else 0)
    return threshold, period, squares, tuple(cycle), non_square


def _square_class(modulus: int, d: int) -> int:
    # a d' whose d'*x**2 take the values of d*x**2 mod m: for an odd prime,
    # the least residue of d's Legendre symbol, else d itself
    _, _, squares, _, non_square = _modulus_tables(modulus)
    return d if d < 2 or not non_square else 1 if d in squares else non_square


def _sieve_classes(modulus: int, d: int, c: int) -> int:
    """Bit r set iff d*x**2 + c == 2**n (mod modulus) is solvable for n = r (mod period)."""
    _, _, squares, cycle, _ = _modulus_tables(modulus)
    reachable = {(d * s + c) % modulus for s in squares}
    return int("".join(["1" if v in reachable else "0" for v in reversed(cycle)]), 2)


def _set_bits(mask: int) -> list[int]:
    # the 1 bits of mask, least first, in 2048-bit pieces: linear in its width
    if mask >> 2048:
        data = mask.to_bytes(-(-mask.bit_length() // 8), "little")
        return [8 * i + r for i in range(0, len(data), 256)
                for r in _set_bits(int.from_bytes(data[i:i + 256], "little"))]
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


def sieve(eq: RNEquation, modulus: int, n_min: int = 0, n_parity: str = "any") -> SieveReport:
    """Sieve the residue classes of n modulo the eventual period of 2**n mod modulus.

    Sound, never complete: a surviving class may still hold no solution.
    An odd-n constraint drops the even classes, and only when the period is even.
    """
    if n_parity not in ("any", "odd"):
        raise ValueError("n_parity must be 'any' or 'odd'")
    if n_min < 0:
        raise ValueError(f"n_min must be >= 0, got {n_min}")
    threshold, period = power_cycle(modulus)
    odd = n_parity == "odd" and period % 2 == 0
    classes = tuple(r for r in _set_bits(_sieve_classes(modulus, eq.d, eq.c)) if r % 2 or not odd)
    small = tuple(_exponents(n_min, threshold, n_parity))
    return SieveReport(eq, modulus, n_min, n_parity, threshold, period, classes, small)


class TableEntry(NamedTuple):
    """A complete solution set for one equation, with a citation for the claim."""

    d: int
    c: int
    solutions: tuple[RNSolution, ...]
    source: str

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "c": self.c,
            "solutions": [s.as_pair() for s in sorted(self.solutions)],
            "source": self.source,
        }


# The one cited closure the paper needs (delta = 3), by (d, c): fixed, hashed into
# every config fingerprint, and the only row the tests' certificate checker accepts.
BUILTIN_TABLE = {(e.d, e.c): e for e in (
    TableEntry(5, 3, (RNSolution(1, 3), RNSolution(5, 7)),
               "Ramanujan-Nagell literature: 5x^2 + 3 = 2^n has exactly (x,n) = (1,3), (5,7) "
               "in positive integers"),
)}


@lru_cache(maxsize=None)  # analyze reads it for every branch, with few distinct n_min
def n_constraints(n_min: int) -> tuple[str, int]:
    """(n_parity, n_max) of analyze(eq, n_min), whose n is prime and >= n_min:
    odd once n_min > 2, and an open branch is searched up to n_max."""
    return "odd" if n_min > 2 else "any", max(DEFAULT_N_MAX, n_min)


class BranchStatus(NamedTuple):
    """Outcome of analysing one equation for prime n >= n_min.

    closed_complete: `solutions` is provably the complete set.
    closed_finite_n: the certificates in `rule_trace` exclude every n outside
    a finite set, each of which was tested.
    open: a residue class with infinitely many admissible n survived.

    `rule` names the last rule applied and `facts` what `rule_trace` renders
    its certificates from on each read: the TableEntry for "completeness_table",
    else (n_min, mask, emptied_at, open_mask).  Bit r of mask is set iff class
    r of the combined period survived every modulus, for every n when
    n_min <= 2 and odd n otherwise; emptied_at is the modulus whose AND left
    it empty, else None; open_mask keeps its classes prime to the period, 0
    unless the branch is open.
    """

    equation: RNEquation
    status: str  # "closed_complete" | "closed_finite_n" | "open"
    solutions: tuple[RNSolution, ...]
    rule: str
    facts: tuple = ()

    def __repr__(self) -> str:  # facts may hold a mask too wide for int's decimal str()
        return f"BranchStatus{self[:4]!r}"

    @property
    def open_mask(self) -> int:
        # bit r set iff class r of the combined period is open, as analyze found it
        return self.facts[3] if self.status == "open" else 0

    @property
    def rule_trace(self) -> tuple[dict, ...]:
        kept = [s.as_pair() for s in self.solutions]
        if self.rule == "completeness_table":
            return ({"rule": self.rule, "source": self.facts.source, "kept": kept,
                     "complete_solutions": [s.as_pair() for s in sorted(self.facts.solutions)]},)
        n_min, mask, emptied_at, open_mask = self.facts
        n_parity, n_max = n_constraints(n_min)
        steps, threshold, _, _, _ = _sieve_plan()
        trace = [{"rule": "sieve", "moduli": list(DEFAULT_MODULI),
                  "combined_period": steps[-1][1], "n_min": n_min, "n_parity": n_parity,
                  "valid_from": max(n_min, threshold), "emptied_at": emptied_at,
                  "open_classes": _set_bits(open_mask)}]
        if self.rule == "finite_checks":
            trace.append({"rule": self.rule, "solutions": kept,
                          "n_values": _finite_checks(n_min, n_parity, mask)})
        else:
            trace.append({"rule": self.rule, "n_min": n_min, "n_max": n_max, "solutions": kept})
        return tuple(trace)


@lru_cache(maxsize=None)
def _tile(mask: int, period: int, width: int) -> int:
    # a period-bit mask repeated over at least width bits, by doubling
    tiled, span = mask, period
    for bit in bin(-(-width // period))[3:]:
        tiled, span = tiled | tiled << span, 2 * span
        if bit == "1":
            tiled, span = tiled << period | mask, span + period
    return tiled


@lru_cache(maxsize=None)
def _sieve_plan() -> tuple:
    """(steps, threshold, start, units, primes) of analyze's sieve.

    steps holds (modulus, period, lift, unit, masks) per modulus of
    DEFAULT_MODULI, in order.  Its first six, whose periods divide 60, go
    by the share of pairs (d mod m, c mod m) each leaves no odd class
    (64: 87%, 9: 44%, 5: 20%, 7: 14%, 11: 9%, 13: 8%).  The mask
    starts at period 60 as start[n_parity], and the first modulus whose
    period does not divide 60 lifts it, times lift, to the full period K;
    a class mask times unit covers the period, and masks is the step's memo
    (see _class_mask).  units has bit r < K set iff gcd(r, K) == 1, primes
    bit g for each prime g | K: a class r with gcd(r, K) = g > 1 holds no
    prime but g.
    """
    thresholds, periods = zip(*map(power_cycle, DEFAULT_MODULI))
    full, steps, period = lcm(2, *periods), [], 60
    for m, p in zip(DEFAULT_MODULI, periods):
        width = full if period % p else period
        steps.append((m, width, _tile(1, period, width), _tile(1, p, width), {}))
        period = width
    # a prime that divides K divides a period; units repeat with period rad
    primes = [g for g in range(2, max(periods) + 1) if full % g == 0 and is_prime(g) == "prime"]
    rad = prod(primes)
    units = (1 << rad) - 1
    for g in primes:
        units &= ~_tile(1, g, rad)
    start = {"odd": _tile(2, 2, 60), "any": _tile(3, 2, 60)}
    return (tuple(steps), max(thresholds), start, _tile(units, rad, full),
            sum(1 << g for g in primes))


def _class_mask(masks: dict, m: int, unit: int, key: int) -> int:
    # a step's mask for key = (d mod m)*m + (c mod m), built once per square
    # class of d and shared by its members: at most 3m masks for an odd prime m
    d, c = divmod(key, m)
    least = _square_class(m, d) * m + c
    mask = masks.get(least)
    if mask is None:
        mask = masks[least] = _sieve_classes(m, least // m, c) * unit
    masks[key] = mask
    return mask


def _finite_checks(n_min: int, n_parity: str, mask: int) -> list[int]:
    # a closed branch tests the n below valid_from, and each prime g | K past it in the mask
    _, threshold, _, _, primes = _sieve_plan()
    valid_from = max(n_min, threshold)
    held = mask & primes >> valid_from << valid_from
    return [*_exponents(n_min, valid_from, n_parity), *_set_bits(held)]


def analyze(eq: RNEquation, n_min: int = 0) -> BranchStatus:
    """Run the closure pipeline on one equation, for prime n >= n_min.

    Order: BUILTIN_TABLE, then the sieve: the
    memoized class masks of DEFAULT_MODULI are ANDed in order until one
    leaves nothing, which closes the branch up to finitely many small
    exponents, each tested.  A class r mod 27720 with g = gcd(r, 27720) > 1
    holds at most the prime g, tested too.  Anything else is open, with
    the solutions with n <= n_max, found by testing the exponents below
    valid_from or in surviving classes.  n_constraints(n_min) gives the
    parity and n_max.  Only the closure uses primality: the exponents
    tested and the solutions kept are every n of that parity.
    """
    if n_min < 0:
        raise ValueError(f"n_min must be >= 0, got {n_min}")
    n_parity, n_max = n_constraints(n_min)

    entry = BUILTIN_TABLE.get(eq)  # eq is the pair (d, c)
    if entry is not None:
        return BranchStatus(eq, "closed_complete", _in_range(entry.solutions, n_min, n_parity),
                            "completeness_table", entry)

    steps, threshold, start, units, _ = _sieve_plan()
    (d, c), mask = eq, start[n_parity]
    for m, period, lift, unit, masks in steps:
        if lift > 1:
            mask *= lift
        key = d % m * m + c % m
        classes = masks.get(key)
        if classes is None:
            classes = _class_mask(masks, m, unit, key)
        mask &= classes
        if not mask:
            break
    open_mask = mask & units
    # a mask is empty only when the loop broke at the modulus m that emptied it
    facts = (n_min, mask, None if mask else m, open_mask)
    if not open_mask:
        found = ()
        if mask or n_min < threshold:  # else no exponent is left to test
            found = tuple(sorted(_solutions_at(eq, _finite_checks(n_min, n_parity, mask))))
        # tuple.__new__ skips NamedTuple's Python-level __new__: most branches end here
        return tuple.__new__(BranchStatus, (eq, "closed_finite_n", found, "finite_checks", facts))

    # exact: every sieve is sound, so a solution with n >= valid_from is in the mask
    valid_from = max(n_min, threshold)
    low = (1 << n_max + 1) - 1
    wanted = (mask & low) * _tile(1, period, n_max + 1) >> valid_from << valid_from
    wanted |= sum(1 << n for n in _exponents(n_min, valid_from, n_parity))
    found = _solutions_at(eq, _set_bits(wanted & low))
    return BranchStatus(eq, "open", tuple(sorted(found)), "direct_search", facts)
