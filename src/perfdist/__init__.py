"""perfdist: can a given odd integer be the distance between two perfect numbers?

The decision procedure reduces the question for triangular delta = 3 mod 4
to finitely many equations d*x**2 + c = 2**n, closes each by one fixed
cited closure or by modular sieving, and verifies whatever exponents
survive against actual perfect numbers.
Every verdict ships with re-checkable certificates.
"""

from .arith import (
    DEFAULT_BUDGET,
    FactorBudgetError,
    Factorization,
    factorize,
    is_perfect,
    is_prime,
    sigma,
    squarefree_divisors,
    triangular_index,
    v2,
)
from .decider import (
    Branch,
    CandidateCheck,
    CaseAnalysis,
    DecisionReport,
    case_analysis,
    check_candidate,
    decide,
    generate_branches,
    verify_pair,
)
from .mersenne import lucas_lehmer
from .rn import (
    BUILTIN_TABLE,
    BranchStatus,
    DEFAULT_MODULI,
    DEFAULT_N_MAX,
    RNEquation,
    RNSolution,
    SieveReport,
    TableEntry,
    analyze,
    direct_search,
    sieve,
)

__version__ = "0.1.0"
