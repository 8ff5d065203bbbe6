"""Every record type is an immutable value: frozen, hashable, picklable, tuple-compatible."""

import pickle

import pytest

from perfdist import arith, decider, rn
from perfdist.arith import Factorization
from perfdist.decider import (
    Branch,
    BranchGeneration,
    PairCheck,
    case_analysis,
    check_candidate,
    decide,
    verify_pair,
)
from perfdist.rn import (
    BranchStatus,
    RNEquation,
    RNSolution,
    TableEntry,
    sieve,
)


# each factory builds a new record on every call
SAMPLES = (
    lambda: Factorization(12, ((2, 2), (3, 1)), True),
    lambda: RNEquation(5, 3),
    lambda: RNSolution(5, 7),
    lambda: sieve(RNEquation(1, 7), 8, 3, "odd"),
    lambda: TableEntry(5, 3, (RNSolution(1, 3), RNSolution(5, 7)), "fixture"),
    lambda: BranchStatus(RNEquation(1, 7), "open", (RNSolution(1, 3),), "direct_search",
                         (3, "odd", 1 << 3, False, 100)),
    lambda: case_analysis(15),
    lambda: Branch("B", 1, 7, BranchStatus(RNEquation(1, 7), "open", (RNSolution(1, 3),),
                                           "direct_search", (3, "odd", 1 << 3, False, 100))),
    lambda: BranchGeneration((("A", 1, -5),), (("A", -5, 0),)),
    lambda: check_candidate(11, 15),
    lambda: verify_pair(28, 6),
    lambda: decide(15),
)


def test_samples_cover_every_record_type():
    defined = {cls for module in (arith, rn, decider) for name, cls in vars(module).items()
               if isinstance(cls, type) and hasattr(cls, "_fields") and not name.startswith("_")
               and cls.__module__ == module.__name__}
    sampled = [type(make()) for make in SAMPLES]
    assert len(sampled) == len(set(sampled)) == len(defined) == 12
    assert set(sampled) == defined


@pytest.mark.parametrize("make", SAMPLES, ids=lambda make: type(make()).__name__)
def test_record_contract(make):
    a, b = make(), make()
    for name in a._fields:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    with pytest.raises(AttributeError):
        a.extra = 1  # no __dict__: every class in the hierarchy has empty __slots__
    assert a == b and a == tuple(a)
    if any(isinstance(v, dict) for v in a):
        # a record holding a dict (a report's certificates) is unhashable, like any tuple holding one
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    restored = pickle.loads(pickle.dumps(a))
    assert type(restored) is type(a) and restored == a


def test_solutions_sort_by_x_then_n():
    sols = [RNSolution(5, 7), RNSolution(1, 9), RNSolution(1, 3), RNSolution(3, 5)]
    assert sorted(sols) == [RNSolution(1, 3), RNSolution(1, 9), RNSolution(3, 5), RNSolution(5, 7)]


# each record that checks its fields, and changes that a check rejects
CHECKED = (
    (lambda: Factorization(12, ((2, 2), (3, 1)), True), {"value": 13}),
    (lambda: RNEquation(5, 3), {"d": 4}),
)


@pytest.mark.parametrize("make, bad", CHECKED, ids=[type(make()).__name__ for make, _ in CHECKED])
def test_replace_and_make_run_the_record_checks(make, bad):
    record = make()
    assert type(record)._make(record) == record and type(record._replace()) is type(record)
    with pytest.raises(ValueError):
        record._replace(**bad)
    with pytest.raises(ValueError):
        type(record)._make({**record._asdict(), **bad}.values())
