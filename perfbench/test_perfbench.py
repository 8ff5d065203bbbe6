"""Tests of the benchmark's own arithmetic and checks.

Run from the repository root: PYTHONPATH=src python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import refkernel
import run
from spans import SpanStats

HERE = Path(__file__).resolve().parent


def _spans(events):
    stats = SpanStats()
    for kind, name, t in events:
        if kind == "enter":
            stats.enter(name, t)
        else:
            stats.exit(t)
    return stats


def test_self_time_subtracts_direct_children_only():
    # decide [0, 10] holds analyze [1, 5] (which holds sieve [2, 3]) and analyze [6, 9]
    stats = _spans([
        ("enter", "decide", 0.0),
        ("enter", "analyze", 1.0), ("enter", "sieve", 2.0), ("exit", "sieve", 3.0),
        ("exit", "analyze", 5.0),
        ("enter", "analyze", 6.0), ("exit", "analyze", 9.0),
        ("exit", "decide", 10.0),
    ])
    assert stats.calls == {"decide": 1, "analyze": 2, "sieve": 1}
    assert stats.inclusive == {"decide": 10.0, "analyze": 7.0, "sieve": 1.0}
    assert stats.self_time == {"decide": 3.0, "analyze": 6.0, "sieve": 1.0}
    # self times partition the outermost span
    assert sum(stats.self_time.values()) == stats.inclusive["decide"]


def test_recursive_span_counts_inclusive_time_once():
    stats = _spans([
        ("enter", "factorize", 0.0), ("enter", "factorize", 2.0),
        ("exit", "factorize", 5.0), ("exit", "factorize", 10.0),
    ])
    assert stats.calls["factorize"] == 2
    assert stats.inclusive["factorize"] == 10.0
    assert stats.self_time["factorize"] == 10.0


def test_merge_adds_per_name():
    a = _spans([("enter", "main", 0.0), ("exit", "main", 2.0)])
    b = _spans([("enter", "main", 0.0), ("enter", "decide", 1.0),
                ("exit", "decide", 2.5), ("exit", "main", 3.0)])
    a.merge(SpanStats.from_dict(b.to_dict()))
    assert a.calls == {"main": 2, "decide": 1}
    assert a.inclusive == {"main": 5.0, "decide": 1.5}
    assert a.self_time == {"main": 3.5, "decide": 1.5}


def _record(b, verdict, elapsed_ms=1):
    return {"b": b, "delta": b * (b - 1) // 2, "verdict": verdict, "branches": [],
            "elapsed_ms": elapsed_ms, "config_fingerprint": "f"}


def _lines(records):
    return "".join(json.dumps(r) + "\n" for r in records)


def test_eliminated_to_inconclusive_flip_counts_as_failure():
    # in-scope b below 12: 3, 6 and 11 (delta = 3, 15, 55)
    baseline = {3, 6}
    j1 = _lines([_record(3, "eliminated"), _record(6, "inconclusive"), _record(11, "inconclusive")])
    j2 = _lines([_record(3, "eliminated", 7), _record(6, "inconclusive", 9),
                 _record(11, "inconclusive")])
    failures = checks.scan_failures(j1, j2, range(3, 12), baseline)
    assert failures == {3: [], 6: ["eliminated at baseline, now inconclusive"], 11: []}

    bench = run.Bench(HERE, trace=False)
    for b, reasons in failures.items():
        bench.item(f"scan b={b}", reasons)
    assert (bench.attempted, bench.failed) == (3, 1)


def test_scan_records_must_agree_and_exist():
    j1 = _lines([_record(3, "eliminated"), _record(6, "eliminated")])
    j2 = _lines([_record(3, "inconclusive")])
    failures = checks.scan_failures(j1, j2, range(3, 7), set())
    assert failures == {3: ["jobs-1 and jobs-2 records differ"], 6: ["record missing"]}


def test_candidate_check_uses_published_exponents():
    assert checks.candidate_failures({"mersenne_status": "composite"}, 4421) == []
    assert checks.candidate_failures({"mersenne_status": "composite"}, 4423)


def test_tracer_wraps_every_lookup_site():
    script = (
        "import perfdist, perfdist.cli, perfdist.decider as d\n"
        "from spans import Tracer\n"
        "t = Tracer(); t.install()\n"
        "assert d.analyze is not t.originals['rn.analyze']\n"
        "assert perfdist.cli.decide.__wrapped__ is t.originals['decider.decide']\n"
        "perfdist.decide(15)\n"
        "print(t.spans.calls['rn.analyze'], t.spans.calls['decider.decide'],"
        " t.counts['rn.solution_at'] > 0)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(run.SRC), str(HERE)]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout.split()
    assert out[1:] == ["1", "True"] and int(out[0]) > 0


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_layer_values_from_a_traced_repetition():
    stats = _spans([
        ("enter", "decider.decide", 0.0),
        ("enter", "rn.analyze", 1.0), ("exit", "rn.analyze", 8.0),
        ("enter", "rn.analyze", 8.0), ("exit", "rn.analyze", 9.0),
        ("exit", "decider.decide", 10.0),
    ])
    rep = {"traced": [{"spans": stats.to_dict(), "counts": {"rn.analyze.closed": 1}}],
           "overhead_share": 0.25}
    values = run.layer_values("scan", rep)
    assert set(values) == {name for name, _, _ in run.LAYER_METRICS}
    assert values["rn.analyze.calls"] == 2
    assert values["rn.analyze.share"] == 0.8
    assert values["rn.analyze.closed_share"] == 0.5
    assert values["decider.decide.self_s"] == 2.0
    assert values["scan.parallel_efficiency"] == 0.0


def test_scaled_time_follows_the_sampled_speed():
    nominal = refkernel.NOMINAL_S["interp"]
    assert refkernel.scaled(3.0, [nominal] * 4, "interp") == 3.0
    # half the time at half speed: the job would take 0.75 of its wall time at nominal speed
    assert refkernel.scaled(4.0, [nominal, 2 * nominal], "interp") == 3.0
    assert run.tail_mean([1.0] * 38 + [5.0]) == 5.0
    assert run.tail_mean([1.0] * 39 + [5.0]) == 3.0
