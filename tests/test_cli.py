import collections
import json
import os
import subprocess
import sys

import pytest

from perfdist import cli, rn
from perfdist.cli import main
from perfdist.arith import DEFAULT_BUDGET
from perfdist.decider import BranchGeneration, canonical_json, decide, fingerprint


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decide_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "decide", "15")
    assert code == 0 and "verdict: eliminated" in out
    # the text names the rule that settled delta + 6 and each candidate
    assert "delta + 6 = 21: not_perfect [odd_perfect_bound]" in out
    assert "m - delta = 13: not_perfect [odd_perfect_bound] -> eliminated" in out
    assert "[None]" not in out

    code, out, _ = run_cli(capsys, "decide", "11")
    assert code == 0

    # past the odd-perfect bound no rule settles delta + 6, and none is printed
    code, out, _ = run_cli(capsys, "decide", str(10**1500 + 9))
    assert code == 0 and f"delta + 6 = {10**1500 + 15}: unknown\n" in out
    assert "[None]" not in out

    # a factor of 2^p - 1 is printed with the composite status
    code, out, _ = run_cli(capsys, "decide", "55")
    assert code == 2 and "candidate p=11: 2^p - 1 composite (factor 23)" in out

    code, _, err = run_cli(capsys, "decide", "10")
    assert code == 1 and "odd" in err

    code, _, err = run_cli(capsys, "decide", "x")
    assert code == 1 and "invalid int value" in err

    code, _, err = run_cli(capsys, "decide", "-3")
    assert code == 1 and "odd" in err

    code, out, _ = run_cli(capsys, "decide", "9")
    assert code == 2 and "out_of_scope" in out

    code, out, _ = run_cli(capsys, "decide", "55")
    assert code == 2 and "inconclusive" in out


def test_decide_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "decide", "15", "--json")
    assert code == 0
    parsed = json.loads(out)
    assert parsed["delta"] == 15 and parsed["verdict"] == "eliminated"
    assert {"delta", "verdict", "case_analysis", "delta_plus_6", "branches",
            "candidates", "certificates", "config", "config_fingerprint"} <= set(parsed)
    assert canonical_json(parsed) == out.strip()


def test_rn_solve(capsys):
    code, out, _ = run_cli(capsys, "rn", "solve", "5", "3", "--n-max", "200")
    assert code == 0
    assert out.splitlines()[1:] == ["x=1 n=3", "x=5 n=7"]

    code, out, _ = run_cli(capsys, "rn", "solve", "5", "3", "--n-max", "200", "--json")
    assert json.loads(out)["solutions"] == [[1, 3], [5, 7]]

    code, out, _ = run_cli(capsys, "rn", "solve", "2", "6", "--n-max", "100", "--json")
    assert json.loads(out)["solutions"] == [[1, 3]]

    code, _, err = run_cli(capsys, "rn", "solve", "4", "6")
    assert code == 1 and "squarefree" in err

    code, _, err = run_cli(capsys, "rn", "solve", "5", "0")
    assert code == 1


def test_rn_sieve(capsys):
    code, out, _ = run_cli(capsys, "rn", "sieve", "1", "6", "--modulus", "3",
                           "--n-parity", "odd")
    assert code == 0 and "no surviving classes" in out

    code, out, _ = run_cli(capsys, "rn", "sieve", "1", "6", "--modulus", "3", "--json")
    rec = json.loads(out)
    assert rec["surviving_classes"] == [0] and rec["period"] == 2

    code, out, _ = run_cli(capsys, "rn", "sieve", "11", "6", "--modulus", "4",
                           "--n-min", "2", "--json")
    assert json.loads(out)["surviving_classes"] == []

    code, out, err = run_cli(capsys, "rn", "sieve", "1", "-5", "--modulus", "8",
                             "--n-min", "-2", "--json")
    assert code == 1 and out == "" and "n_min must be >= 0" in err

    code, out, err = run_cli(capsys, "rn", "sieve", "1", "6", "--modulus", "1000001")
    assert code == 1 and out == "" and "modulus must be between 2 and 1000000" in err


def test_verify_pair(capsys):
    code, out, _ = run_cli(capsys, "verify-pair", "28", "6")
    assert code == 0 and "both perfect" in out and "distance: 22" in out

    code, out, _ = run_cli(capsys, "verify-pair", "28", "27")
    assert code == 2 and "not both perfect" in out

    code, out, _ = run_cli(capsys, "verify-pair", "8128", "28", "--json")
    rec = json.loads(out)
    assert code == 0 and rec["both_perfect"] and rec["distance"] == 8100

    code, _, err = run_cli(capsys, "verify-pair", "0", "6")
    assert code == 1 and "positive" in err


def test_factor_budget_settles_the_hard_semiprime_delta(capsys):
    # 2b - 1 = 1000033 * 1000037, two primes past the trial-division bound: only
    # Brent rho can split it, and one iteration cannot
    semiprime = 1_000_033 * 1_000_037
    b = (semiprime + 1) // 2
    delta = str(b * (b - 1) // 2)
    code, out, _ = run_cli(capsys, "decide", delta, "--factor-budget", "1")
    assert code == 2 and "verdict: inconclusive" in out
    assert (f"obstruction: cannot enumerate squarefree divisors of 2*(2b-1) = {2 * semiprime} "
            "within factor budget") in out
    code, out, _ = run_cli(capsys, "decide", delta)
    assert code == 0 and "verdict: eliminated" in out

    code, out, _ = run_cli(capsys, "verify-pair", str(semiprime), "6", "--factor-budget", "1")
    assert code == 2 and f"{semiprime}: unknown\n" in out and "6: perfect\n" in out


def test_factor_budget_below_1_exits_1(tmp_path, capsys):
    out_file = tmp_path / "scan.jsonl"
    for budget in ("0", "-5"):
        for argv in (("decide", "11"), ("verify-pair", "28", "6"),
                     ("scan", "--b-from", "3", "--b-to", "14", "--out", str(out_file))):
            code, out, err = run_cli(capsys, *argv, "--factor-budget", budget)
            assert code == 1 and out == "", argv
            assert err == f"error: the factor budget must be >= 1, got {budget}\n", argv
    assert not out_file.exists()


def test_scan_basic(tmp_path, capsys):
    out_file = tmp_path / "scan.jsonl"
    code, _, err = run_cli(capsys, "scan", "--b-from", "3", "--b-to", "6",
                           "--out", str(out_file))
    assert code == 0
    records = [json.loads(line) for line in out_file.read_text().splitlines()]
    assert [(r["b"], r["delta"], r["verdict"]) for r in records] == [
        (3, 3, "eliminated"), (6, 15, "eliminated"),
    ]
    for rec in records:
        assert {"b", "delta", "verdict", "branches", "elapsed_ms",
                "config_fingerprint"} <= set(rec)


def test_scan_line_is_the_canonical_json_of_its_record():
    config_fingerprint = fingerprint(DEFAULT_BUDGET)
    items = [cli._scan_record(DEFAULT_BUDGET, config_fingerprint, b) for b in range(3, 3000)
             if b * (b - 1) // 2 % 4 == 3]
    assert len(items) == 750
    for b, delta, verdict, elapsed_ms, line in items:
        rec = json.loads(line)
        assert line == canonical_json(rec) + "\n", line
        assert (rec["b"], rec["delta"], rec["verdict"], rec["elapsed_ms"]) == \
            (b, delta, verdict, elapsed_ms)
        assert rec["config_fingerprint"] == config_fingerprint
        report = decide(delta)
        assert rec["branches"] == [{"d": br.d, "side": br.side, "status": br.status.status}
                                   for br in report.branches]
        assert set(rec) == {"b", "branches", "config_fingerprint", "delta", "elapsed_ms", "verdict"}
    fabricated = [(report._replace(branches=()), 0), (report._replace(verdict="solution_found"), 0),
                  (report, 1000), (report, 123456)]
    for rep, elapsed_ms in fabricated:
        line = cli._scan_line(rep, elapsed_ms, config_fingerprint)
        assert line == canonical_json(json.loads(line)) + "\n", line
        assert json.loads(line)["elapsed_ms"] == elapsed_ms


def test_sieve_trace_entries_are_built_only_on_serialization(tmp_path, capsys, monkeypatch):
    # a scan record reads only statuses, so a scan renders no rule-trace entry
    # and no pruning certificate; a serialized report renders each entry once,
    # one sieve certificate per sieved branch, and rendering calls rn.sieve
    # zero times
    calls, built = [], collections.Counter()
    sieve = rn.sieve
    monkeypatch.setattr(rn, "sieve", lambda *a: calls.append(a) or sieve(*a))
    rule_trace, pruned = rn.BranchStatus.rule_trace.fget, BranchGeneration.pruned.fget

    def counted_trace(status):
        trace = rule_trace(status)
        built.update(t["rule"] for t in trace)
        return trace

    def counted_pruned(gen):
        certs = pruned(gen)
        built["parity_pruning"] += len(certs)
        return certs

    monkeypatch.setattr(rn.BranchStatus, "rule_trace", property(counted_trace))
    monkeypatch.setattr(BranchGeneration, "pruned", property(counted_pruned))
    code, _, _ = run_cli(capsys, "scan", "--b-from", "3", "--b-to", "299", "--jobs", "1",
                         "--out", str(tmp_path / "scan.jsonl"))
    assert code == 0 and calls == [] and not built
    # per delta: sieve, finite_checks and direct_search entries and pruning certificates
    for delta, counts in ((55, (8, 6, 2, 8)), (171, (4, 4, 0, 4)),
                          (44551, (8, 7, 1, 8)), (4492503, (16, 14, 2, 16))):
        report = decide(delta)
        assert calls == [] and not built
        parsed = json.loads(report.to_json())
        traces = [br["rule_trace"] for br in parsed["branches"]]
        assert calls == [] and counts[0] == sum(t["rule"] == "sieve" for tr in traces for t in tr)
        assert built == collections.Counter(dict(zip(
            ("sieve", "finite_checks", "direct_search", "parity_pruning"), counts)))
        assert len(parsed["certificates"]["parity_pruning"]) == counts[-1]
        built.clear()


def test_scan_pool_asks_for_no_more_workers_than_can_be_busy(tmp_path, capsys, monkeypatch):
    # the pool starts all its workers at once; a fake pool that runs in this
    # process records how many a scan asks for, and never starts one
    import concurrent.futures

    asked = []

    class FakePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    cpus = os.cpu_count() or 1
    for b_to, jobs, pending in ((14, 64, 4), (14, 3, 4), (11, 64, 3), (3, 64, 1)):
        out = tmp_path / f"scan{b_to}_{jobs}.jsonl"
        assert run_cli(capsys, "scan", "--b-from", "3", "--b-to", str(b_to),
                       "--jobs", str(jobs), "--out", str(out))[0] == 0
        workers = min(jobs, pending, cpus)
        assert asked == ([workers] if workers > 1 else []), (b_to, jobs)
        assert len(out.read_text().splitlines()) == pending
        asked.clear()
    with pytest.raises(SystemExit):
        main(["scan", "--help"])
    assert "capped at the pending deltas and the CPU count" in " ".join(
        capsys.readouterr().out.split())


def test_scan_resume_is_idempotent(tmp_path, capsys):
    out_file = tmp_path / "scan.jsonl"
    run_cli(capsys, "scan", "--b-from", "3", "--b-to", "11", "--out", str(out_file))
    first = out_file.read_bytes()
    run_cli(capsys, "scan", "--b-from", "3", "--b-to", "11", "--out", str(out_file))
    assert out_file.read_bytes() == first

    # config change refreshes the affected records without duplication
    code, _, _ = run_cli(capsys, "scan", "--b-from", "3", "--b-to", "11",
                         "--out", str(out_file), "--factor-budget", "5000000")
    records = [json.loads(line) for line in out_file.read_text().splitlines()]
    deltas = [r["delta"] for r in records]
    assert deltas == sorted(set(deltas)) == [3, 15, 55]


def test_scan_extends_previous_range_in_order(tmp_path, capsys):
    out_file = tmp_path / "scan.jsonl"
    run_cli(capsys, "scan", "--b-from", "6", "--b-to", "6", "--out", str(out_file))
    run_cli(capsys, "scan", "--b-from", "3", "--b-to", "3", "--out", str(out_file))
    records = [json.loads(line) for line in out_file.read_text().splitlines()]
    assert [r["delta"] for r in records] == [3, 15]


def test_scan_parallel_worker_pool(tmp_path, capsys):
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    assert run_cli(capsys, "scan", "--b-from", "3", "--b-to", "14",
                   "--out", str(serial))[0] == 0
    assert run_cli(capsys, "scan", "--b-from", "3", "--b-to", "14",
                   "--out", str(parallel), "--jobs", "3")[0] == 0

    def content(path):
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for rec in records:
            rec.pop("elapsed_ms")
        return records

    assert [r["delta"] for r in content(serial)] == [3, 15, 55, 91]
    assert content(serial) == content(parallel)
    # each line is already in canonical form
    for line in parallel.read_text().splitlines():
        assert canonical_json(json.loads(line)) == line


def test_scan_workers_receive_the_factor_budget(tmp_path, capsys):
    # the pool pickles the rho budget into each worker; the first b has
    # 2b - 1 = 1000033*1000037, which one rho iteration cannot split, so the
    # budget flips its verdict
    hard = (1_000_033 * 1_000_037 + 1) // 2
    outputs = {}
    for name, extra in (("default", ()), ("jobs1", ("--factor-budget", "1")),
                        ("jobs2", ("--factor-budget", "1", "--jobs", "2"))):
        outputs[name] = tmp_path / f"{name}.jsonl"
        assert run_cli(capsys, "scan", "--b-from", str(hard), "--b-to", str(hard + 3),
                       "--out", str(outputs[name]), *extra)[0] == 0
    default, jobs1, jobs2 = (_records_without_timing(outputs[n])
                             for n in ("default", "jobs1", "jobs2"))
    assert [r["b"] for r in jobs2] == [hard, hard + 3]
    assert jobs2 == jobs1
    assert [r["verdict"] for r in jobs2] == ["inconclusive", "eliminated"]
    assert [r["verdict"] for r in default] == ["eliminated", "eliminated"]
    assert jobs2[0]["config_fingerprint"] != default[0]["config_fingerprint"]


def test_decide_and_jobs_1_scan_load_no_dataclasses_or_process_pool(tmp_path):
    # start-up cost: neither path loads dataclasses (and the inspect it pulls in) or the pool
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from perfdist.cli import main\n"
        f"main(['scan', '--b-from', '3', '--b-to', '14', '--out', {str(tmp_path / 's.jsonl')!r},"
        " '--jobs', '1'])\n"
        "main(['decide', '15'])\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    src = os.path.dirname(os.path.dirname(rn.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.splitlines()[-1].split())
    assert "perfdist.cli" in added
    assert not added & {"dataclasses", "inspect", "concurrent.futures"}


def test_import_loads_no_hashlib():
    # only a config fingerprint needs hashlib, and loading _hashlib (OpenSSL) is slow
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import perfdist.cli\n"
            "print(*sorted(set(sys.modules) - before))\n")
    src = os.path.dirname(os.path.dirname(rn.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "perfdist.cli" in added and not added & {"hashlib", "_hashlib"}


def test_importing_the_cli_builds_no_sieve_table():
    # the sieve's periods, tables, plan and memo cost start-up time only to a
    # run that sieves: importing builds none of them, and the plan's mask
    # tables start empty when a run builds it
    code = ("import perfdist.cli\n"
            "from perfdist import rn\n"
            "print(*(f.cache_info().currsize for f in (rn.power_cycle, rn._modulus_tables,\n"
            "                                          rn._sieve_plan, rn._tile)),\n"
            "      sum(len(step[-1]) for step in rn._sieve_plan()[0]))\n")
    src = os.path.dirname(os.path.dirname(rn.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"] * 5


def _records_without_timing(path):
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for rec in records:
        rec.pop("elapsed_ms")
    return records


def test_scan_resume_recomputes_torn_final_line(tmp_path, capsys):
    out_file = tmp_path / "scan.jsonl"
    run_cli(capsys, "scan", "--b-from", "3", "--b-to", "11", "--out", str(out_file))
    finished = _records_without_timing(out_file)
    lines = out_file.read_text().splitlines(keepends=True)
    # a scan killed while writing its last record leaves half a line behind
    out_file.write_text("".join(lines[:-1]) + lines[-1][:20])
    code, _, err = run_cli(capsys, "scan", "--b-from", "3", "--b-to", "11",
                           "--out", str(out_file))
    assert code == 0
    assert "delta=55 " in err and "delta=3 " not in err
    assert _records_without_timing(out_file) == finished

    # a record that is whole but lost its newline is kept, not recomputed
    out_file.write_text(out_file.read_text().rstrip("\n"))
    code, _, err = run_cli(capsys, "scan", "--b-from", "3", "--b-to", "11",
                           "--out", str(out_file))
    assert code == 0 and "delta=" not in err
    assert _records_without_timing(out_file) == finished


def test_scan_resume_rejects_malformed_inner_line(tmp_path, capsys):
    out_file = tmp_path / "scan.jsonl"
    run_cli(capsys, "scan", "--b-from", "3", "--b-to", "11", "--out", str(out_file))
    lines = out_file.read_text().splitlines(keepends=True)
    out_file.write_text(lines[0][:20] + "\n" + "".join(lines[1:]))
    before = out_file.read_bytes()
    code, _, err = run_cli(capsys, "scan", "--b-from", "3", "--b-to", "11",
                           "--out", str(out_file))
    assert code == 1 and f"{out_file}:1:" in err
    assert out_file.read_bytes() == before


def test_scan_resume_rejects_record_without_delta(tmp_path, capsys):
    out_file = tmp_path / "scan.jsonl"
    out_file.write_text('{"b": 3, "verdict": "eliminated"}\n')
    code, _, err = run_cli(capsys, "scan", "--b-from", "3", "--b-to", "6",
                           "--out", str(out_file))
    assert code == 1 and f"{out_file}:1: not a scan record" in err


def test_scan_resume_rejects_non_object_line(tmp_path, capsys):
    out_file = tmp_path / "scan.jsonl"
    out_file.write_text('{"b": 3, "delta": 3, "verdict": "eliminated"}\n[3, 15]\n')
    code, _, err = run_cli(capsys, "scan", "--b-from", "3", "--b-to", "6",
                           "--out", str(out_file))
    assert code == 1 and f"{out_file}:2: not a scan record" in err


def test_scan_final_rewrite_keeps_records_if_interrupted(tmp_path, capsys, monkeypatch):
    out_file = tmp_path / "scan.jsonl"
    run_cli(capsys, "scan", "--b-from", "3", "--b-to", "6", "--out", str(out_file))

    def interrupted(src, dst):
        raise KeyboardInterrupt

    # the rewrite goes to a side file, so a crash before it replaces the
    # record file leaves every record in place
    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["scan", "--b-from", "3", "--b-to", "11", "--out", str(out_file)])
    monkeypatch.undo()
    deltas = [json.loads(line)["delta"] for line in out_file.read_text().splitlines()]
    assert deltas == [3, 15, 55]

    code, _, _ = run_cli(capsys, "scan", "--b-from", "3", "--b-to", "11",
                         "--out", str(out_file))
    assert code == 0
    assert [r["delta"] for r in _records_without_timing(out_file)] == [3, 15, 55]


def test_scan_final_rewrite_that_cannot_open_its_side_file_exits_1(tmp_path, capsys):
    # OUT.tmp is a directory: the rewrite fails after every record was appended
    (tmp_path / "s.jsonl.tmp").mkdir()
    argv = ["scan", "--b-from", "3", "--b-to", "6", "--out", "s.jsonl"]
    src = os.path.dirname(os.path.dirname(rn.__file__))
    proc = subprocess.run([sys.executable, "-m", "perfdist", *argv], cwd=tmp_path,
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 1
    assert "error: cannot write s.jsonl.tmp" in proc.stderr and "Traceback" not in proc.stderr
    appended = _records_without_timing(tmp_path / "s.jsonl")
    assert [r["delta"] for r in appended] == [3, 15]

    # the rerun resumes from the appended records and computes none again
    (tmp_path / "s.jsonl.tmp").rmdir()
    code, _, err = run_cli(capsys, "scan", "--b-from", "3", "--b-to", "6",
                           "--out", str(tmp_path / "s.jsonl"))
    assert code == 0 and "delta=" not in err
    assert _records_without_timing(tmp_path / "s.jsonl") == appended


def test_scan_bad_arguments(tmp_path, capsys):
    code, _, err = run_cli(capsys, "scan", "--b-from", "6", "--b-to", "3",
                           "--out", str(tmp_path / "x.jsonl"))
    assert code == 1

    code, _, err = run_cli(capsys, "scan", "--b-from", "3", "--b-to", "4",
                           "--out", str(tmp_path / "missing" / "x.jsonl"))
    assert code == 1 and "cannot write" in err

    code, _, err = run_cli(capsys, "scan", "--b-from", "3", "--b-to", "4",
                           "--out", str(tmp_path))
    assert code == 1 and "cannot read" in err

    # rejected before any record is computed, so no worker pool starts
    for jobs in ("0", "-3"):
        out_file = tmp_path / f"jobs{jobs}.jsonl"
        code, _, err = run_cli(capsys, "scan", "--b-from", "3", "--b-to", "14",
                               "--out", str(out_file), "--jobs", jobs)
        assert code == 1 and "--jobs must be >= 1" in err and not out_file.exists()


def test_subcommands_reject_flags_they_do_not_read(tmp_path, capsys):
    code, _, err = run_cli(capsys, "verify-pair", "28", "6", "--table", "x")
    assert code == 1 and "--table" in err
    # no command reads a table file any more
    out_file = tmp_path / "scan.jsonl"
    for argv in (("decide", "15", "--table", "x"),
                 ("scan", "--b-from", "3", "--b-to", "6", "--out", str(out_file), "--table", "x")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "" and "--table" in err, argv
    assert not out_file.exists()
    code, _, err = run_cli(capsys, "rn", "sieve", "1", "6", "--modulus", "3", "--n-max", "5")
    assert code == 1 and "--n-max" in err


def test_module_execution_entry():
    proc = subprocess.run([sys.executable, "-m", "perfdist", "decide", "15"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "verdict: eliminated" in proc.stdout


def test_decide_takes_a_delta_of_more_than_4300_digits():
    # Python's int() reads at most 4300 digits by default; the command line
    # lifts that limit, for reading delta and for printing it back
    delta = "1" + "0" * 4999 + "9"  # 10^5000 + 9 = 1 mod 12
    proc = subprocess.run([sys.executable, "-m", "perfdist", "decide", delta],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout.endswith("verdict: eliminated\n")
    assert f"delta = {delta}\n" in proc.stdout
    proc = subprocess.run([sys.executable, "-m", "perfdist", "decide", delta, "--json"],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and f'"delta":{delta},' in proc.stdout
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # for this test's own json.loads
    try:
        report = json.loads(proc.stdout)
    finally:
        sys.set_int_max_str_digits(limit)
    assert report["verdict"] == "eliminated" and report["delta"] == 10**5000 + 9
    assert report["delta_plus_6"]["perfect_status"] == "unknown"


def test_moduli_flag_is_rejected(tmp_path, capsys):
    # the sieve moduli are a constant of the method, not an option
    out_file = tmp_path / "scan.jsonl"
    for argv in (("decide", "15", "--moduli", "3,4,8"),
                 ("scan", "--b-from", "3", "--b-to", "6", "--out", str(out_file), "--moduli", "5")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "" and "error: unrecognized arguments: --moduli" in err
    assert not out_file.exists()
