"""perfdist benchmark: end-to-end timings, output checks and a traced per-layer run.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Workloads:
  scan                perfdist scan over b = 3..2999 (750 in-scope deltas): a
                      jobs-1 pass and a jobs-2 pass to fresh files, then a
                      rerun over the finished jobs-1 file, where every delta
                      is skipped (a resume).
  large_delta         perfdist.decide on five deltas of 33 to 77 digits.
  mersenne_exponents  perfdist.check_candidate(p, 3) for five non-Mersenne
                      primes p between 4421 and 10007.
  all                 the three in turn, for a person reading the records.

The seed fixes the order in which a repetition runs its items.  Every item
runs in a fresh interpreter (child.py), so no lru cache survives from one
timed repetition to the next.  Repetitions run until the next one would
overrun --seconds, at least one; each metric is the median over them.

--trace 0 prints the end-to-end metrics; --trace 1 also runs every item
with span wrappers installed (spans.py) and prints the per-layer metrics.
Each run prints a record line, {"record": ...}, with raw and scaled
timings, the environment and the check results, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}.  Timings are scaled to
a fixed CPU speed by reference kernels (refkernel.py), and set-up time by a
bare interpreter start; the record keeps the raw wall times beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import checks
from refkernel import NOMINAL_START_S, scaled
from spans import SpanStats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SCAN_B = range(3, 3000)


def _family_b(p: int, x: int) -> int:
    # b = 2^p - 2x^2 with x odd and 2b - 1 prime forces the candidate exponent p
    return (1 << p) - 2 * x * x


# (label, b, candidate exponents decide must report)
LARGE_DELTAS = (
    ("b=2^55+3", (1 << 55) + 3, [107]),
    ("(127,31)", _family_b(127, 31), [127]),
    ("(61,59)", _family_b(61, 59), [61]),
    ("(89,17)", _family_b(89, 17), [89]),
    ("(107,41)", _family_b(107, 41), [107]),
)
MERSENNE_P = (4421, 4999, 7499, 9931, 10007)
SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 150


class Bench:
    """One run: the work directory, the child environment and the check tallies."""

    def __init__(self, work: Path, trace: bool):
        self.work = work
        self.trace = trace
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PERFDIST_")}
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def child(self, job: dict) -> dict:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(job)],
                              env=self.env, cwd=self.work, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"child job {job} failed:\n{proc.stderr}")
        out = json.loads(proc.stdout.splitlines()[-1])
        out["scaled"] = scaled(out["wall"], out["ref"], job["ref"])
        return out

    def item(self, name: str, reasons: list[str]) -> None:
        self.attempted += 1
        if reasons:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {'; '.join(reasons)}")


def measure_setup(bench: Bench) -> dict:
    """Interpreter start plus `import perfdist.cli`, timed against a bare interpreter start.

    Each sample spawns `python3 -c pass` and then `python3 -c "import
    perfdist.cli"`; the ratio of the two is steady where either alone
    drifts by a third, and the ratio times the bare start at nominal speed
    gives seconds.
    """
    def spawn(code: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=bench.env, check=True)
        return time.perf_counter() - t0

    spawn("import perfdist.cli")  # writes bytecode, as any first use does
    bare, raw = [], []
    for _ in range(SETUP_SAMPLES):
        bare.append(spawn("pass"))
        raw.append(spawn("import perfdist.cli"))
    ratio = statistics.median(t / b for t, b in zip(raw, bare))
    return {"setup_s": ratio * NOMINAL_START_S, "raw_s": raw, "bare_start_s": bare}


def tail_mean(times: list[float]) -> float:
    """Mean of the slowest 5% of item times, at least one item (the slowest of fewer than 40)."""
    k = max(1, len(times) // 20)
    return statistics.fmean(sorted(times)[-k:])


def _scan_job(out: Path, jobs: int, trace: bool = False) -> dict:
    argv = ["scan", "--b-from", str(SCAN_B.start), "--b-to", str(SCAN_B.stop - 1),
            "--out", str(out), "--jobs", str(jobs)]
    return {"op": "scan", "argv": argv, "ref": "interp", "trace": trace}


def _check_scan_pass(bench: Bench, name: str, run: dict, text: str) -> None:
    expected = checks.scan_exit_expected(checks.parse_records(text))
    got = run["result"]["exit"]
    bench.item(name, [] if got == expected else [f"exit code {got}, expected {expected}"])


def scan_rep(bench: Bench, rng: random.Random) -> dict:
    eliminated_b = checks.load_eliminated_baseline()
    files = {name: bench.work / f"{name}.jsonl" for name in ("jobs1", "jobs2", "traced")}
    for path in files.values():
        path.unlink(missing_ok=True)
    runs = {}
    for name in rng.sample(["jobs1", "jobs2"], 2):
        runs[name] = bench.child(_scan_job(files[name], 1 if name == "jobs1" else 2))
    j1_text, j2_text = files["jobs1"].read_text(), files["jobs2"].read_text()
    runs["resume"] = bench.child(_scan_job(files["jobs1"], 1))
    resumed_text = files["jobs1"].read_text()

    _check_scan_pass(bench, "scan jobs1 pass", runs["jobs1"], j1_text)
    _check_scan_pass(bench, "scan jobs2 pass", runs["jobs2"], j2_text)
    _check_scan_pass(bench, "scan resume", runs["resume"], resumed_text)
    bench.item("scan resume", [] if resumed_text == j1_text else ["finished file changed on resume"])
    for b, reasons in checks.scan_failures(j1_text, j2_text, SCAN_B, eliminated_b).items():
        bench.item(f"scan b={b}", reasons)

    records = checks.parse_records(j1_text)
    item_s = [scaled(rec["elapsed_ms"] / 1000, runs["jobs1"]["ref"], "interp")
              for rec in records.values()]
    rep = {
        "pass_s": runs["jobs1"]["scaled"],
        "tail_item_s": tail_mean(item_s),
        "jobs2_s": runs["jobs2"]["scaled"],
        "resume_s": runs["resume"]["scaled"],
        "deltas": len(records),
        "verdicts": dict(Counter(rec["verdict"] for rec in records.values())),
        "open_branches": sum(br["status"] == "open"
                             for rec in records.values() for br in rec["branches"]),
        "runs": {name: _run_summary(run) for name, run in runs.items()},
    }
    if bench.trace:
        traced = [bench.child(_scan_job(files["traced"], 1, trace=True))]
        traced_text = files["traced"].read_text()
        traced.append(bench.child(_scan_job(files["traced"], 1, trace=True)))
        _check_scan_pass(bench, "traced scan pass", traced[0], traced_text)
        _check_scan_pass(bench, "traced scan resume", traced[1], files["traced"].read_text())
        for b, reasons in checks.scan_failures(traced_text, j2_text, SCAN_B, eliminated_b).items():
            bench.item(f"traced scan b={b}", reasons)
        rep["traced"] = traced
        rep["overhead_share"] = traced[0]["scaled"] / runs["jobs1"]["scaled"] - 1
        rep["parallel_efficiency"] = runs["jobs1"]["scaled"] / (2 * runs["jobs2"]["scaled"])
    return rep


def _run_summary(run: dict) -> dict:
    return {"wall_s": run["wall"], "cpu_s": run["cpu"], "ref_s": run["ref"], "scaled_s": run["scaled"]}


def _items_rep(bench: Bench, items: list, check) -> dict:
    """Run each item in its own interpreter; the pass time is the sum of the item times."""
    runs, traced = [], []
    for label, job, expected in items:
        run = bench.child(job)
        runs.append(run)
        reasons = check(run["result"], expected)
        if run["ll_cache_hits"]:
            reasons.append(f"{run['ll_cache_hits']} lucas_lehmer cache hits in a fresh interpreter")
        if bench.trace:
            t = bench.child(dict(job, trace=True))
            traced.append(t)
            reasons += check(t["result"], expected)
            if t["ll_cache_hits"]:
                reasons.append(f"{t['ll_cache_hits']} lucas_lehmer cache hits in a fresh traced interpreter")
        bench.item(label, reasons)
    rep = {
        "pass_s": sum(r["scaled"] for r in runs),
        "tail_item_s": tail_mean([r["scaled"] for r in runs]),
        "items": {label: _run_summary(r) for (label, _, _), r in zip(items, runs)},
    }
    if bench.trace:
        rep["traced"] = traced
        rep["overhead_share"] = sum(t["scaled"] for t in traced) / rep["pass_s"] - 1
    return rep


def large_delta_rep(bench: Bench, rng: random.Random) -> dict:
    items = [(label, {"op": "decide", "delta": b * (b - 1) // 2, "ref": "interp"}, cands)
             for label, b, cands in rng.sample(LARGE_DELTAS, len(LARGE_DELTAS))]
    return _items_rep(bench, items, checks.decide_failures)


def mersenne_rep(bench: Bench, rng: random.Random) -> dict:
    items = [(f"p={p}", {"op": "check_candidate", "p": p, "delta": 3, "ref": "bigint"}, p)
             for p in rng.sample(MERSENNE_P, len(MERSENNE_P))]
    return _items_rep(bench, items, checks.candidate_failures)


WORKLOADS = {"scan": scan_rep, "large_delta": large_delta_rep, "mersenne_exponents": mersenne_rep}

# (name, unit, better) of every per-layer metric; a workload that never
# reaches a layer reports 0 for it.
LAYER_METRICS = (
    ("rn.analyze.calls", "count", "lower"),
    ("rn.analyze.self_s", "s", "lower"),
    ("rn.analyze.share", "ratio", "lower"),
    ("rn.analyze.closed_share", "ratio", "higher"),
    ("rn.sieve.calls", "count", "lower"),
    ("rn.sieve.s", "s", "lower"),
    ("rn.power_cycle.calls", "count", "lower"),
    ("rn.power_cycle.s", "s", "lower"),
    ("rn.direct_search.calls", "count", "lower"),
    ("rn.direct_search.s", "s", "lower"),
    ("rn.solution_at.calls", "count", "lower"),
    ("arith.factorize.calls", "count", "lower"),
    ("arith.factorize.s", "s", "lower"),
    ("arith.factorize.share", "ratio", "lower"),
    ("arith.factorize.incomplete", "count", "lower"),
    ("arith.is_prime.calls", "count", "lower"),
    ("arith.is_prime.s", "s", "lower"),
    ("arith.is_perfect.s", "s", "lower"),
    ("mersenne.lucas_lehmer.calls", "count", "lower"),
    ("mersenne.lucas_lehmer.s", "s", "lower"),
    ("mersenne.lucas_lehmer.share", "ratio", "lower"),
    ("decider.decide.self_s", "s", "lower"),
    ("decider.generate_branches.s", "s", "lower"),
    ("decider.check_candidate.calls", "count", "lower"),
    ("decider.check_candidate.s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("scan.parallel_efficiency", "ratio", "higher"),
    ("trace.overhead_share", "ratio", "lower"),
)


def layer_values(workload: str, rep: dict) -> dict[str, float]:
    """Per-layer values of one traced repetition.

    Times are raw seconds inside the traced interpreters.  `.s` is inclusive
    time, `.self_s` excludes nested traced calls, and `.share` is inclusive
    time over the time inside the workload's entry call (check_candidate on
    mersenne_exponents, decide elsewhere).  On scan the spans come from the
    traced jobs-1 pass and the traced resume that follows it.
    """
    stats, counts = SpanStats(), Counter()
    for run in rep["traced"]:
        stats.merge(SpanStats.from_dict(run["spans"]))
        counts.update(run["counts"])
    calls, incl, own = stats.calls.get, stats.inclusive.get, stats.self_time.get
    top = incl("decider.check_candidate" if workload == "mersenne_exponents" else "decider.decide", 0.0)

    def share(name: str) -> float:
        return incl(name, 0.0) / top if top else 0.0

    analyzed = calls("rn.analyze", 0)
    return {
        "rn.analyze.calls": analyzed,
        "rn.analyze.self_s": own("rn.analyze", 0.0),
        "rn.analyze.share": share("rn.analyze"),
        "rn.analyze.closed_share": counts["rn.analyze.closed"] / analyzed if analyzed else 0.0,
        "rn.sieve.calls": calls("rn.sieve", 0),
        "rn.sieve.s": incl("rn.sieve", 0.0),
        "rn.power_cycle.calls": calls("rn.power_cycle", 0),
        "rn.power_cycle.s": incl("rn.power_cycle", 0.0),
        "rn.direct_search.calls": calls("rn.direct_search", 0),
        "rn.direct_search.s": incl("rn.direct_search", 0.0),
        "rn.solution_at.calls": counts["rn.solution_at"],
        "arith.factorize.calls": calls("arith.factorize", 0),
        "arith.factorize.s": incl("arith.factorize", 0.0),
        "arith.factorize.share": share("arith.factorize"),
        "arith.factorize.incomplete": counts["arith.factorize.incomplete"],
        "arith.is_prime.calls": calls("arith.is_prime", 0),
        "arith.is_prime.s": incl("arith.is_prime", 0.0),
        "arith.is_perfect.s": incl("arith.is_perfect", 0.0),
        "mersenne.lucas_lehmer.calls": calls("mersenne.lucas_lehmer", 0),
        "mersenne.lucas_lehmer.s": incl("mersenne.lucas_lehmer", 0.0),
        "mersenne.lucas_lehmer.share": share("mersenne.lucas_lehmer"),
        "decider.decide.self_s": own("decider.decide", 0.0),
        "decider.generate_branches.s": incl("decider.generate_branches", 0.0),
        "decider.check_candidate.calls": calls("decider.check_candidate", 0),
        "decider.check_candidate.s": incl("decider.check_candidate", 0.0),
        "cli.main.self_s": own("cli.main", 0.0),
        "scan.parallel_efficiency": rep.get("parallel_efficiency", 0.0),
        "trace.overhead_share": rep["overhead_share"],
    }


def _median_of(reps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def workload_metrics(workload: str, reps: list[dict], setup_s: float, failed_share: float) -> dict:
    """Each workload's own end-to-end figures: throughput, resume and verdicts on scan, total and
    slowest decide on large_delta, total on mersenne_exponents."""
    out = {"setup_s": (setup_s, "s"), "failed_share": (failed_share, "ratio")}
    if workload == "scan":
        deltas = reps[0]["deltas"]
        out.update({
            "scan_deltas_per_s": (deltas / _median_of(reps, "pass_s"), "1/s"),
            "scan_deltas_per_s_jobs2": (deltas / _median_of(reps, "jobs2_s"), "1/s"),
            "resume_s": (_median_of(reps, "resume_s"), "s"),
            "eliminated_deltas": (reps[0]["verdicts"].get("eliminated", 0), "count"),
        })
    elif workload == "large_delta":
        out.update({"large_delta_s": (_median_of(reps, "pass_s"), "s"),
                    "decide_worst_s": (_median_of(reps, "tail_item_s"), "s")})
    else:
        out["mersenne_exponents_s"] = (_median_of(reps, "pass_s"), "s")
    return {name: {"value": v, "unit": u} for name, (v, u) in out.items()}


def _environment() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": model, "platform": platform.platform()}


def run_workload(workload: str, seed: int, seconds: int, trace: bool, work: Path) -> tuple[dict, dict]:
    """Set up, repeat the workload for about `seconds`, and return (result, record)."""
    bench = Bench(work, trace)
    load_before = os.getloadavg()
    t_start = time.perf_counter()
    setup = measure_setup(bench)
    rng = random.Random(f"{workload}:{seed}")
    reps, durations = [], []
    while True:
        t0 = time.perf_counter()
        reps.append(WORKLOADS[workload](bench, rng))
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - t_start + statistics.median(durations) > seconds:
            break

    if trace:
        per_rep = [layer_values(workload, rep) for rep in reps]
        units = {name: unit for name, unit, _ in LAYER_METRICS}
        metrics = {name: {"value": statistics.median(v[name] for v in per_rep), "unit": units[name]}
                   for name in units}
    else:
        metrics = {"setup_s": {"value": setup["setup_s"], "unit": "s"},
                   "pass_s": {"value": _median_of(reps, "pass_s"), "unit": "s"},
                   "tail_item_s": {"value": _median_of(reps, "tail_item_s"), "unit": "s"}}
    failed_share = bench.failed / bench.attempted
    for rep in reps:
        rep.pop("traced", None)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "workload_metrics": workload_metrics(workload, reps, setup["setup_s"], failed_share),
        "repetitions": reps, "repetition_wall_s": durations, "setup": setup,
        "failures": bench.failures,
        "environment": dict(_environment(), loadavg_before=load_before, loadavg_after=os.getloadavg()),
    }
    result = {"correct": bench.failed == 0, "attempted": bench.attempted,
              "failed": bench.failed, "metrics": metrics}
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "perfdist" / "cli.py").is_file():
        print(f"error: no perfdist sources under {SRC}", file=sys.stderr)
        return 2

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    try:
        if args.workload != "all":
            result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
            print(json.dumps({"record": record}))
            print(json.dumps(result))
            return 0
        summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            result, record = run_workload(workload, args.seed, args.seconds, bool(args.trace), work)
            print(json.dumps({"record": record}))
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            summary["metrics"].update({f"{workload}.{name}": m
                                       for name, m in record["workload_metrics"].items()})
        print(json.dumps(summary))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work_root.iterdir()):
            work_root.rmdir()


if __name__ == "__main__":
    sys.exit(main())
