"""Command-line front end.

Subcommands: `decide` for a single delta, `rn solve` / `rn sieve` for raw
equation tooling, `scan` for resumable batch surveys over triangular
indices, and `verify-pair`.  Exit codes: 0 eliminated / success, 1 usage
error, 2 inconclusive or out of scope (or a failed pair check).  Each
subcommand takes only the flags it reads; --json switches a command to
the stable record format.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from .arith import DEFAULT_BUDGET, FactorBudgetError
from .decider import canonical_json, decide, fingerprint, verify_pair
from .rn import DEFAULT_N_MAX, RNEquation, direct_search, sieve

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNDECIDED = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _add_budget_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--factor-budget", type=int, default=DEFAULT_BUDGET,
                   help="Brent-rho iterations per factorization, past the primes below 100 "
                        "(at least 1, default 10^7)")


def _add_json_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable record instead of text")


def _via(rule: str | None) -> str:
    # a value past the odd-perfect bound has no rule, and prints none
    return "" if rule is None else f" [{rule}]"


def _render_decision(report) -> str:
    lines = [f"delta = {report.delta}"]
    ca = report.case_analysis
    lines.append(f"  mod 12 = {report.delta % 12} ({'blocked' if ca.touchard_blocked else 'not blocked'}), "
                 f"mod 4 = {ca.mod4_class}, triangular index b = {ca.b}")
    if report.delta_plus_6_check:
        d6 = report.delta_plus_6_check
        lines.append(f"  delta + 6 = {d6['value']}: {d6['perfect_status']}{_via(d6['rule'])}")
    for br in report.branches:
        sols = ", ".join(f"(x={s.x}, n={s.n})" for s in br.status.solutions) or "none"
        if br.status.status == "closed_complete":
            via = br.status.rule
        elif br.status.status == "closed_finite_n":
            via = "sieve + finite checks"
        else:
            via = "bounded search only"
        lines.append(f"  branch {br.side} d={br.d} c={br.c}: {br.status.status} "
                     f"[{via}]; solutions: {sols}")
    for cand in report.candidates:
        if cand.mersenne_status != "prime":
            factor = "" if cand.mersenne_factor is None else f" (factor {cand.mersenne_factor})"
            lines.append(f"  candidate p={cand.p}: 2^p - 1 {cand.mersenne_status}{factor}")
        else:
            lines.append(f"  candidate p={cand.p}: m = {cand.m}, m - delta = {cand.n_candidate}: "
                         f"{cand.perfect_status}{_via(cand.rule)} -> {cand.outcome}")
    for obs in report.obstructions:
        lines.append(f"  obstruction: {obs}")
    lines.append(f"verdict: {report.verdict}")
    return "\n".join(lines)


def cmd_decide(args) -> int:
    report = decide(args.delta, args.factor_budget)
    print(report.to_json() if args.json else _render_decision(report))
    return EXIT_OK if report.verdict == "eliminated" else EXIT_UNDECIDED


def cmd_rn_solve(args) -> int:
    eq = RNEquation(args.d, args.c)
    solutions = direct_search(eq, 0, args.n_max)
    if args.json:
        print(canonical_json({
            "equation": eq.to_dict(),
            "n_max": args.n_max,
            "solutions": [s.as_pair() for s in solutions],
        }))
    else:
        print(f"{eq}, n <= {args.n_max}")
        if not solutions:
            print("no solutions")
        for s in solutions:
            print(f"x={s.x} n={s.n}")
    return EXIT_OK


def cmd_rn_sieve(args) -> int:
    eq = RNEquation(args.d, args.c)
    report = sieve(eq, args.modulus, args.n_min, args.n_parity)
    if args.json:
        print(canonical_json(report.to_dict()))
    else:
        print(f"{eq} mod {report.modulus}: 2^n enters a cycle of length {report.period} "
              f"at n = {report.n_threshold}")
        if report.surviving_classes:
            classes = ", ".join(str(r) for r in report.surviving_classes)
            print(f"surviving classes mod {report.period}: {classes}")
        else:
            print("no surviving classes")
        if report.small_n_to_check:
            print("check directly: n in " + str(list(report.small_n_to_check)))
    return EXIT_OK


def _scan_record(budget: int, fingerprint: str, b: int) -> tuple[int, int, str, int, str]:
    """(b, delta, verdict, elapsed_ms, line) of delta = b(b-1)/2; elapsed_ms times decide alone."""
    delta = b * (b - 1) // 2
    t0 = time.perf_counter()
    report = decide(delta, budget)
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return b, delta, report.verdict, elapsed_ms, _scan_line(report, elapsed_ms, fingerprint)


def _scan_line(report, elapsed_ms: int, fingerprint: str) -> str:
    # canonical_json of the scan record + "\n" at a fifth of its cost: keys in sorted
    # order, and each string is an ASCII word or hex digest, which JSON writes as it is
    branches = ",".join([f'{{"d":{br.d},"side":"{br.side}","status":"{br.status.status}"}}'
                         for br in report.branches])
    return (f'{{"b":{report.case_analysis.b},"branches":[{branches}],'
            f'"config_fingerprint":"{fingerprint}","delta":{report.delta},'
            f'"elapsed_ms":{elapsed_ms},"verdict":"{report.verdict}"}}\n')


def _load_scan_records(path: str) -> dict[int, dict]:
    """Records of an earlier scan by delta, for resuming it.

    A final line that lacks its newline and does not parse was torn by a
    killed scan: it is cut from the file and its delta recomputed.  Any
    other line that is not a record is a usage error naming the line.
    """
    if not os.path.exists(path):
        return {}
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}")
    lines = data.split(b"\n")  # the last item follows the last newline
    torn = False
    records = {}
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except ValueError:
            if lineno == len(lines):
                torn = True
                break
            raise _UsageError(f"{path}:{lineno}: not a JSON line")
        if (not isinstance(rec, dict) or type(rec.get("delta")) is not int
                or not isinstance(rec.get("verdict"), str)):
            raise _UsageError(f"{path}:{lineno}: not a scan record "
                              "(needs an integer delta and a string verdict)")
        records[rec["delta"]] = rec
    # appended records must start a line of their own
    if torn:
        os.truncate(path, len(data) - len(lines[-1]))
    elif lines[-1]:
        with open(path, "ab") as fh:
            fh.write(b"\n")
    return records


def cmd_scan(args) -> int:
    if args.b_from < 3 or args.b_from > args.b_to:
        raise _UsageError("need 3 <= b-from <= b-to")
    if args.jobs < 1:
        raise _UsageError(f"--jobs must be >= 1, got {args.jobs}")
    if args.factor_budget < 1:
        raise _UsageError(f"the factor budget must be >= 1, got {args.factor_budget}")
    config_fingerprint = fingerprint(args.factor_budget)
    records = _load_scan_records(args.out)  # new records replace these

    todo = []
    for b in range(args.b_from, args.b_to + 1):
        delta = b * (b - 1) // 2
        if delta % 4 != 3:
            continue
        prior = records.get(delta)
        if prior is not None and prior.get("config_fingerprint") == config_fingerprint:
            continue
        todo.append(b)

    try:
        out_fh = open(args.out, "a", encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot write {args.out}: {exc}")

    new = {}  # delta -> line of each new record; the line serves both writes
    with out_fh:
        def emit(item):
            b, delta, verdict, elapsed_ms, line = item
            new[delta] = line
            out_fh.write(line)
            out_fh.flush()
            print(f"delta={delta} (b={b}): {verdict} [{elapsed_ms} ms]", file=sys.stderr)

        record = functools.partial(_scan_record, args.factor_budget, config_fingerprint)
        # the pool starts every worker at once, so ask for no more than can be busy
        workers = min(args.jobs, len(todo), os.cpu_count() or 1)
        if workers > 1:
            import concurrent.futures  # here, so a decide or a jobs-1 scan never loads it

            # about four chunks per worker: few pickles, yet a slow chunk
            # still leaves the other workers something to take
            chunksize = -(-len(todo) // (4 * workers))
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                for item in pool.map(record, todo, chunksize=chunksize):
                    emit(item)
        else:
            for item in map(record, todo):
                emit(item)

    # restore delta ordering: stale records are replaced, nothing is dropped;
    # the sorted copy replaces the file only once it is whole
    deltas = sorted(records.keys() | new.keys())
    tmp = args.out + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for delta in deltas:
                fh.write(new[delta] if delta in new else canonical_json(records[delta]) + "\n")
        os.replace(tmp, args.out)
    except OSError as exc:  # the appended records stay, so a rerun resumes from them
        raise _UsageError(f"cannot write {tmp}: {exc}")
    return EXIT_OK


def cmd_verify_pair(args) -> int:
    check = verify_pair(args.x, args.y, args.factor_budget)
    if args.json:
        print(canonical_json(check.to_dict()))
    else:
        print(f"{check.x}: {check.x_status}")
        print(f"{check.y}: {check.y_status}")
        print(f"distance: {check.distance}")
        print("both perfect" if check.both_perfect else "not both perfect")
    return EXIT_OK if check.both_perfect else EXIT_UNDECIDED


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="perfdist",
                     description="Decide whether an odd delta can be the distance "
                                 "between two perfect numbers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_decide = sub.add_parser("decide", help="run the decision procedure for one delta")
    p_decide.add_argument("delta", type=int, help="positive odd integer")
    _add_budget_flag(p_decide)
    _add_json_flag(p_decide)
    p_decide.set_defaults(func=cmd_decide)

    p_rn = sub.add_parser("rn", help="raw equation tooling for d*x^2 + c = 2^n")
    rn_sub = p_rn.add_subparsers(dest="rn_command", required=True)

    p_solve = rn_sub.add_parser("solve", help="list all solutions with n <= n-max")
    p_solve.add_argument("d", type=int)
    p_solve.add_argument("c", type=int)
    p_solve.add_argument("--n-max", type=int, default=DEFAULT_N_MAX,
                         help="exponent bound for the search (default 2000)")
    _add_json_flag(p_solve)
    p_solve.set_defaults(func=cmd_rn_solve)

    p_sieve = rn_sub.add_parser("sieve", help="residue-class analysis at one modulus")
    p_sieve.add_argument("d", type=int)
    p_sieve.add_argument("c", type=int)
    p_sieve.add_argument("--modulus", type=int, required=True)
    p_sieve.add_argument("--n-min", type=int, default=0)
    p_sieve.add_argument("--n-parity", choices=("any", "odd"), default="any")
    _add_json_flag(p_sieve)
    p_sieve.set_defaults(func=cmd_rn_sieve)

    p_scan = sub.add_parser("scan", help="decide every delta = b(b-1)/2 = 3 mod 4 in a range")
    p_scan.add_argument("--b-from", type=int, required=True)
    p_scan.add_argument("--b-to", type=int, required=True)
    p_scan.add_argument("--out", default="scan.jsonl",
                        help="record file, one JSON object per delta (default scan.jsonl)")
    p_scan.add_argument("--jobs", type=int, default=1,
                        help="concurrent decisions (default 1), capped at the pending "
                             "deltas and the CPU count")
    _add_budget_flag(p_scan)
    p_scan.set_defaults(func=cmd_scan)

    p_pair = sub.add_parser("verify-pair", help="check perfectness of two integers")
    p_pair.add_argument("x", type=int)
    p_pair.add_argument("y", type=int)
    _add_budget_flag(p_pair)
    _add_json_flag(p_pair)
    p_pair.set_defaults(func=cmd_verify_pair)

    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # a delta may have over 4300 digits
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, ValueError, FactorBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
