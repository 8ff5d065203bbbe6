"""Run one benchmark job in a fresh interpreter and print its timings as JSON.

Usage: python3 child.py JOB_JSON, with the package's `src` directory on
PYTHONPATH.  JOB_JSON names the operation:

  {"op": "scan", "argv": [...]}                 perfdist.cli.main(argv)
  {"op": "decide", "delta": D}                   perfdist.decide(D)
  {"op": "check_candidate", "p": P, "delta": D}  perfdist.check_candidate(P, D)

plus "ref" ("interp" or "bigint"), the reference kernel that samples CPU
speed around and during the operation, and "trace" (true to install the
span wrappers).

Every job starts a new interpreter, as a command-line user does, so the
lru caches on `factorize` and `lucas_lehmer` start empty on every timed
repetition.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

import perfdist
import perfdist.cli
from perfdist import mersenne

from refkernel import Sampler
from spans import Tracer


def _run(job: dict):
    op = job["op"]
    if op == "scan":
        with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
            code = perfdist.cli.main(job["argv"])
        return {"exit": code}
    if op == "decide":
        report = perfdist.decide(job["delta"])
        return {"verdict": report.verdict,
                "candidates": [c.p for c in report.candidates],
                "outcomes": [c.outcome for c in report.candidates]}
    if op == "check_candidate":
        check = perfdist.check_candidate(job["p"], job["delta"])
        return {"mersenne_status": check.mersenne_status, "outcome": check.outcome}
    raise ValueError(f"unknown op {op!r}")


def _cli_decide(delta: int) -> dict:
    # untimed cross-check of the command-line exit code against the JSON verdict
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = perfdist.cli.main(["decide", str(delta), "--json"])
    return {"cli_exit": code, "cli_verdict": json.loads(out.getvalue())["verdict"]}


def main(argv: list[str]) -> int:
    job = json.loads(argv[1])
    tracer = Tracer() if job.get("trace") else None
    if tracer is not None:
        tracer.install()
    with Sampler(job["ref"]) as sampler:
        c0 = time.process_time()
        t0 = time.perf_counter()
        result = _run(job)
        wall = time.perf_counter() - t0 - sampler.stolen
        cpu = time.process_time() - c0
    out = {"wall": wall, "cpu": cpu, "ref": sampler.samples, "result": result}
    if tracer is not None:
        out["spans"] = tracer.spans.to_dict()
        out["counts"] = dict(tracer.counts)
        out["ll_cache_hits"] = tracer.originals["mersenne.lucas_lehmer"].cache_info().hits
    else:
        out["ll_cache_hits"] = mersenne.lucas_lehmer.cache_info().hits
    if job["op"] == "decide":
        result.update(_cli_decide(job["delta"]))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
