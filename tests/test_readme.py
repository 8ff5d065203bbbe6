"""README.md quotes a config fingerprint and a scan record: both must match the code."""

import json
import re
from pathlib import Path

from perfdist.arith import DEFAULT_BUDGET
from perfdist.cli import main
from perfdist.decider import canonical_json, fingerprint

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_readme_quotes_the_current_config_fingerprint():
    # 16 hex digits between backticks or double quotes; a 64-digit digest does not match
    quoted = re.findall(r'[`"]([0-9a-f]{16})[`"]', README)
    assert len(quoted) >= 2
    assert set(quoted) == {fingerprint(DEFAULT_BUDGET)}


def test_readme_sample_scan_record_matches_a_fresh_scan(tmp_path, capsys):
    lines = [line for line in README.splitlines() if line.startswith('{"b":6,')]
    assert len(lines) == 1
    sample = json.loads(lines[0])
    assert canonical_json(sample) == lines[0]

    out = tmp_path / "scan.jsonl"
    assert main(["scan", "--b-from", "6", "--b-to", "6", "--out", str(out)]) == 0
    capsys.readouterr()
    [fresh] = [json.loads(line) for line in out.read_text().splitlines()]
    del sample["elapsed_ms"], fresh["elapsed_ms"]
    assert sample == fresh
