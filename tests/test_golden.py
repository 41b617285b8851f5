"""Golden outputs: every report file of a small run and a small sweep, pinned.

CSV files and ``manifest.json`` must match ``tests/golden/`` byte for byte;
``summary.json`` line for line, with every number within 1e-12 relative.
After an intended output change, rewrite the golden files with
``PYTHONPATH=src python tests/test_golden.py`` and record in CHANGES.md which
bytes moved and why.

``golden/validate`` pins the standard output of ``deferauction validate`` on
a CSV of broken cells (empty, padded, non-finite and unparseable numbers,
negative values, unknown names, species mismatches, repeated ids, blank,
short and long rows), recorded with the per-row loader the table loader
replaced. That script does not rewrite it.
"""
from __future__ import annotations

import json
import re
import shutil
from itertools import zip_longest
from pathlib import Path

import pytest

from deferauction.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"
RELATIVE_TOLERANCE = 1e-12
# A 60-site scenario whose budget binds, so the ledgers hold conserved, lost
# and unfunded sites.
SCENARIO = {
    "dataset": {"synthetic": {"n_sites": 60}},
    "scheme": {"seed": 3},
    "budget": {"initial": 100_000.0, "upfront": "npv-matched"},
}
CASES = {
    "run": ["run", "--format", "both"],
    "sweep": ["sweep", "--interest-rates", "0.02,0.04", "--payment-periods", "10", "--point-dirs"],
}
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def produce(case: str, work: Path) -> Path:
    """Run one case in `work`; returns its output directory."""
    scenario = work / "scenario.json"
    scenario.write_text(json.dumps(SCENARIO), encoding="utf-8")
    command, *options = CASES[case]
    out_dir = work / case
    assert main([command, str(scenario), "--out-dir", str(out_dir), *options]) == EXIT_OK
    return out_dir


def _files(root: Path) -> list[Path]:
    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())


def _numbers_close(expected: str, actual: str) -> bool:
    if _NUMBER.split(expected) != _NUMBER.split(actual):
        return False
    pairs = zip(_NUMBER.findall(expected), _NUMBER.findall(actual))
    return all(
        abs(float(e) - float(a)) <= RELATIVE_TOLERANCE * max(abs(float(e)), abs(float(a)))
        for e, a in pairs
    )


def first_difference(expected: str, actual: str, numeric: bool) -> str | None:
    """The first differing line as a message, or None when the texts agree."""
    lines = zip_longest(expected.splitlines(), actual.splitlines())
    for number, (e, a) in enumerate(lines, start=1):
        if e == a or (numeric and e is not None and a is not None and _numbers_close(e, a)):
            continue
        return f"line {number}: expected {e!r}, got {a!r}"
    return None


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden(case, tmp_path):
    out_dir = produce(case, tmp_path)
    golden = GOLDEN / case
    assert _files(out_dir) == _files(golden)
    for rel in _files(golden):
        expected = (golden / rel).read_text(encoding="utf-8")
        actual = (out_dir / rel).read_text(encoding="utf-8")
        difference = first_difference(expected, actual, numeric=rel.name == "summary.json")
        assert difference is None, f"{case}/{rel}: {difference}"



def test_validate_output_matches_golden(capsys):
    golden = GOLDEN / "validate"
    assert main(["validate", str(golden / "sites.csv")]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.encode("utf-8") == (golden / "stdout.txt").read_bytes()
    assert captured.err == ""

if __name__ == "__main__":
    for name in CASES:
        work = GOLDEN / f".{name}-work"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        shutil.rmtree(GOLDEN / name, ignore_errors=True)
        produce(name, work).rename(GOLDEN / name)
        shutil.rmtree(work)
