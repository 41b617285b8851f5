"""Golden outputs: the report files of two runs and a sweep, and a generated site CSV, pinned.

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

``golden/input/sites.csv`` is the committed input of the ``run-csv`` case:
70 generated rows with a padded cell, a repeated id, a blank line and a
quoted id, so the site CSV path's ledgers, summary and manifest are pinned
without depending on the generator's bytes.

``golden/gen-data`` pins the generator itself: ``gen-data --n 80 --seed 7``
with a profile that moves every noise sd, the age bands, the beta pairs,
``v0_horizon`` and the deadwood curve off their defaults, so each draw and
each formula shows in the CSV. Its numbers compare within 1e-12 relative,
since numpy's exp may round the last bit differently on another CPU.
"""
from __future__ import annotations

import json
import os
import re
import shutil
from itertools import zip_longest
from pathlib import Path

import pytest

from deferauction import dataio
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
# The CSV case reads the committed input, named relative to the work directory
# so that the manifest records the same path wherever the test runs.
CSV_SCENARIO = {**SCENARIO, "dataset": {"path": "sites.csv"}}
CASES = {
    "run": (SCENARIO, ["run", "--format", "both"]),
    "run-csv": (CSV_SCENARIO, ["run", "--format", "both"]),
    "sweep": (
        SCENARIO,
        ["sweep", "--interest-rates", "0.02,0.04", "--payment-periods", "10", "--point-dirs"],
    ),
}
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _main_in(work: Path, argv: list[str]) -> None:
    """Run the CLI on `argv` in the working directory `work`; it must exit 0."""
    cwd = os.getcwd()
    os.chdir(work)
    try:
        assert main(argv) == EXIT_OK
    finally:
        os.chdir(cwd)


def produce(case: str, work: Path) -> Path:
    """Run one case in `work`; returns its output directory."""
    scenario, (command, *options) = CASES[case]
    (work / "scenario.json").write_text(json.dumps(scenario), encoding="utf-8")
    shutil.copy(GOLDEN / "input" / "sites.csv", work / "sites.csv")
    _main_in(work, [command, "scenario.json", "--out-dir", case, *options])
    return work / case


def generate(work: Path) -> Path:
    """Run the generator case in `work`; returns the CSV it wrote."""
    shutil.copy(GOLDEN / "gen-data" / "profile.json", work / "profile.json")
    argv = ["gen-data", "--n", "80", "--seed", "7", "--profile", "profile.json", "--out", "sites.csv"]
    _main_in(work, argv)
    return work / "sites.csv"


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
def test_outputs_match_golden(case, tmp_path, monkeypatch):
    # Chunks of 16 rows: the CSV case loads plain chunks, then its blank line
    # sends the rest of the file through the csv module.
    monkeypatch.setattr(dataio, "_LOAD_CHUNK_ROWS", 16)
    out_dir = produce(case, tmp_path)
    golden = GOLDEN / case
    assert _files(out_dir) == _files(golden)
    for rel in _files(golden):
        expected = (golden / rel).read_text(encoding="utf-8")
        actual = (out_dir / rel).read_text(encoding="utf-8")
        difference = first_difference(expected, actual, numeric=rel.name == "summary.json")
        assert difference is None, f"{case}/{rel}: {difference}"


def test_generated_sites_match_golden(tmp_path):
    expected = (GOLDEN / "gen-data" / "sites.csv").read_text(encoding="utf-8")
    actual = generate(tmp_path).read_text(encoding="utf-8")
    assert first_difference(expected, actual, numeric=True) is None


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
    work = GOLDEN / ".gen-data-work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    generate(work).replace(GOLDEN / "gen-data" / "sites.csv")
    shutil.rmtree(work)
