"""Smoke tests of the benchmark harness at 200 sites.

Run from the root of a checkout: python3 -m pytest bench/test_smoke.py -q

They make no timing assertions. They check that every workload runs untraced
and traced, that the output checks pass against the recorded reference values
and catch a broken report, and that the benchmark refuses to run without the
package sources.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import checks
import run as bench

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke_run(workload, trace):
    proc = _bench(
        bench.ROOT,
        *("--workload", workload, "--seed", "3", "--seconds", "1"),
        *("--trace", str(trace), "--scale", "smoke"),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace:
        metrics = result["metrics"]
        assert metrics["simulation.build_offers.calls"]["value"] == 2 * (
            12 if workload.startswith("sweep") else 1
        )
        assert metrics["cli.self_s"]["value"] > 0


def test_output_check_catches_a_broken_report(tmp_path):
    workload = bench.workload_at("load-1.5e4-json", "smoke")
    deadline = time.monotonic() + 120
    argv, _ = bench.make_inputs(workload, 0, tmp_path, deadline)
    result = bench.spawn(tmp_path, argv, False, deadline)
    assert result["exit_code"] == 0
    out = tmp_path / "out"
    values, problems = checks.check_run(out, bench.INITIAL_BUDGET)
    assert problems == []
    reference = json.loads(bench.REFERENCE.read_text(encoding="utf-8"))
    expected = reference["load-1.5e4-json"]["smoke"]["0"]["ops"][0]
    assert checks.compare(values, expected, workload.rounding) == []

    moved = dict(expected, **{"upfront.costs_npv": expected["upfront.costs_npv"] + 0.05})
    assert checks.compare(values, moved, workload.rounding) != []

    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    run = next(run for run in summary["runs"] if run["mechanism"] == "deferred")
    ledger = checks._json_ledger(out, run, "deferred")
    conserved = next(row for row in ledger if row["status"] == "conserved")
    run["sites"] = ledger + [conserved]
    (out / "summary.json").write_text(json.dumps(summary), encoding="utf-8")
    _, problems = checks.check_run(out, bench.INITIAL_BUDGET)
    assert any("appears twice" in p for p in problems)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "load-1.5e4-json", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
