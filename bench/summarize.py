"""Summarize a set of benchmark result records written by ``bench/run.py``.

Usage (from the root of a checkout):

    python3 bench/summarize.py .bench_work/results/*.json [--out FILE]

For each workload and metric it prints the number of runs, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, which is the
distance between the quartiles as a share of the median. End-to-end spreads
are held against the bounds in ``BENCHMARK.json``: a spread under a third of
its bound is steady. ``--out`` writes the same table, with the seeds and the
environment of every run, as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(records: list[dict], bounds: dict[str, float]) -> dict:
    groups: dict[str, list[dict]] = {}
    for record in records:
        key = f"{record['workload']} trace={record['trace']}"
        groups.setdefault(key, []).append(record)
    out = {}
    for key, group in sorted(groups.items()):
        metrics = {}
        for name in group[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in group]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else 0.0
            entry = {
                "unit": group[0]["metrics"][name]["unit"],
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": spread,
                "values": values,
            }
            if name in bounds:
                entry["bound"] = bounds[name]
            metrics[name] = entry
        out[key] = {
            "runs": len(group),
            "seeds": [r["seed"] for r in group],
            "seconds": sorted({r["seconds"] for r in group}),
            "fail_ratio": sum(r["fail_ratio"] for r in group) / len(group),
            "inputs": {str(r["seed"]): r["inputs"] for r in group},
            "environment": [r["environment"] for r in group],
            "metrics": metrics,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("records", nargs="+", type=Path)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    records = [json.loads(path.read_text(encoding="utf-8")) for path in args.records]
    summary = summarize(records, bounds)
    for key, group in summary.items():
        print(f"{key}: {group['runs']} runs, seeds {group['seeds']}")
        print(f"  mean fail_ratio {group['fail_ratio']:g}")
        for name, m in group["metrics"].items():
            verdict = ""
            if "bound" in m:
                if m["spread"] < m["bound"] / 3:
                    verdict = "steady"
                elif m["spread"] <= m["bound"]:
                    verdict = "within bound"
                else:
                    verdict = "WIDER THAN BOUND"
                verdict = f"  bound {m['bound']:g}: {verdict}"
            print(
                f"  {name:44s} {m['median']:12.6g} {m['unit']:5s} "
                f"q1 {m['q1']:.6g} q3 {m['q3']:.6g} spread {m['spread']:.4f}{verdict}"
            )
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
