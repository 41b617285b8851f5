"""Record the reference output values that every benchmark run is checked against.

Usage (from the root of a checkout):

    python3 bench/record_reference.py [--scale full|smoke] [--workload NAME]

Runs each workload once per input set with the current sources, requires the
outputs to pass the structural checks, and stores the input digests and the
checked values in ``bench/reference.json`` (other entries are kept). Record
again only when a change is meant to move the program's outputs, and say so
where the change is described.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

import run as bench


def record(name: str, scale: str, input_set: int) -> dict:
    workload = bench.workload_at(name, scale)
    work = bench.WORK / f"reference-{name}-{scale}-{input_set}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = time.monotonic() + bench.RUN_DEADLINE_S
    argv, digests = bench.make_inputs(workload, input_set, work, deadline)
    result = bench.spawn(work, argv, False, deadline)
    if result["exit_code"] != 0:
        raise bench.BenchError(f"{name} input set {input_set}: exit code {result['exit_code']}")
    outcomes = workload.check(work / "out")
    problems = [p for _, op_problems in outcomes for p in op_problems]
    if problems:
        raise bench.BenchError(f"{name} input set {input_set}: {problems}")
    shutil.rmtree(work)
    return {"inputs": digests, "ops": [values for values, _ in outcomes]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--workload", choices=sorted(bench.WORKLOADS), action="append")
    args = parser.parse_args()
    references = (
        json.loads(bench.REFERENCE.read_text(encoding="utf-8")) if bench.REFERENCE.exists() else {}
    )
    for name in args.workload or sorted(bench.WORKLOADS):
        entries = references.setdefault(name, {}).setdefault(args.scale, {})
        for input_set in range(bench.INPUT_SETS):
            entries[str(input_set)] = record(name, args.scale, input_set)
            print(f"{name} {args.scale} input set {input_set}: recorded", flush=True)
        text = json.dumps(references, indent=1, sort_keys=True) + "\n"
        bench.REFERENCE.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
