"""Benchmark of the deferauction CLI on named batch workloads.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one CLI command (``deferauction run`` or ``sweep``) in a
fresh single-threaded Python process, one after another: a closed loop with
one client. Inputs (the scenario JSON and, for ``load-1.5e4-json``, the site CSV
written by ``deferauction gen-data``) are made from the seed before timing;
their digests are printed and stored with the results. After each operation
the outputs are checked from outside (``checks.py``) against the structural
invariants and against reference values recorded from an earlier commit.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``: mean
wall time of the command, median cold set-up time, median peak resident
memory (read from /proc, so Linux only) and the share of operations that
succeeded. ``--trace 1`` alternates untraced and
traced operations and reports the per-layer metrics (``spans.py``) plus the
tracing overhead. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record,
with the environment, input digests and every sample, is written to
``.bench_work/results/``.

``--scale smoke`` runs the same workloads at 200 sites; the smoke tests in
``test_smoke.py`` use it.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from importlib import metadata
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"

# A benchmark seed selects one of INPUT_SETS input sets (seed mod INPUT_SETS),
# each with reference values recorded by record_reference.py.
INPUT_SETS = 16
INITIAL_BUDGET = 5_000_000.0
SMOKE_SITES = 200
SETUP_PROBES = 7
# Every run must end within 180 s; no operation may run past this.
RUN_DEADLINE_S = 170.0
SINGLE_THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}


@dataclass(frozen=True)
class Workload:
    """One batch job: a CLI command on generated inputs."""

    command: str  # "run" or "sweep"
    sites: int
    fmt: str
    from_csv: bool = False  # load a gen-data CSV instead of generating in the run
    horizon_years: int | None = None
    sweep_points: int = 0  # rates x periods x seeds of the default sweep grid

    @property
    def rounding(self) -> float:
        """How far the report rounds the values the checks read."""
        return checks.CSV_ROUNDING if self.fmt == "csv" else 0.0

    def check(self, out_dir: Path) -> list[tuple[dict[str, float], list[str]]]:
        """Values and problems of each operation (a run, or a sweep point) in `out_dir`."""
        if self.command == "sweep":
            return checks.check_sweep(out_dir, self.sweep_points)
        return [checks.check_run(out_dir, INITIAL_BUDGET)]

    def scenario(self, data_seed: int) -> dict:
        dataset = {"path": "sites.csv"} if self.from_csv else {"synthetic": {"n_sites": self.sites}}
        scheme = {} if self.horizon_years is None else {"horizon_years": self.horizon_years}
        return {
            "dataset": dataset,
            "scheme": scheme,
            "mechanisms": "both",
            "ranking": "benefit_cost",
            "budget": {"initial": INITIAL_BUDGET, "upfront": "npv-matched"},
            "seed": data_seed,
            "format": self.fmt,
        }


# Sized so that one operation takes one to three seconds on a shared 2-vCPU
# host: a run then holds a few dozen operations, and the mean over them
# damps the host's speed swings, which last seconds to minutes and would pass
# straight into the result of a run of a handful of long operations.
WORKLOADS = {
    "sweep-2e3x12": Workload(command="sweep", sites=2_000, fmt="csv", sweep_points=12),
    "load-1.5e4-json": Workload(
        command="run", sites=15_000, fmt="json", from_csv=True, horizon_years=40
    ),
}


class BenchError(Exception):
    """The benchmark cannot run at all (missing sources, no inputs, broken set-up)."""


def workload_at(name: str, scale: str) -> Workload:
    workload = WORKLOADS[name]
    return replace(workload, sites=SMOKE_SITES) if scale == "smoke" else workload


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(SINGLE_THREAD_ENV)
    return env


def make_inputs(
    workload: Workload, input_set: int, work: Path, deadline: float
) -> tuple[list[str], dict[str, str]]:
    """Write the inputs of one input set into `work`; returns the CLI argv and input digests."""
    data_seed = input_set + 1
    scenario = work / "scenario.json"
    scenario.write_text(json.dumps(workload.scenario(data_seed), sort_keys=True), encoding="utf-8")
    inputs = [scenario]
    if workload.from_csv:
        env = _env()
        env["PYTHONPATH"] = str(SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "deferauction.cli", "gen-data"]
            + ["--n", str(workload.sites), "--seed", str(data_seed), "--out", "sites.csv"],
            cwd=work,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            raise BenchError(f"gen-data failed: {proc.stderr.strip()}")
        inputs.append(work / "sites.csv")
    if workload.command == "sweep":
        sweep_seeds = f"{2 * input_set + 1},{2 * input_set + 2}"
        argv = ["sweep", "scenario.json", "--out-dir", "out", "--seeds", sweep_seeds]
    else:
        argv = ["run", "scenario.json", "--out-dir", "out", "--format", workload.fmt]
    return argv, {path.name: _digest(path) for path in inputs}


def spawn(work: Path, argv: list[str] | None, trace: bool, deadline: float) -> dict:
    """Run op.py once; returns its result with `setup_s` added."""
    request = {
        "src": str(SRC),
        "scenario": "scenario.json",
        "argv": argv,
        "trace": trace,
        "result": "result.json",
        "spans": "spans.npz",
    }
    (work / "request.json").write_text(json.dumps(request), encoding="utf-8")
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    shutil.rmtree(work / "out", ignore_errors=True)
    with open(work / "stderr.txt", "w", encoding="utf-8") as stderr:
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "op.py"), "request.json"],
            cwd=work,
            env=_env(),
            stdout=subprocess.DEVNULL,
            stderr=stderr,
            timeout=max(1.0, deadline - started),
        )
    if proc.returncode != 0 or not result_path.exists():
        tail = (work / "stderr.txt").read_text(encoding="utf-8").strip().splitlines()[-3:]
        raise BenchError(f"benchmark process failed ({proc.returncode}): {' | '.join(tail)}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["setup_s"] = result["ready"] - started
    return result


class Run:
    """The samples and outcome counts of one benchmark run."""

    def __init__(self, workload: Workload, reference: dict | None) -> None:
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_s: list[float] = []
        self.wall_s: list[float] = []
        self.traced_wall_s: list[float] = []
        self.peak_rss_mb: list[float] = []
        self.layers: list[dict[str, float]] = []

    def record(self, result: dict, out_dir: Path) -> None:
        """Check one operation's outputs and count its operations."""
        self.setup_s.append(result["setup_s"])
        outcomes = self.workload.check(out_dir)
        expected = self.reference["ops"] if self.reference else [None] * len(outcomes)
        for index, ((values, problems), reference) in enumerate(zip(outcomes, expected)):
            if result["exit_code"] != 0:
                problems = [f"exit code {result['exit_code']}"] + problems
            if reference is None:
                problems = problems + ["no reference values for this input"]
            elif not problems:
                problems = checks.compare(values, reference, self.workload.rounding)
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.extend(f"op {index}: {p}" for p in problems)


def _median(samples: list[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def _quartiles(samples: list[float]) -> str:
    if len(samples) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return f", q1 {q1:.4g}, q3 {q3:.4g}"


def environment() -> dict[str, object]:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        sha = proc.stdout.strip() or None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "cpu_count": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "platform": platform.platform(),
    }


def benchmark(name: str, seed: int, seconds: int, trace: bool, scale: str) -> tuple[Run, dict]:
    """Make the inputs, measure set-up, then run operations for `seconds`."""
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    if not (SRC / "deferauction" / "cli.py").is_file():
        raise BenchError(f"no package sources at {SRC}")
    workload = workload_at(name, scale)
    input_set = seed % INPUT_SETS
    work = WORK / f"{name}-{scale}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    argv, digests = make_inputs(workload, input_set, work, deadline)

    references = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    reference = references.get(name, {}).get(scale, {}).get(str(input_set))
    run = Run(workload, reference)
    if reference is not None and reference["inputs"] != digests:
        run.problems.append(f"input digests {digests} differ from the reference's")
        reference = run.reference = None

    # The first start compiles bytecode; users pay that once, so it is not timed.
    spawn(work, None, False, deadline)
    for _ in range(0 if trace else SETUP_PROBES):
        run.setup_s.append(spawn(work, None, False, deadline)["setup_s"])

    window_start = time.monotonic()
    round_times: list[float] = []
    while True:
        round_start = time.monotonic()
        result = spawn(work, argv, False, deadline)
        run.record(result, work / "out")
        run.wall_s.append(result["wall_s"])
        run.peak_rss_mb.append(result["peak_rss_mb"])
        if trace:
            result = spawn(work, argv, True, deadline)
            run.record(result, work / "out")
            run.traced_wall_s.append(result["wall_s"])
            run.layers.append(result["layers"])
        round_times.append(time.monotonic() - round_start)
        now = time.monotonic()
        if now + statistics.median(round_times) > min(window_start + seconds, deadline):
            break
    return run, {"input_set": input_set, "inputs": digests, "argv": argv}


def end_to_end(run: Run) -> dict[str, float]:
    # wall_s is a mean, total command time over operations, not a median: the
    # host's speed flips between two levels for seconds to minutes at a time,
    # and the median of such a two-level sample jumps with the share of
    # operations that ran at each level, where the mean moves in proportion.
    return {
        "wall_s": statistics.fmean(run.wall_s),
        "setup_s": _median(run.setup_s),
        "peak_rss_mb": _median(run.peak_rss_mb),
        "ok_ratio": (run.attempted - run.failed) / run.attempted,
    }


def per_layer(run: Run, names: list[str]) -> dict[str, float]:
    out = {}
    for name in names:
        out[name] = _median([layers.get(name, 0.0) for layers in run.layers])
    out["trace.overhead_s"] = statistics.fmean(run.traced_wall_s) - statistics.fmean(run.wall_s)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        run, inputs = benchmark(
            args.workload, args.seed, args.seconds, bool(args.trace), args.scale
        )
    except (BenchError, OSError, subprocess.TimeoutExpired) as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values = per_layer(run, [m["name"] for m in declared])
    else:
        values = end_to_end(run)
    samples = {
        "wall_s": run.wall_s,
        "setup_s": run.setup_s,
        "peak_rss_mb": run.peak_rss_mb,
        "trace.overhead_s": run.traced_wall_s,
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    env = environment()
    print(f"workload {args.workload} ({args.scale}), seed {args.seed}")
    print(f"input set {inputs['input_set']}, argv {inputs['argv']}")
    print(f"inputs: {json.dumps(inputs['inputs'], sort_keys=True)}")
    print(f"environment: {json.dumps(env)}")
    for problem in run.problems:
        print(f"check failed: {problem}")
    for name, metric in metrics.items():
        taken_from = samples.get(name, run.layers)
        how = "mean" if name in ("wall_s", "trace.overhead_s") else "median"
        spread = _quartiles(samples[name]) if name in samples else ""
        detail = f" ({how} of {len(taken_from)}{spread})" if taken_from else ""
        print(f"{name} = {metric['value']:.6g} {metric['unit']}{detail}")
    fail_ratio = run.failed / run.attempted
    print(f"fail_ratio = {fail_ratio:.6g} ({run.failed} of {run.attempted} operations)")

    record = {
        "workload": args.workload,
        "why": next((w["why"] for w in spec["workloads"] if w["name"] == args.workload), None),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "environment": env,
        **inputs,
        "metrics": metrics,
        "fail_ratio": fail_ratio,
        "problems": run.problems,
        "samples": {**samples, "layers": run.layers},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = results / f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(
        json.dumps(
            {
                "correct": run.failed == 0 and not run.problems,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
