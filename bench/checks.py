"""Output checks made from outside the program, after each benchmark operation.

Every field is read by name from the written reports. The checks avoid the
names that are expected to move: the ``offered_*`` summary columns, the place of
the site ledger inside ``summary.json`` (it may move to its own file), and the
per-point directories of a sweep (only ``sweep.csv`` is read).

A check returns the values an operation produced together with the problems
found; ``compare`` then holds the values against reference values recorded
from an earlier commit for the same workload and input.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path

MECHANISMS = ("deferred", "upfront")
STATUSES = ("conserved", "lost", "unfunded")
# The values the reference pins for each mechanism. A sweep point has no
# `sites_conserved` column, so it pins the other four.
REFERENCE_FIELDS = (
    "area_ha",
    "sites_conserved",
    "costs_npv",
    "benefits_npv",
    "ex_post_net_benefits",
)
RELATIVE_TOLERANCE = 1e-9
CSV_ROUNDING = 0.01


def _close(a: float, b: float, rounding: float) -> bool:
    return abs(a - b) <= rounding + RELATIVE_TOLERANCE * max(abs(a), abs(b))


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _json_ledger(out_dir: Path, run: dict, mechanism: str) -> list[dict]:
    """The site ledger of one mechanism: inside summary.json or in a file of its own."""
    if "sites" in run:
        return run["sites"]
    jsonl = out_dir / f"sites_{mechanism}.jsonl"
    if jsonl.exists():
        with open(jsonl, encoding="utf-8") as fh:
            return [json.loads(line) for line in fh if line.strip()]
    return _read_csv(out_dir / f"sites_{mechanism}.csv")


def _check_mechanism(
    mechanism: str,
    summary: dict,
    ledger: list[dict],
    timeseries: list[dict],
    initial_budget: float,
) -> tuple[dict[str, float], list[str]]:
    problems = []
    where = f"{mechanism}:"
    seen: set[str] = set()
    conserved_area = 0.0
    conserved = 0
    for row in ledger:
        site_id, status = row["site_id"], row["status"]
        if site_id in seen:
            problems.append(f"{where} site {site_id} appears twice in the ledger")
        seen.add(site_id)
        if status not in STATUSES:
            problems.append(f"{where} site {site_id} has status {status!r}")
        if status == "conserved":
            conserved += 1
            conserved_area += float(row["area_ha"])

    values = {field: float(summary[field]) for field in REFERENCE_FIELDS}
    if values["sites_conserved"] != conserved:
        problems.append(
            f"{where} sites_conserved {values['sites_conserved']:g}"
            f" != {conserved} conserved ledger rows"
        )
    if not _close(values["area_ha"], conserved_area, 0.0):
        problems.append(f"{where} area_ha {values['area_ha']} != ledger {conserved_area}")

    annual = {int(float(row["year"])): float(row["annual_cost"]) for row in timeseries}
    if mechanism == "deferred":
        if annual.get(0, 0.0) > initial_budget:
            problems.append(f"{where} year-0 spend {annual[0]} exceeds the initial budget")
    else:
        budget = float(summary["budget"])
        over = [year for year, cost in annual.items() if cost > budget]
        if over:
            problems.append(f"{where} spend exceeds the annual budget in years {over}")
    if timeseries:
        last = float(timeseries[-1]["cumulative_cost"])
        if not _close(last, float(summary["costs_absolute"]), 0.0):
            problems.append(
                f"{where} last cumulative_cost {last} != costs_absolute {summary['costs_absolute']}"
            )
    else:
        problems.append(f"{where} empty timeseries")
    return {f"{mechanism}.{k}": v for k, v in values.items()}, problems


def check_run(out_dir: Path, initial_budget: float) -> tuple[dict[str, float], list[str]]:
    """Check one `deferauction run` output directory written as JSON."""
    values: dict[str, float] = {}
    problems: list[str] = []
    try:
        with open(out_dir / "summary.json", encoding="utf-8") as fh:
            runs = json.load(fh)["runs"]
        parts = {
            run["mechanism"]: (
                run["summary"],
                _json_ledger(out_dir, run, run["mechanism"]),
                run["timeseries"],
            )
            for run in runs
        }
        if sorted(parts) != sorted(MECHANISMS):
            problems.append(f"mechanisms in the report: {sorted(parts)}")
        for mech, (summary, ledger, timeseries) in parts.items():
            mech_values, mech_problems = _check_mechanism(
                mech, summary, ledger, timeseries, initial_budget
            )
            values.update(mech_values)
            problems.extend(mech_problems)
    except (OSError, KeyError, ValueError, TypeError) as err:
        problems.append(f"unreadable report: {err!r}")
    return values, problems


def check_sweep(out_dir: Path, points: int) -> list[tuple[dict[str, float], list[str]]]:
    """Check `sweep.csv`: one (values, problems) pair per expected grid point."""
    fields = [f for f in REFERENCE_FIELDS if f != "sites_conserved"]
    try:
        rows = {int(row["point"]): row for row in _read_csv(out_dir / "sweep.csv")}
    except (OSError, KeyError, ValueError) as err:
        return [({}, [f"unreadable sweep.csv: {err!r}"])] * points
    out = []
    for point in range(points):
        row = rows.get(point)
        if row is None:
            out.append(({}, [f"point {point}: missing from sweep.csv"]))
            continue
        if row.get("status") != "ok":
            out.append(({}, [f"point {point}: status {row.get('status')!r}"]))
            continue
        try:
            values = {f"{m}.{f}": float(row[f"{m}_{f}"]) for m in MECHANISMS for f in fields}
        except (KeyError, ValueError) as err:
            out.append(({}, [f"point {point}: unreadable value {err!r}"]))
            continue
        out.append((values, []))
    return out


def compare(values: dict[str, float], reference: dict[str, float], rounding: float) -> list[str]:
    """Differences between an operation's values and its recorded reference values."""
    problems = []
    for key, expected in reference.items():
        got = values.get(key)
        if got is None:
            problems.append(f"{key}: missing")
        elif not _close(got, expected, rounding):
            problems.append(f"{key}: {got!r} != reference {expected!r}")
    return problems
