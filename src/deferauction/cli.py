"""Command-line front end: single runs, sensitivity sweeps, data tools, extrapolation.

Scenario files are JSON; every run writes a manifest with the fully resolved
configuration so that re-running the manifest reproduces all outputs
bit-identically. Exit codes: 0 ok, 2 configuration error, 3 I/O error,
4 internal invariant breach.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import types
import typing
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__
from .dataio import (
    SWEEP_POINT_COLUMNS,
    LoadError,
    Run,
    SyntheticProfile,
    format_console_summary,
    generate_synthetic,
    load_sites,
    report_cells,
    write_report,
    write_sites,
    write_sweep,
)
from .ecology import DEFAULT_ELITE_TABLE, EliteTable, load_elite_table
from .finance import match_upfront_budget
from .model import (
    ConfigError,
    Mechanism,
    SchemeConfig,
    SiteTable,
    require_valid_scheme,
    utf8_lines,
    validate_scheme,
)
from .simulation import (
    SiteColumns,
    build_offers,
    draw_harvest_schedule,
    extrapolate_national,
    rank_benefit_cost,
    run_deferred,
    run_upfront,
    select_old_growth,
    site_columns,
    summarize_supply,
)
from .streams import HARVEST_STREAM, PHI_STREAM, rng_stream

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

NPV_MATCHED = "npv-matched"
RANKINGS = ("benefit_cost", "old_growth")
# Run order: deferred first, since an npv-matched up-front budget derives from its stream.
MECHANISMS = tuple(mechanism.value for mechanism in Mechanism)


@dataclass(frozen=True)
class Budget:
    """A scenario's budgets: the deferred run's at year 0, the up-front run's per year."""

    initial: float = 5_000_000.0
    upfront: float | str | None = NPV_MATCHED


@dataclass(frozen=True)
class Scenario:
    """A scenario file: its fields are the file's keys, annotated as the file may give them.

    `resolve_scenario` reads one, applies the defaults and checks the rules.
    Resolved, `dataset` holds one key, "path" (a str) or "synthetic" (a
    SyntheticProfile); `mechanisms` is a tuple in MECHANISMS order; the
    up-front budget is None without an up-front run; `seed` is the scheme's.
    `dataclasses.asdict` of it is a manifest's "scenario", which resolves to
    an equal Scenario.
    """

    dataset: dict = dataclasses.field(default_factory=lambda: {"synthetic": None})
    scheme: SchemeConfig = SchemeConfig()
    mechanisms: tuple[str, ...] | str = "both"
    ranking: str = RANKINGS[0]
    budget: Budget = Budget()
    elite_table: str | None = None
    seed: int = None  # the scheme's
    format: str = "both"


@dataclass(frozen=True)
class SweepPlan:
    """The axes of a sweep; its points are their product, in field order.

    A sweep's manifest records the plan under "axes", and each axis flag of
    `sweep` replaces its own field. No seeds means the scenario's seed.
    """

    interest_rates: tuple[float, ...] = (0.02, 0.03, 0.04)
    payment_periods: tuple[int, ...] = (10, 20)
    bid_cap_scales: tuple[float, ...] = (1.0,)
    seeds: tuple[int, ...] = ()


_KINDS = {int: "an integer", float: "a finite number", str: "a string", dict: "a JSON object"}


def _object(raw, name: str, known) -> dict:
    """`raw` if it is a JSON object with no key outside `known`; else raise ConfigError."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be a JSON object, got {raw!r}")
    unknown = set(raw) - set(known)
    if unknown:
        raise ConfigError(f"unknown {name} fields: {', '.join(sorted(unknown))}")
    return raw


def _from_json(cls, raw, name: str, prefix: str | None = None):
    """The dataclass `cls` from the JSON object `raw`, each field read as annotated.

    Messages name the object `name` and a field `prefix` + its key; `prefix`
    is `name` and a dot unless given.
    """
    hints = typing.get_type_hints(cls)
    raw = _object(raw, name, hints)
    prefix = f"{name}." if prefix is None else prefix
    return cls(**{key: _typed(hints[key], value, prefix + key) for key, value in raw.items()})


def _typed(hint, value, name: str):
    """`value` checked against the annotation `hint`; a value of another type raises ConfigError.

    Lists become tuples and objects nested dataclasses. An int passes as a
    float and stays an int, so a manifest echoes its input.
    """
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType):  # X | None or X | str: a None or str passes as it is
        if value is None and type(None) in args or isinstance(value, str) and str in args:
            return value
        return _typed(args[0], value, name)
    if dataclasses.is_dataclass(hint):
        return _from_json(hint, value, name)
    if typing.get_origin(hint) is tuple:
        fixed = args[-1] is not Ellipsis
        if not isinstance(value, list) or fixed and len(value) != len(args):
            length = f" of {len(args)}" if fixed else ""
            raise ConfigError(f"{name} must be a list{length}, got {value!r}")
        kinds = args if fixed else args[:1] * len(value)
        items = enumerate(zip(kinds, value))
        return tuple(_typed(kind, item, f"{name}[{i}]") for i, (kind, item) in items)
    ok = isinstance(value, float | int if hint is float else hint) and not isinstance(value, bool)
    if not ok or hint is float and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{name} must be {_KINDS[hint]}, got {value!r}")
    return value


def _path(value: object, name: str) -> str:
    """The path string `value` as Path writes it, with a leading `~` or `~user` expanded."""
    text = _typed(str, value, name)
    if not text:
        raise ConfigError(f"{name} must not be empty")
    try:
        return str(Path(text).expanduser())
    except RuntimeError:  # an unknown user, or no home directory
        raise ConfigError(f"{name} {text!r}: cannot determine the home directory") from None
    except ValueError as err:  # a NUL in the user name, reported as open() reports one
        raise LoadError(f"{text!r}: {err}") from None


def resolve_scenario(raw: dict) -> Scenario:
    """Validate and fully resolve a scenario dict (defaults applied, seed pinned)."""
    scenario = _from_json(Scenario, raw, "scenario", prefix="")
    dataset = dict(_object(scenario.dataset, "dataset", ("path", "synthetic")))
    if "path" in dataset:
        dataset["path"] = _path(dataset["path"], "dataset.path")
    if "synthetic" in dataset:
        profile = {} if dataset["synthetic"] is None else dataset["synthetic"]
        dataset["synthetic"] = _from_json(SyntheticProfile, profile, "dataset.synthetic")
    elite_table = None if scenario.elite_table is None else _path(scenario.elite_table, "elite_table")
    seed = scenario.scheme.seed if scenario.seed is None else scenario.seed
    scheme = dataclasses.replace(scenario.scheme, seed=seed)
    names = scenario.mechanisms
    names = MECHANISMS if names == "both" else (names,) if isinstance(names, str) else names
    has_deferred, has_upfront = (name in names for name in MECHANISMS)
    initial, upfront = scenario.budget.initial, scenario.budget.upfront
    if upfront is None and not has_upfront:
        upfront = NPV_MATCHED  # read back from the null that such a run's manifest records
    amount = not isinstance(upfront, str | None)
    rules = [
        ("dataset", len(dataset) == 1, "must specify either 'path' or 'synthetic'"),
        (
            "mechanisms",
            set(names) <= set(MECHANISMS),
            "must be 'both', a mechanism name or a list of them",
        ),
        ("mechanisms", bool(names), "must not be empty"),
        ("ranking", scenario.ranking in RANKINGS, f"must be one of {RANKINGS}"),
        ("budget.initial", initial > 0, "must be > 0"),
        (
            "budget.upfront",
            upfront > 0 if amount else upfront == NPV_MATCHED,
            f"must be > 0 or {NPV_MATCHED!r}",
        ),
        (
            "budget.upfront",
            upfront != NPV_MATCHED or has_deferred or not has_upfront,
            f"{NPV_MATCHED!r} requires a deferred run in the same scenario",
        ),
        ("format", scenario.format in ("csv", "json", "both"), "must be csv, json, or both"),
    ]
    broken = dataset["synthetic"].validate() if "synthetic" in dataset else []
    broken += [f"{name} {rule}" for name, ok, rule in rules if not ok] + validate_scheme(scheme)
    if broken:
        raise ConfigError("; ".join(broken))
    upfront = (float(upfront) if amount else upfront) if has_upfront else None
    return dataclasses.replace(
        scenario,
        dataset=dataset,
        scheme=scheme,
        mechanisms=tuple(name for name in MECHANISMS if name in names),
        budget=Budget(float(initial), upfront),
        elite_table=elite_table,
        seed=scheme.seed,
    )


def _load_dataset(scenario: Scenario) -> SiteTable:
    path = scenario.dataset.get("path")
    if path is None:
        return generate_synthetic(scenario.dataset["synthetic"], scenario.scheme.seed)
    sites, issues = load_sites(path)
    for issue in issues:
        print(f"warning: {path}: {issue}", file=sys.stderr)
    if not sites:
        raise LoadError(f"{path}: no valid rows")
    return sites


def _elite_table(scenario: Scenario) -> EliteTable:
    path = scenario.elite_table
    return DEFAULT_ELITE_TABLE if path is None else load_elite_table(path)


SeedInputs = tuple[SiteColumns, np.ndarray]
# What a rejected input raises; a sweep point reports it in its status cell.
INPUT_ERRORS = (ConfigError, LoadError, OSError)


def _or_error(read, scenario: Scenario):
    """What `read(scenario)` returns, or the input error it raises."""
    try:
        return read(scenario)
    except INPUT_ERRORS as err:
        return err


def seed_inputs(scenario: Scenario, dataset: SiteTable, table: EliteTable) -> SeedInputs:
    """The site columns and the harvest draw of `dataset` under the scenario's seed.

    They depend on the seed, the amenity settings, the harvest window and the
    habitat table, not on r, x or the bid caps, so sweep points that share a
    seed share them.
    """
    cfg = scenario.scheme
    columns = site_columns(dataset, cfg, rng_stream(cfg.seed, PHI_STREAM), table)
    return columns, draw_harvest_schedule(columns, cfg, rng_stream(cfg.seed, HARVEST_STREAM))


def execute_scenario(scenario: Scenario, inputs: SeedInputs) -> list[Run]:
    """One Run per requested mechanism of a resolved scenario, in order, on its `seed_inputs`."""
    cfg = scenario.scheme
    columns, schedule = inputs
    runs: list[Run] = []
    for mechanism in map(Mechanism, scenario.mechanisms):
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
            offers = build_offers(columns, cfg, mechanism)
            supply = summarize_supply(offers)
            if scenario.ranking == "old_growth":
                offers = select_old_growth(offers)
            ranked = rank_benefit_cost(offers)
            if mechanism is Mechanism.DEFERRED:
                outcome = deferred_outcome = run_deferred(cfg, scenario.budget.initial, ranked, schedule)
            else:
                budget = scenario.budget.upfront
                if budget == NPV_MATCHED:  # resolve_scenario puts the deferred run first
                    budget = match_upfront_budget(
                        deferred_outcome.spending[0],
                        deferred_outcome.summary.instalment_cost_per_year,
                        cfg.instalment_count_x,
                        cfg.discount_rate,
                        cfg.horizon,
                    )
                outcome = run_upfront(cfg, float(budget), ranked, schedule)
        runs.append((outcome, supply))
        for name, value in report_cells(outcome, supply).items():
            if not math.isfinite(value):  # a sum overflowed
                raise ConfigError(f"{mechanism.value} run: {name} is {value}; an input is too large")
    return runs


def _write_manifest(out_dir: Path, kind: str, scenario: Scenario, extra: dict | None = None) -> Path:
    manifest = {"version": __version__, "kind": kind, "scenario": dataclasses.asdict(scenario)}
    if extra:
        manifest.update(extra)
    path = out_dir / "manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _read_json(path: str) -> object:
    """The JSON value in a UTF-8 file; text that is not UTF-8 raises LoadError."""
    return json.loads("".join(utf8_lines(path)))


def _read_manifest(path: str) -> dict:
    """A manifest, or a scenario file as a manifest: its scenario object is under "scenario"."""
    raw = _read_json(path)
    manifest = raw if isinstance(raw, dict) and "scenario" in raw else {"scenario": raw}
    if not isinstance(manifest["scenario"], dict):
        raise ConfigError(f"{path}: scenario file must contain a JSON object")
    return manifest


def _number(text: str, hint) -> object:
    """`text` as a `hint`, a tuple from comma-separated parts, or as it is, for _typed to judge."""
    if typing.get_origin(hint) is tuple:
        return [_number(part, typing.get_args(hint)[0]) for part in text.split(",") if part.strip()]
    try:
        return hint(text)
    except ValueError:
        return text


def _flags(args: argparse.Namespace, hints: dict) -> dict:
    """Each flag `--a-b` given in `args` whose key `a_b` is in `hints`, read as annotated."""
    flags = {}
    for name, hint in hints.items():
        if (text := getattr(args, name, None)) is not None:
            flags[name] = _typed(hint, _number(text, hint), "--" + name.replace("_", "-"))
    return flags


def cmd_run(args: argparse.Namespace) -> int:
    flags = _flags(args, typing.get_type_hints(Scenario))
    scenario = resolve_scenario({**_read_manifest(args.scenario)["scenario"], **flags})
    out_dir = Path(args.out_dir)
    inputs = seed_inputs(scenario, _load_dataset(scenario), _elite_table(scenario))
    runs = execute_scenario(scenario, inputs)
    write_report(runs, scenario.scheme, out_dir, scenario.format)
    manifest = _write_manifest(out_dir, "run", scenario)
    print(format_console_summary(runs))
    print(f"manifest: {manifest}")
    return EXIT_OK


def _sweep_plan(axes: object, args: argparse.Namespace, seed: int) -> SweepPlan:
    """The plan in a manifest's `axes`, each axis flag given in `args` in place of its field."""
    flags = _flags(args, typing.get_type_hints(SweepPlan))
    plan = dataclasses.replace(_from_json(SweepPlan, axes, "axes"), **flags)
    plan = dataclasses.replace(plan, seeds=plan.seeds or (seed,))
    if not all(dataclasses.astuple(plan)):
        raise ConfigError("sweep axes must be non-empty")
    return plan


def cmd_sweep(args: argparse.Namespace) -> int:
    manifest = _read_manifest(args.scenario)
    scenario = resolve_scenario(manifest["scenario"])
    plan = _sweep_plan(manifest.get("axes", {}), args, scenario.scheme.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    points = list(product(*dataclasses.astuple(plan)))
    rows: list[dict[str, object]] = []
    scenarios: dict[int, Scenario] = {}  # point index -> its scenario, if its scheme is valid
    for index, (rate, period, scale, seed) in enumerate(points):
        rows.append(dict(zip(SWEEP_POINT_COLUMNS, (index, rate, period, scale, seed))))
        point_scheme = dataclasses.replace(
            scenario.scheme,
            interest_rate_r=rate,
            instalment_count_x=period,
            bid_cap_hi=scenario.scheme.bid_cap_hi * scale,
            seed=seed,
        )
        try:
            point_scheme = require_valid_scheme(point_scheme)
            scenarios[index] = dataclasses.replace(scenario, scheme=point_scheme, seed=seed)
        except ConfigError as err:
            rows[index]["status"] = f"error: {err}"

    # A site CSV and a habitat table are read (or fail) once per sweep, a synthetic
    # dataset once per seed; points run grouped by seed, so one seed's inputs are
    # alive at a time. As in a run, a point names the dataset's fault before the table's.
    has_csv = "path" in scenario.dataset and bool(scenarios)
    csv_sites = _or_error(_load_dataset, scenario) if has_csv else None
    table = _or_error(_elite_table, scenario)
    for seed in dict.fromkeys(plan.seeds):
        group = [index for index, point in scenarios.items() if point.seed == seed]
        if not group:
            continue
        seed_scenario = scenarios[group[0]]
        dataset = inputs = None  # the previous seed's, freed before this seed's are built
        dataset = csv_sites if has_csv else _or_error(_load_dataset, seed_scenario)
        failed = [loaded for loaded in (dataset, table) if isinstance(loaded, Exception)]
        if failed:
            for index in group:
                rows[index]["status"] = f"error: {failed[0]}"
            continue
        inputs = seed_inputs(seed_scenario, dataset, table)
        for index in group:
            point_dir = out_dir / f"point_{index:04d}" if args.point_dirs else None
            _run_sweep_point(scenarios[index], inputs, point_dir, rows[index])

    sweep_path = out_dir / "sweep.csv"
    write_sweep(sweep_path, [Mechanism(name) for name in scenario.mechanisms], rows)
    _write_manifest(out_dir, "sweep", scenario, extra={"axes": dataclasses.asdict(plan)})
    print(f"sweep: {len(points)} points -> {sweep_path}")
    return EXIT_OK


def _run_sweep_point(
    scenario: Scenario, inputs: SeedInputs, point_dir: Path | None, row: dict[str, object]
) -> None:
    """Run one sweep point, into `point_dir` if given; its status and result cells go into `row`."""
    try:
        runs = execute_scenario(scenario, inputs)
        if point_dir is not None:
            write_report(runs, scenario.scheme, point_dir, scenario.format)
            _write_manifest(point_dir, "run", scenario)
    except INPUT_ERRORS as err:
        row["status"] = f"error: {err}"
        return
    row["status"] = "ok"
    for outcome, supply in runs:
        cells = report_cells(outcome, supply)
        row.update((f"{outcome.mechanism.value}_{k}", v) for k, v in cells.items())


def cmd_gen_data(args: argparse.Namespace) -> int:
    flags = _flags(args, {"n": int, "seed": int})
    require_valid_scheme(SchemeConfig(seed=flags["seed"]))  # the scheme's seed rule
    raw = _read_json(args.profile) if args.profile else {}
    profile = _from_json(SyntheticProfile, raw, args.profile)
    profile = dataclasses.replace(profile, n_sites=flags.get("n", profile.n_sites))
    sites = generate_synthetic(profile, flags["seed"])
    write_sites(sites, args.out)
    print(f"wrote {len(sites)} sites to {args.out}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    sites, issues = load_sites(args.data)
    for issue in issues:
        print(issue)
    print(f"{len(sites)} valid rows, {len(issues)} issues")
    return EXIT_OK


def _run_summaries(path: str) -> dict[str, dict]:
    """The first run's summary per mechanism in a summary.json (schema 2 or 3).

    A report of any other shape raises LoadError naming the field at fault.
    """
    report = _read_json(path)

    def require(ok: bool, field: str, kind: str) -> None:
        if not ok:
            raise LoadError(f"{path}: {field} must be {kind}")

    require(isinstance(report, dict), "the report", "a JSON object")
    require(isinstance(report.get("runs"), list), "runs", "a list of run objects")
    summaries: dict[str, dict] = {}
    for index, run in enumerate(report["runs"]):
        where = f"runs[{index}]"
        require(isinstance(run, dict), where, "an object")
        require(isinstance(run.get("mechanism"), str), f"{where}.mechanism", "a string")
        summary = run.get("summary")
        require(isinstance(summary, dict), f"{where}.summary", "an object")
        for name in ("avg_downpayment", "avg_instalment"):
            value = summary.get(name)
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            require(number, f"{where}.summary.{name}", "a number")
        summaries.setdefault(run["mechanism"], summary)
    return summaries


def cmd_extrapolate(args: argparse.Namespace) -> int:
    average_names = ("avg_downpayment", "avg_instalment", "avg_upfront")
    names = ("area", *average_names, "upfront_annual_budget", "harvest_loss_rate")
    flags = _flags(args, dict.fromkeys(names, float))
    area, budget, loss_rate = map(flags.get, ("area", "upfront_annual_budget", "harvest_loss_rate"))
    averages = [flags.get(name) for name in average_names]
    given = [f"--{name.replace('_', '-')}" for name in average_names if name in flags]
    rules = [
        ("--area", area is not None and area > 0, "must be a positive number of hectares"),
        ("--upfront-annual-budget", budget is None or budget >= 0, "must be >= 0"),
        ("--harvest-loss-rate", 0 <= loss_rate <= 1, "must lie in [0, 1]"),
        (", ".join(given), not (args.from_run and given), "would be ignored with --from-run"),
        (
            "--avg-upfront, --upfront-annual-budget",
            None in (averages[2], budget),
            "must not both be given: each sets the up-front average",
        ),
    ]
    broken = [f"{name} {rule}" for name, ok, rule in rules if not ok]
    if broken:
        raise ConfigError("; ".join(broken))
    cfg = SchemeConfig()
    if args.from_run:
        summaries = _run_summaries(args.from_run)
        deferred, upfront = summaries.get("deferred"), summaries.get("upfront")
        if deferred is None:
            raise ConfigError(f"{args.from_run}: no deferred run to take averages from")
        averages = [deferred["avg_downpayment"], deferred["avg_instalment"]]
        averages.append(upfront["avg_downpayment"] if upfront else None)
        # r, x and the horizon must be the run's own, not the defaults
        manifest = _read_manifest(str(Path(args.from_run).with_name("manifest.json")))
        cfg = resolve_scenario(manifest["scenario"]).scheme
    if budget is not None:
        averages[2] = budget / (area / cfg.horizon)
    if None in averages:
        raise ConfigError(
            "need --avg-downpayment, --avg-instalment, and --avg-upfront "
            "(or --upfront-annual-budget / --from-run)"
        )
    report = extrapolate_national(*averages, area, cfg)
    if not all(map(math.isfinite, dataclasses.astuple(report))):
        raise ConfigError("a projected total is not finite; an input is too large")
    print(f"Conserving {report.area_ha:,.0f} ha")
    print("Deferred mechanism:")
    print(f"  downpayments at year 0:  {report.deferred_downpayments_total/1e6:,.1f} M EUR")
    print(
        f"  instalments per year:    {report.deferred_instalments_per_year/1e6:,.1f} M EUR"
        f" for {cfg.instalment_count_x} years"
    )
    print(f"  total, NPV:              {report.deferred_npv/1e6:,.1f} M EUR")
    print(f"  total, absolute:         {report.deferred_absolute/1e6:,.1f} M EUR")
    print("Up-front mechanism (even conservation over the horizon):")
    print(f"  area per year:           {report.upfront_area_per_year:,.0f} ha")
    print(f"  cost per year:           {report.upfront_cost_per_year/1e6:,.1f} M EUR")
    print(f"  total, NPV:              {report.upfront_npv/1e6:,.1f} M EUR")
    print(f"  total, absolute:         {report.upfront_absolute/1e6:,.1f} M EUR")
    print(
        f"Harvest-risk note: at a {loss_rate:.1%} loss rate, about "
        f"{loss_rate * area:,.0f} ha would be cut before an up-front program reaches them."
    )
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reads a token that float() reads (`-1e3`, `-inf`) as a value, as argparse reads `-1`."""

    def _parse_optional(self, arg_string: str):
        is_value = isinstance(_number(arg_string, float), float)
        return None if is_value else super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="deferauction",
        description="Deferred-payment conservation auction simulator",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario (or re-run a manifest)")
    run_p.add_argument("scenario", help="scenario JSON file, or a manifest.json from a prior run")
    run_p.add_argument("--out-dir", default="runs/latest")
    run_p.add_argument("--seed", help="sets the scenario's seed")
    run_p.add_argument("--format", help="sets the scenario's format")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="run a scenario over parameter grids")
    sweep_p.add_argument("scenario")
    sweep_p.add_argument("--out-dir", default="runs/sweep")
    for axis in dataclasses.fields(SweepPlan):
        flag = "--" + axis.name.replace("_", "-")
        sweep_p.add_argument(flag, help="comma-separated; replaces the manifest's or default axis")
    sweep_p.add_argument("--point-dirs", action="store_true", help="also write point_NNNN/ runs")
    sweep_p.set_defaults(func=cmd_sweep)

    gen_p = sub.add_parser("gen-data", help="generate a synthetic site CSV")
    gen_p.add_argument("--n", help="sets the profile's n_sites")
    gen_p.add_argument("--seed", default="1")
    gen_p.add_argument("--out", required=True)
    gen_p.add_argument("--profile", default=None, help="JSON file with generator profile overrides")
    gen_p.set_defaults(func=cmd_gen_data)

    val_p = sub.add_parser("validate", help="validate a site CSV and print the issue report")
    val_p.add_argument("data")
    val_p.set_defaults(func=cmd_validate)

    ext_p = sub.add_parser("extrapolate", help="program-scale cost projection")
    ext_p.add_argument("--area", help="total area, ha")
    ext_p.add_argument("--avg-downpayment")
    ext_p.add_argument("--avg-instalment")
    ext_p.add_argument("--avg-upfront")
    ext_p.add_argument("--upfront-annual-budget", help="annual up-front spend; implies --avg-upfront")
    ext_p.add_argument("--harvest-loss-rate", default="0.093")
    ext_p.add_argument("--from-run", default=None, help="take averages from a run's summary.json")
    ext_p.set_defaults(func=cmd_extrapolate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (LoadError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except Exception as err:  # noqa: BLE001 - an invariant breach is always a bug
        print(f"internal error: {err!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
