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
)
from .simulation import (
    RunOutcome,
    SiteColumns,
    SupplySummary,
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
DEFAULT_INITIAL_BUDGET = 5_000_000.0

RANKINGS = ("benefit_cost", "old_growth")


@dataclass(frozen=True)
class Scenario:
    """Fully resolved run request."""

    dataset_path: str | None
    synthetic: SyntheticProfile | None
    scheme: SchemeConfig
    mechanisms: tuple[Mechanism, ...]
    ranking: str
    initial_budget: float
    upfront_budget: float | str | None
    elite_table_path: str | None
    fmt: str


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


_KINDS = {int: "an integer", float: "a finite number", str: "a string"}


def _object(raw, name: str, known) -> dict:
    """`raw` if it is a JSON object with no key outside `known`; else raise ConfigError."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be a JSON object, got {raw!r}")
    unknown = set(raw) - set(known)
    if unknown:
        raise ConfigError(f"unknown {name} fields: {', '.join(sorted(unknown))}")
    return raw


def _from_json(cls, raw, name: str):
    """The dataclass `cls` from the JSON object `raw`, each field read as annotated."""
    hints = typing.get_type_hints(cls)
    raw = _object(raw, name, hints)
    return cls(**{key: _typed(hints[key], value, f"{name}.{key}") for key, value in raw.items()})


def _typed(hint, value, name: str):
    """`value` checked against the annotation `hint`; a value of another type raises ConfigError.

    Lists become tuples and objects nested dataclasses. An int passes as a
    float and stays an int, so a manifest echoes its input.
    """
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType):  # X | None
        return None if value is None else _typed(args[0], value, name)
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


def resolve_scenario(raw: dict, seed_override: int | None = None) -> Scenario:
    """Validate and fully resolve a scenario dict (defaults applied, seed pinned)."""
    keys = ("dataset", "scheme", "mechanisms", "ranking", "budget", "elite_table", "seed", "format")
    _object(raw, "scenario", keys)
    dataset = raw.get("dataset", {"synthetic": {"n_sites": 400}})
    dataset = _object(dataset, "dataset", ("path", "synthetic"))
    dataset_path: str | None = None
    synthetic: SyntheticProfile | None = None
    if "path" in dataset:
        dataset_path = str(Path(_typed(str, dataset["path"], "dataset.path")).expanduser())
    elif "synthetic" in dataset:
        profile = {} if dataset["synthetic"] is None else dataset["synthetic"]
        synthetic = _from_json(SyntheticProfile, profile, "dataset.synthetic")
        synthetic.validate()
    else:
        raise ConfigError("dataset must specify either 'path' or 'synthetic'")

    scheme = _from_json(SchemeConfig, raw.get("scheme", {}), "scheme")
    seed = raw.get("seed", scheme.seed) if seed_override is None else seed_override
    scheme = require_valid_scheme(dataclasses.replace(scheme, seed=_typed(int, seed, "seed")))

    mech_raw = raw.get("mechanisms", "both")
    if mech_raw == "both":
        mechanisms: tuple[Mechanism, ...] = (Mechanism.DEFERRED, Mechanism.UPFRONT)
    else:
        if isinstance(mech_raw, str):
            mech_raw = [mech_raw]
        if not isinstance(mech_raw, list):
            raise ConfigError(
                f"mechanisms must be 'both', a mechanism name or a list of them, got {mech_raw!r}"
            )
        try:
            parsed = {Mechanism(m) for m in mech_raw}
        except ValueError as err:
            raise ConfigError(f"bad mechanism: {err}") from None
        if not parsed:
            raise ConfigError("mechanisms must not be empty")
        # deferred first: an npv-matched up-front budget derives from its stream
        mechanisms = tuple(
            sorted(parsed, key=lambda m: 0 if m is Mechanism.DEFERRED else 1)
        )

    ranking = raw.get("ranking", "benefit_cost")
    if ranking not in RANKINGS:
        raise ConfigError(f"ranking must be one of {RANKINGS}")

    budget = _object(raw.get("budget", {}), "budget", ("initial", "upfront"))
    initial = budget.get("initial", DEFAULT_INITIAL_BUDGET)
    initial_budget = float(_typed(float, initial, "budget.initial"))
    if Mechanism.DEFERRED in mechanisms and initial_budget <= 0:
        raise ConfigError("budget.initial must be > 0 for a deferred run")
    upfront_budget = budget.get("upfront", NPV_MATCHED)
    if Mechanism.UPFRONT in mechanisms:
        if upfront_budget == NPV_MATCHED:
            if Mechanism.DEFERRED not in mechanisms:
                raise ConfigError(
                    "an npv-matched up-front budget requires a deferred run in the same scenario"
                )
        else:
            upfront_budget = float(_typed(float, upfront_budget, "budget.upfront"))
            if upfront_budget <= 0:
                raise ConfigError("budget.upfront must be > 0 or 'npv-matched'")
    else:
        upfront_budget = None

    fmt = raw.get("format", "both")
    if fmt not in ("csv", "json", "both"):
        raise ConfigError("format must be csv, json, or both")

    return Scenario(
        dataset_path=dataset_path,
        synthetic=synthetic,
        scheme=scheme,
        mechanisms=mechanisms,
        ranking=ranking,
        initial_budget=initial_budget,
        upfront_budget=upfront_budget,
        elite_table_path=_typed(str | None, raw.get("elite_table"), "elite_table"),
        fmt=fmt,
    )


def scenario_to_dict(scenario: Scenario) -> dict:
    """Serialize a resolved scenario; feeding this back reproduces the run."""
    if scenario.dataset_path is not None:
        dataset = {"path": scenario.dataset_path}
    else:
        dataset = {"synthetic": dataclasses.asdict(scenario.synthetic)}
    return {
        "dataset": dataset,
        "scheme": dataclasses.asdict(scenario.scheme),
        "mechanisms": [m.value for m in scenario.mechanisms],
        "ranking": scenario.ranking,
        "budget": {
            "initial": scenario.initial_budget,
            "upfront": scenario.upfront_budget,
        },
        "elite_table": scenario.elite_table_path,
        "seed": scenario.scheme.seed,
        "format": scenario.fmt,
    }


def _load_dataset(scenario: Scenario) -> SiteTable:
    if scenario.dataset_path is not None:
        sites, issues = load_sites(scenario.dataset_path)
        for issue in issues:
            print(f"warning: {scenario.dataset_path}: {issue}", file=sys.stderr)
        if not sites:
            raise LoadError(f"{scenario.dataset_path}: no valid rows")
        return sites
    return generate_synthetic(scenario.synthetic, scenario.scheme.seed)


def _elite_table(scenario: Scenario) -> EliteTable:
    if scenario.elite_table_path is None:
        return DEFAULT_ELITE_TABLE
    return load_elite_table(scenario.elite_table_path)


SeedInputs = tuple[SiteColumns, np.ndarray]


def seed_inputs(scenario: Scenario, dataset: SiteTable) -> SeedInputs:
    """The site columns and the harvest draw of `dataset` under the scenario's seed.

    They depend on the seed, the amenity settings, the harvest window and the
    habitat table, not on r, x or the bid caps, so sweep points that share a
    seed share them.
    """
    cfg = scenario.scheme
    columns = site_columns(dataset, cfg, rng_stream(cfg.seed, PHI_STREAM), _elite_table(scenario))
    return columns, draw_harvest_schedule(columns, cfg, rng_stream(cfg.seed, HARVEST_STREAM))


def execute_scenario(
    scenario: Scenario, inputs: SeedInputs | None = None
) -> tuple[list[RunOutcome], dict[Mechanism, SupplySummary]]:
    """Run every requested mechanism of a resolved scenario.

    `inputs` are the scenario's `seed_inputs`; they are computed from its
    dataset when not given.
    """
    cfg = scenario.scheme
    if inputs is None:
        inputs = seed_inputs(scenario, _load_dataset(scenario))
    columns, schedule = inputs

    outcomes: list[RunOutcome] = []
    supplies: dict[Mechanism, SupplySummary] = {}

    for mechanism in scenario.mechanisms:
        offers = build_offers(columns, cfg, mechanism)
        supplies[mechanism] = summarize_supply(offers)
        if scenario.ranking == "old_growth":
            offers = select_old_growth(offers)
        ranked = rank_benefit_cost(offers)
        if mechanism is Mechanism.DEFERRED:
            outcome = deferred_outcome = run_deferred(cfg, scenario.initial_budget, ranked, schedule)
        else:
            budget = scenario.upfront_budget
            if budget == NPV_MATCHED:  # resolve_scenario puts the deferred run first
                budget = match_upfront_budget(
                    deferred_outcome.spending[0],
                    deferred_outcome.summary.instalment_cost_per_year,
                    cfg.instalment_count_x,
                    cfg.discount_rate,
                    cfg.horizon,
                )
            outcome = run_upfront(cfg, float(budget), ranked, schedule)
        outcomes.append(outcome)
        for name, value in report_cells(outcome, supplies[mechanism]).items():
            if not math.isfinite(value):  # a sum overflowed
                raise ConfigError(f"{mechanism.value} run: {name} is {value}; an input is too large")
    return outcomes, supplies


def _write_manifest(out_dir: Path, kind: str, scenario: Scenario, extra: dict | None = None) -> Path:
    manifest = {"version": __version__, "kind": kind, "scenario": scenario_to_dict(scenario)}
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


def _read_scenario_file(path: str, seed_override: int | None) -> Scenario:
    return resolve_scenario(_read_manifest(path)["scenario"], seed_override)


def cmd_run(args: argparse.Namespace) -> int:
    scenario = _read_scenario_file(args.scenario, args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.format:
        scenario = dataclasses.replace(scenario, fmt=args.format)
    outcomes, supplies = execute_scenario(scenario)
    write_report(outcomes, supplies, scenario.scheme, out_dir, scenario.fmt)
    manifest = _write_manifest(out_dir, "run", scenario)
    print(format_console_summary(outcomes, supplies))
    print(f"manifest: {manifest}")
    return EXIT_OK


def _number(text: str, kind: type) -> object:
    """`text` as a `kind`, or as it is if it is not one, for _typed to judge."""
    try:
        return kind(text)
    except ValueError:
        return text


def _sweep_plan(axes: object, args: argparse.Namespace, seed: int) -> SweepPlan:
    """The plan in a manifest's `axes`, each axis flag given in `args` in place of its field."""
    plan = _from_json(SweepPlan, axes, "axes")
    for name, hint in typing.get_type_hints(SweepPlan).items():
        if (text := getattr(args, name)) is not None:
            kind = typing.get_args(hint)[0]
            values = [_number(part, kind) for part in text.split(",") if part.strip()]
            axis = _typed(hint, values, "--" + name.replace("_", "-"))
            plan = dataclasses.replace(plan, **{name: axis})
    plan = dataclasses.replace(plan, seeds=plan.seeds or (seed,))
    if not all(dataclasses.astuple(plan)):
        raise ConfigError("sweep axes must be non-empty")
    return plan


def cmd_sweep(args: argparse.Namespace) -> int:
    manifest = _read_manifest(args.scenario)
    scenario = resolve_scenario(manifest["scenario"], args.seed)
    plan = _sweep_plan(manifest.get("axes", {}), args, scenario.scheme.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    points = list(product(*dataclasses.astuple(plan)))
    rows: list[dict[str, object]] = []
    schemes: dict[int, SchemeConfig] = {}  # point index -> its valid scheme
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
            schemes[index] = require_valid_scheme(point_scheme)
        except ConfigError as err:
            rows[index]["status"] = f"error: {err}"

    # A site CSV is read (or fails) once per sweep, a synthetic dataset once per
    # seed; points run grouped by seed, so one seed's inputs are alive at a time.
    csv_sites: SiteTable | None = None
    csv_error: LoadError | OSError | None = None
    if scenario.dataset_path is not None and schemes:
        try:
            csv_sites = _load_dataset(scenario)
        except (LoadError, OSError) as err:
            csv_error = err
    for seed in dict.fromkeys(plan.seeds):
        group = [index for index, scheme in schemes.items() if scheme.seed == seed]
        if not group:
            continue
        seed_scenario = dataclasses.replace(scenario, scheme=schemes[group[0]])
        dataset = inputs = None  # the previous seed's, freed before this seed's are built
        try:
            if csv_error is not None:
                raise csv_error
            dataset = csv_sites if csv_sites is not None else _load_dataset(seed_scenario)
            inputs = seed_inputs(seed_scenario, dataset)
        except (ConfigError, LoadError, OSError) as err:
            for index in group:
                rows[index]["status"] = f"error: {err}"
            continue
        for index in group:
            _run_sweep_point(
                dataclasses.replace(scenario, scheme=schemes[index]),
                inputs,
                out_dir / f"point_{index:04d}" if args.point_dirs else None,
                rows[index],
            )

    sweep_path = out_dir / "sweep.csv"
    write_sweep(sweep_path, scenario.mechanisms, rows)
    _write_manifest(out_dir, "sweep", scenario, extra={"axes": dataclasses.asdict(plan)})
    print(f"sweep: {len(points)} points -> {sweep_path}")
    return EXIT_OK


def _run_sweep_point(
    scenario: Scenario, inputs: SeedInputs, point_dir: Path | None, row: dict[str, object]
) -> None:
    """Run one sweep point, into `point_dir` if given; its status and result cells go into `row`."""
    try:
        outcomes, supplies = execute_scenario(scenario, inputs)
        if point_dir is not None:
            write_report(outcomes, supplies, scenario.scheme, point_dir, scenario.fmt)
            _write_manifest(point_dir, "run", scenario)
    except (ConfigError, LoadError, OSError) as err:
        row["status"] = f"error: {err}"
        return
    row["status"] = "ok"
    for outcome in outcomes:
        cells = report_cells(outcome, supplies[outcome.mechanism])
        row.update((f"{outcome.mechanism.value}_{k}", v) for k, v in cells.items())


def cmd_gen_data(args: argparse.Namespace) -> int:
    if args.n is not None and args.n < 0:
        raise ConfigError(f"--n must be >= 0, got {args.n}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    if args.profile:
        profile = _from_json(SyntheticProfile, _read_json(args.profile), args.profile)
        if args.n is not None:
            profile = dataclasses.replace(profile, n_sites=args.n)
    else:
        profile = SyntheticProfile(n_sites=args.n if args.n is not None else 400)
    sites = generate_synthetic(profile, args.seed)
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
    if args.from_run:
        summaries = _run_summaries(args.from_run)
        deferred, upfront = summaries.get("deferred"), summaries.get("upfront")
        if deferred is None:
            raise ConfigError(f"{args.from_run}: no deferred run to take averages from")
        avg_down = deferred["avg_downpayment"]
        avg_inst = deferred["avg_instalment"]
        avg_upfront = upfront["avg_downpayment"] if upfront else None
        # r, x and the horizon must be the run's own, not the defaults
        cfg = _read_scenario_file(str(Path(args.from_run).with_name("manifest.json")), None).scheme
    else:
        avg_down = args.avg_downpayment
        avg_inst = args.avg_instalment
        avg_upfront = args.avg_upfront
        cfg = require_valid_scheme(SchemeConfig())
    if args.area is None or args.area <= 0:
        raise ConfigError("--area must be a positive number of hectares")
    if args.upfront_annual_budget is not None:
        avg_upfront = args.upfront_annual_budget / (args.area / cfg.horizon)
    if avg_down is None or avg_inst is None or avg_upfront is None:
        raise ConfigError(
            "need --avg-downpayment, --avg-instalment, and --avg-upfront "
            "(or --upfront-annual-budget / --from-run)"
        )
    if min(avg_down, avg_inst, avg_upfront) < 0:
        raise ConfigError("per-hectare averages must be >= 0")

    report = extrapolate_national(avg_down, avg_inst, avg_upfront, args.area, cfg)
    loss_ha = args.harvest_loss_rate * args.area
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
        f"Harvest-risk note: at a {args.harvest_loss_rate:.1%} loss rate, about "
        f"{loss_ha:,.0f} ha would be cut before an up-front program reaches them."
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deferauction",
        description="Deferred-payment conservation auction simulator",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario (or re-run a manifest)")
    run_p.add_argument("scenario", help="scenario JSON file, or a manifest.json from a prior run")
    run_p.add_argument("--out-dir", default="runs/latest")
    run_p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run_p.add_argument("--format", choices=("csv", "json", "both"), default=None)
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="run a scenario over parameter grids")
    sweep_p.add_argument("scenario")
    sweep_p.add_argument("--out-dir", default="runs/sweep")
    sweep_p.add_argument("--seed", type=int, default=None)
    for axis in dataclasses.fields(SweepPlan):
        flag = "--" + axis.name.replace("_", "-")
        sweep_p.add_argument(flag, help="comma-separated; replaces the manifest's or default axis")
    sweep_p.add_argument("--point-dirs", action="store_true", help="also write point_NNNN/ runs")
    sweep_p.set_defaults(func=cmd_sweep)

    gen_p = sub.add_parser("gen-data", help="generate a synthetic site CSV")
    gen_p.add_argument("--n", type=int, default=None)
    gen_p.add_argument("--seed", type=int, default=1)
    gen_p.add_argument("--out", required=True)
    gen_p.add_argument("--profile", default=None, help="JSON file with generator profile overrides")
    gen_p.set_defaults(func=cmd_gen_data)

    val_p = sub.add_parser("validate", help="validate a site CSV and print the issue report")
    val_p.add_argument("data")
    val_p.set_defaults(func=cmd_validate)

    ext_p = sub.add_parser("extrapolate", help="program-scale cost projection")
    ext_p.add_argument("--area", type=float, default=None, help="total area, ha")
    ext_p.add_argument("--avg-downpayment", type=float, default=None)
    ext_p.add_argument("--avg-instalment", type=float, default=None)
    ext_p.add_argument("--avg-upfront", type=float, default=None)
    ext_p.add_argument(
        "--upfront-annual-budget",
        type=float,
        default=None,
        help="annual up-front spend; implies the per-hectare payment",
    )
    ext_p.add_argument("--harvest-loss-rate", type=float, default=0.093)
    ext_p.add_argument("--from-run", default=None, help="take averages from a run's summary.json")
    ext_p.set_defaults(func=cmd_extrapolate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
