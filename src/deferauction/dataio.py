"""Dataset ingestion, synthetic stand generation, and report files.

The CSV schema is the sole ingestion format (UTF-8 with or without a
byte-order mark, dot decimals, header mandatory). Generated datasets are
deterministic in (profile, seed) and round-trip exactly through
write_sites/load_sites.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, fields
from enum import Enum
from itertools import accumulate
from pathlib import Path

import numpy as np

from .model import (
    DEFAULT_AREA_HA,
    DEFAULT_LAND_PAYMENT,
    LoadError,
    Mechanism,
    SchemeConfig,
    SiteRecord,
    SiteType,
    Species,
    utf8_lines,
    validate_site,
)
from .simulation import RunOutcome, RunSummary, SupplySummary
from .streams import SYNTHETIC_STREAM, rng_stream

REPORT_SCHEMA_VERSION = 3

REQUIRED_COLUMNS = (
    "id",
    "site_type",
    "stand_age",
    "stand_volume",
    "dominant_species",
    "broadleaf_share",
    "deadwood",
    "timber_value",
    "opportunity_cost_v0",
    "commercial_rotation_age",
)
OPTIONAL_COLUMNS = ("area_ha", "land_payment")

# Default commercial rotation age by site type (years); richer soils turn over faster.
DEFAULT_ROTATION_AGES: dict[SiteType, float] = {
    SiteType.HERB_RICH: 85.0,
    SiteType.HERB_RICH_HEATH: 90.0,
    SiteType.MESIC_HEATH: 95.0,
    SiteType.SUB_XERIC_HEATH: 105.0,
    SiteType.XERIC_HEATH: 120.0,
    SiteType.BARREN_HEATH: 140.0,
}

_TYPE_ORDER = tuple(SiteType)


@dataclass(frozen=True)
class RowIssue:
    """One rejected row: its 1-based data row number, offending column, and reason."""

    row: int
    column: str
    message: str

    def __str__(self) -> str:
        return f"row {self.row}, {self.column}: {self.message}"


@dataclass(frozen=True)
class SyntheticProfile:
    """Knobs of the synthetic stand generator.

    Calibrated so that average conservation payments, opportunity-cost spread,
    and age structure land near the descriptive statistics of southern-Finland
    conservation inventories; the values are calibration targets, not survey
    estimates.
    """

    n_sites: int = 400
    age_min: float = 6.0
    age_max: float = 230.0
    # Probability of (young, mature, old) age bands; uniform within a band.
    age_band_weights: tuple[float, float, float] = (0.30, 0.55, 0.15)
    age_band_edges: tuple[float, float] = (75.0, 125.0)
    # Per site type, in SiteType declaration order.
    site_type_mix: tuple[float, ...] = (0.10, 0.15, 0.35, 0.25, 0.10, 0.05)
    volume_v_max: tuple[float, ...] = (450.0, 380.0, 330.0, 260.0, 180.0, 110.0)
    volume_growth: tuple[float, ...] = (0.030, 0.028, 0.026, 0.022, 0.018, 0.014)
    volume_noise_sd: float = 0.15
    timber_price_per_m3: float = 32.0
    price_noise_sd: float = 0.08
    # Opportunity cost: best harvest timing of the realized stand. The stand's
    # timber value grows along the type's volume curve, harvesting nets a
    # fraction of it plus the bare land value, and the owner discounts; the
    # maximum over harvest years is the forestry alternative's present value.
    v0_harvest_net_factor: float = 0.95
    v0_bare_land: tuple[float, ...] = (1000.0, 850.0, 700.0, 500.0, 350.0, 250.0)
    v0_discount_rate: float = 0.02
    v0_horizon: int = 150
    v0_noise_sd: float = 0.08
    deadwood_max: float = 35.0
    deadwood_exponent: float = 1.7
    deadwood_noise_sd: float = 0.35
    # Beta(a, b) parameters of broadleaf share per site type.
    broadleaf_beta: tuple[tuple[float, float], ...] = (
        (3.0, 2.2),
        (2.4, 2.6),
        (1.8, 4.0),
        (1.2, 6.0),
        (1.0, 8.0),
        (1.0, 10.0),
    )
    area_ha: float = DEFAULT_AREA_HA
    land_payment: float = DEFAULT_LAND_PAYMENT

    def validate(self) -> None:
        if self.n_sites < 0:
            raise ValueError("n_sites must be >= 0")
        if not self.age_min < self.age_max:
            raise ValueError("age range must be non-empty")
        if abs(sum(self.site_type_mix) - 1.0) > 1e-9:
            raise ValueError("site_type_mix must sum to 1")
        if abs(sum(self.age_band_weights) - 1.0) > 1e-9:
            raise ValueError("age_band_weights must sum to 1")
        for name in ("site_type_mix", "volume_v_max", "volume_growth", "v0_bare_land", "broadleaf_beta"):
            if len(getattr(self, name)) != len(_TYPE_ORDER):
                raise ValueError(f"{name} must have one entry per site type")


def _best_harvest_value(
    profile: SyntheticProfile,
    type_idx: np.ndarray,
    ages: np.ndarray,
    timber_values: np.ndarray,
) -> np.ndarray:
    """Present value of the best harvest timing for each stand.

    The realized timber value is projected along the type's relative volume
    curve; each candidate year nets a fraction of it plus the bare land value,
    discounted back. Young stands thus carry future value well above their
    current timber value, mature stands price near harvest-now.
    """
    growth = np.asarray(profile.volume_growth)[type_idx]
    bare = np.asarray(profile.v0_bare_land)[type_idx]
    waits = np.arange(profile.v0_horizon + 1)
    best = np.full(len(ages), -np.inf)
    discounts = (1.0 + profile.v0_discount_rate) ** (-waits)
    curve_now = (1.0 - np.exp(-growth * ages)) ** 2
    # Chunk over candidate years to keep memory flat for very large datasets.
    for start in range(0, len(waits), 32):
        chunk = waits[start : start + 32]
        curve_later = (1.0 - np.exp(-growth[:, None] * (ages[:, None] + chunk[None, :]))) ** 2
        relative_growth = curve_later / curve_now[:, None]
        value = (
            profile.v0_harvest_net_factor * timber_values[:, None] * relative_growth
            + bare[:, None]
        ) * discounts[None, start : start + 32]
        best = np.maximum(best, value.max(axis=1))
    return best


def generate_synthetic(profile: SyntheticProfile, seed: int) -> list[SiteRecord]:
    """Deterministic synthetic dataset of n_sites valid stand records.

    All draws come from one named stream of the master seed and are aligned to
    the site index, so the same (profile, seed) always yields the same data.
    """
    profile.validate()
    n = profile.n_sites
    if n == 0:
        return []
    rng = rng_stream(seed, SYNTHETIC_STREAM)

    type_idx = rng.choice(len(_TYPE_ORDER), size=n, p=profile.site_type_mix)
    band = rng.choice(3, size=n, p=profile.age_band_weights)
    lo_edges = np.array([profile.age_min, profile.age_band_edges[0], profile.age_band_edges[1]])
    hi_edges = np.array([profile.age_band_edges[0], profile.age_band_edges[1], profile.age_max])
    ages = rng.uniform(lo_edges[band], hi_edges[band])
    ages = np.clip(ages, profile.age_min, profile.age_max)

    v_max = np.array(profile.volume_v_max)[type_idx]
    growth = np.array(profile.volume_growth)[type_idx]
    sd = profile.volume_noise_sd
    volume_noise = np.exp(rng.normal(-sd * sd / 2.0, sd, size=n))
    volumes = v_max * (1.0 - np.exp(-growth * ages)) ** 2 * volume_noise

    sd = profile.price_noise_sd
    price_noise = np.exp(rng.normal(-sd * sd / 2.0, sd, size=n))
    timber_values = volumes * profile.timber_price_per_m3 * price_noise

    sd = profile.v0_noise_sd
    v0_noise = np.exp(rng.normal(-sd * sd / 2.0, sd, size=n))
    v0 = _best_harvest_value(profile, type_idx, ages, timber_values) * v0_noise

    sd = profile.deadwood_noise_sd
    deadwood_noise = np.exp(rng.normal(-sd * sd / 2.0, sd, size=n))
    deadwood = (
        profile.deadwood_max * (ages / profile.age_max) ** profile.deadwood_exponent * deadwood_noise
    )

    beta_a = np.array([a for a, _ in profile.broadleaf_beta])[type_idx]
    beta_b = np.array([b for _, b in profile.broadleaf_beta])[type_idx]
    shares = rng.beta(beta_a, beta_b)

    sites: list[SiteRecord] = []
    for i in range(n):
        site_type = _TYPE_ORDER[int(type_idx[i])]
        share = float(shares[i])
        sites.append(
            SiteRecord(
                id=f"site-{i:06d}",
                site_type=site_type,
                stand_age=float(ages[i]),
                stand_volume=float(volumes[i]),
                dominant_species=Species.BROADLEAF if share >= 0.5 else Species.CONIFER,
                broadleaf_share=share,
                deadwood=float(deadwood[i]),
                timber_value=float(timber_values[i]),
                opportunity_cost_v0=float(v0[i]),
                commercial_rotation_age=DEFAULT_ROTATION_AGES[site_type],
                area_ha=profile.area_ha,
                land_payment=profile.land_payment,
            )
        )
    return sites


def _parse_float(raw: str) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ValueError(f"cannot parse '{raw}' as a number") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite value '{raw}'")
    return value


def load_sites(path: str | Path) -> tuple[list[SiteRecord], list[RowIssue]]:
    """Parse a site CSV into records plus a per-row issue report.

    Rows with unparseable cells or invariant violations are excluded and
    reported, as is any row repeating the id of an earlier kept row; only
    structural problems (unreadable file, text that is not UTF-8, missing
    required columns) reject the whole file.
    """
    path = Path(path)
    sites: list[SiteRecord] = []
    issues: list[RowIssue] = []
    kept_rows: dict[str, int] = {}
    reader = csv.DictReader(utf8_lines(path))
    if reader.fieldnames is None:
        raise LoadError(f"{path}: empty file, header row required")
    missing = [c for c in REQUIRED_COLUMNS if c not in reader.fieldnames]
    if missing:
        raise LoadError(f"{path}: missing required columns: {', '.join(missing)}")
    for row_no, row in enumerate(reader, start=1):
        try:
            site = _parse_row(row)
        except _RowError as err:
            issues.append(RowIssue(row=row_no, column=err.column, message=err.message))
            continue
        violations = validate_site(site)
        if violations:
            issues.extend(
                RowIssue(row=row_no, column=v.field, message=v.rule) for v in violations
            )
            continue
        if site.id in kept_rows:
            message = f"duplicate site id '{site.id}' (first on row {kept_rows[site.id]})"
            issues.append(RowIssue(row=row_no, column="id", message=message))
            continue
        kept_rows[site.id] = row_no
        sites.append(site)
    return sites, issues


class _RowError(Exception):
    def __init__(self, column: str, message: str):
        super().__init__(f"{column}: {message}")
        self.column = column
        self.message = message


def _parse_row(row: dict[str, str]) -> SiteRecord:
    def text(column: str) -> str:
        value = (row.get(column) or "").strip()
        if not value:
            raise _RowError(column, "required cell is empty")
        return value

    def number(column: str) -> float:
        try:
            return _parse_float(text(column))
        except ValueError as err:
            raise _RowError(column, str(err)) from None

    def optional_number(column: str, default: float) -> float:
        raw = (row.get(column) or "").strip()
        if not raw:
            return default
        try:
            return _parse_float(raw)
        except ValueError as err:
            raise _RowError(column, str(err)) from None

    try:
        site_type = SiteType(text("site_type"))
    except ValueError:
        raise _RowError("site_type", f"unknown site type '{row.get('site_type')}'") from None
    try:
        species = Species(text("dominant_species"))
    except ValueError:
        raise _RowError(
            "dominant_species", f"unknown species '{row.get('dominant_species')}'"
        ) from None

    return SiteRecord(
        id=text("id"),
        site_type=site_type,
        stand_age=number("stand_age"),
        stand_volume=number("stand_volume"),
        dominant_species=species,
        broadleaf_share=number("broadleaf_share"),
        deadwood=number("deadwood"),
        timber_value=number("timber_value"),
        opportunity_cost_v0=number("opportunity_cost_v0"),
        commercial_rotation_age=number("commercial_rotation_age"),
        area_ha=optional_number("area_ha", DEFAULT_AREA_HA),
        land_payment=optional_number("land_payment", DEFAULT_LAND_PAYMENT),
    )


def write_sites(sites: list[SiteRecord], path: str | Path) -> None:
    """Write a site table in the ingestion schema, full float precision."""
    path = Path(path)
    columns = list(REQUIRED_COLUMNS) + list(OPTIONAL_COLUMNS)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for site in sites:
            cells = (getattr(site, column) for column in columns)
            writer.writerow([c.value if isinstance(c, Enum) else c for c in cells])


# Report columns, each declared once. summary.csv and every sweep.csv
# mechanism block share REPORT_COLUMNS: the run summary, then the supply
# summary prefixed "offered_".
SUMMARY_COLUMNS = tuple(f.name for f in fields(RunSummary))
SUPPLY_COLUMNS = tuple(f.name for f in fields(SupplySummary))
REPORT_COLUMNS = SUMMARY_COLUMNS + tuple(f"offered_{name}" for name in SUPPLY_COLUMNS)
TIMESERIES_COLUMNS = (
    "year",
    "annual_cost",
    "cumulative_cost",
    "annual_area_ha",
    "cumulative_area_ha",
    "lost_area_ha",
)
LEDGER_COLUMNS = (
    "site_id",
    "status",
    "year",
    "area_ha",
    "elite",
    "downpayment_per_ha",
    "instalment_per_ha",
    "total_payment_npv_per_ha",
    "stand_age",
    "site_type",
)
SWEEP_AXIS_COLUMNS = ("interest_rate", "payment_periods", "bid_cap_scale", "seed")
SWEEP_POINT_COLUMNS = ("point", *SWEEP_AXIS_COLUMNS, "status")


def report_cells(outcome: RunOutcome, supply: SupplySummary | None) -> dict[str, object]:
    """One mechanism's REPORT_COLUMNS values; supply cells are empty without a supply."""
    cells: dict[str, object] = {name: getattr(outcome.summary, name) for name in SUMMARY_COLUMNS}
    for name in SUPPLY_COLUMNS:
        cells[f"offered_{name}"] = getattr(supply, name) if supply else ""
    return cells


def _area_by_year(years: dict[int, int], area: list[float], n_years: int) -> list[float]:
    out = [0.0] * n_years
    for row, year in years.items():
        out[year] += area[row]
    return out


def _timeseries(outcome: RunOutcome, cfg: SchemeConfig) -> dict[str, list]:
    """TIMESERIES_COLUMNS over the horizon, or the spending stream if longer."""
    n_years = max(cfg.horizon, len(outcome.spending))
    area = outcome.offers.area.tolist()
    conserved = _area_by_year(outcome.conserved_year, area, n_years)
    lost = _area_by_year(outcome.harvested_year, area, n_years)
    spending = outcome.spending + [0.0] * (n_years - len(outcome.spending))
    cum_cost = list(accumulate(spending, initial=0.0))[1:]
    cum_area = list(accumulate(conserved, initial=0.0))[1:]
    values = (list(range(n_years)), spending, cum_cost, conserved, cum_area, lost)
    return dict(zip(TIMESERIES_COLUMNS, values))


def _site_ledger(outcome: RunOutcome) -> dict[str, list]:
    """LEDGER_COLUMNS, one row per offer, in site-id order."""
    offers = outcome.offers
    order = np.argsort(offers.columns.id_rank[offers.site])
    ledger = offers.take(order)
    status: list[str] = []
    year: list[int | str] = []
    for row in order.tolist():
        if row in outcome.conserved_year:
            status.append("conserved")
            year.append(outcome.conserved_year[row])
        elif row in outcome.harvested_year:
            status.append("lost")
            year.append(outcome.harvested_year[row])
        else:
            status.append("unfunded")
            year.append("")
    sites = [offers.columns.sites[index] for index in ledger.site.tolist()]
    return {
        "site_id": [site.id for site in sites],
        "status": status,
        "year": year,
        "area_ha": ledger.area.tolist(),
        "elite": ledger.elite.tolist(),
        "downpayment_per_ha": ledger.downpayment_per_ha.tolist(),
        "instalment_per_ha": ledger.instalment_per_ha.tolist(),
        "total_payment_npv_per_ha": ledger.total_payment_npv_per_ha.tolist(),
        "stand_age": offers.columns.stand_age[ledger.site].tolist(),
        "site_type": [site.site_type.value for site in sites],
    }


def _table(rows: list[dict[str, object]], header: Sequence[str]) -> dict[str, list]:
    """`rows` as columns; a cell missing from a row is left empty."""
    return {name: [row.get(name, "") for row in rows] for name in header}


# Reports are formatted and written this many rows at a time, so the text of
# a large ledger is never held whole.
_CHUNK_ROWS = 1000


def _write_csv(path: Path, header: Sequence[str], table: Mapping[str, Sequence[object]]) -> None:
    """One line per row of `table`, cells in `header` order; floats round to 0.01."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for start in range(0, len(table[header[0]]), _CHUNK_ROWS):
            chunk = (table[name][start : start + _CHUNK_ROWS] for name in header)
            cells = [[f"{v:.2f}" if isinstance(v, float) else v for v in col] for col in chunk]
            writer.writerows(zip(*cells))


def write_report(
    outcomes: list[RunOutcome],
    supplies: dict[Mechanism, SupplySummary],
    cfg: SchemeConfig,
    out_dir: str | Path,
    fmt: str = "both",
) -> list[Path]:
    """Write the summary table, per-year series, and per-site ledger.

    The ledger is sites_<mech>.csv in every format. The csv format adds the
    summary and timeseries tables, rounded to 0.01; the json format adds
    summary.json, the same at full precision with a schema version. Returns
    the written paths.
    """
    if fmt not in ("csv", "json", "both"):
        raise ValueError("format must be csv, json, or both")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    reports = [
        (outcome, supplies.get(outcome.mechanism), _timeseries(outcome, cfg))
        for outcome in outcomes
    ]

    if fmt in ("csv", "both"):
        path = out_dir / "summary.csv"
        header = ("mechanism",) + REPORT_COLUMNS
        rows = [
            {"mechanism": outcome.mechanism.value, **report_cells(outcome, supply)}
            for outcome, supply, _ in reports
        ]
        _write_csv(path, header, _table(rows, header))
        written.append(path)
    for outcome, _, timeseries in reports:
        mech = outcome.mechanism.value
        if fmt in ("csv", "both"):
            _write_csv(out_dir / f"timeseries_{mech}.csv", TIMESERIES_COLUMNS, timeseries)
            written.append(out_dir / f"timeseries_{mech}.csv")
        _write_csv(out_dir / f"sites_{mech}.csv", LEDGER_COLUMNS, _site_ledger(outcome))
        written.append(out_dir / f"sites_{mech}.csv")

    if fmt in ("json", "both"):
        path = out_dir / "summary.json"
        runs = [
            {
                "mechanism": outcome.mechanism.value,
                "summary": dataclasses.asdict(outcome.summary),
                "supply": dataclasses.asdict(supply) if supply else None,
                "timeseries": [dict(zip(timeseries, row)) for row in zip(*timeseries.values())],
            }
            for outcome, supply, timeseries in reports
        ]
        payload = {"schema_version": REPORT_SCHEMA_VERSION, "runs": runs}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(path)
    return written


def write_sweep(path: Path, mechanisms: Sequence[Mechanism], rows: list[dict[str, object]]) -> None:
    """Write sweep.csv: the axis columns, then REPORT_COLUMNS per mechanism as `{mech}_{column}`.

    Axis cells keep full precision, as in each point's manifest; result cells
    round like summary.csv. Cells a row lacks (every result cell of a failed
    point) are left empty.
    """
    columns = SWEEP_POINT_COLUMNS + tuple(
        f"{mechanism.value}_{name}" for mechanism in mechanisms for name in REPORT_COLUMNS
    )
    table = _table(rows, columns)
    for name in SWEEP_AXIS_COLUMNS:
        table[name] = [str(value) for value in table[name]]
    _write_csv(path, columns, table)


def _round10(value: float) -> int:
    return int(round(value / 10.0)) * 10


def format_console_summary(
    outcomes: list[RunOutcome], supplies: dict[Mechanism, SupplySummary]
) -> str:
    """Human-readable outcome table, money rounded to the nearest 10 euros."""
    lines = []
    for outcome in outcomes:
        s = outcome.summary
        supply = supplies.get(outcome.mechanism)
        head = "Deferred payments" if outcome.mechanism is Mechanism.DEFERRED else "Up-front payments"
        budget_label = "Initial budget" if outcome.mechanism is Mechanism.DEFERRED else "Annual budget"
        lines.append(head)
        if supply is not None:
            lines.append(f"  Offered area, ha               {supply.area_ha:,.0f}")
        lines.append(f"  {budget_label}, EUR            {_round10(s.budget):,}")
        lines.append(f"  Cost of instalments, EUR/year  {_round10(s.instalment_cost_per_year):,}")
        lines.append(f"  Area, ha                       {s.area_ha:,.0f}")
        lines.append(f"  Harvested sites, ha            {s.harvested_area_ha:,.0f}")
        lines.append(f"  BD index sum                   {s.bd_index_sum:,.0f}")
        lines.append(f"  Stand age, avg., years         {s.avg_stand_age:,.0f}")
        lines.append(f"  Downpayments, avg., EUR/ha     {_round10(s.avg_downpayment):,}")
        lines.append(f"  Instalments, avg., EUR/ha/year {_round10(s.avg_instalment):,}")
        lines.append(f"  Costs, total (NPV), EUR        {_round10(s.costs_npv):,}")
        lines.append(f"  Benefits, total (NPV), EUR     {_round10(s.benefits_npv):,}")
        lines.append(f"  Lost benefits in harvests, EUR {_round10(s.lost_benefits):,}")
        lines.append(f"  Ex post net benefits, EUR      {_round10(s.ex_post_net_benefits):,}")
        lines.append("")
    return "\n".join(lines)
