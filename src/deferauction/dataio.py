"""Dataset ingestion, synthetic stand generation, and report files.

The CSV schema is the sole ingestion format (UTF-8 with or without a
byte-order mark, dot decimals, header mandatory). Sites load and generate
straight into a SiteTable: the loader parses and checks a chunk of rows a
column at a time. Generated datasets are deterministic in (profile, seed)
and round-trip exactly through write_sites/load_sites.
"""
from __future__ import annotations

import dataclasses
import json
import math
import re
import weakref
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, fields
from itertools import accumulate, islice
from pathlib import Path

import numpy as np

from .model import (
    DEFAULT_AREA_HA,
    DEFAULT_LAND_PAYMENT,
    MAX_YEARS,
    SITE_TYPES,
    ConfigError,
    LoadError,
    Mechanism,
    SchemeConfig,
    SiteTable,
    Species,
    csv_rows,
)
from .simulation import CONSERVED, FATES, LOST, RunOutcome, RunSummary, SiteColumns, SupplySummary
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
# The numeric columns, in SiteTable order; the optional ones have defaults.
NUMBER_COLUMNS = tuple(f.name for f in fields(SiteTable)[3:])
OPTIONAL_DEFAULTS = {"area_ha": DEFAULT_AREA_HA, "land_payment": DEFAULT_LAND_PAYMENT}

# Default commercial rotation age by site type code (years); richer soils turn over faster.
DEFAULT_ROTATION_AGES = (85.0, 90.0, 95.0, 105.0, 120.0, 140.0)

_TYPE_NAMES = tuple(site_type.value for site_type in SITE_TYPES)
# The dominant species by a SiteTable's broadleaf flag.
_SPECIES_NAMES = (Species.CONIFER.value, Species.BROADLEAF.value)
_NAME_COLUMNS = (
    ("site_type", {name: code for code, name in enumerate(_TYPE_NAMES)}, "site type"),
    ("dominant_species", {name: code for code, name in enumerate(_SPECIES_NAMES)}, "species"),
)
_EMPTY = "required cell is empty"

# A site CSV is parsed this many rows at a time, so the text of a large file
# is never held whole.
_LOAD_CHUNK_ROWS = 2000
# Site CSVs and ledgers are formatted and written this many rows at a time.
_CHUNK_ROWS = 1000
# Upper bound of a synthetic profile's site count.
MAX_SITES = 10_000_000


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

    def validate(self) -> list[str]:
        """Every rule that the generator's draws need and the profile breaks, in a fixed order."""
        per_type = ("site_type_mix", "volume_v_max", "volume_growth", "v0_bare_land", "broadleaf_beta")
        rules = [
            (name, len(getattr(self, name)) == len(SITE_TYPES), "must have one entry per site type")
            for name in per_type
        ]
        ages = [self.age_min, *self.age_band_edges, self.age_max]
        least_beta = min(map(min, self.broadleaf_beta), default=1)
        rules += [
            ("n_sites", self.n_sites >= 0, "must be >= 0"),
            ("n_sites", self.n_sites <= MAX_SITES, f"must be <= {MAX_SITES}"),
            ("age_min", self.age_min >= 0, "must be >= 0"),
            ("age_max", self.age_min < self.age_max, "must be > age_min"),
            ("age_band_edges", ages == sorted(ages), "must be ordered within [age_min, age_max]"),
            ("broadleaf_beta", least_beta > 0, "must be pairs of parameters > 0"),
            ("v0_horizon", self.v0_horizon >= 0, "must be >= 0"),
            ("v0_horizon", self.v0_horizon <= MAX_YEARS, f"must be <= {MAX_YEARS}"),
        ]
        for name in ("site_type_mix", "age_band_weights"):
            p = getattr(self, name)
            ok = min(p, default=0) >= 0 and abs(sum(p) - 1.0) <= 1e-9
            rules.append((name, ok, "must be >= 0 and sum to 1"))
        noise = ("volume_noise_sd", "price_noise_sd", "v0_noise_sd", "deadwood_noise_sd")
        rules += [(name, getattr(self, name) >= 0, "must be >= 0") for name in noise]
        return [f"bad synthetic profile: {name} {rule}" for name, ok, rule in rules if not ok]


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
    bare = np.asarray(profile.v0_bare_land)[type_idx][:, None]
    waits = np.arange(profile.v0_horizon + 1)
    best = np.full(len(ages), -np.inf)
    discounts = (1.0 + profile.v0_discount_rate) ** (-waits)
    curve_now = ((1.0 - np.exp(-growth * ages)) ** 2)[:, None]
    neg_growth = -growth[:, None]
    net_timber = profile.v0_harvest_net_factor * timber_values[:, None]
    # Chunk over candidate years to keep memory flat for very large datasets;
    # each chunk's values are computed in place, with the operations of
    # (net_timber * ((1 - exp(-growth (age + wait)))^2 / curve_now) + bare) * discount.
    # Each chunk must be a contiguous view (a flat slice reshaped, never a column
    # slice of a wider buffer): numpy's SIMD exp may round strided input differently.
    buffer = np.empty(len(ages) * min(len(waits), 32))
    for start in range(0, len(waits), 32):
        chunk = waits[start : start + 32]
        value = buffer[: len(ages) * len(chunk)].reshape(len(ages), len(chunk))
        np.add(ages[:, None], chunk, out=value)
        np.multiply(neg_growth, value, out=value)
        np.exp(value, out=value)
        np.subtract(1.0, value, out=value)
        np.square(value, out=value)
        np.divide(value, curve_now, out=value)
        np.multiply(net_timber, value, out=value)
        np.add(value, bare, out=value)
        np.multiply(value, discounts[start : start + 32], out=value)
        np.maximum(best, value.max(axis=1), out=best)
    return best


# A profile can overflow or divide by zero; the checks at the end name the column.
@np.errstate(all="ignore")
def generate_synthetic(profile: SyntheticProfile, seed: int) -> SiteTable:
    """Deterministic synthetic dataset of n_sites valid stands.

    All draws come from one named stream of the master seed and are aligned to
    the site index, so the same (profile, seed) always yields the same data.
    A profile that fails validate(), or whose draws give a stand load_sites
    would reject, raises ConfigError naming the fields or the column.
    """
    if broken := profile.validate():
        raise ConfigError("; ".join(broken))
    n = profile.n_sites
    rng = rng_stream(seed, SYNTHETIC_STREAM)

    type_idx = rng.choice(len(SITE_TYPES), size=n, p=profile.site_type_mix)
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

    sites = SiteTable(
        ids=[f"site-{i:06d}" for i in range(n)],
        type_code=type_idx,
        broadleaf=shares >= 0.5,
        stand_age=ages,
        stand_volume=volumes,
        broadleaf_share=shares,
        deadwood=deadwood,
        timber_value=timber_values,
        opportunity_cost_v0=v0,
        commercial_rotation_age=np.array(DEFAULT_ROTATION_AGES)[type_idx],
        area_ha=np.full(n, profile.area_ha, dtype=float),
        land_payment=np.full(n, profile.land_payment, dtype=float),
    )
    # What load_sites would reject, so that generated data round-trips.
    finite = [(col, "must be finite", ~np.isfinite(getattr(sites, col))) for col in NUMBER_COLUMNS]
    for column, rule, broken in finite + _violations(sites):
        if broken.any():
            raise ConfigError(f"bad synthetic profile: generated {column} {rule}")
    return sites


def _parse_number(cell: str, default: float | None) -> float | str:
    """`cell` as a finite number, or why it is not one; an empty cell is `default` if given."""
    text = cell.strip()
    if not text:
        return _EMPTY if default is None else default
    try:
        value = float(text)
    except ValueError:
        return f"cannot parse '{text}' as a number"
    return value if math.isfinite(value) else f"non-finite value '{text}'"


def _parse_chunk(
    cells: list[tuple[str, ...]], position: dict[str, int]
) -> tuple[SiteTable, list[tuple[str, dict[int, str]]]]:
    """Rows parsed a column at a time from their cells, one tuple per header column.

    Returns the rows as a table, with -1 for an unknown name and NaN for a
    bad number, and each column's bad cells with why, in reporting order.
    Python's float parses the numbers, so surrounding whitespace and digit
    underscores are accepted; a column whose cells all parse takes one pass.
    """
    errors: list[tuple[str, dict[int, str]]] = []
    codes: dict[str, np.ndarray] = {}
    for column, names, kind in _NAME_COLUMNS:
        raw = cells[position[column]]
        codes[column] = np.array([names.get(cell.strip(), -1) for cell in raw], dtype=np.intp)
        bad = np.flatnonzero(codes[column] < 0).tolist()
        unknown = {i: f"unknown {kind} '{raw[i]}'" if raw[i].strip() else _EMPTY for i in bad}
        errors.append((column, unknown))
    ids = [cell.strip() for cell in cells[position["id"]]]
    errors.append(("id", {i: _EMPTY for i, site_id in enumerate(ids) if not site_id}))
    numbers: dict[str, np.ndarray] = {}
    for name in NUMBER_COLUMNS:
        default = OPTIONAL_DEFAULTS.get(name)
        if name not in position:
            numbers[name] = np.full(len(ids), default)
            continue
        raw = cells[position[name]]
        try:
            numbers[name] = np.array(list(map(float, raw)))
        except ValueError:
            parsed = [_parse_number(cell, default) for cell in raw]
            numbers[name] = np.array([v if isinstance(v, float) else math.nan for v in parsed])
        bad = np.flatnonzero(~np.isfinite(numbers[name])).tolist()
        errors.append((name, {i: _parse_number(raw[i], default) for i in bad}))
    broadleaf = codes["dominant_species"] == 1
    return SiteTable(ids, codes["site_type"], broadleaf, **numbers), errors


def _violations(sites: SiteTable) -> list[tuple[str, str, np.ndarray]]:
    """(column, rule, the rows breaking it) per site invariant, in reporting order.

    Only the rows that parsed count, and their values are all finite.
    """
    share = sites.broadleaf_share
    share_ok = (share >= 0.0) & (share <= 1.0)
    at_least_0 = "must be finite and >= 0"
    return [
        ("area_ha", "must be finite and > 0", sites.area_ha <= 0),
        ("stand_age", at_least_0, sites.stand_age < 0),
        ("stand_volume", at_least_0, sites.stand_volume < 0),
        ("broadleaf_share", "must lie in [0, 1]", ~share_ok),
        ("deadwood", at_least_0, sites.deadwood < 0),
        ("timber_value", at_least_0, sites.timber_value < 0),
        ("land_payment", at_least_0, sites.land_payment < 0),
        ("opportunity_cost_v0", at_least_0, sites.opportunity_cost_v0 < 0),
        ("commercial_rotation_age", "must be finite and > 0", sites.commercial_rotation_age <= 0),
        (
            "broadleaf_share",
            "inconsistent with dominant_species "
            "(share >= 0.5 must coincide with broadleaf dominance)",
            share_ok & ((share >= 0.5) != sites.broadleaf),
        ),
    ]


def load_sites(path: str | Path) -> tuple[SiteTable, list[RowIssue]]:
    """Parse a site CSV into a table of its sound rows plus a per-row issue report.

    Cells are parsed a chunk of rows and a column at a time, then the rows
    are checked a column at a time. A row that does not parse reports its
    first bad cell, taking site_type, dominant_species and id first, then
    the numeric columns in order; a row that parses reports every invariant
    it breaks. Either is excluded, as is any row repeating the id of an
    earlier kept row. Issues come in row order. Blank lines are not rows,
    and the missing cells of a short row are empty. Only structural problems
    (unreadable file, text that is not UTF-8, a row the csv module cannot
    read, missing required columns) reject the whole file.
    """
    path = Path(path)
    reader = csv_rows(path)
    header = next(reader, None)
    if header is None:
        raise LoadError(f"{path}: empty file, header row required")
    missing = [c for c in REQUIRED_COLUMNS if c not in header]
    if missing:
        raise LoadError(f"{path}: missing required columns: {', '.join(missing)}")
    # A repeated column name reads its last cell, as csv.DictReader does.
    position = {name: i for i, name in enumerate(header)}
    width = len(header)
    padding = [""] * width
    chunks: list[SiteTable] = []
    first_error: dict[int, RowIssue] = {}
    while lines := list(islice(reader, _LOAD_CHUNK_ROWS)):
        rows = [row if len(row) >= width else row + padding[len(row) :] for row in lines if row]
        if not rows:
            continue
        start = sum(map(len, chunks))
        chunk, errors = _parse_chunk(list(zip(*rows)), position)
        for column, messages in errors:
            for i, message in messages.items():
                first_error.setdefault(start + i, RowIssue(start + i + 1, column, message))
        chunks.append(chunk)
    sites = SiteTable.concat(chunks)

    issues = list(first_error.values())
    parsed = np.ones(len(sites), dtype=bool)
    parsed[list(first_error)] = False
    keep = parsed.copy()
    for column, rule, broken in _violations(sites):
        broken &= parsed
        keep &= ~broken
        issues.extend(RowIssue(row + 1, column, rule) for row in np.flatnonzero(broken).tolist())
    first: dict[str, int] = {}
    for row in np.flatnonzero(keep).tolist():
        site_id = sites.ids[row]
        if first.setdefault(site_id, row) != row:
            message = f"duplicate site id '{site_id}' (first on row {first[site_id] + 1})"
            issues.append(RowIssue(row + 1, "id", message))
    issues.sort(key=lambda issue: issue.row)
    return sites.take(np.array(list(first.values()), dtype=np.intp)), issues


def _sites_text(sites: SiteTable, header: Sequence[str]) -> Iterator[list[list[str]]]:
    """The `header` columns of a site table as CSV text, in chunks of rows; floats in full."""
    for start in range(0, len(sites), _CHUNK_ROWS):
        part = sites.take(np.arange(start, min(start + _CHUNK_ROWS, len(sites))))
        cells = {name: list(map(repr, getattr(part, name).tolist())) for name in NUMBER_COLUMNS}
        cells["id"] = list(map(_quote, part.ids))
        cells["site_type"] = [_TYPE_NAMES[code] for code in part.type_code.tolist()]
        cells["dominant_species"] = [_SPECIES_NAMES[flag] for flag in part.broadleaf.tolist()]
        yield [cells[name] for name in header]


def write_sites(sites: SiteTable, path: str | Path) -> None:
    """Write a site table in the ingestion schema, full float precision."""
    header = REQUIRED_COLUMNS + OPTIONAL_COLUMNS
    _write_csv(Path(path), header, _sites_text(sites, header))


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
Run = tuple[RunOutcome, SupplySummary]  # a mechanism's outcome, and the supply of its offers


def report_cells(outcome: RunOutcome, supply: SupplySummary) -> dict[str, object]:
    """One mechanism's REPORT_COLUMNS values."""
    cells: dict[str, object] = {name: getattr(outcome.summary, name) for name in SUMMARY_COLUMNS}
    for name in SUPPLY_COLUMNS:
        cells[f"offered_{name}"] = getattr(supply, name)
    return cells


def _timeseries(outcome: RunOutcome, cfg: SchemeConfig) -> list[dict[str, object]]:
    """TIMESERIES_COLUMNS rows over the horizon, or the spending stream if longer."""
    n_years = max(cfg.horizon, len(outcome.spending))
    # Each year's area adds in funding order, as np.bincount adds in input order.
    conserved, lost = (
        np.bincount(outcome.year[fate], outcome.offers.area[fate], n_years).astype(float).tolist()
        for fate in (outcome.fate == CONSERVED, outcome.fate == LOST)
    )
    spending = outcome.spending + [0.0] * (n_years - len(outcome.spending))
    cum_cost = list(accumulate(spending, initial=0.0))[1:]
    cum_area = list(accumulate(conserved, initial=0.0))[1:]
    values = (range(n_years), spending, cum_cost, conserved, cum_area, lost)
    return [dict(zip(TIMESERIES_COLUMNS, row)) for row in zip(*values)]


_NEEDS_QUOTES = re.compile('[,"\n\r]').search


def _quote(text: str) -> str:
    """`text` as a CSV cell: quoted, inner quotes doubled, if it holds `,`, `"`, `\\n` or `\\r`."""
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES(text) else text


def _text(rows: list[dict[str, object]], header: Sequence[str]) -> list[list[str]]:
    """The `header` columns of a few rows as CSV text: floats to 0.01, a missing cell empty."""
    cells = ([row.get(name, "") for row in rows] for name in header)
    return [["%.2f" % v if isinstance(v, float) else _quote(str(v)) for v in col] for col in cells]


# Per SiteColumns, so per seed: each site's ledger cells that no run changes,
# as CSV text, shared by both mechanisms and every sweep point of the seed.
# SiteColumns hash by identity, and an entry goes when its columns do.
_SITE_TEXT: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _site_text(columns: SiteColumns) -> tuple[np.ndarray, ...]:
    """Per site, as CSV text: site_id; area_ha,elite; stand_age,site_type."""
    sites = columns.sites
    ages = zip(sites.stand_age.tolist(), sites.type_code.tolist())
    text = (
        [_quote(site_id) for site_id in sites.ids],
        ["%.2f,%.2f" % cells for cells in zip(sites.area_ha.tolist(), columns.elite.tolist())],
        ["%.2f,%s" % (age, _TYPE_NAMES[code]) for age, code in ages],  # names need no quotes
    )
    return tuple(np.array(column, dtype=object) for column in text)


def _ledger_text(outcome: RunOutcome) -> Iterator[list[list[str]]]:
    """LEDGER_COLUMNS as CSV text, in chunks of offers in site-id order; see _SITE_TEXT."""
    offers = outcome.offers
    columns = offers.columns
    if (site_text := _SITE_TEXT.get(columns)) is None:
        site_text = _SITE_TEXT[columns] = _site_text(columns)
    years = ["", *map(str, range(outcome.year.max(initial=-1) + 1))]  # by year + 1
    cells = np.array([[f"{name},{year}" for name in FATES] for year in years], dtype=object)
    fate = cells[outcome.year + 1, outcome.fate]  # one text per (year, fate), shared by its rows
    paid = (offers.downpayment_per_ha, offers.instalment_per_ha, offers.total_payment_npv_per_ha)
    order = np.argsort(columns.id_rank[offers.site])
    for start in range(0, len(order), _CHUNK_ROWS):
        rows = order[start : start + _CHUNK_ROWS]
        site_id, area_elite, age_type = (text[offers.site[rows]].tolist() for text in site_text)
        payments = ["%.2f,%.2f,%.2f" % c for c in zip(*(column[rows].tolist() for column in paid))]
        yield [site_id, fate[rows].tolist(), area_elite, payments, age_type]


def _write_csv(path: Path, header: Sequence[str], chunks: Iterable[list[Sequence[str]]]) -> None:
    """Write `header`, then each chunk of rows.

    A chunk is columns of CSV text; a column may hold several cells joined by
    commas. Large tables come a chunk at a time, so their text is never held whole.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(map(_quote, header)) + "\n")
        for text in chunks:
            fh.write("".join([",".join(row) + "\n" for row in zip(*text)]))


def write_report(
    runs: list[Run], cfg: SchemeConfig, out_dir: str | Path, fmt: str = "both"
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
    reports = [(outcome, supply, _timeseries(outcome, cfg)) for outcome, supply in runs]

    if fmt in ("csv", "both"):
        path = out_dir / "summary.csv"
        header = ("mechanism",) + REPORT_COLUMNS
        rows = [
            {"mechanism": outcome.mechanism.value, **report_cells(outcome, supply)}
            for outcome, supply, _ in reports
        ]
        _write_csv(path, header, [_text(rows, header)])
        written.append(path)
    for outcome, _, timeseries in reports:
        mech = outcome.mechanism.value
        if fmt in ("csv", "both"):
            path = out_dir / f"timeseries_{mech}.csv"
            _write_csv(path, TIMESERIES_COLUMNS, [_text(timeseries, TIMESERIES_COLUMNS)])
            written.append(path)
        _write_csv(out_dir / f"sites_{mech}.csv", LEDGER_COLUMNS, _ledger_text(outcome))
        written.append(out_dir / f"sites_{mech}.csv")

    if fmt in ("json", "both"):
        path = out_dir / "summary.json"
        runs = [
            {
                "mechanism": outcome.mechanism.value,
                "summary": dataclasses.asdict(outcome.summary),
                "supply": dataclasses.asdict(supply),
                "timeseries": timeseries,
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
    exact = [{**row, **{name: str(row[name]) for name in SWEEP_AXIS_COLUMNS}} for row in rows]
    _write_csv(path, columns, [_text(exact, columns)])


def _round10(value: float) -> int | float:
    """`value` to the nearest 10; an overflowed (non-finite) sum as it is."""
    return int(round(value / 10.0)) * 10 if math.isfinite(value) else value


def format_console_summary(runs: list[Run]) -> str:
    """Human-readable outcome table, money rounded to the nearest 10 euros."""
    lines = []
    for outcome, supply in runs:
        s = outcome.summary
        head = "Deferred payments" if outcome.mechanism is Mechanism.DEFERRED else "Up-front payments"
        budget_label = "Initial budget" if outcome.mechanism is Mechanism.DEFERRED else "Annual budget"
        lines.append(head)
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
