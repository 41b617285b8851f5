"""Dataset ingestion, synthetic stand generation, and report files.

The CSV schema is the sole ingestion format (UTF-8 with or without a
byte-order mark, dot decimals, header mandatory). Sites load and generate
straight into a SiteTable: the loader parses and checks a chunk of rows a
column at a time. Generated datasets are deterministic in (profile, seed)
and round-trip exactly through write_sites/load_sites.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import math
import re
from collections.abc import Iterable, Iterator, Sequence
from contextlib import ExitStack
from dataclasses import dataclass, fields
from itertools import accumulate, chain, count, islice, repeat
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
    utf8_lines,
)
from .simulation import CONSERVED, FATES, LOST, RunOutcome, RunSummary, SiteColumns, SupplySummary
from .streams import SYNTHETIC_STREAM, rng_stream

REPORT_SCHEMA_VERSION = 3
FORMATS = ("csv", "json", "both")  # a report's: the csv tables, summary.json, or both

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
# The dtype of each SiteTable column but the ids.
_COLUMN_DTYPES = {"type_code": np.intp, "broadleaf": bool, **dict.fromkeys(NUMBER_COLUMNS, float)}

# A site CSV is parsed this many rows at a time, so the text of a large file
# is never held whole.
_LOAD_CHUNK_ROWS = 500
# Site CSVs are formatted and written this many rows at a time, a report's
# ledgers this many sites at a time.
_CHUNK_ROWS = 1000
# Stands and candidate years per block of the harvest search (8 bytes a value).
_HARVEST_BLOCK = (4096, 32)
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
    current timber value, mature stands price near harvest-now. Years that
    cannot beat a stand's best so far are skipped, with the same result.
    """
    growth = np.asarray(profile.volume_growth)[type_idx]
    bare = np.asarray(profile.v0_bare_land)[type_idx]
    waits = np.arange(profile.v0_horizon + 1)
    best = np.full(len(ages), -np.inf)
    discounts = (1.0 + profile.v0_discount_rate) ** (-waits)
    curve_now = (1.0 - np.exp(-growth * ages)) ** 2
    net_timber = profile.v0_harvest_net_factor * timber_values
    # No later year beats ceiling * (its largest discount): with growth, age and
    # net timber >= 0, (1 - exp(-growth (age + wait)))^2 <= 1, and + * / round
    # monotonically. Elsewhere the bound is NaN, which prunes nothing. curve_now, a
    # square, is >= 0 or NaN; at 0 the ceiling is +inf or NaN. A NaN one fails
    # `ceiling >= 0`, and +inf * later[start] is +inf or NaN, which no best exceeds.
    ceiling = net_timber * (1.0 / curve_now) + bare
    bounded = (growth >= 0) & (ages >= 0) & (net_timber >= 0) & (ceiling >= 0) & (discounts >= 0).all()
    ceiling[~bounded] = np.nan
    later = np.maximum.accumulate(discounts[::-1])[::-1]
    # The search runs over blocks of stands and of candidate years, so that its buffer
    # has a fixed size; each block's values are computed in place, with the operations of
    # (net_timber * ((1 - exp(-growth (age + wait)))^2 / curve_now) + bare) * discount.
    # Each block must be a contiguous view (a flat slice reshaped, never a column
    # slice of a wider buffer): numpy's SIMD exp may round strided input differently.
    stands, years = _HARVEST_BLOCK
    buffer = np.empty(min(len(ages), stands) * min(len(waits), years))
    for first in range(0, len(ages), stands):
        live = np.arange(first, min(first + stands, len(ages)))  # whose best a later year may beat
        for start in range(0, len(waits), years):
            if start:
                live = live[~(best[live] > ceiling[live] * later[start])]
            chunk = waits[start : start + years]
            value = buffer[: len(live) * len(chunk)].reshape(len(live), len(chunk))
            np.add(ages[live, None], chunk, out=value)
            np.multiply(-growth[live, None], value, out=value)
            np.exp(value, out=value)
            np.subtract(1.0, value, out=value)
            np.square(value, out=value)
            np.divide(value, curve_now[live, None], out=value)
            np.multiply(net_timber[live, None], value, out=value)
            np.add(value, bare[live, None], out=value)
            np.multiply(value, discounts[start : start + years], out=value)
            best[live] = np.maximum(best[live], value.max(axis=1))
    # A product of two NaNs (say a NaN age and 0 * inf timber) keeps either one's sign,
    # by the length of the loop numpy runs; a stand without a value gets the same NaN.
    best[np.isnan(best)] = np.nan
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

    def lognormal(sd: float) -> np.ndarray:
        """Per site, a lognormal noise factor of mean 1 whose log has the deviation `sd`."""
        return np.exp(rng.normal(-sd * sd / 2.0, sd, size=n))

    type_idx = rng.choice(len(SITE_TYPES), size=n, p=profile.site_type_mix)
    band = rng.choice(3, size=n, p=profile.age_band_weights)
    edges = np.array([profile.age_min, *profile.age_band_edges, profile.age_max])
    ages = rng.uniform(edges[band], edges[band + 1])
    ages = np.clip(ages, profile.age_min, profile.age_max)

    v_max = np.array(profile.volume_v_max)[type_idx]
    growth = np.array(profile.volume_growth)[type_idx]
    volumes = v_max * (1.0 - np.exp(-growth * ages)) ** 2 * lognormal(profile.volume_noise_sd)
    timber_values = volumes * profile.timber_price_per_m3 * lognormal(profile.price_noise_sd)
    v0 = _best_harvest_value(profile, type_idx, ages, timber_values) * lognormal(profile.v0_noise_sd)
    deadwood_curve = (ages / profile.age_max) ** profile.deadwood_exponent
    deadwood = profile.deadwood_max * deadwood_curve * lognormal(profile.deadwood_noise_sd)
    beta_a, beta_b = np.array(profile.broadleaf_beta)[type_idx].T
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
    cells: Sequence[Sequence[str]], position: dict[str, int]
) -> tuple[list[str], dict[str, np.ndarray], list[tuple[str, dict[int, str]]]]:
    """Rows parsed a column at a time from their cells, one sequence per header column.

    Returns the ids, the other SiteTable columns by name, with -1 for an
    unknown name and NaN for a bad number, and each column's bad cells with
    why, in reporting order. Python's float parses the numbers, so
    surrounding whitespace and digit underscores are accepted; a column whose
    cells all parse takes one pass.
    """
    errors: list[tuple[str, dict[int, str]]] = []
    codes: dict[str, np.ndarray] = {}
    for column, names, kind in _NAME_COLUMNS:
        raw = cells[position[column]]
        codes[column] = np.fromiter(map(names.get, raw, repeat(-1)), np.intp, len(raw))
        if (codes[column] < 0).any():  # a padded name, or one that is not known
            codes[column] = np.array([names.get(cell.strip(), -1) for cell in raw], dtype=np.intp)
        bad = np.flatnonzero(codes[column] < 0).tolist()
        unknown = {i: f"unknown {kind} '{raw[i]}'" if raw[i].strip() else _EMPTY for i in bad}
        errors.append((column, unknown))
    ids = list(map(str.strip, cells[position["id"]]))
    errors.append(("id", {i: _EMPTY for i, site_id in enumerate(ids) if not site_id}))
    columns = {"type_code": codes["site_type"], "broadleaf": codes["dominant_species"] == 1}
    for name in NUMBER_COLUMNS:
        default = OPTIONAL_DEFAULTS.get(name)
        if name not in position:
            columns[name] = np.full(len(ids), default)
            continue
        raw = cells[position[name]]
        try:
            columns[name] = np.fromiter(map(float, raw), float, len(raw))
        except ValueError:
            parsed = [_parse_number(cell, default) for cell in raw]
            columns[name] = np.array([v if isinstance(v, float) else math.nan for v in parsed])
        bad = np.flatnonzero(~np.isfinite(columns[name])).tolist()
        errors.append((name, {i: _parse_number(raw[i], default) for i in bad}))
    return ids, columns, errors


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


def _column_chunks(path: Path) -> Iterator[Sequence[Sequence[str]]]:
    """A site CSV's header row, then its rows a chunk at a time as columns, padded to the header.

    Blank lines are not rows. Chunks are split at commas, as csv splits them, while no line
    holds a quote, a CR or a NUL (which Python 3.10's csv rejects) or outgrows csv's field
    limit, and each has a row's commas; from the first chunk that does not, csv reads the rest.
    """
    lines, limit = utf8_lines(path), csv.field_size_limit()
    chunk, read = list(islice(lines, 1)), 0  # the header line first; the lines split so far
    width = chunk[0].count(",") + 1 if chunk else 0
    while chunk:
        text = "".join(chunk)
        csv_only = '"' in text or "\r" in text or "\0" in text or max(map(len, chunk)) > limit
        if csv_only or not all(map((width - 1).__eq__, map(str.count, chunk, repeat(",")))):
            break
        cells = text.rstrip("\n").replace("\n", ",").split(",")
        yield [cells[i::width] for i in range(width)] if read else cells  # the header as a row
        read += len(chunk)
        chunk = list(islice(lines, _LOAD_CHUNK_ROWS))
    rows = csv_rows(path, chain(chunk, lines), read)  # a quoted cell may span lines
    if not read and (header := next(rows, None)) is not None:  # csv reads the header too
        yield header
        width = len(header)
    while records := list(islice(filter(None, rows), _LOAD_CHUNK_ROWS)):
        yield list(zip(*(row + [""] * (width - len(row)) for row in records)))


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
    chunks = _column_chunks(path)
    if (header := next(chunks, None)) is None:
        raise LoadError(f"{path}: empty file, header row required")
    if missing := [c for c in REQUIRED_COLUMNS if c not in header]:
        raise LoadError(f"{path}: missing required columns: {', '.join(missing)}")
    # A repeated column name reads its last cell, as csv.DictReader does.
    position = {name: i for i, name in enumerate(header)}
    ids: list[str] = []
    # Each column's chunk parts, after an empty one that keeps its dtype when no row is read.
    parts = {name: [np.zeros(0, dtype)] for name, dtype in _COLUMN_DTYPES.items()}
    first_error: dict[int, RowIssue] = {}
    for cells in chunks:
        start = len(ids)
        chunk_ids, columns, errors = _parse_chunk(cells, position)
        for column, messages in errors:
            for i, message in messages.items():
                first_error.setdefault(start + i, RowIssue(start + i + 1, column, message))
        ids += chunk_ids
        for name, values in columns.items():
            parts[name].append(values)
    # Each column's chunk parts go as it is joined, so the table is never held twice.
    columns = {name: np.concatenate(parts.pop(name)) for name in _COLUMN_DTYPES}

    issues = list(first_error.values())
    parsed = np.ones(len(ids), dtype=bool)
    parsed[list(first_error)] = False
    keep = parsed.copy()
    for column, rule, broken in _violations(SiteTable(ids, **columns)):
        broken &= parsed
        keep &= ~broken
        issues.extend(RowIssue(row + 1, column, rule) for row in np.flatnonzero(broken).tolist())
    kept = np.flatnonzero(keep).tolist()
    if len(set(map(ids.__getitem__, kept))) < len(kept):  # an id repeats: keep its first row
        first: dict[str, int] = {}
        for row in kept:
            site_id = ids[row]
            if first.setdefault(site_id, row) != row:
                message = f"duplicate site id '{site_id}' (first on row {first[site_id] + 1})"
                issues.append(RowIssue(row + 1, "id", message))
        kept = list(first.values())
    issues.sort(key=lambda issue: issue.row)
    if len(kept) < len(ids):  # each joined column goes as its kept copy is made
        rows = np.array(kept, dtype=np.intp)
        for name in columns:
            columns[name] = columns[name][rows]
        ids = list(map(ids.__getitem__, kept))
    return SiteTable(ids, **columns), issues


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
    _write_csv([Path(path)], header, zip(_sites_text(sites, header)))


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
# Per mechanism, its sweep.csv result columns: REPORT_COLUMNS as `{mech}_{column}`.
RESULT_COLUMNS = {m: tuple(f"{m.value}_{name}" for name in REPORT_COLUMNS) for m in Mechanism}
Run = tuple[RunOutcome, SupplySummary]  # a mechanism's outcome, and the supply of its offers


def report_cells(outcome: RunOutcome, supply: SupplySummary) -> dict[str, object]:
    """One mechanism's REPORT_COLUMNS values."""
    values = [getattr(outcome.summary, name) for name in SUMMARY_COLUMNS]
    return dict(zip(REPORT_COLUMNS, values + [getattr(supply, name) for name in SUPPLY_COLUMNS]))


def _timeseries(outcome: RunOutcome, cfg: SchemeConfig) -> list[dict[str, object]]:
    """TIMESERIES_COLUMNS rows over the horizon, or the spending stream if longer."""
    n_years = max(cfg.horizon, len(outcome.spending))
    # Each year's area adds in funding order, as np.bincount adds in input order.
    conserved, lost = (
        np.bincount(outcome.year[fate], outcome.offers.area[fate], n_years).astype(float).tolist()
        for fate in (outcome.fate == CONSERVED, outcome.fate == LOST)
    )
    spending = outcome.spending + [0.0] * (n_years - len(outcome.spending))
    cum_cost, cum_area = (list(accumulate(column, initial=0.0))[1:] for column in (spending, conserved))
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


SiteText = list[tuple[np.ndarray, ...]]  # every site's fixed ledger cells, by chunk; see _site_chunks


def _site_chunks(columns: SiteColumns) -> Iterator[tuple[np.ndarray, ...]]:
    """Each _CHUNK_ROWS sites in id order as CSV text: site_id; area_ha,elite; stand_age,site_type."""
    sites, order = columns.sites, np.argsort(columns.id_rank)
    for start in range(0, len(order), _CHUNK_ROWS):
        rows = order[start : start + _CHUNK_ROWS]
        ids = list(map(sites.ids.__getitem__, rows.tolist()))
        area_elite = zip(sites.area_ha[rows].tolist(), columns.elite[rows].tolist())
        ages = zip(sites.stand_age[rows].tolist(), sites.type_code[rows].tolist())
        text = (  # the rule's characters are single: the joined ids hold one when some id does
            list(map(_quote, ids)) if _NEEDS_QUOTES("".join(ids)) else ids,
            ["%.2f,%.2f" % cells for cells in area_elite],
            ["%.2f,%s" % (age, _TYPE_NAMES[code]) for age, code in ages],  # names need no quotes
        )
        yield tuple(np.array(column, dtype=object) for column in text)


def site_text(columns: SiteColumns) -> SiteText:
    """Every site's fixed ledger cells, by chunk: what write_report can reuse at each sweep point."""
    return list(_site_chunks(columns))


def _ledger_text(
    outcomes: Sequence[RunOutcome], site_text: Iterable[tuple[np.ndarray, ...]]
) -> Iterator[list[list[list[str]]]]:
    """Each outcome's LEDGER_COLUMNS as CSV text, in one pass over the sites in id order.

    A chunk holds one text per outcome: its offers on the chunk's _CHUNK_ROWS sites,
    whose fixed cells come from `site_text`, the chunks of the outcomes' one dataset.
    """
    ledgers = []
    for outcome in outcomes:
        offers = outcome.offers
        rank = offers.columns.id_rank[offers.site]
        order = np.argsort(rank)
        years = ["", *map(str, range(outcome.year.max(initial=-1) + 1))]  # by year + 1
        cells = np.array([[f"{name},{year}" for name in FATES] for year in years], dtype=object)
        fate = cells[outcome.year + 1, outcome.fate]  # one text per (year, fate), shared by its rows
        paid = (offers.downpayment_per_ha, offers.instalment_per_ha, offers.total_payment_npv_per_ha)
        down, instalment, total = paid
        # Up-front offers pay the downpayment alone: it is their total, and every instalment is +0.0.
        paid_once = down.tobytes() == total.tobytes() and not instalment.view(np.int64).any()
        ledgers.append((order, rank[order], fate, paid, paid_once))
    for start, chunk in zip(count(0, _CHUNK_ROWS), site_text):
        texts = []
        for order, ranks, fate, paid, paid_once in ledgers:
            within = slice(*np.searchsorted(ranks, (start, start + _CHUNK_ROWS)))
            rows, local = order[within], ranks[within] - start
            site_id, area_elite, age_type = (column[local].tolist() for column in chunk)
            if paid_once:
                once = ["%.2f" % v for v in paid[0][rows].tolist()]
                payments = [f"{cell},0.00,{cell}" for cell in once]
            else:
                by_row = zip(*(column[rows].tolist() for column in paid))
                payments = ["%.2f,%.2f,%.2f" % cells for cells in by_row]
            texts.append([site_id, fate[rows].tolist(), area_elite, payments, age_type])
        yield texts


def _write_csv(
    paths: Sequence[Path], header: Sequence[str], chunks: Iterable[Sequence[list[Sequence[str]]]]
) -> None:
    """Write `header` to each of `paths`, then each chunk of rows: a chunk holds one text per path.

    A text is columns of CSV text; a column may hold several cells joined by
    commas. Large tables come a chunk at a time, so their text is never held
    whole, and tables written in one pass share each chunk's work.
    """
    with ExitStack() as stack:
        files = [stack.enter_context(open(path, "w", newline="", encoding="utf-8")) for path in paths]
        for fh in files:
            fh.write(",".join(map(_quote, header)) + "\n")
        for texts in chunks:
            for fh, text in zip(files, texts, strict=True):
                fh.write("".join([",".join(row) + "\n" for row in zip(*text)]))


def write_json(path: Path, payload: object) -> None:
    """Write `payload` as JSON: indented by 2, keys sorted, with a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_report(
    runs: list[Run],
    cfg: SchemeConfig,
    out_dir: str | Path,
    fmt: str = "both",
    site_text: SiteText | None = None,
) -> list[Path]:
    """Write the summary table, per-year series, and per-site ledger.

    The ledger is sites_<mech>.csv in every format; the runs must be on one
    dataset, whose ledgers are written in one pass over the sites. `site_text`,
    if given, must be site_text() of its site columns, which are then not
    formatted again. The csv format adds the summary and timeseries tables,
    rounded to 0.01; the json format adds summary.json, the same at full
    precision with a schema version. Returns the written paths.
    """
    if fmt not in FORMATS:
        raise ValueError("format must be csv, json, or both")
    datasets = dict.fromkeys(outcome.offers.columns for outcome, _ in runs)  # hashed by identity
    if len(datasets) > 1:
        raise ValueError("a report's runs must share one dataset's site columns")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = [(outcome, supply, _timeseries(outcome, cfg)) for outcome, supply in runs]
    written: list[Path] = []
    if fmt != "json":
        header = ("mechanism",) + REPORT_COLUMNS
        rows = [
            {"mechanism": outcome.mechanism.value, **report_cells(outcome, supply)}
            for outcome, supply, _ in reports
        ]
        written.append(out_dir / "summary.csv")
        _write_csv(written[-1:], header, [[_text(rows, header)]])
    ledgers = []
    for outcome, _, timeseries in reports:
        mech = outcome.mechanism.value
        if fmt != "json":
            written.append(out_dir / f"timeseries_{mech}.csv")
            _write_csv(written[-1:], TIMESERIES_COLUMNS, [[_text(timeseries, TIMESERIES_COLUMNS)]])
        written.append(out_dir / f"sites_{mech}.csv")
        ledgers.append(written[-1])
    if site_text is None:
        site_text = (chunk for columns in datasets for chunk in _site_chunks(columns))
    _write_csv(ledgers, LEDGER_COLUMNS, _ledger_text([outcome for outcome, _ in runs], site_text))

    if fmt != "csv":
        runs = [
            {
                "mechanism": outcome.mechanism.value,
                "summary": dataclasses.asdict(outcome.summary),
                "supply": dataclasses.asdict(supply),
                "timeseries": timeseries,
            }
            for outcome, supply, timeseries in reports
        ]
        written.append(out_dir / "summary.json")
        write_json(written[-1], {"schema_version": REPORT_SCHEMA_VERSION, "runs": runs})
    return written


def sweep_cells(result: list[Run] | Exception) -> dict[str, object]:
    """A sweep point's status cell, and the result cells of its runs or none if it failed."""
    if isinstance(result, Exception):
        return {"status": f"error: {result}"}
    cells: dict[str, object] = {"status": "ok"}
    for outcome, supply in result:
        cells.update(zip(RESULT_COLUMNS[outcome.mechanism], report_cells(outcome, supply).values()))
    return cells


def write_sweep(path: Path, mechanisms: Sequence[Mechanism], rows: list[dict[str, object]]) -> None:
    """Write sweep.csv: SWEEP_POINT_COLUMNS, then each mechanism's result columns.

    Axis cells keep full precision, as in each point's manifest; result cells
    round like summary.csv. Cells a row lacks (every result cell of a failed
    point) are left empty.
    """
    columns = SWEEP_POINT_COLUMNS + tuple(chain.from_iterable(map(RESULT_COLUMNS.get, mechanisms)))
    exact = [{**row, **{name: str(row[name]) for name in SWEEP_AXIS_COLUMNS}} for row in rows]
    _write_csv([path], columns, [[_text(exact, columns)]])


def _euros(value: float) -> str:
    """`value` to the nearest 10, with thousands separators; an overflowed (non-finite) sum as it is."""
    return f"{int(round(value / 10.0)) * 10 if math.isfinite(value) else value:,}"


def format_console_summary(runs: list[Run]) -> str:
    """Human-readable outcome table, money rounded to the nearest 10 euros."""
    lines = []
    for outcome, supply in runs:
        s = outcome.summary
        deferred = outcome.mechanism is Mechanism.DEFERRED
        rows = [
            ("Offered area, ha", f"{supply.area_ha:,.0f}"),
            ("Initial budget, EUR" if deferred else "Annual budget, EUR", _euros(s.budget)),
            ("Cost of instalments, EUR/year", _euros(s.instalment_cost_per_year)),
            ("Area, ha", f"{s.area_ha:,.0f}"),
            ("Harvested sites, ha", f"{s.harvested_area_ha:,.0f}"),
            ("BD index sum", f"{s.bd_index_sum:,.0f}"),
            ("Stand age, avg., years", f"{s.avg_stand_age:,.0f}"),
            ("Downpayments, avg., EUR/ha", _euros(s.avg_downpayment)),
            ("Instalments, avg., EUR/ha/year", _euros(s.avg_instalment)),
            ("Costs, total (NPV), EUR", _euros(s.costs_npv)),
            ("Benefits, total (NPV), EUR", _euros(s.benefits_npv)),
            ("Lost benefits in harvests, EUR", _euros(s.lost_benefits)),
            ("Ex post net benefits, EUR", _euros(s.ex_post_net_benefits)),
        ]
        lines.append("Deferred payments" if deferred else "Up-front payments")
        lines += [f"  {label:<31}{value}" for label, value in rows]
        lines.append("")
    return "\n".join(lines)
