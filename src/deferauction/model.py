"""Shared domain types for the deferred-payment conservation auction.

Everything here is an immutable value object, the site table, the scheme
validators, the UTF-8 line reader that every input file goes through, and
the CSV row reader on top of it.
Validation never raises on bad field values: validators return violation
records so that callers can report every problem at once.
"""
from __future__ import annotations

import csv
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path

import numpy as np


class SiteType(Enum):
    """Finnish forest site fertility classes, richest to poorest."""

    HERB_RICH = "herb_rich"
    HERB_RICH_HEATH = "herb_rich_heath"
    MESIC_HEATH = "mesic_heath"
    SUB_XERIC_HEATH = "sub_xeric_heath"
    XERIC_HEATH = "xeric_heath"
    BARREN_HEATH = "barren_heath"


class Species(Enum):
    BROADLEAF = "broadleaf"
    CONIFER = "conifer"


class Mechanism(Enum):
    DEFERRED = "deferred"
    UPFRONT = "upfront"


DEFAULT_AREA_HA = 10.0
DEFAULT_LAND_PAYMENT = 400.0


# Site types in declaration order; a SiteTable's type codes index this tuple.
SITE_TYPES = tuple(SiteType)


@dataclass(frozen=True, eq=False)
class SiteTable:
    """Forest stands offered (or offerable) to the program, one row per stand.

    Rows are in file or generation order. ``type_code`` indexes SITE_TYPES and
    ``broadleaf`` says whether broadleaf is the dominant species; every other
    column is a float64 array named after its site CSV column. The
    conservation payment per hectare is always ``timber_value +
    land_payment``; it is intentionally not a stored column.
    """

    ids: list[str]
    type_code: np.ndarray
    broadleaf: np.ndarray
    stand_age: np.ndarray
    stand_volume: np.ndarray
    broadleaf_share: np.ndarray
    deadwood: np.ndarray
    timber_value: np.ndarray
    opportunity_cost_v0: np.ndarray
    commercial_rotation_age: np.ndarray
    area_ha: np.ndarray
    land_payment: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, rows: np.ndarray) -> SiteTable:
        """The stands at the indices `rows`, in that order."""
        arrays = (getattr(self, field.name)[rows] for field in fields(self)[1:])
        return SiteTable([self.ids[row] for row in rows.tolist()], *arrays)

    @classmethod
    def concat(cls, tables: Sequence[SiteTable]) -> SiteTable:
        """The stands of every table in `tables`, in order."""
        empty = {"type_code": np.zeros(0, np.intp), "broadleaf": np.zeros(0, bool)}
        arrays = (
            np.concatenate([empty.get(f.name, np.zeros(0))] + [getattr(t, f.name) for t in tables])
            for f in fields(cls)[1:]
        )
        return cls([site_id for table in tables for site_id in table.ids], *arrays)


@dataclass(frozen=True)
class AmenityParams:
    """Logistic amenity-curve parameters and the owner-preference scale draw."""

    d0: float = 0.04
    d1: float = 0.95
    k_max: float = 23_500.0
    phi_mean: float = 1.0
    phi_sd: float = 0.2
    phi_min: float = 0.1


@dataclass(frozen=True)
class SchemeConfig:
    """Auction rules and accounting assumptions for one scheme.

    ``bid_cap_lo``/``bid_cap_hi`` bound the landowners' common belief about
    the highest acceptable downpayment; ``upfront_cap_hi`` is the analogous
    belief cap on the premium bid in the up-front comparison auction.
    ``discount_rate`` is used for government NPV accounting;
    ``participation_discount_rate`` (landowner side) falls back to it.
    """

    interest_rate_r: float = 0.03
    lending_period_t: int = 10
    instalment_count_x: int = 10
    bid_cap_lo: float = 0.0
    bid_cap_hi: float = 2_000.0
    upfront_cap_hi: float = 500.0
    discount_rate: float = 0.03
    participation_discount_rate: float | None = None
    benefit_per_ha: float = 5_980.0
    horizon_years: int | None = None
    harvest_window: int = 40
    amenity: AmenityParams = field(default_factory=AmenityParams)
    seed: int = 1

    @property
    def horizon(self) -> int:
        """Accounting horizon in years; year 0 plus the lending period."""
        return self.horizon_years if self.horizon_years is not None else self.lending_period_t + 1

    @property
    def landowner_discount_rate(self) -> float:
        if self.participation_discount_rate is not None:
            return self.participation_discount_rate
        return self.discount_rate


@dataclass(frozen=True)
class Violation:
    """One failed invariant: which field, and the rule it broke."""

    field: str
    rule: str

    def __str__(self) -> str:
        return f"{self.field}: {self.rule}"


def _finite(x: float) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


# Upper bound of every field counted in years: each sizes an array or a loop.
MAX_YEARS = 1_000

# Lowest acceptance rate allowed for the truncated phi draw: below it the
# rejection sampler needs over a thousand normal draws per owner on average.
PHI_ACCEPTANCE_FLOOR = 1e-3


def _phi_acceptance(am: AmenityParams) -> float:
    """P(X >= phi_min) for X ~ N(phi_mean, phi_sd); a step function when phi_sd is 0."""
    if am.phi_sd == 0:
        return 1.0 if am.phi_mean >= am.phi_min else 0.0
    return 0.5 * math.erfc((am.phi_min - am.phi_mean) / (am.phi_sd * math.sqrt(2.0)))


def validate_scheme(cfg: SchemeConfig) -> list[Violation]:
    """Check SchemeConfig invariants, including the bid trade-off factor omega."""
    out: list[Violation] = []
    if not _finite(cfg.interest_rate_r) or cfg.interest_rate_r < 0:
        out.append(Violation("interest_rate_r", "must be finite and >= 0"))
    if cfg.lending_period_t < 1:
        out.append(Violation("lending_period_t", "must be >= 1"))
    if cfg.instalment_count_x < 1:
        out.append(Violation("instalment_count_x", "must be >= 1"))
    if not _finite(cfg.bid_cap_lo) or cfg.bid_cap_lo < 0:
        out.append(Violation("bid_cap_lo", "must be finite and >= 0"))
    if not _finite(cfg.bid_cap_hi) or cfg.bid_cap_hi <= cfg.bid_cap_lo:
        out.append(Violation("bid_cap_hi", "must be finite and > bid_cap_lo"))
    if not _finite(cfg.upfront_cap_hi) or cfg.upfront_cap_hi <= 0:
        out.append(Violation("upfront_cap_hi", "must be finite and > 0"))
    if not _finite(cfg.discount_rate) or cfg.discount_rate < 0:
        out.append(Violation("discount_rate", "must be finite and >= 0"))
    if cfg.participation_discount_rate is not None and (
        not _finite(cfg.participation_discount_rate) or cfg.participation_discount_rate < 0
    ):
        out.append(Violation("participation_discount_rate", "must be finite and >= 0"))
    if cfg.horizon < 1:
        out.append(Violation("horizon_years", "must be >= 1"))
    if cfg.harvest_window < 1:
        out.append(Violation("harvest_window", "must be >= 1"))
    for name in ("horizon_years", "harvest_window"):
        if (getattr(cfg, name) or 0) > MAX_YEARS:
            out.append(Violation(name, f"must be <= {MAX_YEARS}"))
    if cfg.seed < 0:
        out.append(Violation("seed", "must be >= 0"))
    r, t, x = cfg.interest_rate_r, cfg.lending_period_t, cfg.instalment_count_x
    if r >= 0 and t >= 1 and x >= 1:
        try:
            omega = 1.0 - (1.0 + r) ** t / x
        except OverflowError:  # (1+r)^t or x is beyond the float range
            omega = math.nan
        if not 0.0 < omega < 1.0:
            out.append(
                Violation(
                    "interest_rate_r/lending_period_t/instalment_count_x",
                    f"omega = 1 - (1+r)^t/x must lie in (0, 1), got {omega:.6f}",
                )
            )
        else:  # a t or x so large that omega overflows has broken the rule above
            out.extend(
                Violation(name, f"must be <= {MAX_YEARS}")
                for name, value in (("lending_period_t", t), ("instalment_count_x", x))
                if value > MAX_YEARS
            )
    am = cfg.amenity
    if not _finite(am.d0) or am.d0 <= 0:
        out.append(Violation("amenity.d0", "must be finite and > 0"))
    if not _finite(am.d1) or not 0.0 < am.d1 < 1.0:
        out.append(Violation("amenity.d1", "must lie in (0, 1)"))
    if not _finite(am.k_max) or am.k_max <= 0:
        out.append(Violation("amenity.k_max", "must be finite and > 0"))
    if not _finite(am.phi_sd) or am.phi_sd < 0:
        out.append(Violation("amenity.phi_sd", "must be finite and >= 0"))
    if not _finite(am.phi_min) or am.phi_min <= 0:
        out.append(Violation("amenity.phi_min", "must be finite and > 0"))
    elif _finite(am.phi_sd) and am.phi_sd >= 0:
        if not _finite(am.phi_mean) or _phi_acceptance(am) < PHI_ACCEPTANCE_FLOOR:
            out.append(
                Violation(
                    "amenity.phi_mean",
                    f"must be finite and leave P(phi >= phi_min) >= {PHI_ACCEPTANCE_FLOOR:g} "
                    "under N(phi_mean, phi_sd)",
                )
            )
    return out


class ConfigError(ValueError):
    """Raised when a SchemeConfig (or scenario) violates an invariant."""


class LoadError(ValueError):
    """An input file cannot be read: its text is not UTF-8, or its structure is wrong."""


def utf8_lines(path: str | Path) -> Iterator[str]:
    """The lines of a UTF-8 text file, without a leading byte-order mark.

    Text that is not UTF-8 raises a LoadError naming its first bad byte, and
    so does a path that open() refuses, such as one holding a NUL.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except ValueError as err:
        raise LoadError(f"{str(path)!r}: {err}") from None
    with fh:
        try:
            yield from fh
        except UnicodeDecodeError as err:
            # The reader decodes in chunks, so `err` counts bytes from its
            # chunk; decoding the whole file gives the offset in the file.
            data = Path(path).read_bytes()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as first:
                err = first
            line = data.count(b"\n", 0, err.start) + 1
            byte = err.object[err.start]
            raise LoadError(
                f"{path}: not UTF-8 text: byte 0x{byte:02x} at offset {err.start} (line {line})"
            ) from None


def csv_rows(path: str | Path) -> Iterator[list[str]]:
    """The rows of a UTF-8 CSV file; a row csv cannot read raises LoadError naming its line."""
    reader = csv.reader(utf8_lines(path))
    try:
        yield from reader
    except csv.Error as err:
        raise LoadError(f"{path}: line {reader.line_num}: {err}") from None


def require_valid_scheme(cfg: SchemeConfig) -> SchemeConfig:
    """Raise ConfigError naming the violated invariant, or return cfg unchanged."""
    violations = validate_scheme(cfg)
    if violations:
        raise ConfigError("; ".join(str(v) for v in violations))
    return cfg
