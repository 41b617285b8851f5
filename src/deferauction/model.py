"""Shared domain types for the deferred-payment conservation auction.

Everything here is an immutable value object, the site table, the scheme
validators, the UTF-8 line reader that every input file goes through, and
the CSV row reader on top of it.
Validation never raises on bad field values: `validate_scheme` returns every
broken rule as a message, so that callers can report every problem at once.
"""
from __future__ import annotations

import csv
import math
from collections.abc import Iterator
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path

import numpy as np

from .finance import compound_factor


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


def omega(cfg: SchemeConfig) -> float:
    """Marginal payoff of raising the downpayment: 1 - (1+r)^t / x.

    Positive and below one for every valid config; shrinks toward zero as the
    interest earning on the loan grows. NaN when (1+r)^t or x overflows.
    """
    try:
        factor = compound_factor(cfg.interest_rate_r, cfg.lending_period_t)
        return 1.0 - factor / cfg.instalment_count_x
    except OverflowError:
        return math.nan


def validate_scheme(cfg: SchemeConfig) -> list[str]:
    """Every SchemeConfig rule that `cfg` breaks, as "field: rule", in a fixed order.

    A bound written ``0 <= v < inf`` also rejects NaN and infinities.
    """
    r, t, x, inf = cfg.interest_rate_r, cfg.lending_period_t, cfg.instalment_count_x, math.inf
    lo, hi, rate, am = cfg.bid_cap_lo, cfg.bid_cap_hi, cfg.participation_discount_rate, cfg.amenity
    at_least_0, above_0 = "must be finite and >= 0", "must be finite and > 0"
    at_most = f"must be <= {MAX_YEARS}"
    # omega is defined once r, t and x are in range; a t or x so large that
    # omega overflows is reported by the omega rule alone.
    defined = r >= 0 and t >= 1 and x >= 1
    w = omega(cfg) if defined else math.nan
    in_unit = 0.0 < w < 1.0
    rules = [
        ("interest_rate_r", 0 <= r < inf, at_least_0),
        ("lending_period_t", t >= 1, "must be >= 1"),
        ("instalment_count_x", x >= 1, "must be >= 1"),
        ("bid_cap_lo", 0 <= lo < inf, at_least_0),
        # not `hi > lo`: a NaN bid_cap_lo is reported by its own rule alone
        ("bid_cap_hi", -inf < hi < inf and not hi <= lo, "must be finite and > bid_cap_lo"),
        ("upfront_cap_hi", 0 < cfg.upfront_cap_hi < inf, above_0),
        ("discount_rate", 0 <= cfg.discount_rate < inf, at_least_0),
        ("participation_discount_rate", rate is None or 0 <= rate < inf, at_least_0),
        ("benefit_per_ha", 0 <= cfg.benefit_per_ha < inf, at_least_0),
        # the default horizon, t + 1, is >= 2 whenever t passes its own rule
        ("horizon_years", cfg.horizon_years is None or cfg.horizon_years >= 1, "must be >= 1"),
        ("harvest_window", cfg.harvest_window >= 1, "must be >= 1"),
        ("horizon_years", (cfg.horizon_years or 0) <= MAX_YEARS, at_most),
        ("harvest_window", cfg.harvest_window <= MAX_YEARS, at_most),
        ("seed", cfg.seed >= 0, "must be >= 0"),
        (
            "interest_rate_r/lending_period_t/instalment_count_x",
            in_unit or not defined,
            f"omega = 1 - (1+r)^t/x must lie in (0, 1), got {w:.6f}",
        ),
        ("lending_period_t", not in_unit or t <= MAX_YEARS, at_most),
        ("instalment_count_x", not in_unit or x <= MAX_YEARS, at_most),
        ("amenity.d0", 0 < am.d0 < inf, above_0),
        ("amenity.d1", 0 < am.d1 < 1, "must lie in (0, 1)"),
        ("amenity.k_max", 0 < am.k_max < inf, above_0),
        ("amenity.phi_sd", 0 <= am.phi_sd < inf, at_least_0),
        ("amenity.phi_min", 0 < am.phi_min < inf, above_0),
        (
            "amenity.phi_mean",
            not (0 < am.phi_min < inf and 0 <= am.phi_sd < inf)
            or (-inf < am.phi_mean < inf and not _phi_acceptance(am) < PHI_ACCEPTANCE_FLOOR),
            f"must be finite and leave P(phi >= phi_min) >= {PHI_ACCEPTANCE_FLOOR:g} "
            "under N(phi_mean, phi_sd)",
        ),
    ]
    return [f"{name}: {rule}" for name, ok, rule in rules if not ok]


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


def csv_rows(path: str | Path, lines=None, skipped: int = 0) -> Iterator[list[str]]:
    """Rows of a UTF-8 CSV file, or `lines`: its lines after `skipped`. LoadError names the line."""
    reader = csv.reader(utf8_lines(path) if lines is None else lines)
    try:
        yield from reader
    except csv.Error as err:
        raise LoadError(f"{path}: line {skipped + reader.line_num}: {err}") from None


def require_valid_scheme(cfg: SchemeConfig) -> SchemeConfig:
    """Raise ConfigError naming the violated invariant, or return cfg unchanged."""
    violations = validate_scheme(cfg)
    if violations:
        raise ConfigError("; ".join(violations))
    return cfg
