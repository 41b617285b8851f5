"""Shared domain types for the deferred-payment conservation auction.

Everything here is an immutable value object plus boundary validators.
Validation never raises on bad field values: validators return violation
records so that loaders can report per-row problems and keep going.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum


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


class OwnerKind(Enum):
    FAUSTMANNIAN = "faustmannian"
    HARTMANIAN = "hartmanian"


class Mechanism(Enum):
    DEFERRED = "deferred"
    UPFRONT = "upfront"


DEFAULT_AREA_HA = 10.0
DEFAULT_LAND_PAYMENT = 400.0


@dataclass(frozen=True)
class SiteRecord:
    """One forest stand offered (or offerable) to the conservation program.

    The conservation payment per hectare is always derived as
    ``timber_value + land_payment``; it is intentionally not a stored field.
    """

    id: str
    site_type: SiteType
    stand_age: float
    stand_volume: float
    dominant_species: Species
    broadleaf_share: float
    deadwood: float
    timber_value: float
    opportunity_cost_v0: float
    commercial_rotation_age: float
    area_ha: float = DEFAULT_AREA_HA
    land_payment: float = DEFAULT_LAND_PAYMENT


@dataclass(frozen=True)
class LandownerProfile:
    """Landowner type and amenity valuation.

    Faustmannian owners value harvest revenue only (a0 = a1 = 0, phi unused).
    Hartmanian owners also value standing-forest amenities, a1 >= a0.
    """

    kind: OwnerKind
    phi: float = 1.0
    a0: float = 0.0
    a1: float = 0.0

    @property
    def amenity_gain(self) -> float:
        """a1 - a0, the amenity change from enrolling instead of harvesting."""
        return self.a1 - self.a0


FAUSTMANNIAN = LandownerProfile(kind=OwnerKind.FAUSTMANNIAN)


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
class Bid:
    """A landowner's deferred-payment bid for one site, per hectare."""

    downpayment_c: float
    instalment_m: float
    total_revenue_r: float
    participates: bool


@dataclass(frozen=True)
class Violation:
    """One failed invariant: which field, and the rule it broke."""

    field: str
    rule: str

    def __str__(self) -> str:
        return f"{self.field}: {self.rule}"


def conservation_payment(site: SiteRecord) -> float:
    """Conservation payment per hectare: stand timber value plus the fixed land payment."""
    return site.timber_value + site.land_payment


def _finite(x: float) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def validate_site(site: SiteRecord) -> list[Violation]:
    """Check all SiteRecord invariants; returns an empty list when the record is sound."""
    out: list[Violation] = []
    if not site.id:
        out.append(Violation("id", "must be a non-empty identifier"))
    if not _finite(site.area_ha) or site.area_ha <= 0:
        out.append(Violation("area_ha", "must be finite and > 0"))
    if not _finite(site.stand_age) or site.stand_age < 0:
        out.append(Violation("stand_age", "must be finite and >= 0"))
    if not _finite(site.stand_volume) or site.stand_volume < 0:
        out.append(Violation("stand_volume", "must be finite and >= 0"))
    if not _finite(site.broadleaf_share) or not 0.0 <= site.broadleaf_share <= 1.0:
        out.append(Violation("broadleaf_share", "must lie in [0, 1]"))
    if not _finite(site.deadwood) or site.deadwood < 0:
        out.append(Violation("deadwood", "must be finite and >= 0"))
    for name in ("timber_value", "land_payment", "opportunity_cost_v0"):
        value = getattr(site, name)
        if not _finite(value) or value < 0:
            out.append(Violation(name, "must be finite and >= 0"))
    if not _finite(site.commercial_rotation_age) or site.commercial_rotation_age <= 0:
        out.append(Violation("commercial_rotation_age", "must be finite and > 0"))
    if _finite(site.broadleaf_share) and 0.0 <= site.broadleaf_share <= 1.0:
        broadleaf_dominated = site.broadleaf_share >= 0.5
        if broadleaf_dominated != (site.dominant_species is Species.BROADLEAF):
            out.append(
                Violation(
                    "broadleaf_share",
                    "inconsistent with dominant_species "
                    "(share >= 0.5 must coincide with broadleaf dominance)",
                )
            )
    return out


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
    if cfg.interest_rate_r >= 0 and cfg.lending_period_t >= 1 and cfg.instalment_count_x >= 1:
        omega = 1.0 - (1.0 + cfg.interest_rate_r) ** cfg.lending_period_t / cfg.instalment_count_x
        if not 0.0 < omega < 1.0:
            out.append(
                Violation(
                    "interest_rate_r/lending_period_t/instalment_count_x",
                    f"omega = 1 - (1+r)^t/x must lie in (0, 1), got {omega:.6f}",
                )
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


def require_valid_scheme(cfg: SchemeConfig) -> SchemeConfig:
    """Raise ConfigError naming the violated invariant, or return cfg unchanged."""
    violations = validate_scheme(cfg)
    if violations:
        raise ConfigError("; ".join(str(v) for v in violations))
    return cfg
