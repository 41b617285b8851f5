"""Scalar reference implementations of the per-site formulas.

The package computes owner types, amenity gains, habitat indices, bids,
participation and harvest years as array operations over per-site columns.
This module keeps the one-site-at-a-time versions they replaced, plus a
numeric optimizer of the bid surplus, so that tests can check the closed
forms by hand and the column path against these scalars bit for bit. It also
keeps the per-offer engine: one ``Offer`` object per participating site,
ranked with a sort key, funded by the selection loops over those objects and
accounted through site-id maps, and the row-wise report writer: one dict per
ledger and timeseries row, one formatted cell at a time, and ``json.dump`` of
the summary. Sites are ``SiteRecord`` objects here, one per stand, as the
per-row loader and the per-site generator built them; ``site_table`` and
``site_records`` convert between them and the package's ``SiteTable``.
"""
from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from deferauction.bidding import omega
from deferauction.ecology import (
    AMENITY_LOOKAHEAD_YEARS,
    COMPONENT_SOURCES,
    DEFAULT_ELITE_TABLE,
    EliteDataError,
    EliteTable,
)
from deferauction.finance import (
    annuity_factor,
    compound_factor,
    discounted_instalment_sum,
)
from deferauction.model import (
    DEFAULT_AREA_HA,
    DEFAULT_LAND_PAYMENT,
    SITE_TYPES,
    AmenityParams,
    Mechanism,
    SchemeConfig,
    SiteTable,
    SiteType,
    Species,
    Violation,
    utf8_lines,
)
from deferauction.dataio import (
    DEFAULT_ROTATION_AGES,
    LEDGER_COLUMNS,
    REPORT_COLUMNS,
    REPORT_SCHEMA_VERSION,
    REQUIRED_COLUMNS,
    SWEEP_AXIS_COLUMNS,
    SWEEP_POINT_COLUMNS,
    TIMESERIES_COLUMNS,
    LoadError,
    RowIssue,
    SyntheticProfile,
    _best_harvest_value,
    report_cells,
)
from deferauction.streams import SYNTHETIC_STREAM, rng_stream
from deferauction.simulation import RunOutcome, RunSummary, SupplySummary

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GRID_POINTS = 1025


class OwnerKind(Enum):
    FAUSTMANNIAN = "faustmannian"
    HARTMANIAN = "hartmanian"


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
class Bid:
    """A landowner's deferred-payment bid for one site, per hectare."""

    downpayment_c: float
    instalment_m: float
    total_revenue_r: float
    participates: bool


@dataclass(frozen=True)
class BidCapBelief:
    """Uniform common belief about the highest downpayment the buyer accepts."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.lo < self.hi:
            raise ValueError("belief support requires 0 <= lo < hi")


def belief_from_config(cfg: SchemeConfig) -> BidCapBelief:
    return BidCapBelief(lo=cfg.bid_cap_lo, hi=cfg.bid_cap_hi)


# --- site records, the per-row loader and the per-site generator ------------


@dataclass(frozen=True)
class SiteRecord:
    """One forest stand offered (or offerable) to the conservation program."""

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


_NUMBER_FIELDS = tuple(f.name for f in dataclasses.fields(SiteTable)[3:])


def site_table(records: Sequence[SiteRecord]) -> SiteTable:
    """The records as a SiteTable, in order."""
    numbers = {
        name: np.array([getattr(site, name) for site in records], dtype=float)
        for name in _NUMBER_FIELDS
    }
    return SiteTable(
        ids=[site.id for site in records],
        type_code=np.array([SITE_TYPES.index(site.site_type) for site in records], dtype=np.intp),
        broadleaf=np.array(
            [site.dominant_species is Species.BROADLEAF for site in records], dtype=bool
        ),
        **numbers,
    )


def site_records(table: SiteTable) -> list[SiteRecord]:
    """One SiteRecord per row of a SiteTable, in order."""
    numbers = [getattr(table, name).tolist() for name in _NUMBER_FIELDS]
    return [
        SiteRecord(
            site_id,
            SITE_TYPES[code],
            stand_age,
            stand_volume,
            Species.BROADLEAF if broadleaf else Species.CONIFER,
            share,
            *rest,
        )
        for site_id, code, broadleaf, stand_age, stand_volume, share, *rest in zip(
            table.ids, table.type_code.tolist(), table.broadleaf.tolist(), *numbers
        )
    ]


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


def _parse_float(raw: str) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ValueError(f"cannot parse '{raw}' as a number") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite value '{raw}'")
    return value


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


def load_sites(path: Path) -> tuple[list[SiteRecord], list[RowIssue]]:
    """The per-row loader: csv.DictReader, one _parse_row and validate_site per row."""
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


def generate_records(profile: SyntheticProfile, seed: int) -> list[SiteRecord]:
    """The per-site generator: the same draws as generate_synthetic, one record per site."""
    profile.validate()
    n = profile.n_sites
    if n == 0:
        return []
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

    sites: list[SiteRecord] = []
    for i in range(n):
        code = int(type_idx[i])
        share = float(shares[i])
        sites.append(
            SiteRecord(
                id=f"site-{i:06d}",
                site_type=SITE_TYPES[code],
                stand_age=float(ages[i]),
                stand_volume=float(volumes[i]),
                dominant_species=Species.BROADLEAF if share >= 0.5 else Species.CONIFER,
                broadleaf_share=share,
                deadwood=float(deadwood[i]),
                timber_value=float(timber_values[i]),
                opportunity_cost_v0=float(v0[i]),
                commercial_rotation_age=DEFAULT_ROTATION_AGES[code],
                area_ha=profile.area_ha,
                land_payment=profile.land_payment,
            )
        )
    return sites


# --- payments -------------------------------------------------------------


def conservation_payment(site: SiteRecord) -> float:
    """Conservation payment per hectare: stand timber value plus the fixed land payment."""
    return site.timber_value + site.land_payment


def annual_instalment(v1: float, c: float, r: float, t: int, x: int) -> float:
    """m = (1+r)^t (v1 - c) / x; a downpayment above v1 (a negative loan) raises."""
    if x < 1:
        raise ValueError("instalment count x must be >= 1")
    if c > v1:
        raise ValueError("downpayment exceeds the conservation payment (negative loan)")
    return compound_factor(r, t) * (v1 - c) / x


def total_revenue(v1: float, c: float, r: float, t: int) -> float:
    """R = c + (1+r)^t (v1 - c), the downpayment plus the loan payback with interest."""
    if c > v1:
        raise ValueError("downpayment exceeds the conservation payment (negative loan)")
    return c + compound_factor(r, t) * (v1 - c)


# --- owners and ecology ---------------------------------------------------


def amenity_value(h: float, phi: float, cfg: SchemeConfig) -> float:
    """A(h) = 1 / (1/(phi*k_max) + d0*d1^h) for one stand."""
    if h < 0:
        raise ValueError("stand age must be >= 0")
    if phi <= 0:
        raise ValueError("phi must be > 0")
    am = cfg.amenity
    return 1.0 / (1.0 / (phi * am.k_max) + am.d0 * am.d1**h)


def amenity_pair(site: SiteRecord, phi: float, cfg: SchemeConfig) -> tuple[float, float]:
    """(a0, a1): the curve at the rotation age vs. at the stand age plus the lookahead."""
    a0 = amenity_value(site.commercial_rotation_age, phi, cfg)
    a1 = amenity_value(site.stand_age + AMENITY_LOOKAHEAD_YEARS, phi, cfg)
    return a0, a1


def classify_landowner(site: SiteRecord) -> OwnerKind:
    """Hartmanian if the stand is older than its commercial rotation age, else Faustmannian."""
    if site.stand_age > site.commercial_rotation_age:
        return OwnerKind.HARTMANIAN
    return OwnerKind.FAUSTMANNIAN


def make_owner(site: SiteRecord, phi: float, cfg: SchemeConfig) -> LandownerProfile:
    """The landowner profile of a site, using phi only for Hartmanian owners."""
    kind = classify_landowner(site)
    if kind is OwnerKind.FAUSTMANNIAN:
        return LandownerProfile(kind=kind)
    a0, a1 = amenity_pair(site, phi, cfg)
    return LandownerProfile(kind=kind, phi=phi, a0=a0, a1=a1)


def draw_phi(rng: np.random.Generator, params: AmenityParams) -> float:
    """One preference-scale draw, normal with the lower tail truncated by resampling."""
    while True:
        value = float(rng.normal(params.phi_mean, params.phi_sd))
        if value >= params.phi_min:
            return value


def elite_index(site: SiteRecord, table: EliteTable = DEFAULT_ELITE_TABLE) -> float:
    """Product of 1 - weight * (1 - min(current/reference, 1)) over the applicable components."""
    components = table.for_site_type(site.site_type)
    if not components:
        raise EliteDataError(f"no components apply to site type {site.site_type.value}")
    index = 1.0
    for comp in components:
        if comp.name not in COMPONENT_SOURCES:
            raise EliteDataError(
                f"missing component data: site records carry no observation for '{comp.name}'"
            )
        ratio = min(getattr(site, comp.name) / comp.reference, 1.0)
        index *= 1.0 - comp.weight * (1.0 - ratio)
    return index


# Minimum stand age qualifying as old growth, by (site type, dominant species).
OLD_GROWTH_THRESHOLDS: dict[SiteType, dict[Species, float]] = {
    SiteType.HERB_RICH: {Species.BROADLEAF: 70.0, Species.CONIFER: 100.0},
    SiteType.HERB_RICH_HEATH: {Species.BROADLEAF: 80.0, Species.CONIFER: 100.0},
    SiteType.MESIC_HEATH: {Species.BROADLEAF: 80.0, Species.CONIFER: 120.0},
    SiteType.SUB_XERIC_HEATH: {Species.BROADLEAF: 140.0, Species.CONIFER: 140.0},
    SiteType.XERIC_HEATH: {Species.BROADLEAF: 140.0, Species.CONIFER: 140.0},
    SiteType.BARREN_HEATH: {Species.BROADLEAF: 140.0, Species.CONIFER: 140.0},
}


def is_old_growth(site: SiteRecord) -> bool:
    """Whether the stand meets the old-growth age threshold for its type and species."""
    threshold = OLD_GROWTH_THRESHOLDS[site.site_type][site.dominant_species]
    return site.stand_age >= threshold


# --- bids -----------------------------------------------------------------


def acceptance_probability(c: float, belief: BidCapBelief) -> float:
    """Probability a bid c is accepted: the belief-weight above c."""
    if c <= belief.lo:
        return 1.0
    if c >= belief.hi:
        return 0.0
    return (belief.hi - c) / (belief.hi - belief.lo)


def bid_objective(
    c: float, site: SiteRecord, owner: LandownerProfile, cfg: SchemeConfig
) -> float:
    """Bid surplus [c + (1+r)^t (v1 - c)/x - v0 + (a1 - a0)] * acceptance probability."""
    v1 = conservation_payment(site)
    factor = compound_factor(cfg.interest_rate_r, cfg.lending_period_t)
    instalment = factor * (v1 - c) / cfg.instalment_count_x
    bracket = c + instalment - site.opportunity_cost_v0 + owner.amenity_gain
    return bracket * acceptance_probability(c, belief_from_config(cfg))


def optimal_downpayment_value(
    site: SiteRecord, owner: LandownerProfile, cfg: SchemeConfig
) -> float:
    """c* = hi/2 + [v0 - v1 (1+r)^t / x - (a1 - a0)] / (2 omega), clamped at zero."""
    v1 = conservation_payment(site)
    v0 = site.opportunity_cost_v0
    belief = belief_from_config(cfg)
    factor = compound_factor(cfg.interest_rate_r, cfg.lending_period_t)
    cost_term = v0 - v1 * factor / cfg.instalment_count_x - owner.amenity_gain
    c_star = belief.hi / 2.0 + cost_term / (2.0 * omega(cfg))
    return max(0.0, c_star)


def participates(
    bid: Bid, site: SiteRecord, owner: LandownerProfile, cfg: SchemeConfig
) -> bool:
    """c plus the instalments discounted at the landowner rate beat v0 - (a1 - a0)."""
    v1 = conservation_payment(site)
    if bid.downpayment_c > v1:
        return False
    lhs = bid.downpayment_c + discounted_instalment_sum(
        bid.instalment_m, cfg.lending_period_t, cfg.landowner_discount_rate
    )
    return lhs > site.opportunity_cost_v0 - owner.amenity_gain


def optimal_downpayment(site: SiteRecord, owner: LandownerProfile, cfg: SchemeConfig) -> Bid:
    """Optimal bid with its instalment, total revenue, and participation flag."""
    v1 = conservation_payment(site)
    c_star = optimal_downpayment_value(site, owner, cfg)
    if c_star > v1:
        return Bid(downpayment_c=c_star, instalment_m=0.0, total_revenue_r=c_star, participates=False)
    m = annual_instalment(
        v1, c_star, cfg.interest_rate_r, cfg.lending_period_t, cfg.instalment_count_x
    )
    revenue = total_revenue(v1, c_star, cfg.interest_rate_r, cfg.lending_period_t)
    bid = Bid(downpayment_c=c_star, instalment_m=m, total_revenue_r=revenue, participates=False)
    return replace(bid, participates=participates(bid, site, owner, cfg))


def optimal_downpayment_numeric(
    site: SiteRecord,
    owner: LandownerProfile,
    cfg: SchemeConfig,
    grid_step: float = 0.01,
) -> float:
    """Numeric argmax of the bid surplus over [0, belief hi].

    Coarse grid search localizes the (unimodal) maximum, then golden-section
    refinement narrows the bracket below grid_step, so the result is within
    grid_step/2 of the true maximizer. It evaluates the same uniform-belief
    objective (bid_objective under BidCapBelief), so it does not cover
    non-uniform beliefs.
    """
    if grid_step <= 0:
        raise ValueError("grid_step must be > 0")
    hi = belief_from_config(cfg).hi

    def objective(c: float) -> float:
        return bid_objective(c, site, owner, cfg)

    grid = np.linspace(0.0, hi, _GRID_POINTS)
    values = [objective(c) for c in grid]
    best = int(np.argmax(values))
    a = float(grid[max(best - 1, 0)])
    b = float(grid[min(best + 1, _GRID_POINTS - 1)])
    # Golden-section: keeps the argmax bracketed while the interval shrinks.
    c1 = b - _INV_GOLDEN * (b - a)
    c2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = objective(c1), objective(c2)
    while b - a > grid_step:
        if f1 >= f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - _INV_GOLDEN * (b - a)
            f1 = objective(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + _INV_GOLDEN * (b - a)
            f2 = objective(c2)
    return (a + b) / 2.0


def upfront_bid(site: SiteRecord, owner: LandownerProfile, cap_hi: float) -> float:
    """v1 plus the premium b* = cap_hi/2 + [(v0 - v1) - (a1 - a0)]/2, clamped at zero."""
    if cap_hi <= 0:
        raise ValueError("cap_hi must be > 0")
    v1 = conservation_payment(site)
    v0 = site.opportunity_cost_v0
    premium = cap_hi / 2.0 + ((v0 - v1) - owner.amenity_gain) / 2.0
    return v1 + max(0.0, premium)


def upfront_participates(payment: float, site: SiteRecord, owner: LandownerProfile) -> bool:
    """Up-front participation: the one-time payment beats the forgone value."""
    return payment > site.opportunity_cost_v0 - owner.amenity_gain


# --- the per-offer engine ---------------------------------------------------


@dataclass(frozen=True, slots=True)
class Offer:
    """One participating landowner's standing offer; the outlay is paid at conservation."""

    site: SiteRecord
    mechanism: Mechanism
    elite: float
    downpayment_per_ha: float
    instalment_per_ha: float
    total_payment_npv_per_ha: float

    @property
    def area_ha(self) -> float:
        return self.site.area_ha

    @property
    def cost(self) -> float:
        return self.downpayment_per_ha * self.site.area_ha

    @property
    def benefit(self) -> float:
        return self.elite * self.site.area_ha


def offers(
    dataset: list[SiteRecord],
    cfg: SchemeConfig,
    mechanism: Mechanism,
    rng: np.random.Generator,
    elite_table: EliteTable = DEFAULT_ELITE_TABLE,
) -> list[Offer]:
    """The offer of each participating site, in dataset order.

    One phi draw per Hartmanian site in dataset order.
    """
    instalment_pv = annuity_factor(cfg.instalment_count_x, cfg.discount_rate)
    out = []
    for site in dataset:
        kind = classify_landowner(site)
        phi = draw_phi(rng, cfg.amenity) if kind is OwnerKind.HARTMANIAN else 1.0
        owner = make_owner(site, phi, cfg)
        elite = elite_index(site, elite_table)
        if mechanism is Mechanism.DEFERRED:
            bid = optimal_downpayment(site, owner, cfg)
            if not bid.participates:
                continue
            outlay, instalment = bid.downpayment_c, bid.instalment_m
            total_npv = outlay + instalment * instalment_pv
        else:
            outlay = upfront_bid(site, owner, cfg.upfront_cap_hi)
            if not upfront_participates(outlay, site, owner):
                continue
            instalment, total_npv = 0.0, outlay
        out.append(Offer(site, mechanism, elite, outlay, instalment, total_npv))
    return out


def rank_benefit_cost(offers: list[Offer]) -> list[Offer]:
    """Benefit per euro descending, then cheaper first, then by site id."""

    def sort_key(offer: Offer):
        if offer.cost > 0:
            ratio = offer.benefit / offer.cost
        else:
            ratio = math.inf if offer.benefit > 0 else 0.0
        return (-ratio, offer.cost, offer.site.id)

    return sorted(offers, key=sort_key)


def select_old_growth(offers: list[Offer]) -> list[Offer]:
    return [offer for offer in offers if is_old_growth(offer.site)]


@dataclass(frozen=True)
class Outcome:
    """Site id to year of conservation or loss, in the order decided; spending; accounting."""

    conserved_year: dict[str, int]
    harvested_year: dict[str, int]
    spending: list[float]
    summary: RunSummary


def fold(values) -> float:
    """`values` added one at a time from 0.0: Python 3.11's `sum` of floats, on every Python."""
    total = 0.0
    for value in values:
        total += value
    return total


def run_deferred(
    cfg: SchemeConfig, initial_budget: float, ranking: list[Offer], schedule: dict[str, int]
) -> Outcome:
    """Skip-and-continue funding at year 0; sites cut at year 0 are unavailable."""
    remaining = initial_budget
    conserved: dict[str, int] = {}
    instalment_per_year = 0.0
    spent = 0.0
    for offer in ranking:
        if schedule.get(offer.site.id) == 0:
            continue
        if offer.cost <= remaining:
            remaining -= offer.cost
            spent += offer.cost
            conserved[offer.site.id] = 0
            instalment_per_year += offer.instalment_per_ha * offer.area_ha
    spending = [spent]
    if instalment_per_year > 0:
        spending += [instalment_per_year] * cfg.instalment_count_x
    summary = account(Mechanism.DEFERRED, initial_budget, ranking, conserved, {}, spending, cfg)
    return Outcome(conserved, {}, spending, summary)


def run_upfront(
    cfg: SchemeConfig, annual_budget: float, ranking: list[Offer], schedule: dict[str, int]
) -> Outcome:
    """Each year: unconserved stands due for harvest are lost, then the budget funds the rest."""
    pending = list(ranking)
    conserved: dict[str, int] = {}
    harvested: dict[str, int] = {}
    spending: list[float] = []
    for year in range(cfg.horizon):
        available: list[Offer] = []
        for offer in pending:
            harvest_year = schedule.get(offer.site.id)
            if harvest_year is not None and harvest_year <= year:
                harvested[offer.site.id] = harvest_year
            else:
                available.append(offer)
        remaining = annual_budget
        spent = 0.0
        leftover: list[Offer] = []
        for offer in available:
            if offer.cost <= remaining:
                remaining -= offer.cost
                spent += offer.cost
                conserved[offer.site.id] = year
            else:
                leftover.append(offer)
        spending.append(spent)
        pending = leftover
    summary = account(
        Mechanism.UPFRONT, annual_budget, ranking, conserved, harvested, spending, cfg
    )
    return Outcome(conserved, harvested, spending, summary)


def _per_ha_average(pairs: list[tuple[float, float]]) -> float:
    total_area = fold(area for _, area in pairs)
    if total_area == 0:
        return 0.0
    return fold(value * area for value, area in pairs) / total_area


def account(
    mechanism: Mechanism,
    budget: float,
    offers: list[Offer],
    conserved_year: dict[str, int],
    harvested_year: dict[str, int],
    spending: list[float],
    cfg: SchemeConfig,
) -> RunSummary:
    """Benefits at conservation, lost benefits at harvest, averages over conserved sites."""
    by_id = {offer.site.id: offer for offer in offers}
    conserved = [(by_id[sid], year) for sid, year in conserved_year.items()]
    lost = [(by_id[sid], year) for sid, year in harvested_year.items()]
    delta = cfg.discount_rate
    benefits = fold(
        cfg.benefit_per_ha * o.area_ha * (1.0 + delta) ** (-year) for o, year in conserved
    )
    lost_total = fold(
        cfg.benefit_per_ha * o.area_ha * (1.0 + delta) ** (-year) for o, year in lost
    )
    lost_benefits = -lost_total if lost_total > 0 else 0.0
    if mechanism is Mechanism.DEFERRED:
        instalment_cost = fold(o.instalment_per_ha * o.area_ha for o, _ in conserved)
    else:
        instalment_cost = 0.0
    supply = summarize_supply([o for o, _ in conserved])
    return RunSummary(
        area_ha=supply.area_ha,
        sites_conserved=supply.sites,
        bd_index_sum=supply.bd_index_sum,
        avg_stand_age=supply.avg_stand_age,
        avg_downpayment=supply.avg_downpayment,
        avg_instalment=supply.avg_instalment,
        avg_total_payment_npv=supply.avg_total_payment_npv,
        harvested_area_ha=fold(o.area_ha for o, _ in lost),
        instalment_cost_per_year=instalment_cost,
        budget=budget,
        costs_npv=fold(a * (1.0 + delta) ** (-y) for y, a in enumerate(spending)),
        costs_absolute=fold(spending),
        benefits_npv=benefits,
        lost_benefits=lost_benefits,
        ex_post_net_benefits=benefits + lost_benefits,
    )


def summarize_supply(offers: list[Offer]) -> SupplySummary:
    return SupplySummary(
        sites=len(offers),
        area_ha=fold(o.area_ha for o in offers),
        bd_index_sum=fold(o.elite * o.area_ha for o in offers),
        avg_stand_age=_per_ha_average([(o.site.stand_age, o.area_ha) for o in offers]),
        avg_downpayment=_per_ha_average([(o.downpayment_per_ha, o.area_ha) for o in offers]),
        avg_instalment=_per_ha_average([(o.instalment_per_ha, o.area_ha) for o in offers]),
        avg_total_payment_npv=_per_ha_average(
            [(o.total_payment_npv_per_ha, o.area_ha) for o in offers]
        ),
    )


def harvest_schedule(
    dataset: list[SiteRecord], cfg: SchemeConfig, rng: np.random.Generator
) -> dict[str, int]:
    """Site id to harvest year: one rng.integers(first year, window) draw per eligible site."""
    years: dict[str, int] = {}
    for site in dataset:
        first_year = max(0, math.ceil(site.commercial_rotation_age - site.stand_age))
        if first_year < cfg.harvest_window:
            years[site.id] = int(rng.integers(first_year, cfg.harvest_window))
    return years


# --- the row-wise report writer ---------------------------------------------


def timeseries(outcome: RunOutcome, cfg: SchemeConfig) -> list[dict[str, object]]:
    n_years = max(cfg.horizon, len(outcome.spending))
    area = outcome.offers.area.tolist()
    conserved = [0.0] * n_years
    lost = [0.0] * n_years
    for row, year in outcome.conserved_year.items():
        conserved[year] += area[row]
    for row, year in outcome.harvested_year.items():
        lost[year] += area[row]
    spending = outcome.spending + [0.0] * (n_years - len(outcome.spending))
    rows = []
    cum_cost = 0.0
    cum_area = 0.0
    for year in range(n_years):
        cum_cost += spending[year]
        cum_area += conserved[year]
        values = (year, spending[year], cum_cost, conserved[year], cum_area, lost[year])
        rows.append(dict(zip(TIMESERIES_COLUMNS, values)))
    return rows


def site_ledger(outcome: RunOutcome) -> list[dict[str, object]]:
    """LEDGER_COLUMNS rows, one dict per offer, by site id; area and age from the site records."""
    offers = outcome.offers
    order = np.argsort(offers.columns.id_rank[offers.site])
    ledger = offers.take(order)
    paid = (ledger.downpayment_per_ha, ledger.instalment_per_ha, ledger.total_payment_npv_per_ha)
    rows = []
    sites = site_records(offers.columns.sites)
    numbers = (c.tolist() for c in (ledger.elite, *paid))
    conserved_year, harvested_year = outcome.conserved_year, outcome.harvested_year
    for row, index, *cells in zip(order, ledger.site, *numbers):
        site = sites[index]
        if row in conserved_year:
            status, year = "conserved", conserved_year[row]
        elif row in harvested_year:
            status, year = "lost", harvested_year[row]
        else:
            status, year = "unfunded", ""
        values = (site.id, status, year, site.area_ha, *cells)
        rows.append(dict(zip(LEDGER_COLUMNS, values + (site.stand_age, site.site_type.value))))
    return rows


def _round_cell(value: object) -> object:
    if isinstance(value, float):
        return f"{value:.2f}"
    return value


def write_csv(path: Path, header: Sequence[str], rows: list[dict[str, object]]) -> None:
    """One line per row, ended by "\\n", a cell quoted if it holds `,`, `"`, `\\n` or `\\r`.

    csv.writer quotes a cell holding a character of its line terminator, so
    each line is written with "\\r\\n" and its "\\r" then dropped.
    """
    lines = io.StringIO()
    writer = csv.writer(lines, lineterminator="\r\n")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for cells in [header] + [[_round_cell(row.get(c, "")) for c in header] for row in rows]:
            lines.seek(0)
            lines.truncate()
            writer.writerow(cells)
            fh.write(lines.getvalue()[:-2] + "\n")


def write_report(
    outcomes: list[RunOutcome],
    supplies: dict[Mechanism, SupplySummary],
    cfg: SchemeConfig,
    out_dir: Path,
    fmt: str = "both",
) -> list[Path]:
    """The files of dataio.write_report, written row by row and through json.dump."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    reports = [
        (outcome, supplies.get(outcome.mechanism), timeseries(outcome, cfg)) for outcome in outcomes
    ]
    if fmt in ("csv", "both"):
        rows = [
            {"mechanism": outcome.mechanism.value, **report_cells(outcome, supply)}
            for outcome, supply, _ in reports
        ]
        write_csv(out_dir / "summary.csv", ("mechanism",) + REPORT_COLUMNS, rows)
        written.append(out_dir / "summary.csv")
    for outcome, _, series in reports:
        mech = outcome.mechanism.value
        if fmt in ("csv", "both"):
            write_csv(out_dir / f"timeseries_{mech}.csv", TIMESERIES_COLUMNS, series)
            written.append(out_dir / f"timeseries_{mech}.csv")
        write_csv(out_dir / f"sites_{mech}.csv", LEDGER_COLUMNS, site_ledger(outcome))
        written.append(out_dir / f"sites_{mech}.csv")
    if fmt in ("json", "both"):
        runs = [
            {
                "mechanism": outcome.mechanism.value,
                "summary": dataclasses.asdict(outcome.summary),
                "supply": dataclasses.asdict(supply) if supply else None,
                "timeseries": series,
            }
            for outcome, supply, series in reports
        ]
        with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
            payload = {"schema_version": REPORT_SCHEMA_VERSION, "runs": runs}
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(out_dir / "summary.json")
    return written


def write_sweep(path: Path, mechanisms: Sequence[Mechanism], rows: list[dict[str, object]]) -> None:
    columns = SWEEP_POINT_COLUMNS + tuple(
        f"{mechanism.value}_{name}" for mechanism in mechanisms for name in REPORT_COLUMNS
    )
    exact = [{**row, **{name: str(row[name]) for name in SWEEP_AXIS_COLUMNS}} for row in rows]
    write_csv(path, columns, exact)
