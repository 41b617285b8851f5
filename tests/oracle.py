"""Scalar reference implementations of the per-site formulas.

The package computes owner types, amenity gains, habitat indices, bids,
participation and harvest years as array operations over per-site columns.
This module keeps the one-site-at-a-time versions they replaced, plus a
numeric optimizer of the bid surplus, so that tests can check the closed
forms by hand and the column path against these scalars bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from deferauction.bidding import omega
from deferauction.ecology import (
    AMENITY_LOOKAHEAD_YEARS,
    COMPONENT_SOURCES,
    DEFAULT_ELITE_TABLE,
    EliteDataError,
    EliteTable,
)
from deferauction.finance import annuity_factor, compound_factor, discounted_instalment_sum
from deferauction.model import AmenityParams, Mechanism, SchemeConfig, SiteRecord

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


# --- the per-site engine loops ----------------------------------------------


def offers(
    dataset: list[SiteRecord],
    cfg: SchemeConfig,
    mechanism: Mechanism,
    rng: np.random.Generator,
    elite_table: EliteTable = DEFAULT_ELITE_TABLE,
) -> list[tuple]:
    """The Offer fields of each participating site, in dataset order.

    (site, mechanism, elite, outlay, instalment, total NPV); one phi draw per
    Hartmanian site in dataset order.
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
        out.append((site, mechanism, elite, outlay, instalment, total_npv))
    return out


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
