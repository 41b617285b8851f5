"""Landowner bidding behavior in the downpayment auction and its up-front counterpart.

A landowner asked to lend the balance of the conservation payment chooses the
downpayment bid c. Raising c brings money forward but lowers the chance the
bid is accepted under the common belief about the highest acceptable bid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .finance import annual_instalment, compound_factor, discounted_instalment_sum, total_revenue
from .model import (
    AmenityParams,
    Bid,
    LandownerProfile,
    SchemeConfig,
    SiteRecord,
    conservation_payment,
)

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GRID_POINTS = 1025


@dataclass(frozen=True)
class BidCapBelief:
    """Uniform common belief about the highest downpayment the buyer accepts.

    The uniform bid-cap belief and the resulting optimal-bid rule follow
    Latacz-Lohmann & Van der Hamsvoort (1997), "Auctioning conservation
    contracts: a theoretical analysis and an application", American Journal of
    Agricultural Economics 79(2).
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.lo < self.hi:
            raise ValueError("belief support requires 0 <= lo < hi")


def belief_from_config(cfg: SchemeConfig) -> BidCapBelief:
    return BidCapBelief(lo=cfg.bid_cap_lo, hi=cfg.bid_cap_hi)


def omega(cfg: SchemeConfig) -> float:
    """Marginal payoff of raising the downpayment: 1 - (1+r)^t / x.

    Positive and below one for every valid config; shrinks toward zero as the
    interest earning on the loan grows.
    """
    return 1.0 - compound_factor(cfg.interest_rate_r, cfg.lending_period_t) / cfg.instalment_count_x


def acceptance_probability(c: float, belief: BidCapBelief) -> float:
    """Probability a bid c is accepted: the belief-weight above c."""
    if c <= belief.lo:
        return 1.0
    if c >= belief.hi:
        return 0.0
    return (belief.hi - c) / (belief.hi - belief.lo)


def _instalment_term(c: float, v1: float, cfg: SchemeConfig) -> float:
    """One year's instalment on the loan (v1 - c), the payoff's per-period cash term."""
    factor = compound_factor(cfg.interest_rate_r, cfg.lending_period_t)
    return factor * (v1 - c) / cfg.instalment_count_x


def bid_objective(
    c: float, site: SiteRecord, owner: LandownerProfile, cfg: SchemeConfig
) -> float:
    """Bid surplus maximized by the optimal downpayment.

    [c + (1+r)^t (v1 - c)/x - v0 + (a1 - a0)] * acceptance probability: cash
    received if the bid wins, net of the forgone harvest value. The
    first-order condition, and hence the closed-form bid, follows this form.
    """
    v1 = conservation_payment(site)
    v0 = site.opportunity_cost_v0
    bracket = c + _instalment_term(c, v1, cfg) - v0 + owner.amenity_gain
    return bracket * acceptance_probability(c, belief_from_config(cfg))


def optimal_downpayment_value(
    site: SiteRecord, owner: LandownerProfile, cfg: SchemeConfig
) -> float:
    """Closed-form optimal downpayment under the uniform belief, clamped at zero.

    c* = hi/2 + [v0 - v1 (1+r)^t / x - (a1 - a0)] / (2 omega). A negative
    solution clamps to 0: such an owner takes the pure instalment stream.
    """
    v1 = conservation_payment(site)
    v0 = site.opportunity_cost_v0
    belief = belief_from_config(cfg)
    factor = compound_factor(cfg.interest_rate_r, cfg.lending_period_t)
    cost_term = v0 - v1 * factor / cfg.instalment_count_x - owner.amenity_gain
    c_star = belief.hi / 2.0 + cost_term / (2.0 * omega(cfg))
    return max(0.0, c_star)


def optimal_downpayment(site: SiteRecord, owner: LandownerProfile, cfg: SchemeConfig) -> Bid:
    """Optimal bid with its instalment, total revenue, and participation flag.

    Bids above the belief cap are retained (they simply never win); bids above
    the conservation payment itself would imply a negative loan, so they carry
    no instalment and never participate.
    """
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
    grid_step/2 of the true maximizer. Serves as the independent check of the
    closed form. It evaluates the same uniform-belief objective (bid_objective
    under BidCapBelief), so it does not cover non-uniform beliefs.
    """
    if grid_step <= 0:
        raise ValueError("grid_step must be > 0")
    hi = belief_from_config(cfg).hi

    def objective(c: float) -> float:
        return bid_objective(c, site, owner, cfg)

    grid = np.linspace(0.0, hi, _GRID_POINTS)
    values = [objective(c) for c in grid]
    best = int(np.argmax(values))
    lo_edge = grid[max(best - 1, 0)]
    hi_edge = grid[min(best + 1, _GRID_POINTS - 1)]
    a, b = float(lo_edge), float(hi_edge)
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


def participates(
    bid: Bid, site: SiteRecord, owner: LandownerProfile, cfg: SchemeConfig
) -> bool:
    """Participation constraint for a deferred-payment bid.

    True when the downpayment plus the discounted instalments over the lending
    period beat the forgone value v0 - (a1 - a0). A bid above the conservation
    payment never participates (the implied loan would be negative).
    """
    v1 = conservation_payment(site)
    if bid.downpayment_c > v1:
        return False
    lhs = bid.downpayment_c + discounted_instalment_sum(
        bid.instalment_m, cfg.lending_period_t, cfg.landowner_discount_rate
    )
    return lhs > site.opportunity_cost_v0 - owner.amenity_gain


def upfront_bid(site: SiteRecord, owner: LandownerProfile, cap_hi: float) -> float:
    """Total payment requested in the up-front auction: v1 plus the premium bid.

    The premium b* = cap_hi/2 + [(v0 - v1) - (a1 - a0)]/2 is the optimal bid
    under a uniform belief on [0, cap_hi] about the highest acceptable
    premium, clamped below at zero.
    """
    if cap_hi <= 0:
        raise ValueError("cap_hi must be > 0")
    v1 = conservation_payment(site)
    v0 = site.opportunity_cost_v0
    premium = cap_hi / 2.0 + ((v0 - v1) - owner.amenity_gain) / 2.0
    return v1 + max(0.0, premium)


def upfront_participates(payment: float, site: SiteRecord, owner: LandownerProfile) -> bool:
    """Up-front participation: the one-time payment beats the forgone value."""
    return payment > site.opportunity_cost_v0 - owner.amenity_gain


def draw_phi(rng: np.random.Generator, params: AmenityParams) -> float:
    """One preference-scale draw, normal with the lower tail truncated by resampling."""
    while True:
        value = float(rng.normal(params.phi_mean, params.phi_sd))
        if value >= params.phi_min:
            return value
