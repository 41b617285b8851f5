"""Landowner bidding behavior in the downpayment auction and its up-front counterpart.

A landowner asked to lend the balance of the conservation payment chooses the
downpayment bid c. Raising c brings money forward but lowers the chance the
bid is accepted under the common belief about the highest acceptable bid.

Every function here works on per-site columns (numpy arrays in dataset order)
and keeps the operation order of the scalar formulas, so each element equals
the scalar result bit for bit.
"""
from __future__ import annotations

import numpy as np

from .finance import compound_factor, discounted_instalment_sum
from .model import AmenityParams, SchemeConfig, omega


def optimal_downpayment(
    v1: np.ndarray, v0: np.ndarray, amenity_gain: np.ndarray, cfg: SchemeConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Optimal downpayment bids, their annual instalments, and who participates.

    c* = hi/2 + [v0 - v1 (1+r)^t / x - (a1 - a0)] / (2 omega), clamped below at
    lo, is the optimal bid under a uniform belief on [lo, hi] about the highest
    acceptable downpayment (Latacz-Lohmann & Van der Hamsvoort 1997, "Auctioning
    conservation contracts: a theoretical analysis and an application",
    American Journal of Agricultural Economics 79(2)). The instalment is
    m = (1+r)^t (v1 - c) / x. An owner participates when c plus the
    instalments over the lending period, discounted at the landowner rate,
    beat the forgone value v0 - (a1 - a0). A bid above v1 would imply a
    negative loan: it carries no instalment and never participates.
    """
    factor = compound_factor(cfg.interest_rate_r, cfg.lending_period_t)
    x = cfg.instalment_count_x
    c_star = cfg.bid_cap_hi / 2.0 + (v0 - v1 * factor / x - amenity_gain) / (2.0 * omega(cfg))
    c = np.where(c_star > cfg.bid_cap_lo, c_star, cfg.bid_cap_lo)
    lends = c <= v1
    m = np.where(lends, factor * (v1 - c) / x, 0.0)
    received = c + discounted_instalment_sum(m, cfg.lending_period_t, cfg.landowner_discount_rate)
    return c, m, lends & (received > v0 - amenity_gain)


def upfront_bid(
    v1: np.ndarray, v0: np.ndarray, amenity_gain: np.ndarray, cap_hi: float
) -> tuple[np.ndarray, np.ndarray]:
    """Total payments requested in the up-front auction, and who participates.

    The payment is v1 plus the premium b* = cap_hi/2 + [(v0 - v1) - (a1 - a0)]/2,
    the optimal bid under a uniform belief on [0, cap_hi] about the highest
    acceptable premium, clamped below at zero. An owner participates when the
    one-time payment beats the forgone value v0 - (a1 - a0).
    """
    premium = cap_hi / 2.0 + ((v0 - v1) - amenity_gain) / 2.0
    payment = v1 + np.where(premium > 0.0, premium, 0.0)
    return payment, payment > v0 - amenity_gain


def draw_phi(rng: np.random.Generator, params: AmenityParams, k: int) -> np.ndarray:
    """k preference-scale draws, normal with the lower tail truncated by resampling.

    Normal draws below phi_min are dropped and the shortfall is drawn again, so
    the result is the first k kept values of the stream: the same values as k
    one-at-a-time rejection draws.
    """
    kept = np.empty(0)
    while len(kept) < k:
        batch = rng.normal(params.phi_mean, params.phi_sd, size=k - len(kept))
        kept = np.concatenate([kept, batch[batch >= params.phi_min]])
    return kept
