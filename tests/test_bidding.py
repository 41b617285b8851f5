import dataclasses
import math

import numpy as np
import pytest

from conftest import make_site
from deferauction import bidding
from deferauction.bidding import omega
from deferauction.model import AmenityParams, SchemeConfig
from oracle import (
    FAUSTMANNIAN,
    Bid,
    BidCapBelief,
    LandownerProfile,
    OwnerKind,
    acceptance_probability,
    bid_objective,
    draw_phi,
    optimal_downpayment,
    optimal_downpayment_numeric,
    optimal_downpayment_value,
    participates,
    upfront_bid,
    upfront_participates,
)

HARTMANIAN_2000 = LandownerProfile(kind=OwnerKind.HARTMANIAN, phi=1.0, a0=1_000.0, a1=3_000.0)


def compound_oracle(r, t):
    f = 1.0
    for _ in range(t):
        f *= 1.0 + r
    return f


def closed_form_oracle(v1, v0, amenity_gain, cfg):
    factor = compound_oracle(cfg.interest_rate_r, cfg.lending_period_t)
    om = 1.0 - factor / cfg.instalment_count_x
    return cfg.bid_cap_hi / 2.0 + (v0 - v1 * factor / cfg.instalment_count_x - amenity_gain) / (2.0 * om)


def example_site(v0=6_000.0):
    # conservation payment 7_000 = 6_600 timber + 400 land
    return make_site(timber_value=6_600.0, opportunity_cost_v0=v0)


class TestOmega:
    def test_three_percent(self, base_config):
        expected = 1.0 - compound_oracle(0.03, 10) / 10  # 0.8656083620655878
        assert omega(base_config) == pytest.approx(expected, abs=1e-12)
        assert omega(base_config) == pytest.approx(0.865608, abs=1e-6)

    def test_zero_rate(self):
        assert omega(SchemeConfig(interest_rate_r=0.0)) == pytest.approx(0.9)

    def test_two_percent(self):
        cfg = SchemeConfig(interest_rate_r=0.02)
        expected = 1.0 - compound_oracle(0.02, 10) / 10  # 0.8781005580005242
        assert omega(cfg) == pytest.approx(expected, abs=1e-12)


class TestAcceptanceProbability:
    def test_at_support_ends(self):
        belief = BidCapBelief(0.0, 8_000.0)
        assert acceptance_probability(0.0, belief) == 1.0
        assert acceptance_probability(8_000.0, belief) == 0.0

    def test_midpoint(self):
        assert acceptance_probability(4_000.0, BidCapBelief(0.0, 8_000.0)) == 0.5

    def test_nonincreasing_with_full_range(self):
        belief = BidCapBelief(500.0, 9_000.0)
        grid = np.linspace(-100.0, 10_000.0, 400)
        values = [acceptance_probability(float(c), belief) for c in grid]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        assert max(values) == 1.0 and min(values) == 0.0

    def test_rejects_bad_support(self):
        with pytest.raises(ValueError):
            BidCapBelief(5.0, 5.0)


class TestOptimalDownpayment:
    def test_faustmannian_closed_form(self, base_config):
        expected = closed_form_oracle(7_000, 6_000, 0.0, base_config)  # 6_922.3716
        bid = optimal_downpayment(example_site(), FAUSTMANNIAN, base_config)
        assert bid.downpayment_c == pytest.approx(expected, abs=1e-9)
        assert bid.downpayment_c == pytest.approx(6_922.37, abs=0.05)

    def test_hartmanian_closed_form(self, base_config):
        expected = closed_form_oracle(7_000, 6_000, 2_000.0, base_config)  # 5_767.1147
        bid = optimal_downpayment(example_site(), HARTMANIAN_2000, base_config)
        assert bid.downpayment_c == pytest.approx(expected, abs=1e-9)
        assert bid.downpayment_c == pytest.approx(5_767.11, abs=0.05)

    def test_cost_term_vanishes_at_half_cap(self, base_config):
        factor = compound_oracle(0.03, 10)
        v1 = 7_000.0
        site = make_site(timber_value=6_600.0, opportunity_cost_v0=v1 * factor / 10)
        bid = optimal_downpayment(site, FAUSTMANNIAN, base_config)
        assert bid.downpayment_c == pytest.approx(base_config.bid_cap_hi / 2, abs=1e-9)

    def test_negative_solution_clamps_to_zero(self, base_config):
        rich_amenity = LandownerProfile(kind=OwnerKind.HARTMANIAN, phi=1.0, a0=0.0, a1=20_000.0)
        bid = optimal_downpayment(example_site(v0=500.0), rich_amenity, base_config)
        assert bid.downpayment_c == 0.0
        assert bid.instalment_m > 0

    def test_solution_below_the_belief_floor_clamps_to_lo(self):
        # c* = 1 034.23 < lo: every bid up to lo is accepted, so the surplus rises to lo
        cfg = SchemeConfig(bid_cap_lo=1_500.0, bid_cap_hi=2_000.0)
        site = example_site(v0=3_000.0)
        numeric = optimal_downpayment_numeric(site, HARTMANIAN_2000, cfg, 0.01)
        assert numeric == pytest.approx(1_500.0, abs=0.05)
        assert optimal_downpayment(site, HARTMANIAN_2000, cfg).downpayment_c == 1_500.0
        c, _, _ = bidding.optimal_downpayment(
            np.array([7_000.0]), np.array([3_000.0]), np.array([2_000.0]), cfg
        )
        assert c.tolist() == [1_500.0]

    def test_bid_above_payment_never_participates(self, base_config):
        bid = optimal_downpayment(example_site(v0=25_000.0), FAUSTMANNIAN, base_config)
        assert bid.downpayment_c > 7_000.0
        assert bid.instalment_m == 0.0
        assert not bid.participates

    def test_bid_carries_instalment_and_revenue(self, base_config):
        bid = optimal_downpayment(example_site(), FAUSTMANNIAN, base_config)
        factor = compound_oracle(0.03, 10)
        assert bid.instalment_m == pytest.approx(factor * (7_000 - bid.downpayment_c) / 10)
        assert bid.total_revenue_r == pytest.approx(
            bid.downpayment_c + factor * (7_000 - bid.downpayment_c)
        )


class TestNumericOptimum:
    def test_matches_closed_form_on_worked_example(self, base_config):
        numeric = optimal_downpayment_numeric(example_site(), FAUSTMANNIAN, base_config, 0.01)
        assert numeric == pytest.approx(6_922.37, abs=0.05)

    def test_huge_cap_stays_finite(self):
        cfg = SchemeConfig(bid_cap_hi=1e9)
        numeric = optimal_downpayment_numeric(example_site(), FAUSTMANNIAN, cfg, 1.0)
        assert math.isfinite(numeric)

    def test_degenerate_surplus_pushes_to_cap(self, base_config):
        # negative surplus for every bid: the argmax sits where acceptance dies
        site = example_site(v0=60_000.0)
        numeric = optimal_downpayment_numeric(site, FAUSTMANNIAN, base_config, 0.01)
        assert numeric == pytest.approx(base_config.bid_cap_hi, abs=0.05)
        assert bid_objective(numeric / 2, site, FAUSTMANNIAN, base_config) < 0

    def test_oracle_equivalence_on_random_interior_instances(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 200:
            cfg = SchemeConfig(
                interest_rate_r=float(rng.uniform(0.0, 0.06)),
                bid_cap_hi=float(rng.uniform(3_000, 12_000)),
            )
            timber = float(rng.uniform(1_000, 14_000))
            gain = float(rng.uniform(0, 4_000)) if rng.random() < 0.5 else 0.0
            v1 = timber + 400.0
            v0 = float(rng.uniform(0.3, 1.2)) * (v1 + gain)
            site = make_site(timber_value=timber, opportunity_cost_v0=v0)
            owner = (
                FAUSTMANNIAN
                if gain == 0.0
                else LandownerProfile(kind=OwnerKind.HARTMANIAN, phi=1.0, a0=0.0, a1=gain)
            )
            closed = optimal_downpayment_value(site, owner, cfg)
            if not 0.02 * cfg.bid_cap_hi < closed < 0.98 * cfg.bid_cap_hi:
                continue
            numeric = optimal_downpayment_numeric(site, owner, cfg, 0.01)
            assert abs(closed - numeric) <= 0.05
            checked += 1


class TestComparativeStatics:
    def _interior_instance(self, rng):
        cfg = SchemeConfig(
            interest_rate_r=float(rng.uniform(0.005, 0.06)),
            bid_cap_hi=float(rng.uniform(4_000, 12_000)),
        )
        timber = float(rng.uniform(2_000, 12_000))
        gain = float(rng.uniform(0, 3_000))
        v1 = timber + 400.0
        # keep the forgone value below the enrolment value so the bid falls with r
        v0 = float(rng.uniform(0.4, 0.95)) * (v1 + gain)
        site = make_site(timber_value=timber, opportunity_cost_v0=v0)
        owner = LandownerProfile(kind=OwnerKind.HARTMANIAN, phi=1.0, a0=500.0, a1=500.0 + gain)
        interior = 0.05 * cfg.bid_cap_hi < optimal_downpayment_value(site, owner, cfg) < 0.95 * cfg.bid_cap_hi
        return (site, owner, cfg) if interior else None

    def test_signs_on_random_instances(self):
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 100:
            instance = self._interior_instance(rng)
            if instance is None:
                continue
            site, owner, cfg = instance
            c0 = optimal_downpayment_value(site, owner, cfg)
            eps = 1.0

            def bump_site(**kw):
                return optimal_downpayment_value(dataclasses.replace(site, **kw), owner, cfg)

            d_v0 = (
                bump_site(opportunity_cost_v0=site.opportunity_cost_v0 + eps)
                - bump_site(opportunity_cost_v0=site.opportunity_cost_v0 - eps)
            ) / (2 * eps)
            d_v1 = (
                bump_site(timber_value=site.timber_value + eps)
                - bump_site(timber_value=site.timber_value - eps)
            ) / (2 * eps)
            d_a0 = (
                optimal_downpayment_value(site, dataclasses.replace(owner, a0=owner.a0 + eps), cfg)
                - optimal_downpayment_value(site, dataclasses.replace(owner, a0=owner.a0 - eps), cfg)
            ) / (2 * eps)
            d_a1 = (
                optimal_downpayment_value(site, dataclasses.replace(owner, a1=owner.a1 + eps), cfg)
                - optimal_downpayment_value(site, dataclasses.replace(owner, a1=owner.a1 - eps), cfg)
            ) / (2 * eps)
            dr = 1e-5
            d_r = (
                optimal_downpayment_value(
                    site, owner, dataclasses.replace(cfg, interest_rate_r=cfg.interest_rate_r + dr)
                )
                - optimal_downpayment_value(
                    site, owner, dataclasses.replace(cfg, interest_rate_r=cfg.interest_rate_r - dr)
                )
            ) / (2 * dr)
            assert d_v0 > 0
            assert d_v1 < 0
            assert d_a0 > 0
            assert d_a1 < 0
            assert d_r < 0
            assert d_v0 == pytest.approx(1.0 / (2.0 * omega(cfg)), rel=1e-6)
            assert c0 > 0
            checked += 1

    def test_cap_derivative_is_exactly_half(self):
        rng = np.random.default_rng(9)
        checked = 0
        while checked < 20:
            instance = self._interior_instance(rng)
            if instance is None:
                continue
            site, owner, cfg = instance
            dc = 10.0
            up = optimal_downpayment_value(
                site, owner, dataclasses.replace(cfg, bid_cap_hi=cfg.bid_cap_hi + dc)
            )
            down = optimal_downpayment_value(
                site, owner, dataclasses.replace(cfg, bid_cap_hi=cfg.bid_cap_hi - dc)
            )
            assert (up - down) / (2 * dc) == pytest.approx(0.5, rel=1e-9)
            checked += 1


class TestParticipates:
    def test_worked_example_true(self):
        # c: 5_000, payment 7_000, instalments on 2_000 discounted at 3%
        cfg = SchemeConfig(bid_cap_hi=8_000.0)
        site = make_site(timber_value=6_600.0, opportunity_cost_v0=6_000.0)
        factor = compound_oracle(0.03, 10)
        m = factor * 2_000 / 10
        bid = Bid(downpayment_c=5_000.0, instalment_m=m, total_revenue_r=5_000 + factor * 2_000, participates=False)
        lhs = 5_000 + sum(m * 1.03 ** (-i) for i in range(1, 11))  # 7_292.776
        assert lhs > 6_000
        assert participates(bid, site, FAUSTMANNIAN, cfg)

    def test_zero_opportunity_cost_always_participates(self, base_config):
        site = make_site(timber_value=6_600.0, opportunity_cost_v0=0.0)
        bid = optimal_downpayment(site, FAUSTMANNIAN, base_config)
        assert bid.participates

    def test_bid_above_payment_blocks(self, base_config):
        bid = optimal_downpayment(example_site(v0=25_000.0), FAUSTMANNIAN, base_config)
        assert not bid.participates

    def test_monotone_in_amenity_and_opportunity_cost(self):
        rng = np.random.default_rng(21)
        cfg = SchemeConfig(bid_cap_hi=6_000.0)
        for _ in range(300):
            timber = float(rng.uniform(1_000, 12_000))
            v0 = float(rng.uniform(0, 1.4)) * (timber + 400)
            a1 = float(rng.uniform(0, 5_000))
            site = make_site(timber_value=timber, opportunity_cost_v0=v0)
            owner = LandownerProfile(kind=OwnerKind.HARTMANIAN, phi=1.0, a0=0.0, a1=a1)
            before = optimal_downpayment(site, owner, cfg).participates
            richer = optimal_downpayment(
                site, dataclasses.replace(owner, a1=a1 + 800.0), cfg
            ).participates
            cheaper = optimal_downpayment(
                dataclasses.replace(site, opportunity_cost_v0=v0 * 0.8), owner, cfg
            ).participates
            if before:
                assert richer
                assert cheaper


class TestUpfrontBid:
    def test_worked_example(self):
        site = example_site(v0=6_000.0)
        payment = upfront_bid(site, FAUSTMANNIAN, 2_000.0)
        # premium 1_000 + (6_000 - 7_000)/2 = 500; total 7_500
        assert payment == pytest.approx(7_500.0)
        assert upfront_participates(payment, site, FAUSTMANNIAN)

    def test_equal_values_give_half_cap_premium(self):
        site = example_site(v0=7_000.0)
        assert upfront_bid(site, FAUSTMANNIAN, 2_000.0) == pytest.approx(8_000.0)

    def test_large_amenity_clamps_premium(self):
        owner = LandownerProfile(kind=OwnerKind.HARTMANIAN, phi=1.0, a0=0.0, a1=30_000.0)
        site = example_site(v0=6_000.0)
        assert upfront_bid(site, owner, 2_000.0) == pytest.approx(7_000.0)

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            upfront_bid(example_site(), FAUSTMANNIAN, 0.0)


def test_draw_phi_respects_floor():
    rng = np.random.default_rng(2)
    params = AmenityParams(phi_mean=0.3, phi_sd=0.4, phi_min=0.1)
    draws = [draw_phi(rng, params) for _ in range(2_000)]
    assert min(draws) >= 0.1
