import dataclasses
import math

import numpy as np
import pytest

from conftest import make_site
from deferauction.dataio import SyntheticProfile, generate_synthetic
from deferauction.finance import match_upfront_budget, npv
from deferauction.model import Mechanism, SchemeConfig, SiteType
from deferauction.simulation import (
    Offer,
    account,
    build_offers,
    draw_harvest_schedule,
    extrapolate_national,
    rank_benefit_cost,
    run_deferred,
    run_upfront,
    select_old_growth,
    summarize_supply,
)
from deferauction.streams import HARVEST_STREAM, PHI_STREAM, rng_stream


def make_offer(site_id, cost_per_ha, elite=0.5, area=10.0, mechanism=Mechanism.DEFERRED,
               instalment=0.0):
    site = make_site(site_id=site_id, area_ha=area)
    return Offer(
        site=site,
        mechanism=mechanism,
        elite=elite,
        downpayment_per_ha=cost_per_ha,
        instalment_per_ha=instalment,
        total_payment_npv_per_ha=cost_per_ha,
    )


CFG = SchemeConfig(bid_cap_hi=8_000.0)


class TestBuildOffers:
    def test_zero_opportunity_cost_offers_everything(self):
        sites = [
            make_site(site_id=f"s{i}", stand_age=age, opportunity_cost_v0=0.0)
            for i, age in enumerate((30.0, 70.0, 120.0, 160.0))
        ]
        offers = build_offers(sites, CFG, Mechanism.DEFERRED, rng_stream(1, PHI_STREAM))
        assert len(offers) == len(sites)

    def test_single_faustmannian_worked_bid(self):
        sites = [make_site(timber_value=6_600.0, opportunity_cost_v0=6_000.0, stand_age=60.0)]
        offers = build_offers(sites, CFG, Mechanism.DEFERRED, rng_stream(1, PHI_STREAM))
        assert len(offers) == 1
        assert offers[0].downpayment_per_ha == pytest.approx(6_922.37, abs=0.05)

    def test_same_seed_same_offers_across_mechanisms(self):
        dataset = generate_synthetic(SyntheticProfile(n_sites=60), 3)
        cfg = SchemeConfig(seed=3)
        deferred_twice = [
            build_offers(dataset, cfg, Mechanism.DEFERRED, rng_stream(3, PHI_STREAM))
            for _ in range(2)
        ]
        assert [o.downpayment_per_ha for o in deferred_twice[0]] == [
            o.downpayment_per_ha for o in deferred_twice[1]
        ]

    def test_repeated_site_id_rejected(self):
        sites = [make_site(site_id="twin"), make_site(site_id="twin", stand_age=140.0)]
        with pytest.raises(ValueError, match="twin"):
            build_offers(sites, CFG, Mechanism.UPFRONT, rng_stream(1, PHI_STREAM))

    def test_supply_grows_with_interest_rate_on_synthetic_data(self):
        dataset = generate_synthetic(SyntheticProfile(), 5)
        areas = []
        for r in (0.02, 0.03, 0.04):
            cfg = SchemeConfig(interest_rate_r=r, seed=5)
            offers = build_offers(dataset, cfg, Mechanism.DEFERRED, rng_stream(5, PHI_STREAM))
            areas.append(sum(o.area_ha for o in offers))
        assert areas[0] <= areas[1] <= areas[2]


class TestHarvestSchedule:
    def test_young_stands_never_cut(self):
        sites = [make_site(site_id=f"s{i}", stand_age=10.0, commercial_rotation_age=95.0)
                 for i in range(20)]
        schedule = draw_harvest_schedule(sites, SchemeConfig(), rng_stream(1, HARVEST_STREAM))
        assert schedule == {}

    def test_mature_stand_uniform_over_window(self):
        sites = [make_site(site_id=f"s{i}", stand_age=150.0, commercial_rotation_age=95.0)
                 for i in range(100_000)]
        schedule = draw_harvest_schedule(sites, SchemeConfig(), rng_stream(2, HARVEST_STREAM))
        years = np.array(list(schedule.values()))
        assert len(years) == 100_000
        assert years.min() >= 0 and years.max() <= 39
        assert years.mean() == pytest.approx(19.5, abs=0.2)

    def test_first_possible_year_respects_rotation_gap(self):
        sites = [make_site(site_id="s", stand_age=90.0, commercial_rotation_age=95.0)]
        for master in range(60):
            schedule = draw_harvest_schedule(sites, SchemeConfig(), rng_stream(master, HARVEST_STREAM))
            year = schedule.get("s")
            assert year is not None and 5 <= year <= 39

    def test_annual_rate_in_band_on_synthetic_data(self):
        cfg = SchemeConfig()
        for seed in range(1, 6):
            dataset = generate_synthetic(SyntheticProfile(), seed)
            schedule = draw_harvest_schedule(dataset, cfg, rng_stream(seed, HARVEST_STREAM))
            first = {
                s.id: max(0, math.ceil(s.commercial_rotation_age - s.stand_age))
                for s in dataset
            }
            first = {k: v for k, v in first.items() if v < cfg.harvest_window}
            yearly = []
            for year in range(cfg.harvest_window):
                eligible = sum(1 for y in first.values() if y <= year)
                cut = sum(1 for y in schedule.values() if y == year)
                if eligible:
                    yearly.append(cut / eligible)
            mean_rate = sum(yearly) / len(yearly)
            assert 0.01 <= mean_rate <= 0.04


class TestRanking:
    def test_orders_by_benefit_per_euro(self):
        offers = [
            make_offer("a", cost_per_ha=100.0, elite=0.1),   # ratio 0.001
            make_offer("b", cost_per_ha=100.0, elite=0.3),   # ratio 0.003
            make_offer("c", cost_per_ha=100.0, elite=0.2),   # ratio 0.002
        ]
        ranked = rank_benefit_cost(offers)
        assert [o.site.id for o in ranked] == ["b", "c", "a"]

    def test_ties_break_to_cheaper_then_id(self):
        offers = [
            make_offer("pricey", cost_per_ha=20.0, elite=0.2),
            make_offer("cheap", cost_per_ha=10.0, elite=0.1),
            make_offer("aaa", cost_per_ha=10.0, elite=0.1),
        ]
        ranked = rank_benefit_cost(offers)
        assert [o.site.id for o in ranked] == ["aaa", "cheap", "pricey"]

    def test_zero_benefit_ranks_last_zero_cost_first(self):
        offers = [
            make_offer("zero-elite", cost_per_ha=10.0, elite=0.0),
            make_offer("normal", cost_per_ha=10.0, elite=0.4),
            make_offer("free", cost_per_ha=0.0, elite=0.2),
        ]
        ranked = rank_benefit_cost(offers)
        assert ranked[0].site.id == "free"
        assert ranked[-1].site.id == "zero-elite"


class TestRunDeferred:
    def test_slack_budget_conserves_everything_at_year_zero(self):
        offers = rank_benefit_cost([make_offer(f"s{i}", 500.0, instalment=50.0) for i in range(5)])
        outcome = run_deferred(CFG, 1e9, offers, {})
        assert set(outcome.conserved_year.values()) == {0}
        assert len(outcome.conserved_year) == 5
        assert outcome.harvested_year == {}
        assert outcome.spending[1] == pytest.approx(5 * 50.0 * 10.0)

    def test_zero_budget_conserves_nothing(self):
        offers = rank_benefit_cost([make_offer("s1", 500.0)])
        outcome = run_deferred(CFG, 0.0, offers, {})
        assert outcome.conserved_year == {}
        assert outcome.summary.area_ha == 0.0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            run_deferred(CFG, -1.0, [], {})

    def test_budget_for_top_two_funds_exactly_those(self):
        offers = rank_benefit_cost(
            [
                make_offer("best", 100.0, elite=0.9),
                make_offer("next", 100.0, elite=0.8),
                make_offer("last", 100.0, elite=0.7),
            ]
        )
        outcome = run_deferred(CFG, 2_000.0, offers, {})
        assert set(outcome.conserved_year) == {"best", "next"}
        assert outcome.spending[0] == pytest.approx(2_000.0)

    def test_skip_and_continue_funds_cheaper_lower_ranked(self):
        offers = rank_benefit_cost(
            [
                make_offer("expensive", 150.0, elite=0.9),
                make_offer("mid", 120.0, elite=0.5),
                make_offer("small", 40.0, elite=0.1),
            ]
        )
        outcome = run_deferred(CFG, 1_900.0, offers, {})
        assert set(outcome.conserved_year) == {"expensive", "small"}

    def test_sites_cut_at_year_zero_are_unavailable_but_not_losses(self):
        offers = rank_benefit_cost([make_offer("gone", 100.0, elite=0.9), make_offer("kept", 100.0)])
        schedule = {"gone": 0, "kept": 5}
        outcome = run_deferred(CFG, 1e6, offers, schedule)
        assert set(outcome.conserved_year) == {"kept"}
        assert outcome.harvested_year == {}
        assert outcome.summary.lost_benefits == 0.0


class TestRunUpfront:
    def test_slack_budget_and_no_harvest_matches_deferred(self):
        offers = [make_offer(f"s{i}", 500.0) for i in range(6)]
        deferred = run_deferred(CFG, 1e9, rank_benefit_cost(offers), {})
        upfront = run_upfront(CFG, 1e9, rank_benefit_cost(offers), {})
        assert set(upfront.conserved_year) == set(deferred.conserved_year)
        assert set(upfront.conserved_year.values()) == {0}

    def test_rank_one_site_cut_at_year_zero_is_lost(self):
        offers = rank_benefit_cost([make_offer("doomed", 100.0, elite=0.9), make_offer("b", 100.0)])
        schedule = {"doomed": 0}
        outcome = run_upfront(CFG, 1e9, offers, schedule)
        assert outcome.harvested_year == {"doomed": 0}
        assert "doomed" not in outcome.conserved_year

    def test_budget_one_site_per_year_with_year_one_loss(self):
        # rank order a, b, c; b is cut during year 1 before it can be funded
        offers = rank_benefit_cost(
            [
                make_offer("a", 100.0, elite=0.9),
                make_offer("b", 100.0, elite=0.8),
                make_offer("c", 100.0, elite=0.7),
            ]
        )
        schedule = {"b": 1}
        outcome = run_upfront(CFG, 1_000.0, offers, schedule)
        assert outcome.conserved_year == {"a": 0, "c": 1}
        assert outcome.harvested_year == {"b": 1}

    def test_budget_does_not_roll_over(self):
        offers = rank_benefit_cost([make_offer("a", 150.0), make_offer("b", 90.0)])
        outcome = run_upfront(CFG, 1_000.0, offers, {})
        # year 0: only b fits; year 1: a still costs 1_500 > 1_000, never funded
        assert outcome.conserved_year == {"b": 0}
        assert outcome.spending[0] == pytest.approx(900.0)
        assert all(v == 0.0 for v in outcome.spending[1:])

    def test_spending_never_exceeds_annual_budget(self):
        dataset = generate_synthetic(SyntheticProfile(n_sites=120), 7)
        cfg = SchemeConfig(seed=7)
        offers = build_offers(dataset, cfg, Mechanism.UPFRONT, rng_stream(7, PHI_STREAM))
        schedule = draw_harvest_schedule(dataset, cfg, rng_stream(7, HARVEST_STREAM))
        outcome = run_upfront(cfg, 400_000.0, rank_benefit_cost(offers), schedule)
        assert all(spent <= 400_000.0 + 1e-6 for spent in outcome.spending)


class TestSelectOldGrowth:
    def test_empty_when_no_old_sites(self):
        offers = [make_offer("young", 100.0)]
        offers[0] = dataclasses.replace(offers[0], site=make_site(site_id="young", stand_age=30.0))
        assert select_old_growth(offers) == []

    def test_threshold_subset_is_exact(self):
        sites = [
            make_site(site_id="old-conifer", site_type=SiteType.MESIC_HEATH, stand_age=120.0),
            make_site(site_id="young-conifer", site_type=SiteType.MESIC_HEATH, stand_age=119.0),
            make_site(site_id="old-barren", site_type=SiteType.BARREN_HEATH, stand_age=140.0),
        ]
        offers = [
            dataclasses.replace(make_offer(s.id, 100.0), site=s) for s in sites
        ]
        kept = {o.site.id for o in select_old_growth(offers)}
        assert kept == {"old-conifer", "old-barren"}

    def test_everything_at_max_age_passes(self):
        offers = [
            dataclasses.replace(
                make_offer(f"s{i}", 100.0),
                site=make_site(site_id=f"s{i}", site_type=site_type, stand_age=230.0),
            )
            for i, site_type in enumerate(SiteType)
        ]
        assert len(select_old_growth(offers)) == len(offers)


class TestAccount:
    def test_year_zero_benefits_undiscounted(self):
        offers = rank_benefit_cost([make_offer(f"s{i}", 100.0) for i in range(3)])
        outcome = run_deferred(CFG, 1e9, offers, {})
        assert outcome.summary.benefits_npv == pytest.approx(CFG.benefit_per_ha * 30.0)
        assert outcome.summary.ex_post_net_benefits == outcome.summary.benefits_npv

    def test_discounted_benefit_at_year_five(self):
        offers = rank_benefit_cost([make_offer("s", 100.0)])
        schedule = {}
        cfg = dataclasses.replace(CFG, horizon_years=11)
        # force conservation in year 5 by starving the budget for five years
        outcome = run_upfront(cfg, 1_000.0, offers, schedule)
        assert outcome.conserved_year == {"s": 0}
        # direct check of the discounting rule instead: one site, year 5
        spending = [0.0] * 5 + [1_000.0]
        summary = account(Mechanism.UPFRONT, 1_000.0, offers, {"s": 5}, {}, spending, cfg)
        assert summary.benefits_npv == pytest.approx(5_980 * 10 * 1.03 ** (-5), abs=1e-6)
        assert summary.benefits_npv == pytest.approx(51_580, abs=10)

    def test_costs_npv_matches_finance_npv(self):
        dataset = generate_synthetic(SyntheticProfile(n_sites=150), 9)
        cfg = SchemeConfig(seed=9)
        offers = build_offers(dataset, cfg, Mechanism.DEFERRED, rng_stream(9, PHI_STREAM))
        schedule = draw_harvest_schedule(dataset, cfg, rng_stream(9, HARVEST_STREAM))
        outcome = run_deferred(cfg, 2e6, rank_benefit_cost(offers), schedule)
        expected = sum(a / (1.0 + cfg.discount_rate) ** y for y, a in enumerate(outcome.spending))
        assert outcome.summary.costs_npv == pytest.approx(expected, abs=0.01)

    def test_lost_benefits_sign_convention(self):
        # budget funds one site a year; the lowest-ranked offer is cut in year 1
        offers = rank_benefit_cost(
            [
                make_offer("first", 100.0, elite=0.9),
                make_offer("second", 100.0, elite=0.8),
                make_offer("doomed", 100.0, elite=0.7),
            ]
        )
        schedule = {"doomed": 1}
        outcome = run_upfront(CFG, 1_000.0, offers, schedule)
        s = outcome.summary
        assert outcome.harvested_year == {"doomed": 1}
        assert s.lost_benefits < 0
        assert s.lost_benefits == pytest.approx(-5_980 * 10 * 1.03 ** (-1))
        assert s.ex_post_net_benefits == pytest.approx(s.benefits_npv + s.lost_benefits)

    def test_averages_cover_conserved_only(self):
        offers = rank_benefit_cost(
            [make_offer("in", 100.0, elite=0.9, instalment=20.0),
             make_offer("out", 5_000.0, elite=0.1, instalment=90.0)]
        )
        outcome = run_deferred(CFG, 1_500.0, offers, {})
        assert set(outcome.conserved_year) == {"in"}
        assert outcome.summary.avg_downpayment == pytest.approx(100.0)
        assert outcome.summary.avg_instalment == pytest.approx(20.0)


class TestDeterminism:
    def test_identical_runs_bit_identical(self):
        for _ in range(2):
            results = []
            for _ in range(2):
                dataset = generate_synthetic(SyntheticProfile(n_sites=100), 13)
                cfg = SchemeConfig(seed=13)
                offers = build_offers(dataset, cfg, Mechanism.UPFRONT, rng_stream(13, PHI_STREAM))
                schedule = draw_harvest_schedule(dataset, cfg, rng_stream(13, HARVEST_STREAM))
                outcome = run_upfront(cfg, 5e5, rank_benefit_cost(offers), schedule)
                results.append(outcome)
            assert results[0] == results[1]


class TestSupplySummary:
    def test_aggregates(self):
        offers = [
            make_offer("a", 100.0, elite=0.5, area=10.0, instalment=10.0),
            make_offer("b", 300.0, elite=0.3, area=10.0, instalment=30.0),
        ]
        supply = summarize_supply(offers)
        assert supply.sites == 2
        assert supply.area_ha == 20.0
        assert supply.bd_index_sum == pytest.approx(8.0)
        assert supply.avg_downpayment == pytest.approx(200.0)
        assert supply.avg_instalment == pytest.approx(20.0)


class TestExtrapolation:
    def test_national_scale_worked_example(self):
        cfg = SchemeConfig()
        report = extrapolate_national(4_050.0, 681.0, 48e6 / (54_000 / 11), 54_000.0, cfg)
        assert report.deferred_downpayments_total == pytest.approx(219e6, rel=0.01)
        assert report.deferred_instalments_per_year == pytest.approx(37e6, rel=0.01)
        assert report.deferred_npv == pytest.approx(533e6, rel=0.02)
        assert report.upfront_npv == pytest.approx(456e6, rel=0.02)
        assert report.upfront_area_per_year == pytest.approx(54_000 / 11)

    def test_zero_area_gives_zeros(self):
        report = extrapolate_national(4_050.0, 681.0, 9_000.0, 0.0, SchemeConfig())
        assert report.deferred_npv == 0.0
        assert report.upfront_npv == 0.0
        assert report.deferred_absolute == 0.0

    def test_zero_discount_npv_equals_absolute(self):
        cfg = SchemeConfig(discount_rate=0.0)
        report = extrapolate_national(4_000.0, 600.0, 8_000.0, 10_000.0, cfg)
        assert report.deferred_npv == pytest.approx(report.deferred_absolute)
        assert report.upfront_npv == pytest.approx(report.upfront_absolute)

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            extrapolate_national(-1.0, 600.0, 8_000.0, 10_000.0, SchemeConfig())


def test_npv_matched_budgets_round_trip():
    dataset = generate_synthetic(SyntheticProfile(n_sites=200), 4)
    cfg = SchemeConfig(seed=4)
    offers = build_offers(dataset, cfg, Mechanism.DEFERRED, rng_stream(4, PHI_STREAM))
    schedule = draw_harvest_schedule(dataset, cfg, rng_stream(4, HARVEST_STREAM))
    deferred = run_deferred(cfg, 3e6, rank_benefit_cost(offers), schedule)
    spent0 = deferred.spending[0]
    instalment = deferred.summary.instalment_cost_per_year
    budget = match_upfront_budget(spent0, instalment, cfg.instalment_count_x, cfg.discount_rate, cfg.horizon)
    matched_npv = npv([budget] * cfg.horizon, cfg.discount_rate)
    assert matched_npv == pytest.approx(deferred.summary.costs_npv, abs=0.01)
