import dataclasses
import math

import numpy as np
import pytest

from conftest import make_site
from oracle import site_records, site_table
from deferauction.dataio import SyntheticProfile, generate_synthetic
from deferauction.finance import match_upfront_budget, npv
from deferauction.model import Mechanism, SchemeConfig, SiteType
from deferauction.simulation import (
    CONSERVED,
    NEVER_CUT,
    OfferTable,
    account,
    build_offers,
    draw_harvest_schedule,
    extrapolate_national,
    rank_benefit_cost,
    run_deferred,
    run_upfront,
    select_old_growth,
    site_columns,
    summarize_supply,
)
from deferauction.streams import HARVEST_STREAM, PHI_STREAM, rng_stream

CFG = SchemeConfig(bid_cap_hi=8_000.0)


def columns_of(sites, cfg, seed):
    return site_columns(sites, cfg, rng_stream(seed, PHI_STREAM))


def make_offer(site_id, cost_per_ha, elite=0.5, area=10.0, instalment=0.0, **site_fields):
    """One offer row: (site, elite, outlay per ha, instalment per ha)."""
    return make_site(site_id=site_id, area_ha=area, **site_fields), elite, cost_per_ha, instalment


def offer_table(offers):
    """An offer table with one row per make_offer row, over exactly those sites."""
    columns = columns_of(site_table([site for site, *_ in offers]), CFG, 1)
    elite, outlay, instalment = (np.array([o[k] for o in offers], dtype=float) for k in (1, 2, 3))
    columns = dataclasses.replace(columns, elite=elite)  # the habitat index is the site's
    return OfferTable(columns, np.arange(len(offers)), outlay, instalment, outlay)


def schedule_for(offers, years):
    """The harvest array of an offer table's sites from a site id to year map."""
    return np.array([years.get(site_id, NEVER_CUT) for site_id in offers.columns.sites.ids], dtype=int)


def ids(offers):
    return [offers.columns.sites.ids[index] for index in offers.site.tolist()]


def by_id(outcome, years):
    """A run's offer-row to year map, keyed by site id instead."""
    offer_ids = ids(outcome.offers)
    return {offer_ids[row]: year for row, year in years.items()}


def conserved(outcome):
    return by_id(outcome, outcome.conserved_year)


def harvested(outcome):
    return by_id(outcome, outcome.harvested_year)


def ranked(offers, years=None):
    """(ranked offer table, harvest array) of make_offer rows."""
    table = offer_table(offers)
    return rank_benefit_cost(table), schedule_for(table, years or {})


class TestBuildOffers:
    def test_zero_opportunity_cost_offers_everything(self):
        sites = [
            make_site(site_id=f"s{i}", stand_age=age, opportunity_cost_v0=0.0)
            for i, age in enumerate((30.0, 70.0, 120.0, 160.0))
        ]
        offers = build_offers(columns_of(site_table(sites), CFG, 1), CFG, Mechanism.DEFERRED)
        assert len(offers) == len(sites)

    def test_single_faustmannian_worked_bid(self):
        sites = [make_site(timber_value=6_600.0, opportunity_cost_v0=6_000.0, stand_age=60.0)]
        offers = build_offers(columns_of(site_table(sites), CFG, 1), CFG, Mechanism.DEFERRED)
        assert len(offers) == 1
        assert offers.downpayment_per_ha[0] == pytest.approx(6_922.37, abs=0.05)

    def test_same_seed_same_offers_across_mechanisms(self):
        dataset = generate_synthetic(SyntheticProfile(n_sites=60), 3)
        cfg = SchemeConfig(seed=3)
        deferred_twice = [
            build_offers(columns_of(dataset, cfg, 3), cfg, Mechanism.DEFERRED)
            for _ in range(2)
        ]
        assert (
            deferred_twice[0].downpayment_per_ha.tolist()
            == deferred_twice[1].downpayment_per_ha.tolist()
        )

    def test_repeated_site_id_rejected(self):
        sites = [make_site(site_id="twin"), make_site(site_id="twin", stand_age=140.0)]
        with pytest.raises(ValueError, match="twin"):
            build_offers(columns_of(site_table(sites), CFG, 1), CFG, Mechanism.UPFRONT)

    def test_supply_grows_with_interest_rate_on_synthetic_data(self):
        dataset = generate_synthetic(SyntheticProfile(), 5)
        areas = []
        for r in (0.02, 0.03, 0.04):
            cfg = SchemeConfig(interest_rate_r=r, seed=5)
            offers = build_offers(columns_of(dataset, cfg, 5), cfg, Mechanism.DEFERRED)
            areas.append(sum(offers.area.tolist()))
        assert areas[0] <= areas[1] <= areas[2]


class TestHarvestSchedule:
    def test_young_stands_never_cut(self):
        sites = [make_site(site_id=f"s{i}", stand_age=10.0, commercial_rotation_age=95.0)
                 for i in range(20)]
        cfg = SchemeConfig()
        schedule = draw_harvest_schedule(columns_of(site_table(sites), cfg, 1), cfg, rng_stream(1, HARVEST_STREAM))
        assert schedule.tolist() == [NEVER_CUT] * 20

    def test_mature_stand_uniform_over_window(self):
        sites = [make_site(site_id=f"s{i}", stand_age=150.0, commercial_rotation_age=95.0)
                 for i in range(100_000)]
        cfg = SchemeConfig()
        years = draw_harvest_schedule(columns_of(site_table(sites), cfg, 2), cfg, rng_stream(2, HARVEST_STREAM))
        assert len(years) == 100_000
        assert years.min() >= 0 and years.max() <= 39
        assert years.mean() == pytest.approx(19.5, abs=0.2)

    def test_first_possible_year_respects_rotation_gap(self):
        sites = [make_site(site_id="s", stand_age=90.0, commercial_rotation_age=95.0)]
        cfg = SchemeConfig()
        for master in range(60):
            columns = columns_of(site_table(sites), cfg, master)
            schedule = draw_harvest_schedule(columns, cfg, rng_stream(master, HARVEST_STREAM))
            assert 5 <= schedule[0] <= 39

    def test_annual_rate_in_band_on_synthetic_data(self):
        cfg = SchemeConfig()
        for seed in range(1, 6):
            dataset = generate_synthetic(SyntheticProfile(), seed)
            columns = columns_of(dataset, cfg, seed)
            schedule = draw_harvest_schedule(columns, cfg, rng_stream(seed, HARVEST_STREAM))
            first = {
                s.id: max(0, math.ceil(s.commercial_rotation_age - s.stand_age))
                for s in site_records(dataset)
            }
            first = {k: v for k, v in first.items() if v < cfg.harvest_window}
            yearly = []
            for year in range(cfg.harvest_window):
                eligible = sum(1 for y in first.values() if y <= year)
                cut = sum(1 for y in schedule.tolist() if y == year)
                if eligible:
                    yearly.append(cut / eligible)
            mean_rate = sum(yearly) / len(yearly)
            assert 0.01 <= mean_rate <= 0.04


class TestRanking:
    def test_orders_by_benefit_per_euro(self):
        offers = offer_table([
            make_offer("a", cost_per_ha=100.0, elite=0.1),   # ratio 0.001
            make_offer("b", cost_per_ha=100.0, elite=0.3),   # ratio 0.003
            make_offer("c", cost_per_ha=100.0, elite=0.2),   # ratio 0.002
        ])
        assert ids(rank_benefit_cost(offers)) == ["b", "c", "a"]

    def test_ties_break_to_cheaper_then_id(self):
        offers = offer_table([
            make_offer("pricey", cost_per_ha=20.0, elite=0.2),
            make_offer("cheap", cost_per_ha=10.0, elite=0.1),
            make_offer("aaa", cost_per_ha=10.0, elite=0.1),
        ])
        assert ids(rank_benefit_cost(offers)) == ["aaa", "cheap", "pricey"]

    def test_tiny_outlay_ranks_first_without_a_warning(self):
        # benefit / 5e-323 overflows to inf; pytest turns numpy's warning into an error
        offers = offer_table([
            make_offer("normal", cost_per_ha=10.0, elite=0.4),
            make_offer("tiny", cost_per_ha=5e-324, elite=0.4),
        ])
        assert ids(rank_benefit_cost(offers)) == ["tiny", "normal"]

    def test_zero_benefit_ranks_last_zero_cost_first(self):
        offers = offer_table([
            make_offer("zero-elite", cost_per_ha=10.0, elite=0.0),
            make_offer("normal", cost_per_ha=10.0, elite=0.4),
            make_offer("free", cost_per_ha=0.0, elite=0.2),
        ])
        order = ids(rank_benefit_cost(offers))
        assert order[0] == "free"
        assert order[-1] == "zero-elite"


class TestRunDeferred:
    def test_slack_budget_conserves_everything_at_year_zero(self):
        offers, schedule = ranked([make_offer(f"s{i}", 500.0, instalment=50.0) for i in range(5)])
        outcome = run_deferred(CFG, 1e9, offers, schedule)
        assert set(outcome.conserved_year.values()) == {0}
        assert len(outcome.conserved_year) == 5
        assert outcome.harvested_year == {}
        assert outcome.spending[1] == pytest.approx(5 * 50.0 * 10.0)

    def test_zero_budget_conserves_nothing(self):
        offers, schedule = ranked([make_offer("s1", 500.0)])
        outcome = run_deferred(CFG, 0.0, offers, schedule)
        assert outcome.conserved_year == {}
        assert outcome.summary.area_ha == 0.0

    def test_negative_budget_rejected(self):
        offers, schedule = ranked([])
        with pytest.raises(ValueError):
            run_deferred(CFG, -1.0, offers, schedule)

    def test_budget_for_top_two_funds_exactly_those(self):
        offers, schedule = ranked(
            [
                make_offer("best", 100.0, elite=0.9),
                make_offer("next", 100.0, elite=0.8),
                make_offer("last", 100.0, elite=0.7),
            ]
        )
        outcome = run_deferred(CFG, 2_000.0, offers, schedule)
        assert set(conserved(outcome)) == {"best", "next"}
        assert outcome.spending[0] == pytest.approx(2_000.0)

    def test_skip_and_continue_funds_cheaper_lower_ranked(self):
        offers, schedule = ranked(
            [
                make_offer("expensive", 150.0, elite=0.9),
                make_offer("mid", 120.0, elite=0.5),
                make_offer("small", 40.0, elite=0.1),
            ]
        )
        outcome = run_deferred(CFG, 1_900.0, offers, schedule)
        assert set(conserved(outcome)) == {"expensive", "small"}

    def test_sites_cut_at_year_zero_are_unavailable_but_not_losses(self):
        offers, schedule = ranked(
            [make_offer("gone", 100.0, elite=0.9), make_offer("kept", 100.0)],
            {"gone": 0, "kept": 5},
        )
        outcome = run_deferred(CFG, 1e6, offers, schedule)
        assert set(conserved(outcome)) == {"kept"}
        assert outcome.harvested_year == {}
        assert outcome.summary.lost_benefits == 0.0


class TestRunUpfront:
    def test_slack_budget_and_no_harvest_matches_deferred(self):
        offers, schedule = ranked([make_offer(f"s{i}", 500.0) for i in range(6)])
        deferred = run_deferred(CFG, 1e9, offers, schedule)
        upfront = run_upfront(CFG, 1e9, offers, schedule)
        assert set(conserved(upfront)) == set(conserved(deferred))
        assert set(upfront.conserved_year.values()) == {0}

    def test_rank_one_site_cut_at_year_zero_is_lost(self):
        offers, schedule = ranked(
            [make_offer("doomed", 100.0, elite=0.9), make_offer("b", 100.0)], {"doomed": 0}
        )
        outcome = run_upfront(CFG, 1e9, offers, schedule)
        assert harvested(outcome) == {"doomed": 0}
        assert "doomed" not in conserved(outcome)

    def test_budget_one_site_per_year_with_year_one_loss(self):
        # rank order a, b, c; b is cut during year 1 before it can be funded
        offers, schedule = ranked(
            [
                make_offer("a", 100.0, elite=0.9),
                make_offer("b", 100.0, elite=0.8),
                make_offer("c", 100.0, elite=0.7),
            ],
            {"b": 1},
        )
        outcome = run_upfront(CFG, 1_000.0, offers, schedule)
        assert conserved(outcome) == {"a": 0, "c": 1}
        assert harvested(outcome) == {"b": 1}

    def test_budget_does_not_roll_over(self):
        offers, schedule = ranked([make_offer("a", 150.0), make_offer("b", 90.0)])
        outcome = run_upfront(CFG, 1_000.0, offers, schedule)
        # year 0: only b fits; year 1: a still costs 1_500 > 1_000, never funded
        assert conserved(outcome) == {"b": 0}
        assert outcome.spending[0] == pytest.approx(900.0)
        assert all(v == 0.0 for v in outcome.spending[1:])

    def test_spending_never_exceeds_annual_budget(self):
        dataset = generate_synthetic(SyntheticProfile(n_sites=120), 7)
        cfg = SchemeConfig(seed=7)
        columns = columns_of(dataset, cfg, 7)
        offers = build_offers(columns, cfg, Mechanism.UPFRONT)
        schedule = draw_harvest_schedule(columns, cfg, rng_stream(7, HARVEST_STREAM))
        outcome = run_upfront(cfg, 400_000.0, rank_benefit_cost(offers), schedule)
        assert all(spent <= 400_000.0 + 1e-6 for spent in outcome.spending)


class TestSelectOldGrowth:
    def test_empty_when_no_old_sites(self):
        offers = offer_table([make_offer("young", 100.0, stand_age=30.0)])
        assert len(select_old_growth(offers)) == 0

    def test_threshold_subset_is_exact(self):
        offers = offer_table([
            make_offer("old-conifer", 100.0, site_type=SiteType.MESIC_HEATH, stand_age=120.0),
            make_offer("young-conifer", 100.0, site_type=SiteType.MESIC_HEATH, stand_age=119.0),
            make_offer("old-barren", 100.0, site_type=SiteType.BARREN_HEATH, stand_age=140.0),
        ])
        assert set(ids(select_old_growth(offers))) == {"old-conifer", "old-barren"}

    def test_everything_at_max_age_passes(self):
        offers = offer_table([
            make_offer(f"s{i}", 100.0, site_type=site_type, stand_age=230.0)
            for i, site_type in enumerate(SiteType)
        ])
        assert len(select_old_growth(offers)) == len(offers)


class TestAccount:
    def test_year_zero_benefits_undiscounted(self):
        offers, schedule = ranked([make_offer(f"s{i}", 100.0) for i in range(3)])
        outcome = run_deferred(CFG, 1e9, offers, schedule)
        assert outcome.summary.benefits_npv == pytest.approx(CFG.benefit_per_ha * 30.0)
        assert outcome.summary.ex_post_net_benefits == outcome.summary.benefits_npv

    def test_discounted_benefit_at_year_five(self):
        offers, schedule = ranked([make_offer("s", 100.0)])
        cfg = dataclasses.replace(CFG, horizon_years=11)
        # force conservation in year 5 by starving the budget for five years
        outcome = run_upfront(cfg, 1_000.0, offers, schedule)
        assert conserved(outcome) == {"s": 0}
        # direct check of the discounting rule instead: one site, year 5
        spending = [0.0] * 5 + [1_000.0]
        fate, year = np.array([CONSERVED], dtype=np.int8), np.array([5])
        summary = account(1_000.0, offers, fate, year, spending, cfg)
        assert summary.benefits_npv == pytest.approx(5_980 * 10 * 1.03 ** (-5), abs=1e-6)
        assert summary.benefits_npv == pytest.approx(51_580, abs=10)

    def test_costs_npv_matches_finance_npv(self):
        dataset = generate_synthetic(SyntheticProfile(n_sites=150), 9)
        cfg = SchemeConfig(seed=9)
        columns = columns_of(dataset, cfg, 9)
        offers = build_offers(columns, cfg, Mechanism.DEFERRED)
        schedule = draw_harvest_schedule(columns, cfg, rng_stream(9, HARVEST_STREAM))
        outcome = run_deferred(cfg, 2e6, rank_benefit_cost(offers), schedule)
        expected = sum(a / (1.0 + cfg.discount_rate) ** y for y, a in enumerate(outcome.spending))
        assert outcome.summary.costs_npv == pytest.approx(expected, abs=0.01)

    def test_lost_benefits_sign_convention(self):
        # budget funds one site a year; the lowest-ranked offer is cut in year 1
        offers, schedule = ranked(
            [
                make_offer("first", 100.0, elite=0.9),
                make_offer("second", 100.0, elite=0.8),
                make_offer("doomed", 100.0, elite=0.7),
            ],
            {"doomed": 1},
        )
        outcome = run_upfront(CFG, 1_000.0, offers, schedule)
        s = outcome.summary
        assert harvested(outcome) == {"doomed": 1}
        assert s.lost_benefits < 0
        assert s.lost_benefits == pytest.approx(-5_980 * 10 * 1.03 ** (-1))
        assert s.ex_post_net_benefits == pytest.approx(s.benefits_npv + s.lost_benefits)

    def test_averages_cover_conserved_only(self):
        offers, schedule = ranked(
            [make_offer("in", 100.0, elite=0.9, instalment=20.0),
             make_offer("out", 5_000.0, elite=0.1, instalment=90.0)]
        )
        outcome = run_deferred(CFG, 1_500.0, offers, schedule)
        assert set(conserved(outcome)) == {"in"}
        assert outcome.summary.avg_downpayment == pytest.approx(100.0)
        assert outcome.summary.avg_instalment == pytest.approx(20.0)


class TestDeterminism:
    def test_identical_runs_bit_identical(self):
        for _ in range(2):
            results = []
            for _ in range(2):
                dataset = generate_synthetic(SyntheticProfile(n_sites=100), 13)
                cfg = SchemeConfig(seed=13)
                columns = columns_of(dataset, cfg, 13)
                offers = build_offers(columns, cfg, Mechanism.UPFRONT)
                schedule = draw_harvest_schedule(columns, cfg, rng_stream(13, HARVEST_STREAM))
                outcome = run_upfront(cfg, 5e5, rank_benefit_cost(offers), schedule)
                results.append(outcome)
            first, second = results
            assert ids(first.offers) == ids(second.offers)
            for name in ("elite", "downpayment_per_ha", "instalment_per_ha",
                         "total_payment_npv_per_ha"):
                assert getattr(first.offers, name).tolist() == getattr(second.offers, name).tolist()
            for name in ("fate", "year"):
                assert getattr(first, name).tolist() == getattr(second, name).tolist()
            assert first.spending == second.spending
            assert first.summary == second.summary


class TestSupplySummary:
    def test_aggregates(self):
        offers = offer_table([
            make_offer("a", 100.0, elite=0.5, area=10.0, instalment=10.0),
            make_offer("b", 300.0, elite=0.3, area=10.0, instalment=30.0),
        ])
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
    columns = columns_of(dataset, cfg, 4)
    offers = build_offers(columns, cfg, Mechanism.DEFERRED)
    schedule = draw_harvest_schedule(columns, cfg, rng_stream(4, HARVEST_STREAM))
    deferred = run_deferred(cfg, 3e6, rank_benefit_cost(offers), schedule)
    spent0 = deferred.spending[0]
    instalment = deferred.summary.instalment_cost_per_year
    budget = match_upfront_budget(spent0, instalment, cfg.instalment_count_x, cfg.discount_rate, cfg.horizon)
    matched_npv = npv([budget] * cfg.horizon, cfg.discount_rate)
    assert matched_npv == pytest.approx(deferred.summary.costs_npv, abs=0.01)


def owned_bytes_per_offer(outcome):
    """Bytes per offer of the distinct arrays a ranked offer table and its run own."""
    offers = outcome.offers
    arrays = [getattr(offers, field.name) for field in dataclasses.fields(offers)[1:]]
    arrays += [outcome.fate, outcome.year]
    assert all(isinstance(array, np.ndarray) for array in arrays)
    return sum(array.nbytes for array in {id(array): array for array in arrays}.values()) / len(offers)


def test_offers_and_fates_hold_each_column_once_at_its_width():
    # The habitat index stays in the site columns, fate years are int32, and an up-front
    # offer's outlay is its total: one array. Copying the habitat index per offer, int64
    # years and a second copy of the up-front outlay took either mechanism to 49 B.
    dataset = generate_synthetic(SyntheticProfile(n_sites=40_000), 5)
    cfg = SchemeConfig(seed=5)
    columns = columns_of(dataset, cfg, 5)
    schedule = draw_harvest_schedule(columns, cfg, rng_stream(5, HARVEST_STREAM))
    offers = {m: rank_benefit_cost(build_offers(columns, cfg, m)) for m in Mechanism}
    deferred = run_deferred(cfg, 5e6, offers[Mechanism.DEFERRED], schedule)
    upfront = run_upfront(cfg, 2e5, offers[Mechanism.UPFRONT], schedule)
    assert len(deferred.offers) > 1_000 and len(upfront.offers) > 1_000
    assert owned_bytes_per_offer(deferred) <= 37
    assert owned_bytes_per_offer(upfront) <= 29
