"""The column path against the scalar oracle, bit for bit.

Every comparison uses ==: the column formulas keep the scalar operation
order and the engine sums Python floats in the per-offer engine's order, so
a one-ulp drift is a failure here (the golden files compare summary.json
only to 1e-12).
"""
import dataclasses

import numpy as np
import pytest

import oracle
from conftest import make_site
from deferauction.dataio import SyntheticProfile, generate_synthetic
from deferauction.model import Mechanism, SchemeConfig
from deferauction.simulation import (
    NEVER_CUT,
    build_offers,
    draw_harvest_schedule,
    rank_benefit_cost,
    run_deferred,
    run_upfront,
    select_old_growth,
    site_columns,
    summarize_supply,
)
from deferauction.streams import HARVEST_STREAM, PHI_STREAM, rng_stream

SEED = 11
TABLE = generate_synthetic(SyntheticProfile(n_sites=2_000), SEED)
DATASET = oracle.site_records(TABLE)
# (interest rate r, payment periods x, bid-cap scale)
POINTS = [(0.02, 10, 1.0), (0.03, 20, 0.5), (0.04, 10, 1.5)]
# Budgets that bind: some offers are funded, some lost (up front), some unfunded.
BUDGETS = {Mechanism.DEFERRED: 5e6, Mechanism.UPFRONT: 1.2e6}


def point_config(rate, periods, scale, **overrides):
    base = SchemeConfig(seed=SEED, **overrides)
    return dataclasses.replace(
        base, interest_rate_r=rate, instalment_count_x=periods, bid_cap_hi=base.bid_cap_hi * scale
    )


def offer_rows(table):
    """(site, elite, outlay, instalment, total NPV) of each row of an offer table."""
    records = oracle.site_records(table.columns.sites)
    sites = [records[index] for index in table.site.tolist()]
    return list(
        zip(
            sites,
            table.elite.tolist(),
            table.downpayment_per_ha.tolist(),
            table.instalment_per_ha.tolist(),
            table.total_payment_npv_per_ha.tolist(),
        )
    )


def column_offers(dataset, cfg, mechanism):
    columns = site_columns(oracle.site_table(dataset), cfg, rng_stream(cfg.seed, PHI_STREAM))
    return offer_rows(build_offers(columns, cfg, mechanism))


def oracle_offers(dataset, cfg, mechanism):
    offers = oracle.offers(dataset, cfg, mechanism, rng_stream(cfg.seed, PHI_STREAM))
    return [
        (o.site, o.elite, o.downpayment_per_ha, o.instalment_per_ha, o.total_payment_npv_per_ha)
        for o in offers
    ]


def schedule_by_id(dataset, schedule):
    return {site.id: year for site, year in zip(dataset, schedule.tolist()) if year != NEVER_CUT}


@pytest.mark.parametrize("mechanism", list(Mechanism), ids=lambda m: m.value)
@pytest.mark.parametrize("point", POINTS, ids=lambda p: "r{}-x{}-cap{}".format(*p))
def test_offers_equal_the_oracle_on_generated_data(point, mechanism):
    cfg = point_config(*point)
    expected = oracle_offers(DATASET, cfg, mechanism)
    assert 0 < len(expected) < len(DATASET)
    assert column_offers(DATASET, cfg, mechanism) == expected


def test_columns_equal_the_oracle_owners_and_habitat_index():
    cfg = SchemeConfig(seed=SEED, amenity=dataclasses.replace(SchemeConfig().amenity, phi_sd=0.6))
    columns = site_columns(TABLE, cfg, rng_stream(SEED, PHI_STREAM))
    rng = rng_stream(SEED, PHI_STREAM)
    gains = []
    for site in DATASET:
        hartmanian = oracle.classify_landowner(site) is oracle.OwnerKind.HARTMANIAN
        phi = oracle.draw_phi(rng, cfg.amenity) if hartmanian else 1.0
        gains.append(oracle.make_owner(site, phi, cfg).amenity_gain)
    assert columns.amenity_gain.tolist() == gains
    assert columns.elite.tolist() == [oracle.elite_index(site) for site in DATASET]
    assert columns.v1.tolist() == [oracle.conservation_payment(site) for site in DATASET]
    assert columns.old_growth.tolist() == [oracle.is_old_growth(site) for site in DATASET]
    by_id = sorted(range(len(DATASET)), key=lambda i: DATASET[i].id)
    assert columns.id_rank[by_id].tolist() == list(range(len(DATASET)))


def test_landowner_discount_rate_enters_participation():
    cfg = point_config(0.03, 10, 1.0, participation_discount_rate=0.08)
    expected = oracle_offers(DATASET, cfg, Mechanism.DEFERRED)
    assert column_offers(DATASET, cfg, Mechanism.DEFERRED) == expected
    default_rate = oracle_offers(DATASET, point_config(0.03, 10, 1.0), Mechanism.DEFERRED)
    assert len(expected) != len(default_rate)


def _stands(stand_ages, **fields):
    rng = np.random.default_rng(3)
    return [
        make_site(
            site_id=f"s{i}",
            stand_age=age,
            timber_value=float(rng.uniform(1_000, 14_000)),
            opportunity_cost_v0=float(rng.uniform(500, 16_000)),
            **fields,
        )
        for i, age in enumerate(stand_ages)
    ]


EDGE_DATASETS = {
    "all-faustmannian": _stands(np.linspace(6.0, 80.0, 40), commercial_rotation_age=80.0),
    "all-hartmanian": _stands(np.linspace(81.0, 230.0, 40), commercial_rotation_age=80.0),
    "empty": [],
}


@pytest.mark.parametrize("mechanism", list(Mechanism), ids=lambda m: m.value)
@pytest.mark.parametrize("name", list(EDGE_DATASETS))
def test_offers_equal_the_oracle_on_edge_datasets(name, mechanism):
    dataset = EDGE_DATASETS[name]
    for point in POINTS:
        cfg = point_config(*point)
        assert column_offers(dataset, cfg, mechanism) == oracle_offers(dataset, cfg, mechanism)


def test_clamped_and_negative_loan_bids():
    cfg = point_config(0.03, 10, 1.0)
    clamped = make_site(site_id="clamped", stand_age=50.0, timber_value=60_000.0,
                        opportunity_cost_v0=1_000.0)
    above_v1 = make_site(site_id="above", stand_age=50.0, opportunity_cost_v0=25_000.0)
    owner = oracle.FAUSTMANNIAN
    assert oracle.optimal_downpayment_value(clamped, owner, cfg) == 0.0
    v1 = oracle.conservation_payment(above_v1)
    assert oracle.optimal_downpayment_value(above_v1, owner, cfg) > v1
    offers = column_offers([clamped, above_v1], cfg, Mechanism.DEFERRED)
    assert offers == oracle_offers([clamped, above_v1], cfg, Mechanism.DEFERRED)
    assert [(offer[0].id, offer[2]) for offer in offers] == [("clamped", 0.0)]


def test_empty_dataset_has_empty_columns_and_schedule():
    cfg = SchemeConfig()
    columns = site_columns(oracle.site_table([]), cfg, rng_stream(1, PHI_STREAM))
    assert len(columns) == 0
    assert len(draw_harvest_schedule(columns, cfg, rng_stream(1, HARVEST_STREAM))) == 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_harvest_draw_equals_the_per_site_loop(seed):
    cfg = SchemeConfig()
    # whole and fractional rotation gaps around the window's last year
    edges = _stands([55.0, 55.5, 56.0, 54.9, 95.0, 200.0], commercial_rotation_age=95.0)
    dataset = DATASET + edges
    columns = site_columns(oracle.site_table(dataset), cfg, rng_stream(seed, PHI_STREAM))
    schedule = schedule_by_id(
        dataset, draw_harvest_schedule(columns, cfg, rng_stream(seed, HARVEST_STREAM))
    )
    expected = oracle.harvest_schedule(dataset, cfg, rng_stream(seed, HARVEST_STREAM))
    assert list(schedule.items()) == list(expected.items())
    assert {"s2", "s4", "s5"} <= set(schedule)
    assert not {"s0", "s1", "s3"} & set(schedule)


@pytest.mark.parametrize("mechanism", list(Mechanism), ids=lambda m: m.value)
@pytest.mark.parametrize("ranking", ["benefit_cost", "old_growth"])
@pytest.mark.parametrize("point", POINTS, ids=lambda p: "r{}-x{}-cap{}".format(*p))
def test_engine_equals_the_per_offer_engine(point, ranking, mechanism):
    cfg = point_config(*point)
    columns = site_columns(TABLE, cfg, rng_stream(SEED, PHI_STREAM))
    schedule = draw_harvest_schedule(columns, cfg, rng_stream(SEED, HARVEST_STREAM))
    table = build_offers(columns, cfg, mechanism)
    offers = oracle.offers(DATASET, cfg, mechanism, rng_stream(SEED, PHI_STREAM))
    assert summarize_supply(table) == oracle.summarize_supply(offers)
    if ranking == "old_growth":
        table, offers = select_old_growth(table), oracle.select_old_growth(offers)
    ranked, expected_ranked = rank_benefit_cost(table), oracle.rank_benefit_cost(offers)
    assert [site.id for site, *_ in offer_rows(ranked)] == [o.site.id for o in expected_ranked]

    run, expected_run = {
        Mechanism.DEFERRED: (run_deferred, oracle.run_deferred),
        Mechanism.UPFRONT: (run_upfront, oracle.run_upfront),
    }[mechanism]
    outcome = run(cfg, BUDGETS[mechanism], ranked, schedule)
    expected = expected_run(
        cfg,
        BUDGETS[mechanism],
        expected_ranked,
        oracle.harvest_schedule(DATASET, cfg, rng_stream(SEED, HARVEST_STREAM)),
    )
    assert outcome.summary == expected.summary
    assert outcome.spending == expected.spending
    ids = [DATASET[index].id for index in ranked.site.tolist()]
    conserved = [(ids[row], year) for row, year in outcome.conserved_year.items()]
    lost = [(ids[row], year) for row, year in outcome.harvested_year.items()]
    assert conserved == list(expected.conserved_year.items())
    assert lost == list(expected.harvested_year.items())
    assert 0 < len(conserved) < len(ranked)
    if mechanism is Mechanism.UPFRONT:
        assert lost
