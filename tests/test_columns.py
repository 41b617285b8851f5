"""The column path against the scalar oracle, bit for bit.

Every comparison uses ==: the column formulas keep the scalar operation
order, so a one-ulp drift is a failure here (the golden files compare
summary.json only to 1e-12).
"""
import dataclasses

import numpy as np
import pytest

import oracle
from conftest import make_site
from deferauction.dataio import SyntheticProfile, generate_synthetic
from deferauction.model import Mechanism, SchemeConfig
from deferauction.simulation import build_offers, draw_harvest_schedule, site_columns
from deferauction.streams import HARVEST_STREAM, PHI_STREAM, rng_stream

SEED = 11
DATASET = generate_synthetic(SyntheticProfile(n_sites=2_000), SEED)
# (interest rate r, payment periods x, bid-cap scale)
POINTS = [(0.02, 10, 1.0), (0.03, 20, 0.5), (0.04, 10, 1.5)]


def point_config(rate, periods, scale, **overrides):
    base = SchemeConfig(seed=SEED, **overrides)
    return dataclasses.replace(
        base, interest_rate_r=rate, instalment_count_x=periods, bid_cap_hi=base.bid_cap_hi * scale
    )


def column_offers(dataset, cfg, mechanism):
    columns = site_columns(dataset, cfg, rng_stream(cfg.seed, PHI_STREAM))
    return [
        tuple(getattr(offer, field.name) for field in dataclasses.fields(offer))
        for offer in build_offers(columns, cfg, mechanism)
    ]


def oracle_offers(dataset, cfg, mechanism):
    return oracle.offers(dataset, cfg, mechanism, rng_stream(cfg.seed, PHI_STREAM))


@pytest.mark.parametrize("mechanism", list(Mechanism), ids=lambda m: m.value)
@pytest.mark.parametrize("point", POINTS, ids=lambda p: "r{}-x{}-cap{}".format(*p))
def test_offers_equal_the_oracle_on_generated_data(point, mechanism):
    cfg = point_config(*point)
    expected = oracle_offers(DATASET, cfg, mechanism)
    assert 0 < len(expected) < len(DATASET)
    assert column_offers(DATASET, cfg, mechanism) == expected


def test_columns_equal_the_oracle_owners_and_habitat_index():
    cfg = SchemeConfig(seed=SEED, amenity=dataclasses.replace(SchemeConfig().amenity, phi_sd=0.6))
    columns = site_columns(DATASET, cfg, rng_stream(SEED, PHI_STREAM))
    rng = rng_stream(SEED, PHI_STREAM)
    gains = []
    for site in DATASET:
        hartmanian = oracle.classify_landowner(site) is oracle.OwnerKind.HARTMANIAN
        phi = oracle.draw_phi(rng, cfg.amenity) if hartmanian else 1.0
        gains.append(oracle.make_owner(site, phi, cfg).amenity_gain)
    assert columns.amenity_gain.tolist() == gains
    assert columns.elite.tolist() == [oracle.elite_index(site) for site in DATASET]
    assert columns.v1.tolist() == [oracle.conservation_payment(site) for site in DATASET]


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
    assert [(offer[0].id, offer[3]) for offer in offers] == [("clamped", 0.0)]


def test_empty_dataset_has_empty_columns_and_schedule():
    cfg = SchemeConfig()
    columns = site_columns([], cfg, rng_stream(1, PHI_STREAM))
    assert len(columns) == 0
    assert draw_harvest_schedule(columns, cfg, rng_stream(1, HARVEST_STREAM)) == {}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_harvest_draw_equals_the_per_site_loop(seed):
    cfg = SchemeConfig()
    # whole and fractional rotation gaps around the window's last year
    edges = _stands([55.0, 55.5, 56.0, 54.9, 95.0, 200.0], commercial_rotation_age=95.0)
    dataset = DATASET + edges
    columns = site_columns(dataset, cfg, rng_stream(seed, PHI_STREAM))
    schedule = draw_harvest_schedule(columns, cfg, rng_stream(seed, HARVEST_STREAM))
    expected = oracle.harvest_schedule(dataset, cfg, rng_stream(seed, HARVEST_STREAM))
    assert list(schedule.items()) == list(expected.items())
    assert {"s2", "s4", "s5"} <= set(schedule)
    assert not {"s0", "s1", "s3"} & set(schedule)
