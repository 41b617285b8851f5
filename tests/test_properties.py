"""Property tests of the selection loops over random small site tables.

Hypothesis draws the stands, the bid caps, the budget and the harvest years,
including every stand cut in year 0, zero-cost offers, a zero budget and
extreme caps; every run must keep the engine's invariants.
"""
import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_site
from oracle import site_ledger, site_table
from deferauction.dataio import _timeseries
from deferauction.model import Mechanism, SchemeConfig, SiteType
from deferauction.simulation import (
    NEVER_CUT,
    build_offers,
    draw_harvest_schedule,
    rank_benefit_cost,
    run_deferred,
    run_upfront,
    site_columns,
)
from deferauction.streams import HARVEST_STREAM, PHI_STREAM, rng_stream

HORIZON = 12
CAPS = st.one_of(st.sampled_from([1e-3, 1e7]), st.floats(1.0, 20_000.0))
MONEY = st.floats(0.0, 20_000.0)


@st.composite
def stands(draw):
    n = draw(st.integers(0, 12))
    return [
        make_site(
            site_id=f"s{draw(st.integers(0, 99)):02d}-{i}",
            site_type=draw(st.sampled_from(list(SiteType))),
            stand_age=draw(st.floats(0.0, 230.0)),
            commercial_rotation_age=draw(st.floats(20.0, 150.0)),
            timber_value=draw(MONEY),
            opportunity_cost_v0=draw(MONEY),
            land_payment=draw(st.floats(0.0, 1_000.0)),
            deadwood=draw(st.floats(0.0, 40.0)),
            area_ha=draw(st.floats(0.1, 50.0)),
        )
        for i in range(n)
    ]


@st.composite
def cases(draw):
    sites = draw(stands())
    cfg = SchemeConfig(
        seed=draw(st.integers(0, 1_000)),
        bid_cap_hi=draw(CAPS),
        upfront_cap_hi=draw(CAPS),
        horizon_years=HORIZON,
    )
    columns = site_columns(site_table(sites), cfg, rng_stream(cfg.seed, PHI_STREAM))
    harvest = draw(st.sampled_from(["drawn", "all-year-0", "random"]))
    if harvest == "drawn":
        schedule = draw_harvest_schedule(columns, cfg, rng_stream(cfg.seed, HARVEST_STREAM))
    elif harvest == "all-year-0":
        schedule = np.zeros(len(sites), dtype=np.int64)
    else:
        years = st.integers(NEVER_CUT, HORIZON + 2)
        schedule = np.array(draw(st.lists(years, min_size=len(sites), max_size=len(sites))),
                            dtype=np.int64)
    budget = draw(st.one_of(st.just(0.0), st.floats(1.0, 1e6)))
    free = draw(st.lists(st.booleans(), min_size=len(sites), max_size=len(sites)))
    return cfg, columns, schedule, budget, free


def with_zero_costs(offers, free):
    """`offers` with the outlay of row i set to zero where free[i] holds."""
    free = np.array(free[: len(offers)], dtype=bool)
    return dataclasses.replace(
        offers, downpayment_per_ha=np.where(free, 0.0, offers.downpayment_per_ha)
    )


def check_invariants(outcome, cfg):
    assert not set(outcome.conserved_year) & set(outcome.harvested_year)
    fates = set(outcome.conserved_year) | set(outcome.harvested_year)
    assert fates <= set(range(len(outcome.offers)))
    summary = outcome.summary
    conserved = [row["area_ha"] for row in site_ledger(outcome) if row["status"] == "conserved"]
    assert summary.sites_conserved == len(conserved)
    # the ledger is in site-id order, the summary sums in funding order
    assert math.isclose(summary.area_ha, sum(conserved), rel_tol=1e-12)
    assert _timeseries(outcome, cfg)[-1]["cumulative_cost"] == summary.costs_absolute


@settings(max_examples=300, deadline=None)
@given(cases())
def test_deferred_run_keeps_its_invariants(case):
    cfg, columns, schedule, budget, free = case
    offers = with_zero_costs(build_offers(columns, cfg, Mechanism.DEFERRED), free)
    outcome = run_deferred(cfg, budget, rank_benefit_cost(offers), schedule)
    check_invariants(outcome, cfg)
    assert outcome.spending[0] <= budget
    cut_at_start = schedule[outcome.offers.site] == 0
    assert not any(cut_at_start[row] for row in outcome.conserved_year)


@settings(max_examples=300, deadline=None)
@given(cases())
def test_upfront_run_keeps_its_invariants(case):
    cfg, columns, schedule, budget, free = case
    offers = with_zero_costs(build_offers(columns, cfg, Mechanism.UPFRONT), free)
    outcome = run_upfront(cfg, budget, rank_benefit_cost(offers), schedule)
    check_invariants(outcome, cfg)
    assert len(outcome.spending) == HORIZON
    assert all(spent <= budget for spent in outcome.spending)
    harvest = schedule[outcome.offers.site]
    for row, year in outcome.harvested_year.items():
        assert year == harvest[row]
    for row, year in outcome.conserved_year.items():
        assert harvest[row] == NEVER_CUT or harvest[row] > year
