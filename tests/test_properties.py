"""Property tests of the selection loops over random small site tables.

Hypothesis draws the stands, the bid caps, the budget and the harvest years,
including every stand cut in year 0, zero-cost offers, a zero budget and
extreme caps, and sets some outlays to 0, NaN, +-inf or a negative amount, as
overflowed inputs give. Every run must keep the engine's invariants and decide
exactly what the reference loops of ``tests/oracle.py`` decide on the same
ranked offers. ``fund`` alone must fund the rows of the plain loop, on cost
lists whose decisions hang on a skip, a negative or infinite cost, or what
remains becoming NaN. The ranking must be lexsort's on keys with ties, signed
zeros, infinities and NaN.
"""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import make_site
from oracle import site_ledger, site_table
from deferauction import dataio
from deferauction.dataio import _timeseries
from deferauction.model import MAX_YEARS, Mechanism, SchemeConfig, SiteType
from deferauction.simulation import (
    CONSERVED,
    LOST,
    NEVER_CUT,
    UNFUNDED,
    OfferTable,
    build_offers,
    draw_harvest_schedule,
    fund,
    rank_benefit_cost,
    run_deferred,
    run_upfront,
    site_columns,
)
from deferauction.streams import HARVEST_STREAM, PHI_STREAM, rng_stream

HORIZON = 12
CAPS = st.one_of(st.sampled_from([1e-3, 1e7]), st.floats(1.0, 20_000.0))
MONEY = st.floats(0.0, 20_000.0)
# An outlay per hectare that replaces the bid: none, or one an overflow could give.
ODD_OUTLAYS = st.sampled_from([None, None, 0.0, math.nan, math.inf, -math.inf, -1e6])


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
    outlays = draw(st.lists(ODD_OUTLAYS, min_size=len(sites), max_size=len(sites)))
    return cfg, columns, schedule, budget, outlays


def with_odd_outlays(offers, outlays):
    """`offers` with the outlay per hectare of row i set to outlays[i] where that is not None."""
    downpayment = offers.downpayment_per_ha.copy()
    for row, outlay in enumerate(outlays[: len(offers)]):
        if outlay is not None:
            downpayment[row] = outlay
    return dataclasses.replace(offers, downpayment_per_ha=downpayment)


def same(actual, expected):
    """Equal bit for bit, NaN included: a float's repr round-trips exactly."""
    return repr(actual) == repr(expected)


def check_invariants(outcome, cfg):
    fate, year = outcome.fate, outcome.year
    assert len(fate) == len(year) == len(outcome.offers)
    assert set(fate.tolist()) <= {UNFUNDED, CONSERVED, LOST}
    assert ((year == -1) == (fate == UNFUNDED)).all()
    summary = outcome.summary
    conserved = [row["area_ha"] for row in site_ledger(outcome) if row["status"] == "conserved"]
    assert summary.sites_conserved == len(conserved) == (fate == CONSERVED).sum()
    # the ledger is in site-id order, the summary sums in decision order
    assert math.isclose(summary.area_ha, sum(conserved), rel_tol=1e-12)
    assert same(_timeseries(outcome, cfg)[-1]["cumulative_cost"], summary.costs_absolute)


def check_against_reference(outcome, run, cfg, budget, schedule):
    """`outcome` equals the reference loop `run` on the same ranked offers, bit for bit."""
    ranked = outcome.offers
    records = oracle.site_records(ranked.columns.sites)
    mechanism = outcome.mechanism
    columns = (ranked.elite, ranked.downpayment_per_ha, ranked.instalment_per_ha,
               ranked.total_payment_npv_per_ha)
    offers = [
        oracle.Offer(records[site], mechanism, *cells)
        for site, *cells in zip(ranked.site.tolist(), *(column.tolist() for column in columns))
    ]
    ids = ranked.columns.sites.ids
    cut = {ids[site]: year for site, year in enumerate(schedule.tolist()) if year != NEVER_CUT}
    expected = run(cfg, budget, offers, cut)
    offer_ids = [ids[site] for site in ranked.site.tolist()]
    for view, reference in ((outcome.conserved_year, expected.conserved_year),
                            (outcome.harvested_year, expected.harvested_year)):
        assert [(offer_ids[row], year) for row, year in view.items()] == list(reference.items())
    assert same(outcome.spending, expected.spending)
    assert same(outcome.summary, expected.summary)


@settings(max_examples=300, deadline=None)
@given(cases())
def test_deferred_run_keeps_its_invariants(case):
    cfg, columns, schedule, budget, outlays = case
    offers = with_odd_outlays(build_offers(columns, cfg, Mechanism.DEFERRED), outlays)
    outcome = run_deferred(cfg, budget, rank_benefit_cost(offers), schedule)
    check_invariants(outcome, cfg)
    check_against_reference(outcome, oracle.run_deferred, cfg, budget, schedule)
    assert set(outcome.year.tolist()) <= {-1, 0}
    assert not (outcome.fate == LOST).any()
    if np.isfinite(outcome.offers.cost).all():
        assert outcome.spending[0] <= budget
    cut_at_start = schedule[outcome.offers.site] == 0
    assert not (cut_at_start & (outcome.fate == CONSERVED)).any()


@settings(max_examples=300, deadline=None)
@given(cases())
def test_upfront_run_keeps_its_invariants(case):
    cfg, columns, schedule, budget, outlays = case
    offers = with_odd_outlays(build_offers(columns, cfg, Mechanism.UPFRONT), outlays)
    outcome = run_upfront(cfg, budget, rank_benefit_cost(offers), schedule)
    check_invariants(outcome, cfg)
    check_against_reference(outcome, oracle.run_upfront, cfg, budget, schedule)
    assert len(outcome.spending) == HORIZON
    if np.isfinite(outcome.offers.cost).all():
        assert all(spent <= budget for spent in outcome.spending)
    harvest = schedule[outcome.offers.site]
    lost, conserved = outcome.fate == LOST, outcome.fate == CONSERVED
    assert (outcome.year[lost] == harvest[lost]).all()
    assert ((harvest[conserved] == NEVER_CUT) | (harvest[conserved] > outcome.year[conserved])).all()


def check_fund(costs, budget, rows=None):
    """The rows `fund` funds, after checking them and their cost against the plain loop."""
    rows = list(range(len(costs))) if rows is None else rows
    funded, spent = fund(np.array(costs, dtype=float), np.array(rows, dtype=np.intp), budget)
    funded = funded.tolist()
    expected, expected_spent = oracle.fund(costs, rows, budget)
    assert funded == expected
    assert same(spent, expected_spent)
    return funded


# A cost or a budget: mostly ordinary amounts, some a fault or an overflow could give.
AMOUNTS = st.one_of(
    st.floats(0.0, 100.0),
    st.sampled_from([0.0, -0.0, 1.0, 5.0, -3.0, math.nan, math.inf, -math.inf]),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(AMOUNTS, max_size=60), AMOUNTS, st.data())
def test_fund_matches_the_plain_loop(costs, budget, data):
    rows = data.draw(st.permutations(range(len(costs))))
    check_fund(costs, budget, rows=rows[: data.draw(st.integers(0, len(costs)))])


def test_fund_with_fitting_and_only_just_failing_costs_in_turn():
    # Each even row fits, and each odd one costs one ulp more than what remains,
    # though every later odd row fits then.
    budget, n = 1e6, 100_000
    costs = [1.0 if row % 2 == 0 else math.nextafter(budget - (row + 1) // 2, math.inf)
             for row in range(n)]
    assert check_fund(costs, budget) == list(range(0, n, 2))


def test_fund_negative_infinite_cost_after_a_skip_makes_a_later_row_affordable():
    # Row 0 does not fit and is skipped; row 3 does not fit what is left then,
    # but row 2's -inf cost leaves an infinite budget before it.
    assert check_fund([5.0, 4.0, -math.inf, 4.0, 5.0], 3.0) == [2, 3, 4]


def test_fund_infinite_cost_of_an_infinite_budget_leaves_nan():
    # inf - inf is NaN, and no later cost fits NaN, not even -inf.
    assert check_fund([1.0, math.inf, 1.0, 0.0, -math.inf], math.inf) == [0, 1]


def test_fund_without_rows():
    assert check_fund([1.0, 2.0], 10.0, rows=[]) == []
    assert check_fund([], 10.0) == []


# A benefit or an outlay per hectare: ties, signed zeros, infinities and NaN among ordinary values.
RANKING_VALUES = st.one_of(
    st.floats(0.0, 10.0),
    st.sampled_from([0.0, -0.0, 1.0, 2.0, -1.0, math.nan, math.inf, -math.inf]),
)


def assert_ranked_like_lexsort(sites, elite, outlay):
    """rank_benefit_cost's order is lexsort's: ratio descending, then cost, then site id."""
    columns = site_columns(site_table(sites), SchemeConfig(), rng_stream(1, PHI_STREAM))
    columns = dataclasses.replace(columns, elite=elite)
    offers = OfferTable(columns, np.arange(len(sites)), outlay, np.zeros(len(sites)), outlay)
    cost, benefit = offers.cost, elite * offers.area
    with np.errstate(all="ignore"):
        ratio = np.where(cost > 0, benefit / cost, np.where(benefit > 0, np.inf, 0.0))
    expected = np.lexsort((columns.id_rank, cost, -ratio))
    assert rank_benefit_cost(offers).site.tolist() == expected.tolist()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ranking_matches_lexsort(data):
    n = data.draw(st.integers(0, 30))
    sites = [make_site(site_id=f"s{data.draw(st.integers(0, 99)):02d}-{i}",
                       area_ha=data.draw(st.sampled_from([1.0, 2.5, 10.0])))
             for i in range(n)]
    # Each column draws from a pool of values, small ones giving many ties.
    pools = [data.draw(st.lists(RANKING_VALUES, min_size=1, max_size=max(n, 1))) for _ in range(2)]
    elite, outlay = (np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
                     for pool in pools)
    assert_ranked_like_lexsort(sites, elite, outlay)


@pytest.mark.parametrize(
    "ids, elite, outlay",
    [
        (["a", "b"], [math.nan, math.nan], [2.0, 1.0]),  # NaN ratios order by cost
        (["b", "a"], [1.0, 1.0], [1.0, 1.0]),  # equal ratios and costs order by id
    ],
    ids=["nan-ratios", "equal-costs"],
)
def test_ranking_of_ties_one_stable_sort_gets_wrong(ids, elite, outlay):
    # In table order each pair stands wrong for lexsort, so the one sort must give way to it.
    sites = [make_site(site_id=site_id) for site_id in ids]
    assert_ranked_like_lexsort(sites, np.array(elite), np.array(outlay))


def test_int32_years_and_ranks_hold_every_bound():
    # Fate years, harvest years and id ranks are int32: a site count is at most
    # MAX_SITES and a year at most MAX_YEARS.
    assert np.iinfo(np.int32).max > max(dataio.MAX_SITES, MAX_YEARS)
    cfg = SchemeConfig(seed=3, horizon_years=MAX_YEARS, harvest_window=MAX_YEARS)
    sites = dataio.generate_synthetic(dataio.SyntheticProfile(n_sites=2_000), cfg.seed)
    columns = site_columns(sites, cfg, rng_stream(cfg.seed, PHI_STREAM))
    schedule = draw_harvest_schedule(columns, cfg, rng_stream(cfg.seed, HARVEST_STREAM))
    assert schedule.max() > MAX_YEARS // 2
    offers = {m: rank_benefit_cost(build_offers(columns, cfg, m)) for m in Mechanism}
    deferred = run_deferred(cfg, 2e6, offers[Mechanism.DEFERRED], schedule)
    upfront = run_upfront(cfg, 1e5, offers[Mechanism.UPFRONT], schedule)
    for outcome in (deferred, upfront):
        check_invariants(outcome, cfg)
    for code in (CONSERVED, LOST):  # years late in the horizon are reached
        assert upfront.year[upfront.fate == code].max() > MAX_YEARS // 2
