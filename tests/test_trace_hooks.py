"""The traced benchmark's counters, checked against values computed by hand.

The tracer in bench/spans.py reads run results through count hooks and
ignores a hook that fails, so a counter whose result field has gone reads as
0. These tests call every hook in ``spans.HOOKS`` directly, on real results.
"""
import sys
from pathlib import Path

import pytest

import oracle
from deferauction.dataio import (
    SyntheticProfile,
    generate_synthetic,
    load_sites,
    write_report,
    write_sites,
)
from deferauction.finance import match_upfront_budget
from deferauction.model import Mechanism, SchemeConfig
from deferauction.simulation import (
    build_offers,
    draw_harvest_schedule,
    rank_benefit_cost,
    run_deferred,
    run_upfront,
    site_columns,
    summarize_supply,
)
from deferauction.streams import HARVEST_STREAM, PHI_STREAM, rng_stream

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import spans  # noqa: E402

SEED = 4
N_SITES = 300


@pytest.fixture(scope="module")
def runs():
    """The columns, offers and outcomes of a 300-site run of both mechanisms."""
    dataset = generate_synthetic(SyntheticProfile(n_sites=N_SITES), SEED)
    cfg = SchemeConfig(seed=SEED)
    columns = site_columns(dataset, cfg, rng_stream(SEED, PHI_STREAM))
    schedule = draw_harvest_schedule(columns, cfg, rng_stream(SEED, HARVEST_STREAM))
    offers = {mechanism: build_offers(columns, cfg, mechanism) for mechanism in Mechanism}
    deferred = run_deferred(cfg, 2e6, rank_benefit_cost(offers[Mechanism.DEFERRED]), schedule)
    budget = match_upfront_budget(
        deferred.spending[0],
        deferred.summary.instalment_cost_per_year,
        cfg.instalment_count_x,
        cfg.discount_rate,
        cfg.horizon,
    )
    upfront = run_upfront(cfg, budget, rank_benefit_cost(offers[Mechanism.UPFRONT]), schedule)
    return cfg, columns, offers, {Mechanism.DEFERRED: deferred, Mechanism.UPFRONT: upfront}


def test_build_offers_kept_ratio(runs):
    cfg, columns, offers, _ = runs
    counters = spans.Counters()
    for mechanism, table in offers.items():
        spans.HOOKS["simulation.build_offers"](counters, (columns, cfg, mechanism), {}, table)
    values = counters.values()
    for mechanism, table in offers.items():
        offered = summarize_supply(table).sites
        assert 0 < offered < N_SITES
        assert values[f"simulation.build_offers.kept_ratio.{mechanism.value}"] == offered / N_SITES


@pytest.mark.parametrize("mechanism", list(Mechanism), ids=lambda m: m.value)
def test_run_funded_ratio_and_losses(runs, mechanism):
    cfg, _, offers, outcomes = runs
    outcome = outcomes[mechanism]
    counters = spans.Counters()
    prefix = f"simulation.run_{mechanism.value}"
    spans.HOOKS[prefix](counters, (cfg, outcome.summary.budget, outcome.offers, None), {}, outcome)
    values = counters.values()
    funded = outcome.summary.sites_conserved
    assert 0 < funded < len(offers[mechanism])
    assert values[f"{prefix}.funded_ratio"] == funded / len(offers[mechanism])
    lost = [row["status"] for row in oracle.site_ledger(outcome)].count("lost")
    assert values[f"{prefix}.lost"] == lost
    assert (lost > 0) == (mechanism is Mechanism.UPFRONT)


def test_load_sites_kept_ratio(tmp_path):
    path = tmp_path / "sites.csv"
    write_sites(generate_synthetic(SyntheticProfile(n_sites=9), SEED), path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("bad,mesic_heath,-4,250,conifer,0.2,10,6600,6000,95,10,400\n")
    counters = spans.Counters()
    spans.HOOKS["dataio.load_sites"](counters, (path,), {}, load_sites(path))
    assert counters.values()["dataio.load_sites.kept_ratio"] == 9 / 10


def test_write_report_bytes(runs, tmp_path):
    cfg, _, offers, outcomes = runs
    runs = [(outcomes[mechanism], summarize_supply(offers[mechanism])) for mechanism in outcomes]
    written = write_report(runs, cfg, tmp_path, "both")
    counters = spans.Counters()
    spans.HOOKS["dataio.write_report"](counters, (), {}, written)
    size = sum(path.stat().st_size for path in tmp_path.iterdir())
    assert counters.values()["dataio.write_report.bytes"] == size > 0
