"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""
import dataclasses
import json
import math
import os
import time

import numpy as np
import pytest

from conftest import make_site
from deferauction.bidding import omega
from deferauction.cli import EXIT_OK, main
from deferauction.dataio import SyntheticProfile, generate_synthetic
from deferauction.ecology import EliteComponent, EliteTable, amenity_value, elite_index, is_old_growth
from deferauction.finance import discounted_instalment_sum, match_upfront_budget, npv
from deferauction.model import Mechanism, SchemeConfig, SiteType, Species
from deferauction.simulation import (
    build_offers,
    draw_harvest_schedule,
    extrapolate_national,
    rank_benefit_cost,
    run_deferred,
    run_upfront,
    site_columns,
)
from deferauction.streams import HARVEST_STREAM, PHI_STREAM, rng_stream
from oracle import (
    FAUSTMANNIAN,
    LandownerProfile,
    OwnerKind,
    optimal_downpayment_numeric,
    optimal_downpayment_value,
)

ACCEPTANCE_SEEDS = tuple(range(1, 21))


def _random_instance(rng, require_enrolment_gain=False):
    cfg = SchemeConfig(
        interest_rate_r=float(rng.uniform(0.005, 0.06)),
        bid_cap_hi=float(rng.uniform(4_000, 12_000)),
    )
    timber = float(rng.uniform(2_000, 12_000))
    gain = float(rng.uniform(0, 3_000)) if rng.random() < 0.6 else 0.0
    v1 = timber + 400.0
    hi_ratio = 0.95 if require_enrolment_gain else 1.2
    v0 = float(rng.uniform(0.4, hi_ratio)) * (v1 + gain)
    site = make_site(timber_value=timber, opportunity_cost_v0=v0)
    owner = (
        FAUSTMANNIAN
        if gain == 0.0
        else LandownerProfile(kind=OwnerKind.HARTMANIAN, phi=1.0, a0=400.0, a1=400.0 + gain)
    )
    return site, owner, cfg


def test_criterion_01_closed_form_matches_numeric_oracle():
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    checked = 0
    worst = 0.0
    while checked < 200:
        site, owner, cfg = _random_instance(rng)
        closed = optimal_downpayment_value(site, owner, cfg)
        if not 0.02 * cfg.bid_cap_hi < closed < 0.98 * cfg.bid_cap_hi:
            continue
        numeric = optimal_downpayment_numeric(site, owner, cfg, grid_step=0.01)
        gap = abs(closed - numeric)
        worst = max(worst, gap)
        assert gap <= 0.05
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"[criterion 1] PASS: {checked} interior instances, worst gap {worst:.4f} EUR/ha, "
          f"{elapsed:.1f}s")


def test_criterion_02_comparative_statics():
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 100:
        site, owner, cfg = _random_instance(rng, require_enrolment_gain=True)
        c_star = optimal_downpayment_value(site, owner, cfg)
        if not 0.05 * cfg.bid_cap_hi < c_star < 0.95 * cfg.bid_cap_hi:
            continue
        eps = 1.0

        def at(site_=site, owner_=owner, cfg_=cfg):
            return optimal_downpayment_value(site_, owner_, cfg_)

        d_v0 = (
            at(site_=dataclasses.replace(site, opportunity_cost_v0=site.opportunity_cost_v0 + eps))
            - at(site_=dataclasses.replace(site, opportunity_cost_v0=site.opportunity_cost_v0 - eps))
        ) / (2 * eps)
        d_v1 = (
            at(site_=dataclasses.replace(site, timber_value=site.timber_value + eps))
            - at(site_=dataclasses.replace(site, timber_value=site.timber_value - eps))
        ) / (2 * eps)
        d_a0 = (
            at(owner_=dataclasses.replace(owner, a0=owner.a0 + eps))
            - at(owner_=dataclasses.replace(owner, a0=owner.a0 - eps))
        ) / (2 * eps)
        d_a1 = (
            at(owner_=dataclasses.replace(owner, a1=owner.a1 + eps))
            - at(owner_=dataclasses.replace(owner, a1=owner.a1 - eps))
        ) / (2 * eps)
        dr = 1e-5
        d_r = (
            at(cfg_=dataclasses.replace(cfg, interest_rate_r=cfg.interest_rate_r + dr))
            - at(cfg_=dataclasses.replace(cfg, interest_rate_r=cfg.interest_rate_r - dr))
        ) / (2 * dr)
        dc = 8.0
        d_cap = (
            at(cfg_=dataclasses.replace(cfg, bid_cap_hi=cfg.bid_cap_hi + dc))
            - at(cfg_=dataclasses.replace(cfg, bid_cap_hi=cfg.bid_cap_hi - dc))
        ) / (2 * dc)

        assert d_v0 > 0 and d_v1 < 0 and d_a0 > 0 and d_a1 < 0 and d_r < 0
        assert d_cap == pytest.approx(0.5, rel=1e-9)
        assert d_v0 == pytest.approx(1.0 / (2.0 * omega(cfg)), rel=1e-6)
        checked += 1
    print(f"[criterion 2] PASS: all five signs, d/dcap = 1/2 and d/dv0 = 1/(2*omega) "
          f"on {checked} instances")


def test_criterion_03_amenity_curve_values():
    cfg = SchemeConfig()
    a0 = amenity_value(0.0, 1.0, cfg)
    a100 = amenity_value(100.0, 1.0, cfg)
    a_inf = amenity_value(10_000.0, 1.0, cfg)
    assert a0 == pytest.approx(24.97, abs=0.01)
    assert a100 == pytest.approx(3_579.4, abs=0.5)
    assert a_inf == pytest.approx(23_500.0, abs=1.0)
    print(f"[criterion 3] PASS: A(0)={a0:.2f}, A(100)={a100:.1f}, A(10000)={a_inf:.1f}")


def test_criterion_04_elite_index_range_and_hand_case():
    rng = np.random.default_rng(404)
    types = list(SiteType)
    sites = [
        make_site(
            site_type=types[int(rng.integers(0, 6))],
            deadwood=float(rng.uniform(0, 80)),
            stand_age=float(rng.uniform(0, 260)),
            broadleaf_share=float(rng.uniform(0, 0.49)),
        )
        for _ in range(10_000)
    ]
    values = elite_index(sites)
    assert ((values >= 0.0) & (values <= 1.0)).all()
    reference = make_site(deadwood=30.0, stand_age=200.0, broadleaf_share=0.3,
                          dominant_species=Species.CONIFER)
    # broadleaf component does not apply to mesic heath; deadwood and age at reference
    assert elite_index([reference])[0] == pytest.approx(1.0)
    table = EliteTable(
        components=(
            EliteComponent("deadwood", weight=0.6, reference=20.0,
                           applicable_site_types=frozenset(SiteType)),
            EliteComponent("stand_age", weight=0.4, reference=150.0,
                           applicable_site_types=frozenset(SiteType)),
        )
    )
    hand = float(elite_index([make_site(deadwood=10.0, stand_age=150.0)], table)[0])
    assert hand == pytest.approx(0.7)
    print(f"[criterion 4] PASS: 10000 random states in [0,1], reference=1, hand case={hand:.4f}")


def test_criterion_05_old_growth_thresholds():
    cells = [
        (SiteType.HERB_RICH, Species.BROADLEAF, 70),
        (SiteType.HERB_RICH, Species.CONIFER, 100),
        (SiteType.HERB_RICH_HEATH, Species.BROADLEAF, 80),
        (SiteType.HERB_RICH_HEATH, Species.CONIFER, 100),
        (SiteType.MESIC_HEATH, Species.BROADLEAF, 80),
        (SiteType.MESIC_HEATH, Species.CONIFER, 120),
        (SiteType.SUB_XERIC_HEATH, Species.CONIFER, 140),
        (SiteType.XERIC_HEATH, Species.CONIFER, 140),
        (SiteType.BARREN_HEATH, Species.CONIFER, 140),
    ]
    for site_type, species, threshold in cells:
        share = 0.8 if species is Species.BROADLEAF else 0.2
        at = make_site(site_type=site_type, dominant_species=species, broadleaf_share=share,
                       stand_age=float(threshold))
        below = dataclasses.replace(at, stand_age=float(threshold - 1))
        assert is_old_growth(at)
        assert not is_old_growth(below)
    # the species-independent types accept broadleaf dominance at the same age
    for site_type in (SiteType.SUB_XERIC_HEATH, SiteType.XERIC_HEATH, SiteType.BARREN_HEATH):
        site = make_site(site_type=site_type, dominant_species=Species.BROADLEAF,
                         broadleaf_share=0.8, stand_age=140.0)
        assert is_old_growth(site)
    print(f"[criterion 5] PASS: all {len(cells)} threshold cells inclusive at the boundary")


def test_criterion_06_budget_matching():
    total = 5_000_000 + discounted_instalment_sum(760_000, 10, 0.03)
    assert total == pytest.approx(11_482_954, abs=1.0)
    budget = match_upfront_budget(5_000_000, 760_000, 10, 0.03, 11)
    assert budget == pytest.approx(1_204_900, abs=100.0)
    matched = npv([budget] * 11, 0.03)
    assert matched == pytest.approx(total, abs=0.01)
    rng = np.random.default_rng(606)
    for _ in range(100):
        initial = float(rng.uniform(1e5, 2e7))
        instalment = float(rng.uniform(0, 2e6))
        years = int(rng.integers(1, 30))
        delta = float(rng.uniform(0, 0.08))
        horizon = int(rng.integers(1, 35))
        b = match_upfront_budget(initial, instalment, years, delta, horizon)
        lhs = npv([b] * horizon, delta)
        rhs = initial + discounted_instalment_sum(instalment, years, delta)
        assert lhs == pytest.approx(rhs, abs=0.01)
    print(f"[criterion 6] PASS: stream NPV {total:,.0f} EUR, matched budget {budget:,.0f} EUR/yr, "
          f"round-trip within 0.01 EUR on 100 cases")


def test_criterion_07_structural_reproduction_on_synthetic_data():
    start = time.monotonic()
    profile = SyntheticProfile()
    lost_positive = 0
    deferred_wins = 0
    for seed in ACCEPTANCE_SEEDS:
        dataset = generate_synthetic(profile, seed)
        cfg = SchemeConfig(seed=seed)
        columns = site_columns(dataset, cfg, rng_stream(seed, PHI_STREAM))

        offered = {}
        for rate in (0.02, 0.03, 0.04):
            rate_cfg = dataclasses.replace(cfg, interest_rate_r=rate)
            offers = build_offers(columns, rate_cfg, Mechanism.DEFERRED)
            offered[rate] = sum(o.area_ha for o in offers)
        # (c) supply monotone in the interest rate, every seed
        assert offered[0.02] <= offered[0.03] <= offered[0.04]

        # (d) stretching the payment period shrinks supply, every seed
        long_cfg = dataclasses.replace(cfg, instalment_count_x=20)
        offered_20 = sum(
            o.area_ha
            for o in build_offers(columns, long_cfg, Mechanism.DEFERRED)
        )
        assert offered_20 < offered[0.03]

        offers_deferred = build_offers(columns, cfg, Mechanism.DEFERRED)
        offers_upfront = build_offers(columns, cfg, Mechanism.UPFRONT)
        schedule = draw_harvest_schedule(columns, cfg, rng_stream(seed, HARVEST_STREAM))
        deferred = run_deferred(cfg, 5e6, rank_benefit_cost(offers_deferred), schedule)

        # (a) every funded site conserved at year 0, nothing lost
        assert set(deferred.conserved_year.values()) <= {0}
        assert deferred.harvested_year == {}
        assert deferred.summary.harvested_area_ha == 0.0
        assert deferred.summary.lost_benefits == 0.0

        budget = match_upfront_budget(
            deferred.spending[0],
            deferred.summary.instalment_cost_per_year,
            cfg.instalment_count_x,
            cfg.discount_rate,
            cfg.horizon,
        )
        upfront = run_upfront(cfg, budget, rank_benefit_cost(offers_upfront), schedule)
        lost_positive += upfront.summary.harvested_area_ha > 0
        deferred_wins += (
            deferred.summary.ex_post_net_benefits >= upfront.summary.ex_post_net_benefits
        )

    elapsed = time.monotonic() - start
    # (b) and (e) are statistical across the seed panel
    assert lost_positive >= 18
    assert deferred_wins >= 18
    assert elapsed < 120.0
    print(f"[criterion 7] PASS: year-0 conservation and zero losses (a) and supply "
          f"monotonicity (c,d) on all {len(ACCEPTANCE_SEEDS)} seeds; up-front losses in "
          f"{lost_positive}/20 (b); deferred ex-post wins in {deferred_wins}/20 (e); "
          f"{elapsed:.1f}s")


def test_criterion_08_national_extrapolation():
    cfg = SchemeConfig()
    avg_upfront = 48e6 / (54_000 / cfg.horizon)
    report = extrapolate_national(4_050.0, 681.0, avg_upfront, 54_000.0, cfg)
    assert report.deferred_downpayments_total == pytest.approx(219e6, rel=0.01)
    assert report.deferred_instalments_per_year == pytest.approx(37e6, rel=0.01)
    assert report.deferred_npv == pytest.approx(533e6, rel=0.02)
    assert report.upfront_npv == pytest.approx(456e6, rel=0.02)
    print(f"[criterion 8] PASS: downpayments {report.deferred_downpayments_total/1e6:.1f}M, "
          f"instalments {report.deferred_instalments_per_year/1e6:.1f}M/yr, "
          f"NPV {report.deferred_npv/1e6:.0f}M vs {report.upfront_npv/1e6:.0f}M")


def test_criterion_09_manifest_reruns_bit_identical(tmp_path):
    scenario = {
        "dataset": {"synthetic": {"n_sites": 120}},
        "scheme": {"seed": 31},
        "mechanisms": "both",
        "budget": {"initial": 1_500_000.0, "upfront": "npv-matched"},
        "format": "both",
    }
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario), encoding="utf-8")
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert main(["run", str(scenario_path), "--out-dir", str(first)]) == EXIT_OK
    assert main(["run", str(first / "manifest.json"), "--out-dir", str(second)]) == EXIT_OK
    names = sorted(os.listdir(first))
    assert names == sorted(os.listdir(second))
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    print(f"[criterion 9] PASS: {len(names)} output files bit-identical on manifest re-run")


def test_criterion_10_annual_harvest_rate_band():
    cfg = SchemeConfig()
    means = []
    for seed in range(1, 11):
        dataset = generate_synthetic(SyntheticProfile(), seed)
        columns = site_columns(dataset, cfg, rng_stream(seed, PHI_STREAM))
        schedule = draw_harvest_schedule(columns, cfg, rng_stream(seed, HARVEST_STREAM))
        first_year = {
            site.id: max(0, math.ceil(site.commercial_rotation_age - site.stand_age))
            for site in dataset
        }
        first_year = {k: v for k, v in first_year.items() if v < cfg.harvest_window}
        yearly = []
        for year in range(cfg.harvest_window):
            eligible = sum(1 for y in first_year.values() if y <= year)
            cut = sum(1 for y in schedule.values() if y == year)
            if eligible:
                yearly.append(cut / eligible)
        mean_rate = sum(yearly) / len(yearly)
        assert 0.01 <= mean_rate <= 0.04
        means.append(mean_rate)
    print(f"[criterion 10] PASS: mean annual harvest rate per seed in "
          f"[{min(means):.3f}, {max(means):.3f}], all within the 1-4% band")
