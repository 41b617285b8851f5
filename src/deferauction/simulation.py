"""Experiment engine: supply, harvest risk, budget-constrained selection, accounting.

A scenario builds offers once, draws one harvest realization, and then runs
either mechanism against it. The deferred mechanism buys everything it can at
year 0 and owes instalments afterwards; the up-front mechanism buys gradually
from an annual budget while unconserved stands keep dropping to harvest.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .bidding import (
    draw_phi,
    optimal_downpayment,
    upfront_bid,
    upfront_participates,
)
from .ecology import (
    DEFAULT_ELITE_TABLE,
    EliteTable,
    classify_landowner,
    elite_index,
    is_old_growth,
    make_owner,
)
from .finance import annuity_factor, npv
from .model import Mechanism, OwnerKind, SchemeConfig, SiteRecord


@dataclass(frozen=True)
class Offer:
    """One participating landowner's standing offer.

    ``downpayment_per_ha`` is the outlay at the year of conservation: the
    downpayment bid under the deferred mechanism, the full payment up front.
    """

    site: SiteRecord
    mechanism: Mechanism
    elite: float
    downpayment_per_ha: float
    instalment_per_ha: float
    total_payment_npv_per_ha: float

    @property
    def area_ha(self) -> float:
        return self.site.area_ha

    @property
    def cost(self) -> float:
        """Budget outlay needed to conserve the site in its conservation year."""
        return self.downpayment_per_ha * self.site.area_ha

    @property
    def benefit(self) -> float:
        """Selection benefit: habitat index times area."""
        return self.elite * self.site.area_ha


@dataclass(frozen=True)
class SupplySummary:
    """Aggregates over a set of offers: all a mechanism attracted, or those it conserved."""

    sites: int
    area_ha: float
    bd_index_sum: float
    avg_stand_age: float
    avg_downpayment: float
    avg_instalment: float
    avg_total_payment_npv: float


@dataclass(frozen=True)
class RunSummary:
    """Outcome accounting for one mechanism run."""

    area_ha: float
    sites_conserved: int
    bd_index_sum: float
    avg_stand_age: float
    avg_downpayment: float
    avg_instalment: float
    avg_total_payment_npv: float
    harvested_area_ha: float
    instalment_cost_per_year: float
    budget: float
    costs_npv: float
    costs_absolute: float
    benefits_npv: float
    lost_benefits: float
    ex_post_net_benefits: float


@dataclass(frozen=True)
class RunOutcome:
    """Everything one mechanism run produced: site fates, yearly spending, and accounting.

    ``spending[y]`` is the outlay in year y. Sites in neither year map stayed
    unfunded.
    """

    mechanism: Mechanism
    offers: tuple[Offer, ...]
    conserved_year: dict[str, int]
    harvested_year: dict[str, int]
    spending: list[float]
    summary: RunSummary


def build_offers(
    dataset: list[SiteRecord],
    cfg: SchemeConfig,
    mechanism: Mechanism,
    rng: np.random.Generator,
    elite_table: EliteTable = DEFAULT_ELITE_TABLE,
) -> list[Offer]:
    """Offers from every landowner whose participation rule holds under `mechanism`.

    Owners are typed from stand age; Hartmanian preference scales come from
    `rng`, one draw per Hartmanian site in dataset order, so runs over the
    same dataset and seed see identical owners regardless of mechanism.
    Site ids must be unique: a repeated id raises ValueError.
    """
    instalment_pv = annuity_factor(cfg.instalment_count_x, cfg.discount_rate)
    seen: set[str] = set()
    offers: list[Offer] = []
    for site in dataset:
        if site.id in seen:
            raise ValueError(f"duplicate site id {site.id!r}")
        seen.add(site.id)
        kind = classify_landowner(site)
        phi = draw_phi(rng, cfg.amenity) if kind is OwnerKind.HARTMANIAN else 1.0
        owner = make_owner(site, phi, cfg)
        elite = elite_index(site, elite_table)
        if mechanism is Mechanism.DEFERRED:
            bid = optimal_downpayment(site, owner, cfg)
            if not bid.participates:
                continue
            outlay, instalment = bid.downpayment_c, bid.instalment_m
            total_npv = outlay + instalment * instalment_pv
        else:
            outlay = upfront_bid(site, owner, cfg.upfront_cap_hi)
            if not upfront_participates(outlay, site, owner):
                continue
            instalment, total_npv = 0.0, outlay
        offers.append(Offer(site, mechanism, elite, outlay, instalment, total_npv))
    return offers


def draw_harvest_schedule(
    dataset: list[SiteRecord], cfg: SchemeConfig, rng: np.random.Generator
) -> dict[str, int]:
    """One harvest realization: site id to harvest year; sites never cut are absent.

    Every stand maturing within the window is cut. A stand first eligible in
    year y0 (when it reaches its rotation age, 0 if already past it) draws a
    harvest year uniformly from {y0, ..., window-1}.
    """
    years: dict[str, int] = {}
    for site in dataset:
        gap = site.commercial_rotation_age - site.stand_age
        first_year = max(0, math.ceil(gap))
        if first_year < cfg.harvest_window:
            years[site.id] = int(rng.integers(first_year, cfg.harvest_window))
    return years


def rank_benefit_cost(offers: list[Offer]) -> list[Offer]:
    """Offers in funding order: benefit per euro of outlay, descending.

    Ties break toward the cheaper offer, then by site id, so the order is
    deterministic. Zero-cost offers with positive benefit rank first.
    """

    def sort_key(offer: Offer):
        if offer.cost > 0:
            ratio = offer.benefit / offer.cost
        else:
            ratio = math.inf if offer.benefit > 0 else 0.0
        return (-ratio, offer.cost, offer.site.id)

    return sorted(offers, key=sort_key)


def select_old_growth(offers: list[Offer]) -> list[Offer]:
    """Only the offers whose stands meet the old-growth age criteria."""
    return [offer for offer in offers if is_old_growth(offer.site)]


def run_deferred(
    cfg: SchemeConfig,
    initial_budget: float,
    ranking: list[Offer],
    schedule: dict[str, int],
) -> RunOutcome:
    """Fund ranked offers from the initial budget, all at year 0.

    Greedy skip-and-continue: an offer too expensive for the remaining budget
    is skipped and cheaper lower-ranked offers still get funded. Offers whose
    site is already cut at year 0 are unavailable. Funded sites pay
    instalments in years 1..x; the program closes after year 0, so no site is
    ever awaiting conservation and no harvest loss is booked.
    """
    if initial_budget < 0:
        raise ValueError("initial_budget must be >= 0")
    remaining = initial_budget
    conserved: dict[str, int] = {}
    instalment_per_year = 0.0
    spent = 0.0
    for offer in ranking:
        if schedule.get(offer.site.id) == 0:
            continue
        if offer.cost <= remaining:
            remaining -= offer.cost
            spent += offer.cost
            conserved[offer.site.id] = 0
            instalment_per_year += offer.instalment_per_ha * offer.area_ha
    spending = [spent]
    if instalment_per_year > 0:
        spending += [instalment_per_year] * cfg.instalment_count_x
    return RunOutcome(
        mechanism=Mechanism.DEFERRED,
        offers=tuple(ranking),
        conserved_year=conserved,
        harvested_year={},
        spending=spending,
        summary=account(Mechanism.DEFERRED, initial_budget, ranking, conserved, {}, spending, cfg),
    )


def run_upfront(
    cfg: SchemeConfig,
    annual_budget: float,
    ranking: list[Offer],
    schedule: dict[str, int],
) -> RunOutcome:
    """Fund ranked offers gradually from an annual budget over the horizon.

    Each year, stands reaching their harvest year while still unconserved are
    lost first; the year's budget then funds the best remaining offers
    (skip-and-continue). Unspent budget does not roll over.
    """
    if annual_budget < 0:
        raise ValueError("annual_budget must be >= 0")
    pending = list(ranking)
    conserved: dict[str, int] = {}
    harvested: dict[str, int] = {}
    spending: list[float] = []
    for year in range(cfg.horizon):
        available: list[Offer] = []
        for offer in pending:
            harvest_year = schedule.get(offer.site.id)
            if harvest_year is not None and harvest_year <= year:
                harvested[offer.site.id] = harvest_year
            else:
                available.append(offer)
        remaining = annual_budget
        spent = 0.0
        leftover: list[Offer] = []
        for offer in available:
            if offer.cost <= remaining:
                remaining -= offer.cost
                spent += offer.cost
                conserved[offer.site.id] = year
            else:
                leftover.append(offer)
        spending.append(spent)
        pending = leftover
    return RunOutcome(
        mechanism=Mechanism.UPFRONT,
        offers=tuple(ranking),
        conserved_year=conserved,
        harvested_year=harvested,
        spending=spending,
        summary=account(
            Mechanism.UPFRONT, annual_budget, ranking, conserved, harvested, spending, cfg
        ),
    )


def _per_ha_average(pairs: list[tuple[float, float]]) -> float:
    """Area-weighted average of (value_per_ha, area) pairs; 0 when empty."""
    total_area = sum(area for _, area in pairs)
    if total_area == 0:
        return 0.0
    return sum(value * area for value, area in pairs) / total_area


def account(
    mechanism: Mechanism,
    budget: float,
    offers: list[Offer],
    conserved_year: dict[str, int],
    harvested_year: dict[str, int],
    spending: list[float],
    cfg: SchemeConfig,
) -> RunSummary:
    """Accounting summary of a completed run.

    Benefits accrue at the year each site is conserved; lost benefits are
    booked (negatively) at each lost site's harvest year; both discount at the
    accounting rate. Averages cover conserved sites only.
    """
    by_id = {offer.site.id: offer for offer in offers}
    conserved = [(by_id[sid], year) for sid, year in conserved_year.items()]
    lost = [(by_id[sid], year) for sid, year in harvested_year.items()]
    delta = cfg.discount_rate

    benefits = sum(
        cfg.benefit_per_ha * o.area_ha * (1.0 + delta) ** (-year) for o, year in conserved
    )
    lost_total = sum(
        cfg.benefit_per_ha * o.area_ha * (1.0 + delta) ** (-year) for o, year in lost
    )
    lost_benefits = -lost_total if lost_total > 0 else 0.0
    if mechanism is Mechanism.DEFERRED:
        instalment_cost = sum(o.instalment_per_ha * o.area_ha for o, _ in conserved)
    else:
        instalment_cost = 0.0
    totals = dataclasses.asdict(summarize_supply([o for o, _ in conserved]))
    sites = totals.pop("sites")
    return RunSummary(
        sites_conserved=sites,
        **totals,
        harvested_area_ha=sum(o.area_ha for o, _ in lost),
        instalment_cost_per_year=instalment_cost,
        budget=budget,
        costs_npv=npv(spending, delta),
        costs_absolute=sum(spending),
        benefits_npv=benefits,
        lost_benefits=lost_benefits,
        ex_post_net_benefits=benefits + lost_benefits,
    )


def summarize_supply(offers: list[Offer]) -> SupplySummary:
    """Count, area, habitat-index sum, and per-hectare averages over `offers`."""
    return SupplySummary(
        sites=len(offers),
        area_ha=sum(o.area_ha for o in offers),
        bd_index_sum=sum(o.elite * o.area_ha for o in offers),
        avg_stand_age=_per_ha_average([(o.site.stand_age, o.area_ha) for o in offers]),
        avg_downpayment=_per_ha_average([(o.downpayment_per_ha, o.area_ha) for o in offers]),
        avg_instalment=_per_ha_average([(o.instalment_per_ha, o.area_ha) for o in offers]),
        avg_total_payment_npv=_per_ha_average(
            [(o.total_payment_npv_per_ha, o.area_ha) for o in offers]
        ),
    )


@dataclass(frozen=True)
class ExtrapolationReport:
    """Program-scale cost projection for conserving `area_ha` under both mechanisms."""

    area_ha: float
    deferred_downpayments_total: float
    deferred_instalments_per_year: float
    deferred_npv: float
    deferred_absolute: float
    upfront_area_per_year: float
    upfront_cost_per_year: float
    upfront_npv: float
    upfront_absolute: float


def extrapolate_national(
    avg_downpayment: float,
    avg_instalment: float,
    avg_upfront: float,
    area_ha: float,
    cfg: SchemeConfig,
) -> ExtrapolationReport:
    """Scale per-hectare averages to a conservation area of national size.

    Deferred: the whole area is bought at year 0 with instalments for x years.
    Up-front: the area is conserved evenly over the horizon, paying
    avg_upfront per hectare in the year each slice is conserved.
    """
    if area_ha < 0:
        raise ValueError("area_ha must be >= 0")
    if min(avg_downpayment, avg_instalment, avg_upfront) < 0:
        raise ValueError("per-hectare averages must be >= 0")
    delta = cfg.discount_rate
    downpayments = area_ha * avg_downpayment
    instalments = area_ha * avg_instalment
    deferred_npv = downpayments + instalments * annuity_factor(cfg.instalment_count_x, delta)
    area_per_year = area_ha / cfg.horizon
    cost_per_year = area_per_year * avg_upfront
    upfront_npv = sum(cost_per_year * (1.0 + delta) ** (-y) for y in range(cfg.horizon))
    return ExtrapolationReport(
        area_ha=area_ha,
        deferred_downpayments_total=downpayments,
        deferred_instalments_per_year=instalments,
        deferred_npv=deferred_npv,
        deferred_absolute=downpayments + cfg.instalment_count_x * instalments,
        upfront_area_per_year=area_per_year,
        upfront_cost_per_year=cost_per_year,
        upfront_npv=upfront_npv,
        upfront_absolute=cost_per_year * cfg.horizon,
    )
