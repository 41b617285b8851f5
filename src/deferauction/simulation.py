"""Experiment engine: supply, harvest risk, budget-constrained selection, accounting.

A scenario computes its per-site columns once, draws one harvest
realization, and then builds offers and runs either mechanism against them.
Both buy the same way (`fund`) and differ in when the state pays: the deferred
mechanism buys what it can at year 0 and owes instalments afterwards; the
up-front one buys yearly from an annual budget while stands go to harvest.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .bidding import draw_phi, optimal_downpayment, upfront_bid
from .ecology import (
    DEFAULT_ELITE_TABLE,
    OLD_GROWTH_THRESHOLDS,
    EliteTable,
    amenity_gain,
    elite_index,
)
from .finance import annuity_factor, npv, ordered_sum
from .model import ConfigError, Mechanism, SchemeConfig, SiteTable

# Harvest year of a stand the harvest draw never cuts.
NEVER_CUT = -1


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


@dataclass(frozen=True, eq=False)
class SiteColumns:
    """Per-site columns of one dataset under one seed, in dataset order.

    ``sites`` is the dataset, which holds each site's own attributes. ``v1``
    is the conservation payment per hectare (timber value plus land
    payment), ``amenity_gain`` a1 - a0 (zero for Faustmannian owners),
    ``elite`` the habitat index, ``id_rank`` each site's position when the
    ids are sorted (int32: a dataset holds at most dataio.MAX_SITES), and
    ``old_growth`` whether the stand meets its old-growth age threshold. None
    of them depends on r, x or the bid caps, so one set serves every
    mechanism and sweep point of a seed.
    """

    sites: SiteTable
    v1: np.ndarray
    amenity_gain: np.ndarray
    elite: np.ndarray
    id_rank: np.ndarray
    old_growth: np.ndarray

    def __len__(self) -> int:
        return len(self.sites)


@dataclass(frozen=True, eq=False)
class OfferTable:
    """One mechanism's standing offers, one row per participating site.

    ``site`` is each offer's row in ``columns``. ``downpayment_per_ha`` is the
    outlay at the year of conservation: the downpayment bid under the deferred
    mechanism, the full payment up front, where one array is also the total.
    """

    columns: SiteColumns
    site: np.ndarray
    downpayment_per_ha: np.ndarray
    instalment_per_ha: np.ndarray
    total_payment_npv_per_ha: np.ndarray

    def __len__(self) -> int:
        return len(self.site)

    def take(self, rows: np.ndarray) -> OfferTable:
        """The offers at `rows` (indices or a mask), in that order; a shared column stays shared."""
        arrays = [getattr(self, field.name) for field in dataclasses.fields(self)[1:]]
        distinct = {id(array): array for array in arrays}
        taken = {key: array[rows] for key, array in distinct.items()}
        return OfferTable(self.columns, *(taken[id(array)] for array in arrays))

    @property
    def area(self) -> np.ndarray:
        return self.columns.sites.area_ha[self.site]

    @property
    def elite(self) -> np.ndarray:
        return self.columns.elite[self.site]

    @property
    def cost(self) -> np.ndarray:
        """Budget outlay needed to conserve each site in its conservation year."""
        return self.downpayment_per_ha * self.area


UNFUNDED, CONSERVED, LOST = 0, 1, 2  # RunOutcome.fate codes
FATES = ("unfunded", "conserved", "lost")  # the ledger's status name of each code


@dataclass(frozen=True, eq=False)
class RunOutcome:
    """Everything one mechanism run produced: site fates, yearly spending, and accounting.

    ``offers`` are in funding order. ``fate[row]`` is the offer's fate code
    (UNFUNDED, CONSERVED or LOST), ``year[row]`` the year of that fate (int32:
    at most MAX_YEARS), -1 while unfunded. Runs decide fates a year at a time,
    each year in funding order: that is `decision_order`. ``spending[y]`` is
    the outlay in year y.
    """

    mechanism: Mechanism
    offers: OfferTable
    fate: np.ndarray
    year: np.ndarray
    spending: list[float]
    summary: RunSummary

    @property
    def conserved_year(self) -> dict[int, int]:
        """Offer row to year of conservation, in decision order."""
        return self._years(CONSERVED)

    @property
    def harvested_year(self) -> dict[int, int]:
        """Offer row to harvest year of each lost offer, in decision order."""
        return self._years(LOST)

    def _years(self, code: int) -> dict[int, int]:
        rows = decision_order(self.fate, self.year, code)
        return dict(zip(rows.tolist(), self.year[rows].tolist()))


def decision_order(fate: np.ndarray, year: np.ndarray, code: int) -> np.ndarray:
    """The rows of fate `code` in the order a run decides them: by year, then by row."""
    rows = np.flatnonzero(fate == code)
    return rows[np.argsort(year[rows], kind="stable")]


def site_columns(
    sites: SiteTable,
    cfg: SchemeConfig,
    rng: np.random.Generator,
    elite_table: EliteTable = DEFAULT_ELITE_TABLE,
) -> SiteColumns:
    """Owner types, amenity gains and habitat indices of every site in `sites`.

    Stands older than their commercial rotation age belong to Hartmanian
    owners; their preference scales come from `rng`, one draw per Hartmanian
    site in table order. Site ids must be unique: a repeated id raises
    ValueError.
    """
    ids = sites.ids
    by_id = sorted(range(len(ids)), key=ids.__getitem__)
    for first, second in zip(by_id, by_id[1:]):
        if ids[first] == ids[second]:
            raise ValueError(f"duplicate site id {ids[first]!r}")
    id_rank = np.empty(len(ids), np.int32)
    id_rank[by_id] = np.arange(len(ids))

    stand_age = sites.stand_age
    rotation_age = sites.commercial_rotation_age
    hartmanian = stand_age > rotation_age
    phi = draw_phi(rng, cfg.amenity, int(hartmanian.sum()))
    gain = np.zeros(len(sites))
    gain[hartmanian] = amenity_gain(stand_age[hartmanian], rotation_age[hartmanian], phi, cfg)
    thresholds = OLD_GROWTH_THRESHOLDS[sites.type_code, sites.broadleaf.astype(np.intp)]
    return SiteColumns(
        sites=sites,
        v1=sites.timber_value + sites.land_payment,
        amenity_gain=gain,
        elite=elite_index(sites, elite_table),
        id_rank=id_rank,
        old_growth=stand_age >= thresholds,
    )


def build_offers(columns: SiteColumns, cfg: SchemeConfig, mechanism: Mechanism) -> OfferTable:
    """Offers, in dataset order, from every landowner whose participation rule holds.

    Bids and participation come from the site columns as array operations:
    the optimal downpayment and its instalments under the deferred
    mechanism, the premium bid under the up-front one.
    """
    if mechanism is Mechanism.DEFERRED:
        outlay, instalment, joins = optimal_downpayment(
            columns.v1, columns.sites.opportunity_cost_v0, columns.amenity_gain, cfg
        )
        keep = np.flatnonzero(joins)
        outlay, instalment = outlay[keep], instalment[keep]
        total = outlay + instalment * annuity_factor(cfg.instalment_count_x, cfg.discount_rate)
    else:
        payment, joins = upfront_bid(
            columns.v1, columns.sites.opportunity_cost_v0, columns.amenity_gain, cfg.upfront_cap_hi
        )
        keep = np.flatnonzero(joins)
        outlay = total = payment[keep]
        instalment = np.zeros(len(keep))
    return OfferTable(columns, keep, outlay, instalment, total)


def draw_harvest_schedule(
    columns: SiteColumns, cfg: SchemeConfig, rng: np.random.Generator
) -> np.ndarray:
    """One harvest realization: each site's harvest year (int32), NEVER_CUT for sites not cut.

    Every stand maturing within the window is cut. A stand first eligible in
    year y0 (when it reaches its rotation age, 0 if already past it) draws a
    harvest year uniformly from {y0, ..., window-1}; one draw per eligible
    site, in dataset order.
    """
    sites = columns.sites
    first_year = np.maximum(0.0, np.ceil(sites.commercial_rotation_age - sites.stand_age))
    eligible = first_year < cfg.harvest_window
    years = np.full(len(columns), NEVER_CUT, dtype=np.int32)
    years[eligible] = rng.integers(first_year[eligible].astype(np.int64), cfg.harvest_window)
    return years


def rank_benefit_cost(offers: OfferTable) -> OfferTable:
    """Offers in funding order: benefit per euro of outlay, descending.

    Ties break toward the cheaper offer, then by site id, so the order is
    deterministic. Zero-cost offers with positive benefit rank first.
    """
    cost = offers.cost
    benefit = offers.elite * offers.area
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = np.where(cost > 0, benefit / cost, np.where(benefit > 0, np.inf, 0.0))
    id_rank = offers.columns.id_rank[offers.site]
    # One stable sort gives lexsort's order when no ratio is NaN and offers of equal ratio
    # already stand by cost, then id: the zero-outlay offers of a generated dataset do.
    order = np.argsort(-ratio, kind="stable")
    key, by_cost, by_id = -ratio[order], cost[order], id_rank[order]
    cheaper = (by_cost[:-1] < by_cost[1:]) | ((by_cost[:-1] == by_cost[1:]) & (by_id[:-1] < by_id[1:]))
    if np.isnan(key[-1:]).any() or not (cheaper | (key[:-1] != key[1:])).all():
        order = np.lexsort((id_rank, cost, -ratio))
    return offers.take(order)


def select_old_growth(offers: OfferTable) -> OfferTable:
    """Only the offers whose stands meet the old-growth age criteria."""
    return offers.take(offers.columns.old_growth[offers.site])


# Runs of fitting rows `fund` replays with one accumulate each before it
# finishes with the plain loop, so its worst case stays near the loop's.
_FUND_PASSES = 4


def fund(costs: np.ndarray, rows: np.ndarray, budget: float) -> tuple[np.ndarray, float]:
    """Skip-and-continue greedy funding of `rows`, best first: those `budget` pays, and their cost.

    A row is funded if its cost fits what is left of the budget, else skipped,
    so cheaper later rows may still be funded; a NaN cost never fits. What is
    left is the budget less each funded cost in turn, as a loop over the rows
    would subtract them; the cost is their sum added in that order.
    """
    cost = costs[rows]
    falling = not (cost < 0).any()  # then what is left can only fall
    funded = []
    remaining = budget
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_FUND_PASSES):
            if not len(rows):
                break
            # left[k] is what is left before row k if every earlier row fits.
            left = np.subtract.accumulate(np.concatenate(([remaining], cost)))
            fits = cost <= left[:-1]
            miss = int(fits.argmin())  # the first row that does not fit, if any does
            miss = len(cost) if fits[miss] else miss
            funded.append(rows[:miss])
            remaining = float(left[miss])
            rows, cost = rows[miss + 1 :], cost[miss + 1 :]
            if falling:  # drop what cannot fit now, nor later
                fits = cost <= remaining
                rows, cost = rows[fits], cost[fits]
    tail = []
    for row, row_cost in zip(rows.tolist(), cost.tolist()):
        if row_cost <= remaining:
            remaining -= row_cost
            tail.append(row)
    funded = np.concatenate([*funded, np.array(tail, dtype=np.intp)])
    return funded, ordered_sum(costs[funded])


def run_deferred(
    cfg: SchemeConfig,
    initial_budget: float,
    ranking: OfferTable,
    schedule: np.ndarray,
) -> RunOutcome:
    """Fund ranked offers from the initial budget, all at year 0.

    Offers whose site is already cut at year 0 are unavailable. Funded sites
    pay instalments in years 1..x; the program closes after year 0, so no
    site is ever awaiting conservation and no harvest loss is booked.
    """
    if initial_budget < 0:
        raise ValueError("initial_budget must be >= 0")
    fate = np.full(len(ranking), UNFUNDED, dtype=np.int8)
    year = np.full(len(ranking), -1, dtype=np.int32)
    available = np.flatnonzero(schedule[ranking.site] != 0)
    funded, spent = fund(ranking.cost, available, initial_budget)
    fate[funded], year[funded] = CONSERVED, 0
    instalment_per_year = ordered_sum((ranking.instalment_per_ha * ranking.area)[funded])
    spending = [spent]
    if instalment_per_year > 0:
        spending += [instalment_per_year] * cfg.instalment_count_x
    summary = account(initial_budget, ranking, fate, year, spending, cfg)
    return RunOutcome(Mechanism.DEFERRED, ranking, fate, year, spending, summary)


def run_upfront(
    cfg: SchemeConfig,
    annual_budget: float,
    ranking: OfferTable,
    schedule: np.ndarray,
) -> RunOutcome:
    """Fund ranked offers gradually from an annual budget over the horizon.

    Each year, stands reaching their harvest year while still unconserved are
    lost; then the year's budget funds the best remaining offers. Unspent
    budget does not roll over.
    """
    if annual_budget < 0:
        raise ValueError("annual_budget must be >= 0")
    costs = ranking.cost
    harvest = schedule[ranking.site]
    cut = np.where(harvest >= 0, harvest, cfg.horizon)  # the year a waiting offer is lost
    fate = np.full(len(ranking), UNFUNDED, dtype=np.int8)
    year = np.full(len(ranking), -1, dtype=np.int32)
    waiting = np.arange(len(ranking))  # the offers neither funded nor cut, in funding order
    spending: list[float] = []
    for now in range(cfg.horizon):
        waiting = waiting[(cut[waiting] > now) & (fate[waiting] == UNFUNDED)]
        funded, spent = fund(costs, waiting, annual_budget)
        fate[funded], year[funded] = CONSERVED, now
        spending.append(spent)
    # An offer still waiting in its cut year is lost then; one funded is conserved before it.
    lost = (fate == UNFUNDED) & (cut < cfg.horizon)
    fate[lost], year[lost] = LOST, harvest[lost]
    summary = account(annual_budget, ranking, fate, year, spending, cfg)
    return RunOutcome(Mechanism.UPFRONT, ranking, fate, year, spending, summary)


def account(
    budget: float,
    offers: OfferTable,
    fate: np.ndarray,
    year: np.ndarray,
    spending: list[float],
    cfg: SchemeConfig,
) -> RunSummary:
    """Accounting summary of a completed run with the given fate columns.

    Benefits accrue at the year each site is conserved; lost benefits are
    booked (negatively) at each lost site's harvest year; both discount at the
    accounting rate. Averages cover conserved sites only. Every sum adds left
    to right from 0.0 (`ordered_sum`) in decision order (year, then funding
    order), so totals are reproducible bit for bit on every supported Python.
    """
    delta = cfg.discount_rate
    area = offers.area
    conserved, lost = (decision_order(fate, year, code) for code in (CONSERVED, LOST))
    discount = np.array([(1.0 + delta) ** -y for y in range(year.max(initial=0) + 1)])
    benefits, lost_total = (
        ordered_sum(cfg.benefit_per_ha * area[rows] * discount[year[rows]])
        for rows in (conserved, lost)
    )
    lost_benefits = -lost_total if lost_total > 0 else 0.0
    supply = summarize_supply(offers, conserved)
    return RunSummary(
        area_ha=supply.area_ha,
        sites_conserved=supply.sites,
        bd_index_sum=supply.bd_index_sum,
        avg_stand_age=supply.avg_stand_age,
        avg_downpayment=supply.avg_downpayment,
        avg_instalment=supply.avg_instalment,
        avg_total_payment_npv=supply.avg_total_payment_npv,
        harvested_area_ha=ordered_sum(area[lost]),
        instalment_cost_per_year=ordered_sum(offers.instalment_per_ha[conserved] * area[conserved]),
        budget=budget,
        costs_npv=npv(spending, delta),
        costs_absolute=ordered_sum(spending),
        benefits_npv=benefits,
        lost_benefits=lost_benefits,
        ex_post_net_benefits=benefits + lost_benefits,
    )


def summarize_supply(offers: OfferTable, rows: np.ndarray | slice = slice(None)) -> SupplySummary:
    """Count, area, habitat-index sum and per-hectare averages of the offers at `rows`, in order."""
    site = offers.site[rows]
    area = offers.columns.sites.area_ha[site]
    total_area = ordered_sum(area)

    def per_ha_average(per_ha: np.ndarray) -> float:
        """Area-weighted average; 0 when there is no area."""
        return ordered_sum(per_ha * area) / total_area if total_area else 0.0

    return SupplySummary(
        sites=len(site),
        area_ha=total_area,
        bd_index_sum=ordered_sum(offers.columns.elite[site] * area),
        avg_stand_age=per_ha_average(offers.columns.sites.stand_age[site]),
        avg_downpayment=per_ha_average(offers.downpayment_per_ha[rows]),
        avg_instalment=per_ha_average(offers.instalment_per_ha[rows]),
        avg_total_payment_npv=per_ha_average(offers.total_payment_npv_per_ha[rows]),
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
    if not all(average >= 0 for average in (avg_downpayment, avg_instalment, avg_upfront)):
        raise ConfigError("per-hectare averages must be >= 0")
    delta = cfg.discount_rate
    downpayments = area_ha * avg_downpayment
    instalments = area_ha * avg_instalment
    deferred_npv = downpayments + instalments * annuity_factor(cfg.instalment_count_x, delta)
    area_per_year = area_ha / cfg.horizon
    cost_per_year = area_per_year * avg_upfront
    upfront_npv = npv([cost_per_year] * cfg.horizon, delta)
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
