import csv
import dataclasses
import json
import math

import numpy as np
import pytest

import oracle
from deferauction.dataio import (
    _CHUNK_ROWS,
    LoadError,
    SyntheticProfile,
    _site_ledger,
    generate_synthetic,
    load_sites,
    report_cells,
    write_report,
    write_sites,
    write_sweep,
)
from deferauction.finance import match_upfront_budget
from deferauction.model import Mechanism, SchemeConfig, validate_site
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

WELL_FORMED = """id,site_type,stand_age,stand_volume,dominant_species,broadleaf_share,deadwood,timber_value,opportunity_cost_v0,commercial_rotation_age,area_ha,land_payment
a1,mesic_heath,100,250,conifer,0.2,10,6600,6000,95,10,400
a2,herb_rich,60,180,broadleaf,0.7,5,5400,5500,85,12,400
a3,barren_heath,150,90,conifer,0.1,20,2900,3100,140,10,400
"""


class TestLoadSites:
    def test_well_formed_file(self, tmp_path):
        path = tmp_path / "sites.csv"
        path.write_text(WELL_FORMED, encoding="utf-8")
        sites, issues = load_sites(path)
        assert len(sites) == 3 and issues == []
        assert sites[1].area_ha == 12.0

    def test_bad_row_flagged_others_loaded(self, tmp_path):
        path = tmp_path / "sites.csv"
        path.write_text(
            WELL_FORMED + "bad,mesic_heath,100,-5,conifer,0.2,10,6600,6000,95,10,400\n",
            encoding="utf-8",
        )
        sites, issues = load_sites(path)
        assert len(sites) == 3
        assert len(issues) == 1
        assert issues[0].row == 4 and issues[0].column == "stand_volume"

    def test_unparseable_cell_reports_row_number(self, tmp_path):
        path = tmp_path / "sites.csv"
        path.write_text(
            WELL_FORMED.replace("a2,herb_rich,60", "a2,herb_rich,sixty"), encoding="utf-8"
        )
        sites, issues = load_sites(path)
        assert len(sites) == 2
        assert issues[0].row == 2 and issues[0].column == "stand_age"

    def test_defaults_applied_when_optional_columns_missing(self, tmp_path):
        path = tmp_path / "sites.csv"
        rows = [line.rsplit(",", 2)[0] for line in WELL_FORMED.strip().splitlines()]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        sites, issues = load_sites(path)
        assert issues == []
        assert all(s.area_ha == 10.0 and s.land_payment == 400.0 for s in sites)

    def test_repeated_id_reported_and_later_row_skipped(self, tmp_path):
        path = tmp_path / "sites.csv"
        path.write_text(WELL_FORMED + WELL_FORMED.splitlines()[1] + "\n", encoding="utf-8")
        sites, issues = load_sites(path)
        assert [s.id for s in sites] == ["a1", "a2", "a3"]
        assert len(issues) == 1
        assert (issues[0].row, issues[0].column) == (4, "id")

    def test_missing_required_column_rejects_file(self, tmp_path):
        path = tmp_path / "sites.csv"
        path.write_text("id,stand_age\nx,10\n", encoding="utf-8")
        with pytest.raises(LoadError, match="missing required columns"):
            load_sites(path)

    def test_non_utf8_file_rejected_naming_the_byte(self, tmp_path):
        path = tmp_path / "sites.csv"
        header = WELL_FORMED.splitlines()[0]
        row = "m\xe4nty,mesic_heath,100,250,conifer,0.2,10,6600,6000,95,10,400"
        path.write_bytes(f"{header}\n{row}\n".encode("latin-1"))
        where = rf"byte 0xe4 at offset {len(header) + 2} \(line 2\)"
        with pytest.raises(LoadError, match=rf"sites.csv: not UTF-8 text: {where}"):
            load_sites(path)

    def test_non_utf8_byte_past_the_first_read_located_in_the_file(self, tmp_path):
        path = tmp_path / "sites.csv"
        rows = WELL_FORMED.splitlines()
        good = "\n".join(rows + [rows[1].replace("a1,", f"x{i},") for i in range(500)]) + "\n"
        path.write_bytes(good.encode() + b"m\xe4nty" + rows[1][2:].encode() + b"\n")
        line = good.count("\n") + 1
        where = rf"byte 0xe4 at offset {len(good) + 1} \(line {line}\)"
        with pytest.raises(LoadError, match=where):
            load_sites(path)

    def test_unknown_site_type_flagged(self, tmp_path):
        path = tmp_path / "sites.csv"
        path.write_text(
            WELL_FORMED.replace("barren_heath", "swamp"), encoding="utf-8"
        )
        sites, issues = load_sites(path)
        assert len(sites) == 2
        assert issues[0].column == "site_type"


class TestGenerateSynthetic:
    def test_default_profile_is_valid_and_in_range(self):
        sites = generate_synthetic(SyntheticProfile(), 1)
        assert len(sites) == 400
        for site in sites:
            assert validate_site(site) == []
            assert 6.0 <= site.stand_age <= 230.0

    def test_deterministic_for_seed(self):
        a = generate_synthetic(SyntheticProfile(n_sites=50), 11)
        b = generate_synthetic(SyntheticProfile(n_sites=50), 11)
        assert a == b
        c = generate_synthetic(SyntheticProfile(n_sites=50), 12)
        assert a != c

    def test_zero_sites(self):
        assert generate_synthetic(SyntheticProfile(n_sites=0), 1) == []

    def test_round_trip_through_csv(self, tmp_path):
        sites = generate_synthetic(SyntheticProfile(n_sites=80), 2)
        path = tmp_path / "gen.csv"
        write_sites(sites, path)
        loaded, issues = load_sites(path)
        assert issues == []
        assert loaded == sites

    def test_values_track_volume(self):
        sites = generate_synthetic(SyntheticProfile(), 3)
        volume = np.array([s.stand_volume for s in sites])
        v0 = np.array([s.opportunity_cost_v0 for s in sites])
        v1 = np.array([s.timber_value + s.land_payment for s in sites])

        def spearman(x, y):
            rx = np.argsort(np.argsort(x)).astype(float)
            ry = np.argsort(np.argsort(y)).astype(float)
            return float(np.corrcoef(rx, ry)[0, 1])

        assert spearman(volume, v0) > 0.5
        assert spearman(volume, v1) > 0.5

    def test_invalid_profile_rejected(self):
        with pytest.raises(ValueError):
            SyntheticProfile(site_type_mix=(1.0, 0.0, 0.0, 0.0, 0.0, 0.5)).validate()


def _paired_outcomes(n_sites=120, seed=6, initial=1.5e6, dataset=None):
    if dataset is None:
        dataset = generate_synthetic(SyntheticProfile(n_sites=n_sites), seed)
    cfg = SchemeConfig(seed=seed)
    supplies = {}
    columns = site_columns(dataset, cfg, rng_stream(seed, PHI_STREAM))
    offers_d = build_offers(columns, cfg, Mechanism.DEFERRED)
    offers_u = build_offers(columns, cfg, Mechanism.UPFRONT)
    supplies[Mechanism.DEFERRED] = summarize_supply(offers_d)
    supplies[Mechanism.UPFRONT] = summarize_supply(offers_u)
    schedule = draw_harvest_schedule(columns, cfg, rng_stream(seed, HARVEST_STREAM))
    deferred = run_deferred(cfg, initial, rank_benefit_cost(offers_d), schedule)
    budget = match_upfront_budget(
        deferred.spending[0],
        deferred.summary.instalment_cost_per_year,
        cfg.instalment_count_x,
        cfg.discount_rate,
        cfg.horizon,
    )
    upfront = run_upfront(cfg, budget, rank_benefit_cost(offers_u), schedule)
    return cfg, [deferred, upfront], supplies


class TestWriteReport:
    def test_summary_has_one_row_per_mechanism(self, tmp_path):
        cfg, outcomes, supplies = _paired_outcomes()
        write_report(outcomes, supplies, cfg, tmp_path, fmt="csv")
        lines = (tmp_path / "summary.csv").read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 3
        header = lines[0].split(",")
        assert header[0] == "mechanism"
        assert {row.split(",")[0] for row in lines[1:]} == {"deferred", "upfront"}

    def test_no_losses_means_zero_lost_benefits_column(self, tmp_path):
        cfg, outcomes, supplies = _paired_outcomes()
        write_report(outcomes[:1], supplies, cfg, tmp_path, fmt="csv")
        lines = (tmp_path / "summary.csv").read_text(encoding="utf-8").strip().splitlines()
        header = lines[0].split(",")
        row = lines[1].split(",")
        assert row[header.index("lost_benefits")] == "0.00"

    def test_json_cumulative_series_self_consistent(self, tmp_path):
        cfg, outcomes, supplies = _paired_outcomes()
        write_report(outcomes, supplies, cfg, tmp_path, fmt="json")
        payload = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
        assert payload["schema_version"] == 3
        for run in payload["runs"]:
            cumulative = 0.0
            for row in run["timeseries"]:
                cumulative += row["annual_cost"]
                assert row["cumulative_cost"] == cumulative
            cumulative_area = 0.0
            for row in run["timeseries"]:
                cumulative_area += row["annual_area_ha"]
                assert row["cumulative_area_ha"] == cumulative_area

    def test_site_ledger_statuses(self, tmp_path):
        cfg, outcomes, supplies = _paired_outcomes()
        write_report(outcomes, supplies, cfg, tmp_path, fmt="csv")
        ledger = (tmp_path / "sites_upfront.csv").read_text(encoding="utf-8").splitlines()
        statuses = {line.split(",")[1] for line in ledger[1:]}
        assert statuses <= {"conserved", "lost", "unfunded"}
        assert "conserved" in statuses

    def test_bad_format_rejected(self, tmp_path):
        cfg, outcomes, supplies = _paired_outcomes()
        with pytest.raises(ValueError):
            write_report(outcomes, supplies, cfg, tmp_path, fmt="xml")


def _report_bytes(writer, out_dir, outcomes, supplies, cfg, fmt):
    written = writer(outcomes, supplies, cfg, out_dir, fmt)
    return [(path.name, path.read_bytes()) for path in written]


def assert_same_report(tmp_path, outcomes, supplies, cfg):
    """write_report writes, in every format, the bytes of the row-wise reference writer."""
    for fmt in ("csv", "json", "both"):
        ours = _report_bytes(write_report, tmp_path / f"ours-{fmt}", outcomes, supplies, cfg, fmt)
        reference = _report_bytes(
            oracle.write_report, tmp_path / f"reference-{fmt}", outcomes, supplies, cfg, fmt
        )
        assert [name for name, _ in ours] == [name for name, _ in reference]
        for (name, data), (_, expected) in zip(ours, reference):
            assert data == expected, f"{fmt}: {name} differs"


ESCAPED_IDS = ("a,b", 'q"uote', "back\\slash", "m\u00e4nty", "\U0001f332", "new\nline")


class TestReportBytes:
    @pytest.mark.parametrize("fmt", ["csv", "json", "both"])
    def test_every_format_writes_the_ledger_csv(self, tmp_path, fmt):
        cfg, outcomes, supplies = _paired_outcomes(initial=5e5)
        write_report(outcomes, supplies, cfg, tmp_path / "ours", fmt)
        oracle.write_report(outcomes, supplies, cfg, tmp_path / "reference", fmt)
        for outcome in outcomes:
            name = f"sites_{outcome.mechanism.value}.csv"
            ledger = (tmp_path / "ours" / name).read_bytes()
            assert ledger == (tmp_path / "reference" / name).read_bytes()
            with open(tmp_path / "ours" / name, newline="", encoding="utf-8") as fh:
                assert len(list(csv.DictReader(fh))) == len(outcome.offers) > 0
        summary = tmp_path / "ours" / "summary.json"
        assert summary.exists() == (fmt != "csv")
        if fmt != "csv":
            payload = json.loads(summary.read_text(encoding="utf-8"))
            assert payload["schema_version"] == 3
            assert all("sites" not in run for run in payload["runs"])

    def test_paired_run_with_every_fate(self, tmp_path):
        cfg, outcomes, supplies = _paired_outcomes(initial=5e5)
        statuses = set(_site_ledger(outcomes[1])["status"])
        assert statuses == {"conserved", "lost", "unfunded"}
        assert_same_report(tmp_path, outcomes, supplies, cfg)

    def test_ids_that_need_quoting_or_escaping(self, tmp_path):
        dataset = [
            dataclasses.replace(site, id=f"{ESCAPED_IDS[i % len(ESCAPED_IDS)]}{i:03d}")
            for i, site in enumerate(generate_synthetic(SyntheticProfile(n_sites=120), 6))
        ]
        cfg, outcomes, supplies = _paired_outcomes(dataset=dataset)
        for outcome in outcomes:
            ids = _site_ledger(outcome)["site_id"]
            assert {site_id[:-3] for site_id in ids} == set(ESCAPED_IDS)
        assert_same_report(tmp_path, outcomes, supplies, cfg)

    def test_mechanism_without_offers_writes_an_empty_ledger(self, tmp_path):
        cfg, outcomes, supplies = _paired_outcomes()
        deferred = outcomes[0]
        empty = deferred.offers.take(np.zeros(0, dtype=np.intp))
        outcome = run_deferred(cfg, 1e6, empty, np.zeros(0, dtype=np.int64))
        assert_same_report(tmp_path, [outcome, outcomes[1]], supplies, cfg)
        for fmt in ("csv", "json"):
            assert (tmp_path / f"ours-{fmt}" / "sites_deferred.csv").read_text() == (
                ",".join(_site_ledger(outcome)) + "\n"
            )

    def test_ledger_longer_than_one_chunk(self, tmp_path):
        cfg, outcomes, supplies = _paired_outcomes(n_sites=3 * _CHUNK_ROWS)
        assert all(len(outcome.offers) > 2 * _CHUNK_ROWS for outcome in outcomes)
        assert_same_report(tmp_path, outcomes, supplies, cfg)

    def test_non_finite_ledger_numbers(self, tmp_path):
        cfg, outcomes, supplies = _paired_outcomes()
        offers = outcomes[1].offers
        elite = offers.elite.copy()
        elite[:4] = [math.nan, math.inf, -math.inf, -0.0]
        outcome = dataclasses.replace(outcomes[1], offers=dataclasses.replace(offers, elite=elite))
        assert_same_report(tmp_path, [outcomes[0], outcome], supplies, cfg)
        with open(tmp_path / "ours-json" / "sites_upfront.csv", newline="", encoding="utf-8") as fh:
            cells = {row["elite"] for row in csv.DictReader(fh)}
        assert {"nan", "inf", "-inf", "-0.00"} <= cells

    def test_sweep_table(self, tmp_path):
        cfg, outcomes, supplies = _paired_outcomes()
        rows = []
        for index, rate in enumerate((0.02, 0.025, 1 / 3)):
            row = {"point": index, "interest_rate": rate, "payment_periods": 10}
            row |= {"bid_cap_scale": 1.0, "seed": 6, "status": "ok"}
            for outcome in outcomes:
                cells = report_cells(outcome, supplies[outcome.mechanism])
                row |= {f"{outcome.mechanism.value}_{k}": v for k, v in cells.items()}
            rows.append(row)
        rows[1] = {k: rows[1][k] for k in ("point", "interest_rate", "payment_periods")}
        rows[1] |= {"bid_cap_scale": 1.125, "seed": 6, "status": "error: a, \"quoted\" reason"}
        mechanisms = [outcome.mechanism for outcome in outcomes]
        write_sweep(tmp_path / "ours.csv", mechanisms, rows)
        oracle.write_sweep(tmp_path / "reference.csv", mechanisms, rows)
        assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
