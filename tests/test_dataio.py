import csv
import dataclasses
import io
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle
from deferauction import dataio
from deferauction.dataio import (
    _CHUNK_ROWS,
    LEDGER_COLUMNS,
    MAX_SITES,
    OPTIONAL_COLUMNS,
    REQUIRED_COLUMNS,
    LoadError,
    SyntheticProfile,
    generate_synthetic,
    load_sites,
    report_cells,
    write_report,
    write_sites,
    write_sweep,
)
from deferauction.finance import match_upfront_budget
from deferauction.model import MAX_YEARS, ConfigError, Mechanism, SchemeConfig, SiteType
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
        assert sites.area_ha[1] == 12.0

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
        assert sites.area_ha.tolist() == [10.0] * 3 and sites.land_payment.tolist() == [400.0] * 3

    def test_repeated_id_reported_and_later_row_skipped(self, tmp_path):
        path = tmp_path / "sites.csv"
        path.write_text(WELL_FORMED + WELL_FORMED.splitlines()[1] + "\n", encoding="utf-8")
        sites, issues = load_sites(path)
        assert sites.ids == ["a1", "a2", "a3"]
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

    def test_cell_over_the_csv_field_limit_rejected_naming_the_line(self, tmp_path):
        path = tmp_path / "sites.csv"
        rows = WELL_FORMED.splitlines()
        path.write_text("\n".join([*rows, "x" * 200_000 + rows[1][2:]]) + "\n", encoding="utf-8")
        line = len(rows) + 1
        with pytest.raises(LoadError, match=rf"sites.csv: line {line}: field larger than"):
            load_sites(path)

    def test_unknown_site_type_flagged(self, tmp_path):
        path = tmp_path / "sites.csv"
        path.write_text(
            WELL_FORMED.replace("barren_heath", "swamp"), encoding="utf-8"
        )
        sites, issues = load_sites(path)
        assert len(sites) == 2
        assert issues[0].column == "site_type"


@st.composite
def profiles(draw):
    """Synthetic profiles of at most 30 sites, every field drawn.

    In half the examples each field comes from its plausible range; in the
    other half from a wide one, with negatives and extremes.
    """
    wild = draw(st.booleans())

    def number(lo, hi, wide_lo):
        if wild:
            extremes = st.sampled_from([0.0, 1e-300, 1e300, -1e300])
            return draw(st.one_of(st.floats(wide_lo, hi), extremes))
        return draw(st.floats(lo, hi))

    def probabilities(size):
        if wild:
            return draw(st.tuples(*[st.floats(-0.2, 1.0)] * size))
        weights = draw(st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size))
        return tuple(w / sum(weights) for w in weights)

    def beta():
        return number(0.05, 12.0, -0.5)

    ages = [number(0.0, 400.0, -10.0) for _ in range(4)]
    if not wild or draw(st.booleans()):
        ages.sort()
    age_min, edge_lo, edge_hi, age_max = ages
    return SyntheticProfile(
        n_sites=draw(st.integers(-1 if wild else 0, 30)),
        age_min=age_min,
        age_max=age_max,
        age_band_weights=probabilities(3),
        age_band_edges=(edge_lo, edge_hi),
        site_type_mix=probabilities(6),
        volume_v_max=tuple(number(0.0, 600.0, -50.0) for _ in range(6)),
        volume_growth=tuple(number(0.001, 0.1, -0.05) for _ in range(6)),
        volume_noise_sd=number(0.0, 2.0, -0.1),
        timber_price_per_m3=number(0.0, 100.0, -5.0),
        price_noise_sd=number(0.0, 2.0, -0.1),
        v0_harvest_net_factor=number(0.0, 1.5, -0.5),
        v0_bare_land=tuple(number(0.0, 2000.0, -500.0) for _ in range(6)),
        v0_discount_rate=number(0.0, 0.2, -1.5),
        v0_horizon=draw(st.integers(-2 if wild else 0, 60)),
        v0_noise_sd=number(0.0, 2.0, -0.1),
        deadwood_max=number(0.0, 80.0, -5.0),
        deadwood_exponent=number(0.0, 4.0, -2.0),
        deadwood_noise_sd=number(0.0, 2.0, -0.1),
        broadleaf_beta=tuple((beta(), beta()) for _ in range(6)),
        area_ha=number(0.001, 50.0, -1.0),
        land_payment=number(0.0, 1000.0, -10.0),
    )


class TestGenerateSynthetic:
    def test_default_profile_is_valid_and_in_range(self):
        sites = generate_synthetic(SyntheticProfile(), 1)
        assert len(sites) == 400
        for site in oracle.site_records(sites):
            assert oracle.validate_site(site) == []
            assert 6.0 <= site.stand_age <= 230.0

    def test_deterministic_for_seed(self):
        a = generate_synthetic(SyntheticProfile(n_sites=50), 11)
        b = generate_synthetic(SyntheticProfile(n_sites=50), 11)
        assert oracle.site_records(a) == oracle.site_records(b)
        c = generate_synthetic(SyntheticProfile(n_sites=50), 12)
        assert oracle.site_records(a) != oracle.site_records(c)

    def test_zero_sites(self):
        assert len(generate_synthetic(SyntheticProfile(n_sites=0), 1)) == 0

    @pytest.mark.parametrize("field, bound", [("n_sites", MAX_SITES), ("v0_horizon", MAX_YEARS)])
    def test_size_fields_are_bounded(self, field, bound):
        assert SyntheticProfile(**{field: bound}).validate() == []
        for huge in (bound + 1, 10**21):
            broken = SyntheticProfile(**{field: huge}).validate()
            assert broken == [f"bad synthetic profile: {field} must be <= {bound}"]

    def test_round_trip_through_csv(self, tmp_path):
        sites = generate_synthetic(SyntheticProfile(n_sites=80), 2)
        path = tmp_path / "gen.csv"
        write_sites(sites, path)
        loaded, issues = load_sites(path)
        assert issues == []
        assert oracle.site_records(loaded) == oracle.site_records(sites)

    def test_ids_that_need_quoting_round_trip(self, tmp_path):
        sites = generate_synthetic(SyntheticProfile(n_sites=len(ESCAPED_IDS)), 2)
        sites = dataclasses.replace(sites, ids=list(ESCAPED_IDS))
        write_sites(sites, tmp_path / "gen.csv")
        loaded, issues = load_sites(tmp_path / "gen.csv")
        assert issues == []
        assert oracle.site_records(loaded) == oracle.site_records(sites)

    def test_values_track_volume(self):
        sites = generate_synthetic(SyntheticProfile(), 3)
        volume = sites.stand_volume
        v0 = sites.opportunity_cost_v0
        v1 = sites.timber_value + sites.land_payment

        def spearman(x, y):
            rx = np.argsort(np.argsort(x)).astype(float)
            ry = np.argsort(np.argsort(y)).astype(float)
            return float(np.corrcoef(rx, ry)[0, 1])

        assert spearman(volume, v0) > 0.5
        assert spearman(volume, v1) > 0.5

    def test_invalid_profile_rejected(self):
        broken = SyntheticProfile(site_type_mix=(1.0, 0.0, 0.0, 0.0, 0.0, 0.5)).validate()
        assert broken == ["bad synthetic profile: site_type_mix must be >= 0 and sum to 1"]
        with pytest.raises(ConfigError, match="site_type_mix"):
            generate_synthetic(SyntheticProfile(site_type_mix=(1.0, 0.0, 0.0, 0.0, 0.0, 0.5)), 1)

    def test_every_broken_profile_rule_is_listed(self):
        profile = SyntheticProfile(n_sites=-5, age_min=-1, site_type_mix=(), volume_noise_sd=-1)
        assert profile.validate() == [
            "bad synthetic profile: site_type_mix must have one entry per site type",
            "bad synthetic profile: n_sites must be >= 0",
            "bad synthetic profile: age_min must be >= 0",
            "bad synthetic profile: site_type_mix must be >= 0 and sum to 1",
            "bad synthetic profile: volume_noise_sd must be >= 0",
        ]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # draws that overflow or divide by 0
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(profile=profiles(), seed=st.integers(0, 2**32))
    def test_a_profile_that_generates_round_trips(self, profile, seed):
        try:
            sites = generate_synthetic(profile, seed)
        except ConfigError:
            return
        with tempfile.TemporaryDirectory() as tmp:
            write_sites(sites, Path(tmp) / "gen.csv")
            loaded, issues = load_sites(Path(tmp) / "gen.csv")
        assert issues == []
        assert oracle.site_records(loaded) == oracle.site_records(sites)


# A corpus of broken cells: each drawn row starts sound and has up to three
# cells replaced from these, then may be cut short, run long or be blank.
PADDING = st.sampled_from(["", "", " ", "  ", "\t", "\u00a0", "\u2003", "\x0b"])
IDS = ["a", "b", "c", "d", "e", "a,b", 'q"x', "m\u00e4nty"]
BROKEN_CELLS = {
    "id": ["", " ", "a", "b"],
    "site_type": ["", "swamp", "Mesic_heath", "herb_rich;mesic_heath", "xeric_heath"],
    "dominant_species": ["", "spruce", "Conifer", "broadleaf", "conifer"],
}
BROKEN_NUMBERS = [
    "", " ", "nan", "NaN", "inf", "-inf", "Infinity", "1e999", "x", "1__0", "_1", "0x10",
    "1_000", "1_0.5", "+3", ".5", "5.", "\u0663", "-1", "-0", "0", "1", "0.5", "1.5", "-0.2",
]
NUMERIC_COLUMNS = [c for c in REQUIRED_COLUMNS + OPTIONAL_COLUMNS if c not in BROKEN_CELLS]


@st.composite
def site_rows(draw, header):
    share = draw(st.floats(0.0, 1.0))
    cells = {
        "id": draw(st.sampled_from(IDS)),
        "site_type": draw(st.sampled_from([t.value for t in SiteType])),
        "dominant_species": "broadleaf" if share >= 0.5 else "conifer",
        **{name: repr(draw(st.floats(0.001, 500.0))) for name in NUMERIC_COLUMNS},
        "broadleaf_share": repr(share),
    }
    for column in draw(st.lists(st.sampled_from(header), max_size=3)):
        cells[column] = draw(st.sampled_from(BROKEN_CELLS.get(column, BROKEN_NUMBERS)))
    row = [draw(PADDING) + cells[column] + draw(PADDING) for column in header]
    shape = draw(st.sampled_from(["whole", "whole", "whole", "short", "long", "blank"]))
    if shape == "short":
        return row[: draw(st.integers(1, len(row) - 1))]
    if shape == "long":
        return row + draw(st.lists(st.sampled_from(["", "x", "1"]), min_size=1, max_size=3))
    return [] if shape == "blank" else row


@st.composite
def site_csvs(draw):
    """A site CSV: the columns in any order, either optional column left out, up to 12 rows."""
    header = [
        column
        for column in draw(st.permutations(REQUIRED_COLUMNS + OPTIONAL_COLUMNS))
        if column in REQUIRED_COLUMNS or draw(st.booleans())
    ]
    rows = draw(st.lists(site_rows(header), max_size=12))
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue()


def assert_loads_like_the_oracle(path):
    """The table loader keeps the rows and reports the issues of the per-row loader."""
    table, issues = load_sites(path)
    records, expected = oracle.load_sites(path)
    assert issues == expected
    assert oracle.site_records(table) == records
    assert (table.type_code.dtype, table.broadleaf.dtype, table.area_ha.dtype) == (
        np.intp,
        bool,
        np.float64,
    )
    return table, issues


class TestTableLoaderAgainstOracle:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(text=site_csvs(), chunk_rows=st.sampled_from([1, 2, 5, 2000]))
    def test_broken_cells(self, tmp_path, text, chunk_rows):
        path = tmp_path / "sites.csv"
        path.write_text(text, encoding="utf-8")
        with mock.patch.object(dataio, "_LOAD_CHUNK_ROWS", chunk_rows):
            assert_loads_like_the_oracle(path)

    def test_validate_golden_input(self):
        path = Path(__file__).parent / "golden" / "validate" / "sites.csv"
        table, issues = assert_loads_like_the_oracle(path)
        assert len(table) > 0 and len(issues) > 0

    def test_bad_rows_and_repeated_ids_across_chunks(self, tmp_path):
        chunk = dataio._LOAD_CHUNK_ROWS
        path = tmp_path / "sites.csv"
        write_sites(generate_synthetic(SyntheticProfile(n_sites=2 * chunk + 500), 5), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        bad = lines[1].replace("site-000000", "site-bad").split(",")
        bad[2] = "-1"
        for at in (chunk, chunk + 1, 2 * chunk + 3):
            lines[at] = lines[at - chunk + 7]  # repeats an id of an earlier chunk
        lines[chunk - 1] = ",".join(bad)
        lines.insert(chunk + 5, "")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        table, issues = assert_loads_like_the_oracle(path)
        assert [issue.column for issue in issues] == ["stand_age", "id", "id", "id"]
        assert len(table) == 2 * chunk + 500 - 4

    @pytest.mark.parametrize(
        "profile, seed",
        [
            (SyntheticProfile(), 1),
            (SyntheticProfile(n_sites=50), 11),
            (SyntheticProfile(n_sites=0), 3),
            (SyntheticProfile(n_sites=300, area_ha=2.5, land_payment=0.0), 7),
        ],
    )
    def test_generated_table_equals_the_per_site_records(self, profile, seed):
        table = generate_synthetic(profile, seed)
        assert oracle.site_records(table) == oracle.generate_records(profile, seed)


def _paired_runs(n_sites=120, seed=6, initial=1.5e6, dataset=None):
    if dataset is None:
        dataset = generate_synthetic(SyntheticProfile(n_sites=n_sites), seed)
    cfg = SchemeConfig(seed=seed)
    columns = site_columns(dataset, cfg, rng_stream(seed, PHI_STREAM))
    offers_d = build_offers(columns, cfg, Mechanism.DEFERRED)
    offers_u = build_offers(columns, cfg, Mechanism.UPFRONT)
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
    return cfg, [(deferred, summarize_supply(offers_d)), (upfront, summarize_supply(offers_u))]


class TestWriteReport:
    def test_summary_has_one_row_per_mechanism(self, tmp_path):
        cfg, runs = _paired_runs()
        write_report(runs, cfg, tmp_path, fmt="csv")
        lines = (tmp_path / "summary.csv").read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 3
        header = lines[0].split(",")
        assert header[0] == "mechanism"
        assert {row.split(",")[0] for row in lines[1:]} == {"deferred", "upfront"}

    def test_no_losses_means_zero_lost_benefits_column(self, tmp_path):
        cfg, runs = _paired_runs()
        write_report(runs[:1], cfg, tmp_path, fmt="csv")
        lines = (tmp_path / "summary.csv").read_text(encoding="utf-8").strip().splitlines()
        header = lines[0].split(",")
        row = lines[1].split(",")
        assert row[header.index("lost_benefits")] == "0.00"

    def test_json_cumulative_series_self_consistent(self, tmp_path):
        cfg, runs = _paired_runs()
        write_report(runs, cfg, tmp_path, fmt="json")
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
        cfg, runs = _paired_runs()
        write_report(runs, cfg, tmp_path, fmt="csv")
        ledger = (tmp_path / "sites_upfront.csv").read_text(encoding="utf-8").splitlines()
        statuses = {line.split(",")[1] for line in ledger[1:]}
        assert statuses <= {"conserved", "lost", "unfunded"}
        assert "conserved" in statuses

    def test_bad_format_rejected(self, tmp_path):
        cfg, runs = _paired_runs()
        with pytest.raises(ValueError):
            write_report(runs, cfg, tmp_path, fmt="xml")


def _oracle_report(runs, cfg, out_dir, fmt):
    """oracle.write_report, which takes the outcomes and their supplies by mechanism."""
    supplies = {outcome.mechanism: supply for outcome, supply in runs}
    return oracle.write_report([outcome for outcome, _ in runs], supplies, cfg, out_dir, fmt)


def _report_bytes(writer, out_dir, runs, cfg, fmt):
    written = writer(runs, cfg, out_dir, fmt)
    return [(path.name, path.read_bytes()) for path in written]


def assert_same_report(tmp_path, runs, cfg):
    """write_report writes, in every format, the bytes of the row-wise reference writer."""
    for fmt in ("csv", "json", "both"):
        ours = _report_bytes(write_report, tmp_path / f"ours-{fmt}", runs, cfg, fmt)
        reference = _report_bytes(_oracle_report, tmp_path / f"reference-{fmt}", runs, cfg, fmt)
        assert [name for name, _ in ours] == [name for name, _ in reference]
        for (name, data), (_, expected) in zip(ours, reference):
            assert data == expected, f"{fmt}: {name} differs"


ESCAPED_IDS = (
    "a,b",
    'q"uote',
    "back\\slash",
    "m\u00e4nty",
    "\U0001f332",
    "new\nline",
    "carriage\rreturn",
)


def _escaped_runs():
    sites = generate_synthetic(SyntheticProfile(n_sites=120), 6)
    ids = [f"{ESCAPED_IDS[i % len(ESCAPED_IDS)]}{i:03d}" for i in range(len(sites))]
    return _paired_runs(dataset=dataclasses.replace(sites, ids=ids))


class TestReportBytes:
    @pytest.mark.parametrize("fmt", ["csv", "json", "both"])
    def test_every_format_writes_the_ledger_csv(self, tmp_path, fmt):
        cfg, runs = _paired_runs(initial=5e5)
        write_report(runs, cfg, tmp_path / "ours", fmt)
        _oracle_report(runs, cfg, tmp_path / "reference", fmt)
        for outcome, _ in runs:
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
        cfg, runs = _paired_runs(initial=5e5)
        statuses = {row["status"] for row in oracle.site_ledger(runs[1][0])}
        assert statuses == {"conserved", "lost", "unfunded"}
        assert_same_report(tmp_path, runs, cfg)

    def test_ids_that_need_quoting_or_escaping(self, tmp_path):
        cfg, runs = _escaped_runs()
        for outcome, _ in runs:
            ids = [row["site_id"] for row in oracle.site_ledger(outcome)]
            assert {site_id[:-3] for site_id in ids} == set(ESCAPED_IDS)
        assert_same_report(tmp_path, runs, cfg)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_ledgers_read_back_with_the_dataset_ids(self, tmp_path, fmt):
        cfg, runs = _escaped_runs()
        write_report(runs, cfg, tmp_path, fmt)
        for outcome, _ in runs:
            sites = outcome.offers.columns.sites
            path = tmp_path / f"sites_{outcome.mechanism.value}.csv"
            with open(path, newline="", encoding="utf-8") as fh:
                ids = [row["site_id"] for row in csv.DictReader(fh)]
            assert sorted(ids) == sorted(sites.ids[site] for site in outcome.offers.site.tolist())

    def test_mechanism_without_offers_writes_an_empty_ledger(self, tmp_path):
        # Each mechanism in turn; an empty run's timeseries cells are still floats.
        for index, run in enumerate((run_deferred, run_upfront)):
            cfg, runs = _paired_runs()
            outcome, supply = runs[index]
            empty = outcome.offers.take(np.zeros(0, dtype=np.intp))
            runs[index] = (run(cfg, 1e6, empty, np.zeros(0, dtype=np.int64)), supply)
            mech = outcome.mechanism.value
            assert_same_report(tmp_path / mech, runs, cfg)
            for fmt in ("csv", "json"):
                ledger = tmp_path / mech / f"ours-{fmt}" / f"sites_{mech}.csv"
                assert ledger.read_text() == ",".join(LEDGER_COLUMNS) + "\n"

    def test_ledger_longer_than_one_chunk(self, tmp_path):
        cfg, runs = _paired_runs(n_sites=3 * _CHUNK_ROWS)
        assert all(len(outcome.offers) > 2 * _CHUNK_ROWS for outcome, _ in runs)
        assert_same_report(tmp_path, runs, cfg)

    def test_non_finite_ledger_numbers(self, tmp_path):
        cfg, runs = _paired_runs()
        _, (upfront, upfront_supply) = runs
        offers = upfront.offers
        odd = [math.nan, math.inf, -math.inf, -0.0]
        elite = offers.columns.elite.copy()
        stand_age = offers.columns.sites.stand_age.copy()
        elite[offers.site[:4]] = stand_age[offers.site[:4]] = odd
        sites = dataclasses.replace(offers.columns.sites, stand_age=stand_age)
        columns = dataclasses.replace(offers.columns, sites=sites, elite=elite)
        instalment = offers.instalment_per_ha.copy()
        instalment[:4] = odd
        offers = dataclasses.replace(
            offers, columns=columns, elite=elite[offers.site], instalment_per_ha=instalment
        )
        outcome = dataclasses.replace(upfront, offers=offers)
        assert_same_report(tmp_path, [runs[0], (outcome, upfront_supply)], cfg)
        with open(tmp_path / "ours-json" / "sites_upfront.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        for column in ("elite", "stand_age", "instalment_per_ha"):
            cells = {row[column] for row in rows}
            assert {"nan", "inf", "-inf", "-0.00"} <= cells

    def test_sweep_table(self, tmp_path):
        cfg, runs = _paired_runs()
        rows = []
        for index, rate in enumerate((0.02, 0.025, 1 / 3)):
            row = {"point": index, "interest_rate": rate, "payment_periods": 10}
            row |= {"bid_cap_scale": 1.0, "seed": 6, "status": "ok"}
            for outcome, supply in runs:
                cells = report_cells(outcome, supply)
                row |= {f"{outcome.mechanism.value}_{k}": v for k, v in cells.items()}
            rows.append(row)
        rows[1] = {k: rows[1][k] for k in ("point", "interest_rate", "payment_periods")}
        rows[1] |= {"bid_cap_scale": 1.125, "seed": 6, "status": "error: a, \"quoted\" reason"}
        mechanisms = [outcome.mechanism for outcome, _ in runs]
        write_sweep(tmp_path / "ours.csv", mechanisms, rows)
        oracle.write_sweep(tmp_path / "reference.csv", mechanisms, rows)
        assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
