import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import time
import warnings

import pytest

from deferauction import cli, dataio
from deferauction.cli import EXIT_CONFIG, EXIT_INTERNAL, EXIT_IO, EXIT_OK, main


LATIN1_CSV = (
    "id,site_type,stand_age,stand_volume,dominant_species,broadleaf_share,deadwood,"
    "timber_value,opportunity_cost_v0,commercial_rotation_age\n"
    "m\xe4nty,mesic_heath,100,250,conifer,0.2,10,6600,6000,95\n"
).encode("latin-1")
NOT_UTF8 = "not UTF-8 text: byte 0xe4 at offset 136 (line 2)"
BOM = b"\xef\xbb\xbf"
AVERAGES = {"avg_downpayment": 1.0, "avg_instalment": 2.0}
ELITE_TABLE = "component,site_types,weight,reference\ndeadwood,all,1.0,20\n"
RUN = ["run", "{scenario}", "--out-dir", "{out}"]
OMEGA = (
    "interest_rate_r/lending_period_t/instalment_count_x: "
    "omega = 1 - (1+r)^t/x must lie in (0, 1), "
)


OVERFLOW = "deferred run: area_ha is inf; an input is too large"
BAD_TABLE = "weight2.csv"  # written by the test that names it: a habitat weight of 2
NO_SUCH_HOME = "~no-such-user-of-deferauction/"  # a home directory that cannot be found
# Each top-level scenario key, set to a value of the wrong type and to values out of range,
# with the name its error must carry: the key, or the field at fault inside it.
TOP_LEVEL_KEYS = [
    ("dataset", "type", {"dataset": 5}, "dataset"),
    ("dataset", "range", {"dataset": {}}, "dataset"),
    ("dataset", "range", {"dataset": {"synthetic": {"n_sites": -1}}}, "n_sites"),
    ("scheme", "type", {"scheme": [1]}, "scheme"),
    ("scheme", "range", {"scheme": {"discount_rate": -1}}, "discount_rate"),
    ("mechanisms", "type", {"mechanisms": 5}, "mechanisms"),
    ("mechanisms", "range", {"mechanisms": []}, "mechanisms"),
    ("mechanisms", "range", {"mechanisms": ["sideways"]}, "mechanisms"),
    ("ranking", "type", {"ranking": 5}, "ranking"),
    ("ranking", "range", {"ranking": "cheapest"}, "ranking"),
    ("budget", "type", {"budget": [1]}, "budget"),
    ("budget", "range", {"budget": {"initial": -5}}, "budget.initial"),
    (
        "budget",
        "range",
        {"mechanisms": "upfront", "budget": {"initial": -5, "upfront": 1e5}},
        "budget.initial",
    ),
    ("budget", "range", {"budget": {"upfront": 0}}, "budget.upfront"),
    ("budget", "range", {"mechanisms": "upfront", "budget": {"upfront": "npv-matched"}}, "budget.upfront"),
    ("elite_table", "type", {"elite_table": 5}, "elite_table"),
    ("elite_table", "range", {"elite_table": BAD_TABLE}, "weight"),
    ("seed", "type", {"seed": "seven"}, "seed"),
    ("seed", "range", {"seed": -1}, "seed"),
    ("format", "type", {"format": 5}, "format"),
    ("format", "range", {"format": "xml"}, "format"),
    ("dataset", "range", {"dataset": {"path": NO_SUCH_HOME + "sites.csv"}}, "dataset.path"),
    ("elite_table", "range", {"elite_table": NO_SUCH_HOME + "elite.csv"}, "elite_table"),
]


def huge_area_csv(tmp_path):
    """A generated 30-site CSV whose every site has an area of 1e308 ha."""
    data = tmp_path / "huge.csv"
    assert main(["gen-data", "--n", "30", "--seed", "3", "--out", str(data)]) == EXIT_OK
    with open(data, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    with open(data, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows({**row, "area_ha": "1e308"} for row in rows)
    return data


def write_scenario(tmp_path, name="scenario.json", **overrides):
    scenario = {
        "dataset": {"synthetic": {"n_sites": 80}},
        "scheme": {"seed": 7},
        "mechanisms": "both",
        "ranking": "benefit_cost",
        "budget": {"initial": 1_200_000.0, "upfront": "npv-matched"},
        "format": "both",
    }
    scenario.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(scenario), encoding="utf-8")
    return path


class TestRun:
    def test_default_scenario_shape(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["run", str(scenario), "--out-dir", str(out_dir)]) == EXIT_OK
        summary = (out_dir / "summary.csv").read_text(encoding="utf-8").splitlines()
        assert len(summary) == 3
        assert (out_dir / "manifest.json").exists()
        assert (out_dir / "timeseries_deferred.csv").exists()
        assert (out_dir / "timeseries_upfront.csv").exists()
        console = capsys.readouterr().out
        assert "Deferred payments" in console and "Up-front payments" in console

    def test_omega_violation_exits_2(self, tmp_path):
        scenario = write_scenario(
            tmp_path,
            scheme={"interest_rate_r": 0.20, "lending_period_t": 10, "instalment_count_x": 5},
        )
        assert main(["run", str(scenario), "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_missing_dataset_exits_3(self, tmp_path):
        scenario = write_scenario(tmp_path, dataset={"path": str(tmp_path / "absent.csv")})
        assert main(["run", str(scenario), "--out-dir", str(tmp_path / "o")]) == EXIT_IO
        assert not (tmp_path / "o").exists()  # nothing is created before the inputs load

    def test_non_utf8_dataset_exits_3(self, tmp_path, capsys):
        data = tmp_path / "latin1.csv"
        data.write_bytes(LATIN1_CSV)
        scenario = write_scenario(tmp_path, dataset={"path": str(data)})
        assert main(["run", str(scenario), "--out-dir", str(tmp_path / "o")]) == EXIT_IO
        assert capsys.readouterr().err == f"error: {data}: {NOT_UTF8}\n"

    def test_npv_matched_requires_deferred(self, tmp_path):
        scenario = write_scenario(tmp_path, mechanisms=["upfront"])
        assert main(["run", str(scenario), "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"budget": {"initial": "lots"}}, "budget.initial"),
            ({"scheme": {"instalment_count_x": 10.5}}, "instalment_count_x"),
            ({"scheme": {"amenity": {"phi_sd": 0.0, "phi_mean": 0.05}}}, "amenity.phi_mean"),
            ({"elite_table": "weight2.csv"}, "weight"),
            ({"seed": "seven"}, "seed"),
            ({"dataset": {"synthetic": {"n_sites": 10.5}}}, "dataset.synthetic.n_sites"),
            ({"dataset": {"synthetic": 5}}, "dataset.synthetic"),
            ({"mechanisms": 5}, "mechanisms"),
            ({"scheme": {"benefit_per_ha": -5980}}, "benefit_per_ha: must be finite and >= 0"),
            ({"mechanisms": "deferred", "budget": {"upfront": "junk"}}, "budget.upfront"),
            ({"mechanisms": "deferred", "budget": {"upfront": -1}}, "budget.upfront"),
            (
                {"dataset": {"path": "sites.csv", "synthetic": None}},
                "dataset must specify either 'path' or 'synthetic'",
            ),
        ],
        ids=[
            "budget-string",
            "float-instalment-count",
            "phi-never-accepted",
            "elite-weight",
            "seed",
            "float-site-count",
            "synthetic-number",
            "mechanisms-number",
            "negative-benefit",
            "upfront-budget-string-without-upfront-run",
            "upfront-budget-negative-without-upfront-run",
            "path-and-synthetic",
        ],
    )
    def test_configuration_errors_exit_2_naming_the_field(self, tmp_path, capsys, overrides, field):
        table = tmp_path / "weight2.csv"
        table.write_text("component,site_types,weight,reference\ndeadwood,all,2,20\n")
        if "elite_table" in overrides:
            overrides = {"elite_table": str(table)}
        scenario = write_scenario(tmp_path, **overrides)
        assert main(["run", str(scenario), "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, name",
        [case[2:] for case in TOP_LEVEL_KEYS],
        ids=[f"{key}-{kind}-{i}" for i, (key, kind, *_) in enumerate(TOP_LEVEL_KEYS)],
    )
    def test_each_top_level_key_out_of_type_or_range_exits_2_naming_it(
        self, tmp_path, capsys, overrides, name
    ):
        if overrides.get("elite_table") == BAD_TABLE:
            table = tmp_path / BAD_TABLE
            table.write_text("component,site_types,weight,reference\ndeadwood,all,2,20\n")
            overrides = {"elite_table": str(table)}
        scenario = write_scenario(tmp_path, **overrides)
        assert main(["run", str(scenario), "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err

    def test_the_key_table_covers_every_scenario_field_both_ways(self):
        covered = {(key, kind) for key, kind, *_ in TOP_LEVEL_KEYS}
        fields = [field.name for field in dataclasses.fields(cli.Scenario)]
        assert covered == {(key, kind) for key in fields for kind in ("type", "range")}

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"dataset": {"path": 5}}, "dataset.path must be a string, got 5"),
            ({"elite_table": 5}, "elite_table must be a string, got 5"),
            ({"elite_table": ["a"]}, "elite_table must be a string, got ['a']"),
            ({"dataset": {"path": ""}}, "dataset.path must not be empty"),
            ({"elite_table": ""}, "elite_table must not be empty"),
            (
                {"dataset": {"synthetic": {"broadleaf_beta": [1, 2, 3, 4, 5, 6]}}},
                "dataset.synthetic.broadleaf_beta[0] must be a list of 2, got 1",
            ),
            (
                {"dataset": {"synthetic": {"broadleaf_beta": [[1, 2, 3]] * 6}}},
                "dataset.synthetic.broadleaf_beta[0] must be a list of 2, got [1, 2, 3]",
            ),
            (
                {"dataset": {"synthetic": {"age_band_edges": [10]}}},
                "dataset.synthetic.age_band_edges must be a list of 2, got [10]",
            ),
            (
                {"dataset": {"synthetic": {"age_band_weights": [1.0]}}},
                "dataset.synthetic.age_band_weights must be a list of 3, got [1.0]",
            ),
            (
                {"dataset": {"synthetic": {"site_type_mix": ["a"] * 6}}},
                "dataset.synthetic.site_type_mix[0] must be a finite number, got 'a'",
            ),
            ({"budget": {"initial": 1e309}}, "budget.initial must be a finite number, got inf"),
            ({"budget": {"upfront": math.nan}}, "budget.upfront must be a finite number, got nan"),
            ({"scheme": {"amenity": [1]}}, "scheme.amenity must be a JSON object, got [1]"),
            (
                {"scheme": {"amenity": {"d0": True}}},
                "scheme.amenity.d0 must be a finite number, got True",
            ),
            ({"scheme": {"harvest_window": 2.0}}, "scheme.harvest_window must be an integer, got 2.0"),
            ({"scheme": {"amenity": {"d9": 1}}}, "unknown scheme.amenity fields: d9"),
            ({"dataset": {"synthetic": {"x": 1}}}, "unknown dataset.synthetic fields: x"),
            ({"dataset": {"path": "a.csv", "x": 1}}, "unknown dataset fields: x"),
            ({"budget": {"initial": 1.0, "x": 1}}, "unknown budget fields: x"),
        ],
    )
    def test_malformed_value_exits_2_naming_its_dotted_path(
        self, tmp_path, capsys, overrides, message
    ):
        scenario = write_scenario(tmp_path, **overrides)
        assert main(["run", str(scenario), "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "overrides, argv, message",
        [
            ({"seed": -1}, RUN, "seed: must be >= 0"),
            ({"scheme": {"seed": -3}}, RUN, "seed: must be >= 0"),
            ({}, RUN + ["--seed", "-2"], "seed: must be >= 0"),
            ({}, ["gen-data", "--seed", "-1", "--out", "{out}"], "seed: must be >= 0"),
            ({"scheme": {"lending_period_t": 100000}}, RUN, OMEGA + "got nan"),
            ({"scheme": {"instalment_count_x": 10**600}}, RUN, OMEGA + "got nan"),
        ],
        ids=["seed", "scheme-seed", "seed-flag", "gen-data-seed", "long-period", "huge-count"],
    )
    def test_unrunnable_seed_or_period_exits_2_naming_the_field(
        self, tmp_path, capsys, overrides, argv, message
    ):
        scenario = write_scenario(tmp_path, **overrides)
        argv = [arg.format(scenario=scenario, out=tmp_path / "out") for arg in argv]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "synthetic, message",
        [
            ({"site_type_mix": [1.1, -0.1, 0, 0, 0, 0]}, "site_type_mix must be >= 0 and sum to 1"),
            ({"age_band_weights": [1.1, -0.1, 0]}, "age_band_weights must be >= 0 and sum to 1"),
            (
                {"broadleaf_beta": [[0, 1]] + [[1, 1]] * 5},
                "broadleaf_beta must be pairs of parameters > 0",
            ),
            (
                {"age_band_edges": [200, 10]},
                "age_band_edges must be ordered within [age_min, age_max]",
            ),
            ({"volume_noise_sd": -1}, "volume_noise_sd must be >= 0"),
            ({"v0_horizon": -5}, "v0_horizon must be >= 0"),
            ({"age_min": -50}, "age_min must be >= 0"),
            ({"area_ha": -1}, "generated area_ha must be finite and > 0"),
            ({"area_ha": 0}, "generated area_ha must be finite and > 0"),
            ({"v0_discount_rate": -1}, "generated opportunity_cost_v0 must be finite"),
            ({"volume_v_max": [-1] * 6}, "generated stand_volume must be finite and >= 0"),
            ({"timber_price_per_m3": -1}, "generated timber_value must be finite and >= 0"),
            ({"land_payment": -1}, "generated land_payment must be finite and >= 0"),
            ({"deadwood_max": -1}, "generated deadwood must be finite and >= 0"),
            ({"v0_bare_land": [-1e6] * 6}, "generated opportunity_cost_v0 must be finite and >= 0"),
            (
                {"v0_harvest_net_factor": -1},
                "generated opportunity_cost_v0 must be finite and >= 0",
            ),
        ],
    )
    def test_profile_out_of_range_exits_2_naming_the_field(
        self, tmp_path, capsys, synthetic, message
    ):
        scenario = write_scenario(tmp_path, dataset={"synthetic": {"n_sites": 50, **synthetic}})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", str(scenario), "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: bad synthetic profile: {message}\n"

    @pytest.mark.parametrize(
        "overrides",
        [
            {"dataset": {"path": "a\0b.csv"}},
            {"elite_table": "a\0b.csv"},
            {"dataset": {"path": "~a\0b.csv"}},  # in the user name of a home directory
            {"elite_table": "~a\0b.csv"},
        ],
    )
    def test_path_holding_a_nul_exits_3(self, tmp_path, capsys, overrides):
        path = overrides.get("elite_table") or overrides["dataset"]["path"]
        scenario = write_scenario(tmp_path, **overrides)
        assert main(["run", str(scenario), "--out-dir", str(tmp_path / "o")]) == EXIT_IO
        assert capsys.readouterr().err == f"error: {path!r}: embedded null byte\n"

    @pytest.mark.parametrize("source", ["synthetic", "csv"])
    def test_overflowed_totals_exit_2_naming_the_mechanism_and_field(
        self, tmp_path, capsys, source
    ):
        huge = {"synthetic": {"n_sites": 30, "area_ha": 1e308}}
        if source == "csv":
            data = huge_area_csv(tmp_path)
            huge = {"path": str(data)}
        scenario = write_scenario(tmp_path, dataset=huge)
        capsys.readouterr()
        with warnings.catch_warnings():  # the error names the field; numpy must not warn
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", str(scenario), "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {OVERFLOW}\n"
        assert not (tmp_path / "o" / "summary.csv").exists()

    def test_unknown_scenario_key_exits_2(self, tmp_path):
        scenario = write_scenario(tmp_path, extra_knob=1)
        assert main(["run", str(scenario), "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_old_growth_with_ample_budget_conserves_all_offers_at_year_zero(self, tmp_path):
        scenario = write_scenario(
            tmp_path,
            dataset={"synthetic": {"n_sites": 150}},
            ranking="old_growth",
            mechanisms=["deferred"],
            budget={"initial": 1e9},
        )
        out_dir = tmp_path / "og"
        assert main(["run", str(scenario), "--out-dir", str(out_dir)]) == EXIT_OK
        with open(out_dir / "sites_deferred.csv", newline="", encoding="utf-8") as fh:
            ledger = list(csv.DictReader(fh))
        assert ledger
        assert {row["status"] for row in ledger} == {"conserved"}
        assert {row["year"] for row in ledger} == {"0"}

    def test_upfront_only_with_explicit_budget(self, tmp_path):
        scenario = write_scenario(
            tmp_path, mechanisms=["upfront"], budget={"upfront": 600_000.0}
        )
        out_dir = tmp_path / "up"
        assert main(["run", str(scenario), "--out-dir", str(out_dir)]) == EXIT_OK
        lines = (out_dir / "summary.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("upfront,")

    def test_custom_elite_table_changes_selection_inputs(self, tmp_path):
        table = tmp_path / "elite.csv"
        table.write_text(ELITE_TABLE, encoding="utf-8")
        base = write_scenario(tmp_path, name="base.json", mechanisms=["deferred"])
        custom = write_scenario(
            tmp_path, name="custom.json", mechanisms=["deferred"], elite_table=str(table)
        )
        base_dir, custom_dir = tmp_path / "base", tmp_path / "custom"
        assert main(["run", str(base), "--out-dir", str(base_dir)]) == EXIT_OK
        assert main(["run", str(custom), "--out-dir", str(custom_dir)]) == EXIT_OK
        base_sites = (base_dir / "sites_deferred.csv").read_text(encoding="utf-8")
        custom_sites = (custom_dir / "sites_deferred.csv").read_text(encoding="utf-8")
        assert base_sites != custom_sites

    def test_elite_table_with_byte_order_mark_is_read(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(ELITE_TABLE, encoding="utf-8")
        marked.write_bytes(BOM + ELITE_TABLE.encode())
        ledgers = []
        for table in (plain, marked):
            scenario = write_scenario(
                tmp_path, name=f"{table.stem}.json", mechanisms=["deferred"], elite_table=str(table)
            )
            out_dir = tmp_path / table.stem
            assert main(["run", str(scenario), "--out-dir", str(out_dir)]) == EXIT_OK
            ledgers.append((out_dir / "sites_deferred.csv").read_bytes())
        assert ledgers[0] == ledgers[1]

    def test_non_utf8_elite_table_exits_3_naming_the_byte(self, tmp_path, capsys):
        table = tmp_path / "elite.csv"
        table.write_bytes(ELITE_TABLE.replace("deadwood", "d\xe4dwood").encode("latin-1"))
        scenario = write_scenario(tmp_path, elite_table=str(table))
        assert main(["run", str(scenario), "--out-dir", str(tmp_path / "o")]) == EXIT_IO
        where = "byte 0xe4 at offset 39 (line 2)"
        assert capsys.readouterr().err == f"error: {table}: not UTF-8 text: {where}\n"

    def test_elite_table_with_a_short_row_exits_2_naming_the_cells(self, tmp_path, capsys):
        table = tmp_path / "elite.csv"
        table.write_text("component,site_types,weight,reference\ndeadwood\n", encoding="utf-8")
        scenario = write_scenario(tmp_path, elite_table=str(table))
        assert main(["run", str(scenario), "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
        message = "component deadwood: row has no site_types, weight, reference cell"
        assert capsys.readouterr().err == f"error: {table}: {message}\n"

    def test_rejected_elite_table_names_its_file_and_every_rule_and_leaves_no_out_dir(
        self, tmp_path, capsys
    ):
        table = tmp_path / "elite.csv"
        table.write_text(ELITE_TABLE.replace("1.0,20", "2,0"), encoding="utf-8")
        scenario = write_scenario(tmp_path, elite_table=str(table))
        out_dir = tmp_path / "o"
        assert main(["run", str(scenario), "--out-dir", str(out_dir)]) == EXIT_CONFIG
        rules = "weight must be in (0, 1]; component deadwood: reference must be > 0"
        assert capsys.readouterr().err == f"error: {table}: component deadwood: {rules}\n"
        assert not out_dir.exists()

    def test_every_profile_scenario_and_scheme_fault_is_named_in_one_message(
        self, tmp_path, capsys
    ):
        scenario = tmp_path / "scenario.json"
        faults = {
            "dataset": {"synthetic": {"n_sites": -5, "age_min": -1}},
            "scheme": {"interest_rate_r": -1},
            "ranking": "x",
        }
        scenario.write_text(json.dumps(faults), encoding="utf-8")
        assert main(["run", str(scenario), "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: bad synthetic profile: n_sites must be >= 0; "
            "bad synthetic profile: age_min must be >= 0; "
            f"ranking must be one of {cli.RANKINGS}; "
            "interest_rate_r: must be finite and >= 0\n"
        )

    def test_paths_from_the_home_directory_are_expanded(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        data, table = tmp_path / "sites.csv", tmp_path / "elite.csv"
        assert main(["gen-data", "--n", "40", "--seed", "3", "--out", str(data)]) == EXIT_OK
        table.write_text(ELITE_TABLE, encoding="utf-8")
        outputs = []
        for name, home in (("home", "~/"), ("plain", f"{tmp_path}/")):
            paths = {"dataset": {"path": home + data.name}, "elite_table": home + table.name}
            scenario = write_scenario(tmp_path, name=f"{name}.json", **paths)
            out_dir = tmp_path / name
            assert main(["run", str(scenario), "--out-dir", str(out_dir)]) == EXIT_OK
            outputs.append({n: (out_dir / n).read_bytes() for n in os.listdir(out_dir)})
        assert outputs[0] == outputs[1]  # the manifests too: they record the expanded paths

    def test_elite_table_cell_over_the_csv_field_limit_exits_3(self, tmp_path, capsys):
        table = tmp_path / "elite.csv"
        table.write_text(ELITE_TABLE.replace("20", "2" * 200_000), encoding="utf-8")
        scenario = write_scenario(tmp_path, elite_table=str(table))
        assert main(["run", str(scenario), "--out-dir", str(tmp_path / "o")]) == EXIT_IO
        limit = "field larger than field limit (131072)"
        assert capsys.readouterr().err == f"error: {table}: line 2: {limit}\n"

    @pytest.mark.parametrize("name", ["scenario.json", "manifest.json"])
    def test_non_utf8_scenario_exits_3_naming_the_byte(self, tmp_path, capsys, name):
        scenario = tmp_path / name
        scenario.write_bytes(b"\xff\xfe{}")
        assert main(["run", str(scenario), "--out-dir", str(tmp_path / "o")]) == EXIT_IO
        where = "byte 0xff at offset 0 (line 1)"
        assert capsys.readouterr().err == f"error: {scenario}: not UTF-8 text: {where}\n"

    @pytest.mark.parametrize("document", ["5", "[]", '"scenario"', "null"])
    def test_scenario_that_is_not_an_object_exits_2_naming_the_file(
        self, tmp_path, capsys, document
    ):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(document, encoding="utf-8")
        assert main(["run", str(scenario), "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
        message = f"{scenario}: scenario file must contain a JSON object"
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_scenario_with_byte_order_mark_is_read(self, tmp_path):
        plain = write_scenario(tmp_path, name="plain.json")
        marked = tmp_path / "marked.json"
        marked.write_bytes(BOM + plain.read_bytes())
        for scenario in (plain, marked):
            out_dir = tmp_path / scenario.stem
            assert main(["run", str(scenario), "--out-dir", str(out_dir)]) == EXIT_OK
        for name in ("summary.csv", "sites_deferred.csv", "manifest.json"):
            assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "marked" / name).read_bytes()

    def test_manifest_of_a_run_without_upfront_records_no_budget_and_reruns(self, tmp_path):
        scenario = write_scenario(
            tmp_path, mechanisms="deferred", budget={"initial": 1_200_000.0, "upfront": 6e5}
        )
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["run", str(scenario), "--out-dir", str(first)]) == EXIT_OK
        manifest = json.loads((first / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["scenario"]["budget"]["upfront"] is None
        assert main(["run", str(first / "manifest.json"), "--out-dir", str(second)]) == EXIT_OK
        for name in sorted(os.listdir(first)):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_manifest_rerun_is_bit_identical(self, tmp_path):
        scenario = write_scenario(tmp_path)
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert main(["run", str(scenario), "--out-dir", str(first)]) == EXIT_OK
        assert main(["run", str(first / "manifest.json"), "--out-dir", str(second)]) == EXIT_OK
        for name in sorted(os.listdir(first)):
            assert (first / name).read_bytes() == (second / name).read_bytes()


class TestSweep:
    def test_default_grid_runs_and_consolidates(self, tmp_path):
        scenario = write_scenario(tmp_path, dataset={"synthetic": {"n_sites": 60}})
        out_dir = tmp_path / "sweep"
        assert (
            main(
                [
                    "sweep",
                    str(scenario),
                    "--out-dir",
                    str(out_dir),
                    "--interest-rates",
                    "0.02,0.03,0.04",
                    "--payment-periods",
                    "10,20",
                ]
            )
            == EXIT_OK
        )
        lines = (out_dir / "sweep.csv").read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 1 + 6
        header = lines[0].split(",")
        rate_col = header.index("interest_rate")
        period_col = header.index("payment_periods")
        offered_col = header.index("deferred_offered_area_ha")
        rows = [line.split(",") for line in lines[1:]]
        offered = {
            (row[rate_col], row[period_col]): float(row[offered_col]) for row in rows
        }
        # supply grows with the interest rate, shrinks with the payment period
        assert offered[("0.02", "10")] <= offered[("0.03", "10")] <= offered[("0.04", "10")]
        assert offered[("0.03", "20")] < offered[("0.03", "10")]

    def test_single_point_matches_standalone_run(self, tmp_path):
        scenario = write_scenario(tmp_path, dataset={"synthetic": {"n_sites": 60}})
        sweep_dir = tmp_path / "sweep"
        run_dir = tmp_path / "single"
        assert (
            main(
                [
                    "sweep",
                    str(scenario),
                    "--out-dir",
                    str(sweep_dir),
                    "--interest-rates",
                    "0.03",
                    "--payment-periods",
                    "10",
                    "--point-dirs",
                ]
            )
            == EXIT_OK
        )
        assert main(["run", str(scenario), "--out-dir", str(run_dir)]) == EXIT_OK
        point_summary = (sweep_dir / "point_0000" / "summary.csv").read_bytes()
        standalone = (run_dir / "summary.csv").read_bytes()
        assert point_summary == standalone

    def test_failed_point_recorded_sweep_continues(self, tmp_path):
        scenario = write_scenario(tmp_path, dataset={"synthetic": {"n_sites": 40}})
        out_dir = tmp_path / "sweep"
        assert (
            main(
                [
                    "sweep",
                    str(scenario),
                    "--out-dir",
                    str(out_dir),
                    "--interest-rates",
                    "0.03,0.30",
                    "--payment-periods",
                    "10",
                ]
            )
            == EXIT_OK
        )
        import csv

        with open(out_dir / "sweep.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"].startswith("error")


    def test_negative_seed_is_an_error_row(self, tmp_path):
        scenario = write_scenario(tmp_path, dataset={"synthetic": {"n_sites": 40}})
        out_dir = tmp_path / "sweep"
        argv = ["sweep", str(scenario), "--out-dir", str(out_dir), "--seeds=-1,2"]
        assert main(argv + ["--interest-rates", "0.03", "--payment-periods", "10"]) == EXIT_OK
        with open(out_dir / "sweep.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["status"] for row in rows] == ["error: seed: must be >= 0", "ok"]

    def test_points_equal_runs_of_their_manifests(self, tmp_path, capsys):
        data = tmp_path / "sites.csv"
        assert main(["gen-data", "--n", "60", "--seed", "3", "--out", str(data)]) == EXIT_OK
        with open(data, "a", encoding="utf-8") as fh:
            fh.write("bad,mesic_heath,-4,250,conifer,0.2,10,6600,6000,95,10,400\n")
        scenario = write_scenario(tmp_path, dataset={"path": str(data)})
        sweep_dir = tmp_path / "sweep"
        capsys.readouterr()
        argv = ["sweep", str(scenario), "--out-dir", str(sweep_dir), "--seeds", "2,1,2"]
        argv += ["--point-dirs"]
        assert main(argv + ["--interest-rates", "0.02,0.03", "--payment-periods", "10"]) == EXIT_OK
        assert capsys.readouterr().err.count("warning:") == 1
        with open(sweep_dir / "sweep.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["point"] for row in rows] == [str(index) for index in range(6)]
        assert [row["seed"] for row in rows] == ["2", "1", "2"] * 2
        assert {row["status"] for row in rows} == {"ok"}
        for index in range(6):
            point_dir = sweep_dir / f"point_{index:04d}"
            run_dir = tmp_path / f"run_{index}"
            assert main(["run", str(point_dir / "manifest.json"), "--out-dir", str(run_dir)]) == 0
            names = sorted(os.listdir(point_dir))
            assert names == sorted(os.listdir(run_dir))
            for name in names:
                assert (point_dir / name).read_bytes() == (run_dir / name).read_bytes(), name

    def test_axis_cells_keep_full_precision(self, tmp_path):
        scenario = write_scenario(tmp_path, dataset={"synthetic": {"n_sites": 30}})
        sweep_dir = tmp_path / "sweep"
        argv = ["sweep", str(scenario), "--out-dir", str(sweep_dir), "--payment-periods", "10"]
        argv += ["--interest-rates", "0.025,0.03,0.035", "--bid-cap-scales", "1.125", "--point-dirs"]
        assert main(argv) == EXIT_OK
        with open(sweep_dir / "sweep.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["interest_rate"] for row in rows] == ["0.025", "0.03", "0.035"]
        assert [row["bid_cap_scale"] for row in rows] == ["1.125"] * 3
        for row in rows:
            manifest = json.loads(
                (sweep_dir / f"point_{int(row['point']):04d}" / "manifest.json").read_text()
            )
            assert float(row["interest_rate"]) == manifest["scenario"]["scheme"]["interest_rate_r"]

    def test_unloadable_csv_is_read_once(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text(
            "id,site_type,stand_age,stand_volume,dominant_species,broadleaf_share,deadwood,"
            "timber_value,opportunity_cost_v0,commercial_rotation_age\n"
            "bad,mesic_heath,old,250,conifer,0.2,10,6600,6000,95\n",
            encoding="utf-8",
        )
        scenario = write_scenario(tmp_path, dataset={"path": str(data)})
        sweep_dir = tmp_path / "sweep"
        capsys.readouterr()
        argv = ["sweep", str(scenario), "--out-dir", str(sweep_dir), "--seeds", "1,2"]
        assert main(argv + ["--interest-rates", "0.02,0.03", "--payment-periods", "10"]) == EXIT_OK
        warnings = [line for line in capsys.readouterr().err.splitlines() if "warning:" in line]
        assert warnings == [f"warning: {data}: row 1, stand_age: cannot parse 'old' as a number"]
        with open(sweep_dir / "sweep.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert all(row["status"] == f"error: {data}: no valid rows" for row in rows)

    def test_non_utf8_csv_fails_every_point(self, tmp_path):
        data = tmp_path / "latin1.csv"
        data.write_bytes(LATIN1_CSV)
        scenario = write_scenario(tmp_path, dataset={"path": str(data)})
        sweep_dir = tmp_path / "sweep"
        argv = ["sweep", str(scenario), "--out-dir", str(sweep_dir), "--seeds", "1,2"]
        assert main(argv + ["--interest-rates", "0.03", "--payment-periods", "10"]) == EXIT_OK
        with open(sweep_dir / "sweep.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["status"] for row in rows] == [f"error: {data}: {NOT_UTF8}"] * 2

    def test_elite_table_is_read_once(self, tmp_path, monkeypatch):
        reads = []

        def counted(path):
            reads.append(path)
            return load(path)

        load = cli.load_elite_table
        monkeypatch.setattr(cli, "load_elite_table", counted)
        table = tmp_path / "elite.csv"
        table.write_text(ELITE_TABLE, encoding="utf-8")
        scenario = write_scenario(
            tmp_path, dataset={"synthetic": {"n_sites": 40}}, elite_table=str(table)
        )
        argv = ["sweep", str(scenario), "--out-dir", str(tmp_path / "sweep"), "--seeds", "1,2,3"]
        assert main(argv + ["--payment-periods", "10"]) == EXIT_OK
        with open(tmp_path / "sweep" / "sweep.csv", newline="", encoding="utf-8") as fh:
            assert [row["status"] for row in csv.DictReader(fh)] == ["ok"] * 9
        assert reads == [str(table)]

    def test_rejected_elite_table_fails_every_point_naming_its_file(self, tmp_path):
        table = tmp_path / "elite.csv"
        table.write_text(ELITE_TABLE.replace("1.0,20", "2,20"), encoding="utf-8")
        scenario = write_scenario(
            tmp_path, dataset={"synthetic": {"n_sites": 40}}, elite_table=str(table)
        )
        argv = ["sweep", str(scenario), "--out-dir", str(tmp_path / "sweep"), "--seeds", "1,2"]
        assert main(argv + ["--interest-rates", "0.03", "--payment-periods", "10"]) == EXIT_OK
        with open(tmp_path / "sweep" / "sweep.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        message = f"error: {table}: component deadwood: weight must be in (0, 1]"
        assert [row["status"] for row in rows] == [message] * 2

    def test_ledger_text_of_a_site_is_built_once_per_seed(self, tmp_path, monkeypatch):
        built = []

        def counted(columns):
            built.append(len(columns))
            return site_text(columns)

        site_text = dataio._site_text
        monkeypatch.setattr(dataio, "_site_text", counted)
        scenario = write_scenario(tmp_path, dataset={"synthetic": {"n_sites": 60}})
        argv = ["sweep", str(scenario), "--out-dir", str(tmp_path / "sweep"), "--seeds", "3,4"]
        assert main(argv + ["--interest-rates", "0.02,0.03,0.04", "--point-dirs"]) == EXIT_OK
        with open(tmp_path / "sweep" / "sweep.csv", newline="", encoding="utf-8") as fh:
            assert [row["status"] for row in csv.DictReader(fh)] == ["ok"] * 12
        assert built == [60, 60]
        assert len(dataio._SITE_TEXT) == 0  # freed with the last seed's inputs

    @pytest.mark.parametrize(
        "axes, override",
        [
            (["--interest-rates", "0.05", "--payment-periods", "5", "--seeds", "3"], []),
            (["--interest-rates", "0.02,0.04", "--payment-periods", "10", "--seeds", "3,4"], []),
            (
                ["--interest-rates", "0.02,0.04", "--payment-periods", "10", "--seeds", "3,4"],
                ["--interest-rates", "0.03"],
            ),
        ],
        ids=["one-point", "grid", "override-one-axis"],
    )
    def test_manifest_rerun_reproduces_the_sweep(self, tmp_path, axes, override):
        """`sweep <dir>/manifest.json` runs the plan it records; a flag replaces its own axis."""
        scenario = write_scenario(tmp_path, dataset={"synthetic": {"n_sites": 40}})
        first, rerun = tmp_path / "first", tmp_path / "rerun"
        assert main(["sweep", str(scenario), "--out-dir", str(first), *axes]) == EXIT_OK
        manifest = str(first / "manifest.json")
        assert main(["sweep", manifest, "--out-dir", str(rerun), *override]) == EXIT_OK
        expected = first
        if override:  # the first sweep's axes, with the override in place of its own
            expected = tmp_path / "direct"
            argv = ["sweep", str(scenario), "--out-dir", str(expected), *axes, *override]
            assert main(argv) == EXIT_OK
        for name in ("sweep.csv", "manifest.json"):
            assert (rerun / name).read_bytes() == (expected / name).read_bytes(), name

    def test_point_dirs_leave_the_table_unchanged(self, tmp_path):
        scenario = write_scenario(tmp_path, dataset={"synthetic": {"n_sites": 40}})
        argv = ["sweep", str(scenario), "--seeds", "3,4"]
        assert main(argv + ["--out-dir", str(tmp_path / "table")]) == EXIT_OK
        assert sorted(os.listdir(tmp_path / "table")) == ["manifest.json", "sweep.csv"]
        assert main(argv + ["--out-dir", str(tmp_path / "dirs"), "--point-dirs"]) == EXIT_OK
        assert len(os.listdir(tmp_path / "dirs")) == 2 + 12
        for name in ("sweep.csv", "manifest.json"):
            table = (tmp_path / "table" / name).read_bytes()
            assert table == (tmp_path / "dirs" / name).read_bytes(), name

    @pytest.mark.parametrize(
        "flag, message",
        [
            (["--interest-rates", "abc"], "--interest-rates[0] must be a finite number, got 'abc'"),
            (["--seeds", "x"], "--seeds[0] must be an integer, got 'x'"),
            (["--payment-periods", "1.5"], "--payment-periods[0] must be an integer, got '1.5'"),
            (["--interest-rates", "nan,0.03"], "--interest-rates[0] must be a finite number, got nan"),
            (["--bid-cap-scales", "1,1e999"], "--bid-cap-scales[1] must be a finite number, got inf"),
            (["--interest-rates", ","], "sweep axes must be non-empty"),
        ],
        ids=["rate-text", "seed-text", "fractional-period", "nan-rate", "inf-scale", "empty"],
    )
    def test_bad_axis_flag_exits_2_naming_it(self, tmp_path, capsys, flag, message):
        scenario = write_scenario(tmp_path, dataset={"synthetic": {"n_sites": 40}})
        out_dir = tmp_path / "sweep"
        assert main(["sweep", str(scenario), "--out-dir", str(out_dir), *flag]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_dir.exists()

    def test_malformed_manifest_axes_exit_2_naming_the_field(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, dataset={"synthetic": {"n_sites": 40}})
        raw = json.loads(scenario.read_text(encoding="utf-8"))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"scenario": raw, "axes": {"seeds": [1, "2"]}}))
        assert main(["sweep", str(manifest), "--out-dir", str(tmp_path / "s")]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: axes.seeds[1] must be an integer, got '2'\n"

    def test_overflowed_point_is_an_error_row(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, dataset={"synthetic": {"n_sites": 30, "area_ha": 1e308}})
        argv = ["sweep", str(scenario), "--out-dir", str(tmp_path / "sweep"), "--seeds", "3"]
        capsys.readouterr()
        with warnings.catch_warnings():  # the error row names the field; numpy must not warn
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv + ["--interest-rates", "0.03", "--payment-periods", "10"]) == EXIT_OK
        assert capsys.readouterr().err == ""
        with open(tmp_path / "sweep" / "sweep.csv", newline="", encoding="utf-8") as fh:
            assert [row["status"] for row in csv.DictReader(fh)] == [f"error: {OVERFLOW}"]

    def test_engine_error_in_a_point_exits_4(self, tmp_path, monkeypatch):
        def broken(scenario, inputs=None):
            raise ValueError("engine bug")

        monkeypatch.setattr(cli, "execute_scenario", broken)
        scenario = write_scenario(tmp_path, dataset={"synthetic": {"n_sites": 40}})
        argv = ["sweep", str(scenario), "--out-dir", str(tmp_path / "sweep")]
        assert main(argv + ["--interest-rates", "0.03", "--payment-periods", "10"]) == EXIT_INTERNAL


# A bad value for value flags of run, sweep and gen-data, with its message: a value of
# another type names the flag, and one out of range gets the rule of the key the flag sets.
BAD_FLAGS = [
    (RUN + ["--seed", "1.5"], "--seed must be an integer, got '1.5'"),
    (RUN + ["--format", "xml"], "format must be csv, json, or both"),
    (
        ["sweep", "{scenario}", "--out-dir", "{out}", "--seeds", "nan"],
        "--seeds[0] must be an integer, got 'nan'",
    ),
    (["gen-data", "--n", "x", "--out", "{out}"], "--n must be an integer, got 'x'"),
    (["gen-data", "--seed", "1e3", "--out", "{out}"], "--seed must be an integer, got '1e3'"),
]


@pytest.mark.parametrize(
    "argv, message",
    BAD_FLAGS,
    ids=["run-seed", "run-format", "sweep-seed", "n", "gen-seed"],
)
def test_bad_flag_exits_2_naming_it_and_writes_nothing(tmp_path, capsys, argv, message):
    scenario = write_scenario(tmp_path)
    argv = [arg.format(scenario=scenario, out=tmp_path / "out") for arg in argv]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_format_flag_replaces_a_malformed_format_key(tmp_path):
    scenario = write_scenario(tmp_path, format=5)
    argv = ["run", str(scenario), "--out-dir", str(tmp_path / "out"), "--format", "csv"]
    assert main(argv) == EXIT_OK
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["scenario"]["format"] == "csv"


class TestGenData:
    def test_deterministic_files(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["gen-data", "--n", "400", "--seed", "1", "--out", str(a)]) == EXIT_OK
        assert main(["gen-data", "--n", "400", "--seed", "1", "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_output_loads_clean(self, tmp_path):
        path = tmp_path / "sites.csv"
        assert main(["gen-data", "--n", "400", "--seed", "1", "--out", str(path)]) == EXIT_OK
        assert main(["validate", str(path)]) == EXIT_OK

    @pytest.mark.parametrize(
        "content, code, message",
        [
            (b"5", EXIT_CONFIG, "{path} must be a JSON object, got 5"),
            (b"\xff\xfe{}", EXIT_IO, "{path}: not UTF-8 text: byte 0xff at offset 0 (line 1)"),
        ],
    )
    def test_unreadable_profile_names_the_file(self, tmp_path, capsys, content, code, message):
        profile = tmp_path / "profile.json"
        profile.write_bytes(content)
        argv = ["gen-data", "--profile", str(profile), "--out", str(tmp_path / "s.csv")]
        assert main(argv) == code
        assert capsys.readouterr().err == f"error: {message.format(path=profile)}\n"

    @pytest.mark.parametrize("profile", [False, True])
    def test_negative_site_count_exits_2_with_the_profile_rule(self, tmp_path, capsys, profile):
        argv = ["gen-data", "--n", "-5", "--out", str(tmp_path / "s.csv")]
        if profile:
            (tmp_path / "profile.json").write_text("{}", encoding="utf-8")
            argv += ["--profile", str(tmp_path / "profile.json")]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: bad synthetic profile: n_sites must be >= 0\n"
        assert not (tmp_path / "s.csv").exists()

    def test_profile_out_of_range_exits_2_and_writes_nothing(self, tmp_path, capsys):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"area_ha": 0, "n_sites": 5}), encoding="utf-8")
        argv = ["gen-data", "--profile", str(profile), "--out", str(tmp_path / "s.csv")]
        assert main(argv) == EXIT_CONFIG
        message = "bad synthetic profile: generated area_ha must be finite and > 0"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "s.csv").exists()

    def test_profile_field_of_the_wrong_type_names_the_file_and_field(self, tmp_path, capsys):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"broadleaf_beta": [1] * 6}), encoding="utf-8")
        argv = ["gen-data", "--profile", str(profile), "--out", str(tmp_path / "s.csv")]
        assert main(argv) == EXIT_CONFIG
        message = f"{profile}.broadleaf_beta[0] must be a list of 2, got 1"
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_large_dataset_under_ten_seconds(self, tmp_path):
        path = tmp_path / "big.csv"
        start = time.monotonic()
        assert main(["gen-data", "--n", "100000", "--seed", "1", "--out", str(path)]) == EXIT_OK
        assert time.monotonic() - start < 10.0
        assert sum(1 for _ in open(path, encoding="utf-8")) == 100_001


class TestValidateCommand:
    def test_repeated_ids_reported_and_skipped(self, tmp_path, capsys):
        path = tmp_path / "sites.csv"
        assert main(["gen-data", "--n", "10", "--seed", "1", "--out", str(path)]) == EXIT_OK
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join([header] + rows + rows) + "\n", encoding="utf-8")
        assert main(["validate", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "10 valid rows, 10 issues" in out
        assert "row 11, id: duplicate site id 'site-000000' (first on row 1)" in out


    def test_cell_over_the_csv_field_limit_exits_3_naming_the_line(self, tmp_path, capsys):
        path = tmp_path / "sites.csv"
        header, row = LATIN1_CSV.decode("latin-1").splitlines()
        path.write_text(f"{header}\n{'x' * 200_000}{row[5:]}\n", encoding="utf-8")
        assert main(["validate", str(path)]) == EXIT_IO
        limit = "field larger than field limit (131072)"
        assert capsys.readouterr().err == f"error: {path}: line 2: {limit}\n"

    def test_non_utf8_file_exits_3(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(LATIN1_CSV)
        assert main(["validate", str(path)]) == EXIT_IO
        assert capsys.readouterr().err == f"error: {path}: {NOT_UTF8}\n"

    def test_file_with_byte_order_mark_is_read(self, tmp_path, capsys):
        path = tmp_path / "sites.csv"
        path.write_bytes(BOM + LATIN1_CSV.decode("latin-1").encode())
        assert main(["validate", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == "1 valid rows, 0 issues\n"

    def test_reports_issues(self, tmp_path, capsys):
        path = tmp_path / "sites.csv"
        path.write_text(
            "id,site_type,stand_age,stand_volume,dominant_species,broadleaf_share,deadwood,"
            "timber_value,opportunity_cost_v0,commercial_rotation_age\n"
            "ok,mesic_heath,100,250,conifer,0.2,10,6600,6000,95\n"
            "bad,mesic_heath,-4,250,conifer,0.2,10,6600,6000,95\n",
            encoding="utf-8",
        )
        assert main(["validate", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "1 valid rows, 1 issues" in out
        assert "row 2" in out


class TestExtrapolate:
    def test_worked_numbers(self, capsys):
        code = main(
            [
                "extrapolate",
                "--area",
                "54000",
                "--avg-downpayment",
                "4050",
                "--avg-instalment",
                "681",
                "--upfront-annual-budget",
                "48000000",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "218.7 M EUR" in out
        assert "36.8 M EUR" in out
        assert "532.4 M EUR" in out
        assert "457.4 M EUR" in out
        assert "5,022 ha" in out

    def test_nonpositive_area_exits_2(self):
        assert main(["extrapolate", "--area", "0", "--avg-downpayment", "1",
                     "--avg-instalment", "1", "--avg-upfront", "1"]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--area", "nan"], "--area must be a finite number, got nan"),
            (["--avg-instalment=-inf"], "--avg-instalment must be a finite number, got -inf"),
            (["--avg-downpayment", "1e309"], "--avg-downpayment must be a finite number, got inf"),
            (["--harvest-loss-rate", "x"], "--harvest-loss-rate must be a finite number, got 'x'"),
            (["--harvest-loss-rate", "-3"], "--harvest-loss-rate must lie in [0, 1]"),
            (["--harvest-loss-rate", "1.5"], "--harvest-loss-rate must lie in [0, 1]"),
            (["--upfront-annual-budget", "-5"], "--upfront-annual-budget must be >= 0"),
            (["--avg-downpayment", "-1"], "per-hectare averages must be >= 0"),
            (["--avg-downpayment", "-1e3"], "per-hectare averages must be >= 0"),
            (["--area", "-inf"], "--area must be a finite number, got -inf"),
            (
                ["--avg-upfront", "5"],
                "--avg-upfront, --upfront-annual-budget must not both be given: "
                "each sets the up-front average",
            ),
            (
                ["--from-run", "summary.json", "--avg-upfront", "99999"],
                "--avg-downpayment, --avg-instalment, --avg-upfront "
                "would be ignored with --from-run; --avg-upfront, --upfront-annual-budget "
                "must not both be given: each sets the up-front average",
            ),
            (
                ["--area", "1e300", "--avg-downpayment", "1e300"],
                "a projected total is not finite; an input is too large",
            ),
        ],
        ids=[
            "nan-area", "inf-average", "huge-average", "text-rate", "negative-rate", "rate-above-1",
            "negative-budget", "negative-average", "dash-exponent-average", "minus-inf-area",
            "two-upfront-sources", "averages-with-run", "overflow",
        ],
    )
    def test_flag_out_of_type_or_range_exits_2_naming_it(self, capsys, flags, message):
        argv = ["extrapolate", "--area", "54000", "--avg-downpayment", "4050",
                "--avg-instalment", "681", "--upfront-annual-budget", "48000000"]
        assert main(argv + flags) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    def test_from_run_reads_averages(self, tmp_path):
        scenario = write_scenario(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["run", str(scenario), "--out-dir", str(out_dir)]) == EXIT_OK
        code = main(
            ["extrapolate", "--area", "54000", "--from-run", str(out_dir / "summary.json")]
        )
        assert code == EXIT_OK

    def test_from_run_reads_schema_2_reports(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["run", str(scenario), "--out-dir", str(out_dir)]) == EXIT_OK
        summary = out_dir / "summary.json"
        capsys.readouterr()
        assert main(["extrapolate", "--area", "54000", "--from-run", str(summary)]) == EXIT_OK
        schema_3 = capsys.readouterr().out
        report = json.loads(summary.read_text(encoding="utf-8"))
        report["schema_version"] = 2
        for run in report["runs"]:
            run["sites"] = [{"site_id": "a", "status": "conserved"}]
        summary.write_text(json.dumps(report, indent=2), encoding="utf-8")
        assert main(["extrapolate", "--area", "54000", "--from-run", str(summary)]) == EXIT_OK
        assert capsys.readouterr().out == schema_3

    @pytest.mark.parametrize(
        "report, field",
        [
            ([], "the report"),
            ({"runs": 5}, "runs"),
            ({"runs": [5]}, "runs[0]"),
            ({"runs": [{"summary": {}}]}, "runs[0].mechanism"),
            ({"runs": [{"mechanism": "deferred"}]}, "runs[0].summary"),
            (
                {"runs": [{"mechanism": "deferred", "summary": {"avg_downpayment": 1.0}}]},
                "runs[0].summary.avg_instalment",
            ),
            (
                {
                    "runs": [
                        {"mechanism": "deferred", "summary": AVERAGES},
                        {"mechanism": "upfront", "summary": {**AVERAGES, "avg_downpayment": "1"}},
                    ]
                },
                "runs[1].summary.avg_downpayment",
            ),
        ],
    )
    def test_from_run_malformed_report_exits_3_naming_the_field(
        self, tmp_path, capsys, report, field
    ):
        scenario = write_scenario(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["run", str(scenario), "--out-dir", str(out_dir)]) == EXIT_OK
        summary = out_dir / "summary.json"
        summary.write_text(json.dumps(report), encoding="utf-8")
        capsys.readouterr()
        assert main(["extrapolate", "--area", "54000", "--from-run", str(summary)]) == EXIT_IO
        assert capsys.readouterr().err.startswith(f"error: {summary}: {field} must be ")

    def test_from_run_non_utf8_report_exits_3_naming_the_byte(self, tmp_path, capsys):
        summary = tmp_path / "summary.json"
        summary.write_bytes(b"\xff\xfe{}")
        assert main(["extrapolate", "--area", "54000", "--from-run", str(summary)]) == EXIT_IO
        where = "byte 0xff at offset 0 (line 1)"
        assert capsys.readouterr().err == f"error: {summary}: not UTF-8 text: {where}\n"

    def test_from_run_uses_the_runs_scheme(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, scheme={"seed": 7, "instalment_count_x": 20})
        out_dir = tmp_path / "out"
        assert main(["run", str(scenario), "--out-dir", str(out_dir)]) == EXIT_OK
        capsys.readouterr()
        summary = str(out_dir / "summary.json")
        assert main(["extrapolate", "--area", "54000", "--from-run", summary]) == EXIT_OK
        assert "for 20 years" in capsys.readouterr().out


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_python_dash_m_runs_the_cli():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "deferauction", "--version"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"deferauction {cli.__version__}\n"
