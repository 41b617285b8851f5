"""Fuzz of the scenario reader: `run` on mutated scenario JSON exits 0, 2 or 3, never 4,
and a mutated scenario that resolves resolves again, from its manifest, to an equal one.
The value flags of `run`, `sweep`, `gen-data` and `extrapolate` get the same check,
and a proper prefix of a flag, which no command reads as the flag, exits 2.

Each example applies up to three mutations to a small valid scenario: a
value of another type (NaN, infinities and huge numbers among them), a list
where an object belongs or the reverse, an emptied, shortened or lengthened
list, a dropped key or an unknown one. Fields that size an allocation or a
loop (site count, horizons, windows, periods) only ever get small values, so
no example runs at scale.
"""
import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from deferauction import cli
from deferauction.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from deferauction.model import ConfigError

BASE = {
    "dataset": {
        "synthetic": {
            "n_sites": 30,
            "age_band_weights": [0.3, 0.55, 0.15],
            "age_band_edges": [75, 125.0],
            "site_type_mix": [0.1, 0.15, 0.35, 0.25, 0.1, 0.05],
            "volume_v_max": [450, 380, 330.0, 260, 180, 110],
            "volume_noise_sd": 0.15,
            "broadleaf_beta": [[3.0, 2.2], [2.4, 2.6], [1.8, 4], [1.2, 6], [1, 8], [1, 10]],
            "area_ha": 10,
        }
    },
    "scheme": {
        "interest_rate_r": 0.03,
        "lending_period_t": 10,
        "instalment_count_x": 12,
        "bid_cap_lo": 0.0,
        "bid_cap_hi": 2000,
        "participation_discount_rate": None,
        "benefit_per_ha": 5980,
        "horizon_years": 12,
        "harvest_window": 15,
        "amenity": {"d0": 0.04, "phi_sd": 0.2},
        "seed": 3,
    },
    "mechanisms": ["deferred", "upfront"],
    "ranking": "benefit_cost",
    "budget": {"initial": 300000, "upfront": "npv-matched"},
    "elite_table": None,
    "seed": 3,
    "format": "json",
}
# Fields whose value sizes an allocation or a loop.
SIZES = {
    "n_sites", "v0_horizon", "lending_period_t", "instalment_count_x", "horizon_years",
    "harvest_window",
}
SMALL_NUMBERS = [-1, 0, 1, 2, 7, 50, 2.5, math.nan]
NUMBERS = SMALL_NUMBERS + [
    -0.5, 0.5, 1e-300, 1e308, -1e308, 10**600, -(10**600), math.inf, -math.inf,
]
# The last value is a path in the home directory of a user who does not exist:
# "unknown_key" can give it to dataset.path, and "replace" to elite_table.
SMALL = SMALL_NUMBERS + [None, True, "x", [], {}, "~nosuchuser/x.csv"]
VALUES = SMALL + NUMBERS[len(SMALL_NUMBERS):] + [
    False, "", "a\x00b", "both", "deferred", "upfront", "npv-matched", "csv",
    [1], [[1, 2]], ["deferred"], {"a": 1},
]
KEYS = ["extra", "scenario", "Seed", "path"]


def _paths(value, path=()):
    yield path
    if isinstance(value, dict):
        items = value.items()
    else:
        items = enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _paths(item, path + (key,))


@st.composite
def mutated(draw):
    def value(pool):
        return copy.deepcopy(draw(st.sampled_from(pool)))

    doc = {"root": copy.deepcopy(BASE)}
    for _ in range(draw(st.integers(1, 3))):
        path = ("root",) + draw(st.sampled_from(list(_paths(doc["root"]))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        node = parent[key]
        ops = ["replace"]
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            ops += ["number"]
        if isinstance(node, dict):
            ops += ["as_list", "unknown_key"] + (["drop_key"] if node else [])
        if isinstance(node, list):
            ops += ["as_object", "empty", "shorten", "lengthen"]
        op = draw(st.sampled_from(ops))
        if op == "replace":
            parent[key] = value(SMALL if key in SIZES else VALUES)
        elif op == "number":
            parent[key] = value(SMALL_NUMBERS if key in SIZES else NUMBERS)
        elif op == "as_list":
            parent[key] = list(node.values())
        elif op == "unknown_key":
            node[draw(st.sampled_from(KEYS))] = value(SMALL)
        elif op == "drop_key":
            del node[draw(st.sampled_from(sorted(node)))]
        elif op == "as_object":
            parent[key] = {str(i): item for i, item in enumerate(node)}
        elif op == "empty":
            parent[key] = []
        elif op == "shorten":
            parent[key] = node[:-1]
        else:
            parent[key] = node + [copy.deepcopy(node[-1]) if node else value(SMALL)]
    return doc["root"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow in the engine's sums
@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated())
def test_mutated_scenario_exits_0_2_or_3(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        try:
            scenario = cli.resolve_scenario(cli._read_manifest(str(path))["scenario"])
        except ConfigError:
            scenario = None
        # a dropped site count or profile falls back to the 400-site default
        profile = scenario and scenario.dataset.get("synthetic")
        assume(profile is None or profile.n_sites <= 50)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", str(path), "--out-dir", str(Path(tmp) / "out")])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_IO), err.getvalue()


@settings(max_examples=1000, deadline=None)
@given(mutated())
def test_manifest_scenario_resolves_to_an_equal_scenario(doc):
    try:
        scenario = cli.resolve_scenario(doc)
    except ConfigError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        manifest = cli._write_manifest(Path(tmp), "run", scenario)
        assert cli.resolve_scenario(cli._read_manifest(str(manifest))["scenario"]) == scenario


# Each value flag of each command in the CLI's table; each gets a value from FLAG_VALUES or is
# left out. Path flags are left to test_cli's path test: a value here would name a file to write.
FLAGS = {
    command: flags
    for command, (_, _, arguments) in cli.COMMANDS.items()
    if (flags := [flag for flag, (kind, _) in arguments.items() if flag[:2] == "--" and kind != Path])
}
FLAG_VALUES = ["nan", "inf", "-inf", "1e309", "-1", "0", "1.5", "", "x", " 7 ", "5_000"]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(FLAGS)), st.data())
def test_flag_values_exit_0_2_or_3(command, data):
    values = {flag: data.draw(st.sampled_from(FLAG_VALUES + [None]), flag) for flag in FLAGS[command]}
    # and maybe a proper prefix of one of the command's flags, which must exit 2
    arguments = cli.COMMANDS[command][2]
    longer = [name for name in arguments if name[:2] == "--" and len(name) > 3]
    prefix = data.draw(st.sampled_from(longer + [None]), "prefix flag")
    if prefix is not None:
        prefix = prefix[: data.draw(st.integers(3, len(prefix) - 1), "prefix length")]
        assume(prefix not in arguments)
    # gen-data writes as many sites as --n asks for
    sites = cli._number(values.get("--n") or "0", int)
    assume(not isinstance(sites, int) or sites <= 50)
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "scenario.json"
        scenario.write_text(json.dumps(BASE), encoding="utf-8")
        argv = {
            "run": ["run", str(scenario), "--out-dir", str(Path(tmp) / "out")],
            "sweep": ["sweep", str(scenario), "--out-dir", str(Path(tmp) / "out")],
            "gen-data": ["gen-data", "--out", str(Path(tmp) / "sites.csv")],
            "extrapolate": ["extrapolate"],
        }[command]
        # --flag=value or --flag value: either way "-1" or "-inf" is the flag's value
        for flag, value in values.items():
            if value is not None:
                argv += data.draw(st.sampled_from([[f"{flag}={value}"], [flag, value]]), flag)
        if prefix is not None:
            argv += [prefix, "1"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exit_:  # an argparse usage error
                code = exit_.code
    assert code in ((EXIT_OK, EXIT_CONFIG, EXIT_IO) if prefix is None else (EXIT_CONFIG,)), (
        argv, err.getvalue()
    )
    if command == "extrapolate":
        assert "nan" not in out.getvalue() and "inf" not in out.getvalue(), argv
