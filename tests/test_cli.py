"""Command-line interface tests: config loading, seed parsing, exit
codes, and the files a run writes."""

import collections
import csv
import dataclasses
import json
import math
import tempfile
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isobath import cli, mission
from isobath.cli import load_config, main, parse_seeds
from isobath.environment import eval_grid
from isobath.errors import ConfigurationError, NumericalError
from isobath.mission import (
    MissionConfig,
    MissionResult,
    risk_snapshot,
    run_mission,
    truth_grid,
)

DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default.json"

MICRO = dict(
    area_max=[200.0, 300.0],
    bathymetry_params={"center": [100.0, 150.0], "background": 5.0,
                       "max_depth": 25.0, "radius": 80.0},
    speeds=[1.5, 1.35],
    starts=[[0.0, 50.0, 20.0], [0.0, 100.0, 20.0]],
    total_length=6,
    mcts_iterations=6,
    planning_resolution=60.0,
    output_resolution=50.0,
    trace_resolution=60.0,
    seed=0,
)


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "micro.json"
    path.write_text(json.dumps(MICRO))
    return path


# ---------------------------------------------------------------------------
# Seed parsing


def test_parse_seed_lists_and_ranges():
    assert parse_seeds("0,1,2") == [0, 1, 2]
    assert parse_seeds("0-19") == list(range(20))
    assert parse_seeds("0-3,7") == [0, 1, 2, 3, 7]
    assert parse_seeds(" 4 , 6 ") == [4, 6]
    assert parse_seeds("5-5") == [5]


def test_parse_seeds_rejects_empty_and_backwards():
    with pytest.raises(ConfigurationError):
        parse_seeds("")
    with pytest.raises(ConfigurationError):
        parse_seeds(" , ")
    with pytest.raises(ConfigurationError):
        parse_seeds("5-2")


@pytest.mark.parametrize(
    "spec, bad",
    [("a", "a"), ("1-x", "1-x"), ("0, 2-3-4", "2-3-4")],
    ids=["word", "range-end", "three-part-range"],
)
def test_bad_seed_specs_exit_two_naming_the_part(spec, bad, tmp_path, capsys):
    assert main(["run", "--seeds", spec, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and repr(bad) in err


# ---------------------------------------------------------------------------
# Config loading


def test_defaults_load_without_any_file():
    cfg = load_config(None, env={})
    assert cfg == MissionConfig()


def test_file_values_are_applied_and_lists_become_tuples(config_file):
    cfg = load_config(str(config_file), env={})
    assert cfg.total_length == 6
    assert cfg.speeds == (1.5, 1.35)
    assert cfg.starts == ((0.0, 50.0, 20.0), (0.0, 100.0, 20.0))
    assert cfg.area_max == (200.0, 300.0)


def test_env_overrides_beat_the_file(config_file):
    cfg = load_config(
        str(config_file),
        env={"ISOBATH_TOTAL_LENGTH": "9", "ISOBATH_DROP_PROB": "0.25"},
    )
    assert cfg.total_length == 9
    assert cfg.drop_prob == 0.25


def test_env_values_fall_back_to_literal_strings():
    # "lawnmower" is not valid JSON, so it stays a string.
    cfg = load_config(None, env={"ISOBATH_VARIANT": "lawnmower"})
    assert cfg.variant == "lawnmower"


def test_env_can_set_structured_fields():
    cfg = load_config(
        None,
        env={
            "ISOBATH_SPEEDS": "[1.0, 1.1]",
            "ISOBATH_STARTS": "[[0.0, 50.0, 20.0], [0.0, 100.0, 20.0]]",
        },
    )
    assert cfg.speeds == (1.0, 1.1)
    assert cfg.team_size == 2


def test_unknown_keys_and_broken_files_are_configuration_errors(tmp_path):
    bad_key = tmp_path / "bad_key.json"
    bad_key.write_text(json.dumps({"warp_speed": 9}))
    with pytest.raises(ConfigurationError):
        load_config(str(bad_key), env={})

    not_json = tmp_path / "not_json.json"
    not_json.write_text("{nope")
    with pytest.raises(ConfigurationError):
        load_config(str(not_json), env={})

    not_object = tmp_path / "not_object.json"
    not_object.write_text("[1, 2, 3]")
    with pytest.raises(ConfigurationError):
        load_config(str(not_object), env={})

    with pytest.raises(ConfigurationError):
        load_config(str(tmp_path / "missing.json"), env={})


def test_misspelt_environment_overrides_are_configuration_errors():
    with pytest.raises(ConfigurationError, match="ISOBATH_HORIZN"):
        load_config(None, env={"ISOBATH_HORIZN": "5"})
    with pytest.raises(ConfigurationError, match="ISOBATH_horizon"):
        load_config(None, env={"ISOBATH_horizon": "5"})
    # Other variables are none of the program's business.
    assert load_config(None, env={"HORIZON": "5"}) == MissionConfig()


@pytest.mark.parametrize("key, value", [
    ("d_eps", 180.0),
    ("exploration", 1.0),
    ("rollout_policy", "straight-bias"),
    ("swath", 30.0),
])
def test_removed_config_keys_are_configuration_errors(key, value, tmp_path, capsys):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({**MICRO, key: value}))
    assert main(["validate", "--config", str(path)]) == 2
    assert f"unknown config keys: {key}" in capsys.readouterr().err


def test_invalid_field_values_are_configuration_errors():
    with pytest.raises(ConfigurationError):
        load_config(None, env={"ISOBATH_DROP_PROB": "2.0"})


# ---------------------------------------------------------------------------
# Exit codes


def test_validate_defaults_exits_zero(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok: 3 vehicles")


def test_validate_reads_environment_overrides(monkeypatch, capsys):
    monkeypatch.setenv("ISOBATH_TOTAL_LENGTH", "4")
    assert main(["validate"]) == 0
    assert "4 steps" in capsys.readouterr().out


def test_validate_config_file(config_file, capsys):
    assert main(["validate", "--config", str(config_file)]) == 0
    out = capsys.readouterr().out
    assert "2 vehicles" in out and "6 steps" in out


def test_validate_rejects_a_noise_free_belief_it_cannot_factor(monkeypatch, capsys):
    # Noise-free samples 1 m apart make Gram matrices that no factor
    # with bounded condition number can hold; ``isobath run`` used to
    # fail on this config after 22 samples.
    monkeypatch.setenv("ISOBATH_MIN_SPACING", "1.0")
    monkeypatch.setenv("ISOBATH_NOISE_STD", "0.0")
    monkeypatch.setenv("ISOBATH_TOTAL_LENGTH", "30")
    assert main(["validate", "--config", str(DEFAULT_CONFIG)]) == 2
    err = capsys.readouterr().err
    assert "1 + n*sf^2/sn^2" in err and "1e+14" in err


# Each config builds a part that refuses it (a zero or negative scale,
# an isobath outside the lake, a lake family without its parameters, a
# plan longer than a packet holds, a start pose without three numbers),
# names an empty team, a sample spacing or slot duration that is not
# positive or a negative noise, holds a count or seed that is not an
# integer, or spaces samples so finely that one step would take more
# than ``mission.STEP_SAMPLE_CAP``, so ``isobath run`` would stop partway
# or stall. A negative spacing would pass that cap and stop the run in
# the chord walk; a negative slot duration would schedule slot after
# slot ahead of every other event, so the run would never end. Both
# commands refuse it.
@pytest.mark.parametrize("env", [
    {"ISOBATH_HORIZON": "0"},
    {"ISOBATH_MCTS_ITERATIONS": "0"},
    {"ISOBATH_SLOT_DURATION": "0"},
    {"ISOBATH_SLOT_DURATION": "-10"},
    {"ISOBATH_NOISE_STD": "-0.1"},
    {"ISOBATH_TURN_RADIUS": "0"},
    {"ISOBATH_THETA_MAX": "0"},
    {"ISOBATH_COST_DEEP_WRONG": "0"},
    {"ISOBATH_LENGTH_SCALE": "0"},
    {"ISOBATH_SIGNAL_VARIANCE": "0"},
    {"ISOBATH_MIN_SPACING": "-1"},
    {"ISOBATH_ROLLOUT_POLICY": '"spiral"'},
    {"ISOBATH_PLANNING_RESOLUTION": "0"},
    {"ISOBATH_LEVEL": "100"},
    {"ISOBATH_BATHYMETRY_FAMILY": '"ridge"'},
    {"ISOBATH_HORIZON": "240", "ISOBATH_TOTAL_LENGTH": "250"},
    {"ISOBATH_STARTS": "[[0, 10], [0, 10], [0, 10]]"},
    {"ISOBATH_STARTS": "[[0, 10, 10, 5], [0, 10, 10, 5], [0, 10, 10, 5]]"},
    {"ISOBATH_SPEEDS": "[]", "ISOBATH_STARTS": "[]"},
    {"ISOBATH_SAMPLE_SPACING": "0.001"},
    {"ISOBATH_SAMPLE_SPACING": "1e-300"},
    {"ISOBATH_SAMPLE_SPACING": "0"},
    {"ISOBATH_SAMPLE_SPACING": "-5"},
    *(
        {f"ISOBATH_{name}": value}
        for name in ("TOTAL_LENGTH", "HORIZON", "MCTS_ITERATIONS", "SEED")
        for value in ("2.5", "true", "3.0")
    ),
    {"ISOBATH_TOTAL_LENGTH": "2.5", "ISOBATH_VARIANT": '"lawnmower"'},
], ids=lambda env: ",".join(f"{k[8:].lower()}={v}" for k, v in env.items()))
def test_validate_rejects_configs_a_run_cannot_finish(env, monkeypatch, capsys, tmp_path):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    assert main(["validate", "--config", str(DEFAULT_CONFIG)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")
    out = tmp_path / "runs"
    assert main(["run", "--config", str(DEFAULT_CONFIG), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not out.exists()


@pytest.mark.parametrize("name", ["total_length", "horizon", "mcts_iterations", "seed"])
@pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None])
def test_count_and_seed_fields_must_be_integers_naming_the_field(name, value):
    with pytest.raises(ConfigurationError, match=f"^{name} must be an integer"):
        MissionConfig(**{name: value})


def with_first_number(value, number):
    """A config value with its first number, depth first, set to ``number``."""
    if isinstance(value, dict):
        key = next(iter(value))
        return {**value, key: with_first_number(value[key], number)}
    if isinstance(value, (tuple, list)):
        return [with_first_number(value[0], number), *value[1:]]
    return number


DEFAULTS = dataclasses.asdict(MissionConfig())
# (test id, field, value): every field that holds numbers, at NaN and at
# either infinity.
NON_FINITE = [
    (f"{name}={number}", name, with_first_number(value, number))
    for name, value in DEFAULTS.items()
    if not isinstance(value, str)
    for number in (math.nan, math.inf, -math.inf)
] + [
    # A top-level lake parameter, not only one inside the basin's center.
    (f"bathymetry_params.radius={number}", "bathymetry_params",
     {**DEFAULTS["bathymetry_params"], "radius": number})
    for number in (math.nan, math.inf, -math.inf)
] + [
    # Finite, but the Gram size bound overflows on the turn apron.
    ("turn_radius=1e308", "turn_radius", 1e308),
]


# A non-finite number used to pass validation and then give a NaN reward
# or NaN event times, or stop the run with a traceback.
@pytest.mark.parametrize(
    "name, value", [case[1:] for case in NON_FINITE], ids=[case[0] for case in NON_FINITE]
)
def test_validate_rejects_non_finite_numbers_naming_the_field(
    name, value, monkeypatch, capsys
):
    monkeypatch.setenv(f"ISOBATH_{name.upper()}", json.dumps(value))
    assert main(["validate", "--config", str(DEFAULT_CONFIG)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and name in err


# A step of the default 15 m turn radius runs up to 15 (pi/2 + pi) m:
# 71 samples at a 1 m spacing, 70,686 at 1 mm, about 7e301 at 1e-300 m.
def test_validate_rejects_too_many_samples_a_step_naming_the_fields(
    monkeypatch, capsys
):
    monkeypatch.setenv("ISOBATH_SAMPLE_SPACING", "0.001")
    assert main(["validate", "--config", str(DEFAULT_CONFIG)]) == 2
    err = capsys.readouterr().err
    assert "sample_spacing" in err and "turn_radius" in err
    assert f"the cap {mission.STEP_SAMPLE_CAP}" in err


def test_a_spacing_at_the_step_sample_cap_validates(monkeypatch):
    cfg = MissionConfig()
    longest_step = cfg.turn_radius * (cfg.theta_max + math.pi)
    cap = mission.STEP_SAMPLE_CAP
    # cap - 0.5 spacings to the longest step: floor(cap - 0.5) + 1 = cap samples.
    monkeypatch.setenv("ISOBATH_SAMPLE_SPACING", json.dumps(longest_step / (cap - 0.5)))
    assert main(["validate", "--config", str(DEFAULT_CONFIG)]) == 0
    # cap + 0.5 spacings: cap + 1 samples.
    monkeypatch.setenv("ISOBATH_SAMPLE_SPACING", json.dumps(longest_step / (cap + 0.5)))
    assert main(["validate", "--config", str(DEFAULT_CONFIG)]) == 2


def test_the_longest_plan_a_packet_holds_validates(monkeypatch):
    # 252 bytes = 14 header + 237 actions + 1 terminator, no measurements.
    monkeypatch.setenv("ISOBATH_TOTAL_LENGTH", "250")
    monkeypatch.setenv("ISOBATH_HORIZON", "237")
    assert main(["validate", "--config", str(DEFAULT_CONFIG)]) == 0
    monkeypatch.setenv("ISOBATH_HORIZON", "238")
    assert main(["validate", "--config", str(DEFAULT_CONFIG)]) == 2
    monkeypatch.setenv("ISOBATH_VARIANT", '"lawnmower"')
    assert main(["validate", "--config", str(DEFAULT_CONFIG)]) == 0


def test_default_config_file_validates(capsys):
    assert main(["validate", "--config", str(DEFAULT_CONFIG)]) == 0
    assert capsys.readouterr().out.startswith("ok: 3 vehicles")


def test_configuration_problems_exit_two(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 2
    assert "configuration error" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"unknown_knob": 1}))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    cfg = tmp_path / "ok.json"
    cfg.write_text(json.dumps(MICRO))
    assert main(
        ["run", "--config", str(cfg), "--seeds", "7-3", "--out", str(tmp_path / "o")]
    ) == 2


def test_runtime_failures_exit_three(config_file, tmp_path, monkeypatch, capsys):
    def boom(cfg):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr("isobath.cli.run_mission", boom)
    code = main(
        ["run", "--config", str(config_file), "--out", str(tmp_path / "o")]
    )
    assert code == 3
    assert "runtime error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Run outputs


def test_run_writes_the_per_seed_products(config_file, tmp_path, capsys):
    out = tmp_path / "runs"
    code = main(
        ["run", "--config", str(config_file), "--seeds", "0", "--out", str(out)]
    )
    assert code == 0
    assert "seed 0" in capsys.readouterr().out

    seed_dir = out / "seed_0"
    for name in (
        "events.jsonl",
        "risk_global.csv",
        "risk_agent_0.csv",
        "risk_agent_1.csv",
        "depth_truth.csv",
        "trace.csv",
        "summary.json",
    ):
        assert (seed_dir / name).exists(), name

    header = json.loads((seed_dir / "events.jsonl").read_text().splitlines()[0])
    assert header["kind"] == "config"
    assert header["seed"] == 0

    trace_lines = (seed_dir / "trace.csv").read_text().splitlines()
    assert trace_lines[0] == "step,accumulated_reward"
    assert len(trace_lines) == 1 + MICRO["total_length"] + 1

    summary = json.loads((seed_dir / "summary.json").read_text())
    assert summary["seed"] == 0
    assert summary["variant"] == "terminal"
    assert summary["final_accumulated_reward"] >= 0.0
    assert 0.0 <= summary["comm_delivery_rate"] <= 1.0
    assert len(summary["merged_belief_sizes"]) == 2

    risk_header = (seed_dir / "risk_global.csv").read_text().splitlines()[0]
    assert risk_header.split(",")[:2] == ["north_m", "east_m"]


def test_one_vehicle_summary_is_strict_json(tmp_path, capsys):
    # A lone vehicle hears no broadcasts, so there is no delivery rate to
    # report; the summary must still parse without NaN or Infinity.
    path = tmp_path / "solo.json"
    path.write_text(json.dumps(
        {**MICRO, "speeds": [1.5], "starts": [[0.0, 50.0, 20.0]],
         "variant": "lawnmower"}
    ))
    out = tmp_path / "runs"
    code = main(["run", "--config", str(path), "--seeds", "0", "--out", str(out)])
    assert code == 0
    assert "delivery n/a" in capsys.readouterr().out

    def reject(name):
        raise ValueError(f"summary.json holds non-standard JSON {name}")

    text = (out / "seed_0" / "summary.json").read_text()
    summary = json.loads(text, parse_constant=reject)
    assert summary["comm_delivery_rate"] is None


def test_outputs_rebuild_from_the_run_directory_alone(tmp_path, monkeypatch):
    # A finished mission is its config and its event log: reading
    # events.jsonl back must rewrite every output byte for byte.
    path = tmp_path / "trio.json"
    path.write_text(json.dumps(
        {**MICRO, "speeds": [1.5, 1.35, 1.65],
         "starts": [[0.0, 50.0, 20.0], [0.0, 100.0, 20.0], [0.0, 150.0, 20.0]]}
    ))
    first = tmp_path / "first"
    assert main(["run", "--config", str(path), "--seeds", "0", "--out", str(first)]) == 0
    lines = (first / "seed_0" / "events.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    del header["kind"]
    header_file = tmp_path / "header.json"
    header_file.write_text(json.dumps(header))
    config = load_config(str(header_file), env={})
    rebuilt = MissionResult(config, [json.loads(line) for line in lines[1:]])
    monkeypatch.setattr(cli, "run_mission", lambda cfg: rebuilt)
    cli._run_one_seed(config, 0, tmp_path / "second")

    names = sorted(p.name for p in (first / "seed_0").iterdir())
    assert len(names) == 8
    assert sorted(p.name for p in (tmp_path / "second").iterdir()) == names
    for name in names:
        assert (tmp_path / "second" / name).read_bytes() == (
            first / "seed_0" / name
        ).read_bytes(), name


def test_a_run_builds_the_lake_and_grids_once_per_config(
    config_file, tmp_path, monkeypatch
):
    # One config for the file and one per seed each build the lake and
    # the three grids; the simulator and every output reuse them.
    builds = collections.Counter()
    for name in ("synthetic_lake", "eval_grid"):
        def counted(*args, _build=getattr(mission, name), _name=name, **kwargs):
            builds[_name] += 1
            return _build(*args, **kwargs)

        monkeypatch.setattr(mission, name, counted)
    argv = ["run", "--config", str(config_file), "--seeds", "0-1", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert builds == {"synthetic_lake": 3, "eval_grid": 9}


def test_grid_files_round_trip_the_output_grid(config_file, tmp_path, monkeypatch):
    # Every grid file lists the output grid's points in order, each row
    # with a value that reads back to the same float.
    config = load_config(str(config_file), env={})
    result = run_mission(config)
    monkeypatch.setattr(cli, "run_mission", lambda cfg: result)
    cli._run_one_seed(config, config.seed, tmp_path)
    grid = eval_grid(config.area(), config.output_resolution)
    files = {
        "risk_global.csv": ("risk", risk_snapshot(result)),
        "risk_agent_0.csv": ("risk", risk_snapshot(result, agent=0)),
        "risk_agent_1.csv": ("risk", risk_snapshot(result, agent=1)),
        "depth_truth.csv": ("depth_m", truth_grid(result)[1]),
    }
    for name, (column, values) in files.items():
        with open(tmp_path / name) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["north_m", "east_m", column], name
        parsed = np.array([[float(x) for x in row] for row in rows[1:]])
        np.testing.assert_array_equal(parsed[:, :2], grid)
        np.testing.assert_array_equal(parsed[:, 2], values)


def test_run_respects_the_seed_list(config_file, tmp_path):
    out = tmp_path / "runs"
    assert main(
        ["run", "--config", str(config_file), "--seeds", "1,3", "--out", str(out)]
    ) == 0
    assert (out / "seed_1").is_dir()
    assert (out / "seed_3").is_dir()
    assert not (out / "seed_0").exists()


def test_compare_writes_a_comparison_report(config_file, tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main(
        [
            "run",
            "--config",
            str(config_file),
            "--seeds",
            "0",
            "--out",
            str(out),
            "--compare",
        ]
    )
    assert code == 0
    report = json.loads((out / "comparison.json").read_text())
    assert set(report["variants"]) == {"terminal", "plain", "lawnmower"}
    for row in report["variants"].values():
        assert "mean_final" in row and "mean_mid" in row
    printed = capsys.readouterr().out
    assert "terminal:" in printed and "lawnmower:" in printed


# ---------------------------------------------------------------------------
# Config fuzz: every config that validates runs to completion


def _points(north, east):
    """A point within a quarter of the area's size of it, on either side."""
    return st.tuples(
        st.floats(-0.25 * north, 1.25 * north), st.floats(-0.25 * east, 1.25 * east)
    ).map(list)


@st.composite
def _lakes(draw, north, east):
    """A lake family and its parameters, invalid ones included.

    Basins and ridges mostly cross the default 15 m level and span a
    fair part of the area, so that most examples get past validation.
    """
    family = draw(st.sampled_from(["plane", "gaussian-basin", "two-basin", "ridge"]))
    # Radii and widths from a little below zero to past the area's size.
    width = st.floats(-0.05, 1.5).map(lambda f: f * min(north, east))
    if family == "plane":
        slope = st.floats(-0.3, 0.3)
        params = {"depth0": draw(st.floats(0.0, 30.0)), "gradient_north": draw(slope),
                  "gradient_east": draw(slope)}
    elif family == "ridge":
        params = {"background": draw(st.floats(15.5, 40.0)),
                  "start": draw(_points(north, east)), "end": draw(_points(north, east)),
                  "height": draw(st.floats(-5.0, 40.0)), "width": draw(width)}
    else:
        params = {"background": draw(st.floats(0.0, 14.5))}
        deep = st.floats(15.5, 40.0)
        for s in ("",) if family == "gaussian-basin" else ("1", "2"):
            params[f"center{s}"] = draw(_points(north, east))
            params[f"radius{s}"] = draw(width)
            params[f"max_depth{s}"] = draw(deep)
            deep = st.floats(0.0, 40.0)  # a second basin may be a shoal
    return family, params


@st.composite
def fuzzed_configs(draw):
    """A small config file's fields: lake, team, variant, costs and counts."""
    north, east = draw(st.floats(40.0, 400.0)), draw(st.floats(40.0, 400.0))
    family, params = draw(_lakes(north, east))
    team = draw(st.integers(1, 4))
    # Starts up to 100 m outside the area on every side.
    start = st.tuples(
        st.floats(-math.pi, math.pi),
        st.floats(-100.0, north + 100.0),
        st.floats(-100.0, east + 100.0),
    ).map(list)
    cost = st.floats(0.5, 20.0)
    costs = draw(st.one_of(cost.map(lambda c: (c, c)), st.tuples(cost, cost)))
    return {
        "area_max": [north, east],
        "bathymetry_family": family,
        "bathymetry_params": params,
        "speeds": draw(st.lists(st.floats(0.5, 3.0), min_size=team, max_size=team)),
        "starts": draw(st.lists(start, min_size=team, max_size=team)),
        "variant": draw(st.sampled_from(["terminal", "plain", "lawnmower"])),
        "cost_deep_wrong": costs[0],
        "cost_shallow_wrong": costs[1],
        "total_length": draw(st.integers(1, 3)),
        "horizon": draw(st.integers(1, 4)),
        "mcts_iterations": draw(st.integers(1, 4)),
        "planning_resolution": 50.0,
        "output_resolution": 50.0,
        "trace_resolution": 50.0,
        "seed": draw(st.integers(0, 3)),
    }


def _micro_lake(family, **params):
    return dict(MICRO, variant="lawnmower", total_length=2, speeds=[1.5],
                starts=[[0.0, 10.0, 10.0]], bathymetry_family=family,
                bathymetry_params=params)


RUN_FILES = ("events.jsonl", "trace.csv", "risk_global.csv", "depth_truth.csv",
             "summary.json")


@given(fuzzed_configs())
@settings(max_examples=200, deadline=timedelta(seconds=3))
# A basin whose radius squares to zero: its first straight step samples
# (10, 15), its center, where the depth is 0/0.
@example(_micro_lake(
    "two-basin", background=5.0, center1=[10.0, 15.0], radius1=1e-200, max_depth1=25.0,
    center2=[100.0, 150.0], radius2=80.0, max_depth2=25.0,
))
# Depths past single precision, which packets carry.
@example(_micro_lake("plane", depth0=0.0, gradient_north=1e300, gradient_east=0.0))
# A start pose past single precision, which a packet's header carries.
@example(dict(MICRO, starts=[[0.0, 1e39, 20.0], [0.0, 100.0, 20.0]]))
def test_every_config_that_validates_runs_to_completion(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.json"
        path.write_text(json.dumps(config))
        if main(["validate", "--config", str(path)]) == 2:
            return
        out = Path(tmp) / "runs"
        assert main(["run", "--config", str(path), "--seeds", "0", "--out", str(out)]) == 0
        team = range(len(config["starts"]))
        for name in (*RUN_FILES, *(f"risk_agent_{i}.csv" for i in team)):
            assert (out / "seed_0" / name).stat().st_size > 0, name
