"""Command-line interface tests: config loading, seed parsing, exit
codes, and the files a run writes."""

import json
from pathlib import Path

import pytest

from isobath.cli import load_config, main, parse_seeds
from isobath.errors import ConfigurationError, NumericalError
from isobath.mission import MissionConfig

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
