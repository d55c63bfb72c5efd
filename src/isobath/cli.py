"""Command-line entry point.

Two subcommands:

``isobath run`` simulates missions and writes their outputs (event log,
risk maps, truth grid, reward trace, summary) under an output directory,
one subdirectory per seed, each with the run's record as
``summary.json``; with ``--compare`` it instead runs every planner
variant over the seeds and writes their records and a comparison
summary. Every seed's config derives from the one loaded, sharing its
parts, so a command builds the lake and grids once.

``isobath validate`` checks that a configuration file is usable and
exits without running anything: loading it rejects any non-finite
number and builds the fixed parts (lake, grids, kernel, vehicles) that
``isobath run`` then runs on.

Configuration files are JSON objects whose keys are MissionConfig
fields. Any field can also be overridden through the environment as
``ISOBATH_<FIELD>`` (upper-cased field name); values are parsed as JSON
when possible and taken as literal strings otherwise. A file key or an
``ISOBATH_`` variable that names no field is a configuration error.

Exit codes: 0 on success, 2 for configuration problems, 3 for runtime
failures.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import json
import os
import sys
from pathlib import Path

from .errors import ConfigurationError, IsobathError
from .mission import (
    MissionConfig,
    accumulated_reward_trace,
    compare_methods,
    risk_snapshot,
    run_mission,
    run_record,
    truth_grid,
    write_jsonl,
)

ENV_PREFIX = "ISOBATH_"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def load_config(path: str | None, env: dict[str, str] | None = None) -> MissionConfig:
    """Build a MissionConfig from a JSON file plus environment overrides."""
    field_names = {f.name for f in dataclasses.fields(MissionConfig)}
    raw: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigurationError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigurationError("config file must hold a JSON object")
        unknown = sorted(set(raw) - field_names)
        if unknown:
            raise ConfigurationError(f"unknown config keys: {', '.join(unknown)}")
    env = os.environ if env is None else env
    env_names = {ENV_PREFIX + name.upper(): name for name in field_names}
    unknown = sorted(k for k in env if k.startswith(ENV_PREFIX) and k not in env_names)
    if unknown:
        raise ConfigurationError(f"unknown config keys: {', '.join(unknown)}")
    for key, name in env_names.items():
        if key in env:
            text = env[key]
            try:
                raw[name] = json.loads(text)
            except json.JSONDecodeError:
                raw[name] = text
    try:
        return MissionConfig(**raw)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(str(exc)) from exc


def parse_seeds(spec: str) -> list[int]:
    """Parse a seed list like ``0,1,2`` or ``0-19`` or ``0-3,7``, each seed once."""
    seeds: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            if "-" in part[1:]:
                cut = part.index("-", 1)
                lo, hi = int(part[:cut]), int(part[cut + 1 :])
            else:
                lo = hi = int(part)
        except ValueError:
            raise ConfigurationError(f"bad seed spec: {part!r}") from None
        if hi < lo:
            raise ConfigurationError(f"backwards seed range: {part!r}")
        seeds.extend(range(lo, hi + 1))
    if not seeds:
        raise ConfigurationError(f"no seeds in {spec!r}")
    for seed, count in collections.Counter(seeds).items():
        if count > 1:
            raise ConfigurationError(f"seed {seed} appears more than once in {spec!r}")
    return seeds


@contextlib.contextmanager
def _writing(path):
    """Report a run file that cannot be written as a configuration error naming it."""
    try:
        yield
    except OSError as exc:
        raise ConfigurationError(f"cannot write {str(path)!r}: {exc.strerror}") from exc


def _write_text(path, text):
    with _writing(path), open(path, "w") as fh:
        fh.write(text)


def _write_json(path, obj):
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_grid_csv(path, column, prefixes, values):
    """One value per output-grid point, after its ``north,east,`` prefix,
    joined and written in one call."""
    rows = "".join([f"{p}{v!r}\n" for p, v in zip(prefixes, values.tolist())])
    _write_text(path, f"north_m,east_m,{column}\n{rows}")


def _run_one_seed(config: MissionConfig, seed: int, out_dir: Path) -> dict:
    """Fly ``config`` at ``seed``, write its run directory, return its record."""
    result = run_mission(config.with_seed(seed))
    out_dir.mkdir(parents=True, exist_ok=True)
    with _writing(out_dir / "events.jsonl"):
        write_jsonl(result, out_dir / "events.jsonl")
    # The trace builds the replay, whose one pooled walk the risk maps reuse.
    trace = accumulated_reward_trace(result)
    rows = "".join([f"{k},{v!r}\n" for k, v in enumerate(trace.tolist())])
    _write_text(out_dir / "trace.csv", f"step,accumulated_reward\n{rows}")
    # Every grid file is on the output grid: its points prefix each row.
    points, depths = truth_grid(result)
    prefixes = [f"{n!r},{e!r}," for n, e in points.tolist()]
    _write_grid_csv(out_dir / "risk_global.csv", "risk", prefixes, risk_snapshot(result))
    for i in range(config.team_size):
        _write_grid_csv(
            out_dir / f"risk_agent_{i}.csv", "risk", prefixes,
            risk_snapshot(result, agent=i),
        )
    _write_grid_csv(out_dir / "depth_truth.csv", "depth_m", prefixes, depths)
    record = run_record(result, trace, depths)
    _write_json(out_dir / "summary.json", record)
    return record


def cmd_run(args) -> int:
    config = load_config(args.config)
    seeds = parse_seeds(args.seeds)
    for seed in seeds:
        config.with_seed(seed)  # raises for a bad seed, before anything is written
    out = Path(args.out)
    dirs = [out] if args.compare else [out, *(out / f"seed_{seed}" for seed in seeds)]
    for path in dirs:
        try:
            path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(
                f"cannot create output directory {str(path)!r}: {exc.strerror}"
            ) from exc
    if args.compare:
        report = compare_methods(config, seeds)
        _write_json(out / "comparison.json", report)
        for name, row in report["variants"].items():
            print(
                f"{name}: mean final reward {row['mean_final']:.2f}, "
                f"mean mid reward {row['mean_mid']:.2f}"
            )
        return EXIT_OK
    for seed in seeds:
        summary = _run_one_seed(config, seed, out / f"seed_{seed}")
        rate = summary["comm_delivery_rate"]
        delivery = "n/a" if rate is None else f"{rate:.2f}"
        print(
            f"seed {seed}: final reward "
            f"{summary['final_accumulated_reward']:.2f}, "
            f"duration {summary['mission_duration_s']:.0f}s, "
            f"delivery {delivery}"
        )
    return EXIT_OK


def cmd_validate(args) -> int:
    config = load_config(args.config)
    print(
        f"ok: {config.team_size} vehicles, variant {config.variant!r}, "
        f"{config.total_length} steps"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isobath",
        description="Multi-vehicle critical-isobath survey simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate missions and write outputs")
    run_p.add_argument("--config", default=None, help="JSON config file")
    run_p.add_argument(
        "--seeds", default="0", help="seed list, e.g. 0,1,2 or 0-19"
    )
    run_p.add_argument("--out", default="runs", help="output directory")
    run_p.add_argument(
        "--compare",
        action="store_true",
        help="compare planner variants over the seeds instead of one run per seed",
    )
    run_p.set_defaults(func=cmd_run)

    val_p = sub.add_parser("validate", help="check a config file and exit")
    val_p.add_argument("--config", default=None, help="JSON config file")
    val_p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IsobathError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except KeyboardInterrupt:
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
