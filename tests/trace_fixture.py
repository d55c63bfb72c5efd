"""The regression missions and the fixtures of their replayed outputs.

``tests/test_trace_regression.py`` runs these missions and compares
``accumulated_reward_trace`` with ``tests/data/traces.json``, entry by
entry and bit for bit, and the data set behind every per-step belief
with ``tests/data/beliefs.json``: a sha256 of each vehicle's
``agent_data`` and of the team's ``global_data`` at every step.
Regenerate the files only from a commit whose outputs are known good,
since the test exists to catch a change that moves them:

    PYTHONPATH=src python tests/trace_fixture.py

A regeneration prints what moved against the files it replaces: how many
trace entries changed in any bit, and how many per-step belief digests
changed. With ``--check`` it prints only that line, leaves both files as
they are, and exits 1 when anything moved and 0 when nothing did:

    PYTHONPATH=src python tests/trace_fixture.py --check
"""

import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path

from isobath.cli import load_config
from isobath.mission import (
    accumulated_reward_trace,
    agent_data,
    global_data,
    run_mission,
)

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "data" / "traces.json"
BELIEFS = ROOT / "tests" / "data" / "beliefs.json"

# name -> overrides of the default config; each runs at every seed. The
# lawnmower sweep is cheap to simulate and long enough for the replay
# orders to diverge; over the full 100 steps the replay windows are
# longest and the vehicles' step orders drift furthest apart. The ridge
# runs askew to both axes, so its projection rounds; the two basins are
# far enough apart that the isobath rings each on its own. At costs
# 16/4 every closed-form call, in the planner and in the trace, takes
# the general form.
CASES = {
    "lawnmower": {"variant": "lawnmower", "total_length": 30},
    "terminal": {"variant": "terminal", "total_length": 8},
    "terminal_16_4": {
        "variant": "terminal", "total_length": 8,
        "cost_deep_wrong": 16.0, "cost_shallow_wrong": 4.0,
    },
    "lawnmower_100": {"variant": "lawnmower", "total_length": 100},
    "ridge": {
        "variant": "lawnmower",
        "total_length": 30,
        "bathymetry_family": "ridge",
        "bathymetry_params": {
            "background": 22.0, "start": (60.0, 120.0), "end": (540.0, 870.0),
            "height": 14.0, "width": 90.0,
        },
    },
    "two_basin": {
        "variant": "lawnmower",
        "total_length": 30,
        "bathymetry_family": "two-basin",
        "bathymetry_params": {
            "background": 5.0,
            "center1": (180.0, 280.0), "radius1": 90.0, "max_depth1": 24.0,
            "center2": (420.0, 720.0), "radius2": 110.0, "max_depth2": 28.0,
        },
    },
}
SEEDS = (0, 1)


@functools.cache
def missions() -> dict:
    """The result of every case and seed, keyed ``<name>/seed_<n>``."""
    base = load_config(str(ROOT / "configs" / "default.json"), env={})
    out = {}
    for name, overrides in CASES.items():
        for seed in SEEDS:
            cfg = dataclasses.replace(base, **overrides, seed=seed)
            out[f"{name}/seed_{seed}"] = run_mission(cfg)
    return out


def reward_traces() -> dict[str, list[float]]:
    """The reward trace of every case and seed."""
    return {
        key: [float(v) for v in accumulated_reward_trace(result)]
        for key, result in missions().items()
    }


def _digest(data) -> str:
    return hashlib.sha256(data.locations.tobytes() + data.values.tobytes()).hexdigest()


def belief_hashes() -> dict[str, dict[str, list[str]]]:
    """Per case and seed, the digest of every step's data sets.

    ``global`` holds ``global_data(result, k)`` and ``agent_<i>`` holds
    ``agent_data(result, i, k)``, for k = 0 .. total_length.
    """
    out = {}
    for key, result in missions().items():
        steps = range(result.config.total_length + 1)
        row = {"global": [_digest(global_data(result, k)) for k in steps]}
        for i in range(result.config.team_size):
            row[f"agent_{i}"] = [_digest(agent_data(result, i, k)) for k in steps]
        out[key] = row
    return out


def _count_moved(old: dict, new: dict) -> tuple[int, int]:
    """(entries in ``new``, entries that differ from ``old``), over lists by key.

    An entry that only one side has counts as moved.
    """
    compared = moved = 0
    for key in old.keys() | new.keys():
        a, b = old.get(key, []), new.get(key, [])
        compared += len(b)
        moved += sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
    return compared, moved


def _rows(beliefs: dict) -> dict:
    """Belief digests as one list per case, seed and data set."""
    return {
        f"{key}/{name}": row
        for key, rows in beliefs.items()
        for name, row in rows.items()
    }


def moved(old_traces, new_traces, old_beliefs, new_beliefs) -> tuple[str, bool]:
    """How the new traces and beliefs differ from the old, in one line, and
    whether anything moved."""
    entries, entries_moved = _count_moved(old_traces, new_traces)
    digests, digests_moved = _count_moved(_rows(old_beliefs), _rows(new_beliefs))
    line = (
        f"{entries} trace entries compared: {entries_moved} moved; "
        f"{digests} per-step belief digests compared: {digests_moved} moved"
    )
    return line, bool(entries_moved or digests_moved)


def main(argv) -> int:
    """Regenerate both fixtures, or with ``--check`` only report what moved."""
    if argv not in ([], ["--check"]):
        print("usage: trace_fixture.py [--check]", file=sys.stderr)
        return 2
    check = bool(argv)
    exist = FIXTURE.exists() and BELIEFS.exists()
    if check and not exist:
        print(f"{FIXTURE} or {BELIEFS} does not exist", file=sys.stderr)
        return 2
    traces, beliefs = reward_traces(), belief_hashes()
    if exist:
        line, changed = moved(
            json.loads(FIXTURE.read_text()), traces,
            json.loads(BELIEFS.read_text()), beliefs,
        )
        print(line)
        if check:
            return int(changed)
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    for path, data in ((FIXTURE, traces), (BELIEFS, beliefs)):
        path.write_text(json.dumps(data, indent=1) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
