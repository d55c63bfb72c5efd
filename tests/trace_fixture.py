"""The reward-trace missions and the fixture of their accumulated rewards.

``tests/test_trace_regression.py`` runs these missions and compares
``accumulated_reward_trace`` with ``tests/data/traces.json``, entry by
entry and bit for bit. Regenerate the file only from a commit whose
traces are known good, since the test exists to catch a change that
moves them:

    PYTHONPATH=src python tests/trace_fixture.py
"""

import dataclasses
import json
from pathlib import Path

from isobath.cli import load_config
from isobath.mission import accumulated_reward_trace, run_mission

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "data" / "traces.json"

# (variant, steps); each runs at every seed. The lawnmower sweep is
# cheap to simulate and long enough for the replay orders to diverge.
CASES = (("lawnmower", 30), ("terminal", 8))
SEEDS = (0, 1)


def reward_traces() -> dict[str, list[float]]:
    """The reward trace of every case and seed, keyed ``<variant>/seed_<n>``."""
    base = load_config(str(ROOT / "configs" / "default.json"), env={})
    out = {}
    for variant, steps in CASES:
        for seed in SEEDS:
            cfg = dataclasses.replace(
                base, variant=variant, total_length=steps, seed=seed
            )
            trace = accumulated_reward_trace(run_mission(cfg))
            out[f"{variant}/seed_{seed}"] = [float(v) for v in trace]
    return out


if __name__ == "__main__":
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(reward_traces(), indent=1) + "\n")
    print(f"wrote {FIXTURE}")
