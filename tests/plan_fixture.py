"""The plan-regression missions and the fixture of their plan events.

``tests/test_plan_regression.py`` runs these short missions and compares
every ``plan`` event with ``tests/data/plans.json``. Regenerate the file
only from a commit whose plans are known good, since the test exists to
catch a change that moves them:

    PYTHONPATH=src python tests/plan_fixture.py
"""

import dataclasses
import json
from pathlib import Path

from isobath.cli import load_config
from isobath.mission import run_mission

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "data" / "plans.json"

# (name, variant, horizon); each runs for STEPS steps at every seed.
CASES = (("terminal", "terminal", 3), ("plain", "plain", 10))
SEEDS = (0, 1)
STEPS = 8


def plan_events() -> dict[str, list[dict]]:
    """Every ``plan`` event of every case and seed, keyed ``<case>/seed_<n>``."""
    base = load_config(str(ROOT / "configs" / "default.json"), env={})
    out = {}
    for name, variant, horizon in CASES:
        for seed in SEEDS:
            cfg = dataclasses.replace(
                base, variant=variant, horizon=horizon, total_length=STEPS, seed=seed
            )
            out[f"{name}/seed_{seed}"] = [
                {k: ev[k] for k in ("agent", "epoch", "actions", "evaluations",
                                    "value", "naive")}
                for ev in run_mission(cfg).events
                if ev["kind"] == "plan"
            ]
    return out


if __name__ == "__main__":
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(plan_events(), indent=1) + "\n")
    print(f"wrote {FIXTURE}")
