"""The plan-regression missions and the fixture of their plan events.

``tests/test_plan_regression.py`` runs these short missions and compares
every ``plan`` event with ``tests/data/plans.json``. Regenerate the file
only from a commit whose plans are known good, since the test exists to
catch a change that moves them:

    PYTHONPATH=src python tests/plan_fixture.py

A regeneration prints what moved against the file it replaces: the
number of plans whose actions or evaluation counts changed, and the
largest absolute and relative change of ``value`` and ``naive``. With
``--check`` it prints only that line, leaves the file as it is, and
exits 1 when anything moved (a plan, an action, an evaluation count or
any bit of a value) and 0 when nothing did:

    PYTHONPATH=src python tests/plan_fixture.py --check
"""

import dataclasses
import json
import sys
from pathlib import Path

from isobath.cli import load_config
from isobath.mission import run_mission

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "data" / "plans.json"

# name -> overrides of the default config; each runs for STEPS steps at
# every seed. Six iterations stop the search inside the root's first
# round of expansions, before UCB selection runs; at horizon 1 the sweep
# prefix is always one of those expansions. At costs 16/4, declaring
# shallow water safe costs four times the opposite error, so every
# closed-form call takes the general form.
CASES = {
    "terminal": {"variant": "terminal", "horizon": 3, "mcts_iterations": 48},
    "plain": {"variant": "plain", "horizon": 10, "mcts_iterations": 48},
    "terminal_it6": {"variant": "terminal", "horizon": 3, "mcts_iterations": 6},
    "terminal_h1": {"variant": "terminal", "horizon": 1, "mcts_iterations": 48},
    "terminal_16_4": {
        "variant": "terminal", "horizon": 3, "mcts_iterations": 48,
        "cost_deep_wrong": 16.0, "cost_shallow_wrong": 4.0,
    },
}
SEEDS = (0, 1)
STEPS = 8


def plan_events() -> dict[str, list[dict]]:
    """Every ``plan`` event of every case and seed, keyed ``<case>/seed_<n>``."""
    base = load_config(str(ROOT / "configs" / "default.json"), env={})
    out = {}
    for name, overrides in CASES.items():
        for seed in SEEDS:
            cfg = dataclasses.replace(base, **overrides, total_length=STEPS, seed=seed)
            out[f"{name}/seed_{seed}"] = [
                {k: ev[k] for k in ("agent", "epoch", "actions", "evaluations",
                                    "value", "naive")}
                for ev in run_mission(cfg).events
                if ev["kind"] == "plan"
            ]
    return out


def moved(old: dict, new: dict) -> str:
    """How the plans of ``new`` differ from those of ``old``, in one line."""
    plans = actions = evaluations = 0
    worst_abs = worst_rel = 0.0
    for key, events in new.items():
        for g, w in zip(events, old.get(key, [])):
            plans += 1
            actions += g["actions"] != w["actions"]
            evaluations += g["evaluations"] != w["evaluations"]
            for field in ("value", "naive"):
                change = abs(g[field] - w[field])
                worst_abs = max(worst_abs, change)
                worst_rel = max(worst_rel, change / max(abs(w[field]), 1e-300))
    return (
        f"{plans} plans compared: actions moved in {actions}, "
        f"evaluations in {evaluations}; largest value change "
        f"{worst_abs:.2e} absolute, {worst_rel:.2e} relative"
    )


def main(argv) -> int:
    """Regenerate the fixture, or with ``--check`` only report what moved."""
    if argv not in ([], ["--check"]):
        print("usage: plan_fixture.py [--check]", file=sys.stderr)
        return 2
    check = bool(argv)
    if check and not FIXTURE.exists():
        print(f"{FIXTURE} does not exist", file=sys.stderr)
        return 2
    new = plan_events()
    text = json.dumps(new, indent=1) + "\n"
    if FIXTURE.exists():
        old = json.loads(FIXTURE.read_text())
        print(moved(old, new))
        if check:
            # The fixture holds exactly what json writes, so equal plans
            # are equal after the same round trip, to the last bit.
            return int(json.loads(text) != old)
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(text)
    print(f"wrote {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
