"""Record the planner's evaluator calls of one mission and replay them.

Runs one 20-step mission of the ``terminal`` (horizon 3) or ``plain``
(horizon 10) variant on ``configs/default.json``, with
``EpisodeEvaluator.marginal`` wrapped from here to record every call:
the context its evaluator was built from, the call's location sets and
the values it returned. It then rebuilds each evaluator and replays
every call ``--passes`` times, and prints the number of values whose
bits differ from the recorded ones, and the minimum and median time
per call over the passes, in microseconds.

Whole-mission time on a shared host swings by 1.4-2x, while the minimum
over many passes of the same calls resolves a change of 1-2%. To compare
two commits, record with one and replay with the other, alternating:

    PYTHONPATH=src python tests/evaluator_replay.py terminal --save calls.pkl
    (check out the other commit)
    PYTHONPATH=src python tests/evaluator_replay.py --load calls.pkl

A replay from ``--load`` compares the other commit's values with this
one's, bit for bit. Contexts are pickled, not evaluators, so a recording
replays on a commit whose evaluator holds different attributes.
"""

import argparse
import copy
import dataclasses
import os
import pickle
import statistics
import sys
import time
from pathlib import Path

# Before numpy loads, so that timings are single-threaded as in a mission.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from isobath.cli import load_config  # noqa: E402
from isobath.mission import run_mission  # noqa: E402
from isobath.planner import EpisodeEvaluator  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# variant -> horizon, as the benchmark's mission workloads run them.
HORIZONS = {"terminal": 3, "plain": 10}
STEPS = 20


def record(variant: str, seed: int) -> dict:
    """Every marginal call of one mission: contexts, and calls as
    (context index, location sets, returned values)."""
    cfg = dataclasses.replace(
        load_config(str(ROOT / "configs" / "default.json"), env={}),
        variant=variant, horizon=HORIZONS[variant], total_length=STEPS, seed=seed,
    )
    contexts, calls, index = [], [], {}
    original = EpisodeEvaluator.marginal

    def recording(self, *location_sets):
        values = original(self, *location_sets)
        if id(self) not in index:
            index[id(self)] = len(contexts)
            # A copy: the context's data set may take inserts later on.
            contexts.append((self, copy.deepcopy(self.ctx)))
        sets = [np.array(x, dtype=float) for x in location_sets]
        calls.append((index[id(self)], sets, list(values)))
        return values

    EpisodeEvaluator.marginal = recording
    try:
        run_mission(cfg)
    finally:
        EpisodeEvaluator.marginal = original
    # The evaluators were kept alive while recording, so no id was reused.
    return {"variant": variant, "seed": seed,
            "contexts": [ctx for _, ctx in contexts], "calls": calls}


def replay(recorded: dict, passes: int) -> tuple[int, int, list[float]]:
    """(values compared, values whose bits differ, seconds per pass)."""
    evaluators = [EpisodeEvaluator(ctx) for ctx in recorded["contexts"]]
    calls = [(evaluators[i], sets, want) for i, sets, want in recorded["calls"]]
    compared = differ = 0
    times = []
    for p in range(passes):
        start = time.perf_counter()
        got = [ev.marginal(*sets) for ev, sets, _ in calls]
        times.append(time.perf_counter() - start)
        if p == 0:
            for values, (_, _, want) in zip(got, calls):
                a = np.array(values, dtype=float)
                b = np.array(want, dtype=float)
                compared += b.size
                differ += int(np.count_nonzero(a.view(np.int64) != b.view(np.int64)))
    return compared, differ, times


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("variant", nargs="?", choices=sorted(HORIZONS), default="terminal")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--passes", type=int, default=21)
    parser.add_argument("--save", help="write the recording to this file")
    parser.add_argument("--load", help="replay this recording instead of recording")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    if args.load:
        with open(args.load, "rb") as f:
            recorded = pickle.load(f)
    else:
        recorded = record(args.variant, args.seed)
    if args.save:
        with open(args.save, "wb") as f:
            pickle.dump(recorded, f)
    compared, differ, times = replay(recorded, args.passes)
    n = len(recorded["calls"])
    per_call = sorted(t / n * 1e6 for t in times)
    print(
        f"{recorded['variant']} seed {recorded['seed']}: {n} calls, "
        f"{compared} values, {differ} differ in their bits; "
        f"{per_call[0]:.2f} us per call min, {statistics.median(per_call):.2f} median "
        f"over {args.passes} passes"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
