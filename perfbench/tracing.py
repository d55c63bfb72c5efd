"""Outside-in span tracing of the isobath layers.

The benchmark never edits the program. It replaces module and class
attributes, such as ``isobath.planner.admissible_locations`` or
``isobath.planner.EpisodeEvaluator.marginal``, with wrappers that record
one span per call, and puts every original back when the traced run
ends. Python looks module globals up at call time, so patching the name
in the *calling* module's namespace catches every call the program makes
through it.

Spans stay in memory as plain tuples ``(name, start, end, parent, run)``:
``parent`` is the index of the enclosing span (-1 for none) and ``run``
the id of the mission that produced it. ``summarize`` turns them into
busy time (wall time inside a span) and self time (busy time minus the
time covered by its direct children) per span name and per layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

LAYERS = (
    "mission",
    "coordination",
    "planner",
    "gp",
    "risk",
    "motion",
    "comms",
    "environment",
)

# Enclosing spans a ``motion.lawnmower_path`` call is attributed to: the
# planner's terminal tails, the reconstruction of peers' broadcast tails,
# and the lawnmower variant's own per-step decision.
LAWNMOWER_PARENTS = (
    "planner.plan_episode",
    "coordination.preceding_locations",
    "mission.run_mission",
)


class Tracer:
    """Collects spans and work counts from wrapped callables."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.times: Counter = Counter()
        self.run = 0
        # Open spans, innermost last, as (span index, name).
        self._open: list[tuple[int, str]] = []

    def enclosing(self, names) -> str | None:
        """Innermost open span whose name is in ``names``."""
        for _, name in reversed(self._open):
            if name in names:
                return name
        return None

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording a span named ``name`` per call.

        ``count(tracer, args, result, seconds)`` runs after a call
        returns, with the caller's spans still open, and adds work done
        to ``tracer.counts`` (and, when split by caller, time to
        ``tracer.times``).
        """
        spans, open_, clock = self.spans, self._open, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_[-1][0] if open_ else -1
            open_.append((index, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[index] = (name, start, end, parent, self.run)
            if count is not None:
                count(self, args, result, end - start)
            return result

        return traced

    def take(self) -> tuple[list[tuple], Counter, Counter]:
        """Return the spans, counts and times so far, and start afresh.

        Span parents are indices into the returned list, so this may only
        be called between top-level calls.
        """
        if self._open:
            raise RuntimeError("cannot take spans while a span is open")
        out = (list(self.spans), self.counts, self.times)
        self.spans.clear()
        self.counts, self.times = Counter(), Counter()
        return out


@contextlib.contextmanager
def patched(replacements):
    """Set ``owner.attr = value`` for each triple; restore all on exit."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def resolve(target: str):
    """``"pkg.module:Class.attr"`` -> (owner object, attribute name)."""
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner, attr


# --- counters: each adds the work one call did to ``tracer.counts`` ---


def _count_marginal(tracer, args, result, seconds):
    tracer.counts["planner.EpisodeEvaluator.marginal.points_in"] += len(args[1])


def _count_build(tracer, args, result, seconds):
    tracer.counts["planner.EpisodeEvaluator.build.base_points"] += len(args[0].base)


def _count_plan_episode(tracer, args, result, seconds):
    tracer.counts["planner.evaluations"] += result.evaluations


def _count_tail_path(tracer, args, result, seconds):
    # Only tails built inside the search's ``evaluate`` closure are tail
    # builds of a candidate; plan_episode's own naive, seed and rescore
    # tails are not. Frames: this counter <- wrapper <- caller.
    if sys._getframe(2).f_code.co_name == "evaluate":
        tracer.counts["planner.tail_builds"] += 1


def _count_admissible(tracer, args, result, seconds):
    tracer.counts["gp.admissible_locations.points_in"] += len(args[0])
    tracer.counts["gp.admissible_locations.kept"] += len(result)


def _count_closed_batch(tracer, args, result, seconds):
    tracer.counts["risk.expected_bayes_risk_closed_batch.elements"] += np.size(args[0])


def _count_lawnmower(tracer, args, result, seconds):
    steps = len(result.actions)
    tracer.counts["motion.lawnmower_path.steps"] += steps
    parent = tracer.enclosing(LAWNMOWER_PARENTS)
    if parent is not None:
        key = "motion.lawnmower_path.under_" + parent.split(".")[-1]
        tracer.counts[key + ".calls"] += 1
        tracer.counts[key + ".steps"] += steps
        tracer.times[key + ".busy_s"] += seconds


def _count_preceding(tracer, args, result, seconds):
    tracer.counts["coordination.preceding_locations.points"] += len(result)


def _count_insert(tracer, args, result, seconds):
    tracer.counts["gp.DataSet.insert.accepted"] += bool(result)


def _count_predict(tracer, args, result, seconds):
    tracer.counts["gp.Belief.predict_arrays.data_points"] += len(args[0].data)


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: where it is looked up and the span it makes."""

    target: str
    span: str | None  # None: count only, record no span
    count: Callable | None = None


# Every name is patched where the calling module looks it up. The CLI's
# own references cover the run-directory outputs; mission, coordination
# and planner references cover the simulator and the search.
TARGETS = (
    Target("isobath.cli:run_mission", "mission.run_mission"),
    Target("isobath.cli:write_jsonl", "mission.write_jsonl"),
    Target("isobath.cli:risk_snapshot", "mission.risk_snapshot"),
    Target("isobath.cli:accumulated_reward_trace", "mission.accumulated_reward_trace"),
    Target("isobath.cli:truth_grid", "mission.truth_grid"),
    Target("isobath.mission:global_data", "mission.global_data"),
    Target("isobath.mission:plan_with_predecessors", "coordination.plan_with_predecessors"),
    Target("isobath.mission:lawnmower_path", "motion.lawnmower_path", _count_lawnmower),
    Target("isobath.mission:sample_locations", "motion.sample_locations"),
    Target("isobath.mission:step", "motion.step"),
    Target("isobath.mission:sample_depth", "environment.sample_depth"),
    Target("isobath.mission:synthetic_lake", "environment.synthetic_lake"),
    Target("isobath.mission:eval_grid", "environment.eval_grid"),
    Target("isobath.mission:encode_packet", "comms.encode_packet"),
    Target("isobath.mission:decode_packet", "comms.decode_packet"),
    Target("isobath.mission:bayes_risk_batch", "risk.bayes_risk_batch"),
    Target("isobath.coordination:JointPlanSnapshot.preceding_locations",
           "coordination.preceding_locations", _count_preceding),
    Target("isobath.coordination:plan_episode", "planner.plan_episode", _count_plan_episode),
    Target("isobath.coordination:lawnmower_path", "motion.lawnmower_path", _count_lawnmower),
    Target("isobath.coordination:sample_locations", "motion.sample_locations"),
    Target("isobath.coordination:rollout", "motion.rollout"),
    Target("isobath.planner:EpisodeEvaluator.__init__",
           "planner.EpisodeEvaluator.build", _count_build),
    Target("isobath.planner:EpisodeEvaluator.marginal",
           "planner.EpisodeEvaluator.marginal", _count_marginal),
    Target("isobath.planner:_tail_path", None, _count_tail_path),
    Target("isobath.planner:admissible_locations", "gp.admissible_locations", _count_admissible),
    Target("isobath.planner:expected_bayes_risk_closed_batch",
           "risk.expected_bayes_risk_closed_batch", _count_closed_batch),
    Target("isobath.planner:bayes_risk_batch", "risk.bayes_risk_batch"),
    Target("isobath.planner:lawnmower_path", "motion.lawnmower_path", _count_lawnmower),
    Target("isobath.planner:sample_locations", "motion.sample_locations"),
    Target("isobath.planner:rollout", "motion.rollout"),
    Target("isobath.gp:DataSet.insert", "gp.DataSet.insert", _count_insert),
    Target("isobath.gp:Belief.predict_arrays", "gp.Belief.predict_arrays", _count_predict),
)


def _count_only(tracer, fn, count):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        count(tracer, args, result, 0.0)
        return result

    return counted


def instrument(tracer: Tracer, targets=TARGETS):
    """Replacements wrapping each target that exists; and the missing ones.

    A target the program no longer has is reported, not fatal, so the
    traced run still measures a program whose internals have moved.
    """
    replacements, missing = [], []
    for t in targets:
        try:
            owner, attr = resolve(t.target)
            fn = vars(owner)[attr]
        except (AttributeError, KeyError, ImportError):
            missing.append(t.target)
            continue
        if t.span is None:
            wrapped = _count_only(tracer, fn, t.count)
        else:
            wrapped = tracer.wrap(t.span, fn, t.count)
        replacements.append((owner, attr, wrapped))
    return replacements, missing


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name and per layer: calls, busy seconds, self seconds.

    Self time is a span's duration minus the durations of its direct
    children; children of one span never overlap, since the program is
    single-threaded. A layer's busy time counts only its outermost spans,
    so a layer calling itself is not counted twice; its self time is the
    sum of its spans' self times. Span parents must precede their
    children in ``spans``, which is the order ``Tracer`` records them in.
    """
    n = len(spans)
    child = [0.0] * n
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    bits = {layer: 1 << i for i, layer in enumerate(LAYERS)}
    mask = [0] * n
    by_name: dict[str, dict[str, float]] = {}
    by_layer = {
        "layer." + layer: {"busy_s": 0.0, "self_s": 0.0} for layer in LAYERS
    }
    for i, (name, start, end, parent, _) in enumerate(spans):
        duration = end - start
        own = duration - child[i]
        row = by_name.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["busy_s"] += duration
        row["self_s"] += own
        layer = name.split(".")[0]
        bit = bits.get(layer, 0)
        above = mask[parent] if parent >= 0 else 0
        mask[i] = above | bit
        if bit:
            lrow = by_layer["layer." + layer]
            lrow["self_s"] += own
            if not above & bit:
                lrow["busy_s"] += duration
    return {**by_name, **by_layer}


def write_spans(spans, path) -> None:
    """Save spans as compressed numpy arrays (names listed once)."""
    names = sorted({s[0] for s in spans})
    code = {name: i for i, name in enumerate(names)}
    np.savez_compressed(
        path,
        names=np.array(names),
        name=np.array([code[s[0]] for s in spans], dtype=np.int32),
        start=np.array([s[1] for s in spans]),
        end=np.array([s[2] for s in spans]),
        parent=np.array([s[3] for s in spans], dtype=np.int64),
        run=np.array([s[4] for s in spans], dtype=np.int32),
    )
