"""Workloads, output checks and metrics of the isobath benchmark.

Every mission goes through the public command line, ``isobath run``, as
a user would run it: ``isobath.cli.main`` simulates the mission and
derives its run directory (event log, risk maps, truth grid, reward
trace, summary). Two boundary timers, patched in from here, split that
time: one around ``run_mission`` as the CLI calls it, and one around the
per-step planning decision as the simulator calls it. While the
untraced run measures, ``speed.SpeedSampler`` samples the host's speed,
and end-to-end times are reported at reference speed. The traced run
(``--trace 1``) adds the layer wrappers from ``tracing.py`` instead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import isobath.cli
import isobath.mission
from speed import REFERENCE_S, SpeedSampler
from tracing import LAYERS, Tracer, instrument, patched, summarize, write_spans

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUNS_DIR = BENCH_DIR / ".runs"
DEFAULT_CONFIG = ROOT / "configs" / "default.json"

MAX_PACKET_BYTES = 252  # the paper's packet size; checked, not imported
SETUP_PROBES = 5


@dataclass(frozen=True)
class Workload:
    """Config overrides on ``configs/default.json`` and seeds per run."""

    overrides: dict
    seeds_per_run: int

    def mission_seeds(self, seed: int) -> list[int]:
        """Mission seeds of one run: disjoint blocks, one per run seed."""
        return [seed * self.seeds_per_run + i for i in range(self.seeds_per_run)]


# Why each workload exists is in README.md and BENCHMARK.json. Twenty
# steps fit every distinct mission of a run plus one repeat in 30 s;
# rewards vary by seed, so each run averages several.
WORKLOADS = {
    "terminal-mission": Workload(
        {"variant": "terminal", "horizon": 3, "total_length": 20}, seeds_per_run=6
    ),
    "plain-mission": Workload(
        {"variant": "plain", "horizon": 10, "total_length": 20}, seeds_per_run=8
    ),
    "sweep-outputs": Workload(
        {"variant": "lawnmower", "total_length": 100}, seeds_per_run=8
    ),
}

END_TO_END = {
    "setup_s": "s",
    "mission_s": "s",
    "outputs_s": "s",
    "plan_ms_p50": "ms",
    "plan_ms_p90": "ms",
    "final_reward": "reward",
    "mid_reward": "reward",
    "peak_rss_mb": "MB",
}

# Span name -> fields reported from its summary row.
SPAN_FIELDS = {
    "planner.EpisodeEvaluator.marginal": ("calls", "busy_s", "self_s"),
    "risk.expected_bayes_risk_closed_batch": ("calls", "busy_s"),
    "gp.admissible_locations": ("calls", "busy_s"),
    "motion.sample_locations": ("calls", "busy_s"),
    "motion.lawnmower_path": ("calls", "busy_s"),
    "planner.plan_episode": ("calls", "busy_s", "self_s"),
    "planner.EpisodeEvaluator.build": ("calls", "busy_s"),
    "coordination.plan_with_predecessors": ("calls", "busy_s"),
    "coordination.preceding_locations": ("calls", "busy_s"),
    "gp.DataSet.insert": ("calls", "busy_s"),
    "gp.Belief.predict_arrays": ("calls", "busy_s"),
    "mission.run_mission": ("busy_s", "self_s"),
    "mission.accumulated_reward_trace": ("busy_s", "self_s"),
    "mission.risk_snapshot": ("busy_s",),
    "mission.write_jsonl": ("busy_s",),
    "comms.encode_packet": ("calls", "busy_s"),
    "comms.decode_packet": ("calls", "busy_s"),
    "environment.sample_depth": ("calls", "busy_s"),
}
LAWNMOWER_SPLITS = ("plan_episode", "preceding_locations", "run_mission")

UNIT_OF_FIELD = {"calls": "count", "busy_s": "s", "self_s": "s"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span, fields in SPAN_FIELDS.items():
        for f in fields:
            units[f"{span}.{f}"] = UNIT_OF_FIELD[f]
    units.update(
        {
            "planner.EpisodeEvaluator.marginal.points_in": "count",
            "risk.expected_bayes_risk_closed_batch.elements": "count",
            "risk.expected_bayes_risk_closed_batch.ns_per_element": "ns",
            "gp.admissible_locations.points_in": "count",
            "gp.admissible_locations.kept_ratio": "ratio",
            "motion.lawnmower_path.steps": "count",
            "planner.evaluations": "count",
            "planner.tail_builds": "count",
            "planner.tail_builds_per_evaluation": "ratio",
            "planner.EpisodeEvaluator.build.base_points": "count",
            "coordination.preceding_locations.points": "count",
            "gp.DataSet.insert.accepted_ratio": "ratio",
            "gp.Belief.predict_arrays.data_points": "count",
            "mission.events": "count",
            "comms.packet_bytes": "bytes",
            "comms.delivery_ratio": "ratio",
            "comms.measurements_per_packet": "count",
            "comms.inserted_ratio": "ratio",
        }
    )
    for split in LAWNMOWER_SPLITS:
        key = f"motion.lawnmower_path.under_{split}"
        units.update({f"{key}.calls": "count", f"{key}.busy_s": "s", f"{key}.steps": "count"})
    for layer in LAYERS:
        units[f"layer.{layer}.busy_s"] = "s"
        units[f"layer.{layer}.self_s"] = "s"
    units["trace.spans"] = "count"
    units["trace.overhead_s"] = "s"
    return units


def is_time(unit: str) -> bool:
    """Whether a metric is a time; all others are counts or ratios of
    counts, and must repeat exactly."""
    return unit in ("s", "ms", "ns")


# --- statistics ---


def nearest_rank(sorted_values, pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    n = len(sorted_values)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return sorted_values[rank - 1], n - rank


def distribution(values, candidates=(50, 90, 95, 99, 99.9)) -> dict:
    """Median plus the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(values)
    out = {"n": len(ordered), "median": None, "top_pct": None, "top_value": None}
    if ordered:
        out["median"] = statistics.median(ordered)
    for pct in candidates:
        if ordered and nearest_rank(ordered, pct)[1] >= 10:
            out["top_pct"], out["top_value"] = pct, nearest_rank(ordered, pct)[0]
    return out


# --- missions and their output checks ---


@dataclass
class MissionRecord:
    seed: int
    mission_s: float = math.nan  # at reference speed, see speed.py
    outputs_s: float = math.nan
    mission_raw_s: float = math.nan  # host seconds
    outputs_raw_s: float = math.nan
    digest: str = ""
    final_reward: float = math.nan
    mid_reward: float = math.nan
    stats: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def check_run_dir(run_dir: Path, total_length: int, team_size: int) -> MissionRecord:
    """Check one ``isobath run`` seed directory; return what it holds."""
    rec = MissionRecord(seed=-1)
    events_path = run_dir / "events.jsonl"
    raw = events_path.read_bytes()
    rec.digest = hashlib.sha256(raw).hexdigest()
    events = [json.loads(line) for line in raw.decode().splitlines()[1:]]
    steps = [0] * team_size
    for e in events:
        if e["kind"] == "step":
            steps[e["agent"]] += 1
    if steps != [total_length] * team_size:
        rec.problems.append(f"steps per vehicle {steps}, expected {total_length}")
    tx = [e for e in events if e["kind"] == "tx"]
    rx = [e for e in events if e["kind"] == "rx"]
    too_big = [e["n_bytes"] for e in tx if e["n_bytes"] > MAX_PACKET_BYTES]
    if too_big:
        rec.problems.append(f"{len(too_big)} packets over {MAX_PACKET_BYTES} bytes")
    delivered = sum(len(e["delivered_to"]) for e in tx)
    dropped = sum(len(e["dropped_to"]) for e in tx)
    received = sum(e["n_meas"] for e in rx)
    rec.stats = {
        "events": len(events),
        "packets": len(tx),
        "packet_bytes": sum(e["n_bytes"] for e in tx),
        "measurements_sent": sum(e["n_meas"] for e in tx),
        "deliveries": delivered,
        "delivery_attempts": delivered + dropped,
        "measurements_received": received,
        "measurements_inserted": sum(len(e["inserted"]) for e in rx),
    }
    lines = (run_dir / "trace.csv").read_text().splitlines()[1:]
    trace = [float(line.split(",")[1]) for line in lines]
    if len(trace) != total_length + 1 or not all(map(math.isfinite, trace)):
        rec.problems.append("reward trace is not finite with one entry per step")
    else:
        rec.final_reward = trace[-1]
        rec.mid_reward = trace[len(trace) // 2]
    summary = json.loads((run_dir / "summary.json").read_text())
    if summary["final_accumulated_reward"] != rec.final_reward:
        rec.problems.append("summary final reward disagrees with trace.csv")
    names = ["risk_global.csv", "depth_truth.csv"]
    names += [f"risk_agent_{i}.csv" for i in range(team_size)]
    for name in names:
        if len((run_dir / name).read_text().splitlines()) < 2:
            rec.problems.append(f"{name} is empty")
    return rec


class Harness:
    """Runs one workload's missions through ``isobath run``, timed."""

    def __init__(self, workload: Workload, out_dir: Path):
        self.workload = workload
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        config = json.loads(DEFAULT_CONFIG.read_text())
        config.update(workload.overrides)
        self.total_length = config["total_length"]
        self.team_size = len(config["speeds"])
        self.config_path = out_dir / "config.json"
        self.config_path.write_text(json.dumps(config, indent=2, sort_keys=True))
        self.sampler = SpeedSampler()
        # (start, end, host seconds) of every plan decision.
        self.decisions: list[tuple[float, float, float]] = []
        self.digests: dict[int, str] = {}
        self._mission: tuple[float, float, float] | None = None

    def _interval(self, fn, record):
        """``fn`` passing (start, end, host seconds) of each call to ``record``.

        Host seconds leave out the time the speed sampler's handler took.
        """
        clock, sampler = time.perf_counter, self.sampler

        def timed(*args, **kwargs):
            spent = sampler.spent
            start = clock()
            result = fn(*args, **kwargs)
            end = clock()
            record((start, end, end - start - (sampler.spent - spent)))
            return result

        return timed

    def timers(self):
        """Boundary timers: the mission, and each per-step plan decision.

        The planning variants decide through ``plan_with_predecessors``;
        the lawnmower variant decides through ``lawnmower_path``. Both
        are patched where the simulator looks them up.
        """

        def mission_done(interval):
            self._mission = interval


        cli, mission = isobath.cli, isobath.mission
        decided = self.decisions.append
        return [
            (cli, "run_mission", self._interval(cli.run_mission, mission_done)),
            (mission, "plan_with_predecessors",
             self._interval(mission.plan_with_predecessors, decided)),
            (mission, "lawnmower_path", self._interval(mission.lawnmower_path, decided)),
        ]

    def decision_ms(self) -> list[float]:
        """Latency of every plan decision so far, at reference speed."""
        scale = self.sampler.scale
        return [scale(s, e, raw) * 1e3 for s, e, raw in self.decisions]

    def run(self, seed: int) -> MissionRecord:
        """One mission and its run directory, checked; never raises."""
        argv = [
            "run",
            "--config", str(self.config_path),
            "--seeds", str(seed),
            "--out", str(self.out_dir),
        ]
        self._mission = None
        sampler = self.sampler
        try:
            spent = sampler.spent
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = isobath.cli.main(argv)
            end = time.perf_counter()
            total = end - start - (sampler.spent - spent)
            if code != 0:
                raise RuntimeError(f"isobath run exited {code}")
            rec = check_run_dir(
                self.out_dir / f"seed_{seed}", self.total_length, self.team_size
            )
        except Exception as exc:  # one failed mission must not end the run
            print(f"perfbench: seed {seed} failed: {exc!r}", file=sys.stderr)
            return MissionRecord(seed=seed, problems=[repr(exc)])
        rec.seed = seed
        m_start, m_end, rec.mission_raw_s = self._mission
        rec.outputs_raw_s = total - rec.mission_raw_s
        rec.mission_s = sampler.scale(m_start, m_end, rec.mission_raw_s)
        rec.outputs_s = sampler.scale(m_end, end, rec.outputs_raw_s)
        first = self.digests.setdefault(seed, rec.digest)
        if rec.digest != first:
            rec.problems.append("events.jsonl differs from an earlier run of this seed")
        return rec

    def warm_up(self, seed: int) -> None:
        """A two-step mission, so lazy imports and caches are not timed."""
        short = Workload({**self.workload.overrides, "total_length": 2}, 1)
        warm = Harness(short, self.out_dir / "warm-up")
        with patched(warm.timers()):
            warm.run(seed)


def run_untraced(harness: Harness, seeds, seconds: float) -> list[MissionRecord]:
    """Cycle through the seeds until time is up, at least once plus one repeat."""
    records: list[MissionRecord] = []
    start = time.perf_counter()
    with harness.sampler, patched(harness.timers()):
        while True:
            records.append(harness.run(seeds[len(records) % len(seeds)]))
            elapsed = time.perf_counter() - start
            if len(records) > len(seeds) and elapsed * (1 + 1 / len(records)) > seconds:
                return records


def end_to_end_metrics(records, harness: Harness, setup_s: float) -> dict:
    ok = [r for r in records if not r.problems]
    first = {}
    for r in ok:
        first.setdefault(r.seed, r)
    plan = sorted(harness.decision_ms())

    def mean(xs):
        return statistics.fmean(xs) if xs else math.nan

    return {
        "setup_s": setup_s,
        "mission_s": statistics.median([r.mission_s for r in ok]) if ok else math.nan,
        "outputs_s": statistics.median([r.outputs_s for r in ok]) if ok else math.nan,
        "plan_ms_p50": statistics.median(plan) if plan else math.nan,
        "plan_ms_p90": nearest_rank(plan, 90)[0] if plan else math.nan,
        "final_reward": mean([r.final_reward for r in first.values()]),
        "mid_reward": mean([r.mid_reward for r in first.values()]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, counts, times, records) -> dict:
    """Per-layer metrics of one traced pass, except the tracing overhead."""
    rows = summarize(spans)
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    out = {}
    for span, fields in SPAN_FIELDS.items():
        for f in fields:
            out[f"{span}.{f}"] = rows.get(span, empty)[f]
    for layer in LAYERS:
        out[f"layer.{layer}.busy_s"] = rows[f"layer.{layer}"]["busy_s"]
        out[f"layer.{layer}.self_s"] = rows[f"layer.{layer}"]["self_s"]
    for name in (
        "planner.EpisodeEvaluator.marginal.points_in",
        "planner.EpisodeEvaluator.build.base_points",
        "planner.evaluations",
        "planner.tail_builds",
        "risk.expected_bayes_risk_closed_batch.elements",
        "gp.admissible_locations.points_in",
        "gp.Belief.predict_arrays.data_points",
        "coordination.preceding_locations.points",
        "motion.lawnmower_path.steps",
    ):
        out[name] = counts[name]
    for split in LAWNMOWER_SPLITS:
        key = f"motion.lawnmower_path.under_{split}"
        out[f"{key}.calls"] = counts[f"{key}.calls"]
        out[f"{key}.busy_s"] = float(times[f"{key}.busy_s"])
        out[f"{key}.steps"] = counts[f"{key}.steps"]
    closed = "risk.expected_bayes_risk_closed_batch"
    out[f"{closed}.ns_per_element"] = _ratio(
        out[f"{closed}.busy_s"] * 1e9, out[f"{closed}.elements"]
    )
    out["gp.admissible_locations.kept_ratio"] = _ratio(
        counts["gp.admissible_locations.kept"], out["gp.admissible_locations.points_in"]
    )
    out["gp.DataSet.insert.accepted_ratio"] = _ratio(
        counts["gp.DataSet.insert.accepted"], out["gp.DataSet.insert.calls"]
    )
    out["planner.tail_builds_per_evaluation"] = _ratio(
        out["planner.tail_builds"], out["planner.evaluations"]
    )
    # Channel counts come from the event logs of the pass.
    log = Counter()
    for r in records:
        log.update(r.stats)
    out["mission.events"] = log["events"]
    out["comms.packet_bytes"] = log["packet_bytes"]
    out["comms.delivery_ratio"] = _ratio(log["deliveries"], log["delivery_attempts"])
    out["comms.measurements_per_packet"] = _ratio(log["measurements_sent"], log["packets"])
    out["comms.inserted_ratio"] = _ratio(
        log["measurements_inserted"], log["measurements_received"]
    )
    out["trace.spans"] = len(spans)
    return out


def run_traced(harness: Harness, seeds, seconds: float, spans_path: Path):
    """Untraced baseline of the first seed, then whole traced passes.

    Returns (per-layer metrics, records, problems, missing targets).
    Count metrics must repeat exactly across passes; time metrics are
    the median over passes.
    """
    tracer = Tracer()
    passes, overheads, spans = [], [], []
    with patched(harness.timers()):
        baseline = harness.run(seeds[0])
    records = [baseline]
    replacements, missing = instrument(tracer)
    start = time.perf_counter()
    with patched(replacements), patched(harness.timers()):
        while True:
            pass_records = []
            for i, seed in enumerate(seeds):
                tracer.run = len(passes) * len(seeds) + i
                pass_records.append(harness.run(seed))
            spans, counts, times = tracer.take()
            passes.append(layer_metrics(spans, counts, times, pass_records))
            overheads.append(pass_records[0].mission_s - baseline.mission_s)
            records += pass_records
            elapsed = time.perf_counter() - start
            if elapsed * (1 + 1 / len(passes)) > seconds:
                break
    write_spans(spans, spans_path)
    units = per_layer_units()
    problems = []
    metrics = {}
    for name, unit in units.items():
        if name == "trace.overhead_s":
            metrics[name] = statistics.median(overheads)
        elif is_time(unit):
            metrics[name] = statistics.median(p[name] for p in passes)
        else:
            metrics[name] = passes[0][name]
            if any(p[name] != metrics[name] for p in passes):
                problems.append(f"count {name} differs between traced passes")
    return metrics, records, problems, missing


# --- environment of the run ---


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def measure_setup(config_path: Path, probes: int = SETUP_PROBES):
    """Host and reference-speed set-up seconds of fresh interpreters.

    The interpreters run one at a time. Each times the reference loop
    right after its set-up, on its own core, which gives its scale.
    """
    raw, scaled = [], []
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(config_path)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        seconds, cost = map(float, done.stdout.split()[-2:])
        raw.append(seconds)
        scaled.append(seconds * REFERENCE_S / cost)
    return raw, scaled


def _json_number(x):
    return None if isinstance(x, float) and not math.isfinite(x) else x


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    # The program gets only the generated config, never ISOBATH_* overrides.
    for key in [k for k in os.environ if k.startswith("ISOBATH_")]:
        del os.environ[key]

    workload = WORKLOADS[args.workload]
    seeds = workload.mission_seeds(args.seed)
    out_dir = RUNS_DIR / args.workload
    # Keep only this run's outputs, so repeated runs do not fill the disk.
    shutil.rmtree(out_dir, ignore_errors=True)
    harness = Harness(workload, out_dir)
    harness.warm_up(seeds[0])

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "mission_seeds": seeds,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
    }
    if args.trace:
        spans_path = out_dir / f"spans-seed{args.seed}.npz"
        metrics, records, problems, missing = run_traced(
            harness, seeds, args.seconds, spans_path
        )
        units = per_layer_units()
        report["missing_targets"] = missing
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        setup_raw, setup = measure_setup(harness.config_path)
        records = run_untraced(harness, seeds, args.seconds)
        metrics = end_to_end_metrics(records, harness, statistics.median(setup))
        units = END_TO_END
        problems = []
        ok = [r for r in records if not r.problems]
        report["setup_s"] = distribution(setup)
        report["setup_raw_s"] = distribution(setup_raw)
        for key in ("mission_s", "outputs_s", "mission_raw_s", "outputs_raw_s"):
            report[key] = distribution([getattr(r, key) for r in ok])
        report["plan_ms"] = distribution(harness.decision_ms())
        report["plan_raw_ms"] = distribution([raw * 1e3 for _, _, raw in harness.decisions])
        report["speed_samples"] = distribution(harness.sampler.costs)
    failed = sum(1 for r in records if r.problems)
    report["failed_ratio"] = failed / len(records)
    report["missions"] = [
        {
            "seed": r.seed,
            "mission_s": _json_number(r.mission_s),
            "mission_raw_s": _json_number(r.mission_raw_s),
            "outputs_s": _json_number(r.outputs_s),
            "events_sha256": r.digest,
            "final_reward": _json_number(r.final_reward),
            "mid_reward": _json_number(r.mid_reward),
            "problems": r.problems,
        }
        for r in records
    ]
    report["problems"] = problems
    print(json.dumps({"report": report}, sort_keys=True))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            name: {"value": _json_number(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0
