"""Tests of the benchmark's own code: statistics, tracing, checks, names.

Run with ``python -m pytest -q perfbench/tests`` from the repo root.
"""

import json
import re
import signal
import time
from pathlib import Path

import pytest

import bench
import isobath.cli
import speed
import tracing

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
NAME = re.compile(r"[A-Za-z0-9_.-]+")

# A mission small enough to run in well under a second.
TINY = bench.Workload(
    {"variant": "terminal", "horizon": 2, "total_length": 3, "mcts_iterations": 4},
    seeds_per_run=1,
)


def test_percentile_needs_ten_samples_beyond():
    assert bench.nearest_rank(list(range(1, 101)), 90) == (90, 10)
    # 100 samples: p90 has exactly ten beyond it, p95 only five.
    d = bench.distribution(range(100))
    assert (d["n"], d["top_pct"], d["top_value"]) == (100, 90, 89)
    # 99 samples: p90 has nine beyond, so only the median qualifies.
    assert bench.distribution(range(99))["top_pct"] == 50
    assert bench.distribution(range(1000))["top_pct"] == 99
    assert bench.distribution(range(15))["top_pct"] is None
    assert bench.distribution([]) == {
        "n": 0, "median": None, "top_pct": None, "top_value": None
    }


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_subtracts_covered_child_time():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def leaf():
        clock.t += 3

    def inner():
        clock.t += 1
        leaf()
        clock.t += 1

    def outer():
        clock.t += 1
        inner()
        clock.t += 2
        inner()
        clock.t += 1

    leaf = tracer.wrap("planner.leaf", leaf)
    inner = tracer.wrap("planner.inner", inner)
    outer = tracer.wrap("mission.outer", outer)
    outer()
    spans, _, _ = tracer.take()
    assert [(s[0], s[3]) for s in spans] == [
        ("mission.outer", -1),
        ("planner.inner", 0),
        ("planner.leaf", 1),
        ("planner.inner", 0),
        ("planner.leaf", 3),
    ]
    rows = tracing.summarize(spans)
    assert rows["mission.outer"] == {"calls": 1, "busy_s": 14.0, "self_s": 4.0}
    assert rows["planner.inner"] == {"calls": 2, "busy_s": 10.0, "self_s": 4.0}
    assert rows["planner.leaf"] == {"calls": 2, "busy_s": 6.0, "self_s": 6.0}
    # A layer's busy time counts only its outermost spans.
    assert rows["layer.planner"] == {"busy_s": 10.0, "self_s": 10.0}
    assert rows["layer.mission"] == {"busy_s": 14.0, "self_s": 4.0}


def test_patched_restores_originals_after_an_error():
    original = isobath.cli.run_mission
    with pytest.raises(ZeroDivisionError):
        with tracing.patched([(isobath.cli, "run_mission", None)]):
            assert isobath.cli.run_mission is None
            1 / 0
    assert isobath.cli.run_mission is original


def test_every_trace_target_exists():
    _, missing = tracing.instrument(tracing.Tracer())
    assert missing == []


def _originals():
    return {
        t.target: vars(owner)[attr]
        for t in tracing.TARGETS
        for owner, attr in [tracing.resolve(t.target)]
    }


def test_untraced_runs_see_unpatched_functions(tmp_path, monkeypatch):
    originals = _originals()
    # The untraced run's only patches are its two boundary timers.
    timed = {
        "isobath.cli:run_mission",
        "isobath.mission:plan_with_predecessors",
        "isobath.mission:lawnmower_path",
    }
    seen = []
    real_run_mission = isobath.cli.run_mission

    def spy(config):
        seen.append(
            {
                target
                for target, fn in originals.items()
                if target not in timed
                and vars(tracing.resolve(target)[0])[tracing.resolve(target)[1]] is not fn
            }
        )
        return real_run_mission(config)

    monkeypatch.setattr(isobath.cli, "run_mission", spy)
    originals["isobath.cli:run_mission"] = spy
    harness = bench.Harness(TINY, tmp_path)
    records = bench.run_untraced(harness, TINY.mission_seeds(0), seconds=1e-6)
    assert len(records) == 2 and not any(r.problems for r in records)
    assert seen == [set(), set()]
    assert _originals() == originals


def _traced_counts(out_dir):
    harness = bench.Harness(TINY, out_dir)
    metrics, records, problems, missing = bench.run_traced(
        harness, TINY.mission_seeds(3), 1e-6, out_dir / "spans.npz"
    )
    assert problems == [] and missing == []
    assert not any(r.problems for r in records)
    assert list(metrics) == list(bench.per_layer_units())
    units = bench.per_layer_units()
    return {k: v for k, v in metrics.items() if not bench.is_time(units[k])}


def test_counts_repeat_exactly_across_seeded_runs(tmp_path):
    originals = _originals()
    first = _traced_counts(tmp_path / "a")
    second = _traced_counts(tmp_path / "b")
    assert first == second
    assert first["planner.plan_episode.calls"] == 3 * 3  # vehicles x steps
    assert first["planner.evaluations"] > 0
    assert _originals() == originals


def test_output_checks_report_problems(tmp_path):
    harness = bench.Harness(TINY, tmp_path)
    with tracing.patched(harness.timers()):
        rec = harness.run(5)
    assert rec.problems == [] and rec.final_reward > 0
    run_dir = tmp_path / "seed_5"
    assert "steps per vehicle [3, 3, 3], expected 4" in bench.check_run_dir(
        run_dir, 4, 3
    ).problems
    trace = run_dir / "trace.csv"
    lines = trace.read_text().splitlines()
    trace.write_text("\n".join(lines[:-1] + ["3,nan"]) + "\n")
    assert bench.check_run_dir(run_dir, 3, 3).problems == [
        "reward trace is not finite with one entry per step",
        "summary final reward disagrees with trace.csv",
    ]


def test_speed_scale_uses_samples_around_the_interval():
    sampler = speed.SpeedSampler()
    assert sampler.scale(0.0, 1.0, 2.0) == 2.0  # no samples: unchanged
    ref = speed.REFERENCE_S
    sampler.stamps = [0.0, 0.5, 1.0, 10.0]
    sampler.costs = [ref, 2 * ref, 2 * ref, 4 * ref]
    # Samples at 0.5 and 1.0, plus 0.0 within one interval before.
    assert sampler.scale(0.04, 0.96, 3.0) == pytest.approx(1.5)
    # A call between samples uses the nearest one within an interval.
    assert sampler.scale(9.97, 9.98, 1.0) == pytest.approx(0.25)


def test_speed_sampler_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedSampler() as sampler:
        time.sleep(0.2)
    assert len(sampler.costs) >= 2 and sampler.spent > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == bench.END_TO_END
    assert layer == bench.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    for name in [*e2e, *layer, *bench.WORKLOADS]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
