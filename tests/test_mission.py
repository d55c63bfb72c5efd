"""Mission simulator tests on micro-missions: determinism, event-log
consistency, TDMA timing, channel behavior and delivery rate, belief
reconstruction from the log, every per-step belief against the
reference oracles' whole-log replays, and the summary products."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isobath import mission
from isobath.comms import TdmaSchedule
from isobath.environment import eval_grid
from isobath.errors import ConfigurationError
from isobath.gp import DataSet, Sample
from isobath.mission import (
    MissionConfig,
    MissionResult,
    accumulated_reward_trace,
    agent_data,
    compare_methods,
    delivery_rate,
    global_data,
    risk_snapshot,
    run_mission,
    truth_grid,
    write_jsonl,
)
from isobath.motion import AgentState, lawnmower_path, step
from isobath.risk import bayes_risk_batch
from reference import (
    agent_data_by_two_rules,
    global_data_from_scratch,
    risk_field,
    sensor_readings,
)


def micro(**kw):
    base = dict(
        area_max=(200.0, 300.0),
        bathymetry_params={"center": (100.0, 150.0), "background": 5.0,
                           "max_depth": 25.0, "radius": 80.0},
        speeds=(1.5, 1.35),
        starts=((0.0, 50.0, 20.0), (0.0, 100.0, 20.0)),
        total_length=6,
        mcts_iterations=6,
        planning_resolution=60.0,
        output_resolution=50.0,
        trace_resolution=60.0,
        seed=0,
    )
    base.update(kw)
    return MissionConfig(**base)


@pytest.fixture(scope="module")
def result():
    return run_mission(micro())


def team(size, **kw):
    """``micro`` with ``size`` vehicles, all launched from one point."""
    return micro(speeds=(1.5,) * size, starts=((0.0, 50.0, 20.0),) * size, **kw)


def logged(config, entries):
    """A MissionResult from (t, tie, event) entries, logged as the
    simulator logs them: in time order, events of one instant by ``tie``
    and then in entry order. Each sample's ``accepted`` and each
    reception's ``inserted`` (from its ``measurements``) are the verdicts
    of the vehicle's own data set."""
    held = [DataSet(config.min_spacing) for _ in range(config.team_size)]
    events = []
    for t, _, entry in sorted(entries, key=lambda e: e[:2]):
        event = {"t": t, **entry}
        own = held[event["agent"]]
        if event["kind"] == "sample":
            sample = Sample((event["north"], event["east"]), event["value"])
            event["accepted"] = int(own.insert(sample))
        elif event["kind"] == "rx":
            event["inserted"] = [
                [north, east, value]
                for north, east, value in event.pop("measurements")
                if own.insert(Sample((north, east), value))
            ]
        events.append(event)
    return MissionResult(config, events)


def sample_log(config, samples):
    """A MissionResult holding only sample events, (t, agent, step, north,
    east, value) each, in time order."""
    return logged(config, [
        (t, 0, {"kind": "sample", "agent": agent, "step": k,
                "north": north, "east": east, "value": value})
        for t, agent, k, north, east, value in sorted(samples)
    ])


def last_pose(result, agent):
    """The pose in the vehicle's last ``step`` event."""
    last = [e for e in result.events
            if e["kind"] == "step" and e["agent"] == agent][-1]
    return AgentState(last["heading"], last["north"], last["east"])


def reference_reward_trace(result):
    """The reward trace with every step's data set rebuilt from scratch
    by the reference oracle."""
    config = result.config
    kernel, loss = config.parts.kernel, config.parts.loss
    points = eval_grid(config.area(), config.trace_resolution)
    prior = float(
        np.sum(
            bayes_risk_batch(
                np.full(len(points), config.prior_mean),
                np.full(len(points), config.signal_variance),
                loss,
            )
        )
    )
    trace = np.empty(config.total_length + 1)
    for k in range(config.total_length + 1):
        data = global_data_from_scratch(result, k)
        risk = float(np.sum(risk_field(
            kernel, data, points, loss, prior_mean=config.prior_mean
        )))
        trace[k] = prior - risk
    return trace


def trace_data_sets(result):
    """The data set behind each entry of ``accumulated_reward_trace``.

    Each scored belief's risk is replaced by the index of the data set it
    was given, so an entry reused from an earlier step names that step's
    data set.
    """
    seen = []

    def indexed_risk(config, data, points):
        seen.append((data.locations, data.values))
        return np.array([float(len(seen) - 1)])

    with mock.patch.object(mission, "_risk", indexed_risk):
        trace = accumulated_reward_trace(result)
    # The prior is data set 0, the empty one, so entry k is -index.
    assert len(seen[0][0]) == 0
    return [seen[round(-t)] for t in trace]


def lattice(spacing):
    """Coordinates on a lattice of half the spacing: points one lattice
    step apart are too close, two apart exactly ``min_spacing`` apart,
    and a repeated lattice point is a duplicate location."""
    half = (spacing or 10.0) / 2.0
    return st.integers(0, 5).map(lambda i: i * half)


@st.composite
def interleaved_samples(draw):
    """(min_spacing, total_length, team size, samples) for vehicles whose
    steps take different times, so a fast vehicle's step k+1 can come
    before a slow one's step k. A step may have no samples.

    Locations lie on ``lattice``, or on a line in collection order, each
    0.5 to 1 ``min_spacing`` past the one before. On the line, a step
    whose samples come before some already in play flips a chain of
    verdicts: an eviction frees the next sample down the line, which
    evicts the one after it."""
    spacing = draw(st.sampled_from([0.0, 12.5, 30.0]))
    total_length = draw(st.integers(1, 20))
    coordinate = lattice(spacing)
    size = draw(st.integers(2, 4))
    samples = []
    for agent in range(size):
        t = 0.0
        for k in range(total_length + 1):
            for j in range(draw(st.integers(0, 6))):
                samples.append([
                    t + 0.1 * j, agent, k, draw(coordinate), draw(coordinate),
                    draw(st.floats(0.0, 30.0)),
                ])
            t += draw(st.integers(1, 4))
    if draw(st.booleans()):
        north = 0.0
        for sample in sorted(samples):
            sample[3:5] = north, 0.0
            north += draw(st.floats(0.5, 1.0)) * (spacing or 10.0)
    return spacing, total_length, size, [tuple(sample) for sample in samples]


@st.composite
def exchanges(draw):
    """(config, entries) for ``logged``: a team that samples and exchanges
    measurements. Steps end and slots open on whole seconds, so a
    reception often lands at the instant some vehicle ends a step, and
    it is logged before or after that ``step`` event as drawn. A
    vehicle's samples of step k are taken after its step k-1 end and up
    to its step k end, the last one at that instant, before the ``step``
    event. A latency of 0 delivers at the broadcast's instant, time 0
    included."""
    spacing = draw(st.sampled_from([0.0, 12.5, 30.0]))
    total_length = draw(st.integers(1, 5))
    size = draw(st.integers(1, 3))
    latency = draw(st.sampled_from([0.0, 1.0, 2.0]))
    coordinate = lattice(spacing)
    value = st.floats(0.0, 30.0)
    entries = []
    last_end = 0
    for agent in range(size):
        end = 0
        for k in range(total_length + 1):
            start, end = end, end + (draw(st.integers(1, 3)) if k else 0)
            n = draw(st.integers(0, 3))
            for j in range(n):
                t = start + (end - start) * (j + 1) / n if k else 0.0
                entries.append((t, 0, {
                    "kind": "sample", "agent": agent, "step": k,
                    "north": draw(coordinate), "east": draw(coordinate),
                    "value": draw(value),
                }))
            if k:
                entries.append((float(end), 1, {"kind": "step", "agent": agent, "n": k}))
        last_end = max(last_end, end)
    for slot in range(last_end + 1):
        sender = slot % size
        measurements = [
            (draw(coordinate), draw(coordinate), draw(value))
            for _ in range(draw(st.integers(0, 2)))
        ]
        for agent in range(size):
            if agent != sender and draw(st.booleans()):
                entries.append((slot + latency, draw(st.sampled_from([0, 2])), {
                    "kind": "rx", "agent": agent, "sender": sender,
                    "n_meas": len(measurements), "measurements": measurements,
                }))
    config = team(
        size, min_spacing=spacing, total_length=total_length, comm_latency=latency
    )
    return config, entries


class TestDeterminism:
    def test_identical_runs_write_identical_bytes(self, tmp_path):
        a, b = run_mission(micro()), run_mission(micro())
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(a, pa)
        write_jsonl(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_seed_changes_the_log(self, tmp_path):
        a, b = run_mission(micro(seed=0)), run_mission(micro(seed=1))
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(a, pa)
        write_jsonl(b, pb)
        assert pa.read_bytes() != pb.read_bytes()

    def test_header_line_is_the_config(self, result, tmp_path):
        p = tmp_path / "log.jsonl"
        write_jsonl(result, p)
        header = json.loads(p.read_text().splitlines()[0])
        assert header["kind"] == "config"
        assert header["seed"] == 0
        assert header["total_length"] == 6


class TestEventLog:
    def test_times_are_nondecreasing(self, result):
        times = [e["t"] for e in result.events]
        assert times == sorted(times)
        assert result.duration == times[-1]

    def test_one_plan_per_step_then_done(self, result):
        for aid in range(result.config.team_size):
            plans = [e for e in result.events
                     if e["kind"] == "plan" and e["agent"] == aid]
            dones = [e for e in result.events
                     if e["kind"] == "done" and e["agent"] == aid]
            assert len(plans) == result.config.total_length
            assert len(dones) == 1

    def test_step_events_chain_through_the_motion_model(self, result):
        cfg = result.config
        for aid in range(cfg.team_size):
            state = AgentState(*cfg.starts[aid])
            steps = [e for e in result.events
                     if e["kind"] == "step" and e["agent"] == aid]
            assert [e["n"] for e in steps] == list(range(1, cfg.total_length + 1))
            for e in steps:
                state = step(state, e["action"], cfg.parts.motions[aid])
                assert (e["heading"], e["north"], e["east"]) == (
                    state.heading, state.north, state.east
                )
            assert last_pose(result, aid) == state

    def test_booleans_are_written_as_integers(self, result, tmp_path):
        # Flags are logged as 0/1 integers and every event is written as
        # logged, so the file reads back as the log itself.
        flags = [e[k] for e in result.events
                 for k in ("accepted", "fell_back", "tail") if k in e]
        assert {type(f) for f in flags} == {int} and set(flags) == {0, 1}
        p = tmp_path / "log.jsonl"
        write_jsonl(result, p)
        text = p.read_text()
        assert [json.loads(line) for line in text.splitlines()[1:]] == result.events
        assert '"accepted": 1' in text and '"fell_back": 0' in text
        assert '"tail": 1' in text
        assert "true" not in text and "false" not in text

    @pytest.mark.parametrize("variant", ["terminal", "plain", "lawnmower"])
    def test_every_sample_is_the_truth_plus_its_own_draw(self, variant):
        # A segment's soundings come from one call; the oracle sounds each
        # sample alone, one scalar draw after another.
        result = run_mission(micro(variant=variant))
        values = [e["value"] for e in result.events if e["kind"] == "sample"]
        assert len(values) > 10 * result.config.total_length
        assert values == sensor_readings(result)


class TestRewardTrace:
    def test_equals_the_from_scratch_trace_on_a_full_sweep(self):
        result = run_mission(MissionConfig(variant="lawnmower"))
        got = accumulated_reward_trace(result)
        assert np.array_equal(got, reference_reward_trace(result))

    @given(interleaved_samples())
    @example((
        30.0,
        4,
        2,
        [
            # Vehicle 0 takes one time unit per step, vehicle 1 three, so
            # vehicle 0's steps 2 and 3 come before vehicle 1's step 1;
            # nobody samples during step 4.
            (0.0, 0, 0, 0.0, 0.0, 1.0),
            (0.0, 1, 0, 30.0, 0.0, 2.0),
            (1.0, 0, 1, 15.0, 0.0, 3.0),
            (2.0, 0, 2, 60.0, 0.0, 4.0),
            (3.0, 0, 3, 60.0, 30.0, 5.0),
            (3.1, 1, 1, 60.0, 30.0, 6.0),
            (3.2, 1, 1, 60.0, 15.0, 7.0),
            (9.0, 1, 3, 0.0, 0.0, 8.0),
        ],
    ))
    @example((
        30.0,
        2,
        2,
        [
            # Vehicle 1's step-2 sample A comes before vehicle 0's step-1
            # samples B, C and D, 15 apart on a line. At step 1, B is kept,
            # C is too close to B and D is kept. A at step 2 evicts B, which
            # frees C, which evicts D: a three-link chain of flips.
            (2.0, 1, 2, 0.0, 0.0, 1.0),
            (3.0, 0, 1, 15.0, 0.0, 2.0),
            (3.1, 0, 1, 30.0, 0.0, 3.0),
            (3.2, 0, 1, 45.0, 0.0, 4.0),
        ],
    ))
    @settings(max_examples=200, deadline=None)
    def test_each_step_uses_the_global_data_of_that_step(self, case):
        spacing, total_length, size, samples = case
        result = sample_log(
            team(size, min_spacing=spacing, total_length=total_length), samples
        )
        data_sets = trace_data_sets(result)
        assert len(data_sets) == total_length + 1
        for k, (locations, values) in enumerate(data_sets):
            want = global_data_from_scratch(result, k)
            assert np.array_equal(locations, want.locations), k
            assert np.array_equal(values, want.values), k

    def test_the_pooled_walk_runs_once_for_every_trace(self):
        # The replay walks the pool when it is built. A trace scores the
        # prior and each step whose kept list is not the step before's;
        # a second trace and the team's data read the same lists.
        result = run_mission(micro(variant="lawnmower"))
        with mock.patch.object(mission.Replay, "pooled", autospec=True,
                               side_effect=mission.Replay.pooled) as walk, \
                mock.patch.object(mission, "_risk", wraps=mission._risk) as risk:
            first = accumulated_reward_trace(result)
            kept = result.replay.kept
            assert risk.call_count == 2 + sum(
                kept[k] is not kept[k - 1] for k in range(1, len(kept))
            )
            second = accumulated_reward_trace(result)
            global_data(result, 3)
        assert walk.call_count == 1
        assert np.array_equal(first, second)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("variant,horizon", [("terminal", 3), ("plain", 10)])
def test_a_mission_at_unequal_costs_stays_finite(variant, horizon):
    # Declaring shallow water safe costs four times the opposite error,
    # so every closed-form call takes the general form.
    result = run_mission(MissionConfig(
        variant=variant, horizon=horizon, total_length=10,
        cost_deep_wrong=16.0, cost_shallow_wrong=4.0,
    ))
    plans = [e for e in result.events if e["kind"] == "plan"]
    assert len(plans) == 10 * result.config.team_size
    assert all(math.isfinite(e["value"]) and math.isfinite(e["naive"]) for e in plans)
    assert np.all(np.isfinite(accumulated_reward_trace(result)))


class TestTdma:
    def test_tx_times_and_ownership(self, result):
        cfg = result.config
        sched = TdmaSchedule(cfg.slot_duration, cfg.team_size)
        txs = [e for e in result.events if e["kind"] == "tx"]
        assert txs, "the mission must broadcast"
        for k, e in enumerate(txs):
            assert e["t"] == k * cfg.slot_duration
            assert e["agent"] == sched.owner(k)

    def test_slots_keep_their_turn_when_no_float_holds_the_duration(self):
        # Summing 3.3 slot after slot drifts against floor(t / 3.3), which
        # once gave one vehicle two slots running.
        res = run_mission(MissionConfig(
            variant="lawnmower", total_length=20, slot_duration=3.3
        ))
        txs = [e for e in res.events if e["kind"] == "tx"]
        assert len(txs) > 30
        assert [e["agent"] for e in txs] == [k % 3 for k in range(len(txs))]
        assert [e["t"] for e in txs] == [k * 3.3 for k in range(len(txs))]

    def test_each_agent_broadcasts_once_per_round(self, result):
        cfg = result.config
        round_len = cfg.slot_duration * cfg.team_size
        txs = [e for e in result.events if e["kind"] == "tx"]
        horizon = max(e["t"] for e in txs)
        whole_rounds = int(horizon // round_len)
        for aid in range(cfg.team_size):
            times = [e["t"] for e in txs if e["agent"] == aid]
            by_round = {int(t // round_len) for t in times}
            assert by_round >= set(range(whole_rounds)), (
                f"agent {aid} missed a broadcast round"
            )
            assert len(times) == len(set(times))

    def test_rx_lands_latency_after_tx(self, result):
        cfg = result.config
        txs = {(e["t"], e["agent"]): e for e in result.events if e["kind"] == "tx"}
        rxs = [e for e in result.events if e["kind"] == "rx"]
        for e in rxs:
            key = (e["t"] - cfg.comm_latency, e["sender"])
            assert key in txs
            assert e["agent"] in txs[key]["delivered_to"]
        # Every promised delivery arrives.
        want = sum(len(e["delivered_to"]) for e in txs.values())
        assert len(rxs) == want


class TestChannel:
    def test_drop_zero_delivers_everything(self):
        res = run_mission(micro(drop_prob=0.0))
        for e in res.events:
            if e["kind"] == "tx":
                assert e["dropped_to"] == []
        assert delivery_rate(res) == 1.0

    def test_drop_rates_share_the_sample_stream(self):
        # The channel generator is consumed per (broadcast, recipient)
        # even for dropped packets. With a fixed-policy variant the
        # trajectory cannot react to deliveries, so the vehicles' own
        # measurements are identical across drop rates with one seed.
        a = run_mission(micro(variant="lawnmower", drop_prob=0.0))
        b = run_mission(micro(variant="lawnmower", drop_prob=0.7))
        sa = [(e["t"], e["agent"], e["north"], e["east"], e["value"])
              for e in a.events if e["kind"] == "sample"]
        sb = [(e["t"], e["agent"], e["north"], e["east"], e["value"])
              for e in b.events if e["kind"] == "sample"]
        assert sa == sb


class TestDeliveryRate:
    @staticmethod
    def tx_log(*tx):
        events = [
            {"t": 10.0 * i, "kind": "tx", "agent": 0,
             "delivered_to": delivered, "dropped_to": dropped}
            for i, (delivered, dropped) in enumerate(tx)
        ]
        return MissionResult(micro(), events)

    def test_counts_recipients_of_tx_events(self):
        assert delivery_rate(self.tx_log(([1], [2]))) == 0.5
        assert delivery_rate(self.tx_log(([1], []), ([], [1]), ([1, 2], []))) == 0.75

    def test_is_none_without_recipients(self):
        assert delivery_rate(self.tx_log()) is None
        assert delivery_rate(self.tx_log(([], []), ([], []))) is None


class TestBeliefReconstruction:
    def test_agent_data_replays_from_the_log(self, monkeypatch):
        # The replay must rebuild exactly the data set each vehicle held
        # when the mission ended.
        runtimes = []

        class Recorded(mission._AgentRuntime):
            def __init__(self, *args):
                super().__init__(*args)
                runtimes.append(self)

        monkeypatch.setattr(mission, "_AgentRuntime", Recorded)
        result = run_mission(micro())
        assert len(runtimes) == result.config.team_size
        for live in runtimes:
            replayed = agent_data(result, live.id)
            assert len(replayed) == len(live.data)
            assert np.array_equal(replayed.locations, live.data.locations)
            assert np.array_equal(replayed.values, live.data.values)

    def test_global_data_step_filter(self, result):
        start_only = global_data(result, upto_step=0)
        assert 1 <= len(start_only) <= result.config.team_size
        full = global_data(result)
        assert len(full) >= len(start_only)
        # Every step filter equals a replay of the event log itself.
        for k in [*range(result.config.total_length + 1), None]:
            data = DataSet(min_spacing=result.config.min_spacing)
            for e in result.events:
                if e["kind"] == "sample" and (k is None or e["step"] <= k):
                    data.insert(Sample((e["north"], e["east"]), e["value"]))
            got = global_data(result, k)
            assert np.array_equal(got.locations, data.locations), k
            assert np.array_equal(got.values, data.values), k

    @pytest.mark.parametrize("rewind", [
        lambda res: global_data(res, -1),
        lambda res: agent_data(res, 0, -2),
        lambda res: agent_data(res, 1, -1),
        lambda res: risk_snapshot(res, upto_step=-1),
        lambda res: risk_snapshot(res, agent=0, upto_step=-1),
    ], ids=["global", "agent-2", "agent-1", "snapshot-team", "snapshot-agent"])
    def test_negative_step_is_rejected(self, rewind):
        # Unchecked, a negative step would index from the end: the team's
        # final set, or a vehicle's cut counted back from its last step.
        res = run_mission(micro(variant="lawnmower", total_length=12))
        with pytest.raises(ValueError, match="upto_step"):
            rewind(res)


class TestPerStepBeliefs:
    """Each vehicle's step-k set is a prefix of what it inserted, and the
    team's comes from one pooled walk; the reference oracles rebuild both
    from the whole log for every step."""

    @given(exchanges())
    @example((
        team(2, min_spacing=30.0, total_length=2, comm_latency=0.0),
        [
            # Vehicle 1 hears vehicle 0 at time 0, and again at the
            # instant both vehicles end step 1: logged before vehicle 0's
            # ``step`` event and after vehicle 1's.
            (0.0, 0, {"kind": "sample", "agent": 0, "step": 0,
                      "north": 0.0, "east": 0.0, "value": 1.0}),
            (0.0, 0, {"kind": "sample", "agent": 1, "step": 0,
                      "north": 90.0, "east": 0.0, "value": 2.0}),
            (0.0, 2, {"kind": "rx", "agent": 1, "sender": 0, "n_meas": 1,
                      "measurements": [(0.0, 0.0, 1.0)]}),
            (2.0, 0, {"kind": "sample", "agent": 0, "step": 1,
                      "north": 30.0, "east": 0.0, "value": 3.0}),
            (2.0, 0, {"kind": "rx", "agent": 0, "sender": 1, "n_meas": 1,
                      "measurements": [(90.0, 30.0, 4.0)]}),
            (2.0, 1, {"kind": "step", "agent": 0, "n": 1}),
            (2.0, 1, {"kind": "step", "agent": 1, "n": 1}),
            (2.0, 2, {"kind": "rx", "agent": 1, "sender": 0, "n_meas": 1,
                      "measurements": [(30.0, 0.0, 3.0)]}),
            (3.0, 0, {"kind": "sample", "agent": 1, "step": 2,
                      "north": 60.0, "east": 60.0, "value": 5.0}),
            (3.0, 1, {"kind": "step", "agent": 1, "n": 2}),
            (4.0, 1, {"kind": "step", "agent": 0, "n": 2}),
        ],
    ))
    @settings(max_examples=200, deadline=None)
    def test_every_step_set_equals_the_oracles(self, case):
        result = logged(*case)
        for k in [*range(result.config.total_length + 1), None]:
            got, want = global_data(result, k), global_data_from_scratch(result, k)
            assert np.array_equal(got.locations, want.locations), k
            assert np.array_equal(got.values, want.values), k
            for i in range(result.config.team_size):
                got = agent_data(result, i, k)
                want = agent_data_by_two_rules(result, i, k)
                assert np.array_equal(got.locations, want.locations), (i, k)
                assert np.array_equal(got.values, want.values), (i, k)

    def test_an_untraced_mission_of_the_longest_length(self):
        # No trace has run, so global_data alone reads the pooled walk,
        # over the longest mission a config allows.
        result = run_mission(MissionConfig(variant="lawnmower", total_length=255))
        for k in [*range(0, 256, 5), None]:
            got, want = global_data(result, k), global_data_from_scratch(result, k)
            assert np.array_equal(got.locations, want.locations), k
            assert np.array_equal(got.values, want.values), k

    def test_a_simulated_mission_with_instant_delivery(self):
        result = run_mission(micro(variant="lawnmower", comm_latency=0.0))
        assert any(e["kind"] == "rx" and e["t"] == 0.0 for e in result.events)
        for k in [*range(result.config.total_length + 1), None]:
            for i in range(result.config.team_size):
                got = agent_data(result, i, k)
                want = agent_data_by_two_rules(result, i, k)
                assert np.array_equal(got.locations, want.locations), (i, k)
                assert np.array_equal(got.values, want.values), (i, k)


class TestSummaryProducts:
    def test_trace_bounds(self, result):
        cfg = result.config
        trace = accumulated_reward_trace(result)
        assert trace.shape == (cfg.total_length + 1,)
        grid = eval_grid(cfg.area(), cfg.trace_resolution)
        peak = (cfg.cost_deep_wrong * cfg.cost_shallow_wrong
                / (cfg.cost_deep_wrong + cfg.cost_shallow_wrong))
        prior_sum = peak * len(grid)
        assert trace[0] > 0.0
        assert trace.min() >= -1e-9
        assert trace.max() <= prior_sum + 1e-9
        assert trace[-1] >= trace[0]

    def test_risk_snapshots(self, result):
        cfg = result.config
        peak = 5.0
        global_field = risk_snapshot(result)
        grid = eval_grid(cfg.area(), cfg.output_resolution)
        assert global_field.shape == (len(grid),)
        assert global_field.min() >= -1e-12
        assert global_field.max() <= peak + 1e-9
        agent_field = risk_snapshot(result, agent=0)
        assert agent_field.shape == global_field.shape
        # A single vehicle knows no more than the whole team.
        assert agent_field.sum() >= global_field.sum() - 1e-6
        mid_field = risk_snapshot(result, agent=0, upto_step=3)
        assert mid_field.shape == global_field.shape

    def test_mid_mission_agent_snapshot_rewinds_comms(self):
        # The agent-belief rewind keeps only broadcasts received before
        # the vehicle completed the probe step, not everything that ever
        # arrived; replaying the event log with that time gate must give
        # the identical field.
        cfg = micro(drop_prob=0.0, total_length=8)
        result = run_mission(cfg)
        aid, k = 0, 3
        cutoff = max(
            (
                e["t"]
                for e in result.events
                if e["kind"] == "step" and e["agent"] == aid and e["n"] <= k
            ),
            default=0.0,
        )
        data = DataSet(min_spacing=cfg.min_spacing)
        for e in result.events:
            if e["kind"] == "sample" and e["agent"] == aid and e["step"] <= k:
                data.insert(Sample((e["north"], e["east"]), e["value"]))
            elif e["kind"] == "rx" and e["agent"] == aid and e["t"] <= cutoff:
                for north, east, value in e["inserted"]:
                    data.insert(Sample((north, east), value))
        want = risk_field(
            cfg.parts.kernel,
            data,
            eval_grid(cfg.area(), cfg.output_resolution),
            cfg.parts.loss,
            prior_mean=cfg.prior_mean,
        )
        got = risk_snapshot(result, agent=aid, upto_step=k)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        late = [
            e
            for e in result.events
            if e["kind"] == "rx"
            and e["agent"] == aid
            and e["t"] > cutoff
            and e["inserted"]
        ]
        assert late, "fixture should deliver broadcasts after the cutoff"

    def test_truth_grid_matches_output_grid(self, result):
        points, depths = truth_grid(result)
        grid = eval_grid(result.config.area(), result.config.output_resolution)
        np.testing.assert_array_equal(points, grid)
        assert depths.shape == (len(grid),)
        assert depths.min() < result.config.level < depths.max()


class TestLawnmowerVariant:
    def test_trajectory_is_the_sweep_policy_path(self):
        cfg = micro(variant="lawnmower")
        res = run_mission(cfg)
        area = cfg.area()
        for aid in range(cfg.team_size):
            want = lawnmower_path(
                AgentState(*cfg.starts[aid]), cfg.total_length, area,
                cfg.parts.motions[aid],
            )
            got = [e["action"] for e in res.events
                   if e["kind"] == "step" and e["agent"] == aid]
            assert got == list(want.actions)
            assert last_pose(res, aid) == want.states[-1]


class TestCompareMethods:
    def test_structure_and_thread_determinism(self):
        cfg = micro(total_length=4, mcts_iterations=3)
        seeds = [0, 1]
        one = compare_methods(cfg, seeds)
        assert set(one["variants"]) == {"terminal", "plain", "lawnmower"}
        for v in one["variants"].values():
            assert len(v["final_rewards"]) == len(seeds)
            assert len(v["mean_trace"]) == cfg.total_length + 1
            assert set(v) == {
                "final_rewards", "mid_rewards", "mean_final", "mean_mid", "mean_trace"
            }
        two = compare_methods(cfg, seeds)
        for name in one["variants"]:
            assert one["variants"][name]["final_rewards"] == pytest.approx(
                two["variants"][name]["final_rewards"], rel=0, abs=0
            )


class TestConfigValidation:
    @pytest.mark.parametrize("kw", [
        {"variant": "zigzag"},
        {"drop_prob": 1.0},
        {"drop_prob": -0.1},
        {"seed": -1},
        {"total_length": 0},
        {"total_length": 256},
        {"comm_latency": -1.0},
        {"speeds": (1.5,)},
        {"speeds": (), "starts": ()},
        {"speeds": (1.5, 0.0), "starts": ((0, 0, 0), (0, 1, 1))},
    ])
    def test_rejects_bad_configs(self, kw):
        with pytest.raises(ConfigurationError):
            micro(**kw)
