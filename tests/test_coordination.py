"""Coordination tests: peer-plan reconstruction from packets as heard, snapshot
semantics (predecessors are the lower agent ids), and the
sequential-greedy episode wrapper."""

import math

import numpy as np
import pytest

from isobath.comms import Packet, decode_packet, encode_packet
from isobath.coordination import JointPlanSnapshot, plan_with_predecessors
from isobath.environment import OperationalArea, eval_grid
from isobath.gp import DataSet, KernelSpec, Sample, admissible_locations
from isobath.motion import (
    STRAIGHT,
    AgentState,
    MotionParams,
    lawnmower_path,
    rollout,
)
from isobath.planner import PlanConfig, PlanContext, plan_episode
from isobath.risk import LossParams
from reference import (
    expected_benefit_of_search,
    joint_reward,
    vectorized_sample_locations,
)

AREA = OperationalArea((0.0, 0.0), (300.0, 400.0))
KERNEL = KernelSpec(length_scale=40.0, signal_variance=25.0, noise_std=0.5)
LOSS = LossParams(15.0, 10.0, 10.0)
MOTION = MotionParams(15.0, math.pi / 2, 1.5)


def heard(agent_id, plan_epoch, state, actions, tail):
    """The packet a teammate's plan arrives in, as decoded."""
    return Packet(agent_id=agent_id, plan_epoch=plan_epoch, heading=state.heading,
                  north=state.north, east=state.east, actions=actions,
                  lawnmower_tail=tail)


def oracle_locations(state, actions, tail_steps, spacing=5.0) -> np.ndarray:
    """What a plan commits its sender to, sampled from built paths: the
    short plan rolled out of the broadcast pose, then ``tail_steps`` of
    sweep continuation without the short plan's final position."""
    short = rollout(state, actions, MOTION)
    locs = vectorized_sample_locations(short, spacing)
    if tail_steps:
        tail = lawnmower_path(short.states[-1], tail_steps, AREA, MOTION)
        locs = np.vstack([locs, vectorized_sample_locations(tail, spacing)[1:]])
    return locs


class TestPeerPlan:
    """A teammate's plan as heard: the last decoded packet it sent."""

    def test_tail_steps_arithmetic(self):
        # A flagged plan sweeps for the steps its sender had left after
        # it; an unflagged one, or one with no steps left, adds none.
        state = AgentState(0.0, 10.0, 20.0)
        ctx = make_context(None, n_data=0)
        for epoch, tail, tail_steps in ((40, True, 100 - 40 - 3), (40, False, 0),
                                        (99, True, 0)):
            snap = JointPlanSnapshot(100)
            snap.update(heard(1, epoch, state, (5, 5, 5), tail))
            got = snap.preceding_locations(2, ctx)
            assert np.array_equal(got, oracle_locations(state, (5, 5, 5), tail_steps))

    def test_the_snapshot_keeps_each_packet_as_heard(self):
        pkt = decode_packet(encode_packet(Packet(
            agent_id=2, plan_epoch=17, heading=0.5, north=150.0, east=30.0,
            actions=(5, 9, 1), lawnmower_tail=True,
        )))
        snap = JointPlanSnapshot(100)
        snap.update(pkt)
        assert snap.plans == {2: pkt} and snap.plans[2] is pkt

    def test_reconstruction_matches_sender_locations(self):
        # What the receiver reconstructs from the wire must equal the
        # measurement locations the sender itself would produce from the
        # broadcast pose: the short plan's samples plus a flagged sweep
        # continuation for the rest of the mission.
        state = AgentState(0.0, 150.0, 30.0)
        actions = (5, 9, 5)
        pkt = decode_packet(encode_packet(heard(0, 20, state, actions, True)))
        snap = JointPlanSnapshot(40)
        snap.update(pkt)
        got = snap.preceding_locations(1, make_context(None, n_data=0))

        short = rollout(state, actions, MOTION)
        want = vectorized_sample_locations(short, 5.0)
        tail = lawnmower_path(short.states[-1], 40 - 20 - 3, AREA, MOTION)
        want = np.vstack([want, vectorized_sample_locations(tail, 5.0)[1:]])
        assert np.array_equal(got, want)

    def test_unflagged_plan_has_no_continuation(self):
        state = AgentState(0.0, 150.0, 30.0)
        snap = JointPlanSnapshot(100)
        snap.update(heard(0, 0, state, (5, 5), False))
        got = snap.preceding_locations(1, make_context(None, n_data=0))
        short = rollout(state, [STRAIGHT] * 2, MOTION)
        assert np.array_equal(got, vectorized_sample_locations(short, 5.0))


class TestJointPlanSnapshot:
    def make_plan(self, agent_id, north):
        return heard(agent_id, 0, AgentState(0.0, north, 30.0), (5,), False)

    def oracle(self, north):
        return oracle_locations(AgentState(0.0, north, 30.0), (5,), 0)

    def test_only_strictly_preceding_plans_count(self):
        snap = JointPlanSnapshot(100)
        for aid, north in ((0, 100.0), (1, 200.0), (2, 300.0)):
            snap.update(self.make_plan(aid, north))
        first = snap.preceding_locations(0, make_context(None, n_data=0))
        assert first.shape == (0, 2)
        last = snap.preceding_locations(2, make_context(None, n_data=0))
        want = np.vstack([self.oracle(100.0), self.oracle(200.0)])
        assert np.array_equal(last, want)

    def test_missing_peers_are_skipped(self):
        snap = JointPlanSnapshot(100)
        snap.update(self.make_plan(1, 200.0))
        got = snap.preceding_locations(2, make_context(None, n_data=0))
        assert np.array_equal(got, self.oracle(200.0))

    def test_update_replaces_older_plan(self):
        snap = JointPlanSnapshot(100)
        snap.update(self.make_plan(1, 200.0))
        snap.update(self.make_plan(1, 250.0))
        assert snap.plans[1].north == 250.0


def make_context(rng, n_data=10, remaining=10):
    data = DataSet(min_spacing=20.0)
    while len(data) < n_data:
        loc = (rng.uniform(0, 300), rng.uniform(0, 400))
        data.insert(Sample(loc, rng.normal(15.0, 3.0)))
    return PlanContext(
        kernel=KERNEL, prior_mean=15.0, data=data, loss=LOSS,
        eval_points=eval_grid(AREA, 50.0), motion=MOTION, area=AREA,
        remaining_steps=remaining,
    )


class TestPlanWithPredecessors:
    def test_equals_episode_with_snapshot_locations(self):
        rng = np.random.default_rng(21)
        ctx = make_context(rng)
        # Poison the context's own field: the wrapper must overwrite it
        # with what the snapshot says about preceding teammates.
        ctx.preceding_planned = np.array([[1e6, 1e6]])
        snap = JointPlanSnapshot(30)
        snap.update(heard(0, 5, AgentState(0.0, 200.0, 100.0), (5, 5, 5), True))
        cfg = PlanConfig(horizon=3, mcts_iterations=10)
        got = plan_with_predecessors(
            AgentState(0.0, 100.0, 50.0), ctx, snap, 1, cfg,
            np.random.default_rng(9),
        )
        from dataclasses import replace
        want_ctx = replace(ctx, preceding_planned=snap.preceding_locations(1, ctx))
        want = plan_episode(AgentState(0.0, 100.0, 50.0), want_ctx, cfg,
                            np.random.default_rng(9))
        assert got.path.actions == want.path.actions
        assert got.value == want.value

    def test_first_agent_ignores_snapshot(self):
        rng = np.random.default_rng(22)
        ctx = make_context(rng)
        snap = JointPlanSnapshot(30)
        snap.update(heard(1, 0, AgentState(0.0, 200.0, 100.0), (5,), False))
        cfg = PlanConfig(horizon=2, mcts_iterations=8)
        with_snap = plan_with_predecessors(
            AgentState(0.0, 100.0, 50.0), ctx, snap, 0, cfg,
            np.random.default_rng(4),
        )
        alone = plan_episode(AgentState(0.0, 100.0, 50.0), ctx, cfg,
                             np.random.default_rng(4))
        assert with_snap.path.actions == alone.path.actions
        assert with_snap.value == alone.value


class TestJointReward:
    def test_duplicate_plans_count_once(self):
        rng = np.random.default_rng(23)
        data = DataSet(min_spacing=20.0)
        for _ in range(6):
            data.insert(Sample((rng.uniform(0, 300), rng.uniform(0, 400)),
                               rng.normal(15.0, 3.0)))
        grid = eval_grid(AREA, 50.0)
        plan = rng.uniform((0, 0), (300, 400), size=(6, 2))
        once = joint_reward(data, [plan], grid, KERNEL, LOSS, prior_mean=15.0)
        twice = joint_reward(data, [plan, plan.copy()], grid, KERNEL, LOSS,
                             prior_mean=15.0)
        assert twice == pytest.approx(once, rel=1e-12)

    def test_matches_benefit_of_thinned_union(self):
        rng = np.random.default_rng(24)
        data = DataSet(min_spacing=20.0)
        for _ in range(5):
            data.insert(Sample((rng.uniform(0, 300), rng.uniform(0, 400)),
                               rng.normal(15.0, 3.0)))
        grid = eval_grid(AREA, 50.0)
        sets = [rng.uniform((0, 0), (300, 400), size=(4, 2)) for _ in range(3)]
        got = joint_reward(data, sets, grid, KERNEL, LOSS, prior_mean=15.0)
        thinned = admissible_locations(np.vstack(sets), data.min_spacing,
                                       existing=data.locations)
        want = expected_benefit_of_search(data, thinned, grid, KERNEL, LOSS,
                                          prior_mean=15.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_no_plans_is_zero(self):
        data = DataSet(min_spacing=20.0)
        grid = eval_grid(AREA, 50.0)
        assert joint_reward(data, [], grid, KERNEL, LOSS, prior_mean=15.0) == 0.0
