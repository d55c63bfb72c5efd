"""Coordination tests: peer-plan reconstruction from packets, snapshot
semantics (predecessors are the lower agent ids), and the
sequential-greedy episode wrapper."""

import math

import numpy as np
import pytest

from isobath.comms import Packet, decode_packet, encode_packet
from isobath.coordination import (
    JointPlanSnapshot,
    PeerPlan,
    plan_with_predecessors,
)
from isobath.environment import OperationalArea, eval_grid
from isobath.gp import DataSet, KernelSpec, Sample, admissible_locations
from isobath.motion import (
    ACTION_SET,
    AgentState,
    MotionParams,
    lawnmower_path,
    rollout,
    sample_locations,
)
from isobath.planner import PlanConfig, PlanContext, plan_episode
from isobath.risk import LossParams
from reference import expected_benefit_of_search, joint_reward

AREA = OperationalArea((0.0, 0.0), (300.0, 400.0))
KERNEL = KernelSpec(length_scale=40.0, signal_variance=25.0, noise_std=0.5)
LOSS = LossParams(15.0, 10.0, 10.0)
MOTION = MotionParams(15.0, math.pi / 2, 1.5)


class TestPeerPlan:
    def test_tail_steps_arithmetic(self):
        plan = PeerPlan(1, 40, AgentState(0.0, 10.0, 20.0), (5, 5, 5), True, 100)
        assert plan.tail_steps == 100 - 40 - 3
        flat = PeerPlan(1, 40, AgentState(0.0, 10.0, 20.0), (5, 5, 5), False, 100)
        assert flat.tail_steps == 0
        spent = PeerPlan(1, 99, AgentState(0.0, 10.0, 20.0), (5, 5, 5), True, 100)
        assert spent.tail_steps == 0

    def test_from_packet_copies_fields(self):
        pkt = Packet(agent_id=2, plan_epoch=17, heading=0.5, north=150.0,
                     east=30.0, actions=(5, 9, 1), lawnmower_tail=True)
        plan = PeerPlan.from_packet(pkt, total_length=100)
        assert plan.agent_id == 2
        assert plan.plan_epoch == 17
        assert plan.action_indices == (5, 9, 1)
        assert plan.lawnmower_tail
        assert plan.state.north == pkt.north and plan.state.east == pkt.east
        assert plan.tail_steps == 100 - 17 - 3

    def test_reconstruction_matches_sender_locations(self):
        # What the receiver reconstructs from the wire must equal the
        # measurement locations the sender itself would produce from the
        # broadcast pose: the short plan's samples plus a flagged sweep
        # continuation for the rest of the mission.
        state = AgentState(0.0, 150.0, 30.0)
        actions = (5, 9, 5)
        pkt = decode_packet(encode_packet(Packet(
            agent_id=0, plan_epoch=20, heading=state.heading,
            north=state.north, east=state.east, actions=actions,
            lawnmower_tail=True,
        )))
        plan = PeerPlan.from_packet(pkt, total_length=40)
        got = plan.planned_locations(MOTION, 5.0, AREA)

        short = rollout(state, [ACTION_SET[i] for i in actions], MOTION)
        want = sample_locations(short, 5.0)
        tail = lawnmower_path(short.final, 40 - 20 - 3, AREA, MOTION)
        want = np.vstack([want, sample_locations(tail, 5.0)[1:]])
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_unflagged_plan_has_no_continuation(self):
        state = AgentState(0.0, 150.0, 30.0)
        plan = PeerPlan(0, 0, state, (5, 5), False, 100)
        got = plan.planned_locations(MOTION, 5.0, AREA)
        short = rollout(state, [ACTION_SET[5]] * 2, MOTION)
        np.testing.assert_allclose(got, sample_locations(short, 5.0), atol=1e-9)


class TestJointPlanSnapshot:
    def make_plan(self, agent_id, north):
        return PeerPlan(agent_id, 0, AgentState(0.0, north, 30.0), (5,), False, 100)

    def test_only_strictly_preceding_plans_count(self):
        snap = JointPlanSnapshot()
        for aid, north in ((0, 100.0), (1, 200.0), (2, 300.0)):
            snap.update(self.make_plan(aid, north))
        first = snap.preceding_locations(0, MOTION, 5.0, AREA)
        assert first.shape == (0, 2)
        last = snap.preceding_locations(2, MOTION, 5.0, AREA)
        want = np.vstack([
            self.make_plan(0, 100.0).planned_locations(MOTION, 5.0, AREA),
            self.make_plan(1, 200.0).planned_locations(MOTION, 5.0, AREA),
        ])
        np.testing.assert_allclose(last, want, atol=1e-9)

    def test_missing_peers_are_skipped(self):
        snap = JointPlanSnapshot()
        snap.update(self.make_plan(1, 200.0))
        got = snap.preceding_locations(2, MOTION, 5.0, AREA)
        want = self.make_plan(1, 200.0).planned_locations(MOTION, 5.0, AREA)
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_update_replaces_older_plan(self):
        snap = JointPlanSnapshot()
        snap.update(self.make_plan(1, 200.0))
        snap.update(self.make_plan(1, 250.0))
        assert snap.plans[1].state.north == 250.0


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
        snap = JointPlanSnapshot()
        snap.update(PeerPlan(0, 5, AgentState(0.0, 200.0, 100.0), (5, 5, 5), True, 30))
        cfg = PlanConfig(horizon=3, mcts_iterations=10)
        got = plan_with_predecessors(
            AgentState(0.0, 100.0, 50.0), ctx, snap, 1, cfg,
            np.random.default_rng(9),
        )
        from dataclasses import replace
        want_ctx = replace(ctx, preceding_planned=snap.preceding_locations(
            1, MOTION, ctx.sensor_spacing, AREA))
        want = plan_episode(AgentState(0.0, 100.0, 50.0), want_ctx, cfg,
                            np.random.default_rng(9))
        assert got.path.actions == want.path.actions
        assert got.value == want.value

    def test_first_agent_ignores_snapshot(self):
        rng = np.random.default_rng(22)
        ctx = make_context(rng)
        snap = JointPlanSnapshot()
        snap.update(PeerPlan(1, 0, AgentState(0.0, 200.0, 100.0), (5,), False, 30))
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
