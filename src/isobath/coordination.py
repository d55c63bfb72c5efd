"""Sequential-greedy team coordination over a lossy broadcast channel.

Agents share one fixed priority ordering. When an agent plans, it treats
the latest plan it has heard from each strictly-preceding teammate as
committed: it reconstructs that teammate's future measurement locations
(rolling the broadcast action indices out of the broadcast pose, plus a
deterministic lawnmower continuation when the plan was flagged as one)
and maximizes its own reward marginal to them. Plans from later
teammates are ignored, which is what makes the greedy sequence
well-defined even when packets drop: everyone optimizes against a
possibly stale but always consistent picture of their predecessors.

The broadcast plan epoch counts actions the sender had already executed,
so a receiver can reconstruct how many mission steps the sender had left
and thus how long a flagged lawnmower continuation runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .comms import Packet
from .motion import ACTION_SET, AgentState, MotionParams, rollout
# The benchmark's traced run (perfbench/tracing.py) wraps these two names
# in this module; the calls themselves go through ``plan_locations``.
from .motion import lawnmower_path, sample_locations  # noqa: F401
from .planner import PlanConfig, PlanContext, PlanResult, plan_episode, plan_locations


@dataclass(frozen=True)
class TeamOrdering:
    """Fixed agent priority: earlier ids plan first and yield to no one."""

    agent_ids: tuple[int, ...]

    def __post_init__(self):
        ids = tuple(int(a) for a in self.agent_ids)
        if len(set(ids)) != len(ids):
            raise ValueError("agent ids must be unique")
        if not ids:
            raise ValueError("ordering must name at least one agent")
        object.__setattr__(self, "agent_ids", ids)

    def index(self, agent_id: int) -> int:
        try:
            return self.agent_ids.index(agent_id)
        except ValueError:
            raise ValueError(f"agent {agent_id} is not in the ordering") from None

    def preceding(self, agent_id: int) -> tuple[int, ...]:
        return self.agent_ids[: self.index(agent_id)]


@dataclass(frozen=True)
class PeerPlan:
    """A teammate's last heard plan, as reconstructed from one packet."""

    agent_id: int
    plan_epoch: int
    state: AgentState
    action_indices: tuple[int, ...]
    lawnmower_tail: bool
    total_length: int

    @classmethod
    def from_packet(cls, packet: Packet, total_length: int) -> "PeerPlan":
        return cls(
            agent_id=packet.agent_id,
            plan_epoch=packet.plan_epoch,
            state=AgentState(packet.heading, packet.north, packet.east),
            action_indices=packet.actions,
            lawnmower_tail=packet.lawnmower_tail,
            total_length=int(total_length),
        )

    @property
    def tail_steps(self) -> int:
        """Steps of flagged lawnmower continuation after the short plan."""
        if not self.lawnmower_tail:
            return 0
        return max(
            self.total_length - self.plan_epoch - len(self.action_indices), 0
        )

    def planned_locations(
        self, motion: MotionParams, sample_spacing: float, area
    ) -> np.ndarray:
        """Future measurement locations this plan commits the sender to."""
        actions = [ACTION_SET[i] for i in self.action_indices]
        path = rollout(self.state, actions, motion)
        return plan_locations(path, self.tail_steps, area, motion, sample_spacing)


@dataclass
class JointPlanSnapshot:
    """Latest known plan per agent, as one agent currently sees the team."""

    plans: dict[int, PeerPlan] = field(default_factory=dict)

    def update(self, plan: PeerPlan) -> None:
        self.plans[plan.agent_id] = plan

    def preceding_locations(
        self,
        ordering: TeamOrdering,
        agent_id: int,
        motion: MotionParams,
        sample_spacing: float,
        area,
    ) -> np.ndarray:
        """Planned locations of strictly-preceding agents, in team order."""
        blocks = []
        for peer in ordering.preceding(agent_id):
            plan = self.plans.get(peer)
            if plan is not None:
                blocks.append(plan.planned_locations(motion, sample_spacing, area))
        if not blocks:
            return np.empty((0, 2))
        return np.vstack(blocks)


def plan_with_predecessors(
    start: AgentState,
    context: PlanContext,
    snapshot: JointPlanSnapshot,
    ordering: TeamOrdering,
    agent_id: int,
    config: PlanConfig,
    rng,
) -> PlanResult:
    """One sequential-greedy planning episode for ``agent_id``.

    Fills the context's preceding-plan locations from the snapshot (the
    context's own value is ignored) and runs the planner: the returned
    plan maximizes reward marginal to what the preceding teammates are
    believed to already cover.
    """
    pre = snapshot.preceding_locations(
        ordering,
        agent_id,
        context.motion,
        context.sensor_spacing,
        context.area,
    )
    ctx = replace(context, preceding_planned=pre)
    return plan_episode(start, ctx, config, rng)
