"""Sequential-greedy team coordination over a lossy broadcast channel.

Agents plan in agent-id order. When an agent plans, it treats the
latest plan it has heard from each teammate with a lower id as
committed: it reconstructs that teammate's future measurement locations
with the planner's own ``plan_locations`` (the broadcast action indices
walked from the broadcast pose, plus a deterministic lawnmower
continuation when the plan was flagged as one) and maximizes its own
reward marginal to them. Plans from higher-id teammates are ignored,
which is what makes the greedy sequence well-defined even when packets
drop: everyone optimizes against a possibly stale but always consistent
picture of their predecessors.

The broadcast plan epoch counts actions the sender had already executed,
so a receiver can reconstruct how many mission steps the sender had left
and thus how long a flagged lawnmower continuation runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .comms import Packet
from .motion import AgentState
# The benchmark's traced run (perfbench/tracing.py) wraps these names in
# this module; the calls themselves go through ``plan_locations``.
from .motion import lawnmower_path, rollout, sample_locations  # noqa: F401
from .planner import PlanConfig, PlanContext, PlanResult, plan_episode, plan_locations


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


@dataclass
class JointPlanSnapshot:
    """Latest known plan per agent, as one agent currently sees the team."""

    plans: dict[int, PeerPlan] = field(default_factory=dict)

    def update(self, plan: PeerPlan) -> None:
        self.plans[plan.agent_id] = plan

    def preceding_locations(self, agent_id: int, context: PlanContext) -> np.ndarray:
        """Planned locations of the agents with lower ids, in id order."""
        blocks = []
        for peer in range(agent_id):
            plan = self.plans.get(peer)
            if plan is not None:
                blocks.append(plan_locations(
                    plan.state, plan.action_indices, plan.tail_steps, context
                ))
        if not blocks:
            return np.empty((0, 2))
        return np.vstack(blocks)


def plan_with_predecessors(
    start: AgentState,
    context: PlanContext,
    snapshot: JointPlanSnapshot,
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
    pre = snapshot.preceding_locations(agent_id, context)
    ctx = replace(context, preceding_planned=pre)
    return plan_episode(start, ctx, config, rng)
