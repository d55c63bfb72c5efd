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


@dataclass
class JointPlanSnapshot:
    """Latest plan heard from each teammate, as one agent sees the team.

    ``plans`` holds the last decoded packet from each sender, by agent
    id; ``total_length`` is the mission length, which sets how long a
    flagged lawnmower continuation runs.
    """

    total_length: int
    plans: dict[int, Packet] = field(default_factory=dict)

    def update(self, packet: Packet) -> None:
        self.plans[packet.agent_id] = packet

    def preceding_locations(self, agent_id: int, context: PlanContext) -> np.ndarray:
        """Planned locations of the agents with lower ids, in id order.

        Each plan is walked from its broadcast pose; a flagged one then
        sweeps for the steps its sender had left after it.
        """
        blocks = []
        for peer in range(agent_id):
            packet = self.plans.get(peer)
            if packet is None:
                continue
            tail_steps = 0
            if packet.lawnmower_tail:
                left = self.total_length - packet.plan_epoch - len(packet.actions)
                tail_steps = max(left, 0)
            start = AgentState(packet.heading, packet.north, packet.east)
            blocks.append(plan_locations(start, packet.actions, tail_steps, context))
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
