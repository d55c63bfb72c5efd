"""Event-driven multi-vehicle survey simulation.

Three things happen on the simulated clock: vehicles finish path
segments (then replan and keep going), sample events fire as a vehicle
passes each measurement point along its segment, and TDMA slots open,
letting the slot's owner broadcast its plan and a byte-budgeted slice of
its unsent measurements to the rest of the team. A step's soundings are
drawn when its segment starts, in one ``sample_depth`` call; each is
inserted and logged when its sample event fires. Slot k opens at
``k * slot_duration`` and is vehicle ``k % team_size``'s. Deliveries
land after a fixed latency and are dropped independently per recipient.

Everything is deterministic for a fixed master seed: per-agent sensor
noise, per-agent planner search, and the drop channel each consume their
own child generator, and the event heap breaks time ties by insertion
order. The channel generator is consumed once per (broadcast, recipient)
whether or not the packet survives, so delivery draws stay paired across
drop rates; trajectories still diverge wherever a delivery changes what
a planning vehicle believes.

Simulated planning time is zero: a vehicle replans in the instant a
segment ends. Logs are plain dict events; the JSONL writer emits them
with sorted keys so equal runs produce byte-equal files.

A config validates by building a mission's fixed parts once (lake,
grids, kernel, vehicles) and keeps them; the simulator and
every output read them there. A finished mission keeps only its config
and that event log, and every output derives from the two. One walk of
the log (``Replay``) serves every belief: a vehicle's data only grows,
so what it knew at step k (``agent_data``) is a prefix of what it
inserted, and one incremental pass over the pooled samples gives the
team's belief at each step (``global_data``) and the reward trace. That
pass judges each sample once, when its step comes into play, and again
only when a nearby earlier verdict flips; every set it hands out is
built from samples already admitted, without spacing tests.
"""

from __future__ import annotations

import bisect
import collections
import functools
import heapq
import itertools
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .comms import (
    Packet,
    decode_packet,
    encode_packet,
    measurement_capacity,
    select_measurements,
)
from .coordination import JointPlanSnapshot, plan_with_predecessors
from .environment import OperationalArea, eval_grid, sample_depth, synthetic_lake
from .errors import ConfigurationError, EncodeError
from .gp import CONDITION_CAP, Belief, DataSet, KernelSpec, Sample, _SpacingGrid
from .motion import (
    ACTION_SET,
    AgentState,
    MotionParams,
    lawnmower_path,
    sample_locations,
    step_length,
)
from .planner import PlanConfig, PlanContext, PlanResult
from .risk import LossParams, bayes_risk_batch

# The benchmark's traced run (perfbench/tracing.py) wraps this name in
# this module, which does not call it: a segment's end state comes from
# ``sample_locations``.
from .motion import step  # noqa: F401

VARIANTS = ("terminal", "plain", "lawnmower")

# Most measurement locations one vehicle step may take (15 at the
# defaults). The simulator and every planner candidate walk a step's
# locations one by one, so a spacing far below the step's length would
# stall a run that validation passed.
STEP_SAMPLE_CAP = 1000

# What ``compare_methods`` runs: MissionConfig overrides per variant, so
# the terminal-reward planner, the plain short-horizon planner and the
# lawnmower baseline each fly with the horizon the comparison pairs them at.
COMPARED_VARIANTS = {
    "terminal": {"variant": "terminal", "horizon": 3},
    "plain": {"variant": "plain", "horizon": 10},
    "lawnmower": {"variant": "lawnmower"},
}


# The fixed parts of a mission, built once by its ``MissionConfig``;
# ``motions`` and ``starts`` hold one entry per vehicle.
_Parts = collections.namedtuple(
    "_Parts",
    "area lake kernel loss plan motions starts planning_grid output_grid trace_grid",
)


def _finite(value) -> bool:
    """Whether every number in a config value, inside its tuples, lists
    and dicts too, is finite as a float; other values are left to the parts."""
    if isinstance(value, dict):
        value = tuple(value.values())
    if isinstance(value, (tuple, list)):
        return all(_finite(v) for v in value)
    return not isinstance(value, (int, float)) or abs(value) <= sys.float_info.max


@dataclass(frozen=True)
class MissionConfig:
    """Scenario, team, planner, and channel settings for one mission.

    Frozen: ``dataclasses.replace`` makes a changed copy. Construction
    validates, rejecting any non-finite number, by building every fixed
    part a mission runs on once, into ``parts``, which the simulator and
    every output read. Every part is plain data, so a config pickles.
    """

    # Operating area and true field (min corner is the origin).
    area_max: tuple[float, float] = (600.0, 1000.0)
    bathymetry_family: str = "gaussian-basin"
    bathymetry_params: dict = field(
        default_factory=lambda: {
            "center": (300.0, 500.0),
            "background": 5.0,
            "max_depth": 25.0,
            "radius": 220.0,
        }
    )
    # Decision problem.
    level: float = 15.0
    cost_deep_wrong: float = 10.0
    cost_shallow_wrong: float = 10.0
    # Belief.
    prior_mean: float = 15.0
    length_scale: float = 60.0
    signal_variance: float = 25.0
    noise_std: float = 0.5
    min_spacing: float = 30.0
    # Vehicles.
    sample_spacing: float = 5.0
    turn_radius: float = 15.0
    theta_max: float = math.pi / 2.0
    speeds: tuple[float, ...] = (1.5, 1.35, 1.65)
    # The whole team launches from one point just inside the south-west
    # corner; coordination, not initial spread, separates the vehicles.
    starts: tuple[tuple[float, float, float], ...] = (
        (0.0, 10.0, 10.0),
        (0.0, 10.0, 10.0),
        (0.0, 10.0, 10.0),
    )
    total_length: int = 100
    # Planner.
    variant: str = "terminal"
    horizon: int = 3
    mcts_iterations: int = 48
    # Channel.
    slot_duration: float = 10.0
    comm_latency: float = 1.0
    drop_prob: float = 0.3
    # Grids.
    planning_resolution: float = 75.0
    output_resolution: float = 25.0
    trace_resolution: float = 50.0
    # Reproducibility.
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            if not _finite(getattr(self, f.name)):
                raise ConfigurationError(f"{f.name} must hold only finite numbers")
        # Counts and the seed: 2.5 would be printed as a step count and
        # stop a run with a TypeError, and True would pass as 1.
        for name in ("total_length", "horizon", "mcts_iterations", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigurationError(f"{name} must be an integer, not {value!r}")
        if self.variant not in VARIANTS:
            raise ConfigurationError(
                f"unknown variant {self.variant!r}; expected one of {VARIANTS}"
            )
        if len(self.speeds) != len(self.starts):
            raise ConfigurationError("speeds and starts must match in length")
        if self.total_length < 1 or self.total_length > 255:
            raise ConfigurationError("total_length must be in 1..255")
        if self.drop_prob < 0 or self.drop_prob >= 1:
            raise ConfigurationError("drop_prob must be in [0, 1)")
        if self.comm_latency < 0:
            raise ConfigurationError("comm_latency must be non-negative")
        if self.seed < 0:
            raise ConfigurationError("seed must be non-negative")
        if not self.speeds:
            raise ConfigurationError("the team must have at least one vehicle")
        if not (self.sample_spacing > 0):
            raise ConfigurationError("sample_spacing must be positive")
        if not (self.slot_duration > 0):
            raise ConfigurationError("slot_duration must be positive")
        # A part that refuses its settings fails here, with its own
        # message, rather than partway through a run.
        try:
            area = OperationalArea((0.0, 0.0), self.area_max)
            parts = _Parts(
                area=area,
                kernel=KernelSpec(self.length_scale, self.signal_variance, self.noise_std),
                loss=LossParams(self.level, self.cost_deep_wrong, self.cost_shallow_wrong),
                plan=PlanConfig(
                    horizon=self.horizon,
                    use_terminal_reward=self.variant == "terminal",
                    mcts_iterations=self.mcts_iterations,
                ),
                starts=tuple(AgentState(*start) for start in self.starts),
                motions=tuple(
                    MotionParams(self.turn_radius, self.theta_max, speed)
                    for speed in self.speeds
                ),
                lake=synthetic_lake(
                    self.bathymetry_family, self.bathymetry_params, area, level=self.level
                ),
                planning_grid=eval_grid(area, self.planning_resolution),
                output_grid=eval_grid(area, self.output_resolution),
                trace_grid=eval_grid(area, self.trace_resolution),
            )
            DataSet(self.min_spacing)
            # Every vehicle's id and start pose go out in its packets' header.
            for i, start in enumerate(parts.starts):
                Packet(i, 0, start.heading, start.north, start.east)
            if self.variant != "lawnmower":
                # The longest plan a vehicle broadcasts must fit a packet.
                measurement_capacity(min(self.horizon, self.total_length))
        except (TypeError, ValueError, EncodeError) as exc:
            raise ConfigurationError(str(exc)) from exc
        object.__setattr__(self, "parts", parts)
        # Every Gram matrix the mission factors is a covariance of at most
        # n points plus sn^2 on its diagonal, so its 2-norm condition
        # number, which bounds the factor's estimate from above, is at most
        # 1 + n sf^2 / sn^2.
        try:
            per_step = self.step_sample_bound()
            if per_step > STEP_SAMPLE_CAP:
                raise ConfigurationError(
                    f"sample_spacing {self.sample_spacing:g} is too small for "
                    f"turn_radius {self.turn_radius:g}: one step may take {per_step:.3g} "
                    f"samples, above the cap {STEP_SAMPLE_CAP}; raise sample_spacing "
                    "or lower turn_radius"
                )
            n_max = self.gram_size_bound()
        except ArithmeticError:
            raise ConfigurationError(
                "turn_radius, sample_spacing, min_spacing and area_max are too far "
                "apart in scale to bound the samples in one Gram matrix"
            ) from None
        noise_var = self.noise_std**2
        bound = (
            1.0 + n_max * self.signal_variance / noise_var if noise_var > 0 else math.inf
        )
        if bound > CONDITION_CAP:
            raise ConfigurationError(
                f"noise_std {self.noise_std:g} is too small: with up to {n_max} "
                f"samples in one Gram matrix (min_spacing {self.min_spacing:g}) its "
                f"condition number may reach 1 + n*sf^2/sn^2 = {bound:.3g}, above "
                f"the cap {CONDITION_CAP:.0e}; raise noise_std or min_spacing"
            )

    def gram_size_bound(self) -> int:
        """Most points one Gram matrix of the mission can hold.

        Data, admitted plans and their union are thinned to be pairwise
        at least ``min_spacing`` apart, so disks of half that radius
        around them are disjoint; while they stay within the box spanned
        by the area and the starts, grown by the sweep's turn apron (two
        turn radii), the disks fill at most that box grown by the half
        spacing. Independently of where they lie, they number at most
        every sample the team can take, twice over: the data, and the
        plans scored against it.
        """
        per_vehicle = 1 + self.total_length * self.step_sample_bound()
        n_max = 2 * self.team_size * per_vehicle
        if self.min_spacing > 0:
            half = 0.5 * self.min_spacing
            grow = 2.0 * self.turn_radius + half
            norths = [0.0, self.area_max[0], *(s[1] for s in self.starts)]
            easts = [0.0, self.area_max[1], *(s[2] for s in self.starts)]
            box = (max(norths) - min(norths) + 2.0 * grow) * (
                max(easts) - min(easts) + 2.0 * grow
            )
            n_max = min(n_max, math.floor(box / (math.pi * half * half)))
        return n_max

    def step_sample_bound(self) -> int:
        """Most measurement locations one vehicle step takes: the longest
        step, the largest turn's arc and run-out, sampled every
        ``sample_spacing`` meters, plus its end."""
        longest_step = max(
            step_length(a, motion)
            for motion in self.parts.motions
            for a in range(len(ACTION_SET))
        )
        return math.floor(longest_step / self.sample_spacing) + 1

    @property
    def team_size(self) -> int:
        return len(self.speeds)

    def area(self) -> OperationalArea:
        return self.parts.area


class _AgentRuntime:
    def __init__(self, agent_id, config: MissionConfig, sensor_rng, mcts_rng):
        self.id = agent_id
        self.state = config.parts.starts[agent_id]
        self.motion = config.parts.motions[agent_id]
        self.data = DataSet(min_spacing=config.min_spacing)
        self.snapshot = JointPlanSnapshot(config.total_length)
        self.queue: list[tuple[float, float, float]] = []
        self.sensor_rng = sensor_rng
        self.mcts_rng = mcts_rng
        self.executed = 0
        self.done = False
        # Latest plan, as broadcast: pose and epoch at planning time.
        self.plan_state = self.state
        self.plan_epoch = 0
        self.plan_actions: tuple[int, ...] = ()


@dataclass
class MissionResult:
    """A finished mission: its config and its event log.

    Every run output is a function of these two, so a result read back
    from ``events.jsonl`` rebuilds the outputs of the run that wrote it.
    """

    config: MissionConfig
    events: list[dict]

    @property
    def duration(self) -> float:
        """Simulated time of the last event: every heap pop logs one."""
        return self.events[-1]["t"]

    @functools.cached_property
    def replay(self) -> Replay:
        """The one walk of ``events`` behind every replayed belief."""
        return Replay(self)


def run_mission(config: MissionConfig) -> MissionResult:
    """Simulate one mission and return its full log."""
    parts = config.parts

    # Child generators: each vehicle's sensor, the channel, each search.
    n = config.team_size
    rngs = [
        np.random.default_rng(c)
        for c in np.random.SeedSequence(config.seed).spawn(2 * n + 1)
    ]
    channel_rng = rngs[n]
    agents = [_AgentRuntime(i, config, rngs[i], rngs[n + 1 + i]) for i in range(n)]
    events: list[dict] = []
    heap: list[tuple] = []
    seq = itertools.count()

    def push(t, kind, payload):
        heapq.heappush(heap, (t, next(seq), kind, payload))

    def log(t, kind, **fields):
        events.append({"t": float(t), "kind": kind, **fields})

    def take_sample(t, agent: _AgentRuntime, s: Sample, step_index):
        accepted = agent.data.insert(s)
        if accepted:
            agent.queue.append((s.location[0], s.location[1], s.value))
        log(
            t,
            "sample",
            agent=agent.id,
            step=step_index,
            north=float(s.location[0]),
            east=float(s.location[1]),
            value=float(s.value),
            accepted=int(accepted),
        )

    def plan_and_go(t, agent: _AgentRuntime):
        remaining = config.total_length - agent.executed
        if remaining <= 0:
            agent.done = True
            log(t, "done", agent=agent.id)
            return
        if config.variant == "lawnmower":
            result = PlanResult(
                lawnmower_path(agent.state, 1, parts.area, agent.motion), 0.0, 0.0, False, 0
            )
        else:
            context = PlanContext(
                kernel=parts.kernel,
                prior_mean=config.prior_mean,
                data=agent.data,
                loss=parts.loss,
                eval_points=parts.planning_grid,
                motion=agent.motion,
                area=parts.area,
                remaining_steps=remaining,
                sensor_spacing=config.sample_spacing,
            )
            result = plan_with_predecessors(
                agent.state, context, agent.snapshot, agent.id, parts.plan, agent.mcts_rng
            )
        action = result.path.actions[0]
        agent.plan_state = agent.state
        agent.plan_epoch = agent.executed
        # A lawnmower plan is announced by the packet's tail flag alone.
        agent.plan_actions = () if config.variant == "lawnmower" else result.path.actions
        log(
            t,
            "plan",
            agent=agent.id,
            epoch=agent.executed,
            actions=list(agent.plan_actions),
            value=float(result.value),
            naive=float(result.naive_value),
            fell_back=int(result.fell_back),
            evaluations=int(result.evaluations),
        )
        locs, final, _ = sample_locations(
            agent.state, (action,), agent.motion, config.sample_spacing
        )
        seg_len = step_length(action, agent.motion)
        t_end = t + seg_len / agent.motion.speed
        # The ufuncs numpy's norm runs for a real 2-norm along axis 1,
        # without its wrapper's cost.
        rel = locs - locs[0]
        norms = np.sqrt(np.add.reduce(rel * rel, axis=1))
        chord = max(float(norms[-1]), 1e-12)
        # Time along the segment, scaled onto the full arc length.
        times = t + (norms[1:] / chord) * seg_len / agent.motion.speed
        samples = sample_depth(parts.lake, config.noise_std, locs[1:], agent.sensor_rng)
        # Samples taken along the segment belong to the step it executes.
        for t_sample, s in zip(times.tolist(), samples):
            push(t_sample, "sample", (agent.id, s, agent.executed + 1))
        push(t_end, "segment_end", (agent.id, final, action))

    def broadcast(t, slot):
        owner = agents[slot % config.team_size]
        n_actions = len(owner.plan_actions)
        capacity = measurement_capacity(n_actions)
        chosen = select_measurements(range(len(owner.queue)), capacity)
        triples = tuple(owner.queue[i] for i in chosen)
        taken = set(chosen)
        owner.queue = [q for i, q in enumerate(owner.queue) if i not in taken]
        tail_flag = (not owner.done) and config.variant in ("terminal", "lawnmower")
        packet = Packet(
            agent_id=owner.id,
            plan_epoch=owner.plan_epoch,
            heading=owner.plan_state.heading,
            north=owner.plan_state.north,
            east=owner.plan_state.east,
            actions=owner.plan_actions,
            lawnmower_tail=tail_flag,
            measurements=triples,
        )
        raw = encode_packet(packet)
        delivered_to, dropped_to = [], []
        for other in agents:
            if other.id == owner.id:
                continue
            u = float(channel_rng.random())
            if u >= config.drop_prob:
                delivered_to.append(other.id)
                push(t + config.comm_latency, "deliver", (other.id, raw))
            else:
                dropped_to.append(other.id)
        log(
            t,
            "tx",
            agent=owner.id,
            n_bytes=len(raw),
            n_meas=len(triples),
            n_actions=n_actions,
            tail=int(tail_flag),
            epoch=owner.plan_epoch,
            delivered_to=delivered_to,
            dropped_to=dropped_to,
        )

    def deliver(t, recipient_id, raw):
        agent = agents[recipient_id]
        packet = decode_packet(raw)
        agent.snapshot.update(packet)
        inserted = []
        for north, east, value in packet.measurements:
            ok = agent.data.insert(Sample((north, east), value))
            if ok:
                inserted.append([north, east, value])
        log(
            t,
            "rx",
            agent=recipient_id,
            sender=packet.agent_id,
            n_meas=len(packet.measurements),
            inserted=inserted,
        )

    # Mission start: every vehicle samples its start point, as step 0,
    # then plans.
    for agent in agents:
        start = [(agent.state.north, agent.state.east)]
        sample = sample_depth(parts.lake, config.noise_std, start, agent.sensor_rng)[0]
        push(0.0, "sample", (agent.id, sample, 0))
    for agent in agents:
        push(0.0, "launch", (agent.id,))
    push(0.0, "slot", 0)

    while heap:
        t_now, _, kind, payload = heapq.heappop(heap)
        if kind == "sample":
            agent_id, s, step_index = payload
            take_sample(t_now, agents[agent_id], s, step_index)
        elif kind == "launch":
            plan_and_go(t_now, agents[payload[0]])
        elif kind == "segment_end":
            agent_id, final_state, action = payload
            agent = agents[agent_id]
            agent.state = final_state
            agent.executed += 1
            log(
                t_now,
                "step",
                agent=agent_id,
                n=agent.executed,
                action=action,
                heading=float(final_state.heading),
                north=float(final_state.north),
                east=float(final_state.east),
            )
            plan_and_go(t_now, agent)
        elif kind == "deliver":
            deliver(t_now, *payload)
        elif kind == "slot":
            broadcast(t_now, payload)
            if not (
                all(a.done for a in agents) and all(not a.queue for a in agents)
            ):
                push((payload + 1) * config.slot_duration, "slot", payload + 1)

    return MissionResult(config, events)


def write_jsonl(result: MissionResult, path) -> None:
    """Write the event log as one sorted-keys JSON object per line.

    Identical missions produce byte-identical files. Events are written
    as logged: plain Python numbers, strings and lists, with flags logged
    as integers, so a line holds ``"accepted": 1``, ``"fell_back": 0`` or
    ``"tail": 1``, never ``true``.
    """
    encode = json.JSONEncoder(sort_keys=True).encode
    with open(path, "w") as f:
        header = {"kind": "config", **asdict(result.config)}
        f.write(encode(header) + "\n")
        for event in result.events:
            f.write(encode(event) + "\n")


class Replay:
    """One walk of a mission's event log: the samples behind every belief.

    ``inserted[i]`` is what vehicle i put into its data set, in order:
    accepted own samples and what its ``rx`` events inserted. The set only
    grows, so at step k it is the prefix of length ``cuts[i][k]``: all
    inserted by the time of the step-k end (0 for k = 0), own samples of
    step k+1 coming strictly later. The cut goes by time, so an ``rx`` at
    the instant of a step end counts for that step on either side of the
    ``step`` event: events of one instant are ordered only by the heap.

    ``locations``, ``values`` and ``steps`` are the team's samples in
    collection order; ``kept[k]`` indexes those the pooled walk keeps at
    step k.
    """

    def __init__(self, result: MissionResult):
        self.config = config = result.config
        team = range(config.team_size)
        self.inserted: list[list[Sample]] = [[] for _ in team]
        times: list[list[float]] = [[] for _ in team]
        ends: list[list[float]] = [[0.0] for _ in team]
        self.locations: list[tuple[float, float]] = []
        self.values: list[float] = []
        self.steps: list[int] = []
        for e in result.events:
            kind = e["kind"]
            if kind == "sample":
                location = (float(e["north"]), float(e["east"]))
                value = float(e["value"])
                self.locations.append(location)
                self.values.append(value)
                self.steps.append(e["step"])
                if e["accepted"]:
                    self.inserted[e["agent"]].append(Sample(location, value))
                    times[e["agent"]].append(e["t"])
            elif kind == "rx":
                for north, east, value in e["inserted"]:
                    self.inserted[e["agent"]].append(Sample((north, east), value))
                    times[e["agent"]].append(e["t"])
            elif kind == "step":
                ends[e["agent"]].append(e["t"])
        self.cuts = [
            [bisect.bisect_right(agent_times, t) for t in agent_ends]
            for agent_times, agent_ends in zip(times, ends)
        ]
        self.kept = self.pooled()

    def pooled(self) -> list[list[int]]:
        """The indices of the team's data set after each step k: every
        vehicle's first-k-step samples through one density filter, in
        collection order.

        The walk is incremental and exact. A sample is kept iff no earlier
        kept sample in play lies within ``min_spacing``, so when step k
        comes into play only its own samples are judged, in index order.
        A verdict that flips can move only later in-play samples within
        ``min_spacing`` of it: a sample newly kept may evict a later kept
        one, and one newly rejected may free a later rejected one. Those
        are re-judged in turn, in index order off a heap, and their flips
        cascade. An index leaves the heap only after every earlier verdict
        is final, so its verdict then is final too. A step where no
        verdict flipped shares step k-1's list.
        """
        spacing = self.config.min_spacing
        locations = self.locations
        by_step: dict[int, list[int]] = collections.defaultdict(list)
        for i, step_index in enumerate(self.steps):
            by_step[step_index].append(i)
        kept_grid = _SpacingGrid(spacing)
        # Every in-play sample, gridded only once a kept one is evicted:
        # then its rejected neighbours are judged again.
        in_play, unplaced = _SpacingGrid(spacing), []
        is_kept = [False] * len(locations)
        steps: list[list[int]] = []
        kept: list[int] = []
        for k in range(self.config.total_length + 1):
            heap = by_step.pop(k, [])  # ascending, so already a heap
            unplaced += heap
            flipped = []
            while heap:
                i = heapq.heappop(heap)
                north, east = locations[i]
                near = kept_grid.near(north, east)
                keep = min(near, default=i) >= i  # no earlier one is near
                if keep == is_kept[i]:
                    continue
                is_kept[i] = keep
                flipped.append(i)
                if keep:
                    later = [j for j in near if j > i]
                    kept_grid.add(north, east, i)
                else:
                    kept_grid.remove(north, east, i)
                    for j in unplaced:
                        in_play.add(*locations[j], j)
                    unplaced = []
                    later = [
                        j for j in in_play.near(north, east)
                        if j > i and not is_kept[j]
                    ]
                for j in later:
                    heapq.heappush(heap, j)
            if flipped or not steps:
                # A flip, whichever way, toggles the index's membership.
                kept = sorted(set(kept).symmetric_difference(flipped))
            steps.append(kept)
        return steps

    def data_of(self, kept: list[int]) -> DataSet:
        """The data set of a step's kept indices, as ``kept`` records them."""
        return DataSet.from_admitted(
            self.config.min_spacing,
            [self.locations[i] for i in kept],
            [self.values[i] for i in kept],
        )


def global_data(result: MissionResult, upto_step: int | None = None) -> DataSet:
    """Team-wide data set: every vehicle's samples through one filter.

    With ``upto_step`` = k, only those of each vehicle's first k steps:
    what ``Replay.pooled`` kept at step k. A negative k raises
    ``ValueError``.
    """
    if upto_step is not None and upto_step < 0:
        raise ValueError(f"upto_step must be non-negative, got {upto_step}")
    replay = result.replay
    last = result.config.total_length
    return replay.data_of(
        replay.kept[last if upto_step is None else min(upto_step, last)]
    )


def agent_data(
    result: MissionResult, agent: int, upto_step: int | None = None
) -> DataSet:
    """What one vehicle knew: everything it inserted, in order, or with
    ``upto_step`` = k the prefix it held when it completed step k (see
    ``Replay``). It admitted each of them, so the filter admits them again.
    A negative k raises ``ValueError``.
    """
    if upto_step is not None and upto_step < 0:
        raise ValueError(f"upto_step must be non-negative, got {upto_step}")
    replay = result.replay
    inserted = replay.inserted[agent]
    if upto_step is not None:
        cuts = replay.cuts[agent]
        inserted = inserted[: cuts[min(upto_step, len(cuts) - 1)]]
    return DataSet.from_admitted(
        result.config.min_spacing,
        [s.location for s in inserted],
        [s.value for s in inserted],
    )


def delivery_rate(result: MissionResult) -> float | None:
    """Delivered share of all (broadcast, recipient) pairs, from ``tx`` events.

    ``None`` when no broadcast had a recipient, as in a one-vehicle team.
    """
    delivered = dropped = 0
    for e in result.events:
        if e["kind"] == "tx":
            delivered += len(e["delivered_to"])
            dropped += len(e["dropped_to"])
    return delivered / (delivered + dropped) if delivered + dropped else None


def risk_snapshot(
    result: MissionResult, agent: int | None = None, upto_step: int | None = None
) -> np.ndarray:
    """Bayes-risk map on the output grid from a chosen belief.

    ``agent=None`` uses the omniscient team belief (``global_data``), an
    agent index what that vehicle knew (``agent_data``); ``upto_step``
    rewinds either to step k, which must not be negative.
    """
    if agent is None:
        data = global_data(result, upto_step)
    else:
        data = agent_data(result, agent, upto_step)
    return _risk(result.config, data, result.config.parts.output_grid)


def accumulated_reward_trace(result: MissionResult) -> np.ndarray:
    """Team risk-reduction after each joint step.

    Entry k is the drop in summed Bayes risk over the trace grid from the
    prior, the belief on no data, to the belief on ``global_data(result,
    k)``, every vehicle's first k steps, as ``Replay.pooled`` kept them.
    A step that shares the previous step's kept list keeps its risk sum.
    """
    config = result.config
    points = config.parts.trace_grid
    replay = result.replay
    prior = float(np.sum(_risk(config, DataSet(config.min_spacing), points)))
    trace = np.empty(config.total_length + 1)
    previous = None
    for k, kept in enumerate(replay.kept):
        if kept is not previous:
            risk = float(np.sum(_risk(config, replay.data_of(kept), points)))
            previous = kept
        trace[k] = prior - risk
    return trace


def _risk(config: MissionConfig, data: DataSet, points) -> np.ndarray:
    """Conditional Bayes risk at ``points`` under the config's belief on ``data``."""
    parts = config.parts
    means, varis = Belief(parts.kernel, config.prior_mean, data).predict_arrays(points)
    return bayes_risk_batch(means, varis, parts.loss)


def truth_grid(result: MissionResult):
    """True depths on the output grid, as (points, values)."""
    parts = result.config.parts
    return parts.output_grid, parts.lake.depth_grid(parts.output_grid)


def compare_methods(base_config: MissionConfig, seeds) -> dict:
    """Run each variant of ``COMPARED_VARIANTS`` over the seeds and summarize.

    Returns per-variant final accumulated rewards and mean traces.
    """
    out: dict = {"seeds": [int(s) for s in seeds], "variants": {}}
    for name, overrides in COMPARED_VARIANTS.items():
        traces = [
            accumulated_reward_trace(
                run_mission(replace(base_config, seed=int(seed), **overrides))
            )
            for seed in seeds
        ]
        finals = [float(tr[-1]) for tr in traces]
        mids = [float(tr[len(tr) // 2]) for tr in traces]
        out["variants"][name] = {
            "final_rewards": finals,
            "mid_rewards": mids,
            "mean_final": float(np.mean(finals)),
            "mean_mid": float(np.mean(mids)),
            "mean_trace": np.mean(np.stack(traces), axis=0).tolist(),
        }
    return out
