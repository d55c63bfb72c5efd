"""Event-driven multi-vehicle survey simulation.

Three things happen on the simulated clock: vehicles finish path
segments (then replan and keep going), sample events fire as a vehicle
passes each measurement point along its segment, and TDMA slots open,
letting the slot's owner broadcast its plan and a byte-budgeted slice of
its unsent measurements to the rest of the team. Deliveries land after a
fixed latency and are dropped independently per recipient.

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
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path as FsPath

import numpy as np

from .comms import (
    CommEvent,
    CommLog,
    Packet,
    TdmaSchedule,
    decode_packet,
    encode_packet,
    measurement_capacity,
    select_measurements,
)
from .coordination import (
    JointPlanSnapshot,
    PeerPlan,
    TeamOrdering,
    plan_with_predecessors,
)
from .environment import (
    OperationalArea,
    SensorModel,
    eval_grid,
    sample_depth,
    synthetic_lake,
)
from .errors import ConfigurationError
from .gp import CONDITION_CAP, DataSet, KernelSpec, Sample
from .motion import (
    ACTION_SET,
    AgentState,
    MotionParams,
    Path,
    lawnmower_path,
    sample_locations,
    step,
)
from .planner import PlanConfig, PlanContext
from .risk import LossParams, RiskField, bayes_risk_batch, risk_field

VARIANTS = ("terminal", "plain", "lawnmower")


@dataclass
class MissionConfig:
    """Scenario, team, planner, and channel settings for one mission."""

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
    d_eps: float | None = None
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
    exploration: float | None = None
    rollout_policy: str = "straight-bias"
    swath: float | None = None
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
        if self.variant not in VARIANTS:
            raise ConfigurationError(
                f"unknown variant {self.variant!r}; expected one of {VARIANTS}"
            )
        if len(self.speeds) != len(self.starts):
            raise ConfigurationError("speeds and starts must match in length")
        if not self.speeds:
            raise ConfigurationError("the team must have at least one vehicle")
        if any(s <= 0 for s in self.speeds):
            raise ConfigurationError("speeds must be positive")
        if self.total_length < 1 or self.total_length > 255:
            raise ConfigurationError("total_length must be in 1..255")
        if self.drop_prob < 0 or self.drop_prob >= 1:
            raise ConfigurationError("drop_prob must be in [0, 1)")
        if self.comm_latency < 0:
            raise ConfigurationError("comm_latency must be non-negative")
        if self.seed < 0:
            raise ConfigurationError("seed must be non-negative")
        if not self.sample_spacing > 0:
            raise ConfigurationError("sample_spacing must be positive")
        # Every Gram matrix the mission factors is a covariance of at most
        # n points plus sn^2 on its diagonal, so its 2-norm condition
        # number, which bounds the factor's estimate from above, is at most
        # 1 + n sf^2 / sn^2.
        n_max = self.gram_size_bound()
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
        longest_step = self.turn_radius * (
            self.theta_max + 2.0 * max(abs(a) for a in ACTION_SET)
        )
        per_vehicle = 1 + self.total_length * (
            math.floor(longest_step / self.sample_spacing) + 1
        )
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

    @property
    def team_size(self) -> int:
        return len(self.speeds)

    def area(self) -> OperationalArea:
        return OperationalArea((0.0, 0.0), self.area_max)

    def kernel(self) -> KernelSpec:
        return KernelSpec(self.length_scale, self.signal_variance, self.noise_std)

    def loss(self) -> LossParams:
        return LossParams(self.level, self.cost_deep_wrong, self.cost_shallow_wrong)

    def motion(self, agent: int | None = None) -> MotionParams:
        speed = self.speeds[agent] if agent is not None else self.speeds[0]
        return MotionParams(self.turn_radius, self.theta_max, speed)

    def plan_config(self) -> PlanConfig:
        return PlanConfig(
            horizon=self.horizon,
            use_terminal_reward=self.variant == "terminal",
            mcts_iterations=self.mcts_iterations,
            exploration=self.exploration,
            rollout_policy=self.rollout_policy,
        )


def _segment_length(action: float, params: MotionParams) -> float:
    """Along-track length of one step: the turn arc plus the run-out."""
    r = params.turn_radius
    return r * abs(action) + r * (params.theta_max + abs(action))


class _AgentRuntime:
    def __init__(self, agent_id, config: MissionConfig, sensor_rng, mcts_rng):
        self.id = agent_id
        self.state = AgentState(*config.starts[agent_id])
        self.motion = config.motion(agent_id)
        self.data = DataSet(min_spacing=config.min_spacing)
        self.snapshot = JointPlanSnapshot()
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
    """Everything a finished mission leaves behind."""

    config: MissionConfig
    events: list[dict]
    final_states: list[AgentState]
    agent_data: list[DataSet]
    comm_log: CommLog
    duration: float
    plan_bound_failures: int

    def config_dict(self) -> dict:
        return _jsonable(asdict(self.config))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def run_mission(config: MissionConfig) -> MissionResult:
    """Simulate one mission and return its full log."""
    area = config.area()
    bathymetry = synthetic_lake(
        config.bathymetry_family, config.bathymetry_params, area, level=config.level
    )
    kernel = config.kernel()
    loss = config.loss()
    sensor = SensorModel(config.noise_std, config.sample_spacing)
    planning_grid = eval_grid(area, config.planning_resolution)
    ordering = TeamOrdering(tuple(range(config.team_size)))
    schedule = TdmaSchedule(config.slot_duration, config.team_size)
    plan_cfg = config.plan_config()

    ss = np.random.SeedSequence(config.seed)
    children = ss.spawn(2 * config.team_size + 1)
    sensor_rngs = [np.random.default_rng(children[i]) for i in range(config.team_size)]
    channel_rng = np.random.default_rng(children[config.team_size])
    mcts_rngs = [
        np.random.default_rng(children[config.team_size + 1 + i])
        for i in range(config.team_size)
    ]

    agents = [
        _AgentRuntime(i, config, sensor_rngs[i], mcts_rngs[i])
        for i in range(config.team_size)
    ]
    events: list[dict] = []
    comm_log = CommLog()
    heap: list[tuple] = []
    seq = itertools.count()
    bound_failures = 0

    def push(t, kind, payload):
        heapq.heappush(heap, (t, next(seq), kind, payload))

    def log(t, kind, **fields):
        events.append({"t": float(t), "kind": kind, **fields})

    def take_sample(t, agent: _AgentRuntime, loc, step_index):
        s = sample_depth(bathymetry, sensor, (loc[0], loc[1]), agent.sensor_rng)
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
            accepted=bool(accepted),
        )

    def plan_and_go(t, agent: _AgentRuntime):
        remaining = config.total_length - agent.executed
        if remaining <= 0:
            agent.done = True
            log(t, "done", agent=agent.id)
            return
        if config.variant == "lawnmower":
            path = lawnmower_path(agent.state, 1, area, agent.motion, config.swath)
            action = path.actions[0]
            agent.plan_state = agent.state
            agent.plan_epoch = agent.executed
            agent.plan_actions = ()
            log(
                t,
                "plan",
                agent=agent.id,
                epoch=agent.executed,
                actions=[],
                value=0.0,
                naive=0.0,
                bound_ok=True,
                evaluations=0,
            )
        else:
            context = PlanContext(
                kernel=kernel,
                prior_mean=config.prior_mean,
                data=agent.data,
                loss=loss,
                eval_points=planning_grid,
                motion=agent.motion,
                area=area,
                remaining_steps=remaining,
                d_eps=config.d_eps,
                sensor_spacing=config.sample_spacing,
                swath=config.swath,
            )
            result = plan_with_predecessors(
                agent.state,
                context,
                agent.snapshot,
                ordering,
                agent.id,
                plan_cfg,
                agent.mcts_rng,
            )
            action = result.path.actions[0]
            agent.plan_state = agent.state
            agent.plan_epoch = agent.executed
            agent.plan_actions = tuple(
                ACTION_SET.index(a) for a in result.path.actions
            )
            nonlocal bound_failures
            if not result.bound_ok:
                bound_failures += 1
            log(
                t,
                "plan",
                agent=agent.id,
                epoch=agent.executed,
                actions=list(agent.plan_actions),
                value=float(result.value),
                naive=float(result.naive_value),
                bound_ok=bool(result.bound_ok),
                evaluations=int(result.evaluations),
            )
        segment = Path(
            (agent.state, step(agent.state, action, agent.motion)), (action,)
        )
        seg_len = _segment_length(action, agent.motion)
        t_end = t + seg_len / agent.motion.speed
        locs = sample_locations(segment, config.sample_spacing)
        norms = np.linalg.norm(locs - locs[0], axis=1)
        chord = max(float(norms[-1]), 1e-12)
        for loc, dist in zip(locs[1:], norms[1:]):
            # Time along the segment, scaled onto the full arc length.
            push(t + (dist / chord) * seg_len / agent.motion.speed,
                 "sample", (agent.id, (float(loc[0]), float(loc[1]))))
        push(t_end, "segment_end", (agent.id, segment.final, action))

    def broadcast(t):
        owner = agents[schedule.owner(t)]
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
            comm_log.record(
                CommEvent(t, "rx", owner.id, other.id, len(raw), other.id in delivered_to)
            )
        comm_log.record(CommEvent(t, "tx", owner.id, None, len(raw), True))
        log(
            t,
            "tx",
            agent=owner.id,
            n_bytes=len(raw),
            n_meas=len(triples),
            n_actions=n_actions,
            tail=bool(tail_flag),
            epoch=owner.plan_epoch,
            delivered_to=delivered_to,
            dropped_to=dropped_to,
        )

    def deliver(t, recipient_id, raw):
        agent = agents[recipient_id]
        packet = decode_packet(raw)
        agent.snapshot.update(PeerPlan.from_packet(packet, config.total_length))
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

    # Mission start: every vehicle samples its start point, then plans.
    for agent in agents:
        push(0.0, "sample", (agent.id, (agent.state.north, agent.state.east)))
    for agent in agents:
        push(0.0, "launch", (agent.id,))
    push(0.0, "slot", None)

    t_now = 0.0
    while heap:
        t_now, _, kind, payload = heapq.heappop(heap)
        if kind == "sample":
            agent = agents[payload[0]]
            # Mission-start samples carry step 0; samples taken while a
            # segment is underway belong to the step being executed.
            step_index = 0 if t_now == 0.0 else agent.executed + 1
            take_sample(t_now, agent, payload[1], step_index)
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
                action=ACTION_SET.index(action),
                heading=float(final_state.heading),
                north=float(final_state.north),
                east=float(final_state.east),
            )
            plan_and_go(t_now, agent)
        elif kind == "deliver":
            deliver(t_now, *payload)
        elif kind == "slot":
            broadcast(t_now)
            if not (
                all(a.done for a in agents) and all(not a.queue for a in agents)
            ):
                push(t_now + config.slot_duration, "slot", None)

    return MissionResult(
        config=config,
        events=events,
        final_states=[a.state for a in agents],
        agent_data=[a.data for a in agents],
        comm_log=comm_log,
        duration=t_now,
        plan_bound_failures=bound_failures,
    )


def write_jsonl(result: MissionResult, path) -> None:
    """Write the event log as one sorted-keys JSON object per line.

    Identical missions produce byte-identical files.
    """
    with open(path, "w") as f:
        header = {"kind": "config", **result.config_dict()}
        f.write(json.dumps(header, sort_keys=True) + "\n")
        for event in result.events:
            f.write(json.dumps(_jsonable(event), sort_keys=True) + "\n")


def _own_sample_stream(result: MissionResult):
    """All raw own-vehicle samples in global collection order."""
    for e in result.events:
        if e["kind"] == "sample":
            yield e


def global_data(result: MissionResult, upto_step: int | None = None) -> DataSet:
    """Team-wide data set: every vehicle's samples through one filter.

    Samples are replayed in global collection order, optionally keeping
    only those taken during each vehicle's first ``upto_step`` steps.
    """
    data = DataSet(min_spacing=result.config.min_spacing)
    for e in _own_sample_stream(result):
        if upto_step is not None and e["step"] > upto_step:
            continue
        data.insert(Sample((e["north"], e["east"]), e["value"]))
    return data


def risk_snapshot(
    result: MissionResult,
    agent: int | None = None,
    upto_step: int | None = None,
    resolution: float | None = None,
) -> RiskField:
    """Bayes-risk map on the output grid from a chosen belief.

    ``agent=None`` uses the omniscient team belief (all samples, one
    density filter, global time order); an agent index uses what that
    vehicle actually knew (its own samples plus whatever broadcasts
    reached it). ``upto_step`` rewinds the belief to the moment the
    vehicle completed step k: own samples from its first k steps, and
    for agent beliefs only the broadcasts received by that time. The
    global belief pools every vehicle's first k steps.
    """
    config = result.config
    points = eval_grid(config.area(), resolution or config.output_resolution)
    if agent is None:
        data = global_data(result, upto_step)
    else:
        if upto_step is not None:
            cutoff = 0.0
            for e in result.events:
                if (
                    e["kind"] == "step"
                    and e["agent"] == agent
                    and e["n"] <= upto_step
                ):
                    cutoff = max(cutoff, e["t"])
            data = DataSet(min_spacing=config.min_spacing)
            for e in result.events:
                if e["kind"] == "sample" and e["agent"] == agent:
                    if e["step"] <= upto_step:
                        data.insert(Sample((e["north"], e["east"]), e["value"]))
                elif (
                    e["kind"] == "rx"
                    and e["agent"] == agent
                    and e["t"] <= cutoff
                ):
                    for north, east, value in e["inserted"]:
                        data.insert(Sample((north, east), value))
        else:
            data = result.agent_data[agent]
    return risk_field(
        config.kernel(), data, points, config.loss(), prior_mean=config.prior_mean
    )


def accumulated_reward_trace(
    result: MissionResult, resolution: float | None = None
) -> np.ndarray:
    """Team risk-reduction after each joint step.

    Entry k is the drop in summed Bayes risk over the trace grid between
    the prior and the omniscient belief built from every vehicle's first
    k steps (k=0 is the mission-start samples). Because vehicles move at
    different speeds, each step-k belief is rebuilt from scratch: the
    density filter sees each step's samples in global time order, and
    those orders are not nested across k.
    """
    config = result.config
    points = eval_grid(config.area(), resolution or config.trace_resolution)
    samples = list(_own_sample_stream(result))
    prior = float(
        np.sum(
            bayes_risk_batch(
                np.full(len(points), config.prior_mean),
                np.full(len(points), config.signal_variance),
                config.loss(),
            )
        )
    )
    trace = np.empty(config.total_length + 1)
    for k in range(config.total_length + 1):
        data = DataSet(min_spacing=config.min_spacing)
        for e in samples:
            if e["step"] <= k:
                data.insert(Sample((e["north"], e["east"]), e["value"]))
        risk = float(np.sum(risk_field(
            config.kernel(), data, points, config.loss(), prior_mean=config.prior_mean
        ).values))
        trace[k] = prior - risk
    return trace


def truth_grid(result: MissionResult, resolution: float | None = None):
    """True depths on the output grid, as (points, values)."""
    config = result.config
    area = config.area()
    bathymetry = synthetic_lake(
        config.bathymetry_family, config.bathymetry_params, area, level=config.level
    )
    points = eval_grid(area, resolution or config.output_resolution)
    return points, bathymetry.depth_grid(points)


def compare_methods(
    base_config: MissionConfig,
    seeds,
    variants: dict[str, dict] | None = None,
) -> dict:
    """Run each planner variant over the seeds and summarize.

    ``variants`` maps a name to MissionConfig field overrides; the
    default compares the terminal-reward planner, the plain short-horizon
    planner, and the lawnmower baseline. Returns per-variant final
    accumulated rewards and mean traces.
    """
    from dataclasses import replace as dc_replace

    if variants is None:
        variants = {
            "terminal": {"variant": "terminal", "horizon": 3},
            "plain": {"variant": "plain", "horizon": 10},
            "lawnmower": {"variant": "lawnmower"},
        }
    jobs = [
        (name, int(seed), dc_replace(base_config, seed=int(seed), **overrides))
        for name, overrides in variants.items()
        for seed in seeds
    ]

    def run_one(job):
        name, seed, cfg = job
        result = run_mission(cfg)
        trace = accumulated_reward_trace(result)
        return name, seed, trace, result.plan_bound_failures

    rows = [run_one(j) for j in jobs]

    out: dict = {"seeds": [int(s) for s in seeds], "variants": {}}
    for name in variants:
        traces = [r[2] for r in rows if r[0] == name]
        finals = [float(tr[-1]) for tr in traces]
        mids = [float(tr[len(tr) // 2]) for tr in traces]
        out["variants"][name] = {
            "final_rewards": finals,
            "mid_rewards": mids,
            "mean_final": float(np.mean(finals)),
            "mean_mid": float(np.mean(mids)),
            "mean_trace": np.mean(np.stack(traces), axis=0).tolist(),
            "bound_failures": int(sum(r[3] for r in rows if r[0] == name)),
        }
    return out
