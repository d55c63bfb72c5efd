"""Receding-horizon path planning by Monte Carlo tree search.

Each planning episode maximizes the marginal expected benefit of the
agent's next few actions: the expected drop in summed Bayes risk over
nearby evaluation points, credited on top of whatever the preceding
agents in the team ordering already plan to measure. Short plans are
optionally scored together with a deterministic boustrophedon completion
from their final state (the terminal reward), which lets a short search
horizon account for the rest of the mission.

The evaluator built once per episode conditions on the agent's data
through one :class:`~isobath.gp.Belief` and applies planned measurements
as low-rank variance updates (block Cholesky on the measurement-noise
Schur complement), so scoring a candidate costs a few small matrix
products rather than a fresh GP solve. Measurement locations that the
density rule would reject are dropped before scoring; revisiting known
ground earns nothing.

A candidate is scored in one evaluator call. The search passes its
short path and, when no tail from the same final state has been scored
yet, its lawnmower tail as two location sets. Each set keeps its own
thinning, Schur block and Cholesky factor; the closed-form expected
risk then runs once over the sets' concatenated evaluation points, and
each set's benefit is the sum over its own slice. That gives the same
floats as scoring the sets one by one, at one set of per-call numpy
overheads instead of two.

A plan commits a vehicle to measurement locations in one way only:
``plan_locations`` samples the short path and then its lawnmower
completion. The planner's naive value, its final rescore and
``augmented_reward`` use it, and so does a teammate reconstructing a
broadcast plan, so a sender and a receiver score the same locations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from .gp import (
    Belief,
    DataSet,
    KernelSpec,
    _chol_with_jitter,
    _tri_solve,
    admissible_locations,
)
from .risk import LossParams, bayes_risk_batch, expected_bayes_risk_closed_batch
from .motion import (
    ACTION_SET,
    AgentState,
    MotionParams,
    Path,
    lawnmower_path,
    rollout,
    sample_locations,
)

# Tail values are shared between candidates whose final states agree to
# this resolution (meters, radians).
TAIL_MEMO_POSITION = 1.0
TAIL_MEMO_HEADING = math.radians(5.0)

# Slack for the receding-horizon lower-bound diagnostic.
BOUND_TOLERANCE = 1e-9


@dataclass
class PlanConfig:
    """Search-budget and objective switches for one planner."""

    horizon: int = 3
    use_terminal_reward: bool = True
    mcts_iterations: int = 48
    exploration: float | None = None
    rollout_policy: str = "straight-bias"

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.mcts_iterations < 1:
            raise ValueError("mcts_iterations must be at least 1")
        if self.rollout_policy not in ("straight-bias", "random"):
            raise ValueError(f"unknown rollout policy {self.rollout_policy!r}")


@dataclass
class PlanContext:
    """Everything an episode needs besides the search configuration.

    ``preceding_planned`` carries the planned measurement locations of
    strictly-preceding teammates (possibly stale); the agent's reward is
    marginal with respect to them. ``remaining_steps`` is the mission
    length still ahead of the start state.
    """

    kernel: KernelSpec
    prior_mean: float
    data: DataSet
    loss: LossParams
    eval_points: np.ndarray
    motion: MotionParams
    area: object
    remaining_steps: int
    preceding_planned: np.ndarray = field(
        default_factory=lambda: np.empty((0, 2))
    )
    d_eps: float | None = None
    sensor_spacing: float = 5.0
    swath: float | None = None

    def __post_init__(self):
        self.eval_points = np.asarray(self.eval_points, dtype=float).reshape(-1, 2)
        self.preceding_planned = np.asarray(
            self.preceding_planned, dtype=float
        ).reshape(-1, 2)
        if self.d_eps is None:
            self.d_eps = 3.0 * self.kernel.length_scale


class EpisodeEvaluator:
    """Marginal expected-benefit scoring against a fixed belief and base plan.

    Factors the Gram matrix of the data once, conditions variance on the
    base (preceding agents') locations once, and then scores candidate
    location sets by an incremental block-Cholesky update. Evaluation
    points are restricted to those within ``d_eps`` of the candidate; the
    base plan's expected risk there is precomputed, so the marginal is a
    single vectorized closed-form pass.
    """

    def __init__(self, context: PlanContext):
        self.ctx = context
        kernel = context.kernel
        data = context.data
        self.noise_var = kernel.noise_std**2
        grid = context.eval_points
        self.grid = grid
        self.locs = data.locations
        self.belief = Belief(kernel, context.prior_mean, data)
        self.mu_s, self.var_s, self.v_s = self.belief.project(grid)
        self.risk_s = bayes_risk_batch(self.mu_s, self.var_s, context.loss)

        base = admissible_locations(
            context.preceding_planned, data.min_spacing, existing=self.locs
        )
        self.base = base
        self.existing = np.vstack([self.locs, base])
        nb = base.shape[0]
        if nb:
            b_b = self.belief.solve(kernel(self.locs, base))
            c_bb = kernel(base, base) + self.noise_var * np.eye(nb) - b_b.T @ b_b
            self.low_b = _chol_with_jitter(c_bb, kernel, nb)
            u_b = kernel(base, grid) - b_b.T @ self.v_s
            self.x_b = _tri_solve(self.low_b, u_b)
            self.b_b = b_b
            dvar_base = np.sum(self.x_b**2, axis=0)
        else:
            self.low_b = None
            self.x_b = np.empty((0, grid.shape[0]))
            self.b_b = np.empty((len(data), 0))
            dvar_base = np.zeros(grid.shape[0])
        self.var_qbase = np.maximum(self.var_s - dvar_base, 0.0)
        self.e_base = expected_bayes_risk_closed_batch(
            self.mu_s, np.maximum(self.var_s - self.var_qbase, 0.0),
            self.var_qbase, context.loss,
        )

    def admissible(self, locations) -> np.ndarray:
        """Candidate locations that survive the density rule, in order."""
        return admissible_locations(
            locations, self.ctx.data.min_spacing, existing=self.existing
        )

    def marginal(self, *location_sets) -> list[float]:
        """Marginal expected benefit of measuring at each location set.

        Each set is scored on its own: its locations are filtered by the
        density rule against the data and the base plan, and its benefit
        is summed over evaluation points within ``d_eps`` of a surviving
        location. The expected risk of every set is evaluated in one
        closed-form call over their concatenated evaluation points.
        """
        kernel = self.ctx.kernel
        near, moments = [], []
        for locations in location_sets:
            added = self.admissible(locations)
            na = added.shape[0]
            d2 = cdist(added, self.grid, "sqeuclidean")
            idx = np.flatnonzero((d2 <= self.ctx.d_eps**2).any(axis=0))
            near.append(idx)
            if not idx.size:
                continue
            b_a = self.belief.solve(kernel(self.locs, added))
            c_aa = kernel(added, added) + self.noise_var * np.eye(na) - b_a.T @ b_a
            u_a = kernel(added, self.grid[idx]) - b_a.T @ self.v_s[:, idx]
            if self.low_b is not None:
                c_ba = kernel(self.base, added) - self.b_b.T @ b_a
                m = _tri_solve(self.low_b, c_ba)
                c_aa = c_aa - m.T @ m
                u_a = u_a - m.T @ self.x_b[:, idx]
            low_a = _chol_with_jitter(c_aa, kernel, na)
            x_a = _tri_solve(low_a, u_a)
            dvar = np.sum(x_a**2, axis=0)
            var_qfull = np.maximum(self.var_qbase[idx] - dvar, 0.0)
            moments.append((
                self.mu_s[idx],
                np.maximum(self.var_s[idx] - var_qfull, 0.0),
                var_qfull,
            ))
        if not moments:
            return [0.0] * len(near)
        e_full = expected_bayes_risk_closed_batch(
            *(np.concatenate(parts) for parts in zip(*moments)), self.ctx.loss
        )
        values, start = [], 0
        for idx in near:
            stop = start + idx.size
            values.append(
                float(np.sum(self.e_base[idx] - e_full[start:stop])) if idx.size else 0.0
            )
            start = stop
        return values


def path_reward(path_locations, context: PlanContext) -> float:
    """Marginal expected benefit of a path's measurement locations.

    Credited on top of the preceding agents' planned locations, over
    evaluation points within ``d_eps`` of the path. Revisiting only
    locations the density rule would reject earns zero.
    """
    return EpisodeEvaluator(context).marginal(path_locations)[0]


def _tail_path(final_state: AgentState, tail_steps: int, context: PlanContext) -> Path:
    return lawnmower_path(
        final_state, tail_steps, context.area, context.motion, context.swath
    )


def _tail_eligible(locations: np.ndarray, context: PlanContext) -> bool:
    """Whether a short path may claim its sweep-completion credit.

    The sweep policy itself never strays more than one turn diameter
    outside the area, so a short path is eligible exactly when all of
    its measurement locations stay within that same apron. Paths that
    leave it would be credited for a continuation harvested only after
    driving out of the survey area -- value the mission never realizes
    and a corridor teammates would needlessly avoid.
    """
    apron = 2.0 * context.motion.turn_radius
    lo_n = context.area.min_corner[0] - apron
    lo_e = context.area.min_corner[1] - apron
    hi_n = context.area.max_corner[0] + apron
    hi_e = context.area.max_corner[1] + apron
    n, e = locations[:, 0], locations[:, 1]
    return bool(
        (n >= lo_n).all() and (n <= hi_n).all()
        and (e >= lo_e).all() and (e <= hi_e).all()
    )


def plan_locations(
    path: Path,
    tail_steps: int,
    area,
    motion: MotionParams,
    spacing: float,
    swath: float | None = None,
) -> np.ndarray:
    """Measurement locations a plan commits to: the path, then its sweep.

    The path's own sample locations, followed by those of a
    ``tail_steps``-step lawnmower completion grown from its final state
    (that state's position appears once). With no tail steps this is
    just the path's locations.
    """
    locs = sample_locations(path, spacing)
    if tail_steps > 0:
        tail = lawnmower_path(path.final, tail_steps, area, motion, swath)
        locs = np.vstack([locs, sample_locations(tail, spacing)[1:]])
    return locs


def _completed_locations(short_path: Path, context: PlanContext) -> np.ndarray:
    """``plan_locations`` of a short path, tail granted only when eligible."""
    tail_steps = context.remaining_steps - len(short_path)
    if tail_steps > 0 and not _tail_eligible(
        sample_locations(short_path, context.sensor_spacing), context
    ):
        tail_steps = 0
    return plan_locations(
        short_path, tail_steps, context.area, context.motion,
        context.sensor_spacing, context.swath,
    )


def augmented_reward(short_path: Path, context: PlanContext) -> float:
    """Reward of the short path extended by its boustrophedon completion.

    Equals ``path_reward`` of the concatenated location set: the short
    path's measurement locations followed by those of a deterministic
    lawnmower tail of the remaining mission length, grown from the short
    path's final state. With no length remaining the tail is empty and
    this reduces to the plain path reward. A short path that leaves the
    operational area (beyond the sweep policy's own turn-diameter apron)
    forfeits the completion credit and scores as the bare path.
    """
    return path_reward(_completed_locations(short_path, context), context)


def bound_condition_check(jbar_n: float, jbar_n_minus: float) -> bool:
    """Receding-horizon lower-bound diagnostic (logged, never enforced)."""
    return jbar_n >= jbar_n_minus - BOUND_TOLERANCE


@dataclass
class PlanResult:
    """Chosen plan plus the diagnostics the mission log wants."""

    path: Path
    value: float
    naive_value: float
    bound_ok: bool
    evaluations: int


class _Node:
    __slots__ = ("action_order", "children", "visits", "total", "expanded")

    def __init__(self, action_order):
        self.action_order = action_order
        self.children: dict[int, _Node] = {}
        self.visits = 0
        self.total = 0.0
        self.expanded = 0


def _quantize(state: AgentState) -> tuple[int, int, int]:
    return (
        round(state.north / TAIL_MEMO_POSITION),
        round(state.east / TAIL_MEMO_POSITION),
        round(state.heading / TAIL_MEMO_HEADING),
    )


def plan_episode(
    start: AgentState, context: PlanContext, config: PlanConfig, rng
) -> PlanResult:
    """Run one MCTS planning episode and return the best complete plan.

    UCT guides sampling; the returned plan is the best fully evaluated
    action sequence from the root (anytime: more iterations can only
    improve it, and a single iteration already yields a full-length
    plan). The sweep policy's prefix is evaluated before any search, so
    the result never scores below the policy the terminal reward
    extrapolates. Deterministic for a fixed rng state. The naive value
    is the reward of the pure lawnmower completion from the start state,
    logged for the lower-bound diagnostic.
    """
    horizon = min(config.horizon, context.remaining_steps)
    evaluator = EpisodeEvaluator(context)
    n_actions = len(ACTION_SET)
    straight = ACTION_SET.index(0.0)

    if config.use_terminal_reward:
        naive_value = evaluator.marginal(plan_locations(
            Path((start,), ()), context.remaining_steps, context.area,
            context.motion, context.sensor_spacing, context.swath,
        ))[0]
    else:
        naive_value = 0.0

    if horizon <= 0:
        return PlanResult(Path((start,), ()), naive_value, naive_value, True, 0)

    tail_memo: dict[tuple[int, int, int], float] = {}
    value_memo: dict[tuple[int, ...], float] = {}
    evaluations = 0

    def evaluate(actions: tuple[int, ...]) -> float:
        nonlocal evaluations
        cached = value_memo.get(actions)
        if cached is not None:
            return cached
        short = rollout(start, [ACTION_SET[i] for i in actions], context.motion)
        short_locs = sample_locations(short, context.sensor_spacing)
        # The short path and, on a tail-memo miss, its tail are scored in
        # one call; a memo hit reuses the first tail scored at that state.
        sets = [short_locs]
        key = None
        if config.use_terminal_reward:
            tail_steps = max(context.remaining_steps - len(short), 0)
            if tail_steps > 0 and _tail_eligible(short_locs, context):
                key = _quantize(short.final)
                if key not in tail_memo:
                    tail = _tail_path(short.final, tail_steps, context)
                    sets.append(sample_locations(tail, context.sensor_spacing)[1:])
        values = evaluator.marginal(*sets)
        if len(values) > 1:
            tail_memo[key] = values[1]
        value = values[0]
        if key is not None:
            value += tail_memo[key]
        evaluations += 1
        value_memo[actions] = value
        return value

    # Evaluate the sweep policy's own prefix first, so the returned plan
    # never falls below the policy the terminal reward extrapolates: the
    # anytime argmax then dominates it by construction.
    seed_path = _tail_path(start, horizon, context)
    seed_actions = tuple(ACTION_SET.index(a) for a in seed_path.actions)
    best_actions = seed_actions
    best_value = evaluate(seed_actions)
    root = _Node(tuple(rng.permutation(n_actions)))
    # UCB exploration is scaled to the spread of values seen so far, not
    # their magnitude: with a terminal reward every candidate carries the
    # full-mission value, and a magnitude-based constant would drown the
    # differences that actually rank candidates.
    value_lo = value_hi = best_value

    for _ in range(config.mcts_iterations):
        node = root
        actions: list[int] = []
        visited = [root]
        # Selection: descend fully expanded nodes by UCB.
        while len(actions) < horizon and node.expanded == n_actions:
            c_eff = config.exploration if config.exploration is not None else (
                max(value_hi - value_lo, 1e-9) / math.sqrt(2.0)
            )
            log_n = math.log(max(node.visits, 1))
            best_child, best_score = None, -np.inf
            for idx in node.action_order:
                child = node.children[idx]
                score = child.total / child.visits + c_eff * math.sqrt(
                    log_n / child.visits
                )
                if score > best_score:
                    best_child, best_score, best_idx = child, score, idx
            node = best_child
            actions.append(best_idx)
            visited.append(node)
        # Expansion: one untried action, in this node's shuffled order.
        if len(actions) < horizon and node.expanded < n_actions:
            idx = node.action_order[node.expanded]
            node.expanded += 1
            child = _Node(tuple(rng.permutation(n_actions)))
            node.children[idx] = child
            node = child
            actions.append(idx)
            visited.append(node)
        # Rollout to the horizon with the default policy.
        while len(actions) < horizon:
            if config.rollout_policy == "straight-bias" and rng.random() < 0.5:
                actions.append(straight)
            else:
                actions.append(int(rng.integers(n_actions)))
        value = evaluate(tuple(actions))
        value_lo = min(value_lo, value)
        value_hi = max(value_hi, value)
        if value > best_value:
            best_value = value
            best_actions = tuple(actions)
        for n in visited:
            n.visits += 1
            n.total += value

    jbar = best_value
    if config.use_terminal_reward:
        # Re-score the winner exactly (one joint marginal of the short
        # path and its tail, the same form the naive value uses). The
        # additive split above is only a search heuristic; near the
        # critical level it can undervalue a plan, so the final
        # comparison against the sweep policy must not rely on it.
        short = rollout(
            start, [ACTION_SET[i] for i in best_actions], context.motion
        )
        jbar = evaluator.marginal(_completed_locations(short, context))[0]
        evaluations += 1
        if jbar + BOUND_TOLERANCE < naive_value:
            # The search lost to the policy it extrapolates: keep that
            # policy's own prefix, whose exact value is the naive value.
            best_actions = seed_actions
            jbar = naive_value
    best_path = rollout(start, [ACTION_SET[i] for i in best_actions], context.motion)
    bound_ok = bound_condition_check(jbar, naive_value)
    return PlanResult(best_path, jbar, naive_value, bound_ok, evaluations)
