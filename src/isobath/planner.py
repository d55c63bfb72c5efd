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

A candidate is scored as location sets of an evaluator call: its short
path and, when no tail from the same final state has been scored yet,
its lawnmower tail. Each set keeps its own greedy thinning walk, Schur
block and Cholesky factor. Everything elementwise runs once per call
instead: one prefilter ``cdist`` from the data and the base plan to all
the call's locations, which drops those too close to them in any order
(``gp.admissible_sets``); one ``cdist`` from all the call's surviving
locations to the data, the base plan, the grid and one another, one
kernel pass over that block, and one search for nearby evaluation
points, each set slicing its own rows, columns and near mask; then the
closed-form expected risk over the sets' concatenated evaluation
points, each set's benefit being the sum over its own slice. An entry
of those blocks depends only on its own pair of points, so this gives
the same floats as scoring the sets one by one, at one set of per-call
numpy overheads instead of one per set.

That overhead, not arithmetic, is what a candidate costs: a score is
about a hundred numpy and LAPACK calls on blocks of a few dozen rows.
So the distances that pick a set's nearby evaluation points also give
its covariance to them, a candidate's locations are walked from plain
floats (``motion.sample_locations`` and ``motion.sweep_locations``)
without building its path, and candidates are not split into per-step
pieces cached on the search tree, which would add calls, not save them.

For the same reason a search opens with one call for many candidates.
UCT expands the root's untried actions one per iteration, and until
every one has been tried no node is fully expanded, so selection never
runs: the first ``len(ACTION_SET)`` iterations draw their expansions
and rollouts from the rng alone and read no value. Their candidates,
the sweep-prefix seed and the naive value are therefore scored in one
evaluator call, and the values are then recorded (memo, value range,
best plan, backups) in iteration order. Since a set's value does not
depend on the other sets of its call, every float, and so every plan,
is the one a candidate-by-candidate search computes.

A plan commits a vehicle to measurement locations in one way only:
``plan_locations`` samples the short path and then its lawnmower
completion; the naive value, the final rescore and a teammate
reconstructing a broadcast plan all use it. How many sweep steps a
short path earns is one rule, ``_tail_credit``, which the search's
candidates and the rescore both apply. The broadcast flag ignores the
rule, so a sender and a receiver score the same locations when the
winner's tail was credited. Of the 660 terminal winners of the 20-step
missions of seeds 0-5 and the 100-step one of seed 0, none with steps
left was denied its tail.
"""

from __future__ import annotations

import itertools
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
    admissible_sets,
)
from .risk import LossParams, expected_bayes_risk_closed_batch
# The benchmark's traced run (perfbench/tracing.py) wraps this name in
# this module, so it stays imported; the planner does not call it.
from .risk import bayes_risk_batch  # noqa: F401
from .motion import (
    ACTION_SET,
    STRAIGHT,
    AgentState,
    MotionParams,
    Path,
    lawnmower_path,
    rollout,
    sample_locations,
    sweep_locations,
)

# Tail values are shared between candidates whose final states agree to
# this resolution (meters, radians).
TAIL_MEMO_POSITION = 1.0
TAIL_MEMO_HEADING = math.radians(5.0)

# Slack by which the exact rescore of the search's winner may trail the
# naive value before the plan falls back to the sweep policy's prefix.
BOUND_TOLERANCE = 1e-9


@dataclass
class PlanConfig:
    """Search-budget and objective switches for one planner."""

    horizon: int = 3
    use_terminal_reward: bool = True
    mcts_iterations: int = 48

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.mcts_iterations < 1:
            raise ValueError("mcts_iterations must be at least 1")


@dataclass
class PlanContext:
    """Everything an episode needs besides the search configuration.

    ``preceding_planned`` carries the planned measurement locations of
    strictly-preceding teammates (possibly stale); the agent's reward is
    marginal with respect to them. ``remaining_steps`` is the mission
    length still ahead of the start state, at least one step: a vehicle
    with nothing left does not plan. A planned measurement earns
    benefit only at evaluation points within ``d_eps``, three length
    scales, of it.
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
    sensor_spacing: float = 5.0

    def __post_init__(self):
        if self.remaining_steps < 1:
            raise ValueError("remaining_steps must be at least 1")
        self.eval_points = np.asarray(self.eval_points, dtype=float).reshape(-1, 2)
        self.preceding_planned = np.asarray(
            self.preceding_planned, dtype=float
        ).reshape(-1, 2)

    @property
    def d_eps(self) -> float:
        return 3.0 * self.kernel.length_scale


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
        self.kernel = kernel = context.kernel
        data = context.data
        self.min_spacing = data.min_spacing
        self.noise_var = kernel.noise_std**2
        self.d_eps2 = context.d_eps**2
        grid = context.eval_points
        self.locs = data.locations
        self.belief = Belief(kernel, context.prior_mean, data)
        self.low_s = self.belief.low
        mu_s, var_s, v_s = self.belief.project(grid)

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
            u_b = kernel(base, grid) - b_b.T @ v_s
            x_b = _tri_solve(self.low_b, u_b)
            self.b_b = b_b
            dvar_base = np.sum(x_b**2, axis=0)
        else:
            self.low_b = None
            x_b = np.empty((0, grid.shape[0]))
            self.b_b = np.empty((len(data), 0))
            dvar_base = np.zeros(grid.shape[0])
        # An evaluator call's one cdist reaches the data, the base plan
        # and the grid; a squared distance is the same in either direction.
        self.targets = np.vstack([self.existing, grid])
        var_qbase = np.maximum(var_s - dvar_base, 0.0)
        e_base = expected_bayes_risk_closed_batch(
            mu_s, np.maximum(var_s - var_qbase, 0.0), var_qbase, context.loss,
        )
        # Stacked by evaluation point, so a call gathers its points'
        # grid statistics in one indexing, and a set its projections.
        self.grid_stats = np.stack([mu_s, var_s, var_qbase, e_base])
        self.projections = np.vstack([v_s, x_b])

    def marginal(self, *location_sets) -> list[float]:
        """Marginal expected benefit of measuring at each location set.

        Each set is scored on its own: its locations are filtered by the
        density rule against the data and the base plan, and its benefit
        is summed over evaluation points within ``d_eps`` of a surviving
        location. The sets are thinned together, with one distance pass
        to the data and the base plan; their surviving locations take
        one distance pass and one kernel pass together, each set slicing
        its own rows, and the expected risk of every set is evaluated in
        one closed-form call over their concatenated evaluation points.
        """
        pts, sizes = admissible_sets(location_sets, self.min_spacing, self.existing)
        values = [0.0] * len(sizes)
        n_pts = pts.shape[0]
        if not n_pts:
            return values
        n_s = self.locs.shape[0]
        n_sb = self.existing.shape[0]
        n_t = self.targets.shape[0]
        # Columns: data, base plan, grid, then the kept points themselves.
        # Every entry is a function of its own pair of points, so a set's
        # block is the one a pass over that set alone would give.
        d2 = cdist(pts, np.concatenate([self.targets, pts]), "sqeuclidean")
        k = self.kernel.from_sqdist(d2)
        # Measurement noise on the diagonal of the kept points' own block.
        k.reshape(-1)[n_t::n_t + n_pts + 1] += self.noise_var
        k_grid = k[:, n_sb:n_t]
        starts = list(itertools.accumulate(sizes, initial=0))
        live = [i for i, size in enumerate(sizes) if size]
        close = d2[:, n_sb:n_t] <= self.d_eps2
        near = np.logical_or.reduceat(close, [starts[i] for i in live], axis=0)
        which, at = near.nonzero()
        counts = np.bincount(which, minlength=len(live)).tolist()
        # Each set's projections are its own columns of one gather.
        projections = self.projections[:, at]
        dvars, scored, start = [], [], 0
        for i, count in zip(live, counts):
            if not count:
                continue
            cols = at[start:start + count]
            proj = projections[:, start:start + count]
            start += count
            r0, r1 = starts[i], starts[i] + sizes[i]
            b_a = _tri_solve(self.low_s, k[r0:r1, :n_s].T)
            c_aa = k[r0:r1, n_t + r0:n_t + r1] - b_a.T @ b_a
            u_a = k_grid[r0:r1, cols] - b_a.T @ proj[:n_s]
            if self.low_b is not None:
                c_ba = k[r0:r1, n_s:n_sb].T - self.b_b.T @ b_a
                m = _tri_solve(self.low_b, c_ba)
                c_aa = c_aa - m.T @ m
                u_a = u_a - m.T @ proj[n_s:]
            low_a = _chol_with_jitter(c_aa, self.kernel, sizes[i])
            x_a = _tri_solve(low_a, u_a)
            dvars.append(np.add.reduce(x_a**2, axis=0))
            scored.append((i, count))
        if not dvars:
            return values
        # From here on every step is elementwise, so the sets' evaluation
        # points are gathered once and each set sums its own slice.
        mu_s, var_s, var_qbase, e_base = self.grid_stats[:, at]
        var_qfull = np.maximum(var_qbase - np.concatenate(dvars), 0.0)
        e_full = expected_bayes_risk_closed_batch(
            mu_s, np.maximum(var_s - var_qfull, 0.0), var_qfull, self.ctx.loss,
        )
        gain = e_base - e_full
        start = 0
        for i, count in scored:
            values[i] = float(np.add.reduce(gain[start:start + count]))
            start += count
        return values


def _tail_path(
    final_state: AgentState, tail_steps: int, context: PlanContext
) -> np.ndarray:
    """Measurement locations of the sweep completing a short path, its start left out."""
    return sweep_locations(
        final_state, tail_steps, context.area, context.motion, context.sensor_spacing
    )


def _tail_credit(n_actions: int, bounds, context: PlanContext) -> int:
    """Sweep-completion steps a short path of ``n_actions`` actions earns.

    The steps left after it, ``remaining_steps - n_actions``, when that
    is positive and all its measurement locations stay inside the
    apron, else 0. The sweep policy itself never strays more than one
    turn diameter outside the area, so that is the apron. Paths that
    leave it would be credited for a continuation harvested only after
    driving out of the survey area -- value the mission never realizes
    and a corridor teammates would needlessly avoid. ``bounds`` is the
    locations' box ``(min north, min east, max north, max east)``, as
    ``motion.sample_locations`` returns it.
    """
    tail_steps = context.remaining_steps - n_actions
    apron = 2.0 * context.motion.turn_radius
    (lo_n, lo_e), (hi_n, hi_e) = context.area.min_corner, context.area.max_corner
    min_n, min_e, max_n, max_e = bounds
    inside = (min_n >= lo_n - apron and max_n <= hi_n + apron
              and min_e >= lo_e - apron and max_e <= hi_e + apron)
    return tail_steps if tail_steps > 0 and inside else 0


def plan_locations(
    start: AgentState, action_indices, tail_steps: int, context: PlanContext
) -> np.ndarray:
    """Measurement locations a plan commits to: the short path, then its sweep.

    ``action_indices`` index ``ACTION_SET``. The sweep runs ``tail_steps``
    steps from the short path's final state, whose position appears
    once; with no tail steps this is the short path's locations alone.
    """
    locs, final, _ = sample_locations(
        start, action_indices, context.motion, context.sensor_spacing
    )
    if tail_steps > 0:
        locs = np.vstack([locs, _tail_path(final, tail_steps, context)])
    return locs


@dataclass
class PlanResult:
    """Chosen plan plus the diagnostics the mission log wants.

    ``fell_back`` is true only when the exact rescore of the search's
    winner lost to the naive value, so the plan is the sweep policy's
    prefix, valued at the naive value.
    """

    path: Path
    value: float
    naive_value: float
    fell_back: bool
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


def _descend(
    root: _Node, horizon: int, spread: float, rng
) -> tuple[tuple[int, ...], list[_Node]]:
    """One UCT iteration's walk: the candidate's actions and the nodes it visits.

    Selection descends fully expanded nodes by UCB, with exploration
    scaled to ``spread``, the range of values seen so far; expansion
    adds one untried action in the node's shuffled order; the rollout
    fills the horizon, straight half the time, else uniformly. Until the
    root has tried every action, no node is fully expanded, so the walk
    reads no value and depends on the rng alone.
    """
    n_actions = len(ACTION_SET)
    node = root
    actions: list[int] = []
    visited = [root]
    c_eff = max(spread, 1e-9) / math.sqrt(2.0)
    # Selection: descend fully expanded nodes by UCB.
    while len(actions) < horizon and node.expanded == n_actions:
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
        child = _Node(rng.permutation(n_actions).tolist())
        node.children[idx] = child
        node = child
        actions.append(idx)
        visited.append(node)
    # Rollout to the horizon: straight half the time, else uniform.
    while len(actions) < horizon:
        if rng.random() < 0.5:
            actions.append(STRAIGHT)
        else:
            actions.append(int(rng.integers(n_actions)))
    return tuple(actions), visited


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
    is the reward of the pure lawnmower completion from the start state.
    """
    horizon = min(config.horizon, context.remaining_steps)
    evaluator = EpisodeEvaluator(context)
    naive_sets = []
    if config.use_terminal_reward:
        naive_sets.append(plan_locations(start, (), context.remaining_steps, context))

    tail_memo: dict[tuple[int, int, int], float] = {}
    # Action tuple -> (value, sweep steps its short path earns).
    value_memo: dict[tuple[int, ...], tuple[float, int]] = {}
    evaluations = 0

    def evaluate(batch, extra=()) -> list[float]:
        """Values of the ``extra`` location sets, then of each action tuple.

        All are scored in one evaluator call. A candidate's short path and,
        when no tail from the same final state has been scored yet, its
        tail are two of the call's sets; later candidates reuse the first
        tail scored at a state, and a repeated tuple reuses its value.
        """
        nonlocal evaluations
        sets = list(extra)
        fresh = {}  # new action tuple -> (index of its short set, tail key, steps)
        tail_sets = {}  # tail key -> index of the tail set scored here
        for actions in batch:
            if actions in value_memo or actions in fresh:
                continue
            short_locs, final, bounds = sample_locations(
                start, actions, context.motion, context.sensor_spacing
            )
            key, tail_steps = None, 0
            if config.use_terminal_reward:
                tail_steps = _tail_credit(len(actions), bounds, context)
                if tail_steps:
                    key = _quantize(final)
            fresh[actions] = (len(sets), key, tail_steps)
            sets.append(short_locs)
            if key is not None and key not in tail_memo and key not in tail_sets:
                tail_sets[key] = len(sets)
                sets.append(_tail_path(final, tail_steps, context))
        values = evaluator.marginal(*sets) if sets else []
        for key, i in tail_sets.items():
            tail_memo[key] = values[i]
        for actions, (i, key, tail_steps) in fresh.items():
            value = values[i]
            if key is not None:
                value += tail_memo[key]
            value_memo[actions] = (value, tail_steps)
        evaluations += len(fresh)
        return values[:len(extra)] + [value_memo[actions][0] for actions in batch]

    # Evaluate the sweep policy's own prefix first, so the returned plan
    # never falls below the policy the terminal reward extrapolates: the
    # anytime argmax then dominates it by construction.
    seed_actions = lawnmower_path(start, horizon, context.area, context.motion).actions
    n_actions = len(ACTION_SET)
    root = _Node(rng.permutation(n_actions).tolist())
    # The first iterations, one per root action, read no value, so they
    # are walked up front and scored with the seed and the naive value
    # in one call, then recorded in the order they were walked.
    walks = [
        _descend(root, horizon, 0.0, rng)
        for _ in range(min(config.mcts_iterations, n_actions))
    ]
    values = evaluate([seed_actions] + [actions for actions, _ in walks], naive_sets)
    naive_value = values.pop(0) if naive_sets else 0.0
    best_actions = seed_actions
    best_value = values[0]
    # UCB exploration is scaled to the spread of values seen so far, not
    # their magnitude: with a terminal reward every candidate carries the
    # full-mission value, and a magnitude-based constant would drown the
    # differences that actually rank candidates.
    value_lo = value_hi = best_value

    def record(actions, visited, value):
        nonlocal best_actions, best_value, value_lo, value_hi
        value_lo = min(value_lo, value)
        value_hi = max(value_hi, value)
        if value > best_value:
            best_value = value
            best_actions = actions
        for n in visited:
            n.visits += 1
            n.total += value

    for (actions, visited), value in zip(walks, values[1:]):
        record(actions, visited, value)
    for _ in range(len(walks), config.mcts_iterations):
        actions, visited = _descend(root, horizon, value_hi - value_lo, rng)
        record(actions, visited, evaluate([actions])[0])

    jbar = best_value
    fell_back = False
    if config.use_terminal_reward:
        # Re-score the winner exactly (one joint marginal of the short
        # path and its tail, the same form the naive value uses). The
        # additive split above is only a search heuristic; near the
        # critical level it can undervalue a plan, so the final
        # comparison against the sweep policy must not rely on it.
        tail_steps = value_memo[best_actions][1]
        locs = plan_locations(start, best_actions, tail_steps, context)
        jbar = evaluator.marginal(locs)[0]
        evaluations += 1
        if jbar + BOUND_TOLERANCE < naive_value:
            # The search lost to the policy it extrapolates: keep that
            # policy's own prefix, whose exact value is the naive value.
            best_actions = seed_actions
            jbar = naive_value
            fell_back = True
    best_path = rollout(start, best_actions, context.motion)
    return PlanResult(best_path, jbar, naive_value, fell_back, evaluations)
