"""Planner tests: marginal-objective algebra against a dense oracle,
the plan-to-locations rule, and anytime/determinism properties of the
search."""

import math
import sys
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from isobath import planner
from isobath.environment import OperationalArea, eval_grid
from isobath.gp import (
    DataSet, KernelSpec, Sample, admissible_locations, admissible_sets,
)
from isobath.motion import (
    ACTION_SET,
    STRAIGHT,
    AgentState,
    MotionParams,
    lawnmower_path,
    rollout,
    sample_locations,
)
from isobath.planner import (
    BOUND_TOLERANCE,
    EpisodeEvaluator,
    PlanConfig,
    PlanContext,
    PlanResult,
    _Node,
    _tail_credit,
    plan_episode,
    plan_locations,
)
from isobath.risk import LossParams, expected_bayes_risk_closed_batch
from reference import vectorized_sample_locations

AREA = OperationalArea((0.0, 0.0), (300.0, 400.0))
KERNEL = KernelSpec(length_scale=40.0, signal_variance=25.0, noise_std=0.5)
LOSS = LossParams(15.0, 10.0, 10.0)
MOTION = MotionParams(15.0, math.pi / 2, 1.5)
PRIOR = 15.0
SPACING = 20.0


def make_context(rng, n_data=12, n_base=0, remaining=12, resolution=50.0):
    data = DataSet(min_spacing=SPACING)
    while len(data) < n_data:
        loc = (rng.uniform(0, 300), rng.uniform(0, 400))
        data.insert(Sample(loc, rng.normal(15.0, 3.0)))
    base = rng.uniform((0, 0), (300, 400), size=(n_base, 2)) if n_base else np.empty((0, 2))
    return PlanContext(
        kernel=KERNEL,
        prior_mean=PRIOR,
        data=data,
        loss=LOSS,
        eval_points=eval_grid(AREA, resolution),
        motion=MOTION,
        area=AREA,
        remaining_steps=remaining,
        preceding_planned=base,
    )


def dense_variance(kernel, sample_locs, query):
    """Posterior variance at ``query`` by one dense solve (independent of
    the package's factored update pipeline)."""
    if sample_locs.shape[0] == 0:
        return np.full(query.shape[0], kernel.signal_variance)
    gram = kernel(sample_locs, sample_locs) + kernel.noise_std**2 * np.eye(
        sample_locs.shape[0]
    )
    k_sq = kernel(sample_locs, query)
    return kernel.signal_variance - np.einsum(
        "ij,ij->j", k_sq, np.linalg.solve(gram, k_sq)
    )


def dense_mean(kernel, data, prior_mean, query):
    if len(data) == 0:
        return np.full(query.shape[0], prior_mean)
    locs = data.locations
    gram = kernel(locs, locs) + kernel.noise_std**2 * np.eye(len(data))
    alpha = np.linalg.solve(gram, data.values - prior_mean)
    return prior_mean + kernel(locs, query).T @ alpha


def dense_marginal(ctx, locations):
    """Literal marginal expected benefit: two dense conditionings and a
    closed-form risk difference, written independently of the planner."""
    kernel, data = ctx.kernel, ctx.data
    s_locs = data.locations
    base = admissible_locations(
        ctx.preceding_planned, data.min_spacing, existing=s_locs
    )
    stack = np.vstack([s_locs, base]) if base.shape[0] else s_locs
    added = admissible_locations(locations, data.min_spacing, existing=stack)
    if added.shape[0] == 0:
        return 0.0
    grid = ctx.eval_points
    near = cdist(grid, added).min(axis=1) <= ctx.d_eps
    if not near.any():
        return 0.0
    q = grid[near]
    mu = dense_mean(kernel, data, ctx.prior_mean, q)
    var_s = dense_variance(kernel, s_locs, q)
    var_b = dense_variance(kernel, stack, q)
    var_f = dense_variance(kernel, np.vstack([stack, added]), q)
    e_base = expected_bayes_risk_closed_batch(
        mu, np.maximum(var_s - var_b, 0.0), np.maximum(var_b, 0.0), ctx.loss
    )
    e_full = expected_bayes_risk_closed_batch(
        mu, np.maximum(var_s - var_f, 0.0), np.maximum(var_f, 0.0), ctx.loss
    )
    return float(np.sum(e_base - e_full))


class TestMarginalObjective:
    @pytest.mark.parametrize("n_data,n_base", [(0, 0), (12, 0), (0, 5), (12, 6), (25, 3)])
    def test_matches_dense_oracle(self, n_data, n_base):
        # Dense coverage drives residual variance toward zero, where the
        # risk depends on sqrt(variance) and any solve ordering amplifies
        # rounding; the sparse cases pin the algebra tightly and the
        # dense one gets a conditioning-aware tolerance.
        rel = 1e-8 if n_data <= 12 else 3e-5
        rng = np.random.default_rng(100 + n_data + 7 * n_base)
        for _ in range(4):
            ctx = make_context(rng, n_data=n_data, n_base=n_base)
            locs = rng.uniform((0, 0), (300, 400), size=(8, 2))
            got = EpisodeEvaluator(ctx).marginal(locs)[0]
            want = dense_marginal(ctx, locs)
            assert got == pytest.approx(want, rel=rel, abs=1e-9)

    def test_empty_locations_zero(self):
        ctx = make_context(np.random.default_rng(0))
        assert EpisodeEvaluator(ctx).marginal(np.empty((0, 2))) == [0.0]

    def test_revisiting_known_ground_earns_nothing(self):
        ctx = make_context(np.random.default_rng(1))
        assert EpisodeEvaluator(ctx).marginal(ctx.data.locations.copy()) == [0.0]

    def test_far_from_grid_earns_nothing(self):
        # Locations farther than d_eps from every evaluation point add
        # no credited benefit.
        ctx = make_context(np.random.default_rng(2), n_data=0)
        far = np.array([[5000.0, 5000.0], [6000.0, 6000.0]])
        assert EpisodeEvaluator(ctx).marginal(far) == [0.0]

    def test_marginal_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            ctx = make_context(rng, n_data=int(rng.integers(0, 20)),
                               n_base=int(rng.integers(0, 8)))
            locs = rng.uniform((0, 0), (300, 400), size=(10, 2))
            assert EpisodeEvaluator(ctx).marginal(locs)[0] >= -1e-9

    @pytest.mark.parametrize("n_data,n_base", [(0, 0), (12, 0), (12, 6)])
    def test_several_sets_score_as_separate_calls(self, n_data, n_base):
        rng = np.random.default_rng(20 + n_data + n_base)
        ctx = make_context(rng, n_data=n_data, n_base=n_base)
        ev = EpisodeEvaluator(ctx)
        start = AgentState(0.3, 80.0, 60.0)
        short = vectorized_sample_locations(
            rollout(start, [5, 3], MOTION), 5.0
        )
        sweep = lawnmower_path(start, 12, AREA, MOTION)
        tail = vectorized_sample_locations(sweep, 5.0)[1:]
        sets = [
            short,
            np.empty((0, 2)),
            ctx.data.locations.copy() if n_data else ev.base.copy(),
            np.array([[5000.0, 5000.0], [6000.0, 6000.0]]),
            tail,
            rng.uniform((0, 0), (300, 400), size=(1, 2)),
            # One evaluation point within d_eps: a one-element batch.
            np.array([[-119.0, -1.0]]),
            short,
        ]
        got = ev.marginal(*sets)
        want = [ev.marginal(locs)[0] for locs in sets]
        assert got == want
        assert got[1] == got[2] == got[3] == 0.0
        assert got[0] == got[-1] > 0.0
        assert ev.marginal() == []

    def test_evaluator_admissible_respects_data_and_base(self):
        rng = np.random.default_rng(4)
        ctx = make_context(rng, n_data=10, n_base=5)
        ev = EpisodeEvaluator(ctx)
        cand = rng.uniform((0, 0), (300, 400), size=(30, 2))
        # ``marginal`` thins its sets against ``existing``: data, then base.
        guarded = np.vstack([ctx.data.locations, ev.base])
        assert np.array_equal(ev.existing, guarded)
        pts, counts = admissible_sets(
            [cand, cand[::-1]], ctx.data.min_spacing, ev.existing
        )
        for kept in np.split(pts, counts[:1]):
            if kept.shape[0]:
                assert cdist(kept, guarded).min() >= ctx.data.min_spacing
            if kept.shape[0] > 1:
                d = cdist(kept, kept)
                np.fill_diagonal(d, np.inf)
                assert d.min() >= ctx.data.min_spacing


def oracle_plan_locations(start, action_indices, tail_steps, spacing):
    """The oracle's samples of the rolled-out short path, then those of
    the sweep from its final state, that state's position left out."""
    short = rollout(start, action_indices, MOTION)
    locs = vectorized_sample_locations(short, spacing)
    if tail_steps <= 0:
        return locs
    tail = lawnmower_path(short.states[-1], tail_steps, AREA, MOTION)
    return np.vstack([locs, vectorized_sample_locations(tail, spacing)[1:]])


def credited(start, action_indices, context):
    """``_tail_credit`` of a short path, given the walker's box."""
    _, _, bounds = sample_locations(start, action_indices, MOTION, context.sensor_spacing)
    return _tail_credit(len(action_indices), bounds, context)


# Starts up to 200 m outside the 300 x 400 m area on every side.
STARTS = st.builds(
    AgentState,
    st.floats(-math.pi, math.pi),
    st.floats(-200.0, 500.0),
    st.floats(-200.0, 600.0),
)
SPACINGS = st.sampled_from([1.0, 3.7, 5.0, 50.0, 15.0 * math.pi / 2.0])
ACTION_INDICES = st.lists(st.integers(0, len(ACTION_SET) - 1), max_size=4)


class TestPlanLocations:
    @pytest.mark.parametrize("steps", [1, 7, 30])
    def test_zero_action_path_is_the_bare_sweep(self, steps):
        # The naive value scores a zero-action plan plus its tail; that
        # must be exactly the sweep's own locations, start included once.
        start = AgentState(0.4, 120.0, 35.0)
        ctx = make_context(np.random.default_rng(0), n_data=0)
        got = plan_locations(start, (), steps, ctx)
        sweep = lawnmower_path(start, steps, AREA, MOTION)
        want = vectorized_sample_locations(sweep, 5.0)
        assert np.array_equal(got, want)

    def test_no_tail_steps_is_the_path_alone(self):
        start = AgentState(0.0, 100.0, 50.0)
        ctx = make_context(np.random.default_rng(0), n_data=0)
        got = plan_locations(start, (5, 2), 0, ctx)
        short = rollout(start, [5, 2], MOTION)
        assert np.array_equal(got, vectorized_sample_locations(short, 5.0))

    @given(STARTS, ACTION_INDICES, st.integers(0, 120), SPACINGS)
    @settings(max_examples=150, deadline=None)
    def test_equals_the_oracle_of_rollout_and_sweep(self, start, indices, tail_steps,
                                                    spacing):
        ctx = replace(make_context(np.random.default_rng(0), n_data=0),
                      sensor_spacing=spacing)
        got = plan_locations(start, tuple(indices), tail_steps, ctx)
        want = oracle_plan_locations(start, indices, tail_steps, spacing)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


class TestAugmentedReward:
    def test_equals_reward_of_concatenated_locations(self):
        rng = np.random.default_rng(5)
        ctx = make_context(rng, n_data=8, remaining=15)
        start = AgentState(0.3, 80.0, 60.0)
        # Straight, +30 and -10 degrees.
        indices = (5, 9, 3)
        assert credited(start, indices, ctx) == 12
        locs = oracle_plan_locations(start, indices, 12, ctx.sensor_spacing)
        assert np.array_equal(plan_locations(start, indices, 12, ctx), locs)

    def test_no_remaining_length_reduces_to_plain_reward(self):
        rng = np.random.default_rng(6)
        ctx = make_context(rng, n_data=8, remaining=3)
        start = AgentState(0.0, 100.0, 50.0)
        # Straight, straight, +20 degrees: the mission ends with them.
        indices = (5, 5, 8)
        assert credited(start, indices, ctx) == 0
        plain = oracle_plan_locations(start, indices, 0, ctx.sensor_spacing)
        assert np.array_equal(plan_locations(start, indices, 0, ctx), plain)


class TestBoundaryContainment:
    """A short path leaving the area (past the sweep's own turn-diameter
    apron) must not be credited for a completion the mission would only
    reach by driving out of the survey field."""

    def test_exiting_short_path_forfeits_completion_credit(self):
        rng = np.random.default_rng(21)
        ctx = make_context(rng, n_data=8, remaining=15)
        # North boundary at 300, apron 2r = 30: straight steps cover
        # r*theta_max = 23.6 m each, so three from 290 reach 360.7 > 330
        # and the path is out of bounds.
        start = AgentState(math.pi / 2, 290.0, 200.0)
        assert credited(start, (5, 5, 5), ctx) == 0
        bare = oracle_plan_locations(start, (5, 5, 5), 0, ctx.sensor_spacing)
        assert np.array_equal(plan_locations(start, (5, 5, 5), 0, ctx), bare)

    def test_apron_excursion_keeps_completion_credit(self):
        rng = np.random.default_rng(22)
        ctx = make_context(rng, n_data=8, remaining=15)
        # One straight step from 290 reaches 313.6 <= 330: still inside
        # the apron, so the completion credit applies and is worth
        # something.
        start = AgentState(math.pi / 2, 290.0, 200.0)
        assert credited(start, (5,), ctx) == 14
        short_locs = oracle_plan_locations(start, (5,), 0, ctx.sensor_spacing)
        locs = oracle_plan_locations(start, (5,), 14, ctx.sensor_spacing)
        assert np.array_equal(plan_locations(start, (5,), 14, ctx), locs)
        completed, bare = EpisodeEvaluator(ctx).marginal(locs, short_locs)
        assert completed > bare

    @given(
        st.one_of(
            # From the area's edges outward to just past its apron, where
            # both verdicts sit close together ...
            st.builds(AgentState, st.floats(-math.pi, math.pi),
                      st.floats(-60.0, 360.0), st.floats(-60.0, 460.0)),
            # ... and anywhere up to 200 m outside the area.
            STARTS,
        ),
        ACTION_INDICES,
        st.integers(0, 120),
        SPACINGS,
    )
    @settings(max_examples=200, deadline=None)
    def test_walk_bounds_decide_like_the_sampled_path(self, start, indices,
                                                      tail_steps, spacing):
        # The rule's steps come from the walker's box; the oracle decides
        # from the sampled path's every location. ``remaining_steps`` may
        # fall short of the actions, which must earn nothing; a context
        # holds at least one step.
        remaining = max(len(indices) + tail_steps - 2, 1)
        ctx = replace(make_context(np.random.default_rng(25), n_data=0),
                      sensor_spacing=spacing, remaining_steps=remaining)
        locs = oracle_plan_locations(start, indices, 0, spacing)
        apron = 2.0 * MOTION.turn_radius
        lo = np.asarray(AREA.min_corner) - apron
        hi = np.asarray(AREA.max_corner) + apron
        inside = bool(np.all(locs >= lo) and np.all(locs <= hi))
        want = remaining - len(indices) if inside and remaining > len(indices) else 0
        assert credited(start, indices, ctx) == want

    def test_search_turns_back_at_the_boundary(self):
        ctx = make_context(np.random.default_rng(23), n_data=8, remaining=12)
        # Heading straight out of the area: in-bounds turns keep their
        # completion credit, so the chosen plan must stay in the apron.
        start = AgentState(math.pi / 2, 295.0, 200.0)
        result = plan_episode(start, ctx, plan_cfg(), np.random.default_rng(24))
        locs = vectorized_sample_locations(result.path, ctx.sensor_spacing)
        assert locs[:, 0].max() <= 300.0 + 2 * MOTION.turn_radius + 1e-9
        assert result.value >= result.naive_value - 1e-9


def plan_cfg(**kw):
    base = dict(horizon=3, use_terminal_reward=True, mcts_iterations=30)
    base.update(kw)
    return PlanConfig(**base)


class TestPlanEpisode:
    def test_deterministic_for_fixed_rng(self):
        ctx = make_context(np.random.default_rng(7), remaining=12)
        start = AgentState(0.0, 150.0, 30.0)
        a = plan_episode(start, ctx, plan_cfg(), np.random.default_rng(11))
        b = plan_episode(start, ctx, plan_cfg(), np.random.default_rng(11))
        assert a.path.actions == b.path.actions
        assert a.value == b.value
        assert a.naive_value == b.naive_value
        assert a.evaluations == b.evaluations

    def test_plan_length_clamped_to_remaining(self):
        ctx = make_context(np.random.default_rng(8), remaining=2)
        path = plan_episode(AgentState(0.0, 150.0, 30.0), ctx,
                            plan_cfg(horizon=10), np.random.default_rng(0)).path
        assert len(path) == 2

    def test_value_never_below_naive_with_terminal_reward(self):
        rng = np.random.default_rng(9)
        for k in range(8):
            ctx = make_context(rng, n_data=int(rng.integers(0, 15)),
                               remaining=int(rng.integers(4, 20)))
            start = AgentState(rng.uniform(-math.pi, math.pi),
                               rng.uniform(30, 270), rng.uniform(30, 370))
            res = plan_episode(start, ctx, plan_cfg(mcts_iterations=12),
                               np.random.default_rng(k))
            assert res.value >= res.naive_value - 1e-9

    def test_naive_value_is_sweep_completion_reward(self):
        ctx = make_context(np.random.default_rng(10), remaining=10)
        start = AgentState(0.0, 150.0, 30.0)
        res = plan_episode(start, ctx, plan_cfg(), np.random.default_rng(1))
        sweep = lawnmower_path(start, 10, AREA, MOTION)
        want = EpisodeEvaluator(ctx).marginal(
            vectorized_sample_locations(sweep, ctx.sensor_spacing)
        )[0]
        assert res.naive_value == pytest.approx(want, rel=1e-12)

    def test_plain_variant_naive_is_zero(self):
        ctx = make_context(np.random.default_rng(11), remaining=10)
        res = plan_episode(AgentState(0.0, 150.0, 30.0), ctx,
                           plan_cfg(use_terminal_reward=False),
                           np.random.default_rng(1))
        assert res.naive_value == 0.0

    def test_plain_variant_anytime_monotone_in_budget(self):
        # The same rng seed makes budgets share an iteration prefix, so
        # the best-so-far value can only grow with more iterations.
        ctx = make_context(np.random.default_rng(12), remaining=12)
        start = AgentState(0.0, 150.0, 30.0)
        values = [
            plan_episode(start, ctx,
                         plan_cfg(use_terminal_reward=False, horizon=5,
                                  mcts_iterations=budget),
                         np.random.default_rng(3)).value
            for budget in (1, 4, 16, 64)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_horizon_one_exhaustive_matches_brute_force(self):
        rng = np.random.default_rng(13)
        for k in range(6):
            ctx = make_context(rng, n_data=int(rng.integers(0, 18)), remaining=1)
            start = AgentState(rng.uniform(-math.pi, math.pi),
                               rng.uniform(40, 260), rng.uniform(40, 360))
            ev = EpisodeEvaluator(ctx)
            brute = ev.marginal(*(
                vectorized_sample_locations(rollout(start, [a], MOTION),
                                            ctx.sensor_spacing)
                for a in range(len(ACTION_SET))
            ))
            res = plan_episode(start, ctx,
                               plan_cfg(use_terminal_reward=False, horizon=1,
                                        mcts_iterations=40),
                               np.random.default_rng(k))
            assert res.value == pytest.approx(max(brute), rel=1e-12, abs=1e-12)
            assert brute[res.path.actions[0]] == pytest.approx(max(brute), rel=1e-12, abs=1e-12)

    def test_a_context_with_no_steps_left_is_rejected(self):
        # A vehicle with nothing left is done before it would plan.
        for remaining in (0, -1):
            with pytest.raises(ValueError, match="remaining_steps"):
                make_context(np.random.default_rng(14), remaining=remaining)


def one_at_a_time_plan(start, context, config, rng, warm_up=None):
    """``plan_episode`` as first written: the naive value, the seed and
    every iteration's candidate each scored in its own evaluator call, in
    iteration order. Kept as the reference the batched warm-up call must
    reproduce exactly.

    ``warm_up``, when given, is a dict that counts what happened to the
    seed and the root's first expansions: ``"memo_hit"`` (a tuple scored
    before) and ``"ineligible"`` (a short path whose tail is not granted).
    """
    horizon = min(config.horizon, context.remaining_steps)
    evaluator = EpisodeEvaluator(context)
    n_actions = len(ACTION_SET)
    spacing = context.sensor_spacing
    if config.use_terminal_reward:
        sweep = lawnmower_path(start, context.remaining_steps, context.area,
                               context.motion)
        naive_value = evaluator.marginal(vectorized_sample_locations(sweep, spacing))[0]
    else:
        naive_value = 0.0

    value_memo = {}
    evaluations = 0
    counts = warm_up if warm_up is not None else {}
    n_warm = 1 + min(config.mcts_iterations, n_actions)
    calls = 0

    def evaluate(actions):
        nonlocal evaluations, calls
        calls += 1
        in_warm_up = calls <= n_warm
        if actions in value_memo:
            if in_warm_up:
                counts["memo_hit"] = counts.get("memo_hit", 0) + 1
            return value_memo[actions]
        short = rollout(start, actions, context.motion)
        short_locs = vectorized_sample_locations(short, spacing)
        sets = [short_locs]
        if config.use_terminal_reward:
            tail_steps = max(context.remaining_steps - len(short), 0)
            box = (*short_locs.min(axis=0), *short_locs.max(axis=0))
            if _tail_credit(len(short), box, context):
                tail = lawnmower_path(short.states[-1], tail_steps, context.area,
                                      context.motion)
                sets.append(vectorized_sample_locations(tail, spacing)[1:])
            elif tail_steps > 0 and in_warm_up:
                counts["ineligible"] = counts.get("ineligible", 0) + 1
        values = evaluator.marginal(*sets)
        value = values[0]
        if len(values) > 1:
            value += values[1]
        evaluations += 1
        value_memo[actions] = value
        return value

    seed_actions = lawnmower_path(start, horizon, context.area, context.motion).actions
    best_actions = seed_actions
    best_value = evaluate(seed_actions)
    root = _Node(tuple(rng.permutation(n_actions)))
    value_lo = value_hi = best_value

    for _ in range(config.mcts_iterations):
        node = root
        actions = []
        visited = [root]
        while len(actions) < horizon and node.expanded == n_actions:
            c_eff = max(value_hi - value_lo, 1e-9) / math.sqrt(2.0)
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
        if len(actions) < horizon and node.expanded < n_actions:
            idx = node.action_order[node.expanded]
            node.expanded += 1
            child = _Node(tuple(rng.permutation(n_actions)))
            node.children[idx] = child
            node = child
            actions.append(idx)
            visited.append(node)
        while len(actions) < horizon:
            if rng.random() < 0.5:
                actions.append(STRAIGHT)
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
    fell_back = False
    if config.use_terminal_reward:
        short = rollout(start, best_actions, context.motion)
        locs = vectorized_sample_locations(short, spacing)
        box = (*locs.min(axis=0), *locs.max(axis=0))
        tail_steps = _tail_credit(len(short), box, context)
        if tail_steps:
            tail = lawnmower_path(short.states[-1], tail_steps, context.area,
                                  context.motion)
            locs = np.vstack([locs, vectorized_sample_locations(tail, spacing)[1:]])
        jbar = evaluator.marginal(locs)[0]
        evaluations += 1
        if jbar + BOUND_TOLERANCE < naive_value:
            best_actions = seed_actions
            jbar = naive_value
            fell_back = True
    best_path = rollout(start, best_actions, context.motion)
    return PlanResult(best_path, jbar, naive_value, fell_back, evaluations)


# Heading straight out through the north edge: three straight steps
# leave the apron, so those short paths are denied their tail.
EXIT_NORTH = (math.pi / 2, 290.0, 200.0)


class TestBatchedWarmUp:
    """The search scores its naive value, its seed and the root's first
    expansions in one evaluator call, then replays them in iteration
    order; it must return exactly what the one-at-a-time search does."""

    @staticmethod
    def both(start, horizon, iterations, terminal, remaining, ctx_seed, rng_seed,
             warm_up=None):
        ctx = make_context(np.random.default_rng(ctx_seed),
                           n_data=int(ctx_seed % 13), n_base=int(ctx_seed % 4),
                           remaining=remaining)
        cfg = PlanConfig(horizon=horizon, use_terminal_reward=terminal,
                         mcts_iterations=iterations)
        state = AgentState(*start)
        marginal = EpisodeEvaluator.marginal
        set_counts = []

        def counted(self, *location_sets):
            set_counts.append(len(location_sets))
            return marginal(self, *location_sets)

        with mock.patch.object(EpisodeEvaluator, "marginal", counted):
            got = plan_episode(state, ctx, cfg, np.random.default_rng(rng_seed))
        want = one_at_a_time_plan(state, ctx, cfg, np.random.default_rng(rng_seed),
                                  warm_up)
        # A candidate scored before is answered from the memo, not by an
        # evaluator call with nothing to score.
        assert 0 not in set_counts
        return got, want

    @staticmethod
    def assert_same(got, want):
        assert got.path == want.path
        assert got.value == want.value
        assert got.naive_value == want.naive_value
        assert got.evaluations == want.evaluations
        assert got.fell_back == want.fell_back

    @given(
        start=st.one_of(
            st.just(EXIT_NORTH),
            st.tuples(st.floats(-math.pi, math.pi), st.floats(0.0, 300.0),
                      st.floats(0.0, 400.0)),
        ),
        horizon=st.sampled_from([1, 3, 10]),
        iterations=st.sampled_from([1, 6, 11, 48]),
        terminal=st.booleans(),
        remaining=st.integers(1, 14),
        ctx_seed=st.integers(0, 1000),
        rng_seed=st.integers(0, 1000),
    )
    @example(start=(0.0, 150.0, 30.0), horizon=1, iterations=11, terminal=True,
             remaining=12, ctx_seed=7, rng_seed=11)
    @example(start=EXIT_NORTH, horizon=3, iterations=6, terminal=True,
             remaining=12, ctx_seed=22, rng_seed=5)
    @example(start=(1.0, 200.0, 300.0), horizon=10, iterations=48, terminal=False,
             remaining=14, ctx_seed=3, rng_seed=9)
    # The search falls back to the sweep prefix.
    @example(start=(0.0, 150.0, 30.0), horizon=3, iterations=1, terminal=True,
             remaining=12, ctx_seed=8, rng_seed=1)
    @settings(max_examples=50, deadline=None)
    def test_matches_one_at_a_time_search(self, start, horizon, iterations,
                                          terminal, remaining, ctx_seed, rng_seed):
        self.assert_same(*self.both(start, horizon, iterations, terminal, remaining,
                                    ctx_seed, rng_seed))

    @pytest.mark.parametrize("what,start,horizon", [
        # At horizon 1 the sweep's first action is one of the root's.
        ("memo_hit", (0.0, 150.0, 30.0), 1),
        ("ineligible", EXIT_NORTH, 3),
    ])
    def test_warm_up_reuses_and_denies_like_the_reference(self, what, start, horizon):
        warm_up = {}
        got, want = self.both(start, horizon, 48, True, 12, 7, 11, warm_up)
        assert warm_up.get(what, 0) > 0
        self.assert_same(got, want)


class TestOwnTail:
    """Every candidate is valued as its own short path plus its own tail,
    however close its final state lies to another candidate's."""

    @staticmethod
    def bin_of(state):
        """The 1 m / 5-degree bin of a final state."""
        return (round(state.north), round(state.east),
                round(state.heading / math.radians(5.0)))

    # Found by scanning make_context: two fresh candidates of this search
    # end in one bin, and their own tails are worth different amounts.
    def test_candidates_ending_in_one_bin_each_score_their_own_tail(self):
        ctx_seed, start, rng_seed = 55, (1.0, 200.0, 300.0), 2
        ctx = make_context(np.random.default_rng(ctx_seed), n_data=ctx_seed % 13,
                           n_base=ctx_seed % 4, remaining=12)
        state = AgentState(*start)
        walks, tails = [], []
        descend, tail_path = planner._descend, planner._tail_path

        def walked(*args):
            walks.append(descend(*args))
            return walks[-1]

        def tail(final, steps, context):
            if sys._getframe(1).f_code.co_name == "evaluate":
                tails.append(final)
            return tail_path(final, steps, context)

        with mock.patch.object(planner, "_descend", walked), \
                mock.patch.object(planner, "_tail_path", tail):
            plan_episode(state, ctx, PlanConfig(horizon=3, mcts_iterations=48),
                         np.random.default_rng(rng_seed))
        bins = [self.bin_of(final) for final in tails]
        assert len(set(bins)) < len(bins)
        # The root's total backs up every iteration's value in order.
        evaluator, want = EpisodeEvaluator(ctx), 0.0
        for actions, _ in walks:
            steps = credited(state, actions, ctx)
            locs = oracle_plan_locations(state, actions, 0, ctx.sensor_spacing)
            value = evaluator.marginal(locs)[0]
            if steps:
                tail_locs = oracle_plan_locations(state, actions, steps,
                                                  ctx.sensor_spacing)[len(locs):]
                value += evaluator.marginal(tail_locs)[0]
            want += value
        assert walks[0][1][0].total == want


class TestFallBack:
    """``fell_back`` marks exactly the plans whose exact rescore lost to
    the naive value. The search may also pick the sweep prefix on its own;
    that plan is worth the naive value too, but did not fall back."""

    START = AgentState(0.0, 150.0, 30.0)

    def plan(self, ctx_seed, rng_seed, iterations):
        ctx = make_context(np.random.default_rng(ctx_seed), n_data=ctx_seed % 13,
                           n_base=ctx_seed % 4, remaining=12)
        res = plan_episode(self.START, ctx, plan_cfg(mcts_iterations=iterations),
                           np.random.default_rng(rng_seed))
        return res, lawnmower_path(self.START, 3, AREA, MOTION)

    # Found by scanning seeds: a candidate beats the seed on its additive
    # value, after one iteration and after a full search.
    @pytest.mark.parametrize("ctx_seed,rng_seed,iterations", [
        (8, 1, 1),
        (75, 2, 48),
    ])
    def test_lost_rescore_falls_back_to_the_sweep_prefix(
        self, ctx_seed, rng_seed, iterations
    ):
        res, sweep = self.plan(ctx_seed, rng_seed, iterations)
        assert res.fell_back
        assert res.path == sweep
        assert res.value == res.naive_value

    def test_search_may_choose_the_sweep_prefix_itself(self):
        res, sweep = self.plan(35, 1, 11)
        assert res.path == sweep
        assert res.value == res.naive_value
        assert not res.fell_back


class TestConfigValidation:
    @pytest.mark.parametrize("kw", [
        {"horizon": 0},
        {"mcts_iterations": 0},
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            plan_cfg(**kw)
