"""Planner tests: marginal-objective algebra against a dense oracle,
the plan-to-locations rule, and anytime/determinism properties of the
search."""

import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from isobath.environment import OperationalArea, eval_grid
from isobath.gp import DataSet, KernelSpec, Sample, admissible_locations
from isobath.motion import (
    ACTION_SET,
    AgentState,
    MotionParams,
    Path,
    lawnmower_path,
    rollout,
    sample_locations,
)
from isobath.planner import (
    EpisodeEvaluator,
    PlanConfig,
    PlanContext,
    augmented_reward,
    bound_condition_check,
    path_reward,
    plan_episode,
    plan_locations,
)
from isobath.risk import LossParams, bayes_risk_batch, expected_bayes_risk_closed_batch

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
            got = path_reward(locs, ctx)
            want = dense_marginal(ctx, locs)
            assert got == pytest.approx(want, rel=rel, abs=1e-9)

    def test_empty_locations_zero(self):
        ctx = make_context(np.random.default_rng(0))
        assert path_reward(np.empty((0, 2)), ctx) == 0.0

    def test_revisiting_known_ground_earns_nothing(self):
        ctx = make_context(np.random.default_rng(1))
        assert path_reward(ctx.data.locations.copy(), ctx) == 0.0

    def test_far_from_grid_earns_nothing(self):
        # Locations farther than d_eps from every evaluation point add
        # no credited benefit.
        ctx = make_context(np.random.default_rng(2), n_data=0)
        far = np.array([[5000.0, 5000.0], [6000.0, 6000.0]])
        assert path_reward(far, ctx) == 0.0

    def test_marginal_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            ctx = make_context(rng, n_data=int(rng.integers(0, 20)),
                               n_base=int(rng.integers(0, 8)))
            locs = rng.uniform((0, 0), (300, 400), size=(10, 2))
            assert path_reward(locs, ctx) >= -1e-9

    @pytest.mark.parametrize("n_data,n_base", [(0, 0), (12, 0), (12, 6)])
    def test_several_sets_score_as_separate_calls(self, n_data, n_base):
        rng = np.random.default_rng(20 + n_data + n_base)
        ctx = make_context(rng, n_data=n_data, n_base=n_base)
        ev = EpisodeEvaluator(ctx)
        start = AgentState(0.3, 80.0, 60.0)
        short = sample_locations(rollout(start, [0.0, ACTION_SET[3]], MOTION), 5.0)
        tail = sample_locations(lawnmower_path(start, 12, AREA, MOTION), 5.0)[1:]
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
        kept = ev.admissible(cand)
        guarded = np.vstack([ctx.data.locations, ev.base])
        if kept.shape[0]:
            assert cdist(kept, guarded).min() >= ctx.data.min_spacing
        if kept.shape[0] > 1:
            d = cdist(kept, kept)
            np.fill_diagonal(d, np.inf)
            assert d.min() >= ctx.data.min_spacing


class TestPlanLocations:
    @pytest.mark.parametrize("steps", [1, 7, 30])
    def test_zero_action_path_is_the_bare_sweep(self, steps):
        # The naive value scores a zero-action plan plus its tail; that
        # must be exactly the sweep's own locations, start included once.
        start = AgentState(0.4, 120.0, 35.0)
        got = plan_locations(Path((start,), ()), steps, AREA, MOTION, 5.0)
        want = sample_locations(lawnmower_path(start, steps, AREA, MOTION), 5.0)
        assert np.array_equal(got, want)

    def test_no_tail_steps_is_the_path_alone(self):
        short = rollout(AgentState(0.0, 100.0, 50.0), [0.0, ACTION_SET[2]], MOTION)
        got = plan_locations(short, 0, AREA, MOTION, 5.0)
        assert np.array_equal(got, sample_locations(short, 5.0))


class TestAugmentedReward:
    def test_equals_reward_of_concatenated_locations(self):
        rng = np.random.default_rng(5)
        ctx = make_context(rng, n_data=8, remaining=15)
        start = AgentState(0.3, 80.0, 60.0)
        short = rollout(start, [0.0, math.radians(30), math.radians(-10)], MOTION)
        tail = lawnmower_path(short.final, 12, AREA, MOTION)
        locs = np.vstack([
            sample_locations(short, ctx.sensor_spacing),
            sample_locations(tail, ctx.sensor_spacing)[1:],
        ])
        assert augmented_reward(short, ctx) == pytest.approx(
            path_reward(locs, ctx), rel=1e-12
        )

    def test_no_remaining_length_reduces_to_plain_reward(self):
        rng = np.random.default_rng(6)
        ctx = make_context(rng, n_data=8, remaining=3)
        start = AgentState(0.0, 100.0, 50.0)
        short = rollout(start, [0.0, 0.0, math.radians(20)], MOTION)
        plain = path_reward(sample_locations(short, ctx.sensor_spacing), ctx)
        assert augmented_reward(short, ctx) == pytest.approx(plain, rel=1e-12)


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
        short = rollout(start, [0.0, 0.0, 0.0], MOTION)
        bare = path_reward(sample_locations(short, ctx.sensor_spacing), ctx)
        assert augmented_reward(short, ctx) == pytest.approx(bare, rel=1e-12)

    def test_apron_excursion_keeps_completion_credit(self):
        rng = np.random.default_rng(22)
        ctx = make_context(rng, n_data=8, remaining=15)
        # One straight step from 290 reaches 313.6 <= 330: still inside
        # the apron, so the completion credit applies and is worth
        # something.
        start = AgentState(math.pi / 2, 290.0, 200.0)
        short = rollout(start, [0.0], MOTION)
        short_locs = sample_locations(short, ctx.sensor_spacing)
        tail = lawnmower_path(short.final, 14, AREA, MOTION)
        locs = np.vstack([short_locs, sample_locations(tail, ctx.sensor_spacing)[1:]])
        assert augmented_reward(short, ctx) == pytest.approx(
            path_reward(locs, ctx), rel=1e-12
        )
        assert augmented_reward(short, ctx) > path_reward(short_locs, ctx)

    def test_search_turns_back_at_the_boundary(self):
        ctx = make_context(np.random.default_rng(23), n_data=8, remaining=12)
        # Heading straight out of the area: in-bounds turns keep their
        # completion credit, so the chosen plan must stay in the apron.
        start = AgentState(math.pi / 2, 295.0, 200.0)
        result = plan_episode(start, ctx, plan_cfg(), np.random.default_rng(24))
        locs = sample_locations(result.path, ctx.sensor_spacing)
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
            assert res.bound_ok
            assert res.value >= res.naive_value - 1e-9

    def test_naive_value_is_sweep_completion_reward(self):
        ctx = make_context(np.random.default_rng(10), remaining=10)
        start = AgentState(0.0, 150.0, 30.0)
        res = plan_episode(start, ctx, plan_cfg(), np.random.default_rng(1))
        sweep = lawnmower_path(start, 10, AREA, MOTION)
        want = path_reward(sample_locations(sweep, ctx.sensor_spacing), ctx)
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
                sample_locations(rollout(start, [a], MOTION), ctx.sensor_spacing)
                for a in ACTION_SET
            ))
            res = plan_episode(start, ctx,
                               plan_cfg(use_terminal_reward=False, horizon=1,
                                        mcts_iterations=40),
                               np.random.default_rng(k))
            assert res.value == pytest.approx(max(brute), rel=1e-12, abs=1e-12)
            chosen = ACTION_SET.index(res.path.actions[0])
            assert brute[chosen] == pytest.approx(max(brute), rel=1e-12, abs=1e-12)

    def test_zero_remaining_returns_empty_plan(self):
        ctx = make_context(np.random.default_rng(14), remaining=0)
        res = plan_episode(AgentState(0.0, 150.0, 30.0), ctx, plan_cfg(),
                           np.random.default_rng(0))
        assert len(res.path) == 0
        assert res.value == res.naive_value


class TestBoundCheck:
    def test_tolerates_tiny_negative_slack(self):
        assert bound_condition_check(1.0, 1.0 + 5e-10)
        assert bound_condition_check(2.0, 1.0)
        assert not bound_condition_check(1.0, 1.1)


class TestConfigValidation:
    @pytest.mark.parametrize("kw", [
        {"horizon": 0},
        {"mcts_iterations": 0},
        {"rollout_policy": "spiral"},
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            plan_cfg(**kw)
