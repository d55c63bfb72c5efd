"""Vehicle kinematics, path sampling, and the boustrophedon sweep."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isobath.environment import OperationalArea
from isobath.motion import (
    ACTION_SET,
    STRAIGHT,
    AgentState,
    MotionParams,
    Path,
    _sweep,
    lawnmower_path,
    rollout,
    sample_locations,
    step,
    sweep_locations,
    wrap_heading,
)
from reference import reference_sweep, vectorized_sample_locations

PARAMS = MotionParams(turn_radius=15.0, theta_max=math.pi / 2.0, speed=1.5)
AREA = OperationalArea((0.0, 0.0), (600.0, 1000.0))


def reference_step(state, action, params):
    """Independent pose update: explicit rotation matrix route."""
    r = params.turn_radius
    a = action
    d = r * (params.theta_max + abs(a))
    # Body frame: y forward along current travel direction, x to the right.
    bx = math.copysign(1.0, a) * (r - r * math.cos(abs(a)) + d * math.sin(abs(a)))
    by = r * math.sin(abs(a)) + d * math.cos(abs(a))
    h = state.heading
    rot = np.array([[math.cos(-h), math.sin(-h)], [-math.sin(-h), math.cos(-h)]])
    dn, de = rot.T @ np.array([bx, by])
    return (
        wrap_heading(h + a),
        state.north + dn,
        state.east + de,
    )


class TestWrapHeading:
    @given(st.floats(-50.0, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_lands_in_half_open_interval(self, h):
        w = wrap_heading(h)
        assert -math.pi < w <= math.pi
        # Same direction modulo full turns.
        assert math.isclose(math.cos(w), math.cos(h), abs_tol=1e-9)
        assert math.isclose(math.sin(w), math.sin(h), abs_tol=1e-9)

    @given(st.floats(-math.pi + 1e-12, math.pi))
    @settings(max_examples=100, deadline=None)
    def test_identity_when_already_wrapped(self, h):
        assert wrap_heading(h) == h

    def test_boundary_maps_to_positive_pi(self):
        assert wrap_heading(math.pi) == math.pi
        assert wrap_heading(-math.pi) == math.pi
        assert wrap_heading(3 * math.pi) == math.pi


class TestStep:
    def test_action_set_membership(self):
        assert len(ACTION_SET) == 11
        degs = [round(math.degrees(a), 6) for a in ACTION_SET]
        assert degs == [-90, -30, -20, -10, -5, 0, 5, 10, 20, 30, 90]
        assert ACTION_SET[STRAIGHT] == 0.0
        with pytest.raises(IndexError):
            step(AgentState(0, 0, 0), len(ACTION_SET), PARAMS)

    def test_straight_step_advances_one_run_length(self):
        # theta_max * r forward, no lateral drift, heading unchanged.
        s = step(AgentState(0.0, 100.0, 100.0), STRAIGHT, PARAMS)
        assert s.heading == 0.0
        assert s.north == pytest.approx(100.0)
        assert s.east == pytest.approx(100.0 + 15.0 * math.pi / 2.0)

    @given(
        st.floats(-math.pi + 1e-9, math.pi),
        st.floats(-500.0, 500.0),
        st.floats(-500.0, 500.0),
        st.integers(0, 10),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_rotation_matrix_reference(self, h, n, e, ai):
        state = AgentState(h, n, e)
        got = step(state, ai, PARAMS)
        want_h, want_n, want_e = reference_step(state, ACTION_SET[ai], PARAMS)
        assert got.heading == pytest.approx(want_h, abs=1e-12)
        assert got.north == pytest.approx(want_n, abs=1e-9)
        assert got.east == pytest.approx(want_e, abs=1e-9)

    def test_left_right_symmetry(self):
        start = AgentState(0.3, 0.0, 0.0)
        left = step(start, 1, PARAMS)  # -30 degrees
        right = step(start, 9, PARAMS)  # +30 degrees
        # Mirrored headings about the start heading.
        assert left.heading - 0.3 == pytest.approx(-(right.heading - 0.3))
        # Equal step length either way.
        d_left = math.hypot(left.north, left.east)
        d_right = math.hypot(right.north, right.east)
        assert d_left == pytest.approx(d_right, rel=1e-12)

    def test_step_length_grows_with_turn_angle(self):
        start = AgentState(0.0, 0.0, 0.0)
        lengths = []
        for a in (STRAIGHT, 6, 9, 10):
            s = step(start, a, PARAMS)
            lengths.append(math.hypot(s.north, s.east))
        assert lengths == sorted(lengths)


class TestRollout:
    def test_chains_states(self):
        actions = [STRAIGHT, 10, STRAIGHT]
        path = rollout(AgentState(0.0, 50.0, 50.0), actions, PARAMS)
        assert len(path) == 3
        assert len(path.states) == 4
        for i, a in enumerate(actions):
            assert path.states[i + 1] == step(path.states[i], a, PARAMS)

    def test_path_requires_consistent_lengths(self):
        with pytest.raises(ValueError):
            Path((AgentState(0, 0, 0),), (STRAIGHT,))


# Headings where the sweep's ties and signs of zero sit, plus any heading.
HEADINGS = st.one_of(
    st.sampled_from([0.0, -0.0, math.pi, math.pi / 2, -math.pi / 2, math.pi / 4]),
    st.floats(-math.pi, math.pi),
)
# Starts up to 200 m outside the 600 x 1000 m area on every side.
STARTS = st.builds(
    AgentState, HEADINGS, st.floats(-200.0, 800.0), st.floats(-200.0, 1200.0)
)
SPACINGS = st.sampled_from([1.0, 3.7, 5.0, 50.0, 15.0 * math.pi / 2.0])
ACTIONS = st.lists(st.integers(0, len(ACTION_SET) - 1), max_size=12)


class TestSampleLocations:
    def test_zero_action_path_yields_start(self):
        start = AgentState(0.0, 10.0, 20.0)
        locs, final, bounds = sample_locations(start, [], PARAMS, 5.0)
        assert locs.tolist() == [[10.0, 20.0]]
        assert final == start
        assert bounds == (10.0, 20.0, 10.0, 20.0)

    def test_straight_chord_spacing_and_endpoint(self):
        locs, _, _ = sample_locations(AgentState(0.0, 0.0, 0.0), [STRAIGHT], PARAMS, 5.0)
        # Chord is r*pi/2 = 23.56 m: start, 4 interior points, endpoint.
        chord = 15.0 * math.pi / 2.0
        assert locs.shape == (6, 2)
        assert locs[0].tolist() == [0.0, 0.0]
        np.testing.assert_allclose(locs[-1], [0.0, chord], atol=1e-12)
        gaps = np.diff(locs[:, 1])
        assert np.all(gaps[:-1] == pytest.approx(5.0))
        assert 0 < gaps[-1] <= 5.0

    def test_short_chord_contributes_endpoint_only(self):
        tiny = MotionParams(turn_radius=1.0, theta_max=1.0, speed=1.0)
        locs, _, _ = sample_locations(AgentState(0.0, 0.0, 0.0), [STRAIGHT], tiny, 5.0)
        assert locs.shape == (2, 2)

    @given(st.integers(0, 2**31 - 1), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_each_state_position_appears_once(self, seed, n_actions):
        rng = np.random.default_rng(seed)
        actions = rng.integers(0, len(ACTION_SET), n_actions).tolist()
        start = AgentState(0.5, 100.0, 100.0)
        path = rollout(start, actions, PARAMS)
        locs, _, _ = sample_locations(start, actions, PARAMS, 5.0)
        positions = np.array([(s.north, s.east) for s in path.states])
        for p in positions:
            dists = np.linalg.norm(locs - p, axis=1)
            assert np.sum(dists < 1e-9) == 1
        # Consecutive samples are never farther apart than the spacing
        # plus the worst chord remainder.
        gaps = np.linalg.norm(np.diff(locs, axis=0), axis=1)
        assert gaps.max() <= 5.0 + 1e-9

    @given(
        STARTS,
        ACTIONS,
        # The last spacing is the length of a straight run, so straight
        # chords end on a spacing multiple up to rounding.
        SPACINGS,
        # A 1 m turn radius gives chords shorter than every spacing.
        st.sampled_from([1.0, 15.0]),
    )
    @settings(max_examples=300, deadline=None)
    # On this path, a chord length squared with ``**`` (the C library's
    # pow) differs from numpy's square by one ulp and moves a location.
    @example(
        AgentState(2.3957757130889403, 416.499135630341, -493.7148927698892),
        [4, 3, 9, 2, 6, 3, 3, 2, 9, 5, 10, 1],
        5.0,
        15.0,
    )
    def test_equals_the_vectorized_sampler(self, start, actions, spacing, radius):
        # The oracle samples the built path; the walker never builds it.
        params = MotionParams(turn_radius=radius, theta_max=math.pi / 2.0, speed=1.5)
        path = rollout(start, actions, params)
        locs, _, _ = sample_locations(start, actions, params, spacing)
        want = vectorized_sample_locations(path, spacing)
        assert locs.shape == want.shape
        assert np.array_equal(locs, want)

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValueError):
            sample_locations(AgentState(0.0, 0.0, 0.0), [STRAIGHT], PARAMS, 0.0)


class TestLawnmower:
    def test_outside_excursions_bounded_by_turn_apron(self):
        # Straight runs are confined to the area; margin maneuvers may
        # swing into an apron of one turn diameter around it.
        rng = np.random.default_rng(11)
        apron = 2 * PARAMS.turn_radius
        for _ in range(50):
            start = AgentState(
                rng.uniform(-math.pi, math.pi),
                rng.uniform(0, 600),
                rng.uniform(0, 1000),
            )
            path = lawnmower_path(start, 60, AREA, PARAMS)
            for s in path.states:
                assert -apron - 1e-6 <= s.north <= 600.0 + apron + 1e-6
                assert -apron - 1e-6 <= s.east <= 1000.0 + apron + 1e-6

    def test_aligned_interior_starts_stay_strictly_inside(self):
        for start in [
            AgentState(0.0, 150.0, 30.0),
            AgentState(0.0, 300.0, 30.0),
            AgentState(0.0, 450.0, 30.0),
        ]:
            path = lawnmower_path(start, 150, AREA, PARAMS)
            for s in path.states:
                assert -1e-6 <= s.north <= 600.0 + 1e-6
                assert -1e-6 <= s.east <= 1000.0 + 1e-6

    def test_mostly_straight_runs(self):
        path = lawnmower_path(AgentState(0.0, 150.0, 30.0), 100, AREA, PARAMS)
        straight = sum(1 for a in path.actions if a == STRAIGHT)
        assert straight / len(path.actions) > 0.6

    def test_turns_come_in_consecutive_quarter_turn_pairs(self):
        path = lawnmower_path(AgentState(0.0, 300.0, 30.0), 150, AREA, PARAMS)
        turns = [a for a in path.actions if a != STRAIGHT]
        assert turns, "a 150-step sweep must reach a margin"
        assert all(abs(ACTION_SET[a]) == pytest.approx(math.pi / 2) for a in turns)
        # A margin maneuver is two back-to-back quarter turns of the same
        # sign, reversing the travel direction onto the adjacent track.
        acts = list(path.actions) + [STRAIGHT]  # sentinel simplifies scanning
        i = 0
        while i < len(path.actions):
            if acts[i] != STRAIGHT:
                assert acts[i + 1] == acts[i], "maneuver must pair its turns"
                assert acts[i + 2] == STRAIGHT, "pairs never chain into a third turn"
                i += 2
            else:
                i += 1

    def test_suffix_regeneration_is_exact(self):
        # The policy reads only the current state, so re-planning from any
        # intermediate state must reproduce the remaining path bit for bit.
        path = lawnmower_path(AgentState(0.0, 150.0, 30.0), 80, AREA, PARAMS)
        for k in (1, 17, 40, 79):
            suffix = lawnmower_path(path.states[k], 80 - k, AREA, PARAMS)
            assert suffix.actions == path.actions[k:]
            assert suffix.states == path.states[k:]

    def test_requested_length_honored(self):
        path = lawnmower_path(AgentState(0.0, 150.0, 30.0), 7, AREA, PARAMS)
        assert len(path.actions) == 7
        assert len(path.states) == 8

    def test_track_spacing_matches_turn_pair_geometry(self):
        # A maneuver of two consecutive quarter turns shifts the track by
        # 2r + r(theta_max + pi/2) meters laterally.
        path = lawnmower_path(AgentState(0.0, 300.0, 30.0), 200, AREA, PARAMS)
        # A track is the constant north coordinate held over at least
        # three consecutive straight steps.
        tracks: list[float] = []
        streak = 0
        for action, state in zip(path.actions, path.states[1:]):
            streak = streak + 1 if action == STRAIGHT else 0
            if streak >= 3:
                north = round(state.north, 6)
                if not tracks or tracks[-1] != north:
                    tracks.append(north)
        gaps = np.abs(np.diff(sorted(set(tracks))))
        assert len(gaps), "a 200-step sweep must occupy several tracks"
        want = 2 * 15.0 + 15.0 * (math.pi / 2 + math.pi / 2)
        np.testing.assert_allclose(gaps, want, atol=1e-6)


# Wide, tall, square and offset areas for the sweep against its oracle.
SWEEP_AREAS = {
    "wide": OperationalArea((0.0, 0.0), (600.0, 1000.0)),
    "tall": OperationalArea((0.0, 0.0), (1000.0, 600.0)),
    "square": OperationalArea((0.0, 0.0), (500.0, 500.0)),
    "offset": OperationalArea((-310.0, 245.5), (120.0, 905.0)),
}


@st.composite
def sweep_starts(draw):
    """An area and a start up to 200 m outside it on every side."""
    area = SWEEP_AREAS[draw(st.sampled_from(sorted(SWEEP_AREAS)))]
    (lo_n, lo_e), (hi_n, hi_e) = area.min_corner, area.max_corner
    start = AgentState(
        draw(HEADINGS),
        draw(st.floats(lo_n - 200.0, hi_n + 200.0)),
        draw(st.floats(lo_e - 200.0, hi_e + 200.0)),
    )
    return area, start


def _bits(rows):
    """Every float of every row in hex, so -0.0 and 0.0 differ."""
    return [tuple(float(x).hex() for x in row) for row in rows]


def _poses(path):
    """``(heading, north, east)`` of every state of a path."""
    return [(s.heading, s.north, s.east) for s in path.states]


class TestSweepOracle:
    """The axis-indexed sweep against the policy that branches on the long axis."""

    @given(
        sweep_starts(),
        st.sampled_from([4.0, 15.0, 40.0]),
        st.integers(0, 300),
        SPACINGS,
    )
    @settings(max_examples=300, deadline=None)
    @example((SWEEP_AREAS["wide"], AgentState(0.0, 150.0, 30.0)), 15.0, 300, 5.0)
    @example((SWEEP_AREAS["tall"], AgentState(-0.0, 500.0, -0.0)), 4.0, 300, 1.0)
    @example(
        (SWEEP_AREAS["square"], AgentState(math.pi / 2, -200.0, 700.0)), 40.0, 300, 3.7
    )
    @example(
        (SWEEP_AREAS["offset"], AgentState(-math.pi / 2, 0.0, 500.0)), 15.0, 300, 50.0
    )
    @example((SWEEP_AREAS["wide"], AgentState(math.pi, 300.0, 990.0)), 15.0, 300, 5.0)
    # A state wrapped from just above pi heads -pi, which the next straight
    # step records as pi. Their moves differ by about 6e-15 m north,
    # which rounds away except close to north zero.
    @example(
        (SWEEP_AREAS["wide"], AgentState(math.nextafter(math.pi, 4.0), 0.5, 500.0)),
        15.0, 40, 5.0,
    )
    def test_equals_the_step_by_step_policy(self, area_start, radius, n, spacing):
        area, start = area_start
        params = MotionParams(turn_radius=radius, theta_max=math.pi / 2.0, speed=1.5)
        # The oracle steps by angle; the sweep by index into the set.
        want = reference_sweep(start, n, area, params)
        got = [(ACTION_SET[a], h, north, east) for a, h, north, east in _sweep(
            start, n, area, params
        )]
        assert _bits(got) == _bits(want)

        oracle = Path(
            (start, *[AgentState(h, north, east) for _, h, north, east in want]),
            tuple(ACTION_SET.index(a) for a, _, _, _ in want),
        )
        path = lawnmower_path(start, n, area, params)
        assert path.actions == oracle.actions
        assert _bits(_poses(path)) == _bits(_poses(oracle))
        locs = sweep_locations(start, n, area, params, spacing)
        assert _bits(locs) == _bits(vectorized_sample_locations(oracle, spacing)[1:])

    @given(
        sweep_starts(),
        st.sampled_from([4.0, 15.0, 40.0]),
        st.integers(0, 120),
        SPACINGS,
    )
    @settings(max_examples=200, deadline=None)
    @example(
        (SWEEP_AREAS["wide"], AgentState(math.nextafter(math.pi, 4.0), 0.5, 500.0)),
        15.0, 40, 5.0,
    )
    def test_sweep_actions_replay_to_the_sweep(self, area_start, radius, n, spacing):
        # The planner's fallback plan is the sweep's prefix, valued at the
        # naive value, which scores the sweep's own locations: its actions,
        # walked from the same start, must reproduce them bit for bit.
        area, start = area_start
        params = MotionParams(turn_radius=radius, theta_max=math.pi / 2.0, speed=1.5)
        path = lawnmower_path(start, n, area, params)
        replayed = rollout(start, path.actions, params)
        assert replayed.actions == path.actions
        assert _bits(_poses(replayed)) == _bits(_poses(path))
        locs, final, _ = sample_locations(start, path.actions, params, spacing)
        assert _bits(locs[1:]) == _bits(sweep_locations(start, n, area, params, spacing))
        last = path.states[-1]
        assert _bits([(final.heading, final.north, final.east)]) == _bits(
            [(last.heading, last.north, last.east)]
        )


class TestWalker:
    """The Path-free walkers against sampling the built path."""

    @given(STARTS, st.integers(0, 120), SPACINGS)
    @settings(max_examples=150, deadline=None)
    def test_sweep_locations_equal_the_sampled_sweep(self, start, n, spacing):
        got = sweep_locations(start, n, AREA, PARAMS, spacing)
        want = vectorized_sample_locations(
            lawnmower_path(start, n, AREA, PARAMS), spacing
        )[1:]
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    @given(STARTS, ACTIONS, SPACINGS, st.sampled_from([1.0, 15.0]))
    @settings(max_examples=300, deadline=None)
    # The last turn wraps the heading to exactly -pi; wrapped a second
    # time it would read pi.
    @example(AgentState(math.pi, 0.0, 0.0), [3, 3, 3, 0, 0, 9, 10, 10], 1.0, 1.0)
    def test_walk_equals_the_sampled_rollout(self, start, actions, spacing, radius):
        # The final state and box of one walk equal those of the built path.
        params = MotionParams(turn_radius=radius, theta_max=math.pi / 2.0, speed=1.5)
        path = rollout(start, actions, params)
        locs, final, bounds = sample_locations(start, actions, params, spacing)
        want = vectorized_sample_locations(path, spacing)
        assert np.array_equal(locs, want)
        last = path.states[-1]
        assert (final.heading, final.north, final.east) == (
            last.heading, last.north, last.east,
        )
        assert bounds == (*want.min(axis=0), *want.max(axis=0))

    def test_rejects_bad_arguments(self):
        start = AgentState(0.0, 10.0, 20.0)
        with pytest.raises(ValueError):
            sweep_locations(start, -1, AREA, PARAMS, 5.0)
        with pytest.raises(ValueError):
            sweep_locations(start, 3, AREA, PARAMS, 0.0)
        with pytest.raises(ValueError):
            sample_locations(start, [STRAIGHT], PARAMS, 0.0)
