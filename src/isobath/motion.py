"""Discrete turn-and-run kinematics and the boustrophedon reference path.

A vehicle state is (heading, north, east). One planning action a is a
heading change drawn from a fixed 11-element set; executing it sweeps an
arc of radius r through |a| and then runs straight for d = r (theta_max
+ |a|), so every action advances the vehicle a comparable distance. The
body-frame displacement of one step is

    dx = sign(a) (r - r cos|a| + d sin|a|)
    dy = r sin|a| + d cos|a|

rotated into the world frame by the pre-step heading. Headings wrap to
(-pi, pi]. Heading zero with a straight action displaces along +east
under these rotation formulas; the convention is self-consistent and
nothing downstream depends on the compass label.

Angles are radians everywhere. The action set spans {-90, -30, -20,
-10, -5, 0, 5, 10, 20, 30, 90} degrees.

Measurement locations come from one chord walker on plain floats, fed
in two ways: an action sequence stepped with ``step``'s arithmetic
(``sample_locations``), and the sweep policy's own poses
(``sweep_locations``). Neither builds an ``AgentState`` or ``Path`` per
step, which is most of what a planner candidate's locations would
otherwise cost; a ``Path`` (``rollout``, ``lawnmower_path``) records a
plan's actions and states, not its locations. ``step``,
``sample_locations`` and the sweep policy take each step through one
float-level helper, ``_advance``, and wrap the heading it returns once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

ACTION_SET_DEG = (-90.0, -30.0, -20.0, -10.0, -5.0, 0.0, 5.0, 10.0, 20.0, 30.0, 90.0)
ACTION_SET = tuple(math.radians(a) for a in ACTION_SET_DEG)
_ACTIONS = frozenset(ACTION_SET)


def wrap_heading(h: float) -> float:
    """Wrap an angle to the interval (-pi, pi]. Identity when in range."""
    if -math.pi < h <= math.pi:
        return h
    return -((math.pi - h) % (2.0 * math.pi) - math.pi)


@dataclass(frozen=True)
class AgentState:
    """Vehicle pose: heading (rad, wrapped) and planar position (m)."""

    heading: float
    north: float
    east: float

    def __post_init__(self):
        object.__setattr__(self, "heading", wrap_heading(float(self.heading)))
        object.__setattr__(self, "north", float(self.north))
        object.__setattr__(self, "east", float(self.east))


def _pose(heading: float, north: float, east: float) -> AgentState:
    """``AgentState(heading, north, east)`` for values that are already floats.

    Skips the dataclass's field-by-field initialisation, which costs more
    than the rest of a sweep step; the heading is still wrapped.
    """
    state = object.__new__(AgentState)
    vars(state).update(heading=wrap_heading(heading), north=north, east=east)
    return state


@dataclass(frozen=True)
class MotionParams:
    """Turn radius, mandatory-run angle, and cruise speed."""

    turn_radius: float = 15.0
    theta_max: float = math.pi / 2.0
    speed: float = 1.5

    def __post_init__(self):
        if not (self.turn_radius > 0 and self.theta_max > 0 and self.speed > 0):
            raise ValueError("motion parameters must be positive")


def action_index(action: float) -> int:
    """Index of an action within the canonical set (1e-9 rad tolerance)."""
    for i, a in enumerate(ACTION_SET):
        if abs(a - action) <= 1e-9:
            return i
    raise ValueError(f"action {action!r} is not in the action set")


@functools.lru_cache(maxsize=256)
def _body_displacement(action: float, params: MotionParams) -> tuple[float, float]:
    """Body-frame (dx, dy) of one step: arc through |action|, then run out.

    Cached: a mission only ever asks for its few vehicles' eleven actions.
    """
    r = params.turn_radius
    a = float(action)
    d = r * (params.theta_max + abs(a))
    dx = math.copysign(1.0, a) * (r - r * math.cos(abs(a)) + d * math.sin(abs(a)))
    dy = r * math.sin(abs(a)) + d * math.cos(abs(a))
    return dx, dy


@functools.lru_cache(maxsize=16)
def _action_table(params: MotionParams) -> dict[float, tuple[float, float]]:
    """``_body_displacement`` of every action in the set, for one vehicle."""
    return {a: _body_displacement(a, params) for a in ACTION_SET}


def _advance(
    h: float, n: float, e: float, action: float, disp: tuple[float, float]
) -> tuple[float, float, float]:
    """One step on plain floats: the unwrapped heading ``h + action``, north, east.

    ``disp`` is the action's body-frame displacement, rotated into the
    world frame by the pre-step heading ``h``. ``step``, ``sample_locations``
    and the sweep policy all step through here; each wraps the heading once.
    """
    dx, dy = disp
    ch, sh = math.cos(h), math.sin(h)
    return h + action, n + (ch * dx + sh * dy), e + (-(sh * dx) + ch * dy)


def step(state: AgentState, action: float, params: MotionParams) -> AgentState:
    """Advance one action: arc through the heading change, then run out."""
    if action not in _ACTIONS:
        action_index(action)  # membership within tolerance, or raise
    return _pose(*_advance(
        state.heading, state.north, state.east, float(action),
        _body_displacement(action, params),
    ))


@dataclass(frozen=True)
class Path:
    """A start state, the actions taken, and every resulting state."""

    states: tuple[AgentState, ...]
    actions: tuple[float, ...]

    def __post_init__(self):
        if len(self.states) != len(self.actions) + 1:
            raise ValueError("a path holds one more state than actions")

    def __len__(self) -> int:
        return len(self.actions)


def rollout(start: AgentState, actions, params: MotionParams) -> Path:
    """Apply an action sequence and record the visited states."""
    states = [start]
    for a in actions:
        states.append(step(states[-1], a, params))
    return Path(tuple(states), tuple(float(a) for a in actions))


def _chord_walk(n0: float, e0: float, ends, spacing: float) -> list[float]:
    """Flat ``[n, e, ...]`` coordinates along the chords from (n0, e0) through ``ends``.

    Emits the start, then for each chord points every ``spacing`` meters
    from its start (exclusive) plus its end, so each end appears once.

    A path has a few short chords, so the walk runs on Python floats,
    where numpy's per-call cost would outweigh the arithmetic. Squares
    are ``d * d``, as numpy's square rounds; ``d ** 2`` calls the C
    library's ``pow``, which can be one ulp off and move a location.
    The coordinates are collected in one flat list, which numpy converts
    several times faster than a list of pairs.
    """
    if not (spacing > 0):
        raise ValueError("spacing must be positive")
    out = [n0, e0]
    for n1, e1 in ends:
        d_n, d_e = n1 - n0, e1 - e0
        chord = math.sqrt(d_n * d_n + d_e * d_e)
        cut = chord - 1e-9
        # Interior count: the largest k with k*spacing < chord-1e-9,
        # floor() corrected for division rounding at the boundary.
        k = math.floor(cut / spacing)
        k -= k * spacing >= cut
        k += (k + 1) * spacing < cut
        for i in range(1, k + 1):
            t = i * spacing / chord
            out += (n0 + t * d_n, e0 + t * d_e)
        out += (n1, e1)
        n0, e0 = n1, e1
    return out


def sample_locations(
    start: AgentState, actions, params: MotionParams, spacing: float
) -> tuple[np.ndarray, AgentState, tuple[float, float, float, float]]:
    """Measurement locations of an action sequence, its final state and their box.

    The locations run along the chords between consecutive states, as
    ``_chord_walk`` spaces them: each state's position appears once, and
    no actions yield just the start. The box is ``(min north, min east,
    max north, max east)``. Each step is ``step``'s arithmetic on plain
    floats; no state is built but the final one, ``rollout``'s last.
    """
    table = _action_table(params)
    h, n, e = start.heading, start.north, start.east
    final = start
    ends = []
    for a in actions:
        d = table.get(a)
        if d is None:
            action_index(a)  # membership within tolerance, or raise
            d = _body_displacement(a, params)
        turned, n, e = _advance(h, n, e, float(a), d)
        h = wrap_heading(turned)
        ends.append((n, e))
    if ends:
        # Wrapped once, as ``step`` wraps it: wrapping can round to -pi,
        # which a second wrap would turn into pi.
        final = _pose(turned, n, e)
    out = _chord_walk(start.north, start.east, ends, spacing)
    norths, easts = out[0::2], out[1::2]
    bounds = (min(norths), min(easts), max(norths), max(easts))
    return np.array(out).reshape(-1, 2), final, bounds


def _sweep(start: AgentState, n_steps: int, area, params: MotionParams):
    """The sweep policy's ``(action, heading, north, east)`` for each step."""
    if n_steps < 0:
        raise ValueError("n_steps must be non-negative")
    lo0, lo1 = float(area.min_corner[0]), float(area.min_corner[1])
    hi0, hi1 = float(area.max_corner[0]), float(area.max_corner[1])
    long_ax = 0 if (hi0 - lo0) >= (hi1 - lo1) else 1
    quarter = math.pi / 2.0
    margin = 2.0 * params.turn_radius
    clo0, clo1, chi0, chi1 = lo0 - margin, lo1 - margin, hi0 + margin, hi1 + margin
    disp = _action_table(params)  # holds 0 and both quarter turns
    if long_ax == 0:
        lane_lo, lane_hi = lo0 + margin, hi0 - margin
    else:
        lane_lo, lane_hi = lo1 + margin, hi1 - margin

    def pick_turn(axis, target_sign, h, n, e):
        # 90-degree step, and where it goes, whose displacement moves
        # along axis*sign.
        best, best_score = None, -math.inf
        for a in (quarter, -quarter):
            moved = _advance(h, n, e, a, disp[a])
            delta = (moved[1] - n) if axis == 0 else (moved[2] - e)
            score = target_sign * delta
            if not (clo0 <= moved[1] <= chi0 and clo1 <= moved[2] <= chi1):
                score -= 1e6
            if best is None or score > best_score:
                best, best_score = (a, moved), score
        return best

    h, n, e = start.heading, start.north, start.east
    steps = []
    for _ in range(n_steps):
        # Travel direction of a straight step is (sin h, cos h).
        sh, ch = math.sin(h), math.cos(h)
        dir_long, dir_lat = (sh, ch) if long_ax == 0 else (ch, sh)
        if abs(dir_long) >= abs(dir_lat):
            act = 0.0
            moved = _advance(h, n, e, act, disp[act])
            n2, e2 = moved[1], moved[2]
            ahead_long = n2 if long_ax == 0 else e2
            in_lane = lane_lo <= ahead_long <= lane_hi
            if not (in_lane and lo0 <= n2 <= hi0 and lo1 <= e2 <= hi1):
                # Begin a turn pair toward the roomier side of the lane.
                pos_lat = e if long_ax == 0 else n
                room_up = (hi1 - pos_lat) if long_ax == 0 else (hi0 - pos_lat)
                room_dn = (pos_lat - lo1) if long_ax == 0 else (pos_lat - lo0)
                act, moved = pick_turn(
                    1 - long_ax, 1.0 if room_up >= room_dn else -1.0, h, n, e
                )
        else:
            # Mid-pair: turn back onto the long axis, toward open water.
            pos_long = n if long_ax == 0 else e
            room_fw = (hi0 - pos_long) if long_ax == 0 else (hi1 - pos_long)
            room_bk = (pos_long - lo0) if long_ax == 0 else (pos_long - lo1)
            act, moved = pick_turn(
                long_ax, 1.0 if room_fw >= room_bk else -1.0, h, n, e
            )
        turned, n, e = moved
        h = wrap_heading(turned)
        steps.append((act, h, n, e))
    return steps


def lawnmower_path(
    start: AgentState, n_steps: int, area, params: MotionParams
) -> Path:
    """Deterministic boustrophedon sweep built from the action set.

    Straight runs parallel to the area's long axis. A turn pair starts
    one turn diameter inside the area's edge: when the next straight
    step would end closer than that to either end of the lane (or
    outside the area), the vehicle executes two successive 90-degree
    turns toward the side with more remaining room, reversing direction
    onto the adjacent track, and prefers turns that end within one turn
    diameter of the area. The policy depends only on the current state,
    so regenerating from any intermediate state reproduces the suffix.
    """
    steps = _sweep(start, n_steps, area, params)
    states = [start]
    states.extend(_pose(h, n, e) for _, h, n, e in steps)
    return Path(tuple(states), tuple(a for a, _, _, _ in steps))


def sweep_locations(
    start: AgentState, n_steps: int, area, params: MotionParams, spacing: float
) -> np.ndarray:
    """Measurement locations of ``lawnmower_path(start, n_steps, ...)`` after its start.

    The chords of ``sample_locations``, walked from the policy's floats
    without building its states.
    """
    ends = [(n, e) for _, _, n, e in _sweep(start, n_steps, area, params)]
    out = _chord_walk(start.north, start.east, ends, spacing)
    return np.array(out[2:]).reshape(-1, 2)
