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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ACTION_SET_DEG = (-90.0, -30.0, -20.0, -10.0, -5.0, 0.0, 5.0, 10.0, 20.0, 30.0, 90.0)
ACTION_SET = tuple(math.radians(a) for a in ACTION_SET_DEG)


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

    @property
    def position(self) -> np.ndarray:
        return np.array([self.north, self.east])


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


def _body_displacement(action: float, params: MotionParams) -> tuple[float, float]:
    """Body-frame (dx, dy) of one step: arc through |action|, then run out."""
    r = params.turn_radius
    a = float(action)
    d = r * (params.theta_max + abs(a))
    dx = math.copysign(1.0, a) * (r - r * math.cos(abs(a)) + d * math.sin(abs(a)))
    dy = r * math.sin(abs(a)) + d * math.cos(abs(a))
    return dx, dy


def step(state: AgentState, action: float, params: MotionParams) -> AgentState:
    """Advance one action: arc through the heading change, then run out."""
    action_index(action)  # membership check
    dx, dy = _body_displacement(action, params)
    h = state.heading
    ch, sh = math.cos(h), math.sin(h)
    dn = ch * dx + sh * dy
    de = -(sh * dx) + ch * dy
    return AgentState(h + float(action), state.north + dn, state.east + de)


@dataclass(frozen=True)
class Path:
    """A start state, the actions taken, and every resulting state."""

    states: tuple[AgentState, ...]
    actions: tuple[float, ...]

    def __post_init__(self):
        if len(self.states) != len(self.actions) + 1:
            raise ValueError("a path holds one more state than actions")

    @property
    def start(self) -> AgentState:
        return self.states[0]

    @property
    def final(self) -> AgentState:
        return self.states[-1]

    def __len__(self) -> int:
        return len(self.actions)


def rollout(start: AgentState, actions, params: MotionParams) -> Path:
    """Apply an action sequence and record the visited states."""
    states = [start]
    for a in actions:
        states.append(step(states[-1], a, params))
    return Path(tuple(states), tuple(float(a) for a in actions))


def sample_locations(path: Path, spacing: float) -> np.ndarray:
    """Measurement locations along the path's straight chords.

    Walks each chord between consecutive states, emitting points every
    ``spacing`` meters from the chord start (exclusive) plus the chord
    end, so each state position appears exactly once. A zero-action path
    yields just the start position; a chord shorter than ``spacing``
    contributes only its endpoint.
    """
    if not (spacing > 0):
        raise ValueError("spacing must be positive")
    pos = np.array([(s.north, s.east) for s in path.states])
    m = pos.shape[0] - 1
    if m == 0:
        return pos.copy()
    a, b = pos[:-1], pos[1:]
    diff = b - a
    chord = np.sqrt(diff[:, 0] ** 2 + diff[:, 1] ** 2)
    cut = chord - 1e-9
    # Interior count per chord: the largest k with k*spacing < chord-1e-9,
    # floor() corrected for division rounding at the boundary.
    k0 = np.floor(cut / spacing)
    k0 -= k0 * spacing >= cut
    k0 += (k0 + 1.0) * spacing < cut
    counts = np.maximum(k0.astype(np.int64), 0)
    total = int(counts.sum())
    out = np.empty((1 + total + m, 2))
    out[0] = pos[0]
    block_start = 1 + np.concatenate(([0], np.cumsum(counts + 1)[:-1]))
    out[block_start + counts] = b
    if total:
        chord_idx = np.repeat(np.arange(m), counts)
        kvals = (
            np.arange(total)
            - np.repeat(np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
            + 1.0
        )
        t = kvals * spacing / chord[chord_idx]
        out[block_start[chord_idx] + kvals.astype(np.int64) - 1] = (
            a[chord_idx] + t[:, None] * diff[chord_idx]
        )
    return out


def _travel_direction(heading: float) -> np.ndarray:
    """World-frame unit displacement direction of a straight step."""
    # A straight step moves the body-frame (0, d) vector through the
    # heading rotation used in step(); normalize that displacement.
    dn = -math.sin(-heading)
    de = math.cos(-heading)
    return np.array([dn, de])


def lawnmower_path(
    start: AgentState,
    n_steps: int,
    area,
    params: MotionParams,
    swath: float | None = None,
) -> Path:
    """Deterministic boustrophedon sweep built from the action set.

    Straight runs parallel to the area's long axis; at the margins the
    vehicle executes two successive 90-degree turns toward the side with
    more remaining room, reversing direction onto the adjacent track.
    ``swath`` sets the margin clearance that triggers turning (default
    one turn diameter). The policy depends only on the current state, so
    regenerating from any intermediate state reproduces the suffix.
    """
    if swath is None:
        swath = 2.0 * params.turn_radius
    if n_steps < 0:
        raise ValueError("n_steps must be non-negative")
    lo0, lo1 = float(area.min_corner[0]), float(area.min_corner[1])
    hi0, hi1 = float(area.max_corner[0]), float(area.max_corner[1])
    long_ax = 0 if (hi0 - lo0) >= (hi1 - lo1) else 1
    quarter = math.pi / 2.0
    margin = 2.0 * params.turn_radius
    clo0, clo1, chi0, chi1 = lo0 - margin, lo1 - margin, hi0 + margin, hi1 + margin
    disp = {a: _body_displacement(a, params) for a in (0.0, quarter, -quarter)}
    if long_ax == 0:
        lane_lo, lane_hi = lo0 + swath, hi0 - swath
    else:
        lane_lo, lane_hi = lo1 + swath, hi1 - swath

    h, n, e = start.heading, start.north, start.east
    traj = [(h, n, e)]
    actions: list[float] = []
    for _ in range(n_steps):
        ch, sh = math.cos(h), math.sin(h)

        def advance(a):
            dx, dy = disp[a]
            return (
                wrap_heading(h + a),
                n + (ch * dx + sh * dy),
                e + (-(sh * dx) + ch * dy),
            )

        def pick_turn(axis, target_sign):
            # 90-degree action whose displacement moves along axis*sign.
            best, best_score = quarter, -math.inf
            for a in (quarter, -quarter):
                _, n2, e2 = advance(a)
                delta = (n2 - n) if axis == 0 else (e2 - e)
                score = target_sign * delta
                if not (clo0 <= n2 <= chi0 and clo1 <= e2 <= chi1):
                    score -= 1e6
                if score > best_score:
                    best, best_score = a, score
            return best

        # Travel direction of a straight step is (sin h, cos h).
        dir_long, dir_lat = (sh, ch) if long_ax == 0 else (ch, sh)
        if abs(dir_long) >= abs(dir_lat):
            _, n2, e2 = advance(0.0)
            ahead_long = n2 if long_ax == 0 else e2
            in_lane = lane_lo <= ahead_long <= lane_hi
            if in_lane and lo0 <= n2 <= hi0 and lo1 <= e2 <= hi1:
                act = 0.0
            else:
                # Begin a turn pair toward the roomier side of the lane.
                pos_lat = e if long_ax == 0 else n
                room_up = (hi1 - pos_lat) if long_ax == 0 else (hi0 - pos_lat)
                room_dn = (pos_lat - lo1) if long_ax == 0 else (pos_lat - lo0)
                act = pick_turn(1 - long_ax, 1.0 if room_up >= room_dn else -1.0)
        else:
            # Mid-pair: turn back onto the long axis, toward open water.
            pos_long = n if long_ax == 0 else e
            room_fw = (hi0 - pos_long) if long_ax == 0 else (hi1 - pos_long)
            room_bk = (pos_long - lo0) if long_ax == 0 else (pos_long - lo1)
            act = pick_turn(long_ax, 1.0 if room_fw >= room_bk else -1.0)
        h, n, e = advance(act)
        traj.append((h, n, e))
        actions.append(act)
    states = [start]
    states.extend(AgentState(*t) for t in traj[1:])
    return Path(tuple(states), tuple(actions))
