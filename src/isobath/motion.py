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
-10, -5, 0, 5, 10, 20, 30, 90} degrees. Every function here takes and
returns actions as indices into ``ACTION_SET``, the form a plan has in
the planner and in a packet; only this module's arithmetic reads an
index's angle, as ``ACTION_SET[i]``.

Measurement locations come from one chord walker on plain floats, fed
in two ways: an action sequence stepped with ``step``'s arithmetic
(``sample_locations``), and the sweep policy's own poses
(``sweep_locations``). Neither builds an ``AgentState`` or ``Path`` per
step, which is most of what a planner candidate's locations would
otherwise cost; a ``Path`` (``rollout``, ``lawnmower_path``) records a
plan's actions and states, not its locations. Every step's world-frame
move comes from one float-level helper, ``_move``, and its heading is
wrapped once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

ACTION_SET_DEG = (-90.0, -30.0, -20.0, -10.0, -5.0, 0.0, 5.0, 10.0, 20.0, 30.0, 90.0)
ACTION_SET = tuple(math.radians(a) for a in ACTION_SET_DEG)
# The sweep's actions: its straight step, and its quarter turns in the
# order it tries them.
STRAIGHT = ACTION_SET_DEG.index(0.0)
_QUARTER_TURNS = (ACTION_SET_DEG.index(90.0), ACTION_SET_DEG.index(-90.0))


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


@dataclass(frozen=True)
class MotionParams:
    """Turn radius, mandatory-run angle, and cruise speed."""

    turn_radius: float = 15.0
    theta_max: float = math.pi / 2.0
    speed: float = 1.5

    def __post_init__(self):
        if not (self.turn_radius > 0 and self.theta_max > 0 and self.speed > 0):
            raise ValueError("motion parameters must be positive")


@functools.lru_cache(maxsize=16)
def _displacements(params: MotionParams) -> tuple[tuple[float, float], ...]:
    """Body-frame (dx, dy) of one step, by action index: arc through |a|, run out.

    Cached: a mission only ever asks for its few vehicles' tables.
    """
    r = params.turn_radius
    table = []
    for a in ACTION_SET:
        d = r * (params.theta_max + abs(a))
        dx = math.copysign(1.0, a) * (r - r * math.cos(abs(a)) + d * math.sin(abs(a)))
        dy = r * math.sin(abs(a)) + d * math.cos(abs(a))
        table.append((dx, dy))
    return tuple(table)


def step_length(action: int, params: MotionParams) -> float:
    """Along-track length of one step: the arc through |a| plus the run-out."""
    r = params.turn_radius
    turn = abs(ACTION_SET[action])
    return r * turn + r * (params.theta_max + turn)


def _move(h: float, disp: tuple[float, float]) -> tuple[float, float]:
    """A body-frame displacement as the (north, east) move from heading ``h``.

    Every step of ``step``, ``sample_locations`` and the sweep policy
    moves by this, and each wraps its heading ``h + action`` once.
    """
    dx, dy = disp
    ch, sh = math.cos(h), math.sin(h)
    return ch * dx + sh * dy, -(sh * dx) + ch * dy


def step(state: AgentState, action: int, params: MotionParams) -> AgentState:
    """Advance one action index: arc through its heading change, then run out."""
    h = state.heading
    d_n, d_e = _move(h, _displacements(params)[action])
    return AgentState(h + ACTION_SET[action], state.north + d_n, state.east + d_e)


@dataclass(frozen=True)
class Path:
    """A start state, the action indices taken, and every resulting state."""

    states: tuple[AgentState, ...]
    actions: tuple[int, ...]

    def __post_init__(self):
        if len(self.states) != len(self.actions) + 1:
            raise ValueError("a path holds one more state than actions")

    def __len__(self) -> int:
        return len(self.actions)


def rollout(start: AgentState, actions, params: MotionParams) -> Path:
    """Apply a sequence of action indices and record the visited states."""
    states = [start]
    for a in actions:
        states.append(step(states[-1], a, params))
    return Path(tuple(states), tuple(actions))


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
    """Measurement locations of action indices, their final state and their box.

    The locations run along the chords between consecutive states, as
    ``_chord_walk`` spaces them: each state's position appears once, and
    no actions yield just the start. The box is ``(min north, min east,
    max north, max east)``. Each step is ``step``'s arithmetic on plain
    floats; no state is built but the final one, ``rollout``'s last.
    """
    table = _displacements(params)
    h, n, e = start.heading, start.north, start.east
    final = start
    ends = []
    for a in actions:
        d_n, d_e = _move(h, table[a])
        turned, n, e = h + ACTION_SET[a], n + d_n, e + d_e
        h = wrap_heading(turned)
        ends.append((n, e))
    if ends:
        # Wrapped once, as ``step`` wraps it: wrapping can round to -pi,
        # which a second wrap would turn into pi.
        final = AgentState(turned, n, e)
    out = _chord_walk(start.north, start.east, ends, spacing)
    norths, easts = out[0::2], out[1::2]
    bounds = (min(norths), min(easts), max(norths), max(easts))
    return np.array(out).reshape(-1, 2), final, bounds


def _sweep(start: AgentState, n_steps: int, area, params: MotionParams):
    """The sweep policy's ``(action index, heading, north, east)`` for each step.

    Bounds and positions are indexed by axis, 0 north and 1 east.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be non-negative")
    lo, hi = area.min_corner, area.max_corner
    ax = 0 if (hi[0] - lo[0]) >= (hi[1] - lo[1]) else 1  # the long axis
    lat = 1 - ax
    margin = 2.0 * params.turn_radius
    # The lane lies within the area along the long axis, so a straight
    # step tests the area only across it.
    lane_lo, lane_hi = lo[ax] + margin, hi[ax] - margin
    clo, chi = (lo[0] - margin, lo[1] - margin), (hi[0] + margin, hi[1] + margin)
    disp = _displacements(params)

    def turn(axis, h, n, e):
        # The quarter turn, and where it goes, that moves furthest along
        # axis toward its roomier side, preferring ends near the area.
        at = (n, e)[axis]
        toward = 1.0 if hi[axis] - at >= at - lo[axis] else -1.0
        best = None
        for a in _QUARTER_TURNS:
            d_n, d_e = _move(h, disp[a])
            moved = (n + d_n, e + d_e)
            score = toward * (moved[axis] - at)
            if not (clo[0] <= moved[0] <= chi[0] and clo[1] <= moved[1] <= chi[1]):
                score -= 1e6
            if best is None or score > best[0]:
                best = (score, a, moved)
        return best[1:]

    h, n, e = start.heading, start.north, start.east
    steps = []
    for _ in range(n_steps):
        # A straight step travels along (sin h, cos h) in (north, east).
        along = (math.sin(h), math.cos(h))
        axis = ax  # mid-pair: turn back onto the long axis, toward open water
        if abs(along[ax]) >= abs(along[lat]):
            d_n, d_e = _move(h, disp[STRAIGHT])
            q = (n + d_n, e + d_e)
            if lane_lo <= q[ax] <= lane_hi and lo[lat] <= q[lat] <= hi[lat]:
                h, (n, e) = wrap_heading(h + ACTION_SET[STRAIGHT]), q
                steps.append((STRAIGHT, h, n, e))
                continue
            axis = lat  # begin a turn pair toward the roomier side of the lane
        act, (n, e) = turn(axis, h, n, e)
        h = wrap_heading(h + ACTION_SET[act])
        steps.append((act, h, n, e))
    return steps


def lawnmower_path(
    start: AgentState, n_steps: int, area, params: MotionParams
) -> Path:
    """Deterministic boustrophedon sweep built from the action set's indices.

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
    states = (start, *[AgentState(h, n, e) for _, h, n, e in steps])
    return Path(states, tuple([a for a, _, _, _ in steps]))


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
