"""Operational area, bathymetry truth models, and the depth sounder.

Coordinates are planar (north_m, east_m). Depths are positive-down
meters. The truth field is an analytic synthetic lake, one of a few
closed-form families, defined everywhere on the plane. A lake is its
depth function: called on an (n, 2) float array of points, it returns
their n depths.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .comms import _F32_OVERFLOW
from .errors import ConfigurationError
from .gp import Sample


@dataclass(frozen=True)
class OperationalArea:
    """Axis-aligned rectangle the mission is confined to."""

    min_corner: tuple[float, float]
    max_corner: tuple[float, float]

    def __post_init__(self):
        lo = (float(self.min_corner[0]), float(self.min_corner[1]))
        hi = (float(self.max_corner[0]), float(self.max_corner[1]))
        object.__setattr__(self, "min_corner", lo)
        object.__setattr__(self, "max_corner", hi)
        if not (hi[0] > lo[0] and hi[1] > lo[1]):
            raise ConfigurationError("area max corner must exceed min corner")

    @property
    def extent(self) -> tuple[float, float]:
        """(north span, east span) in meters."""
        return (
            self.max_corner[0] - self.min_corner[0],
            self.max_corner[1] - self.min_corner[1],
        )


# Each lake family and the parameters it requires.
_LAKE_PARAMS = {
    "plane": ("depth0", "gradient_north", "gradient_east"),
    "gaussian-basin": ("background", "center", "radius", "max_depth"),
    "two-basin": (
        "background", "center1", "radius1", "max_depth1",
        "center2", "radius2", "max_depth2",
    ),
    "ridge": ("background", "start", "end", "height", "width"),
    "gp-draw": ("mean", "variance", "length_scale", "draw", "features"),
}

# Most random features a ``gp-draw`` lake may sum.
GP_DRAW_FEATURES_CAP = 4096

# Elements in each of a ``gp-draw`` lake's (rows, features) work arrays,
# at most: 512 KB of float64.
_GP_DRAW_BLOCK = 1 << 16


# The most standard deviations a reading's noise can stray from its
# depth. numpy's normal generator (a ziggurat) returns less than its
# r = 3.6542 in magnitude outside the tail, and r + x in the tail, where
# x is kept only when x^2 < 2y and y = -log(1 - u) is at most 53 ln 2
# for its 53-bit uniforms u; so no draw reaches 3.6542 + sqrt(73.48) =
# 12.23. Rounded up, which also covers the rounding of depth + noise.
NOISE_REACH = 13.0


# Each family's depth at (n, 2) points ``pts``, its parameters bound by
# ``functools.partial``, so that a lake is plain data and pickles.


def _plane_depth(depth0, gradient_north, gradient_east, origin, pts):
    return depth0 + gradient_north * (pts[:, 0] - origin[0]) + gradient_east * (
        pts[:, 1] - origin[1]
    )


def _gaussian(d2, width):
    """``exp(-d2 / (2 width^2))``, at squared distances ``d2`` from the peak.

    Worked in place on one new array: dividing by the negated
    denominator gives ``-d2 / (2 width^2)`` to the last bit, as in
    ``KernelSpec.from_sqdist``, without a pass to negate ``d2``.
    Far from a narrow peak the exponent overflows to -inf and the value
    is 0, its limit, so that overflow is not reported. The validator
    rejects a width whose square is 0, where the peak itself is 0/0.
    """
    with np.errstate(over="ignore"):
        g = np.divide(d2, -2 * width * width)
    np.exp(g, out=g)
    return g


def _squared_norms(rel):
    """Each row's ``n*n + e*e``, squaring ``rel``, (n, 2), in place.

    What ``np.sum(rel ** 2, axis=1)`` gives, bit for bit: ``** 2`` is
    numpy's square, ``x * x``, and ``np.sum`` is ``np.add.reduce``, here
    a single addition per row, called without its Python wrapper. A step
    sounds a handful of points, so these calls cost more than their
    arithmetic.
    """
    rel *= rel
    return np.add.reduce(rel, axis=1)


def _basins_depth(background, basins, pts):
    """Background plus each (center, radius, amplitude) Gaussian basin, in order.

    ``background + amplitude * g`` for the first basin and
    ``depth + amplitude * g`` for the next, summed in place into ``g``:
    IEEE addition and multiplication commute, so each depth keeps its bits.
    """
    depth = background
    for center, radius, amplitude in basins:
        g = _gaussian(_squared_norms(pts - center), radius)
        g *= amplitude
        g += depth
        depth = g
    return depth


def _ridge_depth(background, start, seg, seg_len2, height, width, pts):
    # Elementwise, not ``(pts - start) @ seg``: a matrix product rounds
    # differently with the number of rows, and each depth must not depend
    # on the points evaluated with it.
    rel = pts - start
    t = np.clip((rel[:, 0] * seg[0] + rel[:, 1] * seg[1]) / seg_len2, 0.0, 1.0)
    foot = start[None, :] + t[:, None] * seg[None, :]
    return background - height * _gaussian(_squared_norms(pts - foot), width)


def _gp_draw_depth(mean, scale, w_north, w_east, phase, pts):
    """``mean + scale * sum_i cos(w_i . x + phase_i)`` at each row ``x`` of ``pts``.

    Rows are worked in blocks of at most ``_GP_DRAW_BLOCK`` elements.
    ``w_i . x`` is formed elementwise, as ``_ridge_depth`` forms its
    projection, and each row's features are summed along that row alone,
    so a depth does not depend on the rows evaluated with it.
    """
    rows = max(1, _GP_DRAW_BLOCK // len(phase))
    total = np.empty(len(pts))
    for i in range(0, len(pts), rows):
        block = pts[i:i + rows]
        arg = np.multiply.outer(block[:, 0], w_north)
        arg += np.multiply.outer(block[:, 1], w_east)
        arg += phase
        np.cos(arg, out=arg)
        total[i:i + rows] = np.add.reduce(arg, axis=1)
    total *= scale
    total += mean
    return total


def _count(params, name, lo, hi=None) -> int:
    """``params[name]``, which must be an integer from ``lo`` to ``hi``."""
    value = params[name]
    if (
        not isinstance(value, int) or isinstance(value, bool)
        or value < lo or (hi is not None and value > hi)
    ):
        span = f"{lo}..{hi}" if hi is not None else f"at least {lo}"
        raise ConfigurationError(f"gp-draw {name} must be an integer {span}, not {value!r}")
    return value


def synthetic_lake(
    family: str, params: dict, area: OperationalArea, *, level: float = 15.0,
    reach: OperationalArea | None = None, noise_std: float = 0.0,
) -> functools.partial:
    """Construct an analytic lake's depth function; check the isobath exists.

    Families and their parameters:

    - ``plane``: depth0 (at the min corner) plus gradient_north/gradient_east.
    - ``gaussian-basin``: background depth plus a single Gaussian basin
      (center, radius, max_depth at the center).
    - ``two-basin``: background plus two Gaussian basins (center1/2,
      radius1/2, max_depth1/2).
    - ``ridge``: background depth minus a Gaussian ridge of given height
      and width running between two endpoint locations.
    - ``gp-draw``: one draw of a Gaussian process with constant ``mean``
      and a squared-exponential kernel of ``variance`` and
      ``length_scale``, by ``features`` random Fourier features (Rahimi &
      Recht, NIPS 2007): ``mean + sqrt(2 variance / D) sum_i cos(w_i . x +
      b_i)``, with ``w_i ~ N(0, I / length_scale^2)`` and ``b_i ~ U(0,
      2 pi)`` from the generator seeded with ``draw``. A lake drawn from
      the belief's own prior.

    Raises ConfigurationError when the requested family is unknown, a
    parameter is missing, or the ``level`` isobath does not intersect the
    area (the depth range on a dense probe grid must straddle the level).
    The depths must fit float32, as packets carry them, over ``reach`` (or the area),
    and so must every reading there, up to ``NOISE_REACH`` times ``noise_std`` off.
    """
    if family not in _LAKE_PARAMS:
        raise ConfigurationError(
            f"unknown lake family {family!r}; choose one of {tuple(_LAKE_PARAMS)}"
        )
    p = dict(params)
    missing = [k for k in _LAKE_PARAMS[family] if k not in p]
    if missing:
        raise ConfigurationError(f"lake family {family!r} missing parameters: {missing}")

    if family == "plane":
        fn = functools.partial(
            _plane_depth, float(p["depth0"]), float(p["gradient_north"]),
            float(p["gradient_east"]), area.min_corner,
        )
        # A plane's extremes over a box lie at its corners.
        box = area if reach is None else reach
        (n0, e0), (n1, e1) = box.min_corner, box.max_corner
        with np.errstate(over="ignore", invalid="ignore"):
            extreme = np.abs(fn(np.array([[n0, e0], [n0, e1], [n1, e0], [n1, e1]]))).max()

    elif family in ("gaussian-basin", "two-basin"):
        # A gaussian basin is the two-basin formula with one basin.
        suffixes = ("",) if family == "gaussian-basin" else ("1", "2")
        bg = float(p["background"])
        basins = tuple(
            (np.asarray(p[f"center{s}"], dtype=float), float(p[f"radius{s}"]),
             float(p[f"max_depth{s}"]) - bg)
            for s in suffixes
        )
        # A radius whose square underflows would turn the depth at its
        # center into 0/0.
        if not all(radius > 0 and 2 * radius * radius > 0 for _, radius, _ in basins):
            raise ConfigurationError("basin radii must be positive, with a nonzero square")
        fn = functools.partial(_basins_depth, bg, basins)
        extreme = abs(bg) + sum(abs(amplitude) for _, _, amplitude in basins)

    elif family == "gp-draw":
        features = _count(p, "features", 1, GP_DRAW_FEATURES_CAP)
        draw = _count(p, "draw", 0)
        mean, variance = float(p["mean"]), float(p["variance"])
        length_scale = float(p["length_scale"])
        if not (variance > 0 and length_scale > 0):
            raise ConfigurationError("gp-draw variance and length_scale must be positive")
        rng = np.random.default_rng(draw)
        with np.errstate(over="ignore"):
            omega = rng.normal(size=(features, 2)) / length_scale
        phase = rng.uniform(0.0, 2 * np.pi, size=features)
        # A bound on the cosines' arguments over ``box``, which must be finite.
        box = area if reach is None else reach
        far_n, far_e = np.abs([box.min_corner, box.max_corner]).max(axis=0)
        with np.errstate(over="ignore", invalid="ignore"):
            argument = (np.abs(omega[:, 0]) * far_n + np.abs(omega[:, 1]) * far_e).max()
        if not argument + 2 * math.pi < math.inf:
            raise ConfigurationError(
                f"gp-draw length_scale {length_scale:g} is too small for the reach "
                f"of the mission: its features' phases overflow"
            )
        fn = functools.partial(
            _gp_draw_depth, mean, math.sqrt(2.0 * variance / features),
            omega[:, 0].copy(), omega[:, 1].copy(), phase,
        )
        # Each cosine is at most 1 in magnitude.
        extreme = abs(mean) + math.sqrt(2.0 * variance * features)

    else:  # ridge
        start = np.asarray(p["start"], dtype=float)
        seg = np.asarray(p["end"], dtype=float) - start
        seg_len2 = float(seg @ seg)
        width = float(p["width"])
        if not (width > 0 and 2 * width * width > 0):
            raise ConfigurationError("ridge width must be positive, with a nonzero square")
        if seg_len2 <= 0:
            raise ConfigurationError("ridge endpoints must be distinct")
        bg, height = float(p["background"]), float(p["height"])
        fn = functools.partial(_ridge_depth, bg, start, seg, seg_len2, height, width)
        extreme = abs(bg) + abs(height)

    # Packets carry each measured depth in single precision.
    if not extreme < _F32_OVERFLOW:
        raise ConfigurationError(f"lake depths reach {extreme:.3g} m, past float32")
    if not extreme + NOISE_REACH * noise_std < _F32_OVERFLOW:
        raise ConfigurationError(
            f"noise_std {noise_std:g} is too large: readings may reach {extreme:.3g} m "
            f"plus {NOISE_REACH:g} standard deviations, past float32"
        )
    probe = eval_grid(area, resolution=min(area.extent) / 60.0)
    depths = fn(probe)
    if not (depths.min() < level < depths.max()):
        raise ConfigurationError(
            f"the {level} m isobath does not intersect the area "
            f"(depth range {depths.min():.2f}..{depths.max():.2f})"
        )
    return fn


def sample_depth(lake, noise_std: float, locations, rng) -> list[Sample]:
    """Draw one noisy depth measurement at each row of ``locations``, (n, 2).

    The sounder's noise is unbiased Gaussian with standard deviation
    ``noise_std``. One truth evaluation and one draw of n normals: each
    lake family computes a depth from its own row alone, and ``rng``
    yields the same values as n single draws, so the samples do not
    depend on how the locations are batched.
    """
    pts = np.asarray(locations, dtype=float).reshape(-1, 2)
    values = lake(pts)
    if noise_std > 0:
        values = values + rng.normal(0.0, noise_std, size=len(pts))
    return [
        Sample((north, east), value)
        for (north, east), value in zip(pts.tolist(), values.tolist())
    ]


def eval_grid(area: OperationalArea, resolution: float) -> np.ndarray:
    """Uniform lattice over the area, row-major, min corner included.

    Rows sweep north (slow axis), east varies fastest. Points land at
    min_corner + k * resolution on each axis, up to and including the max
    corner when the span divides evenly.
    """
    if not (resolution > 0):
        raise ConfigurationError("grid resolution must be positive")
    lo, hi = area.min_corner, area.max_corner
    norths = np.arange(lo[0], hi[0] + 1e-9, resolution)
    easts = np.arange(lo[1], hi[1] + 1e-9, resolution)
    nn, ee = np.meshgrid(norths, easts, indexing="ij")
    return np.column_stack([nn.ravel(), ee.ravel()])
