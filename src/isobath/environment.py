"""Operational area, bathymetry truth models, and the depth sounder.

Coordinates are planar (north_m, east_m). Depths are positive-down
meters. The truth field is an analytic synthetic lake, one of a few
closed-form families, defined everywhere on the plane.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

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


class AnalyticBathymetry:
    """Truth depth defined by a closed-form function of position."""

    def __init__(self, fn):
        self._fn = fn

    def depth_grid(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        return np.asarray(self._fn(pts), dtype=float)


# Each lake family and the parameters it requires.
_LAKE_PARAMS = {
    "plane": ("depth0", "gradient_north", "gradient_east"),
    "gaussian-basin": ("background", "center", "radius", "max_depth"),
    "two-basin": (
        "background", "center1", "radius1", "max_depth1",
        "center2", "radius2", "max_depth2",
    ),
    "ridge": ("background", "start", "end", "height", "width"),
}


# Each family's depth at (n, 2) points ``pts``, its parameters bound by
# ``functools.partial``, so that a lake is plain data and pickles.


def _plane_depth(depth0, gradient_north, gradient_east, origin, pts):
    return depth0 + gradient_north * (pts[:, 0] - origin[0]) + gradient_east * (
        pts[:, 1] - origin[1]
    )


def _gaussian(d2, width):
    """``exp(-d2 / (2 width^2))``, at squared distances ``d2`` from the peak.

    Far from a narrow peak the exponent overflows to -inf and the value
    is 0, its limit, so that overflow is not reported. The validator
    rejects a width whose square is 0, where the peak itself is 0/0.
    """
    with np.errstate(over="ignore"):
        return np.exp(-d2 / (2 * width * width))


def _basins_depth(background, basins, pts):
    """Background plus each (center, radius, amplitude) Gaussian basin, in order."""
    depth = background
    for center, radius, amplitude in basins:
        d2 = np.sum((pts - center) ** 2, axis=1)
        depth = depth + amplitude * _gaussian(d2, radius)
    return depth


def _ridge_depth(background, start, seg, seg_len2, height, width, pts):
    # Elementwise, not ``(pts - start) @ seg``: a matrix product rounds
    # differently with the number of rows, and each depth must not depend
    # on the points evaluated with it.
    rel = pts - start
    t = np.clip((rel[:, 0] * seg[0] + rel[:, 1] * seg[1]) / seg_len2, 0.0, 1.0)
    foot = start[None, :] + t[:, None] * seg[None, :]
    d2 = np.sum((pts - foot) ** 2, axis=1)
    return background - height * _gaussian(d2, width)


def synthetic_lake(
    family: str, params: dict, area: OperationalArea, *, level: float = 15.0
) -> AnalyticBathymetry:
    """Construct an analytic lake and check the critical isobath exists.

    Families and their parameters:

    - ``plane``: depth0 (at the min corner) plus gradient_north/gradient_east.
    - ``gaussian-basin``: background depth plus a single Gaussian basin
      (center, radius, max_depth at the center).
    - ``two-basin``: background plus two Gaussian basins (center1/2,
      radius1/2, max_depth1/2).
    - ``ridge``: background depth minus a Gaussian ridge of given height
      and width running between two endpoint locations.

    Raises ConfigurationError when the requested family is unknown, a
    parameter is missing, or the ``level`` isobath does not intersect the
    area (the depth range on a dense probe grid must straddle the level).
    The probe's depths must also fit the packets' single precision.
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

    else:  # ridge
        start = np.asarray(p["start"], dtype=float)
        seg = np.asarray(p["end"], dtype=float) - start
        seg_len2 = float(seg @ seg)
        width = float(p["width"])
        if not (width > 0 and 2 * width * width > 0):
            raise ConfigurationError("ridge width must be positive, with a nonzero square")
        if seg_len2 <= 0:
            raise ConfigurationError("ridge endpoints must be distinct")
        fn = functools.partial(
            _ridge_depth, float(p["background"]), start, seg, seg_len2,
            float(p["height"]), width,
        )

    bathy = AnalyticBathymetry(fn)
    probe = eval_grid(area, resolution=min(area.extent) / 60.0)
    depths = bathy.depth_grid(probe)
    # Packets carry each measured depth in single precision.
    if not (np.abs(depths) <= np.finfo(np.float32).max).all():
        raise ConfigurationError(
            "the lake's depths over the area must be finite in single precision"
        )
    if not (depths.min() < level < depths.max()):
        raise ConfigurationError(
            f"the {level} m isobath does not intersect the area "
            f"(depth range {depths.min():.2f}..{depths.max():.2f})"
        )
    return bathy


def sample_depth(bathymetry, noise_std: float, locations, rng) -> list[Sample]:
    """Draw one noisy depth measurement at each row of ``locations``, (n, 2).

    The sounder's noise is unbiased Gaussian with standard deviation
    ``noise_std``. One truth evaluation and one draw of n normals: each
    lake family computes a depth from its own row alone, and ``rng``
    yields the same values as n single draws, so the samples do not
    depend on how the locations are batched.
    """
    pts = np.asarray(locations, dtype=float).reshape(-1, 2)
    values = bathymetry.depth_grid(pts)
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
