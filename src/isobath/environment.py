"""Operational area, bathymetry truth models, and the depth sensor.

Coordinates are planar (north_m, east_m). Depths are positive-down
meters. The truth field is an analytic synthetic lake, one of a few
closed-form families, defined everywhere on the plane.
"""

from __future__ import annotations

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

    def __init__(self, fn, description: str = "analytic"):
        self._fn = fn
        self.description = description

    def depth_at(self, point) -> float:
        pts = np.asarray(point, dtype=float).reshape(-1, 2)
        return float(self._fn(pts)[0])

    def depth_grid(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        return np.asarray(self._fn(pts), dtype=float)


_LAKE_FAMILIES = ("plane", "gaussian-basin", "two-basin", "ridge")


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
    """
    p = dict(params)

    def need(*keys):
        missing = [k for k in keys if k not in p]
        if missing:
            raise ConfigurationError(
                f"lake family {family!r} missing parameters: {missing}"
            )

    if family == "plane":
        need("depth0", "gradient_north", "gradient_east")
        d0 = float(p["depth0"])
        gn, ge = float(p["gradient_north"]), float(p["gradient_east"])
        lo = area.min_corner

        def fn(pts):
            return d0 + gn * (pts[:, 0] - lo[0]) + ge * (pts[:, 1] - lo[1])

    elif family == "gaussian-basin":
        need("background", "center", "radius", "max_depth")
        bg = float(p["background"])
        c = np.asarray(p["center"], dtype=float)
        r = float(p["radius"])
        md = float(p["max_depth"])
        if r <= 0:
            raise ConfigurationError("basin radius must be positive")

        def fn(pts):
            d2 = np.sum((pts - c) ** 2, axis=1)
            return bg + (md - bg) * np.exp(-d2 / (2 * r * r))

    elif family == "two-basin":
        need("background", "center1", "radius1", "max_depth1",
             "center2", "radius2", "max_depth2")
        bg = float(p["background"])
        c1 = np.asarray(p["center1"], dtype=float)
        c2 = np.asarray(p["center2"], dtype=float)
        r1, r2 = float(p["radius1"]), float(p["radius2"])
        a1 = float(p["max_depth1"]) - bg
        a2 = float(p["max_depth2"]) - bg
        if r1 <= 0 or r2 <= 0:
            raise ConfigurationError("basin radii must be positive")

        def fn(pts):
            d1 = np.sum((pts - c1) ** 2, axis=1)
            d2 = np.sum((pts - c2) ** 2, axis=1)
            return bg + a1 * np.exp(-d1 / (2 * r1 * r1)) + a2 * np.exp(-d2 / (2 * r2 * r2))

    elif family == "ridge":
        need("background", "start", "end", "height", "width")
        bg = float(p["background"])
        a = np.asarray(p["start"], dtype=float)
        bpt = np.asarray(p["end"], dtype=float)
        h = float(p["height"])
        w = float(p["width"])
        if w <= 0:
            raise ConfigurationError("ridge width must be positive")
        seg = bpt - a
        seg_len2 = float(seg @ seg)
        if seg_len2 <= 0:
            raise ConfigurationError("ridge endpoints must be distinct")

        def fn(pts):
            t = np.clip(((pts - a) @ seg) / seg_len2, 0.0, 1.0)
            foot = a[None, :] + t[:, None] * seg[None, :]
            d2 = np.sum((pts - foot) ** 2, axis=1)
            return bg - h * np.exp(-d2 / (2 * w * w))

    else:
        raise ConfigurationError(
            f"unknown lake family {family!r}; choose one of {_LAKE_FAMILIES}"
        )

    bathy = AnalyticBathymetry(fn, description=family)
    probe = eval_grid(area, resolution=min(area.extent) / 60.0)
    depths = bathy.depth_grid(probe)
    if not (depths.min() < level < depths.max()):
        raise ConfigurationError(
            f"the {level} m isobath does not intersect the area "
            f"(depth range {depths.min():.2f}..{depths.max():.2f})"
        )
    return bathy


@dataclass(frozen=True)
class SensorModel:
    """Depth sounder: unbiased Gaussian noise, fixed along-track spacing."""

    noise_std: float
    sample_spacing: float = 5.0

    def __post_init__(self):
        if self.noise_std < 0:
            raise ValueError("noise_std must be non-negative")
        if not (self.sample_spacing > 0):
            raise ValueError("sample_spacing must be positive")


def sample_depth(bathymetry, sensor: SensorModel, location, rng) -> Sample:
    """Draw one noisy depth measurement at ``location``."""
    truth = bathymetry.depth_at(location)
    noise = float(rng.normal(0.0, sensor.noise_std)) if sensor.noise_std > 0 else 0.0
    return Sample((float(location[0]), float(location[1])), truth + noise)


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
