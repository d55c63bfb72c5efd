"""Tests for the operational area, truth bathymetry models, and depth sounding."""

import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isobath.environment import (
    GP_DRAW_FEATURES_CAP,
    OperationalArea,
    _basins_depth,
    _ridge_depth,
    eval_grid,
    sample_depth,
    synthetic_lake,
)
from isobath.errors import ConfigurationError
from isobath.gp import Sample
from reference import basins_depth_by_sum, ridge_depth_by_sum

AREA = OperationalArea((0.0, 0.0), (200.0, 300.0))

# One lake of each family on AREA.
LAKES = {
    "plane": {"depth0": 5.0, "gradient_north": 0.1, "gradient_east": 0.02},
    "gaussian-basin": {
        "background": 5.0, "center": (100.0, 150.0), "radius": 80.0, "max_depth": 25.0,
    },
    "two-basin": {
        "background": 5.0, "center1": (50.0, 80.0), "radius1": 40.0,
        "max_depth1": 22.0, "center2": (150.0, 220.0), "radius2": 50.0,
        "max_depth2": 28.0,
    },
    # Askew to both axes, so that the projection onto it rounds.
    "ridge": {
        "background": 22.0, "start": (10.0, 40.0), "end": (190.0, 260.0),
        "height": 12.0, "width": 30.0,
    },
    "gp-draw": {
        "mean": 15.0, "variance": 25.0, "length_scale": 60.0, "draw": 3, "features": 300,
    },
}


def depth_of(lake, point) -> float:
    """The lake's depth at one point, from a one-row evaluation."""
    return float(lake(np.array([point], dtype=float))[0])


# ---------------------------------------------------------------------------
# OperationalArea


def test_area_extent_and_containment():
    assert AREA.extent == (200.0, 300.0)


def test_area_rejects_degenerate_rectangle():
    with pytest.raises(ConfigurationError):
        OperationalArea((0.0, 0.0), (0.0, 100.0))
    with pytest.raises(ConfigurationError):
        OperationalArea((10.0, 0.0), (5.0, 100.0))


# ---------------------------------------------------------------------------
# Analytic bathymetry


def test_analytic_depth_grid_evaluates_its_function_row_by_row():
    lake = synthetic_lake(
        "plane", {"depth0": 3.0, "gradient_north": 0.1, "gradient_east": -0.05}, AREA
    )
    pts = np.array([[0.0, 0.0], [10.0, 20.0], [100.0, 5.0]])
    grid = lake(pts)
    assert grid.shape == (3,)
    for k, p in enumerate(pts):
        assert depth_of(lake, p) == grid[k]
    assert depth_of(lake, (10.0, 20.0)) == pytest.approx(3.0 + 1.0 - 1.0)


@pytest.mark.parametrize("family", sorted(LAKES))
def test_every_family_depth_is_independent_of_the_batch(family):
    # The mission sounds a whole segment in one call, so a depth must not
    # depend on which points are evaluated with it: batches of any size
    # give the bits that one-row evaluations give.
    lake = synthetic_lake(family, LAKES[family], AREA)
    rng = np.random.default_rng(7)
    pts = rng.uniform((-100.0, -100.0), (300.0, 400.0), size=(600, 2))
    one_by_one = np.array([depth_of(lake, p) for p in pts])
    for size in (2, 3, 5, 7, len(pts)):
        batched = np.concatenate(
            [lake(pts[i:i + size]) for i in range(0, len(pts), size)]
        )
        assert np.array_equal(batched, one_by_one), (family, size)


# ---------------------------------------------------------------------------
# The depth functions keep the bits of the numpy forms they replaced


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


# Near the lake, and as far as a float32 reach box allows.
_coordinate = st.one_of(
    st.floats(-1e3, 1e3), st.floats(-1e-3, 1e-3), st.floats(-1e37, 1e37)
)
_point = st.tuples(_coordinate, _coordinate)
_points = st.lists(_point, min_size=1, max_size=9).map(np.array)
# Down to radii whose doubled square is subnormal, where the exponent
# overflows a short way from the peak.
_radius = st.one_of(
    st.floats(1e-3, 1e4), st.floats(1e-161, 1e-150), st.floats(1e10, 1e30)
).filter(lambda r: 2 * r * r > 0)
_depth = st.floats(-100.0, 100.0)


@given(
    background=_depth,
    basins=st.lists(st.tuples(_point, _radius, _depth), min_size=1, max_size=2),
    pts=_points,
)
@settings(max_examples=300, deadline=None)
def test_basin_depths_keep_the_bits_of_the_summed_squares(background, basins, pts):
    # One basin is the gaussian-basin family, two the two-basin family.
    basins = tuple((np.array(c), r, a) for c, r, a in basins)
    want = basins_depth_by_sum(background, basins, pts)
    assert _bits(_basins_depth(background, basins, pts)) == _bits(want)


@given(
    background=_depth, start=_point, end=_point, height=_depth, width=_radius,
    pts=_points,
)
@settings(max_examples=300, deadline=None)
def test_ridge_depths_keep_the_bits_of_the_summed_squares(
    background, start, end, height, width, pts
):
    start = np.array(start)
    seg = np.array(end) - start
    seg_len2 = float(seg @ seg)
    if not 0 < seg_len2 < math.inf:
        return
    args = (background, start, seg, seg_len2, height, width)
    assert _bits(_ridge_depth(*args, pts)) == _bits(ridge_depth_by_sum(*args, pts))


# ---------------------------------------------------------------------------
# Synthetic lake families


def test_plane_family_matches_its_gradient():
    lake = synthetic_lake(
        "plane",
        {"depth0": 5.0, "gradient_north": 0.1, "gradient_east": 0.02},
        AREA,
    )
    assert depth_of(lake, (0.0, 0.0)) == pytest.approx(5.0)
    assert depth_of(lake, (100.0, 50.0)) == pytest.approx(5.0 + 10.0 + 1.0)


def test_gaussian_basin_peaks_at_its_center():
    lake = synthetic_lake(
        "gaussian-basin",
        {"background": 5.0, "center": (100.0, 150.0), "radius": 80.0, "max_depth": 25.0},
        AREA,
    )
    assert depth_of(lake, (100.0, 150.0)) == pytest.approx(25.0)
    # One radius out the excess depth decays by exp(-1/2).
    expected = 5.0 + 20.0 * math.exp(-0.5)
    assert depth_of(lake, (180.0, 150.0)) == pytest.approx(expected)
    assert depth_of(lake, (100.0, 70.0)) == pytest.approx(expected)


def test_two_basin_family_superposes_both_wells():
    params = {
        "background": 5.0,
        "center1": (50.0, 80.0),
        "radius1": 40.0,
        "max_depth1": 22.0,
        "center2": (150.0, 220.0),
        "radius2": 50.0,
        "max_depth2": 28.0,
    }
    lake = synthetic_lake("two-basin", params, AREA)
    d12 = (50.0 - 150.0) ** 2 + (80.0 - 220.0) ** 2
    at_c1 = 5.0 + 17.0 + 23.0 * math.exp(-d12 / (2 * 50.0**2))
    at_c2 = 5.0 + 23.0 + 17.0 * math.exp(-d12 / (2 * 40.0**2))
    assert depth_of(lake, (50.0, 80.0)) == pytest.approx(at_c1)
    assert depth_of(lake, (150.0, 220.0)) == pytest.approx(at_c2)


def test_ridge_family_is_shallowest_on_the_crest():
    lake = synthetic_lake(
        "ridge",
        {
            "background": 22.0,
            "start": (0.0, 150.0),
            "end": (200.0, 150.0),
            "height": 12.0,
            "width": 30.0,
        },
        AREA,
    )
    # Any point on the segment sits on the crest: depth = background - height.
    assert depth_of(lake, (100.0, 150.0)) == pytest.approx(10.0)
    assert depth_of(lake, (30.0, 150.0)) == pytest.approx(10.0)
    # Off-crest it deepens back toward the background.
    assert depth_of(lake, (100.0, 240.0)) > 20.0


def test_gp_draw_is_the_random_feature_sum_of_its_draw():
    params = LAKES["gp-draw"]
    lake = synthetic_lake("gp-draw", params, AREA)
    rng = np.random.default_rng(params["draw"])
    omega = rng.normal(size=(params["features"], 2)) / params["length_scale"]
    phase = rng.uniform(0.0, 2 * math.pi, size=params["features"])
    scale = math.sqrt(2 * params["variance"] / params["features"])
    for point in [(0.0, 0.0), (37.5, 212.25), (-1e5, 3e6)]:
        terms = [math.cos(w[0] * point[0] + w[1] * point[1] + b) for w, b in zip(omega, phase)]
        want = params["mean"] + scale * math.fsum(terms)
        assert depth_of(lake, point) == pytest.approx(want, rel=1e-12, abs=1e-9)
    # Plain data: a pickled lake gives the same depths.
    grid = eval_grid(AREA, 25.0)
    assert _bits(pickle.loads(pickle.dumps(lake))(grid)) == _bits(lake(grid))


def test_gp_draw_features_reproduce_the_squared_exponential_kernel():
    # sf^2 / D * sum_i 2 cos(w_i.x + b_i) cos(w_i.y + b_i) estimates
    # sf^2 exp(-|x - y|^2 / (2 l^2)), to about sf^2 / sqrt(D).
    params = dict(LAKES["gp-draw"], features=GP_DRAW_FEATURES_CAP, draw=11)
    _, scale, w_north, w_east, phase = synthetic_lake("gp-draw", params, AREA).args
    x = np.array([100.0, 150.0])
    for r in (0.0, 30.0, 60.0, 120.0, 240.0):
        y = x + r * np.array([0.6, 0.8])
        fx = np.cos(w_north * x[0] + w_east * x[1] + phase)
        fy = np.cos(w_north * y[0] + w_east * y[1] + phase)
        covariance = scale * scale * float(fx @ fy)
        kernel = params["variance"] * math.exp(-r * r / (2 * params["length_scale"] ** 2))
        assert covariance == pytest.approx(kernel, abs=0.06 * params["variance"])


@pytest.mark.parametrize("change, message", [
    ({"features": 0}, "gp-draw features must be an integer 1..4096, not 0"),
    ({"features": GP_DRAW_FEATURES_CAP + 1}, "gp-draw features must be an integer 1..4096"),
    ({"features": 20.0}, "gp-draw features must be an integer"),
    ({"features": True}, "gp-draw features must be an integer"),
    ({"draw": -1}, "gp-draw draw must be an integer at least 0, not -1"),
    ({"draw": 1.5}, "gp-draw draw must be an integer"),
    ({"variance": 0.0}, "variance and length_scale must be positive"),
    ({"length_scale": -60.0}, "variance and length_scale must be positive"),
    ({"length_scale": 1e-310}, "length_scale 1e-310 is too small for the reach"),
    ({"variance": 1e80}, "past float32"),
    ({"mean": 200.0}, "does not intersect the area"),
])
def test_gp_draw_rejects_what_it_cannot_draw(change, message):
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        synthetic_lake("gp-draw", dict(LAKES["gp-draw"], **change), AREA)


def test_gp_draw_float32_bound_is_the_mean_plus_every_feature_at_full_scale():
    # |mean| + sqrt(2 variance D) = 15 + sqrt(2 * 25 * 300) = 137.47 m.
    with pytest.raises(ConfigurationError, match=r"readings may reach 137 m"):
        synthetic_lake("gp-draw", LAKES["gp-draw"], AREA, noise_std=1e38)
    # Phases must stay finite at the far corner of the reach.
    far = OperationalArea((0.0, 0.0), (1e300, 300.0))
    with pytest.raises(ConfigurationError, match="too small for the reach"):
        synthetic_lake("gp-draw", dict(LAKES["gp-draw"], length_scale=1e-10), AREA,
                       reach=far)


def test_unknown_family_and_missing_params_raise():
    with pytest.raises(ConfigurationError):
        synthetic_lake("volcano", {}, AREA)
    with pytest.raises(ConfigurationError):
        synthetic_lake("plane", {"depth0": 5.0}, AREA)
    with pytest.raises(ConfigurationError):
        synthetic_lake(
            "gaussian-basin",
            {"background": 5.0, "center": (0, 0), "radius": -1.0, "max_depth": 25.0},
            AREA,
        )


def test_lake_must_straddle_the_critical_level():
    # A constant 20 m plane never crosses the 15 m contour.
    with pytest.raises(ConfigurationError):
        synthetic_lake(
            "plane",
            {"depth0": 20.0, "gradient_north": 0.0, "gradient_east": 0.0},
            AREA,
        )
    # The same field is fine when the level is chosen inside its range.
    synthetic_lake(
        "plane",
        {"depth0": 10.0, "gradient_north": 0.1, "gradient_east": 0.0},
        AREA,
        level=15.0,
    )


def test_depths_must_round_to_finite_float32_where_the_vehicles_go():
    # Packets carry depths in float32. A plane's extremes over a box lie at
    # its corners: 2e37 m at the area's far corner, 1e39 m 10 km north.
    plane = {"depth0": 10.0, "gradient_north": 1e35, "gradient_east": 0.0}
    synthetic_lake("plane", plane, AREA)
    with pytest.raises(ConfigurationError, match="float32"):
        synthetic_lake("plane", plane, AREA, reach=OperationalArea((0, 0), (1e4, 300)))
    # A basin stays within its background plus its amplitude. Past
    # float32's largest finite value, a depth still fits until it rounds
    # to infinity.
    basin = dict(LAKES["gaussian-basin"], background=0.0, radius=5.0)
    top = float(np.finfo(np.float32).max)
    synthetic_lake("gaussian-basin", dict(basin, max_depth=top + 1e31), AREA)
    with pytest.raises(ConfigurationError, match="float32"):
        synthetic_lake("gaussian-basin", dict(basin, max_depth=2.0**128), AREA)


# ---------------------------------------------------------------------------
# Sensor


def test_noiseless_sensor_returns_truth():
    lake = synthetic_lake("gaussian-basin", LAKES["gaussian-basin"], AREA)
    rng = np.random.default_rng(0)
    pts = np.array([[100.0, 150.0], [0.0, 0.0], [37.5, 212.25], [180.0, 150.0]])
    samples = sample_depth(lake, 0.0, pts, rng)
    assert len(samples) == len(pts)
    for s, p in zip(samples, pts):
        assert isinstance(s, Sample)
        assert s.location == (p[0], p[1])
        assert s.value == depth_of(lake, p)
    assert samples[0].value == pytest.approx(25.0, abs=0.0)
    assert sample_depth(lake, 0.0, np.empty((0, 2)), rng) == []


def test_noisy_sensor_is_unbiased_with_matching_spread():
    def lake(pts):
        return np.full(pts.shape[0], 12.0)

    rng = np.random.default_rng(42)
    pts = np.tile([10.0, 10.0], (4000, 1))
    values = np.array([s.value for s in sample_depth(lake, 0.5, pts, rng)])
    assert values.mean() == pytest.approx(12.0, abs=0.05)
    assert values.std() == pytest.approx(0.5, abs=0.05)


def test_sensor_draws_are_seed_reproducible():
    def lake(pts):
        return np.full(pts.shape[0], 12.0)

    pts = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0], [9.0, 10.0]])
    a = sample_depth(lake, 0.5, pts, np.random.default_rng(3))
    b = sample_depth(lake, 0.5, pts, np.random.default_rng(3))
    assert a == b
    assert len({s.value for s in a}) == len(pts)
    # One call draws what one call per row draws from the same generator.
    rng = np.random.default_rng(3)
    assert [sample_depth(lake, 0.5, [p], rng)[0] for p in pts] == a


# ---------------------------------------------------------------------------
# Evaluation grid


def test_eval_grid_shape_ordering_and_endpoints():
    pts = eval_grid(AREA, resolution=50.0)
    # 5 north rows x 7 east columns, east varies fastest.
    assert pts.shape == (35, 2)
    np.testing.assert_array_equal(pts[0], [0.0, 0.0])
    np.testing.assert_array_equal(pts[1], [0.0, 50.0])
    np.testing.assert_array_equal(pts[6], [0.0, 300.0])
    np.testing.assert_array_equal(pts[7], [50.0, 0.0])
    np.testing.assert_array_equal(pts[-1], [200.0, 300.0])


def test_eval_grid_offsets_follow_the_min_corner():
    area = OperationalArea((10.0, 20.0), (60.0, 70.0))
    pts = eval_grid(area, resolution=25.0)
    assert pts.shape == (9, 2)
    assert pts[:, 0].min() == 10.0 and pts[:, 0].max() == 60.0
    assert pts[:, 1].min() == 20.0 and pts[:, 1].max() == 70.0


def test_eval_grid_rejects_nonpositive_resolution():
    with pytest.raises(ConfigurationError):
        eval_grid(AREA, resolution=0.0)
