"""Tests for the operational area, truth bathymetry models, and sensor."""

import math

import numpy as np
import pytest

from isobath.environment import (
    AnalyticBathymetry,
    GriddedBathymetry,
    OperationalArea,
    SensorModel,
    eval_grid,
    sample_depth,
    synthetic_lake,
)
from isobath.errors import ConfigurationError, DomainError
from isobath.gp import Sample

AREA = OperationalArea((0.0, 0.0), (200.0, 300.0))


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


def test_analytic_depth_at_matches_grid_evaluation():
    bathy = AnalyticBathymetry(lambda pts: 3.0 + 0.1 * pts[:, 0] - 0.05 * pts[:, 1])
    pts = np.array([[0.0, 0.0], [10.0, 20.0], [100.0, 5.0]])
    grid = bathy.depth_grid(pts)
    assert grid.shape == (3,)
    for k, p in enumerate(pts):
        assert bathy.depth_at(p) == pytest.approx(grid[k], abs=0.0)
    assert bathy.depth_at((10.0, 20.0)) == pytest.approx(3.0 + 1.0 - 1.0)


# ---------------------------------------------------------------------------
# Gridded bathymetry


def bilinear_fixture():
    norths = np.arange(0.0, 101.0, 20.0)
    easts = np.arange(0.0, 61.0, 10.0)
    nn, ee = np.meshgrid(norths, easts, indexing="ij")
    depths = 2.0 + 0.05 * nn + 0.025 * ee + 0.001 * nn * ee
    return GriddedBathymetry(norths, easts, depths)


def test_bilinear_interpolation_is_exact_for_bilinear_fields():
    grid = bilinear_fixture()
    rng = np.random.default_rng(7)
    pts = np.column_stack(
        [rng.uniform(0.0, 100.0, size=50), rng.uniform(0.0, 60.0, size=50)]
    )
    expected = 2.0 + 0.05 * pts[:, 0] + 0.025 * pts[:, 1] + 0.001 * pts[:, 0] * pts[:, 1]
    np.testing.assert_allclose(grid.depth_grid(pts), expected, atol=1e-9)


def test_grid_nodes_reproduce_exactly():
    grid = bilinear_fixture()
    for i, n in enumerate(grid.norths):
        for j, e in enumerate(grid.easts):
            assert grid.depth_at((n, e)) == pytest.approx(grid.depths[i, j], abs=1e-9)


def test_queries_outside_hull_raise():
    grid = bilinear_fixture()
    with pytest.raises(DomainError):
        grid.depth_at((-1.0, 30.0))
    with pytest.raises(DomainError):
        grid.depth_at((50.0, 60.5))
    with pytest.raises(DomainError):
        grid.depth_grid(np.array([[50.0, 30.0], [101.0, 30.0]]))


def test_grid_validation_rejects_bad_lattices():
    n = np.array([0.0, 10.0, 20.0])
    e = np.array([0.0, 10.0])
    with pytest.raises(ConfigurationError):
        GriddedBathymetry(n, e, np.zeros((2, 2)))  # shape mismatch
    with pytest.raises(ConfigurationError):
        GriddedBathymetry(np.array([0.0]), e, np.zeros((1, 2)))  # too few nodes
    with pytest.raises(ConfigurationError):
        GriddedBathymetry(np.array([0.0, 10.0, 15.0]), e, np.zeros((3, 2)))  # uneven
    with pytest.raises(ConfigurationError):
        GriddedBathymetry(np.array([0.0, -10.0, -20.0]), e, np.zeros((3, 2)))
    bad = np.zeros((3, 2))
    bad[1, 1] = np.nan
    with pytest.raises(ConfigurationError):
        GriddedBathymetry(n, e, bad)


def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(11)
    norths = np.arange(0.0, 50.0, 12.5)
    easts = np.arange(5.0, 40.0, 7.5)
    depths = rng.uniform(1.0, 30.0, size=(norths.size, easts.size))
    grid = GriddedBathymetry(norths, easts, depths)
    path = tmp_path / "bathy.csv"
    grid.write_csv(path)

    header = path.read_text().splitlines()[0]
    assert header == "north_m,east_m,depth_m"

    back = GriddedBathymetry.read_csv(path)
    np.testing.assert_array_equal(back.norths, grid.norths)
    np.testing.assert_array_equal(back.easts, grid.easts)
    np.testing.assert_array_equal(back.depths, grid.depths)


def test_csv_rejects_bad_header_and_incomplete_lattice(tmp_path):
    bad_header = tmp_path / "bad_header.csv"
    bad_header.write_text("north,east,depth\n0.0,0.0,1.0\n")
    with pytest.raises(ConfigurationError):
        GriddedBathymetry.read_csv(bad_header)

    holes = tmp_path / "holes.csv"
    holes.write_text(
        "north_m,east_m,depth_m\n"
        "0.0,0.0,1.0\n0.0,10.0,2.0\n10.0,0.0,3.0\n"
    )
    with pytest.raises(ConfigurationError):
        GriddedBathymetry.read_csv(holes)

    empty = tmp_path / "empty.csv"
    empty.write_text("north_m,east_m,depth_m\n")
    with pytest.raises(ConfigurationError):
        GriddedBathymetry.read_csv(empty)


# ---------------------------------------------------------------------------
# Synthetic lake families


def test_plane_family_matches_its_gradient():
    lake = synthetic_lake(
        "plane",
        {"depth0": 5.0, "gradient_north": 0.1, "gradient_east": 0.02},
        AREA,
    )
    assert lake.depth_at((0.0, 0.0)) == pytest.approx(5.0)
    assert lake.depth_at((100.0, 50.0)) == pytest.approx(5.0 + 10.0 + 1.0)


def test_gaussian_basin_peaks_at_its_center():
    lake = synthetic_lake(
        "gaussian-basin",
        {"background": 5.0, "center": (100.0, 150.0), "radius": 80.0, "max_depth": 25.0},
        AREA,
    )
    assert lake.depth_at((100.0, 150.0)) == pytest.approx(25.0)
    # One radius out the excess depth decays by exp(-1/2).
    expected = 5.0 + 20.0 * math.exp(-0.5)
    assert lake.depth_at((180.0, 150.0)) == pytest.approx(expected)
    assert lake.depth_at((100.0, 70.0)) == pytest.approx(expected)


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
    assert lake.depth_at((50.0, 80.0)) == pytest.approx(at_c1)
    assert lake.depth_at((150.0, 220.0)) == pytest.approx(at_c2)


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
    assert lake.depth_at((100.0, 150.0)) == pytest.approx(10.0)
    assert lake.depth_at((30.0, 150.0)) == pytest.approx(10.0)
    # Off-crest it deepens back toward the background.
    assert lake.depth_at((100.0, 240.0)) > 20.0


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


# ---------------------------------------------------------------------------
# Sensor


def test_sensor_model_validation():
    with pytest.raises(ValueError):
        SensorModel(noise_std=-0.1)
    with pytest.raises(ValueError):
        SensorModel(noise_std=0.5, sample_spacing=0.0)


def test_noiseless_sensor_returns_truth():
    lake = synthetic_lake(
        "gaussian-basin",
        {"background": 5.0, "center": (100.0, 150.0), "radius": 80.0, "max_depth": 25.0},
        AREA,
    )
    sensor = SensorModel(noise_std=0.0)
    rng = np.random.default_rng(0)
    s = sample_depth(lake, sensor, (100.0, 150.0), rng)
    assert isinstance(s, Sample)
    assert s.location == (100.0, 150.0)
    assert s.value == pytest.approx(25.0, abs=0.0)


def test_noisy_sensor_is_unbiased_with_matching_spread():
    lake = AnalyticBathymetry(lambda pts: np.full(pts.shape[0], 12.0))
    sensor = SensorModel(noise_std=0.5)
    rng = np.random.default_rng(42)
    values = np.array(
        [sample_depth(lake, sensor, (10.0, 10.0), rng).value for _ in range(4000)]
    )
    assert values.mean() == pytest.approx(12.0, abs=0.05)
    assert values.std() == pytest.approx(0.5, abs=0.05)


def test_sensor_draws_are_seed_reproducible():
    lake = AnalyticBathymetry(lambda pts: np.full(pts.shape[0], 12.0))
    sensor = SensorModel(noise_std=0.5)
    a = [sample_depth(lake, sensor, (1.0, 2.0), np.random.default_rng(3)).value]
    b = [sample_depth(lake, sensor, (1.0, 2.0), np.random.default_rng(3)).value]
    assert a == b


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
