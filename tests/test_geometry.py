import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudolat.geometry import (
    CircularTrajectory,
    LinearTrajectory,
    Position3,
    linear_mirror,
    mirror_point,
    revolution_period,
    sample_trajectory,
)
from pseudolat.ranging import _distances


def test_position_requires_finite():
    with pytest.raises(ValueError):
        Position3(0.0, float("nan"), 0.0)
    with pytest.raises(ValueError):
        Position3(float("inf"), 0.0, 0.0)


def test_circular_sampling_half_period_symmetry():
    spec = CircularTrajectory(center=Position3(0, 0, 100), radius=50, angular_speed=math.pi)
    wps = sample_trajectory(spec, t0=0.0, dt=1.0, n=3)
    expected = np.array([[50, 0, 100], [-50, 0, 100], [50, 0, 100]], dtype=float)
    assert np.allclose(wps.p, expected, atol=1e-9)
    assert np.allclose(wps.t, [0.0, 1.0, 2.0])


def test_linear_sampling():
    spec = LinearTrajectory(start=Position3(0, 0, 100), velocity=Position3(10, 0, 0))
    wps = sample_trajectory(spec, t0=0.0, dt=1.0, n=2)
    assert np.allclose(wps.p, [[0, 0, 100], [10, 0, 100]])


def test_linear_sampling_uses_absolute_time():
    spec = LinearTrajectory(start=Position3(0, 0, 100), velocity=Position3(10, 0, 0))
    wps = sample_trajectory(spec, t0=2.0, dt=0.5, n=2)
    assert np.allclose(wps.p, [[20, 0, 100], [25, 0, 100]])


def test_full_revolution_closes():
    spec = CircularTrajectory(center=Position3(0, 0, 100), radius=50, angular_speed=2 * math.pi / 60)
    wps = sample_trajectory(spec, t0=0.0, dt=1.0, n=61)
    assert np.linalg.norm(wps.p[0] - wps.p[60]) < 1e-9


def test_sampling_rejects_bad_grid():
    spec = LinearTrajectory(start=Position3(0, 0, 100), velocity=Position3(10, 0, 0))
    with pytest.raises(ValueError):
        sample_trajectory(spec, 0.0, 0.0, 5)
    with pytest.raises(ValueError):
        sample_trajectory(spec, 0.0, -1.0, 5)
    with pytest.raises(ValueError):
        sample_trajectory(spec, 0.0, 1.0, 0)


@pytest.mark.parametrize(
    "omega, period",
    [(2 * math.pi / 60, 60.0), (math.pi, 2.0), (0.1, 2 * math.pi / 0.1)],
)
def test_revolution_period(omega, period):
    spec = CircularTrajectory(center=Position3(0, 0, 50), radius=10, angular_speed=omega)
    assert revolution_period(spec) == pytest.approx(period, abs=1e-10)


def test_revolution_period_rejects_linear():
    spec = LinearTrajectory(start=Position3(0, 0, 100), velocity=Position3(10, 0, 0))
    with pytest.raises(ValueError):
        revolution_period(spec)


def test_mirror_point_reflection():
    got = mirror_point(Position3(0, 0, 100), Position3(1, 0, 0), Position3(3, 4, 0))
    assert np.allclose(got.as_array(), [3, -4, 0])


def test_mirror_point_fixed_point_on_plane():
    got = mirror_point(Position3(0, 0, 100), Position3(1, 0, 0), Position3(3, 0, 0))
    assert np.allclose(got.as_array(), [3, 0, 0])


def test_mirror_point_rejects_non_unit_or_tilted():
    with pytest.raises(ValueError):
        mirror_point(Position3(0, 0, 0), Position3(2, 0, 0), Position3(1, 1, 0))
    with pytest.raises(ValueError):
        mirror_point(Position3(0, 0, 0), Position3(0, 0, 1), Position3(1, 1, 0))


def test_mirror_preserves_distance_to_line_samples():
    # Direct evaluation of both distances at random points of the line.
    rng = np.random.default_rng(7)
    line_point = Position3(5.0, -3.0, 80.0)
    direction = Position3(0.6, 0.8, 0.0)
    target = Position3(-20.0, 14.0, 0.0)
    mirror = mirror_point(line_point, direction, target)
    for _ in range(20):
        s = rng.uniform(-100, 100)
        p = line_point.as_array() + s * direction.as_array()
        to_target, to_mirror = _distances(p[None], np.stack([target.as_array(), mirror.as_array()]))
        assert abs(to_target - to_mirror) < 1e-9


@pytest.mark.parametrize(
    "a, b, expected",
    [
        (Position3(0, 0, 0), Position3(3, 4, 0), 5.0),
        (Position3(1, 1, 1), Position3(1, 1, 1), 0.0),
        (Position3(0, 0, 100), Position3(60, 80, 100), 100.0),
    ],
)
def test_distance(a, b, expected):
    assert _distances(a.as_array()[None], b.as_array()[None])[0] == pytest.approx(expected, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    vx=st.floats(-20, 20),
    vy=st.floats(-20, 20),
    tx=st.floats(-200, 200),
    ty=st.floats(-200, 200),
)
def test_linear_mirror_matches_all_waypoint_distances(vx, vy, tx, ty):
    if math.hypot(vx, vy) < 1e-3:
        return
    spec = LinearTrajectory(start=Position3(1.0, 2.0, 100.0), velocity=Position3(vx, vy, 0.0))
    target = Position3(tx, ty, 0.0)
    mirror = linear_mirror(spec, target)
    wps = sample_trajectory(spec, 0.0, 0.7, 25)
    d_target = np.linalg.norm(wps.p - target.as_array(), axis=1)
    d_mirror = np.linalg.norm(wps.p - mirror.as_array(), axis=1)
    assert np.max(np.abs(d_target - d_mirror)) < 1e-9


def test_circular_non_degeneracy_no_common_mirror_plane():
    # Brute force over candidate reflection planes: for a circular path no
    # single reflection preserves every waypoint distance to an off-axis
    # target unless it maps the target to itself.
    spec = CircularTrajectory(center=Position3(0, 0, 100), radius=50, angular_speed=2 * math.pi / 60)
    wps = sample_trajectory(spec, 0.0, 1.0, 60)
    target = np.array([20.0, -10.0, 0.0])
    d_true = np.linalg.norm(wps.p - target, axis=1)
    for angle in np.linspace(0, math.pi, 37):
        normal = np.array([math.cos(angle), math.sin(angle), 0.0])
        for offset in np.linspace(-60, 60, 41):
            candidate = target - 2 * (np.dot(target, normal) - offset) * normal
            if np.linalg.norm(candidate - target) < 1.0:
                continue
            d_cand = np.linalg.norm(wps.p - candidate, axis=1)
            assert np.max(np.abs(d_cand - d_true)) > 1e-6


def test_waypoint_series_validation():
    from pseudolat.geometry import WaypointSeries

    with pytest.raises(ValueError):
        WaypointSeries(np.array([0.0, 0.0]), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        WaypointSeries(np.array([0.0, 1.0]), np.zeros((3, 3)))
