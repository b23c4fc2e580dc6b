"""Anchor trajectories, waypoint sampling, and mirror-ambiguity geometry.

A single moving anchor flying a level (constant-altitude) path takes range
measurements over time. Circular paths make the joint range problem well
posed; straight paths leave a phantom solution mirrored across the vertical
plane through the flight line. The helpers here generate the paths and
expose that mirror explicitly so solvers and tests can check against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "Position3",
    "CircularTrajectory",
    "LinearTrajectory",
    "TrajectorySpec",
    "WaypointSeries",
    "sample_trajectory",
    "revolution_period",
    "mirror_point",
    "linear_mirror",
]


@dataclass(frozen=True)
class Position3:
    """Cartesian point in meters."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"coordinate {name} must be finite, got {v!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=np.float64)

    @classmethod
    def from_array(cls, a) -> "Position3":
        a = np.asarray(a, dtype=np.float64)
        if a.shape != (3,):
            raise ValueError(f"expected a length-3 vector, got shape {a.shape}")
        return cls(float(a[0]), float(a[1]), float(a[2]))


@dataclass(frozen=True)
class CircularTrajectory:
    """Level circular anchor path around ``center`` (center.z is the altitude)."""

    center: Position3
    radius: float
    angular_speed: float  # rad/s
    phase0: float = 0.0

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError(f"radius must be > 0, got {self.radius}")
        if self.angular_speed <= 0:
            raise ValueError(f"angular_speed must be > 0, got {self.angular_speed}")
        if self.center.z < 0:
            raise ValueError(f"altitude must be >= 0, got {self.center.z}")


@dataclass(frozen=True)
class LinearTrajectory:
    """Level straight-line anchor path: position(t) = start + velocity * t."""

    start: Position3
    velocity: Position3  # m/s, used as a vector

    def __post_init__(self):
        v = self.velocity.as_array()
        if np.linalg.norm(v) == 0.0:
            raise ValueError("velocity must be nonzero")
        if v[2] != 0.0:
            raise ValueError("anchor paths are level: velocity.z must be 0")
        if self.start.z < 0:
            raise ValueError(f"altitude must be >= 0, got {self.start.z}")


TrajectorySpec = Union[CircularTrajectory, LinearTrajectory]


@dataclass(frozen=True)
class WaypointSeries:
    """Time-stamped positions: t has shape (n,), p has shape (n, 3)."""

    t: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=np.float64)
        p = np.asarray(self.p, dtype=np.float64)
        if t.ndim != 1 or t.size < 1:
            raise ValueError("t must be a nonempty 1-D array")
        if p.shape != (t.size, 3):
            raise ValueError(f"p must have shape ({t.size}, 3), got {p.shape}")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("t must be strictly increasing")
        t.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "p", p)

    def __len__(self) -> int:
        return self.t.size

    def position(self, k: int) -> Position3:
        return Position3.from_array(self.p[k])


def sample_trajectory(spec: TrajectorySpec, t0: float, dt: float, n: int) -> WaypointSeries:
    """Sample a trajectory on the uniform grid t_k = t0 + k*dt, k = 0..n-1."""
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    t = t0 + dt * np.arange(n, dtype=np.float64)
    if isinstance(spec, CircularTrajectory):
        phase = spec.phase0 + spec.angular_speed * t
        c = spec.center.as_array()
        p = np.column_stack(
            [
                c[0] + spec.radius * np.cos(phase),
                c[1] + spec.radius * np.sin(phase),
                np.full(n, c[2]),
            ]
        )
    elif isinstance(spec, LinearTrajectory):
        p = spec.start.as_array()[None, :] + t[:, None] * spec.velocity.as_array()[None, :]
    else:
        raise TypeError(f"unknown trajectory spec {type(spec).__name__}")
    return WaypointSeries(t, p)


def revolution_period(spec: TrajectorySpec) -> float:
    """Duration of one full revolution, seconds. Circular trajectories only."""
    if not isinstance(spec, CircularTrajectory):
        raise ValueError("revolution_period requires a circular trajectory")
    return 2.0 * math.pi / spec.angular_speed


def mirror_point(line_point: Position3, line_dir: Position3, target: Position3) -> Position3:
    """Reflect ``target`` across the vertical plane containing a level line.

    ``line_dir`` must be a unit vector with zero vertical component. Every
    point of the line is equidistant from the target and from its mirror,
    which is why a straight level flight cannot distinguish the two.
    """
    d = line_dir.as_array()
    if abs(np.linalg.norm(d) - 1.0) > 1e-9:
        raise ValueError("line_dir must be a unit vector")
    if abs(d[2]) > 1e-12:
        raise ValueError("line_dir must be horizontal (zero vertical component)")
    # Horizontal normal of the vertical plane through the line.
    n = np.array([-d[1], d[0], 0.0])
    offset = float(np.dot(target.as_array() - line_point.as_array(), n))
    return Position3.from_array(target.as_array() - 2.0 * offset * n)


def linear_mirror(spec: LinearTrajectory, target: Position3) -> Position3:
    """Phantom twin of ``target`` under a straight level anchor path."""
    v = spec.velocity.as_array()
    v = v / np.linalg.norm(v)
    return mirror_point(spec.start, Position3.from_array(v), target)
