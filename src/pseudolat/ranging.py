"""Statistical ranging model and measurement-matrix construction.

Measurements are noisy distances from the anchor to the target. The noise
standard deviation grows affinely with the true distance (sigma0 + eta*d);
blocked line-of-sight adds a nonnegative exponential excess-path bias, so
obstacle shadowing shows up as contiguous positively-biased runs (the
"stripes") in the per-revolution measurement matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geometry import (
    CircularTrajectory,
    Position3,
    TrajectorySpec,
    WaypointSeries,
    revolution_period,
)

__all__ = [
    "Obstacle",
    "NoiseModel",
    "RangeMeasurement",
    "MeasurementMatrix",
    "los_blocked",
    "sample_range",
    "collect_measurements",
    "build_measurement_matrix",
    "export_dataset",
    "load_dataset",
]

DATASET_HEADER = "rev,row,x,y,z,d,los,label_x,label_y,label_z"


@dataclass(frozen=True)
class Obstacle:
    """Axis-aligned box that blocks line-of-sight."""

    min_corner: Position3
    max_corner: Position3

    def __post_init__(self):
        lo = self.min_corner.as_array()
        hi = self.max_corner.as_array()
        if not np.all(lo < hi):
            raise ValueError("min_corner must be strictly below max_corner on every axis")


@dataclass(frozen=True)
class NoiseModel:
    """Distance-dependent ranging noise.

    std(d) = sigma0 + eta * d for line-of-sight samples; blocked samples
    additionally pick up an Exponential(nlos_bias_mean) positive bias.
    """

    sigma0: float = 1.0
    eta: float = 0.01
    nlos_bias_mean: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if self.sigma0 < 0 or self.eta < 0 or self.nlos_bias_mean < 0:
            raise ValueError("noise parameters must be nonnegative")

    def sigma(self, d_true: float) -> float:
        return self.sigma0 + self.eta * d_true


@dataclass(frozen=True)
class RangeMeasurement:
    t: float
    anchor: Position3
    d_meas: float
    los: bool

    def __post_init__(self):
        if self.d_meas < 0:
            raise ValueError(f"d_meas must be >= 0, got {self.d_meas}")


@dataclass(frozen=True)
class MeasurementMatrix:
    """One revolution of measurements: rows are [x, y, z, d_meas]."""

    rows: np.ndarray  # (S, 4) float64
    los: np.ndarray  # (S,) bool
    revolution: int
    label: Position3 | None = field(default=None)

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        los = np.asarray(self.los, dtype=bool)
        if rows.ndim != 2 or rows.shape[1] != 4:
            raise ValueError(f"rows must have shape (S, 4), got {rows.shape}")
        if los.shape != (rows.shape[0],):
            raise ValueError("los must have one flag per row")
        rows.setflags(write=False)
        los.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "los", los)


def _segment_hits_box(a: np.ndarray, b: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> bool:
    # Slab test on p(s) = a + s*(b - a), s in [0, 1]; touching counts as a hit.
    d = b - a
    smin, smax = 0.0, 1.0
    for i in range(3):
        if abs(d[i]) < 1e-300:
            if a[i] < lo[i] or a[i] > hi[i]:
                return False
        else:
            s0 = (lo[i] - a[i]) / d[i]
            s1 = (hi[i] - a[i]) / d[i]
            if s0 > s1:
                s0, s1 = s1, s0
            smin = max(smin, s0)
            smax = min(smax, s1)
            if smin > smax:
                return False
    return True


def los_blocked(anchor: Position3, target: Position3, obstacles: Sequence[Obstacle]) -> bool:
    """True iff the anchor-target segment intersects any obstacle box."""
    a = anchor.as_array()
    b = target.as_array()
    if np.array_equal(a, b):
        raise ValueError("anchor and target must not coincide")
    for box in obstacles:
        if _segment_hits_box(a, b, box.min_corner.as_array(), box.max_corner.as_array()):
            return True
    return False


def sample_range(d_true: float, los: bool, model: NoiseModel, rng: np.random.Generator) -> float:
    """One noisy range draw: max(0, d_true + gaussian + nlos_bias).

    The Gaussian draw always happens; the exponential bias draw happens only
    for blocked samples. Negative results clamp to zero so the draw count
    stays fixed.
    """
    if d_true < 0:
        raise ValueError(f"d_true must be >= 0, got {d_true}")
    noise = rng.normal(0.0, model.sigma(d_true))
    bias = 0.0 if los else float(rng.exponential(model.nlos_bias_mean))
    return max(0.0, d_true + noise + bias)


def collect_measurements(
    anchor_path: WaypointSeries,
    target_path: WaypointSeries,
    obstacles: Sequence[Obstacle],
    model: NoiseModel,
) -> list[RangeMeasurement]:
    """Range the target from every anchor waypoint, in time order.

    Both series must share the same time grid. A fresh generator seeded from
    ``model.seed`` is used, so identical inputs give identical measurements.
    """
    if not np.array_equal(anchor_path.t, target_path.t):
        raise ValueError("anchor and target series must share the time grid")
    rng = np.random.default_rng(model.seed)
    out = []
    for k in range(len(anchor_path)):
        anchor = anchor_path.position(k)
        target = target_path.position(k)
        d_true = float(np.linalg.norm(anchor_path.p[k] - target_path.p[k]))
        los = not los_blocked(anchor, target, obstacles)
        d_meas = sample_range(d_true, los, model, rng)
        out.append(RangeMeasurement(float(anchor_path.t[k]), anchor, d_meas, los))
    return out


def build_measurement_matrix(
    measurements: Sequence[RangeMeasurement],
    spec: TrajectorySpec,
    labels: Position3 | Sequence[Position3] | None = None,
) -> list[MeasurementMatrix]:
    """Partition time-ordered measurements into one matrix per revolution.

    The per-revolution sample count comes from the revolution period and the
    (uniform) measurement time step; a trailing incomplete revolution is
    dropped. ``labels`` attaches the true target position to each matrix,
    either one shared position or one per revolution.
    """
    if not isinstance(spec, CircularTrajectory):
        raise ValueError("measurement matrices require a circular trajectory")
    if len(measurements) < 2:
        return []
    t = np.array([m.t for m in measurements])
    if not np.all(np.diff(t) > 0):
        raise ValueError("measurements must be time-ordered")
    dt = float(t[1] - t[0])
    period = revolution_period(spec)
    samples_per_rev = int(round(period / dt))
    if samples_per_rev < 1:
        raise ValueError("time step exceeds the revolution period")
    n_revs = len(measurements) // samples_per_rev

    matrices = []
    for r in range(n_revs):
        chunk = measurements[r * samples_per_rev : (r + 1) * samples_per_rev]
        rows = np.array([[m.anchor.x, m.anchor.y, m.anchor.z, m.d_meas] for m in chunk])
        los = np.array([m.los for m in chunk], dtype=bool)
        if labels is None:
            label = None
        elif isinstance(labels, Position3):
            label = labels
        else:
            label = labels[r]
        matrices.append(MeasurementMatrix(rows=rows, los=los, revolution=r, label=label))
    return matrices


def _fmt(v: float) -> str:
    # Shortest round-trip decimal: re-parsing gives the same float64 bits.
    return repr(float(v))


def export_dataset(matrices: Sequence[MeasurementMatrix], path) -> None:
    """Write matrices as CSV with one line per matrix row.

    Floats use the shortest round-trip decimal form, so re-parsing
    reproduces the arrays bit-exactly. Missing labels are written as nan.
    """
    if not matrices:
        raise ValueError("cannot export an empty matrix list")
    lines = [DATASET_HEADER]
    for m in matrices:
        label = m.label.as_array() if m.label is not None else np.full(3, np.nan)
        for i in range(m.rows.shape[0]):
            x, y, z, d = m.rows[i]
            lines.append(
                f"{m.revolution},{i},{_fmt(x)},{_fmt(y)},{_fmt(z)},{_fmt(d)},"
                f"{int(m.los[i])},{_fmt(label[0])},{_fmt(label[1])},{_fmt(label[2])}"
            )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_dataset(path) -> list[MeasurementMatrix]:
    """Inverse of :func:`export_dataset`."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().split("\n") if ln]
    if not lines or lines[0] != DATASET_HEADER:
        raise ValueError(f"unrecognized dataset header in {path}")
    by_rev: dict[int, list[tuple]] = {}
    for ln in lines[1:]:
        parts = ln.split(",")
        rev = int(parts[0])
        by_rev.setdefault(rev, []).append(parts)
    matrices = []
    for rev in sorted(by_rev):
        parts_list = sorted(by_rev[rev], key=lambda p: int(p[1]))
        rows = np.array([[float(p[2]), float(p[3]), float(p[4]), float(p[5])] for p in parts_list])
        los = np.array([bool(int(p[6])) for p in parts_list])
        lx, ly, lz = (float(parts_list[0][j]) for j in (7, 8, 9))
        label = None if np.isnan(lx) else Position3(lx, ly, lz)
        matrices.append(MeasurementMatrix(rows=rows, los=los, revolution=rev, label=label))
    return matrices
