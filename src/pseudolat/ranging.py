"""Statistical ranging model and the measurement-matrix dataset format.

Measurements are noisy distances from the anchor to the target. The noise
standard deviation grows affinely with the true distance (sigma0 + eta*d);
blocked line-of-sight adds a nonnegative exponential excess-path bias, so
obstacle shadowing shows up as contiguous positively-biased runs (the
"stripes") in the per-revolution measurement matrices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geometry import Position3, WaypointSeries

__all__ = [
    "Obstacle",
    "NoiseModel",
    "RangeMeasurement",
    "MeasurementMatrix",
    "los_blocked",
    "collect_measurements",
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

    def __post_init__(self):
        if self.sigma0 < 0 or self.eta < 0 or self.nlos_bias_mean < 0:
            raise ValueError("noise parameters must be nonnegative")

    def sigma(self, d_true):
        """Range std at true distance(s) ``d_true``, a float or an array."""
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


def _line_of_sight(anchor_p: np.ndarray, target_p: np.ndarray, obstacles: Sequence[Obstacle]) -> np.ndarray:
    """(S,) True where the segment from ``anchor_p[k]`` to ``target_p[k]``
    clears every obstacle box; both arrays are (S, 3) and must be finite.

    Slab test on p(s) = a + s*(b - a), s in [0, 1], for all samples and
    boxes at once; touching a box counts as a hit. An axis with
    |b_i - a_i| < 1e-300 is parallel to the slab: the segment misses when a_i
    lies outside [lo_i, hi_i], and the axis puts no bound on s.
    """
    if not (np.isfinite(anchor_p).all() and np.isfinite(target_p).all()):
        raise ValueError("anchor and target positions must be finite")
    if np.any(np.all(anchor_p == target_p, axis=1)):
        raise ValueError("anchor and target must not coincide")
    if not obstacles:
        return np.ones(anchor_p.shape[0], dtype=bool)
    lo = np.array([box.min_corner.as_array() for box in obstacles])[None]  # (1, B, 3)
    hi = np.array([box.max_corner.as_array() for box in obstacles])[None]
    a, d = anchor_p[:, None, :], (target_p - anchor_p)[:, None, :]  # (S, 1, 3)
    parallel = np.abs(d) < 1e-300
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s0 = (lo - a) / d
        s1 = (hi - a) / d
    smin = np.where(parallel, -np.inf, np.minimum(s0, s1)).max(axis=2, initial=0.0)
    smax = np.where(parallel, np.inf, np.maximum(s0, s1)).min(axis=2, initial=1.0)
    outside = parallel & ((a < lo) | (a > hi))
    hit = (smin <= smax) & ~outside.any(axis=2)  # (S, B)
    return ~hit.any(axis=1)


def los_blocked(anchor: Position3, target: Position3, obstacles: Sequence[Obstacle]) -> bool:
    """True iff the anchor-target segment intersects any obstacle box."""
    return not _line_of_sight(anchor.as_array()[None], target.as_array()[None], obstacles)[0]


def _distances(anchor_p: np.ndarray, target_p: np.ndarray) -> np.ndarray:
    # A stacked matmul reduces each row with the same dot product as
    # np.linalg.norm of that row, so the bits agree; an elementwise sum of
    # squares does not.
    diff = anchor_p - target_p
    return np.sqrt((diff[:, None, :] @ diff[:, :, None])[:, 0, 0])


def _ranges(
    anchor_p: np.ndarray,
    target_p: np.ndarray,
    obstacles: Sequence[Obstacle],
    model: NoiseModel,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Noisy ranges ``d_meas`` (S,) and LoS flags (S,) of the (S, 3) paths.

    Each sample draws max(0, d_true + N(0, sigma0 + eta * d_true) + bias),
    where only a blocked sample adds an Exponential(nlos_bias_mean) bias.
    The draws come from one generator seeded from ``seed`` in the
    order of the per-sample loop in ``tests/ranging_reference.py``, which
    the tests check bit for bit: one normal per sample, an exponential
    right after each blocked sample's normal. A maximal run of LoS samples
    takes its normals in one call.
    """
    los = _line_of_sight(anchor_p, target_p, obstacles)
    d_true = _distances(anchor_p, target_p)
    sigma = model.sigma(d_true)
    rng = np.random.default_rng(seed)
    noise = np.empty_like(d_true)
    bias = np.zeros_like(d_true)
    start = 0
    for k in np.flatnonzero(~los):
        noise[start:k] = rng.normal(0.0, sigma[start:k])
        noise[k] = rng.normal(0.0, sigma[k])
        bias[k] = rng.exponential(model.nlos_bias_mean)
        start = k + 1
    noise[start:] = rng.normal(0.0, sigma[start:])
    d = (d_true + noise) + bias
    return np.where(d > 0.0, d, 0.0), los


def collect_measurements(
    anchor_path: WaypointSeries,
    target_path: WaypointSeries,
    obstacles: Sequence[Obstacle],
    model: NoiseModel,
    seed: int,
) -> list[RangeMeasurement]:
    """Range the target from every anchor waypoint, in time order.

    Both series must share the same time grid. A fresh generator seeded from
    ``seed`` is used, so identical inputs give identical measurements.
    """
    if not np.array_equal(anchor_path.t, target_path.t):
        raise ValueError("anchor and target series must share the time grid")
    d, los = _ranges(anchor_path.p, target_path.p, obstacles, model, seed)
    return [
        RangeMeasurement(float(anchor_path.t[k]), anchor_path.position(k), float(d[k]), bool(los[k]))
        for k in range(len(anchor_path))
    ]


def _fmt(v: float) -> str:
    # Shortest round-trip decimal: re-parsing gives the same float64 bits.
    return repr(float(v))


def _write_lines(path, lines: Sequence[str]) -> None:
    """Write ``lines`` as one artifact: UTF-8, LF line ends, a final newline."""
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(path, payload) -> None:
    """Write ``payload`` as strict JSON, indented by 2 with sorted keys.

    The payload is encoded before the file opens, so a NaN or infinity
    raises ValueError and leaves no file.
    """
    _write_lines(path, [json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)])


def export_dataset(matrices: Sequence[MeasurementMatrix], path) -> None:
    """Write matrices as CSV with one line per matrix row.

    Floats use the shortest round-trip decimal form, so re-parsing
    reproduces the arrays bit-exactly. A matrix without a label gets three
    empty label fields.
    """
    if not matrices:
        raise ValueError("cannot export an empty matrix list")
    lines = [DATASET_HEADER]
    for m in matrices:
        label = ",".join(map(_fmt, m.label.as_array())) if m.label is not None else ",,"
        for i in range(m.rows.shape[0]):
            x, y, z, d = m.rows[i]
            lines.append(f"{m.revolution},{i},{_fmt(x)},{_fmt(y)},{_fmt(z)},{_fmt(d)},{int(m.los[i])},{label}")
    _write_lines(path, lines)


def load_dataset(path) -> list[MeasurementMatrix]:
    """Inverse of :func:`export_dataset`.

    Empty label fields, and the ``nan`` ones that earlier versions wrote,
    read as no label. A line without exactly the header's fields, or a
    revolution whose row indices are not exactly 0 .. S-1, raises
    ValueError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().split("\n") if ln]
    if not lines or lines[0] != DATASET_HEADER:
        raise ValueError(f"unrecognized dataset header in {path}")
    n_fields = DATASET_HEADER.count(",") + 1
    by_rev: dict[int, list[tuple]] = {}
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != n_fields:
            raise ValueError(f"{path}: {len(parts)} fields, expected {n_fields}, in line {ln!r}")
        rev = int(parts[0])
        by_rev.setdefault(rev, []).append(parts)
    matrices = []
    for rev in sorted(by_rev):
        parts_list = sorted(by_rev[rev], key=lambda p: int(p[1]))
        if [int(p[1]) for p in parts_list] != list(range(len(parts_list))):
            n = len(parts_list)
            raise ValueError(f"{path}: revolution {rev} has {n} rows whose indices are not 0 .. {n - 1}")
        rows = np.array([[float(p[2]), float(p[3]), float(p[4]), float(p[5])] for p in parts_list])
        los = np.array([bool(int(p[6])) for p in parts_list])
        lx, ly, lz = (float(parts_list[0][j] or "nan") for j in (7, 8, 9))
        label = None if np.isnan(lx) else Position3(lx, ly, lz)
        matrices.append(MeasurementMatrix(rows=rows, los=los, revolution=rev, label=label))
    return matrices
