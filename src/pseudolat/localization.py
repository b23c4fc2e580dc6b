"""Position solvers and the Cramér-Rao bound.

Classical multilateration fixes the target from several static anchors;
the single-anchor variant treats every (anchor position, range) sample of
a moving anchor as its own anchor and minimizes the same sum of squared
distance errors. Both run a box-clamped damped Gauss-Newton from a grid of
start points, and residual-equivalent distinct minima are reported instead
of silently discarded, which is how the straight-path phantom surfaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import _kernels
from .geometry import Position3, WaypointSeries
from .ranging import RangeMeasurement

__all__ = [
    "AnchorRange",
    "SolveOptions",
    "Solution",
    "CrlbResult",
    "GeometryError",
    "residual_sum",
    "residual_jacobian",
    "multilaterate",
    "pseudo_multilaterate_static",
    "pseudo_multilaterate_static_batch",
    "pseudo_multilaterate_moving",
    "crlb",
]

Bounds = tuple[tuple[float, float], tuple[float, float], tuple[float, float]]

DEFAULT_BOUNDS: Bounds = ((-200.0, 200.0), (-200.0, 200.0), (0.0, 10.0))


class GeometryError(ValueError):
    """Anchor geometry cannot support the requested solve."""


@dataclass(frozen=True)
class AnchorRange:
    anchor: Position3
    d: float

    def __post_init__(self):
        if self.d < 0:
            raise ValueError(f"range must be >= 0, got {self.d}")


@dataclass(frozen=True)
class SolveOptions:
    """Solver knobs.

    ``bounds`` is the axis-aligned search region; a degenerate axis
    (lo == hi) freezes that coordinate. ``multistart_grid`` gives the
    number of start points per axis. Minima whose residuals agree within
    ``ambiguity_rel_tol`` (plus a small absolute floor) and that sit more
    than ``ambiguity_min_sep`` apart are treated as ambiguous solutions.
    """

    max_iter: int = 200
    grad_tol: float = 1e-9
    step_tol: float = 1e-12
    multistart_grid: tuple[int, int, int] = (5, 5, 1)
    damping0: float = 1e-3
    bounds: Bounds = DEFAULT_BOUNDS
    ambiguity_rel_tol: float = 0.01
    ambiguity_abs_tol: float = 1e-9
    ambiguity_min_sep: float = 1.0

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.grad_tol <= 0 or self.step_tol <= 0 or self.damping0 <= 0:
            raise ValueError("tolerances and damping0 must be > 0")
        if any(g < 1 for g in self.multistart_grid):
            raise ValueError("multistart grid counts must be >= 1")
        for lo, hi in self.bounds:
            if hi < lo:
                raise ValueError("bounds must satisfy lo <= hi on every axis")

    def start_points(self, extra: Sequence[np.ndarray] = ()) -> np.ndarray:
        axes = []
        for (lo, hi), count in zip(self.bounds, self.multistart_grid):
            axes.append(np.linspace(lo, hi, count) if count > 1 else np.array([lo]))
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        if extra:
            grid = np.vstack([np.asarray(extra, dtype=np.float64).reshape(-1, 3), grid])
        return grid


@dataclass(frozen=True)
class Solution:
    p_hat: Position3
    residual: float
    converged: bool
    alternates: tuple[tuple[Position3, float], ...] = ()


@dataclass(frozen=True)
class CrlbResult:
    """Covariance lower bound (3x3, m^2) with Fisher-matrix rank info."""

    cov: np.ndarray
    rank: int
    rank_deficient: bool

    def __post_init__(self):
        cov = np.asarray(self.cov, dtype=np.float64)
        cov.setflags(write=False)
        object.__setattr__(self, "cov", cov)

    @property
    def trace(self) -> float:
        return float(np.trace(self.cov))


def _ranges_to_arrays(ranges: Sequence[AnchorRange]) -> tuple[np.ndarray, np.ndarray]:
    anchors = np.array([r.anchor.as_array() for r in ranges])
    d = np.array([r.d for r in ranges])
    return anchors, d


def residual_sum(candidate: Position3, ranges: Sequence[AnchorRange]) -> float:
    """Sum of squared distance errors at a candidate point, m^2."""
    if not ranges:
        raise ValueError("ranges must be nonempty")
    anchors, d = _ranges_to_arrays(ranges)
    dist = np.linalg.norm(candidate.as_array()[None, :] - anchors, axis=1)
    return float(np.sum((dist - d) ** 2))


def residual_jacobian(candidate: Position3, ranges: Sequence[AnchorRange]):
    """Residual vector r_k = ||p - a_k|| - d_k and its analytic Jacobian."""
    if not ranges:
        raise ValueError("ranges must be nonempty")
    anchors, d = _ranges_to_arrays(ranges)
    diff = candidate.as_array()[None, :] - anchors
    dist = np.maximum(np.linalg.norm(diff, axis=1), 1e-12)
    return dist - d, diff / dist[:, None]


def _cluster_minima(points: np.ndarray, residuals: np.ndarray, conv: np.ndarray, min_sep: float):
    """Deterministic best-first clustering of solver endpoints."""
    order = np.lexsort((points[:, 2], points[:, 1], points[:, 0], residuals))
    reps: list[tuple[np.ndarray, float, bool]] = []
    for idx in order:
        p = points[idx]
        for rp, _, _ in reps:
            if np.linalg.norm(p - rp) <= min_sep:
                break
        else:
            reps.append((p, float(residuals[idx]), bool(conv[idx])))
    return reps


def _solve_clusters(
    anchors: np.ndarray,
    d: np.ndarray,
    opts: SolveOptions,
    extra_starts: Sequence[np.ndarray] = (),
):
    """Clustered minima of each problem: anchors (B, K, 3), d (B, K)."""
    lo = np.array([b[0] for b in opts.bounds])
    hi = np.array([b[1] for b in opts.bounds])
    starts = opts.start_points(extra_starts)
    points, residuals, _, conv, _ = _kernels.lm_solve_batch(
        anchors, d, starts, lo, hi, opts.max_iter, opts.grad_tol, opts.step_tol, opts.damping0
    )
    return [
        _cluster_minima(points[b], residuals[b], conv[b], opts.ambiguity_min_sep)
        for b in range(points.shape[0])
    ]


def _solution_from_clusters(clusters, opts: SolveOptions) -> Solution:
    p_best, f_best, conv_best = clusters[0]
    cutoff = f_best * (1.0 + opts.ambiguity_rel_tol) + opts.ambiguity_abs_tol
    alternates = tuple(
        (Position3.from_array(p), f) for p, f, _ in clusters[1:] if f <= cutoff
    )
    return Solution(
        p_hat=Position3.from_array(p_best),
        residual=f_best,
        converged=conv_best,
        alternates=alternates,
    )


def _is_2d(opts: SolveOptions) -> bool:
    zlo, zhi = opts.bounds[2]
    return zlo == zhi


def multilaterate(ranges: Sequence[AnchorRange], opts: SolveOptions = SolveOptions()) -> Solution:
    """Classical multilateration from static anchors.

    Requires three non-collinear anchors when the search region pins z
    (2D mode) and four non-coplanar anchors otherwise.
    """
    anchors, d = _ranges_to_arrays(ranges) if ranges else (np.empty((0, 3)), np.empty(0))
    n = anchors.shape[0]
    if _is_2d(opts):
        if n < 3:
            raise GeometryError(f"2D multilateration needs >= 3 anchors, got {n}")
        centered = anchors[:, :2] - anchors[:, :2].mean(axis=0)
        if np.linalg.matrix_rank(centered, tol=1e-9 * max(1.0, np.abs(centered).max())) < 2:
            raise GeometryError("anchors are collinear; 2D solve is degenerate")
    else:
        if n < 4:
            raise GeometryError(f"3D multilateration needs >= 4 anchors, got {n}")
        centered = anchors - anchors.mean(axis=0)
        if np.linalg.matrix_rank(centered, tol=1e-9 * max(1.0, np.abs(centered).max())) < 3:
            raise GeometryError("anchors are coplanar; 3D solve is degenerate")
    clusters = _solve_clusters(anchors[None], d[None], opts)[0]
    return _solution_from_clusters(clusters, opts)


def pseudo_multilaterate_static(
    meas: Sequence[RangeMeasurement], opts: SolveOptions = SolveOptions()
) -> Solution:
    """Locate a static target from one moving anchor's range time series.

    Each time sample acts as an anchor. No geometry precondition is
    enforced: a straight anchor path yields two residual-equivalent minima
    and the second one is reported in ``alternates`` rather than hidden.
    """
    anchors = np.array([m.anchor.as_array() for m in meas]).reshape(-1, 3)
    d = np.array([m.d_meas for m in meas])
    return pseudo_multilaterate_static_batch(anchors[None], d[None], opts)[0]


def pseudo_multilaterate_static_batch(
    anchors: np.ndarray, d: np.ndarray, opts: SolveOptions = SolveOptions()
) -> list[Solution]:
    """:func:`pseudo_multilaterate_static` for B problems at once.

    ``anchors`` (B, K, 3) holds each problem's anchor positions and ``d``
    (B, K) its ranges. All problems share the kernel's vectorized passes,
    and every problem's solution is bit-identical to solving it alone.
    """
    if anchors.shape[1] < 3:
        raise ValueError(f"need >= 3 measurements, got {anchors.shape[1]}")
    return [_solution_from_clusters(c, opts) for c in _solve_clusters(anchors, d, opts)]


def pseudo_multilaterate_moving(
    meas: Sequence[RangeMeasurement],
    window: int,
    stride: int,
    opts: SolveOptions = SolveOptions(),
) -> WaypointSeries:
    """Track a slow target with sliding-window static solves.

    Each window is solved as a static problem, warm-started from the
    previous window's estimate; the estimate is reported at the window
    midpoint time. This is a tractable surrogate for the joint
    consecutive-estimate objective, which is not solvable exactly.
    """
    if window < 3:
        raise ValueError(f"window must be >= 3, got {window}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if window > len(meas):
        raise ValueError(f"window {window} exceeds measurement count {len(meas)}")

    t_out = []
    p_out = []
    prev: np.ndarray | None = None
    for i in range(0, len(meas) - window + 1, stride):
        sub = meas[i : i + window]
        anchors = np.array([m.anchor.as_array() for m in sub])
        d = np.array([m.d_meas for m in sub])
        extra = (prev,) if prev is not None else ()
        clusters = _solve_clusters(anchors[None], d[None], opts, extra_starts=extra)[0]
        sol = _solution_from_clusters(clusters, opts)
        prev = sol.p_hat.as_array()
        t_out.append(0.5 * (sub[0].t + sub[-1].t))
        p_out.append(prev)
    return WaypointSeries(np.array(t_out), np.array(p_out))


def crlb(
    anchors: Sequence[Position3],
    target: Position3,
    sigma_fn: Callable[[float], float],
) -> CrlbResult:
    """Cramér-Rao lower bound on position covariance for range measurements.

    Fisher information J = sum_k u_k u_k^T / sigma_k^2 with u_k the unit
    vector from the target to anchor k and sigma_k the range std at that
    distance. Rank-deficient geometries (e.g. collinear anchors) return the
    pseudo-inverse with ``rank_deficient`` set.
    """
    if len(anchors) < 3:
        raise ValueError(f"need >= 3 anchors, got {len(anchors)}")
    t = target.as_array()
    J = np.zeros((3, 3))
    for a in anchors:
        u = a.as_array() - t
        dist = float(np.linalg.norm(u))
        if dist == 0.0:
            raise ValueError("anchor coincides with target")
        sigma = float(sigma_fn(dist))
        if sigma <= 0:
            raise ValueError(f"sigma_fn must be positive, got {sigma} at d={dist}")
        u = u / dist
        J += np.outer(u, u) / sigma**2
    rank = int(np.linalg.matrix_rank(J))
    if rank < 3:
        return CrlbResult(cov=np.linalg.pinv(J), rank=rank, rank_deficient=True)
    return CrlbResult(cov=np.linalg.inv(J), rank=rank, rank_deficient=False)
