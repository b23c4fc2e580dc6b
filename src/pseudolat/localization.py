"""Position solvers and the Cramér-Rao bound.

Classical multilateration fixes the target from several static anchors;
the single-anchor variant treats every (anchor position, range) sample of
a moving anchor as its own anchor and minimizes the same sum of squared
distance errors. Both run a box-clamped damped Gauss-Newton from one or two
closed-form starts per problem (the squared-range linearization of Beck,
Stoica & Li, IEEE TSP 56(5), 2008), falling back to a grid of start points
where those cannot seed or converge a problem. Residual-equivalent distinct
minima are reported instead of silently discarded, which is how the
straight-path phantom surfaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import _kernels
from .geometry import Position3
from .ranging import RangeMeasurement, _distances

__all__ = [
    "Solution",
    "CrlbResult",
    "GeometryError",
    "multilaterate",
    "pseudo_multilaterate_static",
    "pseudo_multilaterate_static_batch",
    "crlb",
]

Bounds = tuple[tuple[float, float], tuple[float, float], tuple[float, float]]

DEFAULT_BOUNDS: Bounds = ((-200.0, 200.0), (-200.0, 200.0), (0.0, 10.0))
# Start points per axis of the grid that solves a problem the closed-form
# starts cannot seed or converge.
_FALLBACK_GRID = (5, 5, 1)

# Singular values below this fraction of the largest count as a direction
# the squared-range system has lost; a quadratic's leading coefficient
# below it counts as vanished.
_RANK_TOL = 1e-9
# Distinct minima lie more than _AMBIGUITY_MIN_SEP m apart; one whose residual
# is within the relative and absolute tolerances of the best is an alternate.
_AMBIGUITY_MIN_SEP = 1.0
_AMBIGUITY_REL_TOL = 0.01
_AMBIGUITY_ABS_TOL = 1e-9


class GeometryError(ValueError):
    """Anchor geometry cannot support the requested solve."""


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


def _cluster_minima(points: np.ndarray, residuals: np.ndarray, conv: np.ndarray):
    """Deterministic best-first clustering of solver endpoints."""
    order = np.lexsort((points[:, 2], points[:, 1], points[:, 0], residuals))
    reps: list[tuple[np.ndarray, float, bool]] = []
    for idx in order:
        p = points[idx]
        for rp, _, _ in reps:
            if np.linalg.norm(p - rp) <= _AMBIGUITY_MIN_SEP:
                break
        else:
            reps.append((p, float(residuals[idx]), bool(conv[idx])))
    return reps


def _box(bounds: Bounds) -> tuple[np.ndarray, np.ndarray]:
    """Corners lo and hi (3,) of the search region ``bounds``, one (lo, hi)
    pair per axis; a degenerate axis (lo == hi) freezes that coordinate."""
    lo, hi = np.array([b[0] for b in bounds]), np.array([b[1] for b in bounds])
    if np.any(hi < lo):
        raise ValueError("bounds must satisfy lo <= hi on every axis")
    return lo, hi


def _grid_starts(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The ``_FALLBACK_GRID`` start points (N, 3) over the box."""
    axes = [
        np.linspace(a, b, n) if n > 1 else np.array([a]) for a, b, n in zip(lo, hi, _FALLBACK_GRID)
    ]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)


def _closed_form_starts(anchors: np.ndarray, d: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Squared-range (SR-LS) starts of each problem: anchors (B, K, 3), d (B, K).

    With the anchors centred on their mean c and scaled by s, the range
    equations ||q - a_k||^2 = (d_k / s)^2 of q = (p - c) / s are linear in
    the free coordinates of q and in w = ||q||^2:

        -2 a_k . q_free + w = (d_k / s)^2 - ||a_k||^2 + 2 a_k . q_pinned.

    Full rank gives one start, the least-squares solution. Rank lost in one
    direction (a level circle loses z, a straight path with z pinned its
    cross-track axis) leaves a line of solutions; putting it into
    w = ||q||^2 gives a quadratic whose two roots are the starts (its vertex,
    once, when it has no real root). Returns starts (B, 2, 3) clipped to the
    box and the number of starts per problem: 1, 2, or 0 where the closed
    form cannot seed the problem (rank lost in more than one direction, or
    a quadratic with a vanishing leading coefficient).
    """
    B, K = d.shape
    free = hi > lo
    c = anchors.mean(axis=1)  # (B, 3)
    a = anchors - c[:, None, :]
    s = np.abs(a).max(axis=(1, 2))
    s = np.where(s > 0, s, 1.0)
    a = a / s[:, None, None]
    q_pin = np.where(free, 0.0, (lo - c) / s[:, None])  # (B, 3)
    A = np.concatenate([-2.0 * a[:, :, free], np.ones((B, K, 1))], axis=2)
    rhs = (d / s[:, None]) ** 2 - np.sum(a * a, axis=2) + 2.0 * np.einsum("bkj,bj->bk", a, q_pin)
    n = A.shape[2]
    if K < n:  # zero rows let the SVD return the whole null space
        A = np.concatenate([A, np.zeros((B, n - K, n))], axis=1)
        rhs = np.concatenate([rhs, np.zeros((B, n - K))], axis=1)
    U, S, Vt = np.linalg.svd(A, full_matrices=False)
    kept = S > _RANK_TOL * S[:, :1]
    lost = n - kept.sum(axis=1)
    coef = np.einsum("bkn,bk->bn", U, rhs) / np.where(kept, S, np.inf)
    x = np.einsum("bnm,bn->bm", Vt, coef)  # least-squares solution (B, n)
    null = Vt[:, -1, :]  # the lost direction where one is lost
    xq, xw, nq, nw = x[:, :-1], x[:, -1], null[:, :-1], null[:, -1]
    qa = np.sum(nq * nq, axis=1)
    qb = 2.0 * np.sum(xq * nq, axis=1) - nw
    qc = np.sum(xq * xq, axis=1) + np.sum(q_pin * q_pin, axis=1) - xw
    disc = qb * qb - 4.0 * qa * qc
    quad = (lost == 1) & (qa > _RANK_TOL)
    root = np.sqrt(np.maximum(disc, 0.0)) / np.where(quad, 2.0 * qa, 1.0)
    vertex = -qb / np.where(quad, 2.0 * qa, 1.0)
    t = np.where(quad[:, None], vertex[:, None] + np.stack([-root, root], axis=1), 0.0)
    q = np.repeat(q_pin[:, None, :], 2, axis=1)
    q[:, :, free] = xq[:, None, :] + t[:, :, None] * nq[:, None, :]
    starts = np.clip(c[:, None, :] + s[:, None, None] * q, lo, hi)
    # A full-rank system, a quadratic without real roots and two roots
    # clipped onto one point all leave a single start, in both rows.
    two = np.any(starts[:, 0] != starts[:, 1], axis=1)
    counts = np.where((lost == 0) | quad, np.where(two, 2, 1), 0)
    return starts, counts


def _checked_problems(anchors, d) -> tuple[np.ndarray, np.ndarray]:
    """``anchors`` (B, K, 3) and ``d`` (B, K) as float arrays; ValueError
    unless every anchor is finite and every range finite and >= 0."""
    anchors, d = np.asarray(anchors, dtype=np.float64), np.asarray(d, dtype=np.float64)
    if anchors.ndim != 3 or anchors.shape[2] != 3 or d.shape != anchors.shape[:2]:
        raise ValueError(f"need anchors (B, K, 3) and ranges (B, K), got {anchors.shape} and {d.shape}")
    if not np.isfinite(anchors).all():
        raise ValueError("anchor positions must be finite")
    if not (np.isfinite(d) & (d >= 0)).all():
        raise ValueError("ranges must be finite and >= 0")
    return anchors, d


def _solve_clusters(anchors: np.ndarray, d: np.ndarray, bounds: Bounds):
    """Clustered minima of each problem: anchors (B, K, 3), d (B, K), both
    from ``_checked_problems``.

    LM runs from the closed-form starts; a problem the closed form cannot
    seed, or none of whose closed-form starts converged, is solved again
    from the ``_FALLBACK_GRID`` grid instead.
    """
    lo, hi = _box(bounds)
    starts, counts = _closed_form_starts(anchors, d, lo, hi)
    ends: list = [None] * anchors.shape[0]
    fallback = counts == 0

    def solve(idx, starts_idx):
        points, f, _, conv, _ = _kernels.lm_solve_batch(anchors[idx], d[idx], starts_idx, lo, hi)
        for i, b in enumerate(idx):
            ends[b] = (points[i], f[i], conv[i])
        return conv

    # Each start count is one kernel call; an empty group makes none.
    for n in (1, 2):
        idx = np.flatnonzero(counts == n)
        if idx.size:
            conv = solve(idx, starts[idx, :n])
            fallback[idx] = ~conv.any(axis=1)
    idx = np.flatnonzero(fallback)
    if idx.size:
        solve(idx, _grid_starts(lo, hi))
    return [_cluster_minima(p, f, conv) for p, f, conv in ends]


def _solution_from_clusters(clusters) -> Solution:
    p_best, f_best, conv_best = clusters[0]
    cutoff = f_best * (1.0 + _AMBIGUITY_REL_TOL) + _AMBIGUITY_ABS_TOL
    alternates = tuple(
        (Position3.from_array(p), f) for p, f, _ in clusters[1:] if f <= cutoff
    )
    return Solution(
        p_hat=Position3.from_array(p_best),
        residual=f_best,
        converged=conv_best,
        alternates=alternates,
    )


def multilaterate(anchors: np.ndarray, d: np.ndarray, bounds: Bounds = DEFAULT_BOUNDS) -> Solution:
    """Classical multilateration from static anchors (K, 3) and ranges (K,).

    Requires three non-collinear anchors when the search region pins z
    (2D mode) and four non-coplanar anchors otherwise.
    """
    anchors, d = _checked_problems(np.asarray(anchors)[None], np.asarray(d)[None])
    n = anchors.shape[1]
    dims = 2 if bounds[2][0] == bounds[2][1] else 3
    if n < dims + 1:
        raise GeometryError(f"{dims}D multilateration needs >= {dims + 1} anchors, got {n}")
    centered = anchors[0, :, :dims] - anchors[0, :, :dims].mean(axis=0)
    if np.linalg.matrix_rank(centered, tol=1e-9 * max(1.0, np.abs(centered).max())) < dims:
        shape = "collinear" if dims == 2 else "coplanar"
        raise GeometryError(f"anchors are {shape}; {dims}D solve is degenerate")
    clusters = _solve_clusters(anchors, d, bounds)[0]
    return _solution_from_clusters(clusters)


def pseudo_multilaterate_static(
    meas: Sequence[RangeMeasurement], bounds: Bounds = DEFAULT_BOUNDS
) -> Solution:
    """Locate a static target from one moving anchor's range time series.

    Each time sample acts as an anchor. No geometry precondition is
    enforced: a straight anchor path yields two residual-equivalent minima
    and the second one is reported in ``alternates`` rather than hidden.
    """
    anchors = np.array([m.anchor.as_array() for m in meas]).reshape(-1, 3)
    d = np.array([m.d_meas for m in meas])
    return pseudo_multilaterate_static_batch(anchors[None], d[None], bounds)[0]


def pseudo_multilaterate_static_batch(
    anchors: np.ndarray, d: np.ndarray, bounds: Bounds = DEFAULT_BOUNDS
) -> list[Solution]:
    """:func:`pseudo_multilaterate_static` for B problems at once.

    ``anchors`` (B, K, 3) holds each problem's anchor positions and ``d``
    (B, K) its ranges. All problems share the kernel's vectorized passes,
    and every problem's solution is bit-identical to solving it alone.
    """
    anchors, d = _checked_problems(anchors, d)
    if anchors.shape[1] < 3:
        raise ValueError(f"need >= 3 measurements, got {anchors.shape[1]}")
    return [_solution_from_clusters(c) for c in _solve_clusters(anchors, d, bounds)]


def crlb(anchors: np.ndarray, target: np.ndarray, sigma_fn: Callable[[np.ndarray], np.ndarray]) -> CrlbResult:
    """Cramér-Rao lower bound on position covariance for range measurements.

    Fisher information J = sum_k u_k u_k^T / sigma_k^2 with u_k the unit
    vector from the target (3,) to anchor k of ``anchors`` (K, 3) and
    sigma_k the range std at that distance: ``sigma_fn`` maps the (K,)
    distances to their stds (or to one std for all). Rank-deficient
    geometries (e.g. collinear anchors) return the pseudo-inverse with
    ``rank_deficient`` set.
    """
    anchors, target = np.asarray(anchors, dtype=np.float64), np.asarray(target, dtype=np.float64)
    if anchors.ndim != 2 or anchors.shape[1] != 3 or target.shape != (3,):
        raise ValueError(f"need anchors (K, 3) and a target (3,), got {anchors.shape} and {target.shape}")
    if not (np.isfinite(anchors).all() and np.isfinite(target).all()):
        raise ValueError("anchor and target positions must be finite")
    if len(anchors) < 3:
        raise ValueError(f"need >= 3 anchors, got {len(anchors)}")
    dist = _distances(anchors, target)
    if np.any(dist == 0.0):
        raise ValueError("anchor coincides with target")
    sigma = np.broadcast_to(np.asarray(sigma_fn(dist), dtype=np.float64), dist.shape)
    if not np.all(sigma > 0):
        raise ValueError(f"sigma_fn must be positive, got {sigma} at d={dist}")
    u = (anchors - target) / dist[:, None]
    J = np.add.reduce(u[:, :, None] * u[:, None, :] / (sigma**2)[:, None, None])
    rank = int(np.linalg.matrix_rank(J))
    if rank < 3:
        return CrlbResult(cov=np.linalg.pinv(J), rank=rank, rank_deficient=True)
    return CrlbResult(cov=np.linalg.inv(J), rank=rank, rank_deficient=False)
