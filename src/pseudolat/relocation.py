"""Per-revolution circle relocation toward the estimated target.

After each completed revolution the anchor re-centers its circle toward
the predicted target position (bounded step) and tightens the radius
(geometric shrink with a floor, which stands in for the minimum standoff
needed to keep the link SNR usable). The predictor is a constant-velocity
extrapolator over the estimate history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import CircularTrajectory, Position3, TrajectorySpec, WaypointSeries

__all__ = ["RelocationPolicy", "predict_target", "relocate"]


@dataclass(frozen=True)
class RelocationPolicy:
    min_radius: float
    shrink_factor: float
    max_center_step: float
    altitude: float

    def __post_init__(self):
        if self.min_radius <= 0:
            raise ValueError("min_radius must be > 0")
        if not (0.0 < self.shrink_factor <= 1.0):
            raise ValueError("shrink_factor must lie in (0, 1]")
        if self.max_center_step <= 0:
            raise ValueError("max_center_step must be > 0")
        if self.altitude < 0:
            raise ValueError("altitude must be >= 0")


def predict_target(history: WaypointSeries, horizon: float) -> Position3:
    """Constant-velocity extrapolation of the estimate history.

    With two or more estimates the velocity is the finite difference of the
    last two; a single estimate is returned as-is.
    """
    if len(history) == 1:
        return history.position(0)
    p1 = history.p[-1]
    p0 = history.p[-2]
    dt = history.t[-1] - history.t[-2]
    v = (p1 - p0) / dt
    return Position3.from_array(p1 + v * horizon)


def relocate(
    current: TrajectorySpec, predicted: Position3, policy: RelocationPolicy
) -> CircularTrajectory:
    """New circle for the next revolution, moved toward the prediction.

    The center steps at most ``max_center_step`` toward the predicted
    target (at the policy altitude); the radius shrinks geometrically but
    never below ``min_radius``. The starting phase is set so the first
    waypoint of the new circle is its closest point to the anchor's
    position at the end of the completed revolution.
    """
    if not isinstance(current, CircularTrajectory):
        raise ValueError("relocation requires a circular trajectory")

    c_old = current.center.as_array()
    goal = np.array([predicted.x, predicted.y, policy.altitude])
    move = goal - c_old
    move[2] = 0.0  # level flight: altitude comes from the policy directly
    dist = float(np.linalg.norm(move))
    if dist > policy.max_center_step:
        move *= policy.max_center_step / dist
    c_new = np.array([c_old[0] + move[0], c_old[1] + move[1], policy.altitude])

    r_new = max(policy.min_radius, current.radius * policy.shrink_factor)

    # Anchor sits at phase0 again after a whole revolution.
    uav = c_old + current.radius * np.array(
        [math.cos(current.phase0), math.sin(current.phase0), 0.0]
    )
    dx, dy = uav[0] - c_new[0], uav[1] - c_new[1]
    if math.hypot(dx, dy) > 1e-12:
        phase_new = math.atan2(dy, dx)
    else:
        phase_new = current.phase0

    return CircularTrajectory(
        center=Position3.from_array(c_new),
        radius=r_new,
        angular_speed=current.angular_speed,
        phase0=phase_new,
    )
