"""Single-moving-anchor localization toolkit.

Simulates a UAV anchor ranging ground targets along circular or straight
paths, estimates target positions with damped Gauss-Newton solvers, bounds
the achievable accuracy with the Cramér-Rao bound, and compares OFDM and
OTFS pilots for waveform-level time-of-arrival ranging.
"""

from ._kernels import backend
from .geometry import (
    CircularTrajectory,
    LinearTrajectory,
    Position3,
    TrajectorySpec,
    WaypointSeries,
    linear_mirror,
    mirror_point,
    revolution_period,
    sample_trajectory,
)
from .localization import (
    CrlbResult,
    GeometryError,
    Solution,
    crlb,
    multilaterate,
    pseudo_multilaterate_static,
    pseudo_multilaterate_static_batch,
)
from .ranging import (
    MeasurementMatrix,
    NoiseModel,
    Obstacle,
    RangeMeasurement,
    collect_measurements,
    export_dataset,
    load_dataset,
    los_blocked,
)
from .relocation import RelocationPolicy, predict_target, relocate
from .waveform import (
    C_LIGHT,
    DetectionFailure,
    NlosEnsemble,
    Path,
    PathSet,
    WaveformConfig,
    apply_channel,
    estimate_toa,
    isfft,
    make_pilot,
    ranging_error_trial,
    sfft,
)

__version__ = "0.1.0"
