"""Reference range collection, used only by the tests.

This is `pseudolat.ranging.collect_measurements` as it was before ranging
went array-native: every sample builds its anchor `Position3`, runs the
scalar slab test against each box and draws its noise with one scalar
`normal` (plus one `exponential` when blocked). The ranging tests require
the library's array path to reproduce it bit for bit.
"""

import numpy as np

from pseudolat.ranging import NoiseModel, RangeMeasurement


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


def los_blocked(anchor, target, obstacles) -> bool:
    a = anchor.as_array()
    b = target.as_array()
    if np.array_equal(a, b):
        raise ValueError("anchor and target must not coincide")
    for box in obstacles:
        if _segment_hits_box(a, b, box.min_corner.as_array(), box.max_corner.as_array()):
            return True
    return False


def sample_range(d_true: float, los: bool, model: NoiseModel, rng: np.random.Generator) -> float:
    noise = rng.normal(0.0, model.sigma(d_true))
    bias = 0.0 if los else float(rng.exponential(model.nlos_bias_mean))
    return max(0.0, d_true + noise + bias)


def collect_measurements(
    anchor_path, target_path, obstacles, model: NoiseModel, seed: int
) -> list[RangeMeasurement]:
    rng = np.random.default_rng(seed)
    out = []
    for k in range(len(anchor_path)):
        anchor = anchor_path.position(k)
        target = target_path.position(k)
        d_true = float(np.linalg.norm(anchor_path.p[k] - target_path.p[k]))
        los = not los_blocked(anchor, target, obstacles)
        d_meas = sample_range(d_true, los, model, rng)
        out.append(RangeMeasurement(float(anchor_path.t[k]), anchor, d_meas, los))
    return out
