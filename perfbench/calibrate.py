"""A fixed calibration kernel that measures how fast the machine runs now.

The machine this benchmark was defined on changes speed by up to 2x over
seconds to minutes, and runs a few minutes apart can sit in different
states. The benchmark therefore times this kernel between ops and scales its
timings by REF_S / (the kernel's time around the op): "reference-speed seconds",
the time the op would take on a machine where the kernel takes REF_S. The
kernel mixes what the workloads do (a Python loop, complex exp and FFTs on
a 32k-sample frame, small-array numpy steps and 3x3 solves like the LM
kernel's) and uses no pseudolat code, so a change to pseudolat cannot move
it.
"""

from __future__ import annotations

import time

import numpy as np

# About the kernel's median time on the 2-core machine the benchmark was
# defined on.
REF_S = 0.2

_rng = np.random.default_rng(0)
_K = np.arange(32768)
_X = _rng.standard_normal(32768) + 0j
_P = _rng.standard_normal((25, 3))
_ANCHORS = _rng.standard_normal((60, 3))
_D = _rng.standard_normal(60)


def calibrate() -> float:
    """Wall time of one run of the fixed kernel, in seconds."""
    start = time.perf_counter()
    acc = 0
    for i in range(500_000):
        acc += i * i
    for _ in range(15):
        np.fft.ifft(np.fft.fft(_X) * np.exp(-2j * np.pi * 0.1 * _K))
    for _ in range(200):
        # one damped Gauss-Newton step for 25 points against 60 ranges
        diff = _P[:, None, :] - _ANCHORS[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=2))
        jac = diff / dist[:, :, None]
        grad = np.einsum("ski,sk->si", jac, dist - _D[None, :])
        normal = np.einsum("ski,skj->sij", jac, jac) + np.eye(3)
        np.linalg.solve(normal, grad[:, :, None])
    return time.perf_counter() - start
