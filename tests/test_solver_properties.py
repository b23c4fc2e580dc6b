"""Property tests of the position solvers, over hypothesis-drawn geometries.

Each property holds for every problem, not only the fixed cases of
``test_localization.py``: moving the whole problem moves the estimate with
it, anchor order does not matter, every reported point lies in the search
box, and noiseless ranges from a circle recover any target off its axis.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pseudolat.geometry import Position3
from pseudolat.localization import multilaterate, pseudo_multilaterate_static
from pseudolat.ranging import RangeMeasurement

# Derandomized, so every run draws the same examples.
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

BAND = ((-150.0, 150.0), (-150.0, 150.0), (0.0, 10.0))
CUBE = ((-300.0, 300.0), (-300.0, 300.0), (-300.0, 300.0))
# LM stops on its gradient and step floors, which leave the minimum of a
# noisy problem with a weak direction (a far target seen from a small
# circle, four anchors in 3-D) known only to a few micrometres.
NOISY_TOL_M = 1e-5


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def circle_problems(draw, sigma_max=2.0):
    """Anchors on a level circle, a ground target off its axis, noisy ranges."""
    n = draw(st.integers(8, 60))
    cx, cy = draw(_floats(-50, 50)), draw(_floats(-50, 50))
    radius = draw(_floats(20, 80))
    altitude = draw(_floats(40, 150))
    phase = draw(_floats(0, 2 * math.pi)) + np.arange(n) * 2 * math.pi / n
    anchors = np.column_stack([cx + radius * np.cos(phase), cy + radius * np.sin(phase), np.full(n, altitude)])
    target = np.array([draw(_floats(-100, 100)), draw(_floats(-100, 100)), 0.0])
    assume(math.hypot(target[0] - cx, target[1] - cy) > 1.0)
    sigma = draw(_floats(0, sigma_max))
    noise = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(0.0, sigma, n) if sigma else 0.0
    d = np.maximum(np.linalg.norm(anchors - target, axis=1) + noise, 0.0)
    return anchors, d, target


@st.composite
def spread_problems(draw):
    """4-8 anchors spread in 3-D around a target, ranges with 1 m noise."""
    k = draw(st.integers(4, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    target = rng.uniform(-50, 50, 3)
    anchors = target + rng.uniform(-120, 120, (k, 3))
    d = np.maximum(np.linalg.norm(anchors - target, axis=1) + rng.normal(0.0, 1.0, k), 0.0)
    return anchors, d, target


shifts = st.tuples(_floats(-500, 500), _floats(-500, 500), _floats(-50, 50)).map(np.array)


def _static(anchors, d, bounds):
    meas = [RangeMeasurement(float(i), Position3(*a), float(di), True) for i, (a, di) in enumerate(zip(anchors, d))]
    return pseudo_multilaterate_static(meas, bounds)


def _shifted(bounds, v):
    return tuple((lo + x, hi + x) for (lo, hi), x in zip(bounds, v))


def _points(sol):
    return [sol.p_hat.as_array()] + [p.as_array() for p, _ in sol.alternates]


@PROPERTY
@given(circle_problems(), shifts)
def test_static_translation_equivariance(problem, v):
    anchors, d, _ = problem
    base = _static(anchors, d, BAND).p_hat.as_array()
    moved = _static(anchors + v, d, _shifted(BAND, v)).p_hat.as_array()
    assert np.linalg.norm(moved - (base + v)) < NOISY_TOL_M


@PROPERTY
@given(spread_problems(), shifts)
def test_multilaterate_translation_equivariance(problem, v):
    anchors, d, _ = problem
    base = multilaterate(anchors, d, CUBE).p_hat.as_array()
    moved = multilaterate(anchors + v, d, _shifted(CUBE, v)).p_hat.as_array()
    assert np.linalg.norm(moved - (base + v)) < NOISY_TOL_M


@PROPERTY
@given(circle_problems(), st.randoms(use_true_random=False))
def test_static_anchor_permutation_invariance(problem, random):
    anchors, d, _ = problem
    order = list(range(len(d)))
    random.shuffle(order)
    base = _static(anchors, d, BAND).p_hat.as_array()
    permuted = _static(anchors[order], d[order], BAND).p_hat.as_array()
    assert np.linalg.norm(permuted - base) < NOISY_TOL_M


@PROPERTY
@given(spread_problems(), st.randoms(use_true_random=False))
def test_multilaterate_anchor_permutation_invariance(problem, random):
    anchors, d, _ = problem
    order = list(range(len(d)))
    random.shuffle(order)
    base = multilaterate(anchors, d, CUBE).p_hat.as_array()
    permuted = multilaterate(anchors[order], d[order], CUBE).p_hat.as_array()
    assert np.linalg.norm(permuted - base) < NOISY_TOL_M


boxes = st.tuples(
    *[st.tuples(_floats(-100, 0), _floats(0, 100)) for _ in range(2)],
    st.sampled_from([(0.0, 0.0), (0.0, 10.0), (-20.0, 5.0)]),
)


@PROPERTY
@given(circle_problems(sigma_max=20.0), boxes)
def test_static_estimates_inside_box(problem, bounds):
    anchors, d, _ = problem
    lo, hi = np.array(bounds).T
    for p in _points(_static(anchors, d, bounds)):
        assert np.all(p >= lo) and np.all(p <= hi)


@PROPERTY
@given(spread_problems(), st.tuples(*[st.tuples(_floats(-100, 0), _floats(0, 100))] * 3))
def test_multilaterate_estimates_inside_box(problem, bounds):
    anchors, d, _ = problem
    lo, hi = np.array(bounds).T
    for p in _points(multilaterate(anchors, d, bounds)):
        assert np.all(p >= lo) and np.all(p <= hi)


@PROPERTY
@given(circle_problems(sigma_max=0.0))
def test_static_noiseless_recovery_off_axis(problem):
    anchors, d, target = problem
    assert np.linalg.norm(_static(anchors, d, BAND).p_hat.as_array() - target) < 1e-6


@PROPERTY
@given(spread_problems().map(lambda p: (p[0], np.linalg.norm(p[0] - p[2], axis=1), p[2])))
def test_multilaterate_noiseless_recovery(problem):
    anchors, d, target = problem
    assert np.linalg.norm(multilaterate(anchors, d, CUBE).p_hat.as_array() - target) < 1e-6
