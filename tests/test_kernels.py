import numpy as np
import pytest
from lm_reference import _lm_solve_batch_loops

from pseudolat import _kernels


def _random_problem(rng, k=30):
    target = rng.uniform(-50, 50, 3)
    target[2] = abs(target[2]) % 10
    anchors = rng.uniform(-80, 80, (k, 3))
    anchors[:, 2] = rng.uniform(60, 140, k)
    d = np.linalg.norm(anchors - target, axis=1) + rng.normal(0, 0.5, k)
    d = np.maximum(d, 0.0)
    return anchors, d, target


# The reference loops take the kernel's LM settings as arguments: iteration
# cap, absolute gradient and step tolerances, initial damping.
_ARGS = (200, 1e-9, 1e-12, 1e-3)


def _loops(anchors, d, starts, lo, hi):
    return _lm_solve_batch_loops(anchors, d, starts, lo, hi, *_ARGS)


# The scalar reference loops and the vectorized kernel, by name.
SOLVERS = {"loops": _loops, "numpy": _kernels.lm_solve_batch}


def _solve(anchors, d, solve, lo=(-100.0, -100.0, 0.0), hi=(100.0, 100.0, 10.0)):
    lo, hi = np.array(lo), np.array(hi)
    xs = np.linspace(lo[0], hi[0], 4)
    ys = np.linspace(lo[1], hi[1], 4)
    starts = np.array([[x, y, lo[2]] for x in xs for y in ys])
    return solve(anchors, d, starts, lo, hi)


def _best(result):
    p, f, _, _, _ = result
    i = np.argmin(f)
    return p[i], f[i]


def test_backends_agree_on_minima():
    rng = np.random.default_rng(100)
    for _ in range(5):
        anchors, d, _ = _random_problem(rng)
        best = {name: _best(_solve(anchors, d, solve)) for name, solve in SOLVERS.items()}
        p_np, f_np = best.pop("numpy")
        for p, f in best.values():
            assert f == pytest.approx(f_np, rel=1e-6, abs=1e-9)
            assert np.allclose(p, p_np, atol=1e-5)


def test_iterates_stay_in_box():
    # The target (12.5, 39.7, 7.6) lies outside this box, so the solver is
    # pressed against its faces and only the clipping keeps it inside.
    rng = np.random.default_rng(7)
    anchors, d, _ = _random_problem(rng)
    lo = np.array([-10.0, -10.0, 0.0])
    hi = np.array([10.0, 10.0, 2.0])
    for solve in SOLVERS.values():
        p, _, _, _, _ = _solve(anchors, d, solve, lo, hi)
        assert np.all(p >= lo - 1e-12) and np.all(p <= hi + 1e-12)


def test_degenerate_axis_is_frozen():
    rng = np.random.default_rng(8)
    anchors = rng.uniform(-80, 80, (30, 3))
    anchors[:, 2] = rng.uniform(60, 140, 30)
    target = np.array([-14.0, 40.0, 0.0])
    d = np.linalg.norm(anchors - target, axis=1)
    lo = np.array([-100.0, -100.0, 0.0])
    hi = np.array([100.0, 100.0, 0.0])
    starts = np.array([[0.0, 0.0, 0.0], [50.0, -50.0, 0.0]])
    for solve in SOLVERS.values():
        p, _, _, conv, _ = solve(anchors, d, starts, lo, hi)
        assert np.all(p[:, 2] == 0.0)
        assert np.all(conv)
        assert np.allclose(p, target, atol=1e-6)


def test_noisy_minimum_found_even_if_gradient_floor_not_reached():
    # With large noisy residuals the absolute 1e-9 gradient tolerance can
    # be below the floating-point floor; the minimizer must still stop at
    # the minimum and the two implementations must agree.
    rng = np.random.default_rng(8)
    anchors, d, _ = _random_problem(rng)
    results = {name: _best(_solve(anchors, d, solve)) for name, solve in SOLVERS.items()}
    p_np, f_np = results.pop("numpy")
    for p, f in results.values():
        assert f == pytest.approx(f_np, rel=1e-9)
        assert np.allclose(p, p_np, atol=1e-6)


def test_backend_selection(monkeypatch):
    # One kernel: PSEUDOLAT_BACKEND is no longer read.
    for value in (None, "numpy", "numba", "cuda"):
        if value is None:
            monkeypatch.delenv("PSEUDOLAT_BACKEND", raising=False)
        else:
            monkeypatch.setenv("PSEUDOLAT_BACKEND", value)
        assert _kernels.backend() == "numpy"


def test_noiseless_convergence_both_backends():
    rng = np.random.default_rng(9)
    anchors = rng.uniform(-60, 60, (40, 3))
    anchors[:, 2] = 100.0
    target = np.array([12.0, -7.0, 0.0])
    d = np.linalg.norm(anchors - target, axis=1)
    for solve in SOLVERS.values():
        p, f, _, conv, _ = _solve(anchors, d, solve)
        best = np.argmin(f)
        assert np.linalg.norm(p[best] - target) < 1e-6
        assert conv[best]


# ---------------------------------------------------------------------------
# Batching: a problem's outputs do not depend on the problems beside it.


def _batch(seed, n_problems=20, k=40):
    """Problems with different anchors; every third target is outside the
    box x, y in [-30, 30], so those solves end pressed against its faces."""
    rng = np.random.default_rng(seed)
    anchors = np.empty((n_problems, k, 3))
    d = np.empty((n_problems, k))
    for b in range(n_problems):
        a, d[b], _ = _random_problem(rng, k)
        anchors[b] = a
        if b % 3 == 0:
            target = np.array([45.0, -60.0, 3.0]) + rng.uniform(-5, 5, 3)
            d[b] = np.linalg.norm(a - target, axis=1) + rng.normal(0, 0.5, k)
    return anchors, np.maximum(d, 0.0)


_BOXES = {
    "box": (np.array([-30.0, -30.0, 0.0]), np.array([30.0, 30.0, 10.0])),
    "pinned_z": (np.array([-30.0, -30.0, 0.0]), np.array([30.0, 30.0, 0.0])),
}


def _starts(lo, hi):
    xs = np.linspace(lo[0], hi[0], 4)
    return np.array([[x, y, lo[2]] for x in xs for y in xs])


@pytest.mark.parametrize("box", sorted(_BOXES))
def test_batch_equals_single_calls(box):
    lo, hi = _BOXES[box]
    anchors, d = _batch(11)
    shared = _starts(lo, hi)  # 16 starts: 20 problems exceed one capped call
    rng = np.random.default_rng(12)
    own = shared[None] + rng.uniform(-3, 3, (anchors.shape[0],) + shared.shape)
    for starts in (shared, own):
        batched = _kernels.lm_solve_batch(anchors, d, starts, lo, hi)
        assert batched[0].shape == (anchors.shape[0], shared.shape[0], 3)
        for b in range(anchors.shape[0]):
            single = _kernels.lm_solve_batch(
                anchors[b], d[b], starts if starts.ndim == 2 else starts[b], lo, hi
            )
            for got, want in zip(batched, single):
                assert np.array_equal(got[b], want)
    # the box really is binding for some lanes and the pinned axis stays put
    p = batched[0]
    assert np.any(np.isclose(p[:, :, :2], lo[:2]) | np.isclose(p[:, :, :2], hi[:2]))
    if box == "pinned_z":
        assert np.all(p[:, :, 2] == 0.0)


def test_batch_grouping_does_not_change_outputs():
    lo, hi = _BOXES["box"]
    anchors, d = _batch(13, n_problems=17)
    starts = _starts(lo, hi)
    whole = _kernels.lm_solve_batch(anchors, d, starts, lo, hi)
    for cuts in ([3, 10], [1, 2, 16], [8], [0, 5, 5]):  # [0:0] and [5:5] are empty
        parts = [
            _kernels.lm_solve_batch(anchors[a:b], d[a:b], starts, lo, hi)
            for a, b in zip([0] + cuts, cuts + [anchors.shape[0]])
        ]
        for i, want in enumerate(whole):
            assert np.array_equal(np.concatenate([part[i] for part in parts]), want)


# ---------------------------------------------------------------------------
# Iteration counts. The reference loops stop a few iterations apart from the
# kernel (rounding), so these pin the kernel's own counts and properties.


def test_start_at_noiseless_target_takes_no_iteration():
    rng = np.random.default_rng(9)
    anchors = rng.uniform(-60, 60, (40, 3))
    anchors[:, 2] = 100.0
    target = np.array([12.0, -7.0, 3.0])
    d = np.linalg.norm(anchors - target, axis=1)
    lo, hi = np.array([-100.0, -100.0, 0.0]), np.array([100.0, 100.0, 10.0])
    _, _, _, conv, iters = _kernels.lm_solve_batch(anchors, d, target[None], lo, hi)
    assert iters.tolist() == [0]
    assert conv.tolist() == [True]


def test_iters_bounded_by_max_iter(monkeypatch):
    lo, hi = _BOXES["box"]
    anchors, d = _batch(11)
    starts = _starts(lo, hi)
    for max_iter in (1, 3, 200):
        monkeypatch.setattr(_kernels, "_MAX_ITER", max_iter)
        iters = _kernels.lm_solve_batch(anchors, d, starts, lo, hi)[4]
        assert iters.min() >= 0 and iters.max() <= max_iter
        if max_iter < 200:  # the cap binds: some lane is still running at it
            assert iters.max() == max_iter


def test_iters_recorded():
    # Counts of the kernel on this problem. Starts that met the absolute
    # gradient tolerance count every iteration, stalled ones not the step
    # that stalled. The three long runs (40, 42, 38) stall at the rounding
    # floor beside the others' minimum, so the scale-aware test calls all
    # 16 converged.
    anchors, d, _ = _random_problem(np.random.default_rng(100))
    _, _, _, conv, iters = _solve(anchors, d, _kernels.lm_solve_batch)
    assert iters.tolist() == [40, 6, 9, 42, 6, 6, 9, 8, 6, 5, 6, 6, 6, 38, 8, 6]
    assert conv.tolist() == [True] * 16
