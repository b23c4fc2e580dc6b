import math

import numpy as np
import pytest

from pseudolat.geometry import (
    CircularTrajectory,
    LinearTrajectory,
    Position3,
    WaypointSeries,
    linear_mirror,
    sample_trajectory,
)
from pseudolat import _kernels, localization
from pseudolat.harness import parse_scenario_config, run_scenario
from pseudolat.localization import (
    GeometryError,
    _box,
    _closed_form_starts,
    crlb,
    multilaterate,
    pseudo_multilaterate_static,
    pseudo_multilaterate_static_batch,
)
from pseudolat.ranging import NoiseModel, collect_measurements

NOISELESS = NoiseModel(sigma0=0.0, eta=0.0, nlos_bias_mean=0.0)
BAND = ((-150.0, 150.0), (-150.0, 150.0), (0.0, 10.0))
PLANE = ((-400.0, 400.0), (-400.0, 400.0), (0.0, 0.0))


def circle_measurements(target, seed=0, model=NOISELESS, n=60, center=(0.0, 0.0, 100.0), radius=50.0):
    spec = CircularTrajectory(
        center=Position3(*center), radius=radius, angular_speed=2 * math.pi / n
    )
    anchor = sample_trajectory(spec, 0.0, 1.0, n)
    tseries = WaypointSeries(anchor.t, np.tile(target.as_array(), (n, 1)))
    return collect_measurements(anchor, tseries, [], model, seed)


def line_measurements(target, spec=None, n=60):
    spec = spec or LinearTrajectory(start=Position3(0, 0, 100), velocity=Position3(10, 0, 0))
    anchor = sample_trajectory(spec, 0.0, 1.0, n)
    tseries = WaypointSeries(anchor.t, np.tile(target.as_array(), (n, 1)))
    return collect_measurements(anchor, tseries, [], NOISELESS, 0)


def kernel_residuals(p, anchors, d):
    """The LM kernel's residual vector, Jacobian and sum of squares at one point."""
    diff, dist, r, f = _kernels._residuals(
        np.asarray(p, dtype=float)[None], anchors[None], d[None], np.zeros(1, dtype=np.intp)
    )
    return r[0], diff[0] / dist[0][:, None], f[0]


class TestResidual:
    def test_zero_at_truth(self):
        anchors = np.array([[0.0, 0, 0], [10, 0, 0], [0, 10, 0]])
        target = np.array([3.0, 4, 0])
        d = np.linalg.norm(anchors - target, axis=1)
        assert kernel_residuals(target, anchors, d)[2] == pytest.approx(0.0, abs=1e-20)

    def test_on_sphere(self):
        f = kernel_residuals([3, 4, 0], np.zeros((1, 3)), np.array([5.0]))[2]
        assert f == pytest.approx(0.0, abs=1e-20)

    def test_off_sphere(self):
        f = kernel_residuals([6, 8, 0], np.zeros((1, 3)), np.array([5.0]))[2]
        assert f == pytest.approx(25.0, rel=1e-12)

    def test_jacobian_matches_central_differences(self):
        # Relative error < 1e-5 against step-1e-6 central differences on the
        # gradient of the sum of squares, at 100 random points.
        rng = np.random.default_rng(21)
        anchors = np.array([rng.uniform(-80, 80, 3) for _ in range(12)])
        d = np.array([rng.uniform(10, 200) for _ in range(12)])
        h = 1e-6
        for _ in range(100):
            p = rng.uniform(-60, 60, 3)
            r, J, _ = kernel_residuals(p, anchors, d)
            grad = 2.0 * J.T @ r
            fd = np.empty(3)
            for i in range(3):
                dp = np.zeros(3)
                dp[i] = h
                fp = kernel_residuals(p + dp, anchors, d)[2]
                fm = kernel_residuals(p - dp, anchors, d)[2]
                fd[i] = (fp - fm) / (2 * h)
            assert np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12) < 1e-5


class TestMultilaterate:
    BOX = ((-50.0, 150.0), (-50.0, 150.0), (-50.0, 150.0))
    TETRA = np.array([[0.0, 0, 0], [100, 0, 0], [0, 100, 0], [0, 0, 100]])

    def test_noiseless_exact(self):
        target = np.array([20.0, 30, 40])
        sol = multilaterate(self.TETRA, np.linalg.norm(self.TETRA - target, axis=1), self.BOX)
        assert np.linalg.norm(sol.p_hat.as_array() - target) < 1e-6
        assert sol.converged

    def test_coplanar_rejected_in_3d(self):
        anchors = np.array([[0.0, 0, 0], [100, 0, 0], [0, 100, 0], [50, 50, 0]])
        with pytest.raises(GeometryError):
            multilaterate(anchors, np.full(4, 50.0), self.BOX)

    def test_three_anchors_rejected_in_3d(self):
        with pytest.raises(GeometryError):
            multilaterate(self.TETRA[:3], np.full(3, 50.0), self.BOX)

    def test_2d_mode_with_three_anchors(self):
        bounds = ((-50.0, 150.0), (-50.0, 150.0), (0.0, 0.0))
        anchors = np.array([[0.0, 0, 30], [100, 0, 30], [0, 100, 30]])
        target = np.array([40.0, 25, 0])
        sol = multilaterate(anchors, np.linalg.norm(anchors - target, axis=1), bounds)
        assert np.linalg.norm(sol.p_hat.as_array() - target) < 1e-6

    def test_collinear_rejected_in_2d(self):
        bounds = ((-50.0, 150.0), (-50.0, 150.0), (0.0, 0.0))
        anchors = np.array([[0.0, 0, 30], [50, 0, 30], [100, 0, 30]])
        with pytest.raises(GeometryError):
            multilaterate(anchors, np.full(3, 60.0), bounds)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    def test_bad_range_rejected(self, bad):
        # A NaN range once came back as a box corner with residual nan, an
        # infinite one as a corner flagged converged.
        d = np.full(4, 80.0)
        d[2] = bad
        with pytest.raises(ValueError, match="ranges must be finite and >= 0"):
            multilaterate(self.TETRA, d, self.BOX)
        with pytest.raises(ValueError, match="ranges must be finite and >= 0"):
            pseudo_multilaterate_static_batch(self.TETRA[None], d[None], self.BOX)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_anchor_rejected(self, bad):
        anchors = self.TETRA.copy()
        anchors[1, 2] = bad
        with pytest.raises(ValueError, match="anchor positions must be finite"):
            multilaterate(anchors, np.full(4, 80.0), self.BOX)
        with pytest.raises(ValueError, match="anchor positions must be finite"):
            pseudo_multilaterate_static_batch(anchors[None], np.full((1, 4), 80.0), self.BOX)

    @pytest.mark.parametrize(
        "anchors, d",
        [
            (TETRA, np.full(3, 80.0)),
            (TETRA[:, :2], np.full(4, 80.0)),
            (TETRA.ravel(), np.full(12, 80.0)),
            (TETRA, np.full((4, 1), 80.0)),
        ],
    )
    def test_mis_shaped_rejected(self, anchors, d):
        with pytest.raises(ValueError, match=r"need anchors \(B, K, 3\) and ranges \(B, K\)"):
            multilaterate(anchors, d, self.BOX)
        with pytest.raises(ValueError, match=r"need anchors \(B, K, 3\) and ranges \(B, K\)"):
            pseudo_multilaterate_static_batch(anchors[None], d[None], self.BOX)

    def test_rmse_tracks_crlb(self):
        # 8 anchors, sigma = 1 m, Monte-Carlo RMSE within 25% of the bound.
        rng = np.random.default_rng(33)
        target = np.array([5.0, -8.0, 20.0])
        anchors = []
        for k in range(8):
            az = 2 * math.pi * k / 8
            el = math.radians(25 + 40 * (k % 2))
            r = 120.0
            anchors.append(
                [
                    target[0] + r * math.cos(el) * math.cos(az),
                    target[1] + r * math.cos(el) * math.sin(az),
                    target[2] + r * math.sin(el) * (1 if k % 3 else -1),
                ]
            )
        anchors = np.array(anchors)
        bound = crlb(anchors, target, lambda d: 1.0)
        bounds = ((-200.0, 200.0), (-200.0, 200.0), (-200.0, 200.0))
        true_d = np.array([np.linalg.norm(a - target) for a in anchors])
        sq = []
        for _ in range(400):
            d = true_d + rng.normal(0.0, 1.0, true_d.size)
            sol = multilaterate(anchors, np.maximum(d, 0.0), bounds)
            sq.append(np.sum((sol.p_hat.as_array() - target) ** 2))
        rmse = math.sqrt(np.mean(sq))
        predicted = math.sqrt(bound.trace)
        assert abs(rmse - predicted) / predicted < 0.25


class TestCrlb:
    def test_orthogonal_unit_directions(self):
        target = np.zeros(3)
        anchors = 10.0 * np.eye(3)
        res = crlb(anchors, target, lambda d: 1.0)
        assert res.trace == pytest.approx(3.0, rel=1e-12)
        assert not res.rank_deficient

    def test_duplicating_anchors_halves_bound(self):
        rng = np.random.default_rng(2)
        target = np.array([3.0, 4, 1])
        anchors = np.array([rng.uniform(-50, 50, 3) for _ in range(5)])
        res1 = crlb(anchors, target, lambda d: 1.0 + 0.01 * d)
        res2 = crlb(np.concatenate([anchors, anchors]), target, lambda d: 1.0 + 0.01 * d)
        assert np.allclose(res2.cov, res1.cov / 2.0, rtol=1e-10)

    def test_collinear_anchors_flagged(self):
        target = np.zeros(3)
        anchors = np.array([[10.0, 0, 0], [20, 0, 0], [30, 0, 0]])
        res = crlb(anchors, target, lambda d: 1.0)
        assert res.rank_deficient
        assert res.rank == 1

    def test_requires_three_anchors(self):
        with pytest.raises(ValueError):
            crlb(np.array([[1.0, 0, 0], [0, 1, 0]]), np.zeros(3), lambda d: 1.0)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            crlb(10.0 * np.eye(3), np.zeros(3), lambda d: 0.0)

    def test_sigma_fn_called_once_on_all_distances(self):
        seen = []
        anchors = np.array([[10.0, 0, 0], [0, 20, 0], [0, 0, 30], [3, 4, 0]])
        crlb(anchors, np.zeros(3), lambda d: seen.append(d.copy()) or 1.0 + 0.01 * d)
        assert len(seen) == 1 and np.array_equal(seen[0], [10.0, 20.0, 30.0, 5.0])

    def test_adding_anchors_never_hurts(self):
        # Loewner-order check on 100 random configurations.
        rng = np.random.default_rng(11)
        for _ in range(100):
            target = rng.uniform(-20, 20, 3)
            anchors = np.array([rng.uniform(-100, 100, 3) for _ in range(4)])
            base = crlb(anchors, target, lambda d: 1.0 + 0.02 * d)
            extra = np.concatenate([anchors, rng.uniform(-100, 100, (1, 3))])
            grown = crlb(extra, target, lambda d: 1.0 + 0.02 * d)
            if base.rank_deficient or grown.rank_deficient:
                continue
            gap = base.cov - grown.cov
            assert np.min(np.linalg.eigvalsh(gap)) > -1e-9
            assert np.all(np.diag(grown.cov) <= np.diag(base.cov) + 1e-9)


class TestPseudoStatic:
    def test_circular_noiseless_unique(self):
        target = Position3(20, -10, 0)
        sol = pseudo_multilaterate_static(circle_measurements(target), BAND)
        assert np.linalg.norm(sol.p_hat.as_array() - target.as_array()) < 1e-6
        assert sol.alternates == ()
        assert sol.converged

    def test_linear_noiseless_reports_mirror(self):
        target = Position3(20, -10, 0)
        spec = LinearTrajectory(start=Position3(0, 0, 100), velocity=Position3(10, 0, 0))
        sol = pseudo_multilaterate_static(line_measurements(target, spec), PLANE)
        assert len(sol.alternates) == 1
        mirror = linear_mirror(spec, target)
        found = {tuple(np.round(sol.p_hat.as_array(), 6)), tuple(np.round(sol.alternates[0][0].as_array(), 6))}
        expected = {tuple(np.round(target.as_array(), 6)), tuple(np.round(mirror.as_array(), 6))}
        assert found == expected
        assert sol.alternates[0][1] <= sol.residual * 1.01 + 1e-9

    def test_requires_three_measurements(self):
        target = Position3(20, -10, 0)
        meas = circle_measurements(target)[:2]
        with pytest.raises(ValueError):
            pseudo_multilaterate_static(meas, BAND)

    def test_noisy_circular_median_error(self):
        # Golden bound: median error below 5 m over 500 seeded noisy runs.
        target = Position3(20, -10, 0)
        errors = []
        for seed in range(500):
            model = NoiseModel(sigma0=1.0, eta=0.01, nlos_bias_mean=5.0)
            sol = pseudo_multilaterate_static(circle_measurements(target, seed, model), BAND)
            errors.append(np.linalg.norm(sol.p_hat.as_array() - target.as_array()))
        assert np.median(errors) < 5.0

    def test_noise_free_fixed_point_any_grid(self, monkeypatch):
        target = Position3(-35.0, 42.0, 0.0)
        meas = circle_measurements(target)
        for grid in [(2, 2, 1), (3, 3, 2), (5, 5, 1)]:
            monkeypatch.setattr(localization, "_FALLBACK_GRID", grid)
            sol = pseudo_multilaterate_static(meas, BAND)
            assert np.linalg.norm(sol.p_hat.as_array() - target.as_array()) < 1e-6

    def test_solver_beats_quarter_meter_grid(self):
        # Brute-force oracle on a 0.25 m grid over the ground plane.
        rng = np.random.default_rng(17)
        for _ in range(10):
            k = rng.integers(4, 7)
            anchors = np.column_stack(
                [rng.uniform(-100, 100, k), rng.uniform(-100, 100, k), rng.uniform(20, 100, k)]
            )
            target = np.array([rng.uniform(-90, 90), rng.uniform(-90, 90), 0.0])
            d = np.linalg.norm(anchors - target, axis=1) + rng.normal(0, 1.0, k)
            d = np.maximum(d, 0.0)

            from pseudolat.ranging import RangeMeasurement

            meas = [
                RangeMeasurement(float(i), Position3(*anchors[i]), float(d[i]), True)
                for i in range(k)
            ]
            sol = pseudo_multilaterate_static(meas, ((-100.0, 100.0), (-100.0, 100.0), (0.0, 0.0)))

            axis = np.arange(-100.0, 100.0 + 1e-9, 0.25)
            best = np.inf
            for y in axis:
                pts = np.column_stack([axis, np.full_like(axis, y), np.zeros_like(axis)])
                dist = np.linalg.norm(pts[:, None, :] - anchors[None, :, :], axis=2)
                res = np.sum((dist - d[None, :]) ** 2, axis=1)
                best = min(best, float(res.min()))
            assert sol.residual <= best + 1e-9


def _arrays(meas):
    anchors = np.array([m.anchor.as_array() for m in meas])
    return anchors, np.array([m.d_meas for m in meas])


def _record_kernel_calls(monkeypatch, max_iter=None):
    """Record (problems, starts) of every kernel call and refuse empty ones.
    ``max_iter``, if given, replaces the kernel's iteration cap."""
    calls = []
    solve = _kernels.lm_solve_batch

    def recording(anchors, d, starts, lo, hi):
        shape = np.shape(anchors)
        problems = 1 if len(shape) == 2 else shape[0]
        assert problems > 0, "kernel called with zero problems"
        calls.append((problems, np.shape(starts)[-2]))
        return solve(anchors, d, starts, lo, hi)

    monkeypatch.setattr(_kernels, "lm_solve_batch", recording)
    if max_iter is not None:
        monkeypatch.setattr(_kernels, "_MAX_ITER", max_iter)
    return calls


def _mixed_batch(seed=5, n=24):
    """Noisy circles at one altitude (2 starts), circles whose samples vary
    in altitude (full rank, 1 start) and collinear paths (grid fallback)."""
    rng = np.random.default_rng(seed)
    k = 60
    phase = np.arange(k) * 2 * math.pi / k
    anchors = np.empty((n, k, 3))
    for b in range(n):
        radius, (cx, cy) = rng.uniform(20, 80), rng.uniform(-50, 50, 2)
        anchors[b, :, 0] = cx + radius * np.cos(phase)
        anchors[b, :, 1] = cy + radius * np.sin(phase)
        anchors[b, :, 2] = rng.uniform(20, 100)
        if b % 3 == 1:
            anchors[b, :, 2] += rng.uniform(-5, 5, k)
        elif b % 3 == 2:
            anchors[b, :, 1] = cy
    targets = np.column_stack([rng.uniform(-100, 100, n), rng.uniform(-100, 100, n), np.zeros(n)])
    d = np.linalg.norm(anchors - targets[:, None, :], axis=2) + rng.normal(0, 1.0, (n, k))
    return anchors, np.maximum(d, 0.0)


class TestClosedFormStarts:
    TALL = ((-300.0, 300.0), (-300.0, 300.0), (-300.0, 300.0))

    def test_level_circle_yields_both_z_roots(self):
        # A circle at altitude 100 loses z; the target at z = 0 and its
        # mirror at z = 200 are the two roots.
        target = Position3(20, -10, 0)
        anchors, d = _arrays(circle_measurements(target))
        starts, counts = _closed_form_starts(anchors[None], d[None], *_box(self.TALL))
        assert counts[0] == 2
        found = starts[0][np.argsort(starts[0][:, 2])]
        assert np.allclose(found, [[20, -10, 0], [20, -10, 200]], atol=1e-6)
        # In the default band both roots are clipped to it.
        starts, counts = _closed_form_starts(anchors[None], d[None], *_box(BAND))
        assert counts[0] == 2
        assert np.allclose(np.sort(starts[0][:, 2]), [0.0, 10.0], atol=1e-6)

    def test_straight_path_yields_target_and_mirror(self):
        target = Position3(20, -10, 0)
        spec = LinearTrajectory(start=Position3(0, 0, 100), velocity=Position3(10, 3, 0))
        anchors, d = _arrays(line_measurements(target, spec))
        starts, counts = _closed_form_starts(anchors[None], d[None], *_box(PLANE))
        assert counts[0] == 2
        mirror = linear_mirror(spec, target)
        for want in (target, mirror):
            assert np.min(np.linalg.norm(starts[0] - want.as_array(), axis=1)) < 1e-6

    def test_full_rank_gives_one_start(self):
        anchors = np.array([[0, 0, 0], [100, 0, 0], [0, 100, 0], [0, 0, 100], [60, 70, 80.0]])
        target = np.array([20.0, 30.0, 40.0])
        d = np.linalg.norm(anchors - target, axis=1)
        starts, counts = _closed_form_starts(anchors[None], d[None], *_box(self.TALL))
        assert counts[0] == 1
        assert np.allclose(starts[0, 0], target, atol=1e-6)

    def test_two_lost_directions_take_the_grid(self, monkeypatch):
        # Collinear anchors with all three axes free lose two directions.
        anchors = np.column_stack([np.linspace(-50, 50, 20), np.zeros(20), np.full(20, 100.0)])
        d = np.linalg.norm(anchors - np.array([10.0, 20.0, 0.0]), axis=1)
        _, counts = _closed_form_starts(anchors[None], d[None], *_box(BAND))
        assert counts[0] == 0
        calls = _record_kernel_calls(monkeypatch)
        pseudo_multilaterate_static_batch(anchors[None], d[None], BAND)
        assert calls == [(1, 25)]  # the 5 x 5 x 1 fallback grid

    def test_unconverged_closed_form_takes_the_grid(self, monkeypatch):
        # One iteration cannot converge a noisy solve, so the grid runs too
        # and the solution says it did not converge.
        model = NoiseModel(sigma0=1.0, eta=0.01, nlos_bias_mean=5.0)
        anchors, d = _arrays(circle_measurements(Position3(20, -10, 0), seed=3, model=model))
        calls = _record_kernel_calls(monkeypatch, max_iter=1)
        sol = pseudo_multilaterate_static_batch(anchors[None], d[None], BAND)[0]
        assert calls == [(1, 2), (1, 25)]
        assert not sol.converged

    def test_noisy_solves_report_converged(self):
        anchors, d = _mixed_batch()
        level = np.arange(anchors.shape[0]) % 3 == 0
        sols = pseudo_multilaterate_static_batch(anchors[level], d[level], BAND)
        assert all(sol.converged for sol in sols)

    def test_alone_or_in_a_batch_bit_identical(self):
        anchors, d = _mixed_batch()
        lo, hi = _box(BAND)
        starts, counts = _closed_form_starts(anchors, d, lo, hi)
        assert set(counts) == {0, 1, 2}
        sols = pseudo_multilaterate_static_batch(anchors, d, BAND)
        for b in range(anchors.shape[0]):
            alone_starts, alone_counts = _closed_form_starts(anchors[b : b + 1], d[b : b + 1], lo, hi)
            assert np.array_equal(alone_starts[0], starts[b]) and alone_counts[0] == counts[b]
            assert pseudo_multilaterate_static_batch(anchors[b : b + 1], d[b : b + 1], BAND)[0] == sols[b]
        part = slice(5, 17)
        assert pseudo_multilaterate_static_batch(anchors[part], d[part], BAND) == sols[part]

    def test_kernel_never_called_with_zero_problems(self, monkeypatch):
        calls = _record_kernel_calls(monkeypatch)
        anchors, d = _mixed_batch()
        kinds = np.arange(anchors.shape[0]) % 3
        for group in ([0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]):
            pick = np.isin(kinds, group)
            pseudo_multilaterate_static_batch(anchors[pick], d[pick], BAND)
        multilaterate(anchors[1, :6], d[1, :6], ((-200.0, 200.0),) * 3)
        cfg = {
            "version": 1,
            "trajectory": {"kind": "circular", "center": [300.0, 0.0, 40.0], "radius": 50.0,
                           "angular_speed": 2 * math.pi / 60},
            "dt": 1.0,
            "target": {"kind": "static", "position": [0.0, 0.0, 0.0]},
            "noise": {"kind": "statistical", "sigma0": 1.0, "eta": 0.01, "nlos_bias_mean": 5.0},
            "relocation": {"min_radius": 15.0, "shrink_factor": 0.5, "max_center_step": 400.0, "altitude": 40.0},
            "n_revolutions": 2,
            "runs": 12,
            "bounds": [[-150.0, 150.0], [-150.0, 150.0], [0.0, 10.0]],
        }
        run_scenario(parse_scenario_config(cfg))
        assert calls  # the recorder refused any call with zero problems
