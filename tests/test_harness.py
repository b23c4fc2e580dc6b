import dataclasses
import json
import math
import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from pseudolat import harness
from pseudolat.harness import (
    ConfigError,
    HistogramSpec,
    LinearTarget,
    StaticTarget,
    compare_waveforms,
    parse_compare_config,
    parse_crlb_config,
    parse_scenario_config,
    run_scenario,
    scenario_matrices,
    summary_stats,
    write_report_csv,
    write_summary_json,
)
from pseudolat.geometry import Position3, sample_trajectory
from pseudolat.waveform import C_LIGHT, Path, PathSet, WaveformConfig


def base_scenario(**overrides):
    cfg = {
        "version": 1,
        "name": "unit",
        "trajectory": {
            "kind": "circular",
            "center": [0.0, 0.0, 100.0],
            "radius": 50.0,
            "angular_speed": 2 * math.pi / 60,
            "phase0": 0.0,
        },
        "dt": 1.0,
        "target": {"kind": "static", "position": [20.0, -10.0, 0.0]},
        "obstacles": [],
        "noise": {"kind": "statistical", "sigma0": 1.0, "eta": 0.01, "nlos_bias_mean": 5.0},
        "n_revolutions": 1,
        "runs": 3,
        "base_seed": 1,
        "bounds": [[-150.0, 150.0], [-150.0, 150.0], [0.0, 10.0]],
    }
    cfg.update(overrides)
    return cfg


class TestParsing:
    def test_valid_config_parses(self):
        cfg = parse_scenario_config(base_scenario())
        assert cfg.name == "unit"
        assert cfg.runs == 3
        assert cfg.bounds[2] == (0.0, 10.0)

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(ConfigError, match="sedd"):
            parse_scenario_config(base_scenario(sedd=3))

    def test_unknown_nested_field_rejected(self):
        raw = base_scenario()
        raw["trajectory"]["radiuss"] = 4.0
        with pytest.raises(ConfigError, match="trajectory.radiuss"):
            parse_scenario_config(raw)

    def test_missing_field_named(self):
        raw = base_scenario()
        del raw["dt"]
        with pytest.raises(ConfigError, match="dt"):
            parse_scenario_config(raw)

    def test_bad_version(self):
        with pytest.raises(ConfigError, match="version"):
            parse_scenario_config(base_scenario(version=2))

    def test_relocation_requires_circular(self):
        raw = base_scenario(
            trajectory={"kind": "linear", "start": [0, 0, 100], "velocity": [10, 0, 0]},
            samples_per_revolution=60,
            relocation={
                "min_radius": 10.0,
                "shrink_factor": 0.5,
                "max_center_step": 50.0,
                "altitude": 100.0,
            },
        )
        with pytest.raises(ConfigError, match="relocation"):
            parse_scenario_config(raw)

    def test_relocation_requires_whole_revolutions(self):
        # relocate() starts the next circle where a whole revolution ends;
        # 45 of the circle's 60 samples would end it 270 degrees around.
        policy = {"min_radius": 10.0, "shrink_factor": 0.5, "max_center_step": 50.0, "altitude": 100.0}
        with pytest.raises(ConfigError, match="samples_per_revolution must be 60"):
            parse_scenario_config(base_scenario(samples_per_revolution=45, relocation=policy))
        cfg = parse_scenario_config(base_scenario(samples_per_revolution=60, relocation=policy))
        assert cfg.samples_per_rev() == 60
        assert parse_scenario_config(base_scenario(samples_per_revolution=45)).samples_per_rev() == 45

    def test_linear_requires_sample_count(self):
        raw = base_scenario(
            trajectory={"kind": "linear", "start": [0, 0, 100], "velocity": [10, 0, 0]}
        )
        with pytest.raises(ConfigError, match="samples_per_revolution"):
            parse_scenario_config(raw)

    def test_domain_error_carries_field_path(self):
        raw = base_scenario()
        raw["trajectory"]["radius"] = -1.0
        with pytest.raises(ConfigError, match="trajectory"):
            parse_scenario_config(raw)

    def test_waveform_noise_parses(self):
        raw = base_scenario(
            noise={
                "kind": "waveform",
                "waveform": {"scheme": "otfs", "n_subcarriers": 64, "n_symbols": 8},
                "ensemble": {"snr_db": 20.0, "n_paths_min": 1, "n_paths_max": 2},
            }
        )
        cfg = parse_scenario_config(raw)
        from pseudolat.harness import WaveformRanging

        assert isinstance(cfg.noise, WaveformRanging)
        assert cfg.noise.waveform.n_subcarriers == 64

    def test_compare_config_defaults(self):
        cfg = parse_compare_config({"version": 1})
        assert cfg.spacings_hz == (30e3, 120e3)
        assert cfg.trials == 5000
        assert cfg.waveform == WaveformConfig(scheme="ofdm")

    def test_compare_rejects_scheme_field(self):
        with pytest.raises(ConfigError, match="scheme"):
            parse_compare_config({"version": 1, "waveform": {"scheme": "ofdm"}})

    def test_compare_rejects_spacing_field(self):
        with pytest.raises(ConfigError, match="subcarrier_spacing_hz"):
            parse_compare_config({"version": 1, "waveform": {"subcarrier_spacing_hz": 15e3}})

    def test_crlb_config(self):
        anchors, target, sigma_fn = parse_crlb_config(
            {
                "version": 1,
                "anchors": [[10, 0, 0], [0, 10, 0], [0, 0, 10]],
                "target": [0, 0, 0],
                "sigma": {"sigma0": 2.0, "eta": 0.0},
            }
        )
        assert len(anchors) == 3
        assert sigma_fn(100.0) == 2.0


def _assert_same_runs(a, b):
    """``a`` holds ``b``'s truth and, row for row, ``b``'s first runs."""
    assert a.true_pos == b.true_pos
    n = len(a.est)
    for name in ("est", "rev_errors", "residual", "converged", "n_alternates"):
        assert np.array_equal(getattr(a, name), getattr(b, name)[:n]), name


class TestRunScenario:
    def test_noiseless_static_recovers_target(self):
        raw = base_scenario(
            noise={"kind": "statistical", "sigma0": 0.0, "eta": 0.0, "nlos_bias_mean": 0.0},
            runs=1,
        )
        report = run_scenario(parse_scenario_config(raw))
        assert report.errors[0] < 1e-6
        assert report.convergence_rate == 1.0

    def test_deterministic_given_seed(self):
        cfg = parse_scenario_config(base_scenario(runs=5))
        a = run_scenario(cfg)
        b = run_scenario(cfg)
        assert len(a.est) == len(b.est) == 5
        _assert_same_runs(a, b)

    def test_threads_do_not_change_results(self, monkeypatch):
        # Waveform-backed ranging fans out each (run, revolution)'s samples.
        noise = {
            "kind": "waveform",
            "waveform": {"scheme": "otfs", "n_subcarriers": 64, "n_symbols": 8},
            "ensemble": {"snr_db": 20.0, "n_paths_min": 1, "n_paths_max": 3},
        }
        cfg = parse_scenario_config(base_scenario(runs=6, noise=noise, dt=6.0))
        monkeypatch.setenv("PSEUDOLAT_THREADS", "1")
        seq = run_scenario(cfg)
        monkeypatch.setenv("PSEUDOLAT_THREADS", "3")
        par = run_scenario(cfg)
        assert len(seq.est) == len(par.est) == 6
        _assert_same_runs(seq, par)

    def test_runs_do_not_depend_on_run_count(self):
        # A revolution's runs are solved in one batch; a run's results must
        # not depend on how many other runs share its revolution.
        raw = base_scenario(
            trajectory={
                "kind": "circular",
                "center": [120.0, 0.0, 40.0],
                "radius": 50.0,
                "angular_speed": 2 * math.pi / 60,
                "phase0": 0.0,
            },
            n_revolutions=2,
            relocation={
                "min_radius": 15.0,
                "shrink_factor": 0.5,
                "max_center_step": 400.0,
                "altitude": 40.0,
            },
        )
        few = run_scenario(parse_scenario_config(dict(raw, runs=3)))
        many = run_scenario(parse_scenario_config(dict(raw, runs=7)))
        _assert_same_runs(few, many)
        assert len({tuple(row) for row in many.rev_errors.tolist()}) == 7

    def test_moving_target_errors_stay_bounded(self):
        raw = base_scenario(
            target={"kind": "linear", "start": [5.0, -5.0, 0.0], "velocity": [0.3, 0.0, 0.0]},
            noise={"kind": "statistical", "sigma0": 0.0, "eta": 0.0, "nlos_bias_mean": 0.0},
            runs=1,
        )
        report = run_scenario(parse_scenario_config(raw))
        assert report.errors[0] < 10.0

    def test_report_files_and_stats_integrity(self, tmp_path):
        cfg = parse_scenario_config(base_scenario(runs=8))
        report = run_scenario(cfg)
        csv_path = tmp_path / "report.csv"
        json_path = tmp_path / "summary.json"
        write_report_csv(report, csv_path)
        write_summary_json(report, json_path)

        lines = csv_path.read_text().strip().split("\n")
        header = lines[0].split(",")
        err_col = header.index("err_m")
        errors = np.array([float(ln.split(",")[err_col]) for ln in lines[1:]])
        recomputed = summary_stats(errors)
        stored = json.loads(json_path.read_text())["final_error_m"]
        assert recomputed == stored

    def test_final_error_is_the_final_estimate_against_the_truth(self):
        # ``errors`` reads the last revolution's column of ``rev_errors``;
        # it must be each run's final ``est`` measured against ``true_pos``.
        raw = base_scenario(
            target={"kind": "linear", "start": [20.0, -10.0, 0.0], "velocity": [0.5, -0.2, 0.0]},
            n_revolutions=3,
            runs=4,
            relocation={"min_radius": 15.0, "shrink_factor": 0.5, "max_center_step": 400.0, "altitude": 100.0},
        )
        report = run_scenario(parse_scenario_config(raw))
        assert report.rev_errors.shape == (4, 3)
        truth = report.true_pos.as_array()
        assert report.errors.tolist() == [float(np.linalg.norm(e - truth)) for e in report.est]
        for name in ("residual", "converged", "n_alternates"):
            assert getattr(report, name).shape == (4,), name

    def test_report_rows_are_the_report_arrays(self, tmp_path):
        cfg = parse_scenario_config(base_scenario(runs=5, n_revolutions=2))
        report = run_scenario(cfg)
        csv_path = tmp_path / "report.csv"
        json_path = tmp_path / "summary.json"
        write_report_csv(report, csv_path)
        write_summary_json(report, json_path)

        lines = csv_path.read_text().strip().split("\n")
        assert len(lines) == 1 + 5
        for run, line in enumerate(lines[1:]):
            fields = line.split(",")
            assert fields[:2] == [cfg.name, str(run)]
            assert [float(v) for v in fields[2:5]] == list(report.true_pos.as_array())
            assert [float(v) for v in fields[5:8]] == report.est[run].tolist()
            assert float(fields[8]) == report.errors[run]
            assert float(fields[9]) == report.residual[run]
            assert int(fields[10]) == int(report.converged[run])
            assert int(fields[11]) == report.n_alternates[run]
        summary = json.loads(json_path.read_text())
        assert summary["runs"] == 5
        assert summary["convergence_rate"] == float(np.mean(report.converged))
        assert summary["per_revolution_median_error_m"] == np.median(report.rev_errors, axis=0).tolist()

    def test_nan_error_is_rejected_before_the_summary_is_written(self, tmp_path):
        # Strict JSON has no NaN token: the writer raises and writes nothing.
        report = run_scenario(parse_scenario_config(base_scenario(runs=2)))
        rev_errors = report.rev_errors.copy()
        rev_errors[0, -1] = math.nan
        bad = dataclasses.replace(report, rev_errors=rev_errors)
        path = tmp_path / "summary.json"
        with pytest.raises(ValueError):
            write_summary_json(bad, path)
        assert not path.exists()

    def test_waveform_backed_scenario_runs(self):
        raw = base_scenario(
            noise={
                "kind": "waveform",
                "waveform": {"scheme": "otfs", "n_subcarriers": 64, "n_symbols": 8},
                "ensemble": {
                    "snr_db": 30.0,
                    "n_paths_min": 1,
                    "n_paths_max": 1,
                    "excess_mean_m": 10.0,
                },
            },
            runs=1,
            dt=4.0,
        )
        report = run_scenario(parse_scenario_config(raw))
        # One ranging bin at 64 x 30 kHz is ~156 m, so just check sanity.
        assert report.errors[0] < 200.0

    @pytest.mark.parametrize("obstacles", [[], [{"min": [-5.0, -5.0, 0.0], "max": [5.0, 5.0, 20.0]}]])
    @pytest.mark.parametrize("backend", ["statistical", "waveform"])
    def test_target_on_the_anchor_path_rejected(self, backend, obstacles):
        # Sample 0 of the circle is (50, 0, 100), where the target sits.
        noise = {
            "statistical": {"kind": "statistical"},
            "waveform": {
                "kind": "waveform",
                "waveform": {"scheme": "otfs", "n_subcarriers": 64, "n_symbols": 8},
            },
        }[backend]
        raw = base_scenario(
            target={"kind": "static", "position": [50.0, 0.0, 100.0]},
            noise=noise,
            obstacles=obstacles,
            runs=1,
        )
        cfg = parse_scenario_config(raw)
        with pytest.raises(ValueError, match="anchor and target must not coincide"):
            run_scenario(cfg)
        with pytest.raises(ValueError, match="anchor and target must not coincide"):
            scenario_matrices(cfg)

    def test_moving_target_truth_follows_the_revolution_clock(self):
        # dt = 0.7 gives 86 samples per revolution, and the clock adds 86 dt
        # per revolution in floating point. Every run shares that clock, so
        # the report's one truth is the target at the last revolution's
        # midpoint.
        raw = base_scenario(
            target={"kind": "linear", "start": [20.0, -10.0, 0.0], "velocity": [0.5, -0.2, 0.0]},
            dt=0.7,
            n_revolutions=3,
            runs=4,
            relocation={
                "min_radius": 15.0,
                "shrink_factor": 0.5,
                "max_center_step": 400.0,
                "altitude": 40.0,
            },
        )
        report = run_scenario(parse_scenario_config(raw))
        assert report.true_pos == Position3(95.07499999999999, -40.03, 0.0)
        assert report.est.shape == (4, 3) and report.rev_errors.shape == (4, 3)


@pytest.mark.parametrize(
    "target, velocity",
    [
        (StaticTarget(Position3(20.0, -10.0, 0.0)), (0.0, 0.0, 0.0)),
        (LinearTarget(Position3(20.0, -10.0, 0.0), Position3(0.5, -0.2, 0.0)), (0.5, -0.2, 0.0)),
    ],
)
def test_path_at_matches_closed_form(target, velocity):
    # The times of revolution 2 at dt = 0.7, where the clock is inexact.
    t = 120.39999999999999 + 0.7 * np.arange(86)
    path = target.path_at(t)
    assert path.shape == (86, 3)
    start, velocity = np.array([20.0, -10.0, 0.0]), np.array(velocity)
    for k in range(t.size):
        assert path[k].tobytes() == (start + float(t[k]) * velocity).tobytes()


class TestMatrices:
    def test_scenario_matrices_labels(self):
        # One matrix per revolution, of the period's 60 samples, cut from one
        # continuous anchor path.
        cfg = parse_scenario_config(base_scenario(n_revolutions=3, runs=1))
        mats = scenario_matrices(cfg)
        assert [m.rows.shape for m in mats] == [(60, 4)] * 3
        assert [m.revolution for m in mats] == [0, 1, 2]
        path = sample_trajectory(cfg.trajectory, 0.0, cfg.dt, 180)
        assert np.array_equal(np.concatenate([m.rows[:, :3] for m in mats]), path.p)
        assert mats[0].label is not None
        assert np.allclose(mats[0].label.as_array(), [20.0, -10.0, 0.0])

    def test_matrices_follow_the_revolution_clock(self, monkeypatch):
        # dt = 0.9 gives 67 samples per revolution. The export samples and
        # labels every revolution on run_scenario's clock, bit for bit: the
        # closed form 0.5 dt (2 r S + S - 1) would put revolution 3's
        # midpoint at 210.60000000000002 s, where the clock reads 210.6 s.
        raw = base_scenario(
            target={"kind": "linear", "start": [20.0, -10.0, 0.0], "velocity": [0.5, -0.2, 0.0]},
            dt=0.9,
            n_revolutions=4,
            runs=1,
        )
        cfg = parse_scenario_config(raw)
        assert cfg.samples_per_rev() == 67
        grid = []
        sample = harness.sample_trajectory
        with monkeypatch.context() as patch:
            patch.setattr(harness, "sample_trajectory", lambda *args: grid.append(sample(*args)) or grid[-1])
            run_scenario(cfg)
        mats = scenario_matrices(cfg)
        assert len(grid) == len(mats) == 4
        for r, m in enumerate(mats):
            assert m.rows[:, :3].tobytes() == grid[r].p.tobytes()
            assert m.label == run_scenario(dataclasses.replace(cfg, n_revolutions=r + 1)).true_pos

    def test_rejects_linear_spec(self):
        raw = base_scenario(
            trajectory={"kind": "linear", "start": [0.0, 0.0, 100.0], "velocity": [10.0, 0.0, 0.0]},
            samples_per_revolution=10,
        )
        with pytest.raises(ConfigError, match="circular trajectory"):
            scenario_matrices(parse_scenario_config(raw))

    def test_nlos_rows_positively_biased(self):
        # The blocked run shows up as an elevated block of measured ranges
        # relative to a noiseless, unobstructed export of the same path.
        wall = {"min": [0.0, -10.0, 0.0], "max": [10.0, 10.0, 70.0]}
        target = {"kind": "static", "position": [60.0, 0.0, 0.0]}
        noisy = base_scenario(
            target=target,
            obstacles=[wall],
            noise={"kind": "statistical", "sigma0": 0.0, "eta": 0.0, "nlos_bias_mean": 8.0},
        )
        clean = base_scenario(
            target=target,
            noise={"kind": "statistical", "sigma0": 0.0, "eta": 0.0, "nlos_bias_mean": 0.0},
        )
        m = scenario_matrices(parse_scenario_config(noisy))[0]
        r = scenario_matrices(parse_scenario_config(clean))[0]
        nlos_rows = np.nonzero(~m.los)[0]
        assert 0 < nlos_rows.size < 60
        assert np.all(m.rows[nlos_rows, 3] >= r.rows[nlos_rows, 3])
        assert np.any(m.rows[nlos_rows, 3] > r.rows[nlos_rows, 3])
        assert np.array_equal(m.rows[m.los, 3], r.rows[m.los, 3])


class _IntegerBinLosEnsemble:
    """Noiseless single-path draws with integer-bin distances at 30 kHz.

    Distances that are integer multiples of the 30 kHz delay bin are also
    integer multiples of the 120 kHz bin, so both spacings see exact-peak
    channels (the exact-recovery regime).
    """

    def __init__(self):
        self.bin_m = C_LIGHT / (256 * 30e3)

    def draw(self, carrier_freq, rng):
        k = int(rng.integers(3, 8))
        d_true = k * self.bin_m
        paths = (Path(delay=d_true / C_LIGHT, doppler=0.0, gain=1 + 0j),)
        return d_true, PathSet(paths=paths, snr_db=math.inf)


class TestCompare:
    def test_noiseless_exact_recovery_regime(self):
        from pseudolat.harness import CompareConfig

        cfg = CompareConfig(
            name="exact",
            spacings_hz=(30e3, 120e3),
            waveform=WaveformConfig(
                scheme="ofdm",
                n_subcarriers=256,
                n_symbols=8,
                carrier_freq=28e9,
                cp_fraction=1 / 16,
                oversample=1,
                threshold_db=6.0,
            ),
            ensemble=_IntegerBinLosEnsemble(),
            trials=25,
            base_seed=3,
            histogram=HistogramSpec(),
        )
        cmp = compare_waveforms(cfg)
        for (_, _), err in cmp.errors.items():
            assert np.all(np.isfinite(err))
            assert np.mean(err) < 0.05
        # Both schemes sit on the same (near-zero) floor here, so their
        # means agree to within the exactness tolerance.
        for df in cfg.spacings_hz:
            gap = abs(np.mean(cmp.errors[("otfs", df)]) - np.mean(cmp.errors[("ofdm", df)]))
            assert gap < 0.05

    def test_paired_trials_share_channels(self):
        from pseudolat.harness import CompareConfig
        from pseudolat.waveform import NlosEnsemble

        cfg = CompareConfig(
            name="paired",
            spacings_hz=(30e3,),
            waveform=WaveformConfig(
                scheme="ofdm",
                n_subcarriers=64,
                n_symbols=8,
                carrier_freq=28e9,
                cp_fraction=1 / 16,
                oversample=1,
                threshold_db=6.0,
            ),
            ensemble=NlosEnsemble(snr_db=math.inf, n_paths_min=1, n_paths_max=1),
            trials=10,
            base_seed=11,
            histogram=HistogramSpec(),
        )
        a = compare_waveforms(cfg)
        b = compare_waveforms(cfg)
        for key in a.errors:
            assert np.array_equal(a.errors[key], b.errors[key], equal_nan=True)

    def test_all_censored_cell_writes_strict_json(self, tmp_path):
        from pseudolat.harness import WaveformComparison, write_comparison_json

        def no_constants(name):
            raise AssertionError(f"non-JSON constant {name} in the summary")

        cmp = WaveformComparison(
            spacings_hz=(30e3,),
            trials=2,
            errors={
                ("ofdm", 30e3): np.array([math.nan, math.nan]),
                ("otfs", 30e3): np.array([1.5, math.nan]),
            },
            histogram=HistogramSpec(),
        )
        path = tmp_path / "waveform_summary.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            write_comparison_json(cmp, path)
        payload = json.loads(path.read_text(), parse_constant=no_constants)
        ofdm, otfs = payload["cells"]
        assert (ofdm["scheme"], ofdm["trials"], ofdm["censored"]) == ("ofdm", 2, 2)
        assert ofdm["mean_error_m"] is None
        assert ofdm["median_error_m"] is None
        assert ofdm["variance_m2"] is None
        assert (otfs["trials"], otfs["censored"], otfs["mean_error_m"]) == (2, 1, 1.5)
        assert payload["otfs_over_ofdm_mean_ratio"] == {"30000.0": None}


class TestWorkers:
    def test_default_is_the_usable_cores(self, monkeypatch):
        monkeypatch.delenv("PSEUDOLAT_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert harness._worker_count(100) == 3

    @pytest.mark.parametrize("raw, n_tasks, want", [("1", 50, 1), ("4", 50, 4), ("4", 3, 3), ("4", 0, 1)])
    def test_variable_overrides_and_tasks_cap(self, monkeypatch, raw, n_tasks, want):
        monkeypatch.setenv("PSEUDOLAT_THREADS", raw)
        assert harness._worker_count(n_tasks) == want

    def test_huge_value_capped_by_tasks(self, monkeypatch):
        # Resolving the count starts no thread, so this runs nothing.
        monkeypatch.setenv("PSEUDOLAT_THREADS", str(10**9))
        assert harness._worker_count(6) == 6

    @pytest.mark.parametrize("raw", ["0", "-3", "two", "", "1.5"])
    def test_rejects_anything_but_a_positive_integer(self, monkeypatch, raw):
        monkeypatch.setenv("PSEUDOLAT_THREADS", raw)
        with pytest.raises(RuntimeError, match="PSEUDOLAT_THREADS must be a positive integer"):
            harness._worker_count(10)

    def _map_in_time(self, fn, n, timeout=60.0, draw=None):
        out = {}

        def call():
            try:
                out["result"] = harness._map_indexed(fn, n, draw=draw)
            except BaseException as e:  # handed to the test thread
                out["error"] = e

        t = threading.Thread(target=call)
        t.start()
        t.join(timeout)
        assert not t.is_alive()
        return out

    def test_calling_thread_shares_the_work(self, monkeypatch):
        monkeypatch.setenv("PSEUDOLAT_THREADS", "3")
        caller = threading.current_thread()
        seen = []

        def fn(i):
            seen.append(threading.current_thread())
            time.sleep(0.002)
            return i * i

        assert harness._map_indexed(fn, 30) == [i * i for i in range(30)]
        assert caller in seen
        assert len(set(seen)) == 3

    def test_never_more_threads_than_tasks(self, monkeypatch):
        monkeypatch.setenv("PSEUDOLAT_THREADS", "8")
        started = []

        class CountingThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(harness.threading, "Thread", CountingThread)
        assert harness._map_indexed(lambda i: i, 2) == [0, 1]
        assert len(started) == 1  # the calling thread runs the other task
        assert harness._map_indexed(lambda i: i, 1) == [0]
        assert len(started) == 1

    def test_lowest_failing_index_is_raised(self, monkeypatch):
        monkeypatch.setenv("PSEUDOLAT_THREADS", "3")
        calls = []

        def fn(i):
            calls.append(i)
            time.sleep(0.001)
            if i in (5, 7):
                raise ValueError(f"task {i}")
            return i

        before = threading.active_count()
        out = self._map_in_time(fn, 40)
        assert isinstance(out.get("error"), ValueError) and str(out["error"]) == "task 5"
        assert set(range(6)) <= set(calls) and len(calls) < 40
        assert threading.active_count() == before

    def test_each_index_runs_once_under_contention(self, monkeypatch):
        # More threads than cores and a tiny switch interval, so a lost
        # update of the shared next index would repeat or skip a task.
        monkeypatch.setenv("PSEUDOLAT_THREADS", "8")
        calls = []

        def fn(i):
            calls.append(i)
            return sum(range(i % 50)) + i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = self._map_in_time(fn, 3000)
        finally:
            sys.setswitchinterval(interval)
        assert out["result"] == [sum(range(i % 50)) + i for i in range(3000)]
        assert sorted(calls) == list(range(3000))

    def test_draws_run_in_index_order_under_contention(self, monkeypatch):
        # draw runs under the lock that hands out its index, so a generator
        # shared by all draws yields a serial loop's stream at any schedule.
        monkeypatch.setenv("PSEUDOLAT_THREADS", "8")
        drawn = []
        rng = np.random.default_rng(5)

        def draw(i):
            drawn.append(i)
            return rng.random()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = self._map_in_time(lambda i, x: (i, x), 3000, draw=draw)
        finally:
            sys.setswitchinterval(interval)
        assert drawn == list(range(3000))
        assert out["result"] == list(enumerate(np.random.default_rng(5).random(3000).tolist()))

    @pytest.mark.parametrize("threads", ["1", "3"])
    def test_failing_draw_takes_no_later_index(self, monkeypatch, threads):
        monkeypatch.setenv("PSEUDOLAT_THREADS", threads)
        drawn, worked = [], []

        def draw(i):
            drawn.append(i)
            if i == 17:
                raise ValueError(f"draw {i}")
            return i

        def fn(i, x):
            worked.append(i)
            time.sleep(0.001)
            return x

        before = threading.active_count()
        out = self._map_in_time(fn, 40, draw=draw)
        assert isinstance(out.get("error"), ValueError) and str(out["error"]) == "draw 17"
        assert drawn == list(range(18))
        assert sorted(worked) == list(range(17))
        assert threading.active_count() == before

    @pytest.mark.parametrize("threads", ["1", "3"])
    def test_work_failure_below_a_failing_draw_wins(self, monkeypatch, threads):
        # Index 4's work is still running when index 9's draw fails; a serial
        # loop would have stopped at index 4.
        monkeypatch.setenv("PSEUDOLAT_THREADS", threads)

        def draw(i):
            if i == 9:
                raise ValueError(f"draw {i}")
            return i

        def fn(i, x):
            if i == 4:
                time.sleep(0.05)
                raise RuntimeError(f"work {i}")
            return x

        out = self._map_in_time(fn, 40, draw=draw)
        assert isinstance(out.get("error"), RuntimeError) and str(out["error"]) == "work 4"

    @pytest.mark.parametrize("entry", ["run_scenario", "scenario_matrices"])
    def test_waveform_ranging_never_nests_fan_outs(self, monkeypatch, entry):
        # Only each (run, revolution)'s samples fan out, so 3 workers mean
        # at most 2 helper threads alive at any time.
        monkeypatch.setenv("PSEUDOLAT_THREADS", "3")
        lock = threading.Lock()
        alive = [0]
        most = [0]

        class CountingThread(threading.Thread):
            def run(self):
                with lock:
                    alive[0] += 1
                    most[0] = max(most[0], alive[0])
                try:
                    super().run()
                finally:
                    with lock:
                        alive[0] -= 1

        noise = {
            "kind": "waveform",
            "waveform": {"scheme": "otfs", "n_subcarriers": 64, "n_symbols": 8},
            "ensemble": {"snr_db": 20.0, "n_paths_min": 1, "n_paths_max": 3},
        }
        cfg = parse_scenario_config(base_scenario(runs=4, n_revolutions=2, noise=noise, dt=6.0))
        monkeypatch.setattr(harness.threading, "Thread", CountingThread)
        getattr(harness, entry)(cfg)
        assert most[0] == 2
