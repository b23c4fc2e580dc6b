"""Acceptance criteria, one test per criterion.

Run `pytest tests/test_acceptance.py -v -s` to get one PASS/FAIL line per
criterion. Every tolerance is pinned here; nothing is deferred.
"""

import json
import math
import time

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
from pseudolat.harness import (
    CompareConfig,
    HistogramSpec,
    compare_waveforms,
    parse_scenario_config,
    run_scenario,
)
from pseudolat import _kernels
from pseudolat.localization import crlb, multilaterate, pseudo_multilaterate_static
from pseudolat.cli import main as cli_main
from pseudolat.ranging import NoiseModel, RangeMeasurement, collect_measurements
from pseudolat.waveform import (
    C_LIGHT,
    NlosEnsemble,
    Path,
    PathSet,
    WaveformConfig,
    estimate_toa,
    isfft,
    make_pilot,
    apply_channel,
    ranging_error_trial,
    sfft,
)

NOISELESS = NoiseModel(sigma0=0.0, eta=0.0, nlos_bias_mean=0.0)
BAND = ((-150.0, 150.0), (-150.0, 150.0), (0.0, 10.0))
PLANE = ((-400.0, 400.0), (-400.0, 400.0), (0.0, 0.0))


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _static_measurements(spec, target, n, model=NOISELESS):
    anchor = sample_trajectory(spec, 0.0, 1.0, n)
    tseries = WaypointSeries(anchor.t, np.tile(target.as_array(), (n, 1)))
    return collect_measurements(anchor, tseries, [], model, 0)


def test_criterion_1_noiseless_recovery_speed():
    rng = np.random.default_rng(101)
    cases = []
    for _ in range(100):
        target = Position3(rng.uniform(-100, 100), rng.uniform(-100, 100), 0.0)
        spec = CircularTrajectory(
            center=Position3(0.0, 0.0, 100.0),
            radius=50.0,
            angular_speed=2 * math.pi / 60,
            phase0=rng.uniform(0, 2 * math.pi),
        )
        cases.append((spec, target))
    start = time.perf_counter()
    worst = 0.0
    for spec, target in cases:
        meas = _static_measurements(spec, target, 60)
        sol = pseudo_multilaterate_static(meas, BAND)
        worst = max(worst, float(np.linalg.norm(sol.p_hat.as_array() - target.as_array())))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 1.0
    _verdict(1, ok, f"worst error {worst:.2e} m over 100 configs in {elapsed:.3f} s")


def test_criterion_2_linear_ambiguity_circular_uniqueness():
    rng = np.random.default_rng(202)
    mirror_hits = 0
    for _ in range(100):
        start = Position3(rng.uniform(-50, 50), rng.uniform(-50, 50), 100.0)
        heading = rng.uniform(0, 2 * math.pi)
        speed = rng.uniform(5, 15)
        spec = LinearTrajectory(
            start=start,
            velocity=Position3(speed * math.cos(heading), speed * math.sin(heading), 0.0),
        )
        while True:
            target = Position3(rng.uniform(-150, 150), rng.uniform(-150, 150), 0.0)
            mirror = linear_mirror(spec, target)
            if np.linalg.norm(mirror.as_array() - target.as_array()) > 2.0:
                break
        sol = pseudo_multilaterate_static(_static_measurements(spec, target, 60), PLANE)
        if len(sol.alternates) != 1:
            break
        pair = {tuple(np.round(sol.p_hat.as_array(), 5)), tuple(np.round(sol.alternates[0][0].as_array(), 5))}
        truth = {tuple(np.round(target.as_array(), 5)), tuple(np.round(mirror.as_array(), 5))}
        err_primary = min(
            np.linalg.norm(sol.p_hat.as_array() - target.as_array()),
            np.linalg.norm(sol.p_hat.as_array() - mirror.as_array()),
        )
        err_alt = min(
            np.linalg.norm(sol.alternates[0][0].as_array() - target.as_array()),
            np.linalg.norm(sol.alternates[0][0].as_array() - mirror.as_array()),
        )
        if pair != truth or err_primary > 1e-6 or err_alt > 1e-6:
            break
        mirror_hits += 1

    circular_clean = 0
    for _ in range(100):
        spec = CircularTrajectory(
            center=Position3(rng.uniform(-20, 20), rng.uniform(-20, 20), 100.0),
            radius=50.0,
            angular_speed=2 * math.pi / 60,
            phase0=rng.uniform(0, 2 * math.pi),
        )
        while True:
            target = Position3(rng.uniform(-100, 100), rng.uniform(-100, 100), 0.0)
            axis_dist = math.hypot(target.x - spec.center.x, target.y - spec.center.y)
            if axis_dist > 1.0:
                break
        sol = pseudo_multilaterate_static(_static_measurements(spec, target, 60), BAND)
        if sol.alternates == () and np.linalg.norm(sol.p_hat.as_array() - target.as_array()) < 1e-6:
            circular_clean += 1

    ok = mirror_hits == 100 and circular_clean == 100
    _verdict(2, ok, f"linear mirror pairs {mirror_hits}/100, circular unique {circular_clean}/100")


def test_criterion_3_crlb_suite():
    rng = np.random.default_rng(303)

    halving_ok = True
    for _ in range(20):
        target = rng.uniform(-20, 20, 3)
        anchors = np.array([rng.uniform(-80, 80, 3) for _ in range(5)])
        r1 = crlb(anchors, target, lambda d: 1.0 + 0.01 * d)
        r2 = crlb(np.concatenate([anchors, anchors]), target, lambda d: 1.0 + 0.01 * d)
        if not np.allclose(r2.cov, r1.cov / 2.0, rtol=1e-10):
            halving_ok = False

    loewner_checked = 0
    loewner_ok = True
    while loewner_checked < 100:
        target = rng.uniform(-20, 20, 3)
        anchors = np.array([rng.uniform(-100, 100, 3) for _ in range(4)])
        base = crlb(anchors, target, lambda d: 1.0 + 0.02 * d)
        grown = crlb(
            np.concatenate([anchors, rng.uniform(-100, 100, (1, 3))]), target, lambda d: 1.0 + 0.02 * d
        )
        if base.rank_deficient or grown.rank_deficient:
            continue
        loewner_checked += 1
        if np.min(np.linalg.eigvalsh(base.cov - grown.cov)) < -1e-9:
            loewner_ok = False
        if not np.all(np.diag(grown.cov) <= np.diag(base.cov) + 1e-9):
            loewner_ok = False

    target = np.array([5.0, -8.0, 20.0])
    anchors = []
    for k in range(8):
        az = 2 * math.pi * k / 8
        el = math.radians(25 + 40 * (k % 2))
        anchors.append(
            [
                target[0] + 120.0 * math.cos(el) * math.cos(az),
                target[1] + 120.0 * math.cos(el) * math.sin(az),
                target[2] + 120.0 * math.sin(el) * (1 if k % 3 else -1),
            ]
        )
    anchors = np.array(anchors)
    bound = crlb(anchors, target, lambda d: 1.0)
    predicted = math.sqrt(bound.trace)
    bounds = ((-200.0, 200.0), (-200.0, 200.0), (-200.0, 200.0))
    true_d = np.array([np.linalg.norm(a - target) for a in anchors])
    sq = []
    for _ in range(1000):
        d = np.maximum(true_d + rng.normal(0.0, 1.0, true_d.size), 0.0)
        sol = multilaterate(anchors, d, bounds)
        sq.append(np.sum((sol.p_hat.as_array() - target) ** 2))
    rmse = math.sqrt(np.mean(sq))
    rmse_ok = abs(rmse - predicted) / predicted < 0.25

    ok = halving_ok and loewner_ok and rmse_ok
    _verdict(
        3,
        ok,
        f"duplication halving {'exact' if halving_ok else 'BROKEN'}, "
        f"Loewner monotone {loewner_checked}/100 {'ok' if loewner_ok else 'BROKEN'}, "
        f"RMSE {rmse:.3f} m vs CRLB {predicted:.3f} m",
    )


def test_criterion_4_waveform_exactness_resolution():
    exact_ok = True
    for scheme in ("ofdm", "otfs"):
        cfg = WaveformConfig(scheme=scheme)
        ps = PathSet((Path(delay=13 * cfg.delay_bin_s, doppler=0.0, gain=1 + 0j),))
        y = apply_channel(make_pilot(cfg), ps, cfg, np.random.default_rng(0))
        est = estimate_toa(y, cfg)
        if abs(est / cfg.delay_bin_s - 13) >= 1e-3:
            exact_ok = False

    ratios = {}
    for scheme in ("ofdm", "otfs"):
        worst = {}
        for df in (30e3, 120e3):
            cfg = WaveformConfig(scheme=scheme, subcarrier_spacing=df)
            errs = []
            for frac in np.linspace(0.0, 0.95, 20):
                ps = PathSet(
                    (Path(delay=(12 + frac) * cfg.delay_bin_s, doppler=0.0, gain=1 + 0j),)
                )
                d_true = C_LIGHT * (12 + frac) * cfg.delay_bin_s
                errs.append(ranging_error_trial(cfg, d_true, ps, np.random.default_rng(0)))
            worst[df] = max(errs)
        ratios[scheme] = worst[120e3] / worst[30e3]
    resolution_ok = all(r <= 0.5 for r in ratios.values())

    rng = np.random.default_rng(404)
    x = rng.standard_normal((256, 32)) + 1j * rng.standard_normal((256, 32))
    round_trip = float(np.max(np.abs(sfft(isfft(x)) - x)))
    transform_ok = round_trip < 1e-10

    ok = exact_ok and resolution_ok and transform_ok
    _verdict(
        4,
        ok,
        f"integer-delay exact {exact_ok}, 120/30 kHz worst-case ratios "
        f"{ratios['ofdm']:.3f}/{ratios['otfs']:.3f} (need <= 0.5), "
        f"SFFT(ISFFT(X)) max err {round_trip:.1e}",
    )


def test_criterion_5_waveform_directional_claim():
    cfg = CompareConfig(
        name="fig5",
        spacings_hz=(30e3, 120e3),
        waveform=WaveformConfig(
            scheme="ofdm",
            n_subcarriers=256,
            n_symbols=128,
            carrier_freq=28e9,
            cp_fraction=1 / 16,
            oversample=1,
            threshold_db=6.0,
        ),
        ensemble=NlosEnsemble(),
        trials=5000,
        base_seed=7,
        histogram=HistogramSpec(),
    )
    start = time.perf_counter()
    cmp = compare_waveforms(cfg)
    elapsed = time.perf_counter() - start

    stats = {}
    for (scheme, df), err in cmp.errors.items():
        ok_vals = err[np.isfinite(err)]
        stats[(scheme, df)] = (float(np.mean(ok_vals)), float(np.var(ok_vals)))

    details = []
    mean_ok = True
    var_ok = True
    for df in cfg.spacings_hz:
        m_ofdm, v_ofdm = stats[("ofdm", df)]
        m_otfs, v_otfs = stats[("otfs", df)]
        ratio = m_otfs / m_ofdm
        mean_ok &= m_otfs <= 0.85 * m_ofdm
        var_ok &= v_otfs <= v_ofdm
        # Reference targets from the comparison the ensemble reproduces
        # directionally: ~50% improvement at 30 kHz, ~30% at 120 kHz.
        ref = 0.50 if df == 30e3 else 0.70
        details.append(
            f"{df / 1e3:.0f} kHz: ratio {ratio:.3f} (reference {ref:.2f}), "
            f"var {v_otfs:.1f} vs {v_ofdm:.1f}"
        )
    # Wider spacing helps both schemes (finer delay bins).
    spacing_ok = all(
        stats[(scheme, 120e3)][0] < stats[(scheme, 30e3)][0] for scheme in ("ofdm", "otfs")
    )
    time_ok = elapsed <= 600.0
    ok = mean_ok and var_ok and spacing_ok and time_ok
    _verdict(
        5,
        ok,
        "; ".join(details)
        + f"; 120 kHz beats 30 kHz for both schemes: {spacing_ok}"
        + f"; {elapsed:.0f} s for 5000 paired trials",
    )


def test_criterion_6_relocation_benefit():
    def scenario(relocate: bool) -> dict:
        cfg = {
            "version": 1,
            "name": "relocation_benefit",
            "trajectory": {
                "kind": "circular",
                "center": [300.0, 0.0, 40.0],
                "radius": 50.0,
                "angular_speed": 2 * math.pi / 60,
                "phase0": 0.0,
            },
            "dt": 1.0,
            "target": {"kind": "static", "position": [0.0, 0.0, 0.0]},
            "noise": {"kind": "statistical", "sigma0": 1.0, "eta": 0.01, "nlos_bias_mean": 5.0},
            "n_revolutions": 2,
            "runs": 500,
            "base_seed": 42,
            "bounds": [[-150.0, 150.0], [-150.0, 150.0], [0.0, 10.0]],
        }
        if relocate:
            cfg["relocation"] = {
                "min_radius": 15.0,
                "shrink_factor": 0.5,
                "max_center_step": 400.0,
                "altitude": 40.0,
            }
        return cfg

    rep_on = run_scenario(parse_scenario_config(scenario(True)))
    rep_off = run_scenario(parse_scenario_config(scenario(False)))
    median_on = float(np.median(rep_on.errors))
    median_off = float(np.median(rep_off.errors))
    rev = rep_on.rev_errors
    frac = float(np.mean(rev[:, 1] <= rev[:, 0]))
    ok = median_on <= median_off and frac >= 0.70
    _verdict(
        6,
        ok,
        f"median final error {median_on:.2f} m (relocation) vs {median_off:.2f} m (fixed); "
        f"per-run non-increasing fraction {frac:.2f} (need >= 0.70)",
    )


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(707)
    grid_ok = 0
    for _ in range(50):
        k = int(rng.integers(4, 7))
        anchors = np.column_stack(
            [rng.uniform(-100, 100, k), rng.uniform(-100, 100, k), rng.uniform(0, 100, k)]
        )
        target = np.array([rng.uniform(-90, 90), rng.uniform(-90, 90), 0.0])
        d = np.maximum(np.linalg.norm(anchors - target, axis=1) + rng.normal(0, 1.0, k), 0.0)
        meas = [
            RangeMeasurement(float(i), Position3(*anchors[i]), float(d[i]), True)
            for i in range(k)
        ]
        sol = pseudo_multilaterate_static(meas, ((-100.0, 100.0), (-100.0, 100.0), (0.0, 0.0)))

        axis = np.arange(-100.0, 100.0 + 1e-9, 0.25)
        best = np.inf
        for rows in np.array_split(axis, 20):
            xx, yy = np.meshgrid(axis, rows, indexing="ij")
            pts = np.column_stack([xx.ravel(), yy.ravel(), np.zeros(xx.size)])
            dist = np.linalg.norm(pts[:, None, :] - anchors[None, :, :], axis=2)
            res = np.sum((dist - d[None, :]) ** 2, axis=1)
            best = min(best, float(res.min()))
        if sol.residual <= best + 1e-9:
            grid_ok += 1

    # The Jacobian and the sum of squares are the LM kernel's own, at one lane.
    anchors_j = np.array([rng.uniform(-80, 80, 3) for _ in range(10)])[None]
    d_j = np.array([rng.uniform(10, 150) for _ in range(10)])[None]
    lane = np.zeros(1, dtype=np.intp)
    h = 1e-6
    jac_ok = True
    for _ in range(100):
        p = rng.uniform(-60, 60, 3)
        diff, dist, r, _ = _kernels._residuals(p[None], anchors_j, d_j, lane)
        grad = 2.0 * (diff[0] / dist[0][:, None]).T @ r[0]
        fd = np.empty(3)
        for i in range(3):
            dp = np.zeros(3)
            dp[i] = h
            fd[i] = (
                _kernels._residuals((p + dp)[None], anchors_j, d_j, lane)[3][0]
                - _kernels._residuals((p - dp)[None], anchors_j, d_j, lane)[3][0]
            ) / (2 * h)
        if np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12) >= 1e-5:
            jac_ok = False
    ok = grid_ok == 50 and jac_ok
    _verdict(
        7,
        ok,
        f"solver beat 0.25 m grid in {grid_ok}/50 instances; "
        f"analytic Jacobian vs central differences {'ok' if jac_ok else 'BROKEN'}",
    )


def test_criterion_8_byte_determinism(tmp_path):
    import pathlib

    shipped = pathlib.Path(__file__).resolve().parent.parent / "configs" / "circular_static.json"
    scenario = tmp_path / "scenario.json"
    scenario.write_text(shipped.read_text())
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli_main(
            ["--out-dir", str(out), "--quiet", "--runs", "50", "simulate", str(scenario)]
        )
        assert code == 0
        outs.append(out)
    sim_ok = (outs[0] / "report.csv").read_bytes() == (outs[1] / "report.csv").read_bytes() and (
        outs[0] / "summary.json"
    ).read_bytes() == (outs[1] / "summary.json").read_bytes()

    cmp_cfg = tmp_path / "cmp.json"
    cmp_cfg.write_text(
        json.dumps(
            {
                "version": 1,
                "spacings_hz": [30000.0, 120000.0],
                "waveform": {"n_subcarriers": 64, "n_symbols": 16},
                "ensemble": {"snr_db": 0.0},
                "trials": 40,
                "base_seed": 13,
            }
        )
    )
    cmp_outs = []
    for name in ("c", "d"):
        out = tmp_path / name
        code = cli_main(["--out-dir", str(out), "--quiet", "compare-waveforms", str(cmp_cfg)])
        assert code == 0
        cmp_outs.append(out)
    cmp_ok = all(
        (cmp_outs[0] / f).read_bytes() == (cmp_outs[1] / f).read_bytes()
        for f in ("waveform_errors.csv", "waveform_hist.csv", "waveform_summary.json")
    )
    ok = sim_ok and cmp_ok
    _verdict(8, ok, f"simulate byte-identical {sim_ok}, compare-waveforms byte-identical {cmp_ok}")
