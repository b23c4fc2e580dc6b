import json
import math
from pathlib import Path

import numpy as np
import pytest

from pseudolat.cli import main
from pseudolat.geometry import sample_trajectory
from pseudolat.harness import parse_scenario_config
from pseudolat.ranging import load_dataset

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture
def scenario_file(tmp_path):
    cfg = {
        "version": 1,
        "name": "cli_unit",
        "trajectory": {
            "kind": "circular",
            "center": [0.0, 0.0, 100.0],
            "radius": 50.0,
            "angular_speed": 2 * math.pi / 60,
            "phase0": 0.0,
        },
        "dt": 1.0,
        "target": {"kind": "static", "position": [20.0, -10.0, 0.0]},
        "noise": {"kind": "statistical", "sigma0": 1.0, "eta": 0.01, "nlos_bias_mean": 5.0},
        "n_revolutions": 1,
        "runs": 4,
        "base_seed": 9,
        "bounds": [[-150.0, 150.0], [-150.0, 150.0], [0.0, 10.0]],
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    return path


def test_simulate_writes_artifacts(tmp_path, scenario_file, capsys):
    out = tmp_path / "out"
    code = main(["--out-dir", str(out), "simulate", str(scenario_file)])
    assert code == 0
    assert (out / "report.csv").exists()
    assert (out / "summary.json").exists()
    assert "cli_unit" in capsys.readouterr().out


def test_simulate_quiet(tmp_path, scenario_file, capsys):
    out = tmp_path / "out"
    code = main(["--out-dir", str(out), "--quiet", "simulate", str(scenario_file)])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_byte_identical_outputs(tmp_path, scenario_file):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--out-dir", str(out1), "--quiet", "simulate", str(scenario_file)]) == 0
    assert main(["--out-dir", str(out2), "--quiet", "simulate", str(scenario_file)]) == 0
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_seed_override_changes_outputs(tmp_path, scenario_file):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["--out-dir", str(out1), "--quiet", "simulate", str(scenario_file)])
    main(["--out-dir", str(out2), "--quiet", "--seed", "123", "simulate", str(scenario_file)])
    assert (out1 / "report.csv").read_bytes() != (out2 / "report.csv").read_bytes()


def test_runs_override(tmp_path, scenario_file):
    out = tmp_path / "out"
    main(["--out-dir", str(out), "--quiet", "--runs", "2", "simulate", str(scenario_file)])
    lines = (out / "report.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 2


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 1,,}')
    code = main(["simulate", str(bad)])
    assert code == 2
    assert "malformed JSON" in capsys.readouterr().err


def test_unknown_field_named_exits_2(tmp_path, scenario_file, capsys):
    raw = json.loads(scenario_file.read_text())
    raw["trajctory"] = raw["trajectory"]
    bad = tmp_path / "typo.json"
    bad.write_text(json.dumps(raw))
    code = main(["simulate", str(bad)])
    assert code == 2
    assert "trajctory" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    code = main(["simulate", str(tmp_path / "nope.json")])
    assert code == 2


def test_unknown_flag_exits_2(capsys):
    code = main(["--bogus-flag", "simulate", "x.json"])
    assert code == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_crlb_subcommand(tmp_path, capsys):
    cfg = {
        "version": 1,
        "anchors": [[10.0, 0.0, 0.0], [0.0, 10.0, 0.0], [0.0, 0.0, 10.0]],
        "target": [0.0, 0.0, 0.0],
        "sigma": {"sigma0": 1.0, "eta": 0.0},
    }
    path = tmp_path / "crlb.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "crlb", str(path)]) == 0
    payload = json.loads((out / "crlb.json").read_text())
    assert payload["trace_m2"] == pytest.approx(3.0, rel=1e-9)
    assert payload["rank"] == 3


@pytest.mark.parametrize(
    "sigma, field",
    [({"sigma0": -1.0, "eta": 0.01}, "sigma.sigma0"), ({"sigma0": 1.0, "eta": -0.01}, "sigma.eta")],
)
def test_crlb_negative_sigma_term_exits_2(tmp_path, capsys, sigma, field):
    cfg = {
        "version": 1,
        "anchors": [[10.0, 0.0, 10.0], [0.0, 10.0, 10.0], [-10.0, 0.0, 10.0], [0.0, -10.0, 10.0]],
        "target": [0.0, 0.0, 0.0],
        "sigma": sigma,
    }
    path = tmp_path / "crlb.json"
    path.write_text(json.dumps(cfg))
    assert main(["--out-dir", str(tmp_path / "out"), "crlb", str(path)]) == 2
    assert field in capsys.readouterr().err


_DROP = object()


def _malformed_bases():
    """Valid configs with every section a malformed case edits."""
    scenario = {
        "version": 1,
        "name": "malformed",
        "trajectory": {
            "kind": "circular",
            "center": [0.0, 0.0, 100.0],
            "radius": 50.0,
            "angular_speed": 2 * math.pi / 60,
            "phase0": 0.0,
        },
        "dt": 1.0,
        "target": {"kind": "static", "position": [20.0, -10.0, 0.0]},
        "obstacles": [{"min": [0.0, -10.0, 0.0], "max": [10.0, 10.0, 70.0]}],
        "noise": {"kind": "statistical", "sigma0": 1.0, "eta": 0.01, "nlos_bias_mean": 5.0},
        "relocation": {"min_radius": 15.0, "shrink_factor": 0.5, "max_center_step": 400.0, "altitude": 40.0},
        "runs": 1,
        "bounds": [[-150.0, 150.0], [-150.0, 150.0], [0.0, 10.0]],
        "histogram": {"bin_width_m": 0.5, "max_m": 100.0},
    }
    waveform_scenario = dict(
        scenario,
        noise={
            "kind": "waveform",
            "waveform": {"scheme": "otfs", "n_subcarriers": 64, "n_symbols": 8},
            "ensemble": {"snr_db": 20.0, "n_paths_min": 1, "n_paths_max": 2},
        },
    )
    crlb_cfg = {
        "version": 1,
        "anchors": [[10.0, 0.0, 10.0], [0.0, 10.0, 10.0], [-10.0, 0.0, 10.0]],
        "target": [0.0, 0.0, 0.0],
        "sigma": {"sigma0": 1.0, "eta": 0.01},
    }
    compare = {
        "version": 1,
        "spacings_hz": [30000.0, 120000.0],
        "waveform": {"n_subcarriers": 64, "n_symbols": 8},
        "trials": 1,
    }
    return {"simulate": scenario, "waveform": waveform_scenario, "crlb": crlb_cfg, "compare": compare}


# (base, JSON path to edit, new value or _DROP, field path the error must name)
_MALFORMED = {
    "obstacle-unknown": ("simulate", ("obstacles", 0, "mid"), [1.0, 2.0, 3.0], "obstacles[0].mid"),
    "obstacle-missing": ("simulate", ("obstacles", 0, "max"), _DROP, "obstacles[0].max"),
    "obstacle-type": ("simulate", ("obstacles", 0, "min"), "low", "obstacles[0].min"),
    "solver-unknown": ("simulate", ("solver",), {"max_iter": 200, "multistart_grid": [5, 5, 1]}, "solver"),
    "bounds-reversed": ("simulate", ("bounds", 0), [10.0, -10.0], "field bounds"),
    "noise-seed": ("simulate", ("noise", "seed"), 3, "noise.seed"),
    "histogram-unknown": ("simulate", ("histogram", "bins"), 10, "histogram.bins"),
    "histogram-type": ("simulate", ("histogram", "max_m"), "100", "histogram.max_m"),
    "histogram-no-bin": ("compare", ("histogram",), {"bin_width_m": 10.0, "max_m": 4.0}, "histogram"),
    "histogram-too-many-bins": ("simulate", ("histogram", "bin_width_m"), 1e-300, "histogram"),
    "histogram-inf-bins": ("simulate", ("histogram", "bin_width_m"), 5e-324, "histogram"),
    "relocation-unknown": ("simulate", ("relocation", "radius"), 1.0, "relocation.radius"),
    "relocation-missing": ("simulate", ("relocation", "altitude"), _DROP, "relocation.altitude"),
    "relocation-type": ("simulate", ("relocation", "shrink_factor"), [0.5], "relocation.shrink_factor"),
    "waveform-unknown": ("waveform", ("noise", "waveform", "n_subcarrier"), 64, "noise.waveform.n_subcarrier"),
    "waveform-missing": ("waveform", ("noise", "waveform", "scheme"), _DROP, "noise.waveform.scheme"),
    "waveform-type": ("waveform", ("noise", "waveform", "n_symbols"), 8.0, "noise.waveform.n_symbols"),
    "ensemble-unknown": ("waveform", ("noise", "ensemble", "snr"), 20.0, "noise.ensemble.snr"),
    "ensemble-type": ("waveform", ("noise", "ensemble", "n_paths_min"), "1", "noise.ensemble.n_paths_min"),
    "sigma-unknown": ("crlb", ("sigma", "sigma1"), 1.0, "sigma.sigma1"),
    "sigma-type": ("crlb", ("sigma", "eta"), "0.01", "sigma.eta"),
    "crlb-missing": ("crlb", ("target",), _DROP, "target"),
    "crlb-target-on-anchor": ("crlb", ("target",), [0.0, 10.0, 10.0], "anchors[1]"),
    "nan-dt": ("simulate", ("dt",), math.nan, "dt"),
    "nan-bounds": ("simulate", ("bounds", 0, 1), math.nan, "bounds[0][1]"),
    "nan-phase0": ("simulate", ("trajectory", "phase0"), math.nan, "trajectory.phase0"),
    "inf-histogram": ("simulate", ("histogram", "max_m"), math.inf, "histogram.max_m"),
    "nan-sigma0": ("simulate", ("noise", "sigma0"), math.nan, "noise.sigma0"),
    "inf-eta": ("simulate", ("noise", "eta"), math.inf, "noise.eta"),
    "inf-snr": ("waveform", ("noise", "ensemble", "snr_db"), math.inf, "noise.ensemble.snr_db"),
    "nan-crlb-sigma0": ("crlb", ("sigma", "sigma0"), math.nan, "sigma.sigma0"),
    "version-true": ("simulate", ("version",), True, "version"),
    "version-float": ("crlb", ("version",), 1.0, "version"),
    "name-comma": ("simulate", ("name",), "a,b", "name"),
    "kind-unhashable": ("simulate", ("target", "kind"), ["x"], "target.kind"),
    "huge-int-dt": ("simulate", ("dt",), 10**400, "dt"),
    "spacing-negative": ("compare", ("spacings_hz", 1), -1.0, "spacings_hz[1]"),
    "spacing-zero": ("compare", ("spacings_hz", 0), 0.0, "spacings_hz[0]"),
    "spacing-duplicate": ("compare", ("spacings_hz", 1), 30000.0, "field spacings_hz[1]"),
    "seed-negative-simulate": ("simulate", ("base_seed",), -1, "base_seed"),
    "seed-negative-compare": ("compare", ("base_seed",), -3, "base_seed"),
}
# CLI subcommand per base config
_COMMANDS = {"simulate": "simulate", "waveform": "simulate", "crlb": "crlb", "compare": "compare-waveforms"}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_config_exits_2_naming_field(tmp_path, capsys, case):
    base, path, value, field = _MALFORMED[case]
    cfg = _malformed_bases()[base]
    *parents, last = path
    section = cfg
    for key in parents:
        section = section[key]
    if value is _DROP:
        del section[last]
    else:
        section[last] = value
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))  # NaN and Infinity as Python's json writes them
    assert main(["--out-dir", str(tmp_path / "out"), "--quiet", _COMMANDS[base], str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and field in err


@pytest.mark.parametrize(
    "command, config",
    [("simulate", "circular_static.json"), ("compare-waveforms", "fig5.json"), ("export-dataset", "export_demo.json")],
)
def test_negative_seed_flag_exits_2(tmp_path, capsys, command, config):
    # numpy's seeding rejects negative integers, so the parser must first.
    code = main(["--quiet", "--out-dir", str(tmp_path), "--seed", "-1", command, str(CONFIGS / config)])
    assert code == 2
    assert "config error: field base_seed must be >= 0" in capsys.readouterr().err


def test_export_dataset(tmp_path, scenario_file):
    out = tmp_path / "out"
    code = main(["--out-dir", str(out), "--quiet", "export-dataset", str(scenario_file)])
    assert code == 0
    text = (out / "dataset.csv").read_text()
    assert text.startswith("rev,row,x,y,z,d,los,label_x,label_y,label_z")
    assert len(text.strip().split("\n")) == 1 + 60


@pytest.mark.parametrize("target", ["static", "linear"])
@pytest.mark.parametrize("samples", [90, 40])
def test_export_cuts_revolutions_by_samples_per_revolution(tmp_path, capsys, samples, target):
    # export_demo's period is 60 samples at its dt; a different
    # samples_per_revolution must still give one matrix per revolution.
    cfg = json.loads((CONFIGS / "export_demo.json").read_text())
    cfg["samples_per_revolution"] = samples
    start = np.array(cfg["target"]["position"])
    velocity = np.array([0.05, 0.02, 0.0])
    if target == "linear":
        cfg["target"] = {"kind": "linear", "start": start.tolist(), "velocity": velocity.tolist()}
    path = tmp_path / "export.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "dataset.csv"
    assert main(["export-dataset", str(path), "--out", str(out)]) == 0
    assert f"wrote {cfg['n_revolutions']} revolution matrices" in capsys.readouterr().out

    mats = load_dataset(out)
    assert [m.revolution for m in mats] == [0, 1, 2]
    assert [m.rows.shape for m in mats] == [(samples, 4)] * 3
    spec = parse_scenario_config(cfg).trajectory
    anchor = sample_trajectory(spec, 0.0, cfg["dt"], 3 * samples)
    assert np.array_equal(np.concatenate([m.rows[:, :3] for m in mats]), anchor.p)
    for r, m in enumerate(mats):
        t_mid = 0.5 * (anchor.t[r * samples] + anchor.t[(r + 1) * samples - 1])
        want = start + t_mid * velocity if target == "linear" else start
        assert np.allclose(m.label.as_array(), want, rtol=0.0, atol=1e-12)


def test_compare_waveforms_small(tmp_path, capsys):
    cfg = {
        "version": 1,
        "spacings_hz": [30000.0, 120000.0],
        "waveform": {"n_subcarriers": 64, "n_symbols": 8},
        "ensemble": {"snr_db": 20.0, "n_paths_min": 1, "n_paths_max": 2, "d_min_m": 60.0, "d_max_m": 120.0},
        "trials": 12,
        "base_seed": 4,
    }
    path = tmp_path / "cmp.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "compare-waveforms", str(path)]) == 0
    assert (out / "waveform_errors.csv").exists()
    assert (out / "waveform_hist.csv").exists()
    assert (out / "waveform_summary.json").exists()
    header = (out / "waveform_errors.csv").read_text().split("\n")[0]
    assert header == "trial,scheme,delta_f_hz,error_m"
    hist_header = (out / "waveform_hist.csv").read_text().split("\n")[0]
    assert hist_header == "scheme,delta_f_hz,bin_left_m,bin_right_m,density"


def test_runtime_failure_exits_3(tmp_path, scenario_file, capsys):
    blocker = tmp_path / "blocked"
    blocker.mkdir()
    code = main(["--quiet", "export-dataset", str(scenario_file), "--out", str(blocker)])
    assert code == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "export-dataset"])
def test_target_on_the_anchor_path_exits_3(tmp_path, scenario_file, capsys, command):
    cfg = json.loads(scenario_file.read_text())
    cfg["target"]["position"] = [50.0, 0.0, 100.0]  # sample 0 of the circle
    scenario_file.write_text(json.dumps(cfg))
    code = main(["--quiet", "--out-dir", str(tmp_path / "out"), command, str(scenario_file)])
    assert code == 3
    assert "anchor and target must not coincide" in capsys.readouterr().err


def test_compare_waveforms_deterministic(tmp_path):
    cfg = {
        "version": 1,
        "spacings_hz": [30000.0],
        "waveform": {"n_subcarriers": 64, "n_symbols": 8},
        "ensemble": {"snr_db": 10.0},
        "trials": 8,
        "base_seed": 21,
    }
    path = tmp_path / "cmp.json"
    path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--out-dir", str(out1), "--quiet", "compare-waveforms", str(path)]) == 0
    assert main(["--out-dir", str(out2), "--quiet", "compare-waveforms", str(path)]) == 0
    for name in ("waveform_errors.csv", "waveform_hist.csv", "waveform_summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.fixture
def waveform_configs(tmp_path):
    """A compare config and a waveform-backed scenario, small enough for CI."""
    compare = {
        "version": 1,
        "spacings_hz": [30000.0, 120000.0],
        "waveform": {"n_subcarriers": 64, "n_symbols": 8},
        "ensemble": {"snr_db": 0.0, "d_min_m": 60.0, "d_max_m": 120.0},
        "trials": 13,
        "base_seed": 3,
    }
    scenario = {
        "version": 1,
        "name": "cli_waveform",
        "trajectory": {
            "kind": "circular",
            "center": [0.0, 0.0, 70.0],
            "radius": 50.0,
            "angular_speed": 2 * math.pi / 60,
            "phase0": 0.0,
        },
        "dt": 3.0,
        "target": {"kind": "static", "position": [60.0, 0.0, 0.0]},
        "obstacles": [{"min": [0.0, -10.0, 0.0], "max": [10.0, 10.0, 70.0]}],
        "noise": {
            "kind": "waveform",
            "waveform": {"scheme": "otfs", "n_subcarriers": 64, "n_symbols": 8},
            "ensemble": {"snr_db": 10.0},
        },
        "n_revolutions": 2,
        "runs": 5,
        "base_seed": 8,
        "bounds": [[-150.0, 150.0], [-150.0, 150.0], [0.0, 10.0]],
    }
    paths = {}
    for name, cfg in (("compare", compare), ("scenario", scenario)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(cfg))
    return paths


def test_thread_count_does_not_change_artifacts(tmp_path, monkeypatch, waveform_configs):
    def artifacts(threads):
        if threads is None:
            monkeypatch.delenv("PSEUDOLAT_THREADS", raising=False)
        else:
            monkeypatch.setenv("PSEUDOLAT_THREADS", threads)
        out = tmp_path / f"threads_{threads}"
        common = ["--quiet", "--out-dir", str(out)]
        assert main(common + ["compare-waveforms", str(waveform_configs["compare"])]) == 0
        assert main(common + ["simulate", str(waveform_configs["scenario"])]) == 0
        assert main(common + ["export-dataset", str(waveform_configs["scenario"])]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    serial = artifacts("1")
    assert {"waveform_errors.csv", "waveform_summary.json", "report.csv", "summary.json", "dataset.csv"} <= set(serial)
    for threads in ("2", "3", None):
        assert artifacts(threads) == serial


@pytest.mark.parametrize("command", ["simulate", "export-dataset"])
def test_path_longer_than_a_symbol_exits_3_at_any_thread_count(
    tmp_path, capsys, monkeypatch, waveform_configs, command
):
    # At 1 MHz spacing a symbol lasts 1 us, about 300 m: every sample of a
    # circle 1 km from the target raises in its draw, before any channel.
    cfg = json.loads(waveform_configs["scenario"].read_text())
    cfg["trajectory"]["center"] = [1000.0, 0.0, 70.0]
    cfg["noise"]["waveform"]["subcarrier_spacing_hz"] = 1e6
    waveform_configs["scenario"].write_text(json.dumps(cfg))
    errs = []
    for threads in ("1", "3"):
        monkeypatch.setenv("PSEUDOLAT_THREADS", threads)
        out = str(tmp_path / f"out_{threads}")
        assert main(["--quiet", "--out-dir", out, command, str(waveform_configs["scenario"])]) == 3
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] == "error: path delay exceeds one symbol duration\n"


@pytest.mark.parametrize("raw", ["0", "-3"])
def test_non_positive_thread_count_exits_3(tmp_path, capsys, monkeypatch, waveform_configs, raw):
    monkeypatch.setenv("PSEUDOLAT_THREADS", raw)
    out = str(tmp_path / "out")
    assert main(["--quiet", "--out-dir", out, "compare-waveforms", str(waveform_configs["compare"])]) == 3
    assert f"error: PSEUDOLAT_THREADS must be a positive integer, got {raw!r}" in capsys.readouterr().err
