import json
import math

import pytest

from pseudolat.cli import main


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


def test_export_dataset(tmp_path, scenario_file):
    out = tmp_path / "out"
    code = main(["--out-dir", str(out), "--quiet", "export-dataset", str(scenario_file)])
    assert code == 0
    text = (out / "dataset.csv").read_text()
    assert text.startswith("rev,row,x,y,z,d,los,label_x,label_y,label_z")
    assert len(text.strip().split("\n")) == 1 + 60


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
