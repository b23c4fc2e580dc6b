"""The benchmark's workloads: generated configs, the CLI calls of one op,
and the output check every op must pass.

This module imports no numpy, so a fresh process can time
`import pseudolat` without paying for numpy here first.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import statistics
from dataclasses import dataclass

# The workload seed whose per-op accuracy fields are stored in refs.json,
# and how many of its ops they cover. Ops past REF_OPS are checked only
# for shape and byte-identical reruns.
REF_SEED = 0
REF_OPS = 40
REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")

_CIRCLE = {
    "kind": "circular",
    "center": [0.0, 0.0, 100.0],
    "radius": 50.0,
    "angular_speed": 0.10471975511965977,
    "phase0": 0.0,
}
_BOUNDS = [[-150.0, 150.0], [-150.0, 150.0], [0.0, 10.0]]

# configs/relocation.json as shipped when this benchmark was defined. The
# benchmark writes its own copy so that a change to the shipped example
# cannot silently change the workload.
RELOCATION = {
    "version": 1,
    "name": "relocation_benefit",
    "trajectory": dict(_CIRCLE, center=[300.0, 0.0, 40.0]),
    "dt": 1.0,
    "target": {"kind": "static", "position": [0.0, 0.0, 0.0]},
    "obstacles": [],
    "noise": {"kind": "statistical", "sigma0": 1.0, "eta": 0.01, "nlos_bias_mean": 5.0},
    "n_revolutions": 2,
    "relocation": {
        "min_radius": 15.0,
        "shrink_factor": 0.5,
        "max_center_step": 400.0,
        "altitude": 40.0,
    },
    "runs": 500,
    "base_seed": 42,
    "bounds": _BOUNDS,
}

# configs/fig5.json as shipped when this benchmark was defined.
FIG5 = {
    "version": 1,
    "name": "waveform_comparison",
    "spacings_hz": [30000.0, 120000.0],
    "waveform": {
        "n_subcarriers": 256,
        "n_symbols": 128,
        "carrier_freq_hz": 28000000000.0,
        "cp_fraction": 0.0625,
        "oversample": 1,
        "threshold_db": 6.0,
    },
    "ensemble": {
        "n_paths_min": 3,
        "n_paths_max": 6,
        "excess_mean_m": 20.0,
        "power_decay_m": 20.0,
        "speed_mps": 10.0,
        "snr_db": -5.0,
        "d_min_m": 100.0,
        "d_max_m": 150.0,
    },
    "trials": 5000,
    "base_seed": 7,
    "histogram": {"bin_width_m": 0.5, "max_m": 100.0},
}

# configs/export_demo.json's geometry and obstacle with waveform-level
# ranging: OTFS, 256 x 32 frame at 120 kHz, default NLoS ensemble.
STRIPE = {
    "version": 1,
    "name": "stripe_waveform",
    "trajectory": _CIRCLE,
    "dt": 1.0,
    "target": {"kind": "static", "position": [60.0, 0.0, 0.0]},
    "obstacles": [{"min": [0.0, -10.0, 0.0], "max": [10.0, 10.0, 70.0]}],
    "noise": {
        "kind": "waveform",
        "waveform": {
            "scheme": "otfs",
            "n_subcarriers": 256,
            "n_symbols": 32,
            "subcarrier_spacing_hz": 120000.0,
        },
        "ensemble": {},
    },
    "n_revolutions": 2,
    "runs": 1,
    "base_seed": 5,
    "bounds": _BOUNDS,
}
_SAMPLES_PER_REV = 60  # 2 pi / angular_speed / dt

REPORT_HEADER = (
    "scenario,run,true_x,true_y,true_z,est_x,est_y,est_z,err_m,residual,converged,n_alternates"
).split(",")
ERRORS_HEADER = ["trial", "scheme", "delta_f_hz", "error_m"]
HIST_HEADER = ["scheme", "delta_f_hz", "bin_left_m", "bin_right_m", "density"]
DATASET_HEADER = ["rev", "row", "x", "y", "z", "d", "los", "label_x", "label_y", "label_z"]
_DATASET_EXACT = ["rev", "row", "los", "label_x", "label_y", "label_z"]


class CheckError(Exception):
    """An op's artifacts are malformed or disagree with the reference."""


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def _reject_constant(token: str):
    raise CheckError(f"non-finite JSON token {token}")


def _read_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_reject_constant)
    except (OSError, json.JSONDecodeError) as e:
        raise CheckError(f"{os.path.basename(path)}: {e}") from e


def _read_csv(path: str, header: list[str], float_cols: list[str]) -> list[dict]:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            _expect(reader.fieldnames == header, f"{os.path.basename(path)}: header {reader.fieldnames}")
            rows = list(reader)
    except OSError as e:
        raise CheckError(str(e)) from e
    for i, row in enumerate(rows):
        _expect(None not in row and None not in row.values(), f"{os.path.basename(path)} row {i}: wrong width")
        for col in float_cols:
            try:
                row[col] = float(row[col])
            except ValueError as e:
                raise CheckError(f"{os.path.basename(path)} row {i} {col}: {e}") from e
            _expect(math.isfinite(row[col]), f"{os.path.basename(path)} row {i} {col} not finite")
    return rows


def _simulate_fields(out_dir: str, runs: int, n_revs: int) -> dict:
    rows = _read_csv(os.path.join(out_dir, "report.csv"), REPORT_HEADER, REPORT_HEADER[2:10])
    _expect(len(rows) == runs, f"report.csv has {len(rows)} rows, want {runs}")
    summary = _read_json(os.path.join(out_dir, "summary.json"))
    _expect(summary.get("runs") == runs, f"summary.json runs {summary.get('runs')}, want {runs}")
    per_rev = summary["per_revolution_median_error_m"]
    _expect(len(per_rev) == n_revs, f"summary.json has {len(per_rev)} revolutions, want {n_revs}")
    final = summary["final_error_m"]
    median = statistics.median(row["err_m"] for row in rows)
    _expect(median == final["median"], "summary median disagrees with report.csv")
    fields = {"final_median_m": final["median"], "final_p95_m": final["p95"]}
    for j, v in enumerate(per_rev):
        fields[f"rev{j}_median_m"] = v
    return fields


def _compare_fields(out_dir: str, trials: int) -> dict:
    n_cells = 2 * len(FIG5["spacings_hz"])
    errors = _read_csv(os.path.join(out_dir, "waveform_errors.csv"), ERRORS_HEADER, ["error_m"])
    censored_path = os.path.join(out_dir, "waveform_censored.csv")
    censored = 0
    if os.path.exists(censored_path):
        censored = len(_read_csv(censored_path, ERRORS_HEADER[:3], []))
    _expect(
        len(errors) + censored == n_cells * trials,
        f"waveform_errors.csv has {len(errors)} rows + {censored} censored, want {n_cells * trials}",
    )
    hist = _read_csv(os.path.join(out_dir, "waveform_hist.csv"), HIST_HEADER, HIST_HEADER[2:])
    spec = FIG5["histogram"]
    n_bins = round(spec["max_m"] / spec["bin_width_m"])
    _expect(len(hist) == n_cells * n_bins, f"waveform_hist.csv has {len(hist)} rows")
    summary = _read_json(os.path.join(out_dir, "waveform_summary.json"))
    cells = summary["cells"]
    _expect(len(cells) == n_cells, f"waveform_summary.json has {len(cells)} cells")
    fields = {}
    for cell in cells:
        _expect(cell["trials"] == trials, f"cell {cell['scheme']} has {cell['trials']} trials")
        fields[f"{cell['scheme']}@{cell['delta_f_hz']:g}_mean_m"] = cell["mean_error_m"]
    ratios = summary["otfs_over_ofdm_mean_ratio"]
    _expect(len(ratios) == len(FIG5["spacings_hz"]), "missing OTFS/OFDM ratios")
    for df, ratio in ratios.items():
        fields[f"ratio@{float(df):g}"] = ratio
    return fields


def _dataset_fields(path: str) -> dict:
    rows = _read_csv(path, DATASET_HEADER, ["x", "y", "z", "d"])
    want = STRIPE["n_revolutions"] * _SAMPLES_PER_REV
    _expect(len(rows) == want, f"dataset.csv has {len(rows)} rows, want {want}")
    _expect(all(row["los"] in ("0", "1") for row in rows), "dataset.csv los is not 0/1")
    # rev, row, los and the labels (the true target) are exact text; the
    # antenna positions are summed weighted by row position, so rows that
    # move or swap positions change the sum while float order does not.
    keys = hashlib.sha256()
    for row in rows:
        keys.update(",".join(row[c] for c in _DATASET_EXACT).encode() + b"\n")
    fields = {
        "dataset_blocked": sum(row["los"] == "0" for row in rows),
        "dataset_d_sum_m": math.fsum(row["d"] for row in rows),
        "dataset_keys_sha256": keys.hexdigest(),
    }
    for c in ("x", "y", "z"):
        fields[f"dataset_{c}_moment_m"] = math.fsum((k + 1) * row[c] for k, row in enumerate(rows))
    return fields


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    command: str  # CLI subcommand of the op's first call
    runs: int  # its --runs
    export: bool  # whether export-dataset follows on the same config
    unit: str  # what one Monte-Carlo unit is
    units_per_op: int
    est_op_s: float  # rough op time on a 2-core box; sizes the traced run

    def probe_config(self) -> dict:
        """Config of a set-up probe: one revolution, where the workload has them.

        A probe runs the same code and fills the same caches as an op, but
        is short, so its cold-minus-warm difference is not lost in noise.
        """
        if "n_revolutions" in self.config:
            return dict(self.config, n_revolutions=1)
        return self.config

    def argvs(self, cfg_path: str, out_dir: str, seed: int, probe: bool = False) -> list[list[str]]:
        """The CLI calls of one op; a set-up probe is the first call with --runs 1
        on the probe config."""
        common = ["--quiet", "--seed", str(seed), "--out-dir", out_dir]
        calls = [common + ["--runs", str(1 if probe else self.runs), self.command, cfg_path]]
        if self.export and not probe:
            calls.append(common + ["export-dataset", cfg_path, "--out", os.path.join(out_dir, "dataset.csv")])
        return calls

    def check(self, out_dir: str, probe: bool = False) -> dict:
        """Validate one op's artifacts and return its accuracy fields."""
        runs = 1 if probe else self.runs
        try:
            if self.command == "compare-waveforms":
                return _compare_fields(out_dir, runs)
            config = self.probe_config() if probe else self.config
            fields = _simulate_fields(out_dir, runs, config["n_revolutions"])
            if self.export and not probe:
                fields.update(_dataset_fields(os.path.join(out_dir, "dataset.csv")))
            return fields
        except (KeyError, TypeError, AttributeError) as e:
            raise CheckError(f"malformed artifact: {e!r}") from e


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mc_relocation",
            why="closed-loop relocation: revolution 2's circle depends on revolution 1's "
            "estimate; the LM kernel dominates and the waveform layer is idle",
            config=RELOCATION,
            command="simulate",
            runs=50,
            export=False,
            unit="scenario runs",
            units_per_op=50,
            est_op_s=2.6,
        ),
        Workload(
            name="waveform_compare",
            why="paired OFDM/OTFS trials on ~34k-sample frames: apply_channel dominates, "
            "four cells share one channel draw, localization and ranging are idle",
            config=FIG5,
            command="compare-waveforms",
            runs=16,
            export=False,
            unit="paired trials",
            units_per_op=16,
            est_op_s=1.8,
        ),
        Workload(
            name="stripe_waveform",
            why="many small waveform calls (8640 samples, LoS direct path, one scheme), "
            "obstacle stripes through los_blocked, NLoS-biased solves, dataset export",
            config=STRIPE,
            command="simulate",
            runs=3,
            export=True,
            unit="waveform range samples",
            # 3 simulated runs plus the exported run, 120 samples each
            units_per_op=(3 + 1) * STRIPE["n_revolutions"] * _SAMPLES_PER_REV,
            est_op_s=3.4,
        ),
    )
}


def op_seed(workload: str, seed: int, op: int) -> int:
    """CLI --seed of op `op` under workload seed `seed`."""
    digest = hashlib.sha256(f"{workload}/{seed}/{op}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def load_refs() -> dict:
    """Per-op accuracy fields recorded for REF_SEED: {workload: [fields, ...]}."""
    with open(REFS_PATH, encoding="utf-8") as fh:
        refs = json.load(fh)
    for name in WORKLOADS:
        if len(refs.get(name, [])) != REF_OPS:
            raise ValueError(f"{REFS_PATH} does not hold {REF_OPS} ops of {name}")
    return refs


def compare_fields(got: dict, want: dict) -> None:
    """Raise CheckError unless `got` matches the reference `want`.

    Counts and digests must match exactly. Floats may differ by summation
    order (1e-6 relative), but not by a different minimum or channel draw.
    """
    _expect(got.keys() == want.keys(), f"fields {sorted(got)} != reference {sorted(want)}")
    for key, ref in want.items():
        value = got[key]
        if isinstance(ref, (int, str)):
            _expect(value == ref, f"{key} = {value}, reference {ref}")
        else:
            _expect(abs(value - ref) <= 1e-9 + 1e-6 * abs(ref), f"{key} = {value!r}, reference {ref!r}")
