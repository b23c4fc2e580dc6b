"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/test_perfbench.py

Each test starts real benchmark runs of a few seconds; the whole file takes
about two minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from run import tail_index
from workloads import DATASET_HEADER, WORKLOADS, CheckError, _dataset_fields, compare_fields

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _traced_counters(workload: str) -> dict:
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
    last = _result(proc)
    # correct means every traced op's artifacts equal its untraced rerun's
    assert last["correct"] and last["failed"] == 0, proc.stdout
    path = os.path.join(ROOT, ".perfbench_out", f"result-{workload}-seed3-trace1.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["detail"]["counters"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counters_repeat_and_tracing_changes_no_result(workload):
    first = _traced_counters(workload)
    assert first == _traced_counters(workload)


def test_untraced_run_prints_every_end_to_end_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    last = _result(_bench("--workload", "waveform_compare", "--seed", "0", "--seconds", "2", "--trace", "0"))
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert set(last["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in last["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    last = _result(_bench("--workload", "waveform_compare", "--seed", "1", "--seconds", "1", "--trace", "1"))
    assert set(last["metrics"]) == {m["name"] for m in spec["per_layer"]}


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "mc_relocation", "--seed", "0", "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tail_is_highest_percentile_with_ten_ops_beyond():
    assert tail_index(11) == 0
    assert tail_index(30) == 19
    assert tail_index(5) == 0


def test_reference_tolerance_separates_float_order_from_new_minimum():
    ref = {"final_median_m": 1.25, "dataset_blocked": 18}
    compare_fields({"final_median_m": 1.25 * (1 + 1e-12), "dataset_blocked": 18}, ref)
    with pytest.raises(CheckError):
        compare_fields({"final_median_m": 1.25 * (1 + 1e-4), "dataset_blocked": 18}, ref)
    with pytest.raises(CheckError):
        compare_fields({"final_median_m": 1.25, "dataset_blocked": 17}, ref)
    with pytest.raises(CheckError):
        compare_fields({"final_median_m": 1.25, "dataset_blocked": 18, "dataset_keys_sha256": "ab"},
                       dict(ref, dataset_keys_sha256="ba"))


def _write_dataset(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(DATASET_HEADER) + "\n")
        fh.writelines(",".join(str(v) for v in row) + "\n" for row in rows)
    return _dataset_fields(str(path))


def test_dataset_check_catches_reordered_and_relabelled_rows(tmp_path):
    rows = [[k // 60, k % 60, 50.0 + k, -1.5 * k, 100.0, 70.0 + k, int(k % 7 != 0), 60.0, 0.0, 0.0]
            for k in range(120)]
    ref = _write_dataset(tmp_path / "a.csv", rows)
    assert _write_dataset(tmp_path / "same.csv", rows) == ref
    moved = [list(r) for r in rows]
    moved[3][2:5], moved[4][2:5] = moved[4][2:5], moved[3][2:5]  # positions swap rows
    relabelled = [list(r) for r in rows]
    relabelled[0][0] = 1  # first row put in revolution 1
    for bad in (moved, relabelled):
        with pytest.raises(CheckError):
            compare_fields(_write_dataset(tmp_path / "b.csv", bad), ref)
