#!/usr/bin/env python3
"""pseudolat Monte-Carlo throughput benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload mc_relocation --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload mc_relocation --seed 0 --seconds 25 --trace 1

Load shape: a closed loop with one client. Ops run one after another, each
an in-process `pseudolat.cli.main([...])` call on a config this benchmark
generates, with `--seed` derived from the workload seed and the op index.

--trace 0 runs one fresh worker process: a cold op, a warm rerun of it,
then warm ops until --seconds of op time is spent. Then PROBES fresh
processes each time `import pseudolat`, a cold set-up probe and its warm
rerun. It prints the end-to-end metrics, with every timing scaled to
reference-speed seconds by the calibration kernel (calibrate.py).
--trace 1 runs one process that alternates traced and untraced runs of the
same ops and prints the per-layer metrics and the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}. The full result, with
provenance, is also written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from calibrate import REF_S
from workloads import REF_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
PROBES = 5  # fresh set-up probe processes per untraced run
DEADLINE_S = 170.0  # a run must end within 180 s

# Which end-to-end metric each layer should move, and on which workloads.
MOVES = {
    "localization": ("units_per_s, op_s.p50; peak_rss_mb if batched", "mc_relocation, stripe_waveform"),
    "waveform": ("units_per_s, op_s.p50; setup_s via pilot caches", "waveform_compare, stripe_waveform"),
    "ranging": ("units_per_s", "mc_relocation, stripe_waveform"),
    "geometry": ("units_per_s", "mc_relocation"),
    "relocation": ("units_per_s", "mc_relocation"),
    "harness": ("setup_s (parse), units_per_s (execute), op_s.p50 (write)", "all three"),
}


def _source_revision() -> dict:
    """Git revision when there is one, and a digest of the sources always."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "pseudolat", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
        rev = proc.stdout.strip() or None
    return {"git_revision": rev, "src_sha256": digest.hexdigest()}


def _worker(args: list[str], deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PSEUDOLAT_")}
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tail_index(n: int) -> int:
    """Index, in sorted order, of the highest percentile with >= 10 ops beyond it.

    With fewer than 11 ops no op has ten beyond it; the minimum is used.
    """
    return max(n - 11, 0)


def _untraced(wl, seed: int, seconds: int, work: str, deadline: float) -> dict:
    common = ["--workload", wl.name, "--seed", str(seed)]
    timed = _worker(
        ["--mode", "timed", *common, "--budget", str(seconds), "--work-dir", os.path.join(work, "timed")],
        deadline,
    )
    probes = [
        _worker(["--mode", "probe", *common, "--first-op", str(k), "--work-dir", os.path.join(work, f"p{k}")], deadline)
        for k in range(PROBES)
    ]
    # Reference-speed seconds (calibrate.py): each op is scaled by the
    # calibration kernel's mean time just before and just after it.
    calib = timed["calib_s"]
    ops = timed["ops"]
    times = sorted(s * 2.0 * REF_S / (calib[i] + calib[i + 1]) for i, (_, s, _) in enumerate(ops))
    scale = sum(times) / sum(s for _, s, _ in ops)
    n = len(times)
    k_tail = tail_index(n)
    setups = [(p["import_s"] + p["cold_s"] - p["warm_s"]) * REF_S / statistics.median(p["calib_s"]) for p in probes]
    attempted = timed["attempted"] + sum(p["attempted"] for p in probes)
    failures = timed["failures"] + [f"set-up probe {f}" for p in probes for f in p["failures"]]
    metrics = {
        "units_per_s": wl.units_per_op * sum(ok for _, _, ok in ops) / sum(times),
        "op_s.p50": statistics.median(times),
        "op_s.tail": times[k_tail],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    tail_pct = 100.0 * k_tail / (n - 1) if n > 1 else 0.0
    raw_units_per_s = metrics["units_per_s"] * scale
    lines = [
        f"timings in reference-speed seconds: each op's wall time x {REF_S} s over the calibration "
        f"kernel's mean time around it (x {scale:.4f} over all ops)",
        f"{'units_per_s':<12} {metrics['units_per_s']:10.4f} {wl.unit}/s over {n} timed ops "
        f"({raw_units_per_s:.4f} per wall second)",
        f"{'op_s.p50':<12} {metrics['op_s.p50']:10.4f} s",
        f"{'op_s.tail':<12} {metrics['op_s.tail']:10.4f} s  (p{tail_pct:.0f} of {n} ops, "
        f"{n - 1 - k_tail} beyond it)",
        f"{'setup_s':<12} {metrics['setup_s']:10.4f} s  (median of {PROBES} fresh processes: "
        + ", ".join(f"{s:.3f}" for s in setups) + ")",
        f"{'peak_rss_mb':<12} {metrics['peak_rss_mb']:10.1f} MB",
        f"{'failed_frac':<12} {len(failures) / attempted:10.4f} ({len(failures)} of {attempted} ops)",
    ]
    return {
        "metrics": metrics,
        "lines": lines,
        "attempted": attempted,
        "failures": failures,
        "detail": {
            "wall_ops": ops,
            "cold_op_wall_s": timed["cold_s"],
            "calib_s": timed["calib_s"],
            "scale": scale,
            "setup_samples": setups,
            "tail_percentile": tail_pct,
            "provenance": timed["provenance"],
        },
    }


def _traced(wl, seed: int, seconds: int, work: str, deadline: float, spans_out: str) -> dict:
    pairs = max(2, round(seconds / (2 * wl.est_op_s)))
    res = _worker(
        ["--mode", "trace", "--workload", wl.name, "--seed", str(seed), "--pairs", str(pairs),
         "--work-dir", work, "--spans-out", spans_out],
        deadline,
    )
    traced_ups = wl.units_per_op * len(res["traced_s"]) / sum(res["traced_s"])
    plain_ups = wl.units_per_op * len(res["plain_s"]) / sum(res["plain_s"])
    metrics = dict(res["counters"])
    metrics.update(res["timings"])
    metrics["trace.units_per_s"] = traced_ups
    # The report prints the difference; the JSON carries the ratio, which
    # stays positive when noise makes the traced ops the faster ones.
    metrics["trace.overhead_ratio"] = plain_ups / traced_ups
    op_s = statistics.fmean(res["traced_op_s"])
    lines = [f"counters, per op over {pairs} traced ops (deterministic at a fixed seed):"]
    lines += [f"  {name:<44} {value:14.6g}" for name, value in sorted(res["counters"].items())]
    lines.append(f"timings, per op (self time; share of the mean traced op, {op_s:.4f} s):")
    lines += [
        f"  {name:<44} {value:14.6f} s  {100.0 * value / op_s:6.2f} %"
        for name, value in sorted(res["timings"].items())
    ]
    lines.append(
        f"tracing overhead: {traced_ups:.4f} {wl.unit}/s traced vs {plain_ups:.4f} untraced "
        f"({plain_ups - traced_ups:+.4f}, {100.0 * (plain_ups / traced_ups - 1.0):+.2f} %) "
        f"over {len(res['traced_s'])} warm pairs"
    )
    lines.append("layer -> end-to-end metric it should move (workloads):")
    lines += [f"  {layer:<13} {metric} ({wls})" for layer, (metric, wls) in MOVES.items()]
    return {
        "metrics": metrics,
        "lines": lines,
        "attempted": res["attempted"],
        "failures": res["failures"],
        "detail": {k: res[k] for k in ("counters", "timings", "traced_s", "plain_s", "pairs", "provenance")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pseudolat Monte-Carlo throughput benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REF_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "pseudolat", "__init__.py")):
        print(f"no pseudolat sources under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    wl = WORKLOADS[args.workload]
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(work)
    try:
        if args.trace:
            result = _traced(wl, args.seed, args.seconds, work, deadline, os.path.join(OUT, f"spans-{tag}.json"))
        else:
            result = _untraced(wl, args.seed, args.seconds, work, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(result["failures"])
    provenance = dict(result["detail"]["provenance"])
    provenance.update(_source_revision(), workload_seed=args.seed, seconds=args.seconds)
    print(f"workload {wl.name}: {wl.why}")
    print(f"closed loop, 1 client; seed {args.seed}; unit = {wl.unit}; {wl.units_per_op} per op")
    for line in result["lines"]:
        print(line)
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    print("provenance " + json.dumps(provenance, sort_keys=True))

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer" if args.trace else "end_to_end"]}
    if declared.keys() != result["metrics"].keys():
        print(f"metrics {sorted(result['metrics'])} differ from BENCHMARK.json's {sorted(declared)}", file=sys.stderr)
        return 1
    metrics = {name: {"value": value, "unit": declared[name]} for name, value in result["metrics"].items()}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"provenance": provenance, "metrics": metrics, "detail": result["detail"]}, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": result["attempted"], "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
