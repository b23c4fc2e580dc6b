"""One fresh benchmark process: times `import pseudolat`, then runs ops
in process through `pseudolat.cli.main` and prints one JSON line.

Modes:
  timed  a cold op, a warm rerun of it (its artifacts must be
         byte-identical), then warm ops until --budget seconds of op time,
         with the calibration kernel timed before and after each warm op.
  probe  a set-up sample: a cold set-up probe (the op's first call with
         --runs 1) and a warm rerun of it, artifacts byte-identical, then
         the calibration kernel three times.
  trace  --pairs pairs of the same op, traced and untraced in alternating
         order; their artifacts must be byte-identical. Spans are written to
         --spans-out when the process ends.

run.py starts this; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

from workloads import REF_SEED, WORKLOADS, CheckError, compare_fields, load_refs, op_seed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _artifacts(out_dir: str) -> dict:
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


class OpRunner:
    """Runs op `i` of a workload in a fresh output directory and checks it."""

    def __init__(self, cli, workload, seed: int, work_dir: str):
        self.cli = cli
        self.wl = workload
        self.seed = seed
        self.work_dir = work_dir
        self.cfg_path = os.path.join(work_dir, f"{workload.name}.json")
        self.probe_cfg_path = os.path.join(work_dir, f"{workload.name}-probe.json")
        for path, config in ((self.cfg_path, workload.config), (self.probe_cfg_path, workload.probe_config())):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(config, fh, indent=2)
        refs = load_refs() if seed == REF_SEED else {}
        self.refs = refs.get(workload.name, [])
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, op: int, label: str, tracer=None, probe: bool = False) -> dict:
        out_dir = os.path.join(self.work_dir, label)
        shutil.rmtree(out_dir, ignore_errors=True)
        cfg_path = self.probe_cfg_path if probe else self.cfg_path
        argvs = self.wl.argvs(cfg_path, out_dir, op_seed(self.wl.name, self.seed, op), probe)
        self.attempted += 1
        why = None
        start = time.perf_counter()
        try:
            if tracer is None:
                rcs = [self.cli.main(argv) for argv in argvs]
            else:
                tracer.op = op
                rcs = tracer.span("op", lambda: [self.cli.main(argv) for argv in argvs])
        except Exception as e:  # noqa: BLE001 - an op that raises is a failed op
            rcs, why = [], f"raised {e!r}"
        seconds = time.perf_counter() - start
        if why is None and any(rcs):
            why = f"exit codes {rcs}"
        artifacts, fields = {}, {}
        if why is None:
            try:
                fields = self.wl.check(out_dir, probe)
                if not probe and op < len(self.refs):
                    compare_fields(fields, self.refs[op])
                artifacts = _artifacts(out_dir)
            except CheckError as e:
                why = f"check: {e}"
        return {"op": op, "s": seconds, "why": why, "artifacts": artifacts, "fields": fields}

    def fail(self, result: dict, why: str) -> None:
        if result["why"] is None:
            result["why"] = why

    def finish(self, results: list[dict]) -> None:
        for r in results:
            if r["why"] is not None:
                self.failures.append(f"op {r['op']}: {r['why']}")


def _same_artifacts(a: dict, b: dict) -> bool:
    return a["why"] is None and b["why"] is None and a["artifacts"] == b["artifacts"]


def _provenance(pseudolat) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "blas_thread_env": {
            k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ
        },
        "backend": pseudolat.backend(),
        "PSEUDOLAT_THREADS": os.environ.get("PSEUDOLAT_THREADS", "unset (program default 1)"),
    }


def _blas_threads(np):
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def _timed(runner: OpRunner, first: int, budget: float) -> dict:
    from calibrate import calibrate

    cold = runner.run(first, "cold")
    calib = [calibrate()]  # warm op i runs between calib[i] and calib[i + 1]
    ops: list[dict] = []
    op = first
    # Whole ops until their time reaches the budget, rounded to the nearest op.
    while not ops or sum(r["s"] for r in ops) + 0.5 * statistics.median(r["s"] for r in ops) < budget:
        ops.append(runner.run(op, "warm" if op == first else "op"))
        calib.append(calibrate())
        op += 1
    if not _same_artifacts(cold, ops[0]):
        runner.fail(ops[0], "warm rerun artifacts differ from the cold run's")
    runner.finish([cold] + ops)
    return {"cold_s": cold["s"], "ops": [[r["op"], r["s"], r["why"] is None] for r in ops], "calib_s": calib}


def _probe(runner: OpRunner, op: int) -> dict:
    from calibrate import calibrate

    cold = runner.run(op, "cold", probe=True)
    warm = runner.run(op, "warm", probe=True)
    if not _same_artifacts(cold, warm):
        runner.fail(warm, "warm rerun artifacts differ from the cold run's")
    runner.finish([cold, warm])
    return {"cold_s": cold["s"], "warm_s": warm["s"], "calib_s": [calibrate() for _ in range(3)]}


def _trace(runner: OpRunner, pairs: int, spans_out: str) -> dict:
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    traced_s, plain_s = [], []
    results = []
    for i in range(pairs):
        # Alternate the order so neither side is always the warmer one. Pair 0
        # is traced first, cold, and is left out of the overhead comparison.
        pair = {}
        for traced in ((True, False) if i % 2 == 0 else (False, True)):
            if traced:
                tracer.install()
                try:
                    pair[traced] = runner.run(i, "traced", tracer)
                finally:
                    tracer.uninstall()
            else:
                pair[traced] = runner.run(i, "plain")
        if not _same_artifacts(pair[True], pair[False]):
            runner.fail(pair[True], "traced artifacts differ from the untraced run's")
        results += [pair[True], pair[False]]
        if i > 0:
            traced_s.append(pair[True]["s"])
            plain_s.append(pair[False]["s"])
    runner.finish(results)
    counters, timings = layer_metrics(tracer, pairs)
    with open(spans_out, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans}, fh)
    return {
        "pairs": pairs,
        "traced_op_s": [r["s"] for r in results[0::2]],
        "traced_s": traced_s,
        "plain_s": plain_s,
        "counters": counters,
        "timings": timings,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=["timed", "probe", "trace"], required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--first-op", type=int, default=0)
    parser.add_argument("--budget", type=float, default=10.0)
    parser.add_argument("--pairs", type=int, default=2)
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import pseudolat
    import pseudolat.cli

    import_s = time.perf_counter() - start
    if os.path.dirname(os.path.abspath(pseudolat.__file__)) != os.path.join(SRC, "pseudolat"):
        print(f"pseudolat imported from {pseudolat.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    os.makedirs(args.work_dir, exist_ok=True)
    runner = OpRunner(pseudolat.cli, WORKLOADS[args.workload], args.seed, args.work_dir)
    if args.mode == "timed":
        out = _timed(runner, args.first_op, args.budget)
    elif args.mode == "probe":
        out = _probe(runner, args.first_op)
    else:
        out = _trace(runner, args.pairs, args.spans_out)
    out.update(
        import_s=import_s,
        attempted=runner.attempted,
        failures=runner.failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if args.mode != "probe":
        out["provenance"] = _provenance(pseudolat)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
