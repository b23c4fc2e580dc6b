#!/usr/bin/env python3
"""Record the per-op accuracy fields of the reference workload seed.

    python3 perfbench/record_refs.py

Runs ops 0..REF_OPS-1 of every workload at workloads.REF_SEED and writes
perfbench/refs.json. Run it only on a commit whose outputs are trusted:
every later benchmark run at that seed is checked against this file.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from worker import SRC, OpRunner
from workloads import REF_OPS, REF_SEED, REFS_PATH, WORKLOADS


def main() -> int:
    sys.path.insert(0, SRC)
    import pseudolat.cli

    work = os.path.join(os.path.dirname(SRC), ".perfbench_out", "record-refs")
    os.makedirs(work, exist_ok=True)
    refs = {}
    try:
        for name, wl in WORKLOADS.items():
            runner = OpRunner(pseudolat.cli, wl, REF_SEED, work)
            runner.refs = []
            refs[name] = []
            for op in range(REF_OPS):
                result = runner.run(op, "op")
                if result["why"] is not None:
                    print(f"{name} op {op}: {result['why']}", file=sys.stderr)
                    return 1
                refs[name].append(result["fields"])
            print(f"{name}: {REF_OPS} ops recorded")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
