"""Print the sha256 of every artifact of the byte-identical gate.

The gate runs each command below at ``PSEUDOLAT_THREADS`` 1, 2, 3 and
unset: ``simulate`` on the shipped circular_static, relocation and
export_demo configs, ``export-dataset`` on export_demo, ``crlb`` on
crlb_demo, ``compare-waveforms`` on fig5 with ``--runs 50``, and
waveform-backed ``simulate`` and ``export-dataset`` on perfbench's STRIPE
config. Each artifact prints one line:

    threads command config file sha256

Outputs go to a temporary directory that is removed afterwards. Run it on
two checkouts and diff what they print:

    python tools/artifact_digests.py > digests.txt
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from pseudolat.cli import main  # noqa: E402
from workloads import STRIPE  # noqa: E402

THREADS = ("1", "2", "3", "unset")


def _gate(stripe_path: str) -> list[tuple[str, str, list[str]]]:
    """(command, config label, CLI arguments after the global options)."""
    configs = os.path.join(ROOT, "configs")
    gate = []
    for name in ("circular_static", "relocation", "export_demo"):
        gate.append(("simulate", f"{name}.json", ["simulate", os.path.join(configs, f"{name}.json")]))
    gate += [
        ("export-dataset", "export_demo.json", ["export-dataset", os.path.join(configs, "export_demo.json")]),
        ("crlb", "crlb_demo.json", ["crlb", os.path.join(configs, "crlb_demo.json")]),
        ("compare-waveforms", "fig5.json", ["--runs", "50", "compare-waveforms", os.path.join(configs, "fig5.json")]),
        ("simulate", "perfbench:STRIPE", ["simulate", stripe_path]),
        ("export-dataset", "perfbench:STRIPE", ["export-dataset", stripe_path]),
    ]
    return gate


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main_digests() -> int:
    with tempfile.TemporaryDirectory(prefix="artifact-digests-") as tmp:
        stripe_path = os.path.join(tmp, "stripe.json")
        with open(stripe_path, "w", encoding="utf-8") as fh:
            json.dump(STRIPE, fh)
        for threads in THREADS:
            if threads == "unset":
                os.environ.pop("PSEUDOLAT_THREADS", None)
            else:
                os.environ["PSEUDOLAT_THREADS"] = threads
            for i, (command, label, args) in enumerate(_gate(stripe_path)):
                out_dir = os.path.join(tmp, f"{threads}-{i}")
                code = main(["--quiet", "--out-dir", out_dir, *args])
                if code != 0:
                    print(f"{command} {label} at PSEUDOLAT_THREADS={threads} exited {code}", file=sys.stderr)
                    return 1
                for name in sorted(os.listdir(out_dir)):
                    print(threads, command, label, name, _sha256(os.path.join(out_dir, name)))
    return 0


if __name__ == "__main__":
    sys.exit(main_digests())
