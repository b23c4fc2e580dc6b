"""Command-line entry point.

Subcommands: simulate, compare-waveforms, export-dataset, crlb. Exit codes:
0 success, 2 configuration/usage error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import harness
from .localization import crlb


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pseudolat", description=__doc__)
    parser.add_argument("--seed", type=int, default=None, help="override the config base seed")
    parser.add_argument("--runs", type=int, default=None, help="override runs/trials count")
    parser.add_argument("--out-dir", default=".", help="directory for output artifacts")
    parser.add_argument("--quiet", action="store_true", help="suppress console summaries")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a localization scenario")
    p_sim.add_argument("config")

    p_cmp = sub.add_parser("compare-waveforms", help="paired OFDM/OTFS ranging comparison")
    p_cmp.add_argument("config")

    p_exp = sub.add_parser("export-dataset", help="export per-revolution measurement matrices")
    p_exp.add_argument("config")
    p_exp.add_argument("--out", default=None, help="dataset CSV path (default <out-dir>/dataset.csv)")

    p_crlb = sub.add_parser("crlb", help="Cramér-Rao bound for an anchor layout")
    p_crlb.add_argument("config")
    return parser


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as e:
        raise harness.ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise harness.ConfigError(f"malformed JSON in {path}: {e}") from e
    if not isinstance(raw, dict):
        raise harness.ConfigError(f"config {path} must be a JSON object")
    return raw


def _load_config(args, runs_key: str) -> dict:
    """The config file with ``--seed`` and ``--runs`` (as ``runs_key``) applied."""
    raw = _load_json(args.config)
    if args.seed is not None:
        raw["base_seed"] = args.seed
    if args.runs is not None:
        raw[runs_key] = args.runs
    return raw


def _say(args, msg: str) -> None:
    if not args.quiet:
        print(msg)


def _cmd_simulate(args) -> int:
    cfg = harness.parse_scenario_config(_load_config(args, "runs"))
    report = harness.run_scenario(cfg)
    os.makedirs(args.out_dir, exist_ok=True)
    report_path = os.path.join(args.out_dir, "report.csv")
    summary_path = os.path.join(args.out_dir, "summary.json")
    harness.write_report_csv(report, report_path)
    harness.write_summary_json(report, summary_path)
    stats = report.stats()
    _say(
        args,
        f"{cfg.name}: {cfg.runs} runs, median error {stats['median']:.3f} m, "
        f"mean {stats['mean']:.3f} m, convergence {report.convergence_rate:.3f} "
        f"({report.runtime_s:.2f} s)",
    )
    _say(args, f"wrote {report_path} and {summary_path}")
    return 0


def _cmd_compare(args) -> int:
    cfg = harness.parse_compare_config(_load_config(args, "trials"))
    cmp = harness.compare_waveforms(cfg)
    os.makedirs(args.out_dir, exist_ok=True)
    errors_path = os.path.join(args.out_dir, "waveform_errors.csv")
    hist_path = os.path.join(args.out_dir, "waveform_hist.csv")
    summary_path = os.path.join(args.out_dir, "waveform_summary.json")
    harness.write_waveform_errors_csv(cmp, errors_path)
    harness.write_waveform_hist_csv(cmp, hist_path)
    harness.write_comparison_json(cmp, summary_path)
    censored = sum(row["censored"] for row in cmp.cell_stats())
    if censored:
        censored_path = os.path.join(args.out_dir, "waveform_censored.csv")
        harness.write_waveform_censored_csv(cmp, censored_path)
        _say(args, f"{censored} censored trials recorded in {censored_path}")
    for row in cmp.cell_stats():
        _say(
            args,
            f"{row['scheme']:>4} @ {row['delta_f_hz'] / 1e3:.0f} kHz: "
            f"mean {row['mean_error_m']:.2f} m, median {row['median_error_m']:.2f} m, "
            f"var {row['variance_m2']:.2f} m^2",
        )
    for df, ratio in cmp.improvement_ratios().items():
        _say(args, f"OTFS/OFDM mean-error ratio @ {df / 1e3:.0f} kHz: {ratio:.3f}")
    _say(args, f"wrote {errors_path}, {hist_path}, {summary_path}")
    return 0


def _cmd_export(args) -> int:
    cfg = harness.parse_scenario_config(_load_config(args, "runs"))
    out = args.out or os.path.join(args.out_dir, "dataset.csv")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    n = harness.export_scenario_dataset(cfg, out)
    _say(args, f"wrote {n} revolution matrices to {out}")
    return 0


def _cmd_crlb(args) -> int:
    raw = _load_json(args.config)
    anchors, target, sigma_fn = harness.parse_crlb_config(raw)
    result = crlb(anchors, target, sigma_fn)
    os.makedirs(args.out_dir, exist_ok=True)
    out_path = os.path.join(args.out_dir, "crlb.json")
    harness.write_crlb_json(result, out_path)
    rms = math.sqrt(result.trace)
    _say(args, f"CRLB trace {result.trace:.4f} m^2 (rms {rms:.4f} m), rank {result.rank}")
    _say(args, f"wrote {out_path}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "compare-waveforms": _cmd_compare,
    "export-dataset": _cmd_export,
    "crlb": _cmd_crlb,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0
    try:
        return _COMMANDS[args.command](args)
    except harness.ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
