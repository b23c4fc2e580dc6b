"""Spans and work counters around calls into pseudolat's layers.

The tracer swaps each traced function for a wrapper in every pseudolat
namespace that holds it (`harness` imports with `from .x import y`;
`localization` calls `_kernels.lm_solve_batch`). A wrapper returns the very
object the function returned: `apply_channel` takes its cached-spectrum
path only when `signal is make_pilot(cfg)`. Nothing under src/ changes.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

from pseudolat import _kernels, geometry, harness, localization, ranging, relocation, waveform


def _count_lm(c, args, out):
    # lm_solve_batch(anchors, d, starts, ...) -> (P, f, gradn, conv, iters)
    _, _, _, conv, iters = out
    n = int(iters.size)
    c["starts"] += n
    c["start_iters"] += int(iters.sum())
    c["lane_slots"] += n * int(iters.max())
    c["converged"] += int(conv.sum())


def _count_channel(c, args, out):
    # apply_channel(signal, paths, cfg, rng) -> received samples
    c["samples"] += int(out.size)
    c["path_samples"] += int(out.size) * len(args[1].paths)


def _count_los(c, args, out):
    c["blocked"] += int(bool(out))


def _count_file_bytes(c, args, out):
    # writers and export_dataset take the output path as their second argument
    c["bytes"] += os.path.getsize(args[1])


# metric prefix -> (module, function names, work counter)
LAYERS = {
    "geometry.sample_trajectory": (geometry, ["sample_trajectory"], None),
    "ranging.collect_measurements": (ranging, ["collect_measurements"], None),
    "ranging.los_blocked": (ranging, ["los_blocked"], _count_los),
    "ranging.export_dataset": (ranging, ["export_dataset"], _count_file_bytes),
    "waveform.make_pilot": (waveform, ["make_pilot"], None),
    "waveform.apply_channel": (waveform, ["apply_channel"], _count_channel),
    "waveform.estimate_toa": (waveform, ["estimate_toa"], None),
    "localization.pseudo_multilaterate_static": (localization, ["pseudo_multilaterate_static"], None),
    "localization.lm_solve_batch": (_kernels, ["lm_solve_batch"], _count_lm),
    "relocation.predict_target": (relocation, ["predict_target"], None),
    "relocation.relocate": (relocation, ["relocate"], None),
    "harness.parse": (harness, ["parse_scenario_config", "parse_compare_config"], None),
    "harness.execute": (harness, ["run_scenario", "compare_waveforms", "export_scenario_dataset"], None),
    "harness.write": (
        harness,
        [
            "write_report_csv",
            "write_summary_json",
            "write_waveform_errors_csv",
            "write_waveform_censored_csv",
            "write_waveform_hist_csv",
            "write_comparison_json",
        ],
        _count_file_bytes,
    ),
}


class Tracer:
    """Records spans (name, start, end, parent, op) and counters in memory."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self.op = None
        self._stack: list[int] = []
        self._patches: list = []  # (namespace dict, attr, original)

    def span(self, name, fn, *args, count=None, **kwargs):
        """Call fn inside a span named `name`; return exactly what it returns."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except waveform.DetectionFailure:
            self.counts[name]["detect_fail"] += 1
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op)
            self.counts[name]["calls"] += 1
        if count is not None:
            count(self.counts[name], args, out)
        return out

    def _wrapper(self, name, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, count=count, **kwargs)

        return wrapper

    def install(self) -> None:
        """Swap every traced function in every pseudolat namespace holding it."""
        self._pilot_hits = waveform.make_pilot.cache_info().hits
        namespaces = [m.__dict__ for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "pseudolat"]
        for name, (module, funcs, count) in LAYERS.items():
            for fname in funcs:
                fn = getattr(module, fname)
                wrapper = self._wrapper(name, fn, count)
                for ns in namespaces:
                    for attr, value in list(ns.items()):
                        if value is fn:
                            self._patches.append((ns, attr, fn))
                            ns[attr] = wrapper

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._patches):
            ns[attr] = fn
        self._patches.clear()
        # every make_pilot call while installed went through a wrapper
        self.counts["waveform.make_pilot"]["hits"] += waveform.make_pilot.cache_info().hits - self._pilot_hits

    def self_times(self) -> dict:
        """Total self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, n_ops: int) -> tuple[dict, dict]:
    """Per-op per-layer metrics, split into (counters, timings).

    Counters come from arguments and return values and repeat exactly at a
    fixed seed; timings do not.
    """
    self_s = tracer.self_times()
    c = tracer.counts
    counters = {f"{name}.calls": c[name]["calls"] / n_ops for name in LAYERS}
    timings = {f"{name}.self_s": self_s[name] / n_ops for name in LAYERS}
    lm, ch = c["localization.lm_solve_batch"], c["waveform.apply_channel"]
    counters.update(
        {
            "localization.lm_solve_batch.starts": lm["starts"] / n_ops,
            "localization.lm_solve_batch.start_iters": lm["start_iters"] / n_ops,
            "localization.lm_solve_batch.lane_util": _ratio(lm["start_iters"], lm["lane_slots"]),
            "localization.lm_solve_batch.conv_frac": _ratio(lm["converged"], lm["starts"]),
            "waveform.apply_channel.samples": ch["samples"] / n_ops,
            "waveform.apply_channel.path_samples": ch["path_samples"] / n_ops,
            "waveform.estimate_toa.detect_fail_frac": _ratio(
                c["waveform.estimate_toa"]["detect_fail"], c["waveform.estimate_toa"]["calls"]
            ),
            "waveform.make_pilot.hit_ratio": _ratio(c["waveform.make_pilot"]["hits"], c["waveform.make_pilot"]["calls"]),
            "ranging.los_blocked.blocked_frac": _ratio(c["ranging.los_blocked"]["blocked"], c["ranging.los_blocked"]["calls"]),
            "ranging.export_dataset.bytes": c["ranging.export_dataset"]["bytes"] / n_ops,
            "harness.write.bytes": c["harness.write"]["bytes"] / n_ops,
        }
    )
    return counters, timings
