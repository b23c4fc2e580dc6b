"""Scenario configuration, Monte-Carlo execution, metrics, and file outputs.

Configs are versioned JSON; every field is validated and unknown fields are
rejected with their path so typos never pass silently. All randomness is
derived from (base_seed, run index, revolution index), which makes every
output artifact a pure function of the config plus CLI flags. Wall-clock
runtime is reported on the console only, never in output files.
"""

from __future__ import annotations

import dataclasses
import math
import os
import threading
import time
from dataclasses import dataclass

import numpy as np

from .geometry import (
    CircularTrajectory,
    LinearTrajectory,
    Position3,
    TrajectorySpec,
    WaypointSeries,
    revolution_period,
    sample_trajectory,
)
from .localization import DEFAULT_BOUNDS, Bounds, CrlbResult, _box, pseudo_multilaterate_static_batch
from .ranging import (
    MeasurementMatrix,
    NoiseModel,
    Obstacle,
    _distances,
    _fmt,
    _line_of_sight,
    _ranges,
    _write_json,
    _write_lines,
    export_dataset,
)
from .relocation import RelocationPolicy, predict_target, relocate
from .waveform import (
    C_LIGHT,
    DetectionFailure,
    NlosEnsemble,
    WaveformConfig,
    _frame_length,
    apply_channel,
    estimate_toa,
    make_pilot,
    ranging_error_trial,
)

__all__ = [
    "ConfigError",
    "StaticTarget",
    "LinearTarget",
    "HistogramSpec",
    "WaveformRanging",
    "ScenarioConfig",
    "MetricsReport",
    "CompareConfig",
    "WaveformComparison",
    "parse_scenario_config",
    "parse_compare_config",
    "parse_crlb_config",
    "run_scenario",
    "compare_waveforms",
    "scenario_matrices",
    "summary_stats",
    "write_report_csv",
    "write_summary_json",
    "write_waveform_errors_csv",
    "write_waveform_hist_csv",
    "write_comparison_json",
    "write_crlb_json",
]


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending field."""


# ---------------------------------------------------------------------------
# Scenario model


@dataclass(frozen=True)
class StaticTarget:
    position: Position3

    def path_at(self, t: np.ndarray) -> np.ndarray:
        return np.tile(self.position.as_array(), (t.size, 1))


@dataclass(frozen=True)
class LinearTarget:
    start: Position3
    velocity: Position3

    def path_at(self, t: np.ndarray) -> np.ndarray:
        return self.start.as_array()[None, :] + t[:, None] * self.velocity.as_array()[None, :]


@dataclass(frozen=True)
class HistogramSpec:
    bin_width_m: float = 0.5
    max_m: float = 100.0

    def __post_init__(self):
        # The ratio is checked before ``edges`` rounds it, so inf fails too.
        if not (self.bin_width_m > 0 and 1 <= self.max_m / self.bin_width_m <= 100_000):
            raise ValueError("histogram needs bin_width_m > 0 and max_m / bin_width_m in [1, 100000]")

    def edges(self) -> np.ndarray:
        """Bin edges 0, w, 2w, ... up to ``max_m`` rounded to whole bins."""
        n_bins = int(round(self.max_m / self.bin_width_m))
        return self.bin_width_m * np.arange(n_bins + 1)

    def counts(self, errors: np.ndarray) -> tuple[list[int], int]:
        edges = self.edges()
        finite = errors[np.isfinite(errors)]
        counts, _ = np.histogram(finite, bins=edges)
        overflow = int(np.sum(finite > edges[-1]))
        return [int(c) for c in counts], overflow


@dataclass(frozen=True)
class WaveformRanging:
    """Waveform-backed measurement backend (one full ToA trial per sample)."""

    waveform: WaveformConfig
    ensemble: NlosEnsemble = NlosEnsemble()


@dataclass(frozen=True)
class ScenarioConfig:
    trajectory: TrajectorySpec
    dt: float
    target: StaticTarget | LinearTarget
    noise: NoiseModel | WaveformRanging
    name: str = "scenario"
    samples_per_revolution: int | None = None
    obstacles: tuple[Obstacle, ...] = ()
    n_revolutions: int = 1
    relocation: RelocationPolicy | None = None
    runs: int = 1
    base_seed: int = 0
    bounds: Bounds = DEFAULT_BOUNDS
    histogram: HistogramSpec = HistogramSpec()

    def samples_per_rev(self) -> int:
        if self.samples_per_revolution is not None:
            return self.samples_per_revolution
        period = revolution_period(self.trajectory)
        s = int(round(period / self.dt))
        if s < 3:
            raise ConfigError("dt too coarse: fewer than 3 samples per revolution")
        return s


@dataclass(frozen=True)
class MetricsReport:
    """A scenario's runs, one array row per run: ``est`` (runs, 3) final
    estimates, ``rev_errors`` (runs, revolutions) every revolution's error,
    and the final solves' ``residual``, ``converged`` and ``n_alternates``.
    All runs share the revolution clock, so ``true_pos`` (the target at the
    last revolution's midpoint) is every run's truth.
    """

    scenario: str
    true_pos: Position3
    est: np.ndarray
    rev_errors: np.ndarray
    residual: np.ndarray
    converged: np.ndarray
    n_alternates: np.ndarray
    histogram: HistogramSpec
    runtime_s: float

    @property
    def errors(self) -> np.ndarray:
        """Final error of every run, m."""
        return self.rev_errors[:, -1]

    @property
    def convergence_rate(self) -> float:
        return float(np.mean(self.converged))

    def stats(self) -> dict:
        return summary_stats(self.errors)


def summary_stats(errors: np.ndarray) -> dict:
    errors = np.asarray(errors, dtype=np.float64)
    return {
        "mean": float(np.mean(errors)),
        "median": float(np.median(errors)),
        "rmse": float(np.sqrt(np.mean(errors**2))),
        "p95": float(np.percentile(errors, 95)),
    }


# ---------------------------------------------------------------------------
# Config parsing: ``_build`` walks a dataclass's fields, so each field's type
# and default are written once, in its dataclass. Missing, mistyped and
# unknown fields are rejected with their path.


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _as_number(v, path: str) -> float:
    # json accepts NaN, Infinity and integers beyond float range, and no
    # config field has a use for them.
    if not isinstance(v, bool) and isinstance(v, (int, float)):
        try:
            x = float(v)
        except OverflowError:
            x = math.inf
        if math.isfinite(x):
            return x
    raise ConfigError(f"field {path} must be a finite number")


def _as_int(v, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"field {path} must be an integer")
    return v


def _as_str(v, path: str) -> str:
    if not isinstance(v, str):
        raise ConfigError(f"field {path} must be a string")
    return v


def _as_dict(v, path: str) -> dict:
    if not isinstance(v, dict):
        raise ConfigError(f"field {path} must be an object")
    return dict(v)


def _as_tuple(v, path: str, item, n: int | None = None, at_least: int = 0) -> tuple:
    """A JSON list of exactly ``n`` (or at least ``at_least``) entries, each
    converted by ``item``."""
    if not isinstance(v, list) or (len(v) != n if n is not None else len(v) < at_least):
        count = n if n is not None else f">= {at_least}"
        raise ConfigError(f"field {path} must be a list of {count} entries")
    return tuple(item(x, f"{path}[{i}]") for i, x in enumerate(v))


def _as_vec3(v, path: str) -> Position3:
    return Position3(*_as_tuple(v, path, _as_number, n=3))


def _as_bounds(v, path: str) -> Bounds:
    bounds = _as_tuple(v, path, lambda pair, p: _as_tuple(pair, p, _as_number, n=2), n=3)
    try:
        _box(bounds)
    except ValueError as e:
        raise ConfigError(f"field {path}: {e}") from e
    return bounds


def _build(cls, v, path: str, rename=None, fixed=None):
    """Construct the dataclass ``cls`` from the JSON object ``v`` at ``path``.

    Each field is read from its JSON key (the field name unless ``rename``
    maps it) by the converter ``_CONVERT`` holds for its annotation; a field
    whose key is absent takes its dataclass default. ``fixed`` sets fields
    the config may not set: their keys are unknown.
    """
    d = _as_dict(v, path)
    rename, fixed = rename or {}, fixed or {}
    kwargs = {}
    for f in dataclasses.fields(cls):
        key = rename.get(f.name, f.name)
        if f.name in fixed:
            kwargs[f.name] = fixed[f.name]
        elif key in d:
            kwargs[f.name] = _CONVERT[f.type](d.pop(key), _join(path, key))
        elif f.default is dataclasses.MISSING:
            raise ConfigError(f"missing field {_join(path, key)}")
    if d:
        raise ConfigError(f"unknown field {_join(path, sorted(d)[0])}")
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise ConfigError(f"field {path}: {e}") from e


def _kinds(table: dict):
    """Converter for a section whose ``kind`` picks its dataclass from ``table``."""

    def convert(v, path: str):
        d = _as_dict(v, path)
        if "kind" not in d:
            raise ConfigError(f"missing field {_join(path, 'kind')}")
        kind = d.pop("kind")
        if not isinstance(kind, str) or kind not in table:
            allowed = " or ".join(repr(k) for k in table)
            raise ConfigError(f"field {_join(path, 'kind')} must be {allowed}")
        return _build(table[kind], d, path)

    return convert


_WAVEFORM_KEYS = {"subcarrier_spacing": "subcarrier_spacing_hz", "carrier_freq": "carrier_freq_hz"}

# Converter per field annotation. Annotations are strings here and in every
# module a config dataclass comes from (``from __future__ import annotations``).
# No converter sees a null: ``_top_level`` drops the nullable keys set to null.
_CONVERT = {
    "float": _as_number,
    "int": _as_int,
    "int | None": _as_int,
    "str": _as_str,
    "Position3": _as_vec3,
    "Bounds": _as_bounds,
    "tuple[int, int, int]": lambda v, p: _as_tuple(v, p, _as_int, n=3),
    "tuple[float, ...]": lambda v, p: _as_tuple(v, p, _as_number, at_least=1),
    "tuple[Position3, ...]": lambda v, p: _as_tuple(v, p, _as_vec3, at_least=3),
    "tuple[Obstacle, ...]": lambda v, p: _as_tuple(
        v, p, lambda o, q: _build(Obstacle, o, q, rename={"min_corner": "min", "max_corner": "max"})
    ),
    "TrajectorySpec": _kinds({"circular": CircularTrajectory, "linear": LinearTrajectory}),
    "StaticTarget | LinearTarget": _kinds({"static": StaticTarget, "linear": LinearTarget}),
    "NoiseModel | WaveformRanging": _kinds({"statistical": NoiseModel, "waveform": WaveformRanging}),
    "WaveformConfig": lambda v, p: _build(WaveformConfig, v, p, rename=_WAVEFORM_KEYS),
    "NlosEnsemble": lambda v, p: _build(NlosEnsemble, v, p),
    "RelocationPolicy | None": lambda v, p: _build(RelocationPolicy, v, p),
    "HistogramSpec": lambda v, p: _build(HistogramSpec, v, p),
    "_Sigma": lambda v, p: _build(_Sigma, v, p),
}


def _top_level(raw: dict, nullable: tuple[str, ...] = ()) -> dict:
    """The config minus ``version``, which must be the integer 1, and minus
    the ``nullable`` keys set to null, which take their defaults."""
    d = {k: v for k, v in raw.items() if not (v is None and k in nullable)}
    if "version" not in d:
        raise ConfigError("missing field version")
    version = _as_int(d.pop("version"), "version")
    if version != 1:
        raise ConfigError(f"unsupported config version {version!r} (expected 1)")
    return d


def parse_scenario_config(raw: dict) -> ScenarioConfig:
    d = _top_level(raw, ("obstacles", "relocation", "samples_per_revolution", "bounds", "histogram"))
    cfg = _build(ScenarioConfig, d, "")
    if cfg.dt <= 0:
        raise ConfigError("field dt must be > 0")
    samples = cfg.samples_per_revolution
    if samples is not None and samples < 3:
        raise ConfigError("field samples_per_revolution must be >= 3")
    if samples is None and isinstance(cfg.trajectory, LinearTrajectory):
        raise ConfigError("field samples_per_revolution is required for linear trajectories")
    if cfg.relocation is not None and not isinstance(cfg.trajectory, CircularTrajectory):
        raise ConfigError("field relocation requires a circular trajectory")
    # relocate() starts the next circle from where a whole revolution ends.
    if cfg.relocation is not None and samples is not None:
        whole = int(round(revolution_period(cfg.trajectory) / cfg.dt))
        if samples != whole:
            raise ConfigError(f"field samples_per_revolution must be {whole} (one revolution) under relocation")
    for key in ("n_revolutions", "runs"):
        if getattr(cfg, key) < 1:
            raise ConfigError(f"field {key} must be >= 1")
    if cfg.base_seed < 0:
        raise ConfigError("field base_seed must be >= 0")
    # report.csv writes the name unquoted.
    if any(c in cfg.name for c in ',"\r\n'):
        raise ConfigError("field name must not contain a comma, a double quote, CR or LF")
    return cfg


@dataclass(frozen=True)
class CompareConfig:
    waveform: WaveformConfig  # each grid cell replaces its scheme and spacing
    name: str = "comparison"
    spacings_hz: tuple[float, ...] = (30e3, 120e3)
    ensemble: NlosEnsemble = NlosEnsemble()
    trials: int = 5000
    base_seed: int = 0
    histogram: HistogramSpec = HistogramSpec()


def parse_compare_config(raw: dict) -> CompareConfig:
    d = _top_level(raw, ("histogram",))
    # The grid sets every cell's scheme and spacing, so the config may set neither.
    grid = {"scheme": "ofdm", "subcarrier_spacing": WaveformConfig.subcarrier_spacing}
    waveform = _build(WaveformConfig, d.pop("waveform", {}), "waveform", rename=_WAVEFORM_KEYS, fixed=grid)
    cfg = _build(CompareConfig, d, "", fixed={"waveform": waveform})
    if cfg.trials < 1:
        raise ConfigError("field trials must be >= 1")
    if cfg.base_seed < 0:
        raise ConfigError("field base_seed must be >= 0")
    for i, df in enumerate(cfg.spacings_hz):
        if df <= 0:
            raise ConfigError(f"field spacings_hz[{i}] must be > 0")
        if df in cfg.spacings_hz[:i]:  # results are keyed by (scheme, spacing)
            raise ConfigError(f"field spacings_hz[{i}] repeats an earlier spacing")
    return cfg


@dataclass(frozen=True)
class _Sigma:
    """Range std ``sigma0 + eta * d``."""

    sigma0: float = 1.0
    eta: float = 0.0


@dataclass(frozen=True)
class _CrlbConfig:
    anchors: tuple[Position3, ...]
    target: Position3
    sigma: _Sigma = _Sigma()


def parse_crlb_config(raw: dict):
    cfg = _build(_CrlbConfig, _top_level(raw), "")
    sigma0, eta = cfg.sigma.sigma0, cfg.sigma.eta
    # Same domain as NoiseModel: both terms nonnegative, the std positive.
    if sigma0 < 0:
        raise ConfigError("field sigma.sigma0 must be >= 0")
    if eta < 0:
        raise ConfigError("field sigma.eta must be >= 0")
    if sigma0 == 0 and eta == 0:
        raise ConfigError("field sigma must give a positive std")
    for i, anchor in enumerate(cfg.anchors):
        if anchor == cfg.target:
            raise ConfigError(f"field anchors[{i}] coincides with the target")
    anchors = np.array([anchor.as_array() for anchor in cfg.anchors])
    return anchors, cfg.target.as_array(), (lambda dist: sigma0 + eta * dist)


# ---------------------------------------------------------------------------
# Execution


def _worker_count(n_tasks: int) -> int:
    """Threads for ``n_tasks`` tasks: ``PSEUDOLAT_THREADS`` if set, else the
    usable cores, and never more than there are tasks."""
    raw = os.environ.get("PSEUDOLAT_THREADS")
    if raw is None:
        n = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    else:
        try:
            n = int(raw)
        except ValueError:
            n = 0
        if n < 1:
            raise RuntimeError(f"PSEUDOLAT_THREADS must be a positive integer, got {raw!r}")
    return max(1, min(n, n_tasks))


def _map_indexed(fn, n: int, draw=None) -> list:
    """``[fn(0), ..., fn(n - 1)]``, or ``[fn(i, draw(i)) ...]`` given
    ``draw``, with the calling thread and up to W - 1 helper threads taking
    the next index in turn.

    ``draw(i)`` runs under the lock that hands out index i, so draws happen
    in index order whatever the schedule: a generator shared by all draws
    yields the stream a serial loop would. ``fn`` runs outside the lock.
    Results are stored by index, so their order never depends on the
    schedule. If calls fail, no new index is taken and the failure of the
    lowest index is raised: every lower index has already been taken, so it
    is the exception a serial loop would raise.
    """
    args = (lambda i: (i,)) if draw is None else (lambda i: (i, draw(i)))
    workers = _worker_count(n)
    if workers == 1:
        return [fn(*args(i)) for i in range(n)]
    results = [None] * n
    failures: dict = {}
    lock = threading.Lock()
    next_index = 0

    def work():
        nonlocal next_index
        while True:
            with lock:
                i = next_index
                if i >= n or failures:
                    return
                next_index += 1
                try:
                    a = args(i)
                except BaseException as e:  # re-raised in the calling thread
                    failures[i] = e
                    return
            try:
                results[i] = fn(*a)
            except BaseException as e:
                with lock:
                    failures[i] = e
                return

    helpers = [threading.Thread(target=work) for _ in range(workers - 1)]
    for t in helpers:
        t.start()
    try:
        work()
    finally:
        for t in helpers:
            t.join()
    if failures:
        raise failures[min(failures)]
    return results


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


def _collect_waveform_backed(
    anchor_p: np.ndarray,
    target_p: np.ndarray,
    obstacles,
    backend: WaveformRanging,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One ToA trial per sample, the samples spread over threads.

    All samples draw from one generator, each its paths and then its noise
    normals, in sample order (``_map_indexed``'s in-order ``draw``); the
    channel synthesis and the ToA estimate run outside the lock.
    """
    los = _line_of_sight(anchor_p, target_p, obstacles)
    d_true = _distances(anchor_p, target_p)
    rng = np.random.default_rng(seed)
    cfg = backend.waveform
    pilot = make_pilot(cfg)  # warms the pilot cache before the fan-out

    def draw(k: int):
        paths = backend.ensemble.draw_paths(float(d_true[k]), cfg.carrier_freq, rng, los=bool(los[k]))
        total = _frame_length(pilot.size, paths, cfg)  # raises on a delay of a symbol or more
        return paths, rng.standard_normal(2 * total) if math.isfinite(paths.snr_db) else None

    def measure(k: int, drawn) -> float:
        paths, noise = drawn
        return C_LIGHT * estimate_toa(apply_channel(pilot, paths, cfg, noise), cfg)

    return np.array(_map_indexed(measure, d_true.size, draw=draw)), los


def _collect(
    cfg: ScenarioConfig, anchor_p: np.ndarray, target_p: np.ndarray, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Measured ranges (S,) and LoS flags (S,) between (S, 3) anchor and target paths."""
    if isinstance(cfg.noise, NoiseModel):
        return _ranges(anchor_p, target_p, cfg.obstacles, cfg.noise, seed)
    return _collect_waveform_backed(anchor_p, target_p, cfg.obstacles, cfg.noise, seed)


def _revolution_clock(cfg: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """Start and midpoint times (revolutions,) of the clock that all runs
    and the dataset export share: relocation keeps the angular speed, so a
    revolution starts S dt after the last (a running sum in floating point),
    and its midpoint is that of its first and last sample times."""
    n_samples = cfg.samples_per_rev()
    starts = np.zeros(cfg.n_revolutions)
    starts[1:] = np.cumsum(np.full(cfg.n_revolutions - 1, n_samples * cfg.dt))
    return starts, 0.5 * (starts + (starts + cfg.dt * (n_samples - 1)))


def run_scenario(cfg: ScenarioConfig) -> MetricsReport:
    """Execute all Monte-Carlo runs of a scenario and aggregate metrics.

    All runs share one timeline, because relocation keeps the angular
    speed: the target path is computed once per revolution, and the truth
    at every revolution's midpoint once. Every run ranges along its own circle with its own
    (base_seed, run, revolution) seed, all runs are solved in one batched
    call, and a relocation policy then re-centres each run's circle.
    The runs are ranged one after another: waveform-backed ranging spreads
    each (run, revolution)'s samples over threads itself
    (``_collect_waveform_backed``), while statistical ranging and the solves
    stay in the calling thread, where threads do not pay.
    """
    start = time.perf_counter()
    n_samples = cfg.samples_per_rev()
    specs = [cfg.trajectory] * cfg.runs
    starts, t_mid = _revolution_clock(cfg)
    truth = cfg.target.path_at(t_mid)
    est = np.empty((cfg.runs, cfg.n_revolutions, 3))
    errors = np.empty((cfg.runs, cfg.n_revolutions))
    for rev, t0 in enumerate(starts):
        anchor_paths = [sample_trajectory(spec, t0, cfg.dt, n_samples) for spec in specs]
        t = anchor_paths[0].t
        target_p = cfg.target.path_at(t)  # every run's path has the times t

        def measure(run: int) -> np.ndarray:
            seed = _derived_seed(cfg.base_seed, run, rev)
            return _collect(cfg, anchor_paths[run].p, target_p, seed)[0]

        d = np.stack([measure(run) for run in range(cfg.runs)])
        anchors = np.stack([path.p for path in anchor_paths])
        sols = pseudo_multilaterate_static_batch(anchors, d, cfg.bounds)
        for run, sol in enumerate(sols):
            est[run, rev] = sol.p_hat.as_array()
        errors[:, rev] = _distances(est[:, rev], truth[rev])
        if cfg.relocation is not None and rev < cfg.n_revolutions - 1:
            horizon = revolution_period(cfg.trajectory)
            for run, spec in enumerate(specs):
                history = WaypointSeries(t_mid[: rev + 1], est[run, : rev + 1])
                specs[run] = relocate(spec, predict_target(history, horizon), cfg.relocation)
    return MetricsReport(
        scenario=cfg.name,
        true_pos=Position3.from_array(truth[-1]),
        est=est[:, -1],
        rev_errors=errors,
        residual=np.array([sol.residual for sol in sols]),
        converged=np.array([sol.converged for sol in sols]),
        n_alternates=np.array([len(sol.alternates) for sol in sols]),
        histogram=cfg.histogram,
        runtime_s=time.perf_counter() - start,
    )


def scenario_matrices(cfg: ScenarioConfig) -> list[MeasurementMatrix]:
    """Measurement matrices for dataset export (run 0, no relocation).

    One matrix per revolution, of ``samples_per_rev`` rows each, labelled
    with the true target position at that revolution's midpoint.
    """
    if not isinstance(cfg.trajectory, CircularTrajectory):
        raise ConfigError("dataset export requires a circular trajectory")
    n_samples = cfg.samples_per_rev()
    starts, t_mid = _revolution_clock(cfg)
    paths = [sample_trajectory(cfg.trajectory, t0, cfg.dt, n_samples) for t0 in starts]
    anchor_p = np.concatenate([path.p for path in paths])
    target_p = cfg.target.path_at(np.concatenate([path.t for path in paths]))
    d, los = _collect(cfg, anchor_p, target_p, _derived_seed(cfg.base_seed, 0, 0))
    rows = np.column_stack([anchor_p, d])
    truth = cfg.target.path_at(t_mid)
    matrices = []
    for r in range(cfg.n_revolutions):
        cut = slice(r * n_samples, (r + 1) * n_samples)
        label = Position3.from_array(truth[r])
        matrices.append(MeasurementMatrix(rows=rows[cut], los=los[cut], revolution=r, label=label))
    return matrices


# ---------------------------------------------------------------------------
# Waveform comparison


@dataclass(frozen=True)
class WaveformComparison:
    spacings_hz: tuple[float, ...]
    trials: int
    errors: dict  # (scheme, spacing) -> np.ndarray with nan for censored
    histogram: HistogramSpec

    def cell_stats(self) -> list[dict]:
        """Per cell: counts and error statistics, nan where all are censored."""
        rows = []
        for (scheme, df), err in sorted(self.errors.items()):
            ok = err[np.isfinite(err)]
            rows.append(
                {
                    "scheme": scheme,
                    "delta_f_hz": df,
                    "trials": int(err.size),
                    "censored": int(err.size - ok.size),
                    "mean_error_m": float(np.mean(ok)) if ok.size else math.nan,
                    "median_error_m": float(np.median(ok)) if ok.size else math.nan,
                    "variance_m2": float(np.var(ok)) if ok.size else math.nan,
                }
            )
        return rows

    def improvement_ratios(self) -> dict:
        """Per spacing: OTFS mean error divided by OFDM mean error, over the
        trials both schemes detected (nan if there are none)."""
        out = {}
        for df in self.spacings_hz:
            ofdm = self.errors[("ofdm", df)]
            otfs = self.errors[("otfs", df)]
            both = np.isfinite(ofdm) & np.isfinite(otfs)
            out[df] = float(np.mean(otfs[both]) / np.mean(ofdm[both])) if both.any() else math.nan
        return out


def compare_waveforms(cfg: CompareConfig) -> WaveformComparison:
    """Paired OFDM/OTFS trials over the subcarrier-spacing grid.

    Every (scheme, spacing) cell of one trial sees the identical channel
    draw; only the pilot and its processing differ. Detection failures are
    recorded as censored (nan) entries.
    """
    cells = [
        (scheme, df, dataclasses.replace(cfg.waveform, scheme=scheme, subcarrier_spacing=df))
        for df in cfg.spacings_hz
        for scheme in ("ofdm", "otfs")
    ]
    for _, _, wf in cells:
        make_pilot(wf)  # warm the pilot cache before any thread fan-out

    def one_trial(trial: int):
        rng_chan = np.random.default_rng(cfg.base_seed + trial)
        d_true, paths = cfg.ensemble.draw(cells[0][2].carrier_freq, rng_chan)
        row = []
        for idx, (_, _, wf) in enumerate(cells):
            rng_noise = np.random.default_rng(
                np.random.SeedSequence((cfg.base_seed, trial, idx))
            )
            try:
                err = ranging_error_trial(wf, d_true, paths, rng_noise)
            except DetectionFailure:
                err = math.nan
            row.append(err)
        return row

    rows = np.array(_map_indexed(one_trial, cfg.trials))
    errors = {
        (scheme, df): rows[:, idx] for idx, (scheme, df, _) in enumerate(cells)
    }
    return WaveformComparison(
        spacings_hz=cfg.spacings_hz,
        trials=cfg.trials,
        errors=errors,
        histogram=cfg.histogram,
    )


# ---------------------------------------------------------------------------
# Output files


def write_report_csv(report: MetricsReport, path) -> None:
    lines = ["scenario,run,true_x,true_y,true_z,est_x,est_y,est_z,err_m,residual,converged,n_alternates"]
    truth = ",".join(_fmt(v) for v in report.true_pos.as_array())
    for run, err in enumerate(report.errors):
        est = ",".join(_fmt(v) for v in report.est[run])
        lines.append(
            f"{report.scenario},{run},{truth},{est},{_fmt(err)},{_fmt(report.residual[run])},"
            f"{int(report.converged[run])},{report.n_alternates[run]}"
        )
    _write_lines(path, lines)


def write_summary_json(report: MetricsReport, path) -> None:
    counts, overflow = report.histogram.counts(report.errors)
    payload = {
        "version": 1,
        "scenario": report.scenario,
        "runs": len(report.est),
        "final_error_m": report.stats(),
        "convergence_rate": report.convergence_rate,
        "per_revolution_median_error_m": np.median(report.rev_errors, axis=0).tolist(),
        "histogram": {
            "bin_width_m": report.histogram.bin_width_m,
            "max_m": report.histogram.max_m,
            "counts": counts,
            "overflow": overflow,
        },
    }
    _write_json(path, payload)


def write_waveform_errors_csv(cmp: WaveformComparison, path) -> None:
    lines = ["trial,scheme,delta_f_hz,error_m"]
    for (scheme, df), err in sorted(cmp.errors.items()):
        for trial in range(err.size):
            if np.isfinite(err[trial]):
                lines.append(f"{trial},{scheme},{_fmt(df)},{_fmt(err[trial])}")
    _write_lines(path, lines)


def write_waveform_censored_csv(cmp: WaveformComparison, path) -> None:
    lines = ["trial,scheme,delta_f_hz"]
    for (scheme, df), err in sorted(cmp.errors.items()):
        for trial in range(err.size):
            if not np.isfinite(err[trial]):
                lines.append(f"{trial},{scheme},{_fmt(df)}")
    _write_lines(path, lines)


def write_waveform_hist_csv(cmp: WaveformComparison, path) -> None:
    spec = cmp.histogram
    edges = spec.edges()
    lines = ["scheme,delta_f_hz,bin_left_m,bin_right_m,density"]
    for (scheme, df), err in sorted(cmp.errors.items()):
        counts, _ = spec.counts(err)
        total = max(int(np.isfinite(err).sum()), 1)
        for b, count in enumerate(counts):
            density = count / (total * spec.bin_width_m)
            lines.append(
                f"{scheme},{_fmt(df)},{_fmt(edges[b])},{_fmt(edges[b + 1])},{_fmt(density)}"
            )
    _write_lines(path, lines)


def _finite_or_null(v):
    # Strict JSON has no NaN or Infinity: a statistic with no data is null.
    return v if not isinstance(v, float) or math.isfinite(v) else None


def write_comparison_json(cmp: WaveformComparison, path) -> None:
    payload = {
        "version": 1,
        "trials": cmp.trials,
        "cells": [
            {k: _finite_or_null(v) for k, v in row.items()} for row in cmp.cell_stats()
        ],
        "otfs_over_ofdm_mean_ratio": {
            _fmt(df): _finite_or_null(ratio) for df, ratio in cmp.improvement_ratios().items()
        },
    }
    _write_json(path, payload)


def write_crlb_json(result: CrlbResult, path) -> None:
    payload = {
        "version": 1,
        "covariance_m2": result.cov.tolist(),
        "trace_m2": result.trace,
        "rms_m": math.sqrt(result.trace),
        "rank": result.rank,
        "rank_deficient": result.rank_deficient,
    }
    _write_json(path, payload)


def export_scenario_dataset(cfg: ScenarioConfig, path) -> int:
    """Run the measurement phase once and export the matrix dataset."""
    matrices = scenario_matrices(cfg)
    export_dataset(matrices, path)
    return len(matrices)
