"""Scenario configuration, Monte-Carlo execution, metrics, and file outputs.

Configs are versioned JSON; every field is validated and unknown fields are
rejected with their path so typos never pass silently. All randomness is
derived from (base_seed, run index, revolution index), which makes every
output artifact a pure function of the config plus CLI flags. Wall-clock
runtime is reported on the console only, never in output files.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._kernels import problems_per_call
from .geometry import (
    CircularTrajectory,
    LinearTrajectory,
    Position3,
    TrajectorySpec,
    WaypointSeries,
    constant_series,
    distance,
    revolution_period,
    sample_trajectory,
)
from .localization import SolveOptions, pseudo_multilaterate_static_batch
from .ranging import (
    NoiseModel,
    Obstacle,
    RangeMeasurement,
    _fmt,
    build_measurement_matrix,
    collect_measurements,
    export_dataset,
    los_blocked,
)
from .relocation import RelocationPolicy, predict_target, relocate
from .waveform import (
    DetectionFailure,
    NlosEnsemble,
    WaveformConfig,
    apply_channel,
    estimate_toa,
    make_pilot,
    toa_to_distance,
)

__all__ = [
    "ConfigError",
    "StaticTarget",
    "LinearTarget",
    "HistogramSpec",
    "WaveformRanging",
    "ScenarioConfig",
    "RunRecord",
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
]


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending field."""


# ---------------------------------------------------------------------------
# Scenario model


@dataclass(frozen=True)
class StaticTarget:
    position: Position3

    def series_at(self, t: np.ndarray) -> WaypointSeries:
        return constant_series(t, self.position)

    def position_at(self, t: float) -> Position3:
        return self.position


@dataclass(frozen=True)
class LinearTarget:
    start: Position3
    velocity: Position3

    def series_at(self, t: np.ndarray) -> WaypointSeries:
        p = self.start.as_array()[None, :] + t[:, None] * self.velocity.as_array()[None, :]
        return WaypointSeries(t, p)

    def position_at(self, t: float) -> Position3:
        return Position3.from_array(self.start.as_array() + t * self.velocity.as_array())


@dataclass(frozen=True)
class HistogramSpec:
    bin_width_m: float = 0.5
    max_m: float = 100.0

    def __post_init__(self):
        if self.bin_width_m <= 0 or self.max_m <= 0:
            raise ValueError("histogram bin width and range must be > 0")

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
    ensemble: NlosEnsemble


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    trajectory: TrajectorySpec
    dt: float
    target: StaticTarget | LinearTarget
    obstacles: tuple[Obstacle, ...]
    noise: NoiseModel | WaveformRanging
    n_revolutions: int
    relocation: RelocationPolicy | None
    runs: int
    base_seed: int
    solver: SolveOptions
    histogram: HistogramSpec
    samples_per_revolution: int | None = None

    def samples_per_rev(self, spec: TrajectorySpec) -> int:
        if self.samples_per_revolution is not None:
            return self.samples_per_revolution
        period = revolution_period(spec)
        s = int(round(period / self.dt))
        if s < 3:
            raise ConfigError("dt too coarse: fewer than 3 samples per revolution")
        return s


@dataclass(frozen=True)
class RunRecord:
    run: int
    true_pos: Position3
    est: Position3
    err_m: float
    residual: float
    converged: bool
    n_alternates: int
    rev_errors: tuple[float, ...]


@dataclass(frozen=True)
class MetricsReport:
    scenario: str
    records: tuple[RunRecord, ...]
    histogram: HistogramSpec
    runtime_s: float

    @property
    def errors(self) -> np.ndarray:
        return np.array([r.err_m for r in self.records])

    @property
    def rev_errors(self) -> np.ndarray:
        return np.array([r.rev_errors for r in self.records])

    @property
    def convergence_rate(self) -> float:
        return float(np.mean([1.0 if r.converged else 0.0 for r in self.records]))

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
# Config parsing: explicit walk, unknown fields rejected with their path.


def _take(d: dict, key: str, path: str, required: bool = True, default=None):
    if key not in d:
        if required:
            raise ConfigError(f"missing field {_join(path, key)}")
        return default
    return d.pop(key)

def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _done(d: dict, path: str) -> None:
    if d:
        raise ConfigError(f"unknown field {_join(path, sorted(d)[0])}")


def _as_number(v, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"field {path} must be a number")
    return float(v)


def _as_int(v, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"field {path} must be an integer")
    return v


def _as_vec3(v, path: str) -> Position3:
    if not isinstance(v, list) or len(v) != 3:
        raise ConfigError(f"field {path} must be a [x, y, z] triple")
    return Position3(*(_as_number(c, f"{path}[{i}]") for i, c in enumerate(v)))


def _as_dict(v, path: str) -> dict:
    if not isinstance(v, dict):
        raise ConfigError(f"field {path} must be an object")
    return dict(v)


def _check_version(d: dict, path: str = "") -> None:
    version = _take(d, "version", path)
    if version != 1:
        raise ConfigError(f"unsupported config version {version!r} (expected 1)")


def _parse_trajectory(v, path: str) -> TrajectorySpec:
    d = _as_dict(v, path)
    kind = _take(d, "kind", path)
    try:
        if kind == "circular":
            spec = CircularTrajectory(
                center=_as_vec3(_take(d, "center", path), _join(path, "center")),
                radius=_as_number(_take(d, "radius", path), _join(path, "radius")),
                angular_speed=_as_number(
                    _take(d, "angular_speed", path), _join(path, "angular_speed")
                ),
                phase0=_as_number(_take(d, "phase0", path, False, 0.0), _join(path, "phase0")),
            )
        elif kind == "linear":
            spec = LinearTrajectory(
                start=_as_vec3(_take(d, "start", path), _join(path, "start")),
                velocity=_as_vec3(_take(d, "velocity", path), _join(path, "velocity")),
            )
        else:
            raise ConfigError(f"field {_join(path, 'kind')} must be 'circular' or 'linear'")
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"field {path}: {e}") from e
    _done(d, path)
    return spec


def _parse_target(v, path: str):
    d = _as_dict(v, path)
    kind = _take(d, "kind", path)
    try:
        if kind == "static":
            out = StaticTarget(_as_vec3(_take(d, "position", path), _join(path, "position")))
        elif kind == "linear":
            out = LinearTarget(
                start=_as_vec3(_take(d, "start", path), _join(path, "start")),
                velocity=_as_vec3(_take(d, "velocity", path), _join(path, "velocity")),
            )
        else:
            raise ConfigError(f"field {_join(path, 'kind')} must be 'static' or 'linear'")
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"field {path}: {e}") from e
    _done(d, path)
    return out


def _parse_obstacles(v, path: str) -> tuple[Obstacle, ...]:
    if v is None:
        return ()
    if not isinstance(v, list):
        raise ConfigError(f"field {path} must be a list")
    out = []
    for i, item in enumerate(v):
        d = _as_dict(item, f"{path}[{i}]")
        try:
            out.append(
                Obstacle(
                    min_corner=_as_vec3(_take(d, "min", f"{path}[{i}]"), f"{path}[{i}].min"),
                    max_corner=_as_vec3(_take(d, "max", f"{path}[{i}]"), f"{path}[{i}].max"),
                )
            )
        except ConfigError:
            raise
        except ValueError as e:
            raise ConfigError(f"field {path}[{i}]: {e}") from e
        _done(d, f"{path}[{i}]")
    return tuple(out)


def _parse_waveform(v, path: str, scheme: str | None = None) -> WaveformConfig:
    d = _as_dict(v, path)
    if scheme is None:
        scheme = _take(d, "scheme", path)
    elif "scheme" in d:
        raise ConfigError(f"field {_join(path, 'scheme')} is set by the comparison grid")
    try:
        cfg = WaveformConfig(
            scheme=scheme,
            n_subcarriers=_as_int(_take(d, "n_subcarriers", path, False, 256), _join(path, "n_subcarriers")),
            n_symbols=_as_int(_take(d, "n_symbols", path, False, 32), _join(path, "n_symbols")),
            subcarrier_spacing=_as_number(
                _take(d, "subcarrier_spacing_hz", path, False, 30e3),
                _join(path, "subcarrier_spacing_hz"),
            ),
            carrier_freq=_as_number(
                _take(d, "carrier_freq_hz", path, False, 28e9), _join(path, "carrier_freq_hz")
            ),
            cp_fraction=_as_number(
                _take(d, "cp_fraction", path, False, 1.0 / 16.0), _join(path, "cp_fraction")
            ),
            oversample=_as_int(_take(d, "oversample", path, False, 1), _join(path, "oversample")),
            threshold_db=_as_number(
                _take(d, "threshold_db", path, False, 6.0), _join(path, "threshold_db")
            ),
        )
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"field {path}: {e}") from e
    _done(d, path)
    return cfg


def _parse_ensemble(v, path: str) -> NlosEnsemble:
    d = _as_dict(v, path)
    kwargs = {}
    fields = {
        "n_paths_min": _as_int,
        "n_paths_max": _as_int,
        "excess_mean_m": _as_number,
        "power_decay_m": _as_number,
        "speed_mps": _as_number,
        "snr_db": _as_number,
        "d_min_m": _as_number,
        "d_max_m": _as_number,
    }
    for name, conv in fields.items():
        if name in d:
            kwargs[name] = conv(d.pop(name), _join(path, name))
    _done(d, path)
    try:
        return NlosEnsemble(**kwargs)
    except ValueError as e:
        raise ConfigError(f"field {path}: {e}") from e


def _parse_noise(v, path: str):
    d = _as_dict(v, path)
    kind = _take(d, "kind", path)
    if kind == "statistical":
        try:
            model = NoiseModel(
                sigma0=_as_number(_take(d, "sigma0", path, False, 1.0), _join(path, "sigma0")),
                eta=_as_number(_take(d, "eta", path, False, 0.01), _join(path, "eta")),
                nlos_bias_mean=_as_number(
                    _take(d, "nlos_bias_mean", path, False, 5.0), _join(path, "nlos_bias_mean")
                ),
                seed=0,
            )
        except ConfigError:
            raise
        except ValueError as e:
            raise ConfigError(f"field {path}: {e}") from e
        _done(d, path)
        return model
    if kind == "waveform":
        wf = _parse_waveform(_take(d, "waveform", path), _join(path, "waveform"))
        ens = _parse_ensemble(_take(d, "ensemble", path, False, {}), _join(path, "ensemble"))
        _done(d, path)
        return WaveformRanging(waveform=wf, ensemble=ens)
    raise ConfigError(f"field {_join(path, 'kind')} must be 'statistical' or 'waveform'")


def _parse_relocation(v, path: str) -> RelocationPolicy | None:
    if v is None:
        return None
    d = _as_dict(v, path)
    try:
        policy = RelocationPolicy(
            min_radius=_as_number(_take(d, "min_radius", path), _join(path, "min_radius")),
            shrink_factor=_as_number(_take(d, "shrink_factor", path), _join(path, "shrink_factor")),
            max_center_step=_as_number(
                _take(d, "max_center_step", path), _join(path, "max_center_step")
            ),
            altitude=_as_number(_take(d, "altitude", path), _join(path, "altitude")),
        )
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"field {path}: {e}") from e
    _done(d, path)
    return policy


def _parse_bounds(v, path: str):
    if not isinstance(v, list) or len(v) != 3:
        raise ConfigError(f"field {path} must be three [lo, hi] pairs")
    out = []
    for i, pair in enumerate(v):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"field {path}[{i}] must be a [lo, hi] pair")
        out.append(
            (
                _as_number(pair[0], f"{path}[{i}][0]"),
                _as_number(pair[1], f"{path}[{i}][1]"),
            )
        )
    return tuple(out)


def _parse_solver(v, path: str, bounds) -> SolveOptions:
    d = _as_dict(v, path) if v is not None else {}
    kwargs = {}
    if "max_iter" in d:
        kwargs["max_iter"] = _as_int(d.pop("max_iter"), _join(path, "max_iter"))
    for name in ("grad_tol", "step_tol", "damping0"):
        if name in d:
            kwargs[name] = _as_number(d.pop(name), _join(path, name))
    if "multistart_grid" in d:
        g = d.pop("multistart_grid")
        if not isinstance(g, list) or len(g) != 3:
            raise ConfigError(f"field {_join(path, 'multistart_grid')} must be three integers")
        kwargs["multistart_grid"] = tuple(
            _as_int(x, f"{_join(path, 'multistart_grid')}[{i}]") for i, x in enumerate(g)
        )
    _done(d, path)
    if bounds is not None:
        kwargs["bounds"] = bounds
    try:
        return SolveOptions(**kwargs)
    except ValueError as e:
        raise ConfigError(f"field {path}: {e}") from e


def _parse_histogram(v, path: str) -> HistogramSpec:
    d = _as_dict(v, path) if v is not None else {}
    kwargs = {}
    for name in ("bin_width_m", "max_m"):
        if name in d:
            kwargs[name] = _as_number(d.pop(name), _join(path, name))
    _done(d, path)
    try:
        return HistogramSpec(**kwargs)
    except ValueError as e:
        raise ConfigError(f"field {path}: {e}") from e


def parse_scenario_config(raw: dict) -> ScenarioConfig:
    d = dict(raw)
    _check_version(d)
    name = _take(d, "name", "", False, "scenario")
    if not isinstance(name, str):
        raise ConfigError("field name must be a string")
    trajectory = _parse_trajectory(_take(d, "trajectory", ""), "trajectory")
    dt = _as_number(_take(d, "dt", ""), "dt")
    if dt <= 0:
        raise ConfigError("field dt must be > 0")
    samples = _take(d, "samples_per_revolution", "", False)
    if samples is not None:
        samples = _as_int(samples, "samples_per_revolution")
        if samples < 3:
            raise ConfigError("field samples_per_revolution must be >= 3")
    if isinstance(trajectory, LinearTrajectory) and samples is None:
        raise ConfigError("field samples_per_revolution is required for linear trajectories")
    target = _parse_target(_take(d, "target", ""), "target")
    obstacles = _parse_obstacles(_take(d, "obstacles", "", False), "obstacles")
    noise = _parse_noise(_take(d, "noise", ""), "noise")
    n_revolutions = _as_int(_take(d, "n_revolutions", "", False, 1), "n_revolutions")
    if n_revolutions < 1:
        raise ConfigError("field n_revolutions must be >= 1")
    relocation = _parse_relocation(_take(d, "relocation", "", False), "relocation")
    if relocation is not None and not isinstance(trajectory, CircularTrajectory):
        raise ConfigError("field relocation requires a circular trajectory")
    runs = _as_int(_take(d, "runs", "", False, 1), "runs")
    if runs < 1:
        raise ConfigError("field runs must be >= 1")
    base_seed = _as_int(_take(d, "base_seed", "", False, 0), "base_seed")
    bounds = d.pop("bounds", None)
    bounds = _parse_bounds(bounds, "bounds") if bounds is not None else None
    solver = _parse_solver(d.pop("solver", None), "solver", bounds)
    histogram = _parse_histogram(d.pop("histogram", None), "histogram")
    _done(d, "")
    return ScenarioConfig(
        name=name,
        trajectory=trajectory,
        dt=dt,
        target=target,
        obstacles=obstacles,
        noise=noise,
        n_revolutions=n_revolutions,
        relocation=relocation,
        runs=runs,
        base_seed=base_seed,
        solver=solver,
        histogram=histogram,
        samples_per_revolution=samples,
    )


@dataclass(frozen=True)
class CompareConfig:
    name: str
    spacings_hz: tuple[float, ...]
    waveform: dict  # base kwargs without scheme/spacing
    ensemble: NlosEnsemble
    trials: int
    base_seed: int
    histogram: HistogramSpec


def parse_compare_config(raw: dict) -> CompareConfig:
    d = dict(raw)
    _check_version(d)
    name = _take(d, "name", "", False, "comparison")
    spacings = _take(d, "spacings_hz", "", False, [30e3, 120e3])
    if not isinstance(spacings, list) or not spacings:
        raise ConfigError("field spacings_hz must be a nonempty list")
    spacings = tuple(_as_number(s, f"spacings_hz[{i}]") for i, s in enumerate(spacings))
    wf_raw = _as_dict(_take(d, "waveform", "", False, {}), "waveform")
    if "subcarrier_spacing_hz" in wf_raw:
        raise ConfigError("field waveform.subcarrier_spacing_hz is set by spacings_hz")
    # Validate via a throwaway config; spacing/scheme are grid dimensions.
    probe = _parse_waveform(dict(wf_raw), "waveform", scheme="ofdm")
    base = {
        "n_subcarriers": probe.n_subcarriers,
        "n_symbols": probe.n_symbols,
        "carrier_freq": probe.carrier_freq,
        "cp_fraction": probe.cp_fraction,
        "oversample": probe.oversample,
        "threshold_db": probe.threshold_db,
    }
    ensemble = _parse_ensemble(_take(d, "ensemble", "", False, {}), "ensemble")
    trials = _as_int(_take(d, "trials", "", False, 5000), "trials")
    if trials < 1:
        raise ConfigError("field trials must be >= 1")
    base_seed = _as_int(_take(d, "base_seed", "", False, 0), "base_seed")
    histogram = _parse_histogram(d.pop("histogram", None), "histogram")
    _done(d, "")
    return CompareConfig(
        name=name,
        spacings_hz=spacings,
        waveform=base,
        ensemble=ensemble,
        trials=trials,
        base_seed=base_seed,
        histogram=histogram,
    )


def parse_crlb_config(raw: dict):
    d = dict(raw)
    _check_version(d)
    anchors_raw = _take(d, "anchors", "")
    if not isinstance(anchors_raw, list) or len(anchors_raw) < 3:
        raise ConfigError("field anchors must list at least 3 positions")
    anchors = [_as_vec3(a, f"anchors[{i}]") for i, a in enumerate(anchors_raw)]
    target = _as_vec3(_take(d, "target", ""), "target")
    sig = _as_dict(_take(d, "sigma", "", False, {}), "sigma")
    sigma0 = _as_number(sig.pop("sigma0", 1.0), "sigma.sigma0")
    eta = _as_number(sig.pop("eta", 0.0), "sigma.eta")
    _done(sig, "sigma")
    _done(d, "")
    # Same domain as NoiseModel: both terms nonnegative, the std positive.
    if sigma0 < 0:
        raise ConfigError("field sigma.sigma0 must be >= 0")
    if eta < 0:
        raise ConfigError("field sigma.eta must be >= 0")
    if sigma0 == 0 and eta == 0:
        raise ConfigError("field sigma must give a positive std")
    return anchors, target, (lambda dist: sigma0 + eta * dist)


# ---------------------------------------------------------------------------
# Execution


def _worker_count() -> int:
    raw = os.environ.get("PSEUDOLAT_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise RuntimeError(f"PSEUDOLAT_THREADS must be an integer, got {raw!r}")
    return max(1, n)


def _map_indexed(fn, n: int) -> list:
    workers = _worker_count()
    if workers <= 1 or n <= 1:
        return [fn(i) for i in range(n)]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, range(n)))


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


def _collect_waveform_backed(
    anchor_path: WaypointSeries,
    target_path: WaypointSeries,
    obstacles,
    backend: WaveformRanging,
    seed: int,
) -> list[RangeMeasurement]:
    rng = np.random.default_rng(seed)
    cfg = backend.waveform
    pilot = make_pilot(cfg)
    out = []
    for k in range(len(anchor_path)):
        anchor = anchor_path.position(k)
        target = target_path.position(k)
        d_true = float(np.linalg.norm(anchor_path.p[k] - target_path.p[k]))
        los = not los_blocked(anchor, target, obstacles)
        paths = backend.ensemble.draw_paths(d_true, cfg.carrier_freq, rng, los=los)
        received = apply_channel(pilot, paths, cfg, rng)
        d_meas = toa_to_distance(estimate_toa(received, cfg))
        out.append(RangeMeasurement(float(anchor_path.t[k]), anchor, d_meas, los))
    return out


def _collect(cfg: ScenarioConfig, anchor_path: WaypointSeries, seed: int) -> list[RangeMeasurement]:
    target_path = cfg.target.series_at(anchor_path.t)
    if isinstance(cfg.noise, NoiseModel):
        model = dataclasses.replace(cfg.noise, seed=seed)
        return collect_measurements(anchor_path, target_path, cfg.obstacles, model)
    return _collect_waveform_backed(anchor_path, target_path, cfg.obstacles, cfg.noise, seed)


@dataclass
class _RunState:
    """One Monte-Carlo run between revolutions."""

    spec: TrajectorySpec
    t_cursor: float = 0.0
    hist_t: list = dataclasses.field(default_factory=list)
    hist_p: list = dataclasses.field(default_factory=list)
    rev_errors: list = dataclasses.field(default_factory=list)


def run_scenario(cfg: ScenarioConfig) -> MetricsReport:
    """Execute all Monte-Carlo runs of a scenario and aggregate metrics.

    All runs advance through each revolution together: every run ranges the
    target along its own path with its own (base_seed, run, revolution)
    seed, the runs are solved in blocks of one capped kernel call each, and
    under a relocation policy each run then re-centres its circle.
    """
    start = time.perf_counter()
    states = [_RunState(cfg.trajectory) for _ in range(cfg.runs)]
    per_call = problems_per_call(len(cfg.solver.start_points()))
    blocks = [range(b, min(b + per_call, cfg.runs)) for b in range(0, cfg.runs, per_call)]
    for rev in range(cfg.n_revolutions):

        def measure(run: int):
            st = states[run]
            n_samples = cfg.samples_per_rev(st.spec)
            anchor_path = sample_trajectory(st.spec, st.t_cursor, cfg.dt, n_samples)
            meas = _collect(cfg, anchor_path, _derived_seed(cfg.base_seed, run, rev))
            t_mid = 0.5 * float(anchor_path.t[0] + anchor_path.t[-1])
            return t_mid, anchor_path.p, np.array([m.d_meas for m in meas])

        ranged = _map_indexed(measure, cfg.runs)

        def solve(i: int):
            block = blocks[i]
            anchors = np.stack([ranged[run][1] for run in block])
            d = np.stack([ranged[run][2] for run in block])
            return pseudo_multilaterate_static_batch(anchors, d, cfg.solver)

        sols = [sol for block_sols in _map_indexed(solve, len(blocks)) for sol in block_sols]
        for run, (st, sol) in enumerate(zip(states, sols)):
            t_mid, anchor_p, _ = ranged[run]
            true_mid = cfg.target.position_at(t_mid)
            st.rev_errors.append(distance(sol.p_hat, true_mid))
            st.hist_t.append(t_mid)
            st.hist_p.append(sol.p_hat.as_array())
            if cfg.relocation is not None and rev < cfg.n_revolutions - 1:
                history = WaypointSeries(np.array(st.hist_t), np.array(st.hist_p))
                predicted = predict_target(history, horizon=revolution_period(st.spec))
                st.spec = relocate(st.spec, predicted, cfg.relocation)
            st.t_cursor += anchor_p.shape[0] * cfg.dt
    records = [
        RunRecord(
            run=run,
            true_pos=cfg.target.position_at(st.hist_t[-1]),
            est=sol.p_hat,
            err_m=st.rev_errors[-1],
            residual=sol.residual,
            converged=sol.converged,
            n_alternates=len(sol.alternates),
            rev_errors=tuple(st.rev_errors),
        )
        for run, (st, sol) in enumerate(zip(states, sols))
    ]
    runtime = time.perf_counter() - start
    return MetricsReport(
        scenario=cfg.name,
        records=tuple(records),
        histogram=cfg.histogram,
        runtime_s=runtime,
    )


def scenario_matrices(cfg: ScenarioConfig, run: int = 0):
    """Measurement matrices for dataset export (first run, no relocation).

    Labels carry the true target position at each revolution midpoint.
    """
    if not isinstance(cfg.trajectory, CircularTrajectory):
        raise ConfigError("dataset export requires a circular trajectory")
    spec = cfg.trajectory
    n_samples = cfg.samples_per_rev(spec)
    total = n_samples * cfg.n_revolutions
    anchor_path = sample_trajectory(spec, 0.0, cfg.dt, total)
    meas = _collect(cfg, anchor_path, _derived_seed(cfg.base_seed, run, 0))
    labels = [
        cfg.target.position_at(0.5 * cfg.dt * (r * n_samples + (r + 1) * n_samples - 1))
        for r in range(cfg.n_revolutions)
    ]
    return build_measurement_matrix(meas, spec, labels=labels)


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
        (scheme, df, WaveformConfig(scheme=scheme, subcarrier_spacing=df, **cfg.waveform))
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
                received = apply_channel(make_pilot(wf), paths, wf, rng_noise)
                err = abs(toa_to_distance(estimate_toa(received, wf)) - d_true)
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
    for r in report.records:
        lines.append(
            f"{report.scenario},{r.run},{_fmt(r.true_pos.x)},{_fmt(r.true_pos.y)},{_fmt(r.true_pos.z)},"
            f"{_fmt(r.est.x)},{_fmt(r.est.y)},{_fmt(r.est.z)},{_fmt(r.err_m)},{_fmt(r.residual)},"
            f"{int(r.converged)},{r.n_alternates}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_summary_json(report: MetricsReport, path) -> None:
    counts, overflow = report.histogram.counts(report.errors)
    rev = report.rev_errors
    payload = {
        "version": 1,
        "scenario": report.scenario,
        "runs": len(report.records),
        "final_error_m": report.stats(),
        "convergence_rate": report.convergence_rate,
        "per_revolution_median_error_m": [float(np.median(rev[:, j])) for j in range(rev.shape[1])],
        "histogram": {
            "bin_width_m": report.histogram.bin_width_m,
            "max_m": report.histogram.max_m,
            "counts": counts,
            "overflow": overflow,
        },
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_waveform_errors_csv(cmp: WaveformComparison, path) -> None:
    lines = ["trial,scheme,delta_f_hz,error_m"]
    for (scheme, df), err in sorted(cmp.errors.items()):
        for trial in range(err.size):
            if np.isfinite(err[trial]):
                lines.append(f"{trial},{scheme},{_fmt(df)},{_fmt(err[trial])}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_waveform_censored_csv(cmp: WaveformComparison, path) -> None:
    lines = ["trial,scheme,delta_f_hz"]
    for (scheme, df), err in sorted(cmp.errors.items()):
        for trial in range(err.size):
            if not np.isfinite(err[trial]):
                lines.append(f"{trial},{scheme},{_fmt(df)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_waveform_hist_csv(cmp: WaveformComparison, path) -> None:
    spec = cmp.histogram
    edges = spec.edges()
    lines = ["scheme,delta_f_hz,bin_left_m,bin_right_m,density"]
    for (scheme, df), err in sorted(cmp.errors.items()):
        ok = err[np.isfinite(err)]
        counts, _ = np.histogram(ok, bins=edges)
        total = max(int(ok.size), 1)
        for b in range(counts.size):
            density = counts[b] / (total * spec.bin_width_m)
            lines.append(
                f"{scheme},{_fmt(df)},{_fmt(edges[b])},{_fmt(edges[b + 1])},{_fmt(density)}"
            )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def export_scenario_dataset(cfg: ScenarioConfig, path) -> int:
    """Run the measurement phase once and export the matrix dataset."""
    matrices = scenario_matrices(cfg)
    if not matrices:
        raise ConfigError("scenario produced no complete revolution of measurements")
    export_dataset(matrices, path)
    return len(matrices)
