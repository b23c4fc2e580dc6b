"""Waveform-level time-of-arrival estimation for OFDM and OTFS pilots.

Both schemes share the same time-frequency resources (N subcarriers by M
symbols). The OFDM pilot is a known pseudo-random QPSK grid, one IFFT plus
cyclic prefix per symbol; the receiver averages the per-subcarrier channel
estimates coherently over the frame (the standard static-channel
estimator) and IFFTs them into a delay profile, so phase drift across
symbols - Doppler from anchor motion - eats directly into its integration
gain. The OTFS pilot is a single impulse in the delay-Doppler grid (the
rest of the grid is guard zeros), mapped to time-frequency with the
inverse symplectic Fourier transform; the receiver transforms back and
reads the channel response on the delay-Doppler plane, so the whole frame
integrates coherently per path even when paths carry distinct Doppler
shifts. That asymmetry is what the scheme comparison measures. In both
cases the earliest local peak within ``threshold_db`` of the strongest one
is taken as the first arrival and refined with a three-point parabolic
fit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "C_LIGHT",
    "WaveformConfig",
    "Path",
    "PathSet",
    "DetectionFailure",
    "NlosEnsemble",
    "isfft",
    "sfft",
    "make_pilot",
    "apply_channel",
    "estimate_toa",
    "ranging_error_trial",
]

C_LIGHT = 299_792_458.0


@dataclass(frozen=True)
class WaveformConfig:
    """Numerology shared by transmitter and receiver."""

    scheme: str  # "ofdm" | "otfs"
    n_subcarriers: int = 256
    n_symbols: int = 32
    subcarrier_spacing: float = 30e3
    carrier_freq: float = 28e9
    cp_fraction: float = 1.0 / 16.0
    oversample: int = 1
    threshold_db: float = 6.0  # first-arrival gate below the global peak

    def __post_init__(self):
        if self.scheme not in ("ofdm", "otfs"):
            raise ValueError(f"scheme must be 'ofdm' or 'otfs', got {self.scheme!r}")
        n = self.n_subcarriers
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError(f"n_subcarriers must be a power of two >= 2, got {n}")
        if self.n_symbols < 1:
            raise ValueError("n_symbols must be >= 1")
        if self.subcarrier_spacing <= 0 or self.carrier_freq <= 0:
            raise ValueError("subcarrier_spacing and carrier_freq must be > 0")
        if not (0.0 <= self.cp_fraction < 1.0):
            raise ValueError("cp_fraction must lie in [0, 1)")
        if self.oversample < 1:
            raise ValueError("oversample must be >= 1")
        if self.threshold_db <= 0:
            raise ValueError("threshold_db must be > 0")

    @property
    def sample_rate(self) -> float:
        return self.n_subcarriers * self.subcarrier_spacing * self.oversample

    @property
    def fft_size(self) -> int:
        return self.n_subcarriers * self.oversample

    @property
    def cp_len(self) -> int:
        if self.scheme != "ofdm":
            return 0
        return int(round(self.cp_fraction * self.fft_size))

    @property
    def symbol_samples(self) -> int:
        return self.fft_size + self.cp_len

    @property
    def frame_samples(self) -> int:
        return self.n_symbols * self.symbol_samples

    @property
    def delay_bin_s(self) -> float:
        """Delay-profile bin width: one subcarrier-rate sample."""
        return 1.0 / (self.n_subcarriers * self.subcarrier_spacing)


@dataclass(frozen=True)
class Path:
    delay: float  # seconds
    doppler: float  # Hz
    gain: complex

    def __post_init__(self):
        if self.delay < 0:
            raise ValueError(f"path delay must be >= 0, got {self.delay}")


@dataclass(frozen=True)
class PathSet:
    """Sparse multipath channel plus the noise level.

    ``snr_db`` is measured against the mean received signal power;
    ``math.inf`` disables noise.
    """

    paths: tuple[Path, ...]
    snr_db: float = math.inf

    def __post_init__(self):
        if not self.paths:
            raise ValueError("PathSet must contain at least one path")
        if not any(abs(p.gain) > 0 for p in self.paths):
            raise ValueError("PathSet needs at least one path with nonzero gain")

    @property
    def first_arrival(self) -> float:
        return min(p.delay for p in self.paths if abs(p.gain) > 0)


class DetectionFailure(RuntimeError):
    """No usable first-arrival peak in the delay profile."""


def _subcarrier_bins(n: int, fft_size: int) -> np.ndarray:
    # Subcarrier i sits at centered frequency index i (i < n/2) or i - n.
    nu = np.arange(n)
    nu = np.where(nu < n // 2, nu, nu - n)
    return np.mod(nu, fft_size)


def isfft(x_dd: np.ndarray) -> np.ndarray:
    """Delay-Doppler grid (N, M) -> time-frequency grid (N, M), unitary."""
    return np.fft.fft(np.fft.ifft(x_dd, axis=1, norm="ortho"), axis=0, norm="ortho")


def sfft(x_tf: np.ndarray) -> np.ndarray:
    """Time-frequency grid (N, M) -> delay-Doppler grid (N, M), unitary."""
    x_dd = np.fft.ifft(x_tf, axis=0, norm="ortho")
    return np.fft.fft(x_dd, axis=1, norm="ortho", out=x_dd)


@functools.lru_cache(maxsize=32)
def _qpsk_grid(n: int, m: int) -> np.ndarray:
    # Known at both ends; fixed seed so any config with the same grid shape
    # regenerates the identical pilot.
    rng = np.random.default_rng(0x0FD1)
    bits = rng.integers(0, 4, size=(n, m))
    grid = np.exp(1j * (np.pi / 4.0 + np.pi / 2.0 * bits))
    grid.setflags(write=False)
    return grid


def _tf_to_time(x_tf: np.ndarray, cfg: WaveformConfig) -> np.ndarray:
    """Per-symbol IFFT with optional oversampled spectrum placement and CP."""
    n, m = x_tf.shape
    bins = _subcarrier_bins(n, cfg.fft_size)
    spectra = np.zeros((cfg.fft_size, m), dtype=np.complex128)
    spectra[bins, :] = x_tf
    syms = np.fft.ifft(spectra, axis=0, norm="ortho")  # (fft_size, m)
    cp = cfg.cp_len
    if cp:
        syms = np.concatenate([syms[-cp:, :], syms], axis=0)
    return np.ascontiguousarray(syms.T.reshape(-1))


@functools.lru_cache(maxsize=32)
def make_pilot(cfg: WaveformConfig) -> np.ndarray:
    """Deterministic transmit pilot for the configured scheme."""
    n, m = cfg.n_subcarriers, cfg.n_symbols
    if cfg.scheme == "ofdm":
        x_tf = _qpsk_grid(n, m)
    else:
        x_dd = np.zeros((n, m), dtype=np.complex128)
        x_dd[0, 0] = 1.0
        x_tf = isfft(x_dd)
    sig = _tf_to_time(np.asarray(x_tf), cfg)
    sig.setflags(write=False)
    return sig


@functools.lru_cache(maxsize=1024)
def _next_fast_len(n: int) -> int:
    # Smallest 5-smooth length >= n keeps the channel FFTs fast.
    best = 1
    while best < n:
        best *= 2
    p3 = 1
    while p3 < best:
        p35 = p3
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            if m < best:
                best = m
            p35 *= 5
        p3 *= 3
    return best


@functools.lru_cache(maxsize=64)
def _pilot_spectrum(cfg: WaveformConfig, total: int) -> np.ndarray:
    spec = np.fft.fft(make_pilot(cfg), total)
    spec.setflags(write=False)
    return spec


def _ramp_tables(theta0, w: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tables of the phase ramps exp(j (theta0_i + w_i k)), k < n, one row per w_i.

    With b = isqrt(n) and k = b q + r a ramp is the outer product of
    hi_i[q] = exp(j (theta0_i + w_i b q)) and lo_i[r] = exp(j w_i r), so all
    rows cost two np.exp calls of O(sqrt(n)) terms each instead of n
    exponentials per ramp. ``theta0`` is a scalar or a (rows, 1) array.
    """
    b = max(1, math.isqrt(n))
    q = -(-n // b)
    w = w[:, None]
    lo = np.exp(1j * w * np.arange(b))
    hi = np.exp(1j * (theta0 + w * b * np.arange(q)))
    return hi, lo


def _ramp_into(out: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Write the flattened outer product of one table row pair to the head of ``out``."""
    np.multiply(hi[:, None], lo, out=out[: hi.size * lo.size].reshape(hi.size, lo.size))
    return out


def _frame_length(n_signal: int, paths: PathSet, cfg: WaveformConfig) -> int:
    """Samples ``apply_channel`` returns for a signal of ``n_signal`` samples:
    the signal, its longest path delay and 16 more, rounded up to a fast FFT
    length. A path delayed by a whole symbol or more raises ValueError."""
    longest = max(p.delay * cfg.sample_rate for p in paths.paths)
    if longest >= cfg.fft_size:
        raise ValueError("path delay exceeds one symbol duration")
    return _next_fast_len(n_signal + int(np.ceil(longest)) + 16)


def apply_channel(
    signal: np.ndarray,
    paths: PathSet,
    cfg: WaveformConfig,
    rng: np.random.Generator | np.ndarray | None,
) -> np.ndarray:
    """Propagate through y(t) = sum_i g_i x(t - tau_i) e^{j 2 pi nu_i t} + AWGN.

    Fractional delays use exact band-limited (FFT phase-ramp) interpolation;
    integer delays are applied as exact sample shifts. The output is padded
    past the input to ``_frame_length`` samples so delayed energy is kept.

    The noise is 2 * ``_frame_length`` standard normals, real parts first,
    scaled to ``paths.snr_db`` below the noiseless output's mean power.
    ``rng`` draws them once the channel is synthesised; a caller that must
    draw before synthesis (to keep one generator's order across threads)
    passes the drawn normals instead, which are scaled in place. No noise is
    drawn or added at infinite SNR or on an all-zero channel.
    """
    x = np.asarray(signal, dtype=np.complex128)
    fs = cfg.sample_rate
    delays_samp = [p.delay * fs for p in paths.paths]
    total = _frame_length(x.size, paths, cfg)
    n_pos = (total - 1) // 2 + 1  # bins of fftfreq's non-negative half
    shifts = [int(round(a)) for a in delays_samp]
    whole = [abs(a - ai) < 1e-9 for a, ai in zip(delays_samp, shifts)]
    # every path's ramp tables at once; each ramp is then written in place
    # bin k carries frequency k fs / total below n_pos, (k - total) fs / total from it
    w = -2.0 * np.pi * np.array([a for a, s in zip(delays_samp, whole) if not s]) / total
    pos = zip(*_ramp_tables(0.0, w, n_pos))
    neg = zip(*_ramp_tables((w * (n_pos - total))[:, None], w, total - n_pos))
    nu = np.array([p.doppler for p in paths.paths if p.doppler != 0.0])
    rot = zip(*_ramp_tables(0.0, 2.0 * np.pi * nu / fs, total))
    if not all(whole):
        spectrum = _pilot_spectrum(cfg, total) if signal is make_pilot(cfg) else np.fft.fft(x, total)
    y = np.zeros(total, dtype=np.complex128)
    buf = np.empty(total, dtype=np.complex128)  # one path at a time, reused
    scratch = np.empty(total + math.isqrt(total) + 1, dtype=np.complex128)  # one ramp at a time
    for p, ai, is_whole in zip(paths.paths, shifts, whole):
        if is_whole:
            buf.fill(0.0)
            buf[ai : ai + x.size] = x
        else:
            np.multiply(_ramp_into(scratch, *next(pos))[:n_pos], spectrum[:n_pos], out=buf[:n_pos])
            np.multiply(_ramp_into(scratch, *next(neg))[: total - n_pos], spectrum[n_pos:], out=buf[n_pos:])
            np.fft.ifft(buf, out=buf)
        if p.doppler != 0.0:
            buf *= _ramp_into(scratch, *next(rot))[:total]
        # gain on the left: buf * gain rounds differently in the last bit
        np.multiply(p.gain, buf, out=buf)
        y += buf
    del buf, scratch  # the noise draw below then adds to y alone
    if math.isfinite(paths.snr_db):
        power = float(np.mean(np.abs(y) ** 2))
        if power > 0:
            sigma2 = power * 10.0 ** (-paths.snr_db / 10.0)
            # one draw of 2 * total is the same stream as two draws of total
            z = rng if isinstance(rng, np.ndarray) else rng.standard_normal(2 * total)
            z *= math.sqrt(sigma2 / 2.0)
            y.real += z[:total]
            y.imag += z[total:]
    return y


def _delay_profile(received: np.ndarray, cfg: WaveformConfig):
    """(delay, Doppler) magnitudes of the received frame: (n, 1) for OFDM,
    whose estimator averages Doppler out, and (n, m) for OTFS."""
    n, m = cfg.n_subcarriers, cfg.n_symbols
    hop = cfg.symbol_samples
    cp = cfg.cp_len
    if received.size < cfg.frame_samples:
        raise ValueError("received signal is shorter than one frame")

    segs = received[: m * hop].reshape(m, hop)[:, cp:]  # (m, fft_size) view
    y_tf = np.fft.fft(segs, axis=1, norm="ortho")
    if cfg.oversample != 1:  # otherwise bins is the identity
        y_tf = y_tf[:, _subcarrier_bins(n, cfg.fft_size)]
    y_tf = y_tf.T

    if cfg.scheme == "ofdm":
        # Static-channel estimator: per-resource estimates averaged
        # coherently over the frame, then one IFFT to the delay profile.
        # Cross-symbol phase drift (Doppler) eats into this average.
        h_freq = np.mean(y_tf * np.conj(_qpsk_grid(n, m)), axis=1)
        return np.abs(np.fft.ifft(h_freq, norm="ortho"))[:, None]
    return np.abs(sfft(y_tf))


def _pick_first_arrival(mag: np.ndarray, cfg: WaveformConfig) -> float:
    """Fractional delay bin of the first peak of the profile ``mag.max(axis=1)``,
    refined along delay at the Doppler bin that wins at that peak."""
    profile = mag.max(axis=1)
    n = profile.size
    peak = float(profile.max())
    if not np.isfinite(peak) or peak <= 0.0:
        raise DetectionFailure("delay profile has no positive peak")
    thr = peak * 10.0 ** (-cfg.threshold_db / 20.0)
    # The first candidate at least as high as both ring neighbours; threshold_db > 0
    # puts the global maximum among the candidates, so the scan always ends.
    i0 = next(
        i
        for i in np.flatnonzero(profile >= thr).tolist()
        if profile[i - 1] <= profile[i] >= profile[(i + 1) % n]
    )

    k0 = int(np.argmax(mag[i0]))
    v_m = float(mag[(i0 - 1) % n, k0])
    v_0 = float(mag[i0, k0])
    v_p = float(mag[(i0 + 1) % n, k0])
    denom = v_m - 2.0 * v_0 + v_p
    delta = 0.5 * (v_m - v_p) / denom if denom < 0 else 0.0
    delta = min(max(delta, -0.5), 0.5)
    return max(i0 + delta, 0.0)


def estimate_toa(received: np.ndarray, cfg: WaveformConfig) -> float:
    """First-arrival delay estimate (s, >= 0) from a received pilot frame."""
    received = np.asarray(received, dtype=np.complex128)
    return _pick_first_arrival(_delay_profile(received, cfg), cfg) * cfg.delay_bin_s


def ranging_error_trial(
    cfg: WaveformConfig,
    d_true: float,
    paths: PathSet,
    rng: np.random.Generator,
) -> float:
    """One end-to-end trial: pilot -> channel -> ToA -> |c*toa - d_true|."""
    pilot = make_pilot(cfg)
    received = apply_channel(pilot, paths, cfg, rng)
    return abs(C_LIGHT * estimate_toa(received, cfg) - d_true)


@dataclass(frozen=True)
class NlosEnsemble:
    """Default NLoS channel ensemble for scheme comparisons.

    All paths are Rayleigh faded (no deterministic direct component). The
    earliest path sits at the geometric distance, later paths carry
    exponential excess delays with average power decaying in the excess
    length. Per-path Doppler is f_max * cos(angle) with f_max set by the
    anchor speed at the carrier.
    """

    n_paths_min: int = 3
    n_paths_max: int = 6
    excess_mean_m: float = 20.0
    power_decay_m: float = 20.0
    speed_mps: float = 10.0
    snr_db: float = -5.0
    d_min_m: float = 100.0
    d_max_m: float = 150.0

    def __post_init__(self):
        if self.n_paths_min < 1 or self.n_paths_max < self.n_paths_min:
            raise ValueError("need 1 <= n_paths_min <= n_paths_max")
        if self.excess_mean_m < 0 or self.power_decay_m <= 0 or self.speed_mps < 0:
            raise ValueError("ensemble scales must be positive")
        if not (0 <= self.d_min_m <= self.d_max_m):
            raise ValueError("need 0 <= d_min_m <= d_max_m")

    def draw(self, carrier_freq: float, rng: np.random.Generator) -> tuple[float, PathSet]:
        """Sample (true distance, PathSet) for one comparison trial.

        The earliest path sits exactly at the drawn distance, so trial
        errors measure estimation quality rather than a common excess bias.
        """
        n = int(rng.integers(self.n_paths_min, self.n_paths_max + 1))
        d_true = float(rng.uniform(self.d_min_m, self.d_max_m))
        excess = np.concatenate([[0.0], rng.exponential(self.excess_mean_m, n - 1)])
        paths = self._build_paths(d_true, excess, carrier_freq, rng, los_gain=False)
        return d_true, PathSet(paths=paths, snr_db=self.snr_db)

    def draw_paths(
        self, d_true: float, carrier_freq: float, rng: np.random.Generator, los: bool
    ) -> PathSet:
        """Channel for one ranging sample at a known geometric distance.

        Line-of-sight keeps a deterministic unit-gain direct path plus faded
        scatterers; blocked samples shift even the earliest (indirect) path
        by an exponential excess length, which is what biases the range.
        """
        n = int(rng.integers(self.n_paths_min, self.n_paths_max + 1))
        excess = rng.exponential(self.excess_mean_m, n)
        if los:
            excess[0] = 0.0
        paths = self._build_paths(d_true, excess, carrier_freq, rng, los_gain=los)
        return PathSet(paths=paths, snr_db=self.snr_db)

    def _build_paths(self, d_true, excess, carrier_freq, rng, los_gain: bool):
        n = len(excess)
        f_max = carrier_freq * self.speed_mps / C_LIGHT
        doppler = f_max * np.cos(rng.uniform(0.0, 2.0 * np.pi, n))
        mean_power = np.exp(-excess / self.power_decay_m)
        gains = np.sqrt(mean_power / 2.0) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        if los_gain:
            gains[0] = 1.0
        return tuple(
            Path(
                delay=(d_true + excess[i]) / C_LIGHT,
                doppler=float(doppler[i]),
                gain=complex(gains[i]),
            )
            for i in range(n)
        )
