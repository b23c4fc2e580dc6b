"""Reference channel synthesis and receiver front end, used only by the tests.

`apply_channel` is `pseudolat.waveform.apply_channel` as it was before its
phase ramps were built from short tables: every path evaluates its delay
ramp and its Doppler rotation as full-length complex exponentials, and the
AWGN is drawn as two separate normal vectors. The waveform tests compare
the library's channel with it within 1e-12.

`exact_channel` and `exact_delay_profile` are the library's channel and
delay profile as they were before they reused one path buffer, transformed
in place and sliced symbols as views: a fresh array per path and per step,
and every phase ramp a fresh `phase_ramp` outer product.
`exact_pick_first_arrival` is the library's first-arrival pick as it was
before it scanned the candidates: two rolled copies of the profile. The
library must match all three bit for bit.
"""

import functools
import math

import numpy as np

from pseudolat.waveform import (
    DetectionFailure,
    PathSet,
    WaveformConfig,
    _next_fast_len,
    _pilot_spectrum,
    _qpsk_grid,
    _subcarrier_bins,
    make_pilot,
)


def phase_ramp(theta0: float, w: float, n: int) -> np.ndarray:
    """exp(j (theta0 + w k)) for k < n, from two tables of about sqrt(n) terms.

    With k = b q + r the ramp is the outer product of exp(j (theta0 + w b q))
    and exp(j w r), so it costs O(sqrt(n)) complex exponentials plus one
    complex multiply per sample instead of n exponentials.
    """
    b = max(1, math.isqrt(n))
    q = -(-n // b)
    lo = np.exp(1j * w * np.arange(b))
    hi = np.exp(1j * (theta0 + w * b * np.arange(q)))
    return np.outer(hi, lo).ravel()[:n]


@functools.lru_cache(maxsize=64)
def _unit_fftfreq(total: int) -> np.ndarray:
    f = np.fft.fftfreq(total)
    f.setflags(write=False)
    return f


def apply_channel(
    signal: np.ndarray,
    paths: PathSet,
    cfg: WaveformConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Propagate through y(t) = sum_i g_i x(t - tau_i) e^{j 2 pi nu_i t} + AWGN.

    Fractional delays use exact band-limited (FFT phase-ramp) interpolation;
    integer delays are applied as exact sample shifts. The output is padded
    past the input so delayed energy is kept.
    """
    x = np.asarray(signal, dtype=np.complex128)
    fs = cfg.sample_rate
    delays_samp = [p.delay * fs for p in paths.paths]
    if max(delays_samp) >= cfg.fft_size:
        raise ValueError("path delay exceeds one symbol duration")
    total = _next_fast_len(x.size + int(np.ceil(max(delays_samp))) + 16)
    y = np.zeros(total, dtype=np.complex128)
    t = np.arange(total) / fs
    spectrum = None
    for p, a in zip(paths.paths, delays_samp):
        ai = int(round(a))
        if abs(a - ai) < 1e-9:
            shifted = np.zeros(total, dtype=np.complex128)
            shifted[ai : ai + x.size] = x
        else:
            if spectrum is None:
                if signal is make_pilot(cfg):
                    spectrum = _pilot_spectrum(cfg, total)
                else:
                    spectrum = np.fft.fft(x, total)
            freqs = _unit_fftfreq(total) * fs
            shifted = np.fft.ifft(spectrum * np.exp(-2j * np.pi * freqs * p.delay))
        if p.doppler != 0.0:
            shifted = shifted * np.exp(2j * np.pi * p.doppler * t)
        y += p.gain * shifted
    if math.isfinite(paths.snr_db):
        power = float(np.mean(np.abs(y) ** 2))
        if power > 0:
            sigma2 = power * 10.0 ** (-paths.snr_db / 10.0)
            scale = math.sqrt(sigma2 / 2.0)
            y = y + scale * (rng.standard_normal(total) + 1j * rng.standard_normal(total))
    return y


def exact_channel(
    signal: np.ndarray,
    paths: PathSet,
    cfg: WaveformConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    x = np.asarray(signal, dtype=np.complex128)
    fs = cfg.sample_rate
    delays_samp = [p.delay * fs for p in paths.paths]
    if max(delays_samp) >= cfg.fft_size:
        raise ValueError("path delay exceeds one symbol duration")
    total = _next_fast_len(x.size + int(np.ceil(max(delays_samp))) + 16)
    n_pos = (total - 1) // 2 + 1
    y = np.zeros(total, dtype=np.complex128)
    spectrum = None
    for p, a in zip(paths.paths, delays_samp):
        ai = int(round(a))
        if abs(a - ai) < 1e-9:
            shifted = np.zeros(total, dtype=np.complex128)
            shifted[ai : ai + x.size] = x
        else:
            if spectrum is None:
                if signal is make_pilot(cfg):
                    spectrum = _pilot_spectrum(cfg, total)
                else:
                    spectrum = np.fft.fft(x, total)
            w = -2.0 * np.pi * a / total
            ramp = np.concatenate(
                [phase_ramp(0.0, w, n_pos), phase_ramp(w * (n_pos - total), w, total - n_pos)]
            )
            ramp *= spectrum
            shifted = np.fft.ifft(ramp)
        if p.doppler != 0.0:
            shifted *= phase_ramp(0.0, 2.0 * np.pi * p.doppler / fs, total)
        y += p.gain * shifted
    if math.isfinite(paths.snr_db):
        power = float(np.mean(np.abs(y) ** 2))
        if power > 0:
            sigma2 = power * 10.0 ** (-paths.snr_db / 10.0)
            z = rng.standard_normal(2 * total)
            z *= math.sqrt(sigma2 / 2.0)
            y.real += z[:total]
            y.imag += z[total:]
    return y


def exact_delay_profile(received: np.ndarray, cfg: WaveformConfig):
    n, m = cfg.n_subcarriers, cfg.n_symbols
    bins = _subcarrier_bins(n, cfg.fft_size)
    hop = cfg.symbol_samples
    cp = cfg.cp_len
    if received.size < cfg.frame_samples:
        raise ValueError("received signal is shorter than one frame")

    idx = hop * np.arange(m)[:, None] + cp + np.arange(cfg.fft_size)[None, :]
    segs = received[idx]
    y_tf = np.fft.fft(segs, axis=1, norm="ortho")[:, bins].T

    if cfg.scheme == "ofdm":
        h_freq = np.mean(y_tf * np.conj(_qpsk_grid(n, m)), axis=1)
        profile = np.abs(np.fft.ifft(h_freq, norm="ortho"))
        return profile, profile
    y_dd = np.fft.fft(np.fft.ifft(y_tf, axis=0, norm="ortho"), axis=1, norm="ortho")
    mag = np.abs(y_dd)
    k_star = np.argmax(mag, axis=1)
    profile = mag[np.arange(n), k_star]
    return profile, mag


def exact_pick_first_arrival(mag: np.ndarray, cfg: WaveformConfig) -> float:
    profile = mag.max(axis=1)
    n = profile.size
    peak = float(profile.max())
    if not np.isfinite(peak) or peak <= 0.0:
        raise DetectionFailure("delay profile has no positive peak")
    thr = peak * 10.0 ** (-cfg.threshold_db / 20.0)
    left = np.roll(profile, 1)
    right = np.roll(profile, -1)
    # threshold_db > 0 puts the global maximum among the candidates.
    is_peak = (profile >= left) & (profile >= right) & (profile >= thr)
    i0 = int(np.flatnonzero(is_peak)[0])

    k0 = int(np.argmax(mag[i0]))
    v_m = float(mag[(i0 - 1) % n, k0])
    v_0 = float(mag[i0, k0])
    v_p = float(mag[(i0 + 1) % n, k0])
    denom = v_m - 2.0 * v_0 + v_p
    delta = 0.5 * (v_m - v_p) / denom if denom < 0 else 0.0
    delta = min(max(delta, -0.5), 0.5)
    return max(i0 + delta, 0.0)
