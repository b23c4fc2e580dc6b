"""Reference channel synthesis, used only by the tests.

This is `pseudolat.waveform.apply_channel` as it was before its phase ramps
were built from short tables: every path evaluates its delay ramp and its
Doppler rotation as full-length complex exponentials, and the AWGN is drawn
as two separate normal vectors. The waveform tests compare the library's
channel with it.
"""

import functools
import math

import numpy as np

from pseudolat.waveform import PathSet, WaveformConfig, _next_fast_len, _pilot_spectrum, make_pilot


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
