import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from waveform_reference import apply_channel as reference_channel
from waveform_reference import exact_channel, exact_delay_profile, exact_pick_first_arrival, phase_ramp

from pseudolat.waveform import (
    C_LIGHT,
    DetectionFailure,
    NlosEnsemble,
    Path,
    PathSet,
    WaveformConfig,
    _delay_profile,
    _pick_first_arrival,
    apply_channel,
    estimate_toa,
    isfft,
    make_pilot,
    ranging_error_trial,
    sfft,
)

OFDM = WaveformConfig(scheme="ofdm")
OTFS = WaveformConfig(scheme="otfs")


def single_path(cfg, delay_samples, doppler=0.0, gain=1 + 0j, snr_db=math.inf):
    delay = delay_samples * cfg.delay_bin_s / cfg.oversample
    return PathSet((Path(delay=delay, doppler=doppler, gain=gain),), snr_db=snr_db)


def toa_in_bins(toa: float, cfg: WaveformConfig) -> float:
    return toa / cfg.delay_bin_s


class TestConfig:
    def test_cp_arithmetic(self):
        assert OFDM.cp_len == 16
        assert OFDM.symbol_samples == 272
        assert OTFS.cp_len == 0
        assert OTFS.symbol_samples == 256

    def test_validation(self):
        with pytest.raises(ValueError):
            WaveformConfig(scheme="qam")
        with pytest.raises(ValueError):
            WaveformConfig(scheme="ofdm", n_subcarriers=100)
        with pytest.raises(ValueError):
            WaveformConfig(scheme="ofdm", cp_fraction=1.0)
        with pytest.raises(ValueError):
            WaveformConfig(scheme="ofdm", oversample=0)

    def test_sample_rate(self):
        cfg = WaveformConfig(scheme="ofdm", oversample=2)
        assert cfg.sample_rate == 256 * 30e3 * 2


class TestTransforms:
    def test_sfft_isfft_inverse_pair(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((256, 32)) + 1j * rng.standard_normal((256, 32))
        assert np.max(np.abs(sfft(isfft(x)) - x)) < 1e-10
        assert np.max(np.abs(isfft(sfft(x)) - x)) < 1e-10

    def test_transforms_unitary(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((64, 16)) + 1j * rng.standard_normal((64, 16))
        for f in (isfft, sfft):
            y = f(x)
            assert np.sum(np.abs(y) ** 2) == pytest.approx(np.sum(np.abs(x) ** 2), rel=1e-9)


class TestPilot:
    def test_otfs_impulse_energy_preserved(self):
        pilot = make_pilot(OTFS)
        assert np.sum(np.abs(pilot) ** 2) == pytest.approx(1.0, abs=1e-9)

    def test_ofdm_frame_length(self):
        pilot = make_pilot(OFDM)
        assert pilot.size == 32 * (256 + 16)

    def test_oversampled_lengths(self):
        cfg = WaveformConfig(scheme="ofdm", oversample=2)
        assert make_pilot(cfg).size == 32 * (512 + 32)

    def test_pilot_deterministic(self):
        assert np.array_equal(make_pilot(OFDM), make_pilot(WaveformConfig(scheme="ofdm")))


class TestChannel:
    def test_identity(self):
        pilot = make_pilot(OFDM)
        y = apply_channel(pilot, single_path(OFDM, 0), OFDM, np.random.default_rng(0))
        assert np.array_equal(y[: pilot.size], pilot)
        assert np.all(y[pilot.size :] == 0)

    def test_integer_delay_peak_by_cross_correlation(self):
        pilot = make_pilot(OFDM)
        y = apply_channel(pilot, single_path(OFDM, 10), OFDM, np.random.default_rng(0))
        lags = range(0, 21)
        corr = [np.abs(np.vdot(y[lag : lag + pilot.size], pilot)) for lag in lags]
        assert int(np.argmax(corr)) == 10

    def test_doppler_phase_rotation(self):
        # Oracle: nu = fc * v / c, phase after time t is exactly 2*pi*nu*t.
        fc, v = 28e9, 10.0
        nu = fc * v / C_LIGHT
        pilot = make_pilot(OFDM)
        ps = PathSet((Path(delay=0.0, doppler=nu, gain=1 + 0j),))
        y = apply_channel(pilot, ps, OFDM, np.random.default_rng(0))
        fs = OFDM.sample_rate
        k = int(round(1e-3 * fs))
        expected = np.exp(2j * np.pi * nu * k / fs)
        assert abs(y[k] / pilot[k] - expected) < 1e-6
        drift = np.angle(y[k] / pilot[k])
        assert drift == pytest.approx(math.remainder(2 * np.pi * nu * 1e-3, 2 * np.pi), abs=1e-6)

    def test_noise_is_deterministic_per_seed(self):
        pilot = make_pilot(OFDM)
        ps = single_path(OFDM, 5, snr_db=10.0)
        y1 = apply_channel(pilot, ps, OFDM, np.random.default_rng(77))
        y2 = apply_channel(pilot, ps, OFDM, np.random.default_rng(77))
        assert np.array_equal(y1, y2)

    def test_snr_level(self):
        pilot = make_pilot(OFDM)
        clean = apply_channel(pilot, single_path(OFDM, 0), OFDM, np.random.default_rng(0))
        noisy = apply_channel(pilot, single_path(OFDM, 0, snr_db=20.0), OFDM, np.random.default_rng(1))
        p_sig = np.mean(np.abs(clean) ** 2)
        p_noise = np.mean(np.abs(noisy - clean) ** 2)
        assert 10 * np.log10(p_sig / p_noise) == pytest.approx(20.0, abs=0.3)

    def test_delay_beyond_symbol_rejected(self):
        pilot = make_pilot(OFDM)
        ps = PathSet((Path(delay=1.1 / OFDM.subcarrier_spacing, doppler=0.0, gain=1 + 0j),))
        with pytest.raises(ValueError):
            apply_channel(pilot, ps, OFDM, np.random.default_rng(0))

    def test_pathset_validation(self):
        with pytest.raises(ValueError):
            PathSet(())
        with pytest.raises(ValueError):
            PathSet((Path(delay=0.0, doppler=0.0, gain=0j),))
        with pytest.raises(ValueError):
            Path(delay=-1e-9, doppler=0.0, gain=1 + 0j)


# fig5's numerology (both schemes, 30 and 120 kHz) and the OTFS stripe frame.
NUMEROLOGIES = {
    f"{scheme}_{int(df / 1e3)}k": WaveformConfig(scheme=scheme, n_symbols=128, subcarrier_spacing=df)
    for scheme in ("ofdm", "otfs")
    for df in (30e3, 120e3)
}
NUMEROLOGIES["stripe"] = WaveformConfig(scheme="otfs", n_symbols=32, subcarrier_spacing=120e3)

F_MAX = 28e9 * 10.0 / C_LIGHT  # Doppler of a 10 m/s anchor at 28 GHz


def _paths(cfg, delays_samples, dopplers, snr_db=math.inf):
    gains = (1 + 0j, 0.6 - 0.3j, -0.2 + 0.5j, 0.3j, 0.25 + 0j, -0.1 - 0.1j)
    return PathSet(
        tuple(
            Path(delay=a / cfg.sample_rate, doppler=nu, gain=g)
            for a, nu, g in zip(delays_samples, dopplers, gains)
        ),
        snr_db=snr_db,
    )


CHANNELS = {
    "integer_static": lambda cfg: _paths(cfg, (0, 13, 40), (0.0, 0.0, 0.0)),
    "integer_doppler_noisy": lambda cfg: _paths(cfg, (7, 13, 40), (F_MAX, -0.4 * F_MAX, 5e3), 10.0),
    "fractional_static_noisy": lambda cfg: _paths(cfg, (10.5, 23.25, 61.9), (0.0, 0.0, 0.0), -5.0),
    "fractional_doppler": lambda cfg: _paths(cfg, (10.5, 23.25, 61.9), (F_MAX, 0.0, -F_MAX)),
    "mixed": lambda cfg: _paths(cfg, (12, 23.25, 200.7), (0.0, -F_MAX, 0.7 * F_MAX), 0.0),
    "nlos_ensemble": lambda cfg: NlosEnsemble().draw(cfg.carrier_freq, np.random.default_rng(21))[1],
    "los_ensemble": lambda cfg: NlosEnsemble().draw_paths(
        130.0, cfg.carrier_freq, np.random.default_rng(22), los=True
    ),
}


def _rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestChannelMatchesReference:
    """The table-built phase ramps against full-length exponentials."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 17, 32805, 34992])
    def test_phase_ramp_matches_exp(self, n):
        for theta0 in (0.0, 2.5, -800.0):
            for wn in (0.0, 1e-3, -7.0, 1e3, -1e3):
                w = wn / n
                got = phase_ramp(theta0, w, n)
                assert got.shape == (n,)
                assert np.max(np.abs(got - np.exp(1j * (theta0 + w * np.arange(n))))) <= 1e-12

    @pytest.mark.parametrize("channel", sorted(CHANNELS))
    @pytest.mark.parametrize("numerology", sorted(NUMEROLOGIES))
    def test_matches_reference(self, numerology, channel):
        cfg = NUMEROLOGIES[numerology]
        paths = CHANNELS[channel](cfg)
        pilot = make_pilot(cfg)
        rng, rng_ref = np.random.default_rng(3), np.random.default_rng(3)
        got = apply_channel(pilot, paths, cfg, rng)
        want = reference_channel(pilot, paths, cfg, rng_ref)
        assert got.shape == want.shape
        assert _rel_err(got, want) <= 1e-12
        # the single AWGN draw consumes the generator exactly like two
        assert rng.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize("numerology", sorted(NUMEROLOGIES))
    def test_uncached_spectrum_matches(self, numerology):
        # A copy of the pilot is not the pilot object, so its spectrum is
        # computed, not read from the cache; the samples must not change.
        cfg = NUMEROLOGIES[numerology]
        pilot = make_pilot(cfg)
        copy = pilot.copy()
        paths = CHANNELS["mixed"](cfg)
        got = apply_channel(copy, paths, cfg, np.random.default_rng(4))
        assert np.array_equal(got, apply_channel(pilot, paths, cfg, np.random.default_rng(4)))
        assert _rel_err(got, reference_channel(copy, paths, cfg, np.random.default_rng(4))) <= 1e-12


def _assert_bits_equal(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _assert_lean_matches_exact(signal, paths, cfg, seed):
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = apply_channel(signal, paths, cfg, rng)
    _assert_bits_equal(got, exact_channel(signal, paths, cfg, rng_ref))
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    _assert_bits_equal(_delay_profile(got, cfg), exact_delay_profile(got, cfg)[1].reshape(cfg.n_subcarriers, -1))


# fig5's ~34k-sample frames, the 8640-sample stripe frame, and oversampled
# frames, where the receiver's subcarrier bins are not the identity.
EXACT_NUMEROLOGIES = dict(
    NUMEROLOGIES,
    ofdm_os2=WaveformConfig(scheme="ofdm", n_symbols=16, oversample=2),
    otfs_os2=WaveformConfig(scheme="otfs", n_symbols=16, oversample=2),
)


# Six paths: every mix of integer or fractional delay with zero or nonzero
# Doppler, so paths that take the next row of a batched table alternate with
# paths that take none; and integer delays only, so the delay tables are empty.
SIX_PATH_CHANNELS = {
    "six_mixed": lambda cfg: _paths(
        cfg, (12, 23.25, 40, 61.9, 80.5, 200), (0.0, -F_MAX, 0.7 * F_MAX, 0.0, F_MAX / 3, 5e3), 0.0
    ),
    "six_integer": lambda cfg: _paths(cfg, (0, 13, 40, 77, 130, 200), (0.0,) * 6, 10.0),
}
# STRIPE's frame and fig5's OFDM frame with cyclic prefix.
SIX_PATH_NUMEROLOGIES = ("stripe", "ofdm_30k")


class TestLeanMatchesExact:
    """The reused path buffer, in-place transforms and symbol views against
    fresh arrays per step: the same samples to the last bit."""

    @pytest.mark.parametrize("channel", sorted(SIX_PATH_CHANNELS))
    @pytest.mark.parametrize("numerology", SIX_PATH_NUMEROLOGIES)
    def test_six_path_channels(self, numerology, channel):
        cfg = NUMEROLOGIES[numerology]
        _assert_lean_matches_exact(make_pilot(cfg), SIX_PATH_CHANNELS[channel](cfg), cfg, 5)

    @pytest.mark.parametrize("channel", sorted(CHANNELS))
    @pytest.mark.parametrize("numerology", sorted(EXACT_NUMEROLOGIES))
    def test_fixed_channels(self, numerology, channel):
        cfg = EXACT_NUMEROLOGIES[numerology]
        _assert_lean_matches_exact(make_pilot(cfg), CHANNELS[channel](cfg), cfg, 3)

    def test_computed_spectrum(self):
        cfg = EXACT_NUMEROLOGIES["ofdm_os2"]
        _assert_lean_matches_exact(make_pilot(cfg).copy(), CHANNELS["mixed"](cfg), cfg, 4)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_drawn_channels(self, data):
        cfg = WaveformConfig(
            scheme=data.draw(st.sampled_from(["ofdm", "otfs"])),
            n_subcarriers=data.draw(st.sampled_from([16, 64])),
            n_symbols=data.draw(st.integers(1, 12)),
            cp_fraction=data.draw(st.sampled_from([0.0, 1.0 / 16.0, 0.25])),
            oversample=data.draw(st.integers(1, 3)),
        )
        n_paths = data.draw(st.integers(1, 5))
        delays = [
            data.draw(st.one_of(st.integers(0, cfg.fft_size - 1), st.floats(0.0, cfg.fft_size - 1.0)))
            for _ in range(n_paths)
        ]
        dopplers = [data.draw(st.sampled_from([0.0, F_MAX, -3e3, 1e5])) for _ in range(n_paths)]
        gains = [complex(data.draw(st.floats(-2, 2)), data.draw(st.floats(-2, 2))) for _ in range(n_paths)]
        gains[0] = 1 + 0.5j
        snr_db = data.draw(st.sampled_from([math.inf, 20.0, -5.0]))
        paths = PathSet(
            tuple(Path(delay=a / cfg.sample_rate, doppler=nu, gain=g) for a, nu, g in zip(delays, dopplers, gains)),
            snr_db=snr_db,
        )
        _assert_lean_matches_exact(make_pilot(cfg), paths, cfg, data.draw(st.integers(0, 2**32 - 1)))


@pytest.mark.parametrize("cfg", [OFDM, OTFS], ids=["ofdm", "otfs"])
class TestToa:
    def test_integer_delay_exact(self, cfg):
        pilot = make_pilot(cfg)
        y = apply_channel(pilot, single_path(cfg, 13), cfg, np.random.default_rng(0))
        est = estimate_toa(y, cfg)
        assert abs(toa_in_bins(est, cfg) - 13) < 1e-3

    def test_first_arrival_beats_stronger_echo(self, cfg):
        ps = PathSet(
            (
                Path(delay=10 * cfg.delay_bin_s, doppler=0.0, gain=1 + 0j),
                Path(delay=25 * cfg.delay_bin_s, doppler=0.0, gain=0.8 + 0j),
            )
        )
        y = apply_channel(make_pilot(cfg), ps, cfg, np.random.default_rng(0))
        est = estimate_toa(y, cfg)
        assert abs(toa_in_bins(est, cfg) - 10) < 0.5

    def test_half_sample_delay_interpolated(self, cfg):
        y = apply_channel(make_pilot(cfg), single_path(cfg, 10.5), cfg, np.random.default_rng(0))
        est = estimate_toa(y, cfg)
        assert abs(toa_in_bins(est, cfg) - 10.5) < 0.1

    def test_weak_echo_below_threshold_ignored(self, cfg):
        # 6 dB below the peak in amplitude is a factor ~0.501.
        ps = PathSet(
            (
                Path(delay=8 * cfg.delay_bin_s, doppler=0.0, gain=0.3 + 0j),
                Path(delay=20 * cfg.delay_bin_s, doppler=0.0, gain=1.0 + 0j),
            )
        )
        y = apply_channel(make_pilot(cfg), ps, cfg, np.random.default_rng(0))
        est = estimate_toa(y, cfg)
        assert abs(toa_in_bins(est, cfg) - 20) < 0.5

    def test_first_arrival_monotone_under_added_echoes(self, cfg):
        base = [Path(delay=10 * cfg.delay_bin_s, doppler=0.0, gain=1 + 0j)]
        y = apply_channel(make_pilot(cfg), PathSet(tuple(base)), cfg, np.random.default_rng(0))
        toa0 = toa_in_bins(estimate_toa(y, cfg), cfg)
        rng = np.random.default_rng(5)
        for extra_delay, extra_gain in [(18, 0.9), (26, 0.7), (34, 0.95)]:
            base.append(Path(delay=extra_delay * cfg.delay_bin_s, doppler=0.0, gain=extra_gain + 0j))
            y = apply_channel(make_pilot(cfg), PathSet(tuple(base)), cfg, rng)
            toa = toa_in_bins(estimate_toa(y, cfg), cfg)
            assert toa >= toa0 - 0.2

    def test_zero_delay_returns_non_negative_seconds(self, cfg):
        # Noise can tilt the interpolation below bin 0; the estimate stays >= 0.
        for seed in range(8):
            y = apply_channel(make_pilot(cfg), single_path(cfg, 0, snr_db=0.0), cfg, np.random.default_rng(seed))
            est = estimate_toa(y, cfg)
            assert isinstance(est, float)
            assert 0.0 <= toa_in_bins(est, cfg) < 0.5


class TestTrials:
    def test_one_delay_bin_at_30khz_is_39_m(self):
        # Default numerology: 256 subcarriers at 30 kHz; the trial scales seconds by C_LIGHT.
        for cfg in (OFDM, OTFS):
            bin_m = C_LIGHT * cfg.delay_bin_s
            assert bin_m == pytest.approx(39.0354, abs=1e-4)
            ps = PathSet((Path(delay=cfg.delay_bin_s, doppler=0.0, gain=1 + 0j),))
            err = ranging_error_trial(cfg, bin_m, ps, np.random.default_rng(0))
            assert err < 0.05

    def test_noiseless_integer_distance_recovered(self):
        for cfg in (OFDM, OTFS):
            d_true = 4 * C_LIGHT * cfg.delay_bin_s
            ps = PathSet((Path(delay=d_true / C_LIGHT, doppler=0.0, gain=1 + 0j),))
            err = ranging_error_trial(cfg, d_true, ps, np.random.default_rng(0))
            assert err < 0.05

    def test_nlos_excess_path_shows_as_bias(self):
        # First arrival 15 m longer than the geometric distance; the echo is
        # kept several delay bins away so it cannot drag the first peak.
        for cfg in (OFDM, OTFS):
            bin_m = C_LIGHT * cfg.delay_bin_s
            excess = 15.0
            d_true = 5 * bin_m - excess
            echo = d_true + excess + 3 * bin_m
            ps = PathSet(
                (
                    Path(delay=(d_true + excess) / C_LIGHT, doppler=0.0, gain=1 + 0j),
                    Path(delay=echo / C_LIGHT, doppler=0.0, gain=0.4 + 0j),
                )
            )
            err = ranging_error_trial(cfg, d_true, ps, np.random.default_rng(0))
            assert err == pytest.approx(excess, abs=1.0)

    def test_error_pdf_has_finite_mean_and_decaying_tail(self):
        cfg = WaveformConfig(scheme="otfs", n_subcarriers=128, n_symbols=16)
        ens = NlosEnsemble(snr_db=0.0)
        rng = np.random.default_rng(9)
        errs = []
        for trial in range(10_000):
            d_true, ps = ens.draw(cfg.carrier_freq, rng)
            errs.append(ranging_error_trial(cfg, d_true, ps, rng))
        errs = np.array(errs)
        assert np.isfinite(np.mean(errs))
        counts, _ = np.histogram(errs, bins=np.arange(0.0, 200.5, 10.0))
        assert counts[0] > counts[5] > counts[-1]

    def test_resolution_improves_with_subcarrier_spacing(self):
        # Sweep fractional delays; worst-case error in meters must drop by
        # at least 2x when the spacing quadruples (same N).
        for scheme in ("ofdm", "otfs"):
            worst = {}
            for df in (30e3, 120e3):
                cfg = WaveformConfig(scheme=scheme, subcarrier_spacing=df)
                errors = []
                for frac in np.linspace(0.0, 0.95, 16):
                    ps = single_path(cfg, 12 + frac)
                    d_true = C_LIGHT * (12 + frac) * cfg.delay_bin_s
                    errors.append(ranging_error_trial(cfg, d_true, ps, np.random.default_rng(0)))
                worst[df] = max(errors)
            assert worst[120e3] <= 0.5 * worst[30e3]

    def test_doppler_resilience_ordering_small_sample(self):
        # Light version of the paired comparison: OTFS mean error should not
        # exceed OFDM's on the documented default ensemble.
        ens = NlosEnsemble()
        means = {}
        for scheme in ("ofdm", "otfs"):
            cfg = WaveformConfig(scheme=scheme, n_symbols=128)
            errs = []
            for trial in range(250):
                rng_chan = np.random.default_rng(1000 + trial)
                d_true, ps = ens.draw(cfg.carrier_freq, rng_chan)
                errs.append(ranging_error_trial(cfg, d_true, ps, np.random.default_rng(trial)))
            means[scheme] = np.mean(errs)
        assert means["otfs"] <= means["ofdm"]


class TestDetection:
    def test_all_zero_profile_raises(self):
        with pytest.raises(DetectionFailure):
            estimate_toa(np.zeros(OFDM.frame_samples, dtype=complex), OFDM)

    def test_short_signal_rejected(self):
        with pytest.raises(ValueError):
            estimate_toa(np.zeros(100, dtype=complex), OFDM)


def _assert_pick_matches_exact(mag, cfg):
    try:
        want = exact_pick_first_arrival(mag, cfg)
    except DetectionFailure:
        with pytest.raises(DetectionFailure):
            _pick_first_arrival(mag, cfg)
        return
    assert _pick_first_arrival(mag, cfg).hex() == want.hex()


def _ring_mag(profile):
    """(n, 3) magnitudes whose row maxima are ``profile``, winning column i % 3."""
    profile = np.asarray(profile, dtype=float)
    mag = np.repeat(0.5 * profile[:, None], 3, axis=1)
    mag[np.arange(profile.size), np.arange(profile.size) % 3] = profile
    return mag


_THR_6DB = 4.0 * 10.0 ** (-6.0 / 20.0)  # the 6 dB gate below a peak of 4

PICK_PROFILES = {
    "plateau": [0, 1, 3, 3, 1, 0, 0, 0],
    "max_at_first_bin": [4, 1, 0, 0, 0, 0, 2.5, 3],
    "max_at_last_bin": [3, 1, 0, 0, 0, 0, 0, 4],
    "candidate_at_threshold": [0, 0, _THR_6DB, 0, 4, 0, 0, 0],
    "first_candidate_not_a_peak": [0, 3, 4, 1, 0, 0, 0, 0],
    "single_bin": [2.0],
}


class TestFirstArrivalScan:
    """The candidate scan against the rolled-copy pick: the same bits."""

    @pytest.mark.parametrize("name", sorted(PICK_PROFILES))
    def test_fixed_profiles(self, name):
        profile = np.asarray(PICK_PROFILES[name], dtype=float)
        _assert_pick_matches_exact(profile[:, None], OFDM)
        _assert_pick_matches_exact(_ring_mag(profile), OTFS)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_quantized_profiles(self, data):
        # A few levels make ties between neighbours and with the gate common.
        n = data.draw(st.integers(1, 12))
        m = data.draw(st.sampled_from([1, 3]))
        levels = data.draw(st.lists(st.integers(0, 4), min_size=n * m, max_size=n * m))
        cfg = WaveformConfig(scheme="otfs", threshold_db=data.draw(st.sampled_from([3.0, 6.0, 12.0])))
        _assert_pick_matches_exact(np.array(levels, dtype=float).reshape(n, m), cfg)


class TestChannelMemory:
    """Traced numpy memory of one sample: channel synthesis plus ToA."""

    @pytest.mark.parametrize("numerology", SIX_PATH_NUMEROLOGIES)
    def test_peak_within_six_frames(self, numerology):
        cfg = NUMEROLOGIES[numerology]
        paths = SIX_PATH_CHANNELS["six_mixed"](cfg)
        pilot = make_pilot(cfg)
        estimate_toa(apply_channel(pilot, paths, cfg, np.random.default_rng(0)), cfg)  # fill the caches
        tracemalloc.start()
        try:
            y = apply_channel(pilot, paths, cfg, np.random.default_rng(0))
            estimate_toa(y, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * y.nbytes


class TestEnsemble:
    def test_draw_is_deterministic(self):
        ens = NlosEnsemble()
        a = ens.draw(28e9, np.random.default_rng(3))
        b = ens.draw(28e9, np.random.default_rng(3))
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_first_arrival_at_geometric_distance(self):
        ens = NlosEnsemble()
        rng = np.random.default_rng(4)
        for _ in range(50):
            d_true, ps = ens.draw(28e9, rng)
            assert ps.first_arrival == pytest.approx(d_true / C_LIGHT, rel=1e-12)

    def test_los_paths_keep_unit_direct_gain(self):
        ens = NlosEnsemble()
        ps = ens.draw_paths(140.0, 28e9, np.random.default_rng(5), los=True)
        assert ps.paths[0].gain == 1.0
        assert ps.paths[0].delay == pytest.approx(140.0 / C_LIGHT, rel=1e-12)

    def test_nlos_paths_are_delayed(self):
        ens = NlosEnsemble()
        rng = np.random.default_rng(6)
        delayed = [
            ens.draw_paths(140.0, 28e9, rng, los=False).first_arrival > 140.0 / C_LIGHT
            for _ in range(50)
        ]
        assert np.mean(delayed) > 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            NlosEnsemble(n_paths_min=0)
        with pytest.raises(ValueError):
            NlosEnsemble(d_min_m=200.0, d_max_m=100.0)
