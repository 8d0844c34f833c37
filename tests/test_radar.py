import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from pulsecmp.beats import detect_peaks, extract_ibi
from pulsecmp import radar, signal_core
from pulsecmp.radar import BinSelection, RadarCube, process_radar
from pulsecmp.signal_core import BandpassSpec, TimeSeries
from pulsecmp.synth import CubeGeometry, PulseModel, generate_waveform

from oracles import (
    chirp_mean_removal,
    correct_polarity,
    extract_slow_time,
    phase_per_bin,
    process_radar_whole_tensor,
    synth_radar_cube,
    tone_amplitude,
    zero_phase_gain,
)

FS = 200.0
WAVELENGTH = 299792458.0 / 60e9
SMALL_GEOM = CubeGeometry(antennas=1, chirps=4, samples=64, target_antenna=0, target_range_bin=7)


class TestRadarCube:
    def test_validation(self):
        with pytest.raises(ValueError):
            RadarCube(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError, match="antennas"):
            RadarCube(np.zeros((1, 9, 1, 4)))
        with pytest.raises(ValueError):
            RadarCube(np.zeros((1, 1, 1, 4)), frame_rate_hz=0.0)

    def test_float32_storage(self):
        cube = RadarCube(np.full((1, 1, 1, 4), 0.1))
        assert cube.data.dtype == np.float32
        assert np.all(cube.data == np.float32(0.1))


class TestChirpMeanRemoval:
    def test_constant_chirp(self):
        out = chirp_mean_removal(np.ones((1, 1, 1, 4)))
        assert_allclose(out, 0.0)

    def test_two_sample_chirp(self):
        out = chirp_mean_removal(np.array([0.0, 2.0]).reshape(1, 1, 1, 2))
        assert_allclose(out.ravel(), [-1.0, 1.0])

    def test_random_cube_zero_means(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((6, 2, 3, 16))
        out = chirp_mean_removal(data)
        means = out.mean(axis=3)
        assert np.abs(means).max() < 1e-12
        assert out.shape == data.shape
        # input untouched
        assert not np.allclose(data.mean(axis=3), 0.0)


class TestExtractSlowTime:
    def test_single_chirp_equals_fft(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((5, 2, 1, 16))
        slow = extract_slow_time(data)
        direct = np.fft.rfft(data[:, :, 0, :], axis=2)
        assert_allclose(slow, direct, atol=1e-12)

    def test_identical_chirps_equal_one(self):
        rng = np.random.default_rng(2)
        one = rng.standard_normal((5, 2, 1, 16))
        two = np.repeat(one, 2, axis=2)
        assert_allclose(extract_slow_time(two), extract_slow_time(one), atol=1e-12)

    def test_coherent_averaging_reduces_noise(self):
        rng = np.random.default_rng(3)
        frames = 3000
        noisy_1 = rng.standard_normal((frames, 1, 1, 32))
        noisy_16 = rng.standard_normal((frames, 1, 16, 32))
        var_1 = np.var(extract_slow_time(noisy_1)[:, 0, 5])
        var_16 = np.var(extract_slow_time(noisy_16)[:, 0, 5])
        assert_allclose(var_1 / var_16, 16.0, rtol=0.25)


class TestPhasePerBin:
    def test_constant_bin_zero_output(self):
        frames = 800
        slow = np.full((frames, 1, 3), 0.7 + 0.3j, dtype=complex)
        phases = phase_per_bin(slow, FS)
        assert phases.shape == (1, 3, frames)
        assert np.abs(phases).max() < 1e-6

    def test_recovers_modulation(self):
        frames = int(30 * FS)
        t = np.arange(frames) / FS
        modulation = 0.5 * np.sin(2 * np.pi * 1.5 * t)
        slow = np.exp(1j * modulation).reshape(frames, 1, 1)
        phases = phase_per_bin(slow, FS)
        amp = tone_amplitude(phases[0, 0], FS, 1.5)
        expected = 0.5 * zero_phase_gain(1.5, FS)
        assert abs(amp - expected) <= 0.02 * expected
        mid = slice(frames // 4, 3 * frames // 4)
        corr = np.corrcoef(phases[0, 0][mid], modulation[mid])[0, 1]
        assert corr > 0.999

    def test_stopband_modulation_suppressed(self):
        frames = int(60 * FS)
        t = np.arange(frames) / FS
        slow = np.exp(1j * np.sin(2 * np.pi * 0.05 * t)).reshape(frames, 1, 1)
        phases = phase_per_bin(slow, FS)
        amp = tone_amplitude(phases[0, 0], FS, 0.05)
        assert 20 * math.log10(max(amp, 1e-300)) <= -40.0

    def test_too_short(self):
        with pytest.raises(ValueError, match="recording too short"):
            phase_per_bin(np.ones((100, 1, 1), dtype=complex), FS)

    def test_stack_equals_single_cells(self):
        rng = np.random.default_rng(15)
        frames = int(5 * FS)
        t = np.arange(frames) / FS
        drift = np.cumsum(rng.standard_normal((frames, 2, 3)), axis=0)
        tone = 2.0 * np.sin(2 * np.pi * 1.2 * t)[:, None, None]
        slow = np.exp(1j * (drift + tone)) * rng.uniform(0.5, 2.0, (frames, 2, 3))
        slow[:, 1, 2] = 0.3 + 0.4j  # one flat cell
        stacked = phase_per_bin(slow, FS)
        for a in range(2):
            for b in range(3):
                single = phase_per_bin(slow[:, a : a + 1, b : b + 1], FS)
                assert np.array_equal(stacked[a, b], single[0, 0])


def pulse(t):
    return np.sin(2 * np.pi * 1.2 * t)


def tone_cube(n_samples, tones, seconds=12.0):
    """One-antenna cube whose chirps carry a static unit tone at every
    bin 1 .. N//2, unless ``tones`` maps the bin to ``(amp, modulation)``:
    then ``amp * cos(2 pi k n / N + modulation(t))``."""
    t = np.arange(int(seconds * FS)) / FS
    n = np.arange(n_samples)
    chirps = np.zeros((t.size, n_samples))
    for k in range(1, n_samples // 2 + 1):
        amp, modulation = tones.get(k, (1.0, lambda t: 0.5 + 0.0 * t))
        chirps += amp * np.cos(2 * np.pi * k * n[None, :] / n_samples + modulation(t)[:, None])
    return RadarCube(np.repeat(chirps[:, None, None, :], 2, axis=2))


class TestUnwrap:
    # steps of exactly +-pi, and positive steps that wrap to -pi (3 pi)
    @given(
        arrays(
            np.float64,
            st.integers(1, 60),
            elements=st.one_of(
                st.floats(-20.0, 20.0, allow_nan=False),
                st.sampled_from([0.0, -0.0, math.pi, -math.pi, 2 * math.pi, 3 * math.pi, -3 * math.pi]),
            ),
        )
    )
    @example(np.array([0.0, math.pi, 0.0, -math.pi, 2 * math.pi, -math.pi]))
    @example(np.array([-0.0, -0.0, 3 * math.pi]))
    def test_bit_equal_to_np_unwrap(self, row):
        expected = np.unwrap(row)
        radar._unwrap(row)
        assert np.array_equal(row.view(np.int64), expected.view(np.int64))

    def test_traced_peak_is_one_row(self):
        # a 1200 s row at 200 Hz that wraps 20 times: the steps' buffer
        # and two boolean masks, not three float64 temporaries
        row = np.angle(np.exp(1j * np.linspace(0.0, 40.0 * np.pi, 240_000)))
        tracemalloc.start()
        try:
            radar._unwrap(row)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * row.nbytes


class TestSearchableBins:
    @pytest.mark.parametrize("max_bins", [0, 1, 2, 4, -3])
    @pytest.mark.parametrize("n_samples", [1, 2, 3, 4, 5, 64])
    def test_rule(self, n_samples, max_bins):
        # every one-sided bin but DC and an even length's real Nyquist
        # bin, below a positive max_bins
        expected = [
            k for k in range(1, n_samples // 2 + 1)
            if 2 * k != n_samples and (max_bins <= 0 or k < max_bins)
        ]
        if not expected:
            with pytest.raises(ValueError, match="^no informative range bin to search$"):
                radar.searchable_bins(n_samples, max_bins)
        else:
            assert list(radar.searchable_bins(n_samples, max_bins)) == expected


class TestSelectBestBin:
    def test_single_candidate(self):
        # bins 1, 2, 3 of an 8-sample chirp: only bin 2 pulsates
        cube = tone_cube(8, {2: (1.0, lambda t: 0.5 * pulse(t))})
        waveform, sel = process_radar(cube)
        assert (sel.antenna_index, sel.range_bin) == (0, 2)
        assert sel.peak_to_peak == radar._score(waveform.samples) > 0.5

    def test_tie_breaks_to_lower_indices(self):
        # every cell of a flat cube scores 0: the lower antenna wins,
        # then the lower bin (TestOneAntennaAtATime's tie-to-antenna-0
        # ties two pulsating antennas)
        _, sel = process_radar(RadarCube(np.zeros((int(12 * FS), 2, 2, 8))))
        assert sel == BinSelection(0, 1, 0.0)

    def test_degenerate_bins_excluded(self):
        # a pulsating DC offset and a sign-flipping Nyquist tone would
        # both beat the weak pulse at bin 2, were they searched
        cube = tone_cube(8, {2: (1.0, lambda t: 0.5 * pulse(t)), 4: (50.0, lambda t: 3.0 * pulse(t))})
        data = cube.data + 100.0 * pulse(np.arange(cube.n_frames) / FS)[:, None, None, None]
        _, sel = process_radar(RadarCube(data))
        assert (sel.antenna_index, sel.range_bin) == (0, 2)

    def test_max_bins_restriction(self):
        cube = tone_cube(16, {6: (1.0, lambda t: 3.0 * pulse(t)), 2: (1.0, lambda t: 0.5 * pulse(t))})
        assert process_radar(cube)[1].range_bin == 6
        assert process_radar(cube, max_bins=4)[1].range_bin == 2

    def test_no_informative_bin_rejected(self):
        # max_bins=1 leaves no bin: the rule rejects the cube before its
        # reduction would reach the NaN
        data = np.random.default_rng(0).standard_normal((int(12 * FS), 1, 2, 64))
        data[5, 0, 1, 3] = np.nan
        with pytest.raises(ValueError, match="^no informative range bin to search$"):
            process_radar(RadarCube(data), max_bins=1)

    def test_odd_chirp_length_searches_its_last_bin(self):
        # a 5-sample chirp has bins 0, 1, 2 and no Nyquist bin, so bin 2
        # is searched, and it is the only pulsating cell
        cube = tone_cube(5, {2: (1.0, lambda t: 0.5 * pulse(t))})
        _, sel = process_radar(cube)
        assert (sel.antenna_index, sel.range_bin) == (0, 2)
        assert sel.peak_to_peak > 0.5

    def test_one_fast_time_sample_cube_rejected(self):
        # one sample per chirp gives one range bin: the DC bin
        cube = RadarCube(np.random.default_rng(0).standard_normal((int(12 * FS), 1, 2, 1)))
        with pytest.raises(ValueError, match="no informative range bin"):
            process_radar(cube)

    def test_two_sample_chirps_rejected_before_reduction(self):
        # bins 0 and 1 of a 2-sample chirp are DC and Nyquist; the NaN
        # would stop the reduction, so the rejection comes first
        data = np.random.default_rng(0).standard_normal((int(12 * FS), 1, 2, 2))
        data[5, 0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="no informative range bin"):
            process_radar(RadarCube(data))

    def test_three_sample_chirps_keep_bin_one(self):
        # an odd chirp length has no Nyquist bin: bin 1 is informative
        data = np.random.default_rng(0).standard_normal((int(12 * FS), 1, 2, 3))
        assert process_radar(RadarCube(data))[1].range_bin == 1

    def test_synthetic_selection_at_snr20(self):
        model = PulseModel()
        waveform, truth = generate_waveform(model, 20.0, FS, seed=11)
        displacement = waveform.with_samples(waveform.samples * 1e-4)
        cube = synth_radar_cube(displacement, CubeGeometry(), snr_db=20.0, seed=11)
        _, sel = process_radar(cube)
        assert (sel.antenna_index, sel.range_bin) == (1, 7)
        # brute-force check: the chosen cell has the largest p2p among
        # informative bins, measured on the central 90 % of the composed
        # chain's phases
        phases = phase_per_bin(extract_slow_time(chirp_mean_removal(cube.data)), FS)
        margin = int(0.05 * phases.shape[2])
        core = phases[:, :, margin : phases.shape[2] - margin]
        p2p = core.max(axis=2) - core.min(axis=2)
        p2p[:, 0] = -np.inf
        p2p[:, -1] = -np.inf
        a, k = np.unravel_index(np.argmax(p2p), p2p.shape)
        assert (a, k) == (1, 7)


def sawtooth_pulse_series(rise_s=0.15, decay_s=0.85, beats=12):
    fs = FS
    rise_n = int(rise_s * fs)
    decay_n = int(decay_s * fs)
    one = np.concatenate([np.linspace(0.0, 1.0, rise_n), np.linspace(1.0, 0.0, decay_n)])
    return TimeSeries(np.tile(one, beats), fs)


class TestCorrectPolarity:
    def test_fast_rise_unchanged(self):
        wave = sawtooth_pulse_series()
        out, inverted = correct_polarity(wave)
        assert not inverted
        assert np.array_equal(out.samples, wave.samples)

    def test_negated_restored(self):
        wave = sawtooth_pulse_series()
        flipped = wave.with_samples(-wave.samples)
        out, inverted = correct_polarity(flipped)
        assert inverted
        assert_allclose(out.samples, wave.samples, atol=1e-12)

    def test_symmetric_triangle_unchanged(self):
        wave = sawtooth_pulse_series(rise_s=0.5, decay_s=0.5)
        out, inverted = correct_polarity(wave)
        assert not inverted

    def test_insufficient_beats(self):
        two = sawtooth_pulse_series(beats=2).samples
        padded = TimeSeries(np.concatenate([two, np.zeros(int(2 * FS))]), FS)
        with pytest.raises(ValueError, match="insufficient beats"):
            correct_polarity(padded)


class TestProcessRadar:
    def test_too_short(self):
        cube = RadarCube(np.random.default_rng(0).standard_normal((100, 1, 1, 8)))
        with pytest.raises(ValueError, match="recording too short"):
            process_radar(cube)

    def test_flat_cube_degrades_gracefully(self):
        displacement = TimeSeries(np.zeros(int(12 * FS)), FS)
        cube = synth_radar_cube(displacement, SMALL_GEOM, snr_db=None, seed=0)
        waveform, _ = process_radar(cube)
        train = detect_peaks(waveform)
        assert train.systolic_indices.size == 0
        anchors, intervals = extract_ibi(train)
        assert intervals.size == 0 and anchors.size == 0

    def test_noise_only_cube_completes(self):
        rng = np.random.default_rng(7)
        cube = RadarCube(rng.standard_normal((int(12 * FS), 2, 2, 16)))
        waveform, _ = process_radar(cube)
        train = detect_peaks(waveform)
        anchors, intervals = extract_ibi(train)  # must not raise
        assert anchors.size == intervals.size

    def test_phase_scale_lambda_8(self):
        t = np.arange(int(30 * FS)) / FS
        displacement = TimeSeries((WAVELENGTH / 8.0) * np.sin(2 * np.pi * t), FS)
        cube = synth_radar_cube(displacement, SMALL_GEOM, snr_db=None, seed=5)
        waveform, _ = process_radar(cube)
        amp = tone_amplitude(waveform.samples, FS, 1.0) / zero_phase_gain(1.0, FS)
        assert abs(amp - math.pi / 2.0) <= 0.03 * math.pi / 2.0

    def test_phase_displacement_linearity(self):
        t = np.arange(int(30 * FS)) / FS
        gains = []
        for denom in (64, 48, 32, 16):
            displacement = TimeSeries((WAVELENGTH / denom) * np.sin(2 * np.pi * t), FS)
            cube = synth_radar_cube(displacement, SMALL_GEOM, snr_db=None, seed=6)
            waveform, _ = process_radar(cube)
            amp = tone_amplitude(waveform.samples, FS, 1.0)
            gains.append(amp / (4 * np.pi * (WAVELENGTH / denom) / WAVELENGTH))
        gains = np.array(gains)
        assert np.ptp(gains) / gains.mean() <= 0.02

    def test_deterministic(self):
        waveform, _ = generate_waveform(PulseModel(), 12.0, FS, seed=3)
        displacement = waveform.with_samples(waveform.samples * 1e-4)
        cube = synth_radar_cube(displacement, SMALL_GEOM, snr_db=25.0, seed=3)
        (w1, s1), (w2, s2) = process_radar(cube), process_radar(cube)
        assert np.array_equal(w1.samples, w2.samples)
        assert s1 == s2

    def test_scale_invariance_of_selection(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            waveform, _ = generate_waveform(
                PulseModel(ibi_sd_ms=float(rng.uniform(0, 50))), 10.0, 50.0,
                seed=int(rng.integers(1 << 31)),
            )
            geom = CubeGeometry(antennas=2, chirps=2, samples=16,
                                target_antenna=int(rng.integers(2)), target_range_bin=3)
            displacement = waveform.with_samples(waveform.samples * 1e-4)
            cube = synth_radar_cube(displacement, geom, snr_db=30.0, seed=int(rng.integers(1 << 31)))
            scale = float(rng.uniform(0.01, 100.0))
            scaled = RadarCube(cube.data * scale, cube.frame_rate_hz,
                               cube.fast_time_rate_hz, cube.carrier_hz)
            _, sel_a = process_radar(cube)
            _, sel_b = process_radar(scaled)
            assert (sel_a.antenna_index, sel_a.range_bin) == (sel_b.antenna_index, sel_b.range_bin)

    def test_frame_reversal_reverses_phase_pipeline(self):
        waveform, _ = generate_waveform(PulseModel(), 15.0, FS, seed=4)
        displacement = waveform.with_samples(waveform.samples * 1e-4)
        cube = synth_radar_cube(displacement, SMALL_GEOM, snr_db=None, seed=4)
        reversed_cube = RadarCube(
            cube.data[::-1].copy(), cube.frame_rate_hz, cube.fast_time_rate_hz, cube.carrier_hz
        )
        fwd = phase_per_bin(extract_slow_time(chirp_mean_removal(cube.data)), FS)
        rev = phase_per_bin(extract_slow_time(chirp_mean_removal(reversed_cube.data)), FS)
        n = fwd.shape[2]
        margin = int(0.05 * n)
        core = slice(margin, n - margin)
        a = fwd[0, 7][core]
        b = rev[0, 7][::-1][core]
        # forward-backward filtering is time-symmetric up to float
        # accumulation order
        assert np.abs(a - b).max() <= 1e-6 * max(np.ptp(a), 1e-12)

    def test_full_pipeline_matches_fused_path(self):
        waveform, _ = generate_waveform(PulseModel(), 12.0, FS, seed=8)
        displacement = waveform.with_samples(waveform.samples * 1e-4)
        cube = synth_radar_cube(displacement, SMALL_GEOM, snr_db=30.0, seed=8)
        composed = phase_per_bin(extract_slow_time(chirp_mean_removal(cube.data)), FS)
        phase, sel = process_radar(cube)
        direct = composed[sel.antenna_index, sel.range_bin]
        sign = -1.0 if sel.inverted else 1.0
        assert_allclose(phase.samples, sign * direct, atol=1e-9)

    def test_non_finite_sample_names_first_frame(self):
        rng = np.random.default_rng(12)
        data = rng.standard_normal((int(12 * FS), 3, 16, 64), dtype=np.float32)
        assert radar.BLOCK_SAMPLES // (3 * 16 * 64) < 1500  # not in the first block
        data[2000, 2, 5, 9] = np.inf
        data[1500, 0, 3, 1] = np.nan
        with pytest.raises(ValueError, match="^non-finite sample in frame 1500$"):
            process_radar(RadarCube(data))

    @pytest.mark.parametrize(
        "bad, frame",
        [
            # a later antenna's bad frame comes before the first antenna's
            ({(1500, 0): np.nan, (100, 2): np.inf}, 100),
            ({(900, 1): -np.inf, (300, 2): np.nan}, 300),
            # the first antenna's bad frame is the first
            ({(100, 0): np.inf, (1500, 2): np.nan}, 100),
            # two antennas share the first bad frame, in a later block
            ({(700, 1): np.nan, (700, 2): np.inf, (2300, 0): np.nan}, 700),
        ],
    )
    def test_non_finite_sample_names_first_frame_across_antennas(self, bad, frame):
        data = np.random.default_rng(18).standard_normal((int(12 * FS), 3, 16, 64), dtype=np.float32)
        assert radar.BLOCK_SAMPLES // (3 * 16 * 64) < 100  # not in the first block
        for (f, a), value in bad.items():
            data[f, a, 7, 11] = value
        with pytest.raises(ValueError, match=f"^non-finite sample in frame {frame}$"):
            process_radar(RadarCube(data))

    def test_release_frames_follows_the_reduction(self, monkeypatch):
        # one pass over the frames per antenna, each releasing contiguous
        # block ranges that cover every frame
        monkeypatch.setattr(radar, "BLOCK_SAMPLES", 1000)
        released = []
        data = np.random.default_rng(14).standard_normal((int(12 * FS), 3, 4, 16))
        process_radar(RadarCube(data, release_frames=lambda a, b: released.append((a, b))))
        passes = [i for i, (start, _) in enumerate(released) if start == 0]
        assert len(passes) == data.shape[1]
        for first, end in zip(passes, passes[1:] + [len(released)]):
            starts, stops = zip(*released[first:end])
            assert starts[0] == 0 and stops[-1] == data.shape[0]
            assert starts[1:] == stops[:-1]
            assert max(b - a for a, b in released[first:end]) == 1000 // (3 * 4 * 16)

    def test_traced_peak_is_one_phase_tensor(self):
        # one antenna's phase rows, the kept best row and one block
        waveform, _ = generate_waveform(PulseModel(), 20.0, FS, seed=16)
        displacement = waveform.with_samples(waveform.samples * 1e-4)
        cube = synth_radar_cube(displacement, CubeGeometry(), snr_db=20.0, seed=16)
        tensor = len(radar.searchable_bins(cube.n_samples)) * cube.n_frames * 8
        tracemalloc.start()
        try:
            process_radar(cube)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= tensor + cube.n_frames * 8 + radar.BLOCK_SAMPLES * 8

    def test_filters_searchable_rows_only(self, call_log):
        # 3 antennas x bins 1..31 of a 64-sample chirp: bins 0 and 32
        # are never reduced or filtered. Every searchable bin carries
        # the same phase row, so each ties the best and none may be
        # skipped.
        calls = call_log(signal_core.bandpass_array)
        process_radar(RadarCube(_equal_rows_data(int(12 * FS), antennas=3, samples=64)))
        assert len(calls) == 93

    def test_skips_rows_that_cannot_win(self, call_log):
        # at 20 dB the target's row lets most noise rows be skipped
        calls = call_log(signal_core.bandpass_array)
        waveform, _ = generate_waveform(PulseModel(), 12.0, FS, seed=13)
        cube = synth_radar_cube(waveform.with_samples(waveform.samples * 1e-4), CubeGeometry(), 20.0, 13)
        _, sel = process_radar(cube)
        assert (sel.antenna_index, sel.range_bin) == (1, 7)
        assert 0 < len(calls) < 93

    def test_invalid_band_still_raises(self):
        cube = _oracle_cube(3, 4, 32, (0, 9), 29)
        with pytest.raises(ValueError, match="invalid cutoff"):
            process_radar(cube, BandpassSpec(4, 0.5, 100.0))

    def test_block_size_does_not_change_result(self, monkeypatch):
        waveform, _ = generate_waveform(PulseModel(), 12.0, FS, seed=13)
        displacement = waveform.with_samples(waveform.samples * 1e-4)
        cube = synth_radar_cube(displacement, SMALL_GEOM, snr_db=20.0, seed=13)
        whole, whole_sel = process_radar(cube)
        monkeypatch.setattr(radar, "BLOCK_SAMPLES", 1000)
        blocked, blocked_sel = process_radar(cube)
        assert np.array_equal(blocked.samples, whole.samples)
        assert blocked_sel == whole_sel


def _oracle_cube(antennas, chirps, samples, target, seed, twin=False, snr_db=20.0, duration_s=12.0, fs=FS,
                 flat=False):
    waveform, _ = generate_waveform(PulseModel(), duration_s, fs, seed=seed)
    displacement = waveform.with_samples(waveform.samples * 1e-4)
    geometry = CubeGeometry(antennas, chirps, samples, target_antenna=target[0], target_range_bin=target[1])
    cube = synth_radar_cube(displacement, geometry, snr_db=snr_db, seed=seed)
    if twin:
        # antenna 2 a copy of antenna 0: every cell of one ties with the
        # same cell of the other
        cube.data[:, 2] = cube.data[:, 0]
    if flat:
        cube.data[:] = 0.25
    return cube


def _equal_rows_data(n_frames, antennas, samples):
    """Cube data whose every searchable range bin has the same pulsating
    phase: each chirp is the real signal whose bins 1 .. ceil(N/2) - 1
    all equal exp(1j * phase), and bin 0 and any Nyquist bin are 0."""
    t = np.arange(n_frames) / FS
    phase = 2.0 * np.sin(2.0 * np.pi * 1.1 * t)
    bins = np.arange(1, (samples + 1) // 2)
    comb = np.exp(2j * np.pi * bins[:, None] * np.arange(samples)[None, :] / samples).sum(axis=0)
    chirp = (np.exp(1j * phase)[:, None] * comb[None, :]).real * (2.0 / samples)
    return np.repeat(chirp[:, None, None, :], antennas, axis=1).astype(np.float32)


class TestOneAntennaAtATime:
    @pytest.mark.parametrize(
        "geometry, max_bins, expected, options",
        [
            pytest.param((1, 4, 32, (0, 5), 21), 0, (0, 5), {}, id="1-antenna"),
            pytest.param((3, 16, 64, (1, 7), 22), 0, (1, 7), {}, id="3-antennas"),
            pytest.param((3, 4, 32, (2, 9), 23), 0, (2, 9), {}, id="target-in-last"),
            pytest.param((8, 2, 16, (5, 3), 24), 0, (5, 3), {}, id="8-antennas"),
            pytest.param((3, 3, 15, (1, 6), 25), 0, (1, 6), {}, id="odd-chirp"),
            pytest.param((3, 4, 32, (1, 9), 26), 5, None, {}, id="max-bins-cap"),
            pytest.param((3, 4, 32, (0, 6), 27, True), 0, (0, 6), {}, id="tie-to-antenna-0"),
            # rows skipped by the gain bound change no bit: at each
            # noise level, with the target in the first, middle and
            # last antenna (at 0 dB a noise cell may win)
            *(
                pytest.param((3, 4, 32, (antenna, 9), 30 + antenna), 0, None if snr == 0.0 else (antenna, 9),
                             {"snr_db": snr}, id=f"{snr}dB-target-in-{antenna}")
                for snr in (0.0, 10.0, 20.0, 40.0, None)
                for antenna in (0, 1, 2)
            ),
            pytest.param((3, 4, 32, (0, 9), 33), 0, (0, 1), {"flat": True}, id="flat"),
            pytest.param((3, 4, 32, (0, 9), 34), 0, (0, 9), {"duration_s": 10.0}, id="10s-padding-capped"),
            pytest.param((3, 4, 32, (2, 9), 35), 0, (2, 9), {"fs": 50.0, "duration_s": 30.0}, id="50Hz"),
        ],
    )
    def test_bits_equal_whole_tensor_path(self, geometry, max_bins, expected, options):
        cube = _oracle_cube(*geometry, **options)
        samples, selection = process_radar_whole_tensor(cube, max_bins=max_bins)
        waveform, sel = process_radar(cube, max_bins=max_bins)
        assert np.array_equal(waveform.samples, samples)
        assert sel == selection
        if expected is not None:
            assert (selection.antenna_index, selection.range_bin) == expected
        if max_bins:
            assert selection.range_bin < max_bins

    def test_bits_equal_whole_tensor_path_in_small_blocks(self, monkeypatch):
        monkeypatch.setattr(radar, "BLOCK_SAMPLES", 1000)
        cube = _oracle_cube(3, 4, 16, (2, 3), 28)
        samples, selection = process_radar_whole_tensor(cube)
        waveform, sel = process_radar(cube)
        assert np.array_equal(waveform.samples, samples)
        assert sel == selection
