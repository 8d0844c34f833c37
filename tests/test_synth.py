import math
import tracemalloc
from collections import deque

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pulsecmp import radar
from pulsecmp.beats import detect_peaks, segment_beats_indexed
from pulsecmp.config import PipelineConfig
from pulsecmp.formats import write_radar_cube
from pulsecmp.metrics import auc_normalized, count_inflections, map_from_bp
from pulsecmp.radar import process_radar
from pulsecmp.report import condition_modality, simulate_bundle
from pulsecmp.signal_core import TimeSeries
from pulsecmp.synth import (
    CubeGeometry,
    PulseModel,
    generate_waveform,
    synth_ppg,
    synth_radar_cube,
    synth_radar_stream,
    synth_reference,
)

from oracles import (
    count_extrema_dense,
    synth_blocks_five_pass,
    three_bump_wave,
    tone_amplitude,
    waveform_by_mask,
    zero_phase_gain,
)

FS = 200.0
WAVELENGTH = 299792458.0 / 60e9


class TestPulseModel:
    def test_defaults_valid(self):
        PulseModel()

    def test_validation(self):
        with pytest.raises(ValueError):
            PulseModel(hr_mean_bpm=0.0)
        with pytest.raises(ValueError):
            PulseModel(systolic_center=0.5, augmentation_center=0.4)
        with pytest.raises(ValueError):
            PulseModel(systolic_width=0.0)


class TestGenerateWaveform:
    def test_preconditions(self):
        with pytest.raises(ValueError):
            generate_waveform(PulseModel(), 5.0, FS, 0)
        with pytest.raises(ValueError):
            generate_waveform(PulseModel(), 20.0, 20.0, 0)

    def test_single_bump_when_others_zero(self):
        model = PulseModel(augmentation_amp=0.0, dicrotic_amp=0.0, ibi_sd_ms=0.0)
        waveform, truth = generate_waveform(model, 20.0, FS, 0)
        train = detect_peaks(waveform)
        for shape in segment_beats_indexed(waveform, train).shapes:
            assert count_inflections(shape) == 1

    def test_default_model_five_extrema(self):
        assert count_extrema_dense(three_bump_wave) == 5
        model = PulseModel(ibi_sd_ms=0.0)
        waveform, truth = generate_waveform(model, 20.0, FS, 0)
        train = detect_peaks(waveform)
        counts = [count_inflections(s) for s in segment_beats_indexed(waveform, train).shapes]
        assert counts and all(c == 5 for c in counts)

    def test_zero_jitter_exactly_periodic(self):
        model = PulseModel(hr_mean_bpm=60.0, ibi_sd_ms=0.0)
        _, truth = generate_waveform(model, 30.0, FS, 1)
        assert_allclose(np.diff(truth.beat_times_s), 1.0, atol=1e-12)

    def test_ibi_distribution(self):
        model = PulseModel(hr_mean_bpm=62.0, ibi_sd_ms=30.0)
        _, truth = generate_waveform(model, 300.0, FS, 5)
        intervals = np.diff(truth.beat_times_s) * 1000.0
        assert abs(intervals.mean() - 60000.0 / 62.0) < 10.0
        assert abs(intervals.std() - 30.0) < 6.0

    def test_determinism(self):
        a, ta = generate_waveform(PulseModel(), 15.0, FS, 42)
        b, tb = generate_waveform(PulseModel(), 15.0, FS, 42)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(ta.beat_times_s, tb.beat_times_s)

    @pytest.mark.parametrize(
        "seed, duration_s, fs_hz, hr_bpm",
        [(1, 60.0, 200.0, 62.0), (7, 10.0, 50.0, 62.0), (23, 37.3, 125.0, 140.0),
         (99, 120.0, 200.0, 45.0)],
    )
    def test_matches_mask_oracle(self, seed, duration_s, fs_hz, hr_bpm):
        model = PulseModel(hr_mean_bpm=hr_bpm)
        waveform, truth = generate_waveform(model, duration_s, fs_hz, seed)
        samples, systolic = waveform_by_mask(model, duration_s, fs_hz, seed)
        assert np.array_equal(waveform.samples, samples)
        assert np.array_equal(truth.systolic_times_s, systolic)

    def test_truth_counts_systolic_instants(self):
        _, truth = generate_waveform(PulseModel(ibi_sd_ms=0.0, hr_mean_bpm=60.0), 20.0, FS, 0)
        assert truth.systolic_times_s.size == truth.beat_times_s.size
        assert_allclose(
            truth.systolic_times_s[:-1], truth.beat_times_s[:-1] + 0.18, atol=1e-9
        )


class TestCubeGeometry:
    def test_odd_chirp_length_target_on_last_bin(self):
        # bins 0, 1, 2 of a 5-sample chirp: bin 2 is not a Nyquist bin
        assert CubeGeometry(samples=5, target_range_bin=2).target_range_bin == 2

    @pytest.mark.parametrize("samples, target", [(64, 0), (64, 32), (5, 3), (4, 2), (2, 1)])
    def test_target_outside_the_search_rejected(self, samples, target):
        with pytest.raises(ValueError, match="searchable range bin|no informative range bin"):
            CubeGeometry(samples=samples, target_range_bin=target)


class TestSynthRadarCube:
    def test_phase_ambiguity_guard(self):
        displacement = TimeSeries(np.full(int(12 * FS), WAVELENGTH / 3.0), FS)
        with pytest.raises(ValueError, match="phase ambiguity"):
            synth_radar_cube(displacement, CubeGeometry(), None, 0)

    def test_lambda_8_amplitude(self):
        t = np.arange(int(30 * FS)) / FS
        displacement = TimeSeries((WAVELENGTH / 8) * np.sin(2 * np.pi * t), FS)
        geom = CubeGeometry(antennas=1, chirps=4, samples=64, target_antenna=0)
        cube = synth_radar_cube(displacement, geom, None, 1)
        result = process_radar(cube)
        amp = tone_amplitude(result.waveform.samples, FS, 1.0) / zero_phase_gain(1.0, FS)
        assert abs(amp - math.pi / 2) <= 0.03 * math.pi / 2

    def test_noise_free_selects_target(self):
        waveform, truth = generate_waveform(PulseModel(), 15.0, FS, 2)
        displacement = waveform.with_samples(waveform.samples * 1e-4)
        geom = CubeGeometry()
        cube = synth_radar_cube(displacement, geom, None, 2)
        result = process_radar(cube)
        assert (result.selection.antenna_index, result.selection.range_bin) == (
            geom.target_antenna,
            geom.target_range_bin,
        )

    def test_determinism(self):
        waveform, _ = generate_waveform(PulseModel(), 12.0, FS, 3)
        displacement = waveform.with_samples(waveform.samples * 1e-4)
        geom = CubeGeometry(antennas=2, chirps=2, samples=32)
        c1 = synth_radar_cube(displacement, geom, 20.0, 3)
        c2 = synth_radar_cube(displacement, geom, 20.0, 3)
        assert np.array_equal(c1.data, c2.data)

    def test_block_size_does_not_change_cube(self, monkeypatch):
        waveform, _ = generate_waveform(PulseModel(), 12.0, FS, 4)
        displacement = waveform.with_samples(waveform.samples * 1e-4)
        geom = CubeGeometry(antennas=2, chirps=3, samples=16)
        whole = synth_radar_cube(displacement, geom, 20.0, 4)
        monkeypatch.setattr(radar, "BLOCK_SAMPLES", 500)
        blocked = synth_radar_cube(displacement, geom, 20.0, 4)
        assert whole.data.dtype == np.float32
        assert np.array_equal(blocked.data, whole.data)

    @pytest.mark.parametrize("snr_db", [20.0, None])
    @pytest.mark.parametrize("geom", [CubeGeometry(), CubeGeometry(antennas=2, chirps=3, samples=16)])
    def test_blocks_match_whole_block_passes(self, monkeypatch, geom, snr_db):
        waveform, _ = generate_waveform(PulseModel(), 12.0, FS, 4)
        displacement = waveform.with_samples(waveform.samples * 1e-4)
        monkeypatch.setattr(radar, "BLOCK_SAMPLES", 500)
        blocks = list(synth_radar_stream(displacement, geom, snr_db, 4).blocks)
        expected = synth_blocks_five_pass(displacement, geom, snr_db, 4)
        assert len(blocks) == len(expected)
        assert all(np.array_equal(b, e) for b, e in zip(blocks, expected))

    @staticmethod
    def traced_stream_peak(duration_s, consume) -> tuple[int, int]:
        """tracemalloc peak of ``consume(stream)`` on a default-geometry
        stream, and its bound: one float32 block, one float64 antenna
        slice, and slack for the target antenna's tone and the float64
        cast buffer."""
        waveform, _ = generate_waveform(PulseModel(), duration_s, FS, 6)
        geom = CubeGeometry()
        stream = synth_radar_stream(waveform.with_samples(waveform.samples * 1e-4), geom, 20.0, 6)
        frame = geom.antennas * geom.chirps * geom.samples
        frames = radar.BLOCK_SAMPLES // frame
        block = frames * frame * 4
        antenna_slice = frames * geom.chirps * geom.samples * 8
        tracemalloc.start()
        try:
            consume(stream)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, block + antenna_slice + 256 * 1024

    def test_traced_peak_is_one_block(self):
        # each block dropped once taken
        peak, bound = self.traced_stream_peak(20.0, lambda stream: deque(stream.blocks, maxlen=0))
        assert peak <= bound

    def test_writing_a_stream_holds_one_block(self, tmp_path):
        # the writer lets each block go once written, before the next is drawn
        path = str(tmp_path / "cube.radc")
        peak, bound = self.traced_stream_peak(10.0, lambda stream: write_radar_cube(stream, path))
        assert peak <= bound

    def test_non_finite_snr_is_rejected(self):
        waveform, _ = generate_waveform(PulseModel(), 12.0, FS, 3)
        displacement = waveform.with_samples(waveform.samples * 1e-4)
        geom = CubeGeometry(antennas=2, chirps=2, samples=32)
        for snr_db in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="^snr_db must be finite$"):
                synth_radar_cube(displacement, geom, snr_db, 3)
        # None still means no noise: antenna 0 carries static clutter only
        clean = synth_radar_cube(displacement, geom, None, 3)
        noisy = synth_radar_cube(displacement, geom, 20.0, 3)
        assert np.ptp(clean.data[:, 0], axis=0).max() == 0.0
        assert np.ptp(noisy.data[:, 0], axis=0).max() > 0.0

    def test_stream_is_checked_before_any_block_is_drawn(self):
        waveform, _ = generate_waveform(PulseModel(), 12.0, FS, 3)
        geom = CubeGeometry(antennas=2, chirps=2, samples=32)
        # raised by the call itself, not on the first block
        with pytest.raises(ValueError, match="^phase ambiguity$"):
            synth_radar_stream(waveform.with_samples(waveform.samples * 0.01), geom)
        with pytest.raises(ValueError, match="^snr_db must be finite$"):
            synth_radar_stream(waveform.with_samples(waveform.samples * 1e-4), geom, math.nan)

    def test_phase_linearity(self):
        t = np.arange(int(20 * FS)) / FS
        geom = CubeGeometry(antennas=1, chirps=2, samples=32, target_antenna=0)
        amps = []
        for denom in (32, 16):
            displacement = TimeSeries((WAVELENGTH / denom) * np.sin(2 * np.pi * t), FS)
            cube = synth_radar_cube(displacement, geom, None, 4)
            amps.append(tone_amplitude(process_radar(cube).waveform.samples, FS, 1.0))
        assert abs(amps[1] / amps[0] - 2.0) <= 0.04

    def test_metadata_records_target(self):
        waveform, _ = generate_waveform(PulseModel(), 12.0, FS, 5)
        cube = synth_radar_cube(waveform.with_samples(waveform.samples * 1e-4), CubeGeometry(), None, 5)
        assert cube.metadata["target_antenna"] == "1"
        assert cube.metadata["target_range_bin"] == "7"


class TestSynthPpg:
    def test_delta_kernel_limit(self):
        waveform, _ = generate_waveform(PulseModel(), 15.0, FS, 6)
        rec = synth_ppg(waveform, decay_tau_s=1e-4, noise_sd=0.0, drift_amp_counts=0.0)
        chan = rec.channels["green_0"]
        assert_allclose(chan.samples, waveform.samples + 10000.0, atol=1e-9)

    def test_slow_decay_inflates_auc(self):
        waveform, truth = generate_waveform(PulseModel(), 60.0, FS, 7)
        rec = synth_ppg(waveform, decay_tau_s=0.25, noise_sd=0.0, seed=7)
        ppg_wave, ppg_train, _ = condition_modality("ppg", rec, PipelineConfig())
        ppg_auc = np.mean(
            [auc_normalized(s) for s in segment_beats_indexed(ppg_wave, ppg_train).shapes]
        )
        truth_train = detect_peaks(waveform)
        truth_auc = np.mean(
            [auc_normalized(s) for s in segment_beats_indexed(waveform, truth_train).shapes]
        )
        assert ppg_auc > truth_auc

    def test_determinism(self):
        waveform, _ = generate_waveform(PulseModel(), 12.0, FS, 8)
        a = synth_ppg(waveform, noise_sd=2.0, seed=8)
        b = synth_ppg(waveform, noise_sd=2.0, seed=8)
        assert np.array_equal(a.channels["green_0"].samples, b.channels["green_0"].samples)

    def test_bad_tau(self):
        waveform, _ = generate_waveform(PulseModel(), 12.0, FS, 9)
        with pytest.raises(ValueError):
            synth_ppg(waveform, decay_tau_s=0.0)


class TestSynthReference:
    def test_per_beat_extrema_exact(self):
        waveform, truth = generate_waveform(PulseModel(), 30.0, FS, 10)
        ref = synth_reference(waveform, 120.0, 80.0, truth.beat_times_s)
        assert ref.samples.min() >= 80.0 - 1e-9
        assert ref.samples.max() <= 120.0 + 1e-9
        fs = FS
        feet = np.round(truth.beat_times_s * fs).astype(int)
        for a, b in zip(feet[1:-1], feet[2:-1]):
            seg = ref.samples[a:b]
            assert_allclose(seg.min(), 80.0, atol=1e-9)
            assert_allclose(seg.max(), 120.0, atol=1e-9)

    def test_map_chain(self):
        waveform, truth = generate_waveform(PulseModel(), 20.0, FS, 11)
        ref = synth_reference(waveform, 120.0, 80.0, truth.beat_times_s)
        assert_allclose(
            map_from_bp(ref.samples.max(), ref.samples.min()), 80.0 + 40.0 / 3.0, atol=1e-6
        )

    def test_no_boundaries_map_the_record_as_one_beat(self):
        waveform, truth = generate_waveform(PulseModel(), 12.0, FS, 13)
        y = waveform.samples
        expected = 80.0 + 40.0 * (y - y.min()) / (y.max() - y.min())
        assert np.array_equal(synth_reference(waveform, 120.0, 80.0).samples, expected)
        one = synth_reference(waveform, 120.0, 80.0, truth.beat_times_s[:1])
        assert np.array_equal(one.samples, expected)

    def test_degenerate_flat(self):
        flat = TimeSeries(np.ones(int(12 * FS)), FS)
        with pytest.raises(ValueError, match="degenerate waveform"):
            synth_reference(flat, 120.0, 80.0)

    def test_invalid_pressures(self):
        waveform, _ = generate_waveform(PulseModel(), 12.0, FS, 12)
        with pytest.raises(ValueError, match="invalid pressures"):
            synth_reference(waveform, 80.0, 120.0)


class TestBeatCountInvariant:
    def test_ten_seed_suite_at_snr_20(self):
        from pulsecmp.selftest import RECOVERY_SEEDS

        for seed in RECOVERY_SEEDS:
            config = PipelineConfig(synth_seed=seed, synth_duration_s=60.0, synth_snr_db=20.0)
            bundle = simulate_bundle(config)
            result = process_radar(bundle.radar)
            train = detect_peaks(result.waveform)
            assert train.systolic_indices.size == bundle.truth.systolic_times_s.size, (
                f"seed {seed}"
            )
