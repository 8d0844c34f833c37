import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pulsecmp import radar
from pulsecmp.beats import detect_peaks, segment_beats_indexed
from pulsecmp.config import PipelineConfig
from pulsecmp.metrics import auc_normalized, count_inflections, map_from_bp
from pulsecmp.ppg import process_ppg
from pulsecmp.radar import process_radar
from pulsecmp.report import simulate_bundle
from pulsecmp.signal_core import TimeSeries
from pulsecmp.synth import (
    CubeGeometry,
    PulseModel,
    generate_waveform,
    synth_ppg,
    synth_radar_cube,
    synth_reference,
)

from oracles import (
    count_extrema_dense,
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
        for shape in segment_beats_indexed(waveform, train)[1]:
            assert count_inflections(shape) == 1

    def test_default_model_five_extrema(self):
        assert count_extrema_dense(three_bump_wave) == 5
        model = PulseModel(ibi_sd_ms=0.0)
        waveform, truth = generate_waveform(model, 20.0, FS, 0)
        train = detect_peaks(waveform)
        counts = [count_inflections(s) for s in segment_beats_indexed(waveform, train)[1]]
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

    def test_infinite_snr_means_no_noise(self):
        waveform, _ = generate_waveform(PulseModel(), 12.0, FS, 3)
        displacement = waveform.with_samples(waveform.samples * 1e-4)
        geom = CubeGeometry(antennas=2, chirps=2, samples=32)
        clean = synth_radar_cube(displacement, geom, None, 3)
        inf = synth_radar_cube(displacement, geom, math.inf, 3)
        assert np.array_equal(clean.data, inf.data)

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
        ppg_wave = process_ppg(rec)
        ppg_train = detect_peaks(ppg_wave)
        ppg_auc = np.mean(
            [auc_normalized(s) for s in segment_beats_indexed(ppg_wave, ppg_train)[1]]
        )
        truth_train = detect_peaks(waveform)
        truth_auc = np.mean(
            [auc_normalized(s) for s in segment_beats_indexed(waveform, truth_train)[1]]
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
