import numpy as np
import pytest
from numpy.testing import assert_allclose

from pulsecmp.beats import align_beat_events, detect_peaks, event_train
from pulsecmp.ppg import PpgRecording, default_channel, process_ppg
from pulsecmp.signal_core import TimeSeries, butterworth_bandpass
from pulsecmp.synth import PulseModel, generate_waveform, synth_ppg

FS = 200.0


def synth_recording(duration_s=60.0, seed=0, noise_sd=0.0, tau=0.25, drift_amp=0.0):
    waveform, truth = generate_waveform(PulseModel(), duration_s, FS, seed)
    rec = synth_ppg(
        waveform, decay_tau_s=tau, noise_sd=noise_sd, seed=seed, drift_amp_counts=drift_amp
    )
    return rec, truth


class TestPpgRecording:
    def test_requires_channel(self):
        with pytest.raises(ValueError):
            PpgRecording(channels={})

    def test_rate_mismatch_rejected(self):
        with pytest.raises(ValueError, match="share one sample rate"):
            PpgRecording(
                channels={
                    "a": TimeSeries(np.zeros(10), 100.0),
                    "b": TimeSeries(np.zeros(10), 200.0),
                }
            )

    def test_default_channel_prefers_green(self):
        ts = TimeSeries(np.zeros(10), FS)
        assert default_channel(PpgRecording(channels={"red_0": ts, "green_0": ts})) == "green_0"
        assert default_channel(PpgRecording(channels={"red_0": ts, "blue_0": ts})) == "blue_0"


class TestProcessPpg:
    def test_constant_channel_no_beats(self):
        rec = PpgRecording(channels={"green_0": TimeSeries(np.full(int(15 * FS), 9999.0), FS)})
        out = process_ppg(rec)
        assert np.abs(out.samples).max() == 0.0
        train = detect_peaks(out)
        assert train.systolic_indices.size == 0

    def test_missing_channel_lists_available(self):
        rec = PpgRecording(channels={"green_0": TimeSeries(np.zeros(int(15 * FS)), FS)})
        with pytest.raises(ValueError, match="green_0"):
            process_ppg(rec, channel="infrared_3")

    def test_too_short(self):
        rec = PpgRecording(channels={"green_0": TimeSeries(np.zeros(int(5 * FS)), FS)})
        with pytest.raises(ValueError, match="too short"):
            process_ppg(rec)

    def test_diastolic_feet_within_10ms_of_truth(self):
        rec, truth = synth_recording(duration_s=60.0, seed=1, noise_sd=0.0, drift_amp=0.0)
        out = process_ppg(rec)
        train = detect_peaks(out)
        truth_train = event_train(truth.beat_times_s, FS)
        lag, pairs = align_beat_events(truth_train, train)
        assert len(pairs) >= truth.beat_times_s.size - 3
        residuals = [
            train.diastolic_times()[j] - lag - truth.beat_times_s[i] for i, j in pairs
        ]
        assert np.abs(residuals).max() <= 0.010 + 1e-9

    def test_affine_invariance(self):
        waveform, _ = generate_waveform(PulseModel(), 20.0, FS, 2)
        rec = PpgRecording(channels={"green_0": waveform})
        base = process_ppg(rec)
        scaled = PpgRecording(
            channels={"green_0": waveform.with_samples(3.5 * waveform.samples + 2.0)}
        )
        out = process_ppg(scaled)
        rel = np.abs(out.samples - 3.5 * base.samples).max() / np.abs(base.samples).max()
        assert rel <= 1e-9

    def test_shared_filter_path(self):
        rec, _ = synth_recording(duration_s=20.0, seed=3)
        chan = rec.channels["green_0"]
        # the chain stops at the band-pass; orientation is the shared step
        assert_allclose(process_ppg(rec).samples, butterworth_bandpass(chan).samples, atol=0)
