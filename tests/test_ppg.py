import numpy as np
import pytest
from numpy.testing import assert_allclose

from pulsecmp.beats import align_beat_events, orient_and_detect
from pulsecmp.config import PipelineConfig
from pulsecmp.ppg import PpgRecording
from pulsecmp.report import condition_modality
from pulsecmp.signal_core import TimeSeries, butterworth_bandpass
from pulsecmp.synth import PulseModel, generate_waveform, synth_ppg

FS = 200.0


def ppg_chain(rec, channel=""):
    config = PipelineConfig(ppg_channel=channel)
    waveform, train, _ = condition_modality("ppg", rec, config)
    return waveform, train


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
        # the CSV form has one time column, so every channel shares it:
        # a second channel differing in rate, start time or length fails
        for other in (
            TimeSeries(np.zeros(10), 200.0),
            TimeSeries(np.zeros(10), 100.0, start_time_s=5.0),
            TimeSeries(np.zeros(12), 100.0),
        ):
            with pytest.raises(ValueError, match="share one sample rate, start time and length"):
                PpgRecording(channels={"a": TimeSeries(np.zeros(10), 100.0), "b": other})

    def test_default_channel_prefers_green(self):
        red, green, blue = (TimeSeries(np.full(10, v), FS) for v in (0.0, 1.0, 2.0))
        assert PpgRecording(channels={"red_0": red, "green_0": green}).channel() is green
        # without green_0, the alphabetically first channel
        assert PpgRecording(channels={"red_0": red, "blue_0": blue}).channel() is blue

    def test_channel_lookup(self):
        green, red = TimeSeries(np.zeros(10), FS), TimeSeries(np.ones(10), FS)
        rec = PpgRecording(channels={"red_0": red, "green_0": green})
        assert rec.channel() is green
        assert rec.channel("red_0") is red


class TestProcessPpg:
    def test_constant_channel_no_beats(self):
        rec = PpgRecording(channels={"green_0": TimeSeries(np.full(int(15 * FS), 9999.0), FS)})
        out, train = ppg_chain(rec)
        assert np.abs(out.samples).max() == 0.0
        assert train.systolic_indices.size == 0

    def test_missing_channel_lists_available(self):
        rec = PpgRecording(channels={"green_0": TimeSeries(np.zeros(int(15 * FS)), FS)})
        with pytest.raises(ValueError, match="^channel 'infrared_3' not found; available: green_0$"):
            ppg_chain(rec, channel="infrared_3")

    def test_too_short(self):
        rec = PpgRecording(channels={"green_0": TimeSeries(np.zeros(int(5 * FS)), FS)})
        with pytest.raises(ValueError, match="too short"):
            ppg_chain(rec)

    def test_diastolic_feet_within_10ms_of_truth(self):
        rec, truth = synth_recording(duration_s=60.0, seed=1, noise_sd=0.0, drift_amp=0.0)
        _, train = ppg_chain(rec)
        truth_times = np.round(truth.beat_times_s * FS) / FS
        lag, ia, ib = align_beat_events(truth_times, train.diastolic_times())
        assert len(ia) >= truth.beat_times_s.size - 3
        residuals = train.diastolic_times()[ib] - lag - truth.beat_times_s[ia]
        assert np.abs(residuals).max() <= 0.010 + 1e-9

    def test_affine_invariance(self):
        waveform, _ = generate_waveform(PulseModel(), 20.0, FS, 2)
        base, _ = ppg_chain(PpgRecording(channels={"green_0": waveform}))
        scaled = PpgRecording(
            channels={"green_0": waveform.with_samples(3.5 * waveform.samples + 2.0)}
        )
        out, _ = ppg_chain(scaled)
        rel = np.abs(out.samples - 3.5 * base.samples).max() / np.abs(base.samples).max()
        assert rel <= 1e-9

    def test_shared_filter_path(self):
        rec, _ = synth_recording(duration_s=20.0, seed=3)
        chan = rec.channels["green_0"]
        out, _ = ppg_chain(rec)
        # the selected channel, band-passed, then the shared last step
        assert_allclose(out.samples, orient_and_detect(butterworth_bandpass(chan))[0].samples, atol=0)
        ref, _, _ = condition_modality("reference", chan, PipelineConfig())
        assert_allclose(out.samples, ref.samples, atol=0)
