import numpy as np
import pytest
from numpy.testing import assert_allclose

from pulsecmp.beats import align_beat_events, orient_and_detect
from pulsecmp.config import PipelineConfig
from pulsecmp.formats import FormatError, read_series_csv, write_series_csv
from pulsecmp.report import condition_modality
from pulsecmp.signal_core import TimeSeries, butterworth_bandpass
from pulsecmp.synth import PulseModel, generate_waveform, synth_ppg

FS = 200.0


def ppg_chain(series):
    waveform, train, _ = condition_modality("ppg", series, PipelineConfig())
    return waveform, train


def ppg_file(tmp_path, **channels):
    """A PPG CSV at ``FS`` holding the given channels, in that order."""
    path = str(tmp_path / "ppg.csv")
    write_series_csv(path, {name: np.asarray(v, dtype=float) for name, v in channels.items()}, FS)
    return path


def synth_recording(duration_s=60.0, seed=0, noise_sd=0.0, tau=0.25, drift_amp=0.0):
    waveform, truth = generate_waveform(PulseModel(), duration_s, FS, seed)
    rec = synth_ppg(
        waveform, decay_tau_s=tau, noise_sd=noise_sd, seed=seed, drift_amp_counts=drift_amp
    )
    return rec, truth


class TestPpgRecording:
    """A PPG recording is the one column of its CSV that the load picks."""

    def test_requires_channel(self, tmp_path):
        path = tmp_path / "ppg.csv"
        path.write_text("time_s\n0\n0.005\n")
        with pytest.raises(FormatError, match="^bad header: no data column after time_s$"):
            read_series_csv(str(path))

    def test_default_channel_prefers_green(self, tmp_path):
        red, green, blue = (np.full(10, v) for v in (0.0, 1.0, 2.0))
        path = ppg_file(tmp_path, red_0=red, green_0=green)
        assert read_series_csv(path).samples.tolist() == green.tolist()
        # without green_0, the first column by name, wherever it stands
        path = ppg_file(tmp_path, red_0=red, blue_0=blue)
        assert read_series_csv(path).samples.tolist() == blue.tolist()

    def test_channel_lookup(self, tmp_path):
        path = ppg_file(tmp_path, red_0=np.ones(10), green_0=np.zeros(10))
        assert read_series_csv(path).samples.tolist() == [0.0] * 10
        red = read_series_csv(path, "red_0")
        assert red.samples.tolist() == [1.0] * 10
        assert (red.sample_rate_hz, red.start_time_s, len(red)) == (FS, 0.0, 10)


class TestProcessPpg:
    def test_constant_channel_no_beats(self):
        out, train = ppg_chain(TimeSeries(np.full(int(15 * FS), 9999.0), FS))
        assert np.abs(out.samples).max() == 0.0
        assert train.systolic_indices.size == 0

    def test_missing_channel_lists_available(self, tmp_path):
        # a channel the file lacks fails at load, as a reference column does
        path = ppg_file(tmp_path, green_0=np.zeros(int(15 * FS)), red_0=np.ones(int(15 * FS)))
        with pytest.raises(
            FormatError, match="^missing column: 'infrared_3' not in columns: green_0, red_0$"
        ):
            read_series_csv(path, "infrared_3")

    def test_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            ppg_chain(TimeSeries(np.zeros(int(5 * FS)), FS))

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
        base, _ = ppg_chain(waveform)
        out, _ = ppg_chain(waveform.with_samples(3.5 * waveform.samples + 2.0))
        rel = np.abs(out.samples - 3.5 * base.samples).max() / np.abs(base.samples).max()
        assert rel <= 1e-9

    def test_shared_filter_path(self):
        rec, _ = synth_recording(duration_s=20.0, seed=3)
        out, _ = ppg_chain(rec)
        # the channel band-passed, then the shared last step
        assert_allclose(out.samples, orient_and_detect(butterworth_bandpass(rec))[0].samples, atol=0)
        ref, _, _ = condition_modality("reference", rec, PipelineConfig())
        assert_allclose(out.samples, ref.samples, atol=0)
