import json
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose
from scipy.ndimage import maximum_filter1d, minimum_filter1d
from scipy.signal import find_peaks

from pulsecmp.beats import (
    PeakTrain,
    _find_peaks,
    _running_extreme,
    align_beat_events,
    detect_peaks,
    extract_ibi,
    foot_intervals_ms,
    in_ibi_gate,
    orient_and_detect,
    paired_consecutive,
    polarity_inverted,
    segment_beats_indexed,
)
from pulsecmp.config import PipelineConfig
from pulsecmp.metrics import BeatTable, auc_normalized, count_inflections
from pulsecmp.report import (
    MIN_BEATS,
    AgreementReport,
    ModalitySummary,
    condition_modality,
    simulate_bundle,
)
from pulsecmp.signal_core import TimeSeries
from pulsecmp.synth import PulseModel, generate_waveform

from pulsecmp import beats, cli

from oracles import (
    event_train,
    feet_by_argmin,
    greedy_pairs_by_loop,
    impulse_correlation_lag,
    polarity_inverted_by_masks,
    resample_linear,
    three_bump_wave,
)

FS = 200.0


def pulse_train_series(duration_s=30.0, hr_bpm=60.0, seed=0, ibi_sd_ms=0.0):
    model = PulseModel(hr_mean_bpm=hr_bpm, ibi_sd_ms=ibi_sd_ms)
    waveform, truth = generate_waveform(model, duration_s, FS, seed)
    return waveform, truth


class TestPeakTrain:
    def test_interleaving_enforced(self):
        with pytest.raises(ValueError, match="interleave"):
            PeakTrain(np.array([5, 9]), np.array([0, 20]), FS)

    @pytest.mark.parametrize(
        "systolic, diastolic, ok",
        [([5, 15, 25], [0, 10, 20, 30], True), ([10], [0, 10, 20], False),
         ([5, 25], [0, 10, 20, 30], False), ([-5, 5, 35], [0, 10], True),
         ([5], [0, 5, 10], False), ([12], [0, 10], False)],
    )
    def test_interleaving_cases(self, systolic, diastolic, ok):
        # a systolic index equal to a foot lies strictly between no pair
        if ok:
            PeakTrain(np.array(systolic), np.array(diastolic), FS)
        else:
            with pytest.raises(ValueError, match="interleave"):
                PeakTrain(np.array(systolic), np.array(diastolic), FS)

    def test_strictly_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            PeakTrain(np.array([5, 5]), np.array([0, 10]), FS)

    def test_event_train_times(self):
        train = event_train(np.array([0.5, 1.5]), FS)
        assert_allclose(train.diastolic_times(), [0.5, 1.5])


class TestDetectPeaks:
    def test_periodic_pulse_train(self):
        waveform, truth = pulse_train_series(duration_s=30.0, hr_bpm=60.0)
        train = detect_peaks(waveform)
        # one beat per second; systolic sits at 18 % of each 1 s beat
        expected = np.round((truth.beat_times_s[:-1] + 0.18) * FS).astype(int)
        found = train.systolic_indices[: expected.size]
        assert train.systolic_indices.size == truth.systolic_times_s.size
        assert np.abs(found - expected).max() <= 1

    def test_constant_zero_empty(self):
        train = detect_peaks(TimeSeries(np.zeros(int(10 * FS)), FS))
        assert train.systolic_indices.size == 0
        assert train.diastolic_indices.size == 0

    def test_low_prominence_ripple_rejected(self):
        t = np.arange(int(4 * FS)) / FS
        sig = np.zeros_like(t)
        for center in (1.0, 3.0):
            sig += np.exp(-(((t - center) / 0.08) ** 2))
        ripple_center = 2.0
        sig += 0.05 * np.exp(-(((t - ripple_center) / 0.05) ** 2))
        train = detect_peaks(TimeSeries(sig, FS))
        assert train.systolic_indices.size == 2
        times = train.systolic_indices / FS
        assert np.abs(times - np.array([1.0, 3.0])).max() < 0.05

    def test_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            detect_peaks(TimeSeries(np.zeros(100), FS))

    @given(
        seed=st.integers(0, 2**32 - 1),
        length=st.integers(600, 1500),
        edge=st.sampled_from(["none", "first", "last"]),
    )
    def test_feet_equal_per_beat_argmin(self, seed, length, edge):
        # a random walk of small integers: many ties between minima
        # (numpy draws the steps: hypothesis lists of 1500 integers took
        # seconds per run to draw)
        steps = np.random.default_rng(seed).integers(-3, 4, length)
        sig = np.cumsum(steps).astype(np.float64)
        train = detect_peaks(TimeSeries(sig, FS), min_separation_s=0.05)
        assert np.array_equal(
            train.diastolic_indices, feet_by_argmin(sig, train.systolic_indices)
        )
        # peaks on the record's first or last sample, which detection never gives
        peaks = train.systolic_indices
        peaks = {"none": peaks, "first": np.union1d([0], peaks),
                 "last": np.union1d(peaks, [sig.size - 1])}[edge]
        assert np.array_equal(beats._feet(sig, peaks), feet_by_argmin(sig, peaks))

    def test_interleaving_by_construction(self):
        waveform, _ = pulse_train_series(duration_s=30.0, seed=5, ibi_sd_ms=30.0)
        train = detect_peaks(waveform)
        d = train.diastolic_indices
        s = train.systolic_indices
        assert d[0] < s[0] and d[-1] > s[-1]

    @given(seed=st.integers(0, 1000))
    def test_affine_invariance(self, seed):
        # the detector's contract domain is filtered waveforms, which
        # have no degenerate flat plateaus where float rounding of
        # a*x + b could reorder ties
        from pulsecmp.signal_core import butterworth_bandpass

        rng = np.random.default_rng(seed)
        raw, _ = pulse_train_series(duration_s=12.0, seed=seed, ibi_sd_ms=40.0)
        waveform = butterworth_bandpass(raw)
        a = rng.uniform(0.1, 10.0)
        b = rng.uniform(-50.0, 50.0)
        base = detect_peaks(waveform)
        scaled = detect_peaks(waveform.with_samples(a * waveform.samples + b))
        assert np.array_equal(base.systolic_indices, scaled.systolic_indices)
        assert np.array_equal(base.diastolic_indices, scaled.diastolic_indices)


class TestOrientAndDetect:
    def test_upright_kept_with_its_train(self):
        waveform, _ = pulse_train_series()
        out, train, inverted = orient_and_detect(waveform)
        assert inverted is False
        assert out is waveform
        expected = detect_peaks(waveform)
        assert np.array_equal(train.systolic_indices, expected.systolic_indices)
        assert np.array_equal(train.diastolic_indices, expected.diastolic_indices)

    def test_inverted_negated_and_detected_again(self):
        waveform, _ = pulse_train_series()
        out, train, inverted = orient_and_detect(waveform.with_samples(-waveform.samples))
        assert inverted
        assert np.array_equal(out.samples, waveform.samples)
        expected = detect_peaks(waveform)
        assert np.array_equal(train.systolic_indices, expected.systolic_indices)
        assert np.array_equal(train.diastolic_indices, expected.diastolic_indices)

    def test_undecidable_kept(self):
        flat = TimeSeries(np.zeros(int(10 * FS)), FS)
        out, train, inverted = orient_and_detect(flat)
        assert inverted is None
        assert out is flat
        assert train.systolic_indices.size == 0

    def test_too_short_propagates(self):
        with pytest.raises(ValueError, match="recording too short"):
            orient_and_detect(TimeSeries(np.zeros(100), FS))


class TestExtractIbi:
    def test_direct_arithmetic(self):
        train = PeakTrain(np.array([100, 300]), np.array([0, 200, 402]), FS)
        anchors, intervals = extract_ibi(train)
        assert_allclose(intervals, [1000.0, 1010.0])
        assert_allclose(anchors, [0.0, 1.0])

    def test_plausibility_gate(self):
        train = PeakTrain(np.array([20]), np.array([0, 40]), FS)
        anchors, intervals = extract_ibi(train)
        assert foot_intervals_ms(train).size == 1
        assert intervals.size == 0 and anchors.size == 0

    def test_gate_bounds_are_exclusive(self):
        intervals = np.array([250.0, np.nextafter(250.0, 300.0), 2999.0, 3000.0])
        assert in_ibi_gate(intervals).tolist() == [False, True, True, False]
        train = PeakTrain(np.array([20, 300]), np.array([0, 50, 650]), FS)
        assert_allclose(foot_intervals_ms(train), [250.0, 3000.0])
        anchors, intervals = extract_ibi(train)
        assert intervals.size == 0 and anchors.size == 0

    def test_fewer_than_two_feet(self):
        train = PeakTrain(np.array([], dtype=int), np.array([10]), FS)
        anchors, intervals = extract_ibi(train)
        assert intervals.size == 0 and anchors.size == 0

    def test_synthetic_truth_recovery(self):
        _, truth = pulse_train_series(duration_s=120.0, hr_bpm=62.0, seed=7, ibi_sd_ms=30.0)
        train = event_train(truth.beat_times_s, FS)
        _, intervals = extract_ibi(train)
        true_intervals = np.diff(truth.beat_times_s) * 1000.0
        # on-grid quantization only: half a sample each end
        assert np.abs(intervals - true_intervals).mean() <= 5.0

    def test_sum_property(self):
        _, truth = pulse_train_series(duration_s=60.0, seed=3, ibi_sd_ms=30.0)
        train = event_train(truth.beat_times_s, FS)
        _, intervals = extract_ibi(train)
        if intervals.size == truth.beat_times_s.size - 1:
            d = train.diastolic_indices
            total = (d[-1] - d[0]) / FS * 1000.0
            assert_allclose(intervals.sum(), total, rtol=1e-12)


class TestSegmentBeats:
    def test_single_pulse_peak_position(self):
        waveform, truth = pulse_train_series(duration_s=12.0, hr_bpm=60.0)
        train = detect_peaks(waveform)
        shapes = segment_beats_indexed(waveform, train).shapes
        assert len(shapes)
        peak_pos = np.argmax(shapes[0]) / (shapes.shape[1] - 1)
        assert abs(peak_pos - 0.18) < 0.05

    def test_identity_case(self):
        x = np.zeros(200)
        x[0] = 0.0
        ramp_up = np.linspace(0.0, 1.0, 100)
        x = np.concatenate([ramp_up, ramp_up[::-1]])[:200]
        x[0], x[99] = 0.0, 1.0
        series = TimeSeries(np.tile(x, 5), FS)
        train = PeakTrain(
            np.array([99]), np.array([0, 199]), FS
        )
        table = segment_beats_indexed(series, train, norm_len=200)
        assert table.feet.tolist() == [0]
        assert_allclose(table.shapes[0], series.samples[:200], atol=1e-12)

    def test_flat_segment_discarded(self):
        x = np.zeros(1000)
        t = np.arange(1000)
        x += np.exp(-(((t - 300) / 30.0) ** 2))
        series = TimeSeries(x, FS)
        train = PeakTrain(np.array([300]), np.array([100, 600]), FS)
        flat_train = PeakTrain(np.array([], dtype=int), np.array([700, 900]), FS)
        assert len(segment_beats_indexed(series, train)) == 1
        table = segment_beats_indexed(series, flat_train)
        assert table.feet.size == table.extrema.size == table.auc.size == 0
        assert table.shapes.shape == (0, 200)

    @pytest.mark.parametrize("block_rows", [2, 128])
    def test_flat_beat_between_kept_beats(self, monkeypatch, block_rows):
        t = np.arange(1000)
        x = np.exp(-(((t - 300) / 30.0) ** 2)) + np.exp(-(((t - 800) / 30.0) ** 2))
        series = TimeSeries(x, FS)
        # the beat 500-550 is flat; 550-700 still rises into the second pulse
        train = PeakTrain(np.array([], dtype=int), np.array([100, 500, 550, 700, 950]), FS)
        monkeypatch.setattr(beats, "BEAT_BLOCK_ROWS", block_rows)
        table = segment_beats_indexed(series, train)
        assert table.feet.tolist() == [0, 2, 3]
        assert table.shapes.shape == (3, 200)
        assert table.extrema.tolist() == [count_inflections(row) for row in table.shapes]
        assert table.auc.tolist() == [auc_normalized(row) for row in table.shapes]
        d = train.diastolic_indices
        for foot, row in zip(table.feet, table.shapes):
            beat = TimeSeries(x[d[foot] : d[foot + 1] + 1], FS)
            expected = resample_linear(beat, 200)
            assert np.array_equal(row, (expected - expected.min()) / np.ptp(expected))

    def test_indexed_mapping(self):
        waveform, _ = pulse_train_series(duration_s=20.0, seed=2, ibi_sd_ms=30.0)
        train = detect_peaks(waveform)
        table = segment_beats_indexed(waveform, train)
        feet = table.feet
        assert feet.dtype == np.int64
        assert np.all(np.diff(feet) > 0)
        assert np.all((0 <= feet) & (feet < train.diastolic_indices.size - 1))
        assert table.shapes.shape == (feet.size, 200)
        assert table.extrema.shape == table.auc.shape == (feet.size,)

    def test_normalization_invariants(self):
        waveform, _ = pulse_train_series(duration_s=20.0, seed=9, ibi_sd_ms=30.0)
        train = detect_peaks(waveform)
        shapes = segment_beats_indexed(waveform, train, norm_len=150).shapes
        assert shapes.shape[1] == 150
        # every row spans exactly [0, 1]
        assert np.all(shapes.min(axis=1) == 0.0)
        assert np.all(shapes.max(axis=1) == 1.0)

    @pytest.mark.parametrize("norm_len", [7, 97, 200, 513])
    def test_rows_equal_oracle_resampling_bit_for_bit(self, norm_len):
        pulse, _ = pulse_train_series(duration_s=30.0, seed=4, ibi_sd_ms=30.0)
        # the 20 dB radar chain's waveform, whose rows carry its noise
        config = PipelineConfig(
            synth_duration_s=30.0, synth_antennas=1, synth_chirps=1, synth_samples=8,
            synth_target_antenna=0, synth_target_bin=3,
        )
        radar, radar_train, _ = condition_modality("radar", simulate_bundle(config).radar, config)
        # beats of 2, 3 and 401 samples between a flat beat at each end
        hand = np.random.default_rng(5).standard_normal(800)
        hand[:60], hand[-60:] = 1.5, -0.5
        hand_feet = np.array([0, 50, 60, 61, 63, 463, 500, 745, 795])
        hand_train = PeakTrain(np.array([], dtype=int), hand_feet, FS)
        # each input with the beats it holds flat
        inputs = [
            (pulse, detect_peaks(pulse), []),
            (radar, radar_train, []),
            (TimeSeries(hand, FS), hand_train, [0, hand_feet.size - 2]),
        ]
        for waveform, train, flat in inputs:
            table = segment_beats_indexed(waveform, train, norm_len)
            d = train.diastolic_indices
            expected_feet, expected_rows = [], []
            for foot in range(d.size - 1):
                beat = TimeSeries(waveform.samples[d[foot] : d[foot + 1] + 1], FS)
                expected = resample_linear(beat, norm_len)
                if np.ptp(expected) >= 1e-12:
                    expected_feet.append(foot)
                    expected_rows.append((expected - expected.min()) / np.ptp(expected))
            assert table.feet.tolist() == expected_feet
            assert expected_feet == [k for k in range(d.size - 1) if k not in flat]
            assert table.shapes.shape == (len(expected_feet), norm_len)
            for row, expected in zip(table.shapes, expected_rows):
                assert np.array_equal(row, expected)

    def test_block_size_does_not_change_the_table(self, monkeypatch):
        waveform, _ = pulse_train_series(duration_s=30.0, seed=4, ibi_sd_ms=30.0)
        train = detect_peaks(waveform)
        table = segment_beats_indexed(waveform, train)
        monkeypatch.setattr(beats, "BEAT_BLOCK_ROWS", 3)
        small = segment_beats_indexed(waveform, train)
        for column in ("feet", "shapes", "extrema", "auc"):
            assert np.array_equal(getattr(small, column), getattr(table, column))
        # each row is measured as it would be alone
        assert small.extrema.tolist() == [count_inflections(row) for row in small.shapes]
        assert small.auc.tolist() == [auc_normalized(row) for row in small.shapes]

    def test_norm_len_below_two_rejected(self):
        waveform, _ = pulse_train_series(duration_s=12.0)
        with pytest.raises(ValueError, match="^norm_len must be at least 7$"):
            segment_beats_indexed(waveform, detect_peaks(waveform), norm_len=1)

    @pytest.mark.parametrize("n_feet", [0, 1, 3])
    @pytest.mark.parametrize("norm_len", [2, 6])
    def test_norm_len_below_seven_rejected_before_any_cut(self, norm_len, n_feet):
        # the shortest beat count_inflections measures, whether or not
        # the train holds a beat to cut
        series = TimeSeries(np.sin(np.linspace(0.0, 6.0 * np.pi, 600)), FS)
        train = PeakTrain(np.array([], dtype=int), np.arange(n_feet) * 200, FS)
        with pytest.raises(ValueError, match="^norm_len must be at least 7$"):
            segment_beats_indexed(series, train, norm_len)
        assert len(segment_beats_indexed(series, train, 7)) == max(0, n_feet - 1)

    def test_resampling_overflow_is_an_input_error_without_warnings(self):
        # finite samples near the float range: a beat's interpolation
        # slopes overflow, which would leave non-finite shapes
        waveform, _ = pulse_train_series(duration_s=12.0)
        train = detect_peaks(waveform)
        centered = waveform.samples - waveform.samples.mean()
        huge = waveform.with_samples(centered * (8e307 / np.abs(centered).max()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^beat resampling overflowed: waveform too large$"):
                segment_beats_indexed(huge, train)
            # a hundredth of that resamples to the same shapes as the original
            small = segment_beats_indexed(huge.with_samples(huge.samples / 100.0), train)
        assert_allclose(small.shapes, segment_beats_indexed(waveform, train).shapes, atol=1e-9)


def average_beat_file(tmp_path, shapes):
    """The mean and SD columns of ``avg_beat_reference.csv`` as ``compare``
    writes it for a modality whose beat table holds ``shapes``."""
    n = len(shapes)
    table = BeatTable(np.arange(n), shapes, np.zeros(n), np.zeros(n))
    train = PeakTrain(np.array([], dtype=int), np.array([], dtype=int), FS)
    summary = ModalitySummary("reference", train, beats=table)
    report = AgreementReport("s", "reference", {}, {"reference": summary}, {})
    cli._write_report_files(report, str(tmp_path))
    columns = np.loadtxt(tmp_path / "avg_beat_reference.csv", delimiter=",", skiprows=1, ndmin=2)
    return columns[:, 1], columns[:, 2]


class TestAverageBeats:
    """The averaged beat ``compare`` writes: the column mean and
    population SD of the beat table."""

    def test_single_segment(self, tmp_path):
        waveform, _ = pulse_train_series(duration_s=12.0)
        train = detect_peaks(waveform)
        shapes = segment_beats_indexed(waveform, train).shapes
        # one segment, held MIN_BEATS times: a report keeps no smaller table
        mean, sd = average_beat_file(tmp_path, np.repeat(shapes[:1], MIN_BEATS, axis=0))
        assert np.array_equal(mean, shapes[0])
        assert np.array_equal(sd, np.zeros_like(sd))

    @pytest.mark.parametrize("n_rows", [0, MIN_BEATS - 1])
    def test_table_below_min_beats_reports_insufficient_beats(self, tmp_path, n_rows):
        # status gates the count, the morphology block and the averaged
        # beat: a one-row table has no sample SD to report
        shapes = np.tile(np.linspace(0.0, 1.0, 200), (n_rows, 1))
        table = BeatTable(np.arange(n_rows), shapes, np.zeros(n_rows), np.zeros(n_rows))
        train = PeakTrain(np.array([], dtype=int), np.array([], dtype=int), FS)
        summary = ModalitySummary("reference", train, beats=table)
        report = AgreementReport("s", "reference", {}, {"reference": summary}, {})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cli._write_report_files(report, str(tmp_path))
        entry = json.loads((tmp_path / "report.json").read_text())["modalities"]["reference"]
        assert entry["status"] == summary.status == "insufficient beats"
        assert entry["n_beats"] == summary.n_beats == 0
        assert "morphology" not in entry
        assert not (tmp_path / "avg_beat_reference.csv").exists()

    def test_mirrored_pair(self, tmp_path):
        v = np.linspace(0.0, 1.0, 200)
        mean, _ = average_beat_file(tmp_path, np.stack([v, 1.0 - v]))
        assert_allclose(mean, 0.5, atol=1e-12)

    def test_noisy_copies(self, tmp_path):
        rng = np.random.default_rng(42)
        shape = three_bump_wave(np.linspace(0, 1, 200))
        template = (shape - shape.min()) / (shape.max() - shape.min())
        sigma = 0.05
        stack = []
        for _ in range(50):
            noisy = template + sigma * rng.standard_normal(200)
            stack.append((noisy - noisy.min()) / (noisy.max() - noisy.min()))
        stack = np.array(stack)
        mean, sd = average_beat_file(tmp_path, stack)
        # exact against an independent numpy reduction of the same stack
        assert_allclose(mean, stack.mean(axis=0), atol=1e-12)
        assert_allclose(sd, stack.std(axis=0), atol=1e-12)
        # Monte-Carlo magnitude: the per-copy min-max rescale shrinks the
        # injected sigma by the noisy range (~1.25), the mean keeps shape
        assert 0.03 < np.median(sd) < 0.06
        peak_region = slice(30, 45)
        assert abs(mean[peak_region].max() - 1.0) < 0.07

    def test_identical_beats_zero_sd(self, tmp_path):
        waveform, _ = pulse_train_series(duration_s=30.0, hr_bpm=60.0)
        train = detect_peaks(waveform)
        _, sd = average_beat_file(tmp_path, segment_beats_indexed(waveform, train).shapes)
        assert np.median(sd) < 0.01


class TestAlignBeatEvents:
    def test_exact_shift(self):
        times = np.arange(0.5, 20.0, 1.0)
        lag, ia, ib = align_beat_events(times, times + 0.5)
        assert_allclose(lag, 0.5, atol=1e-9)
        assert ia.tolist() == ib.tolist() == list(range(times.size))

    def test_zero_shift_identity(self):
        times = np.arange(0.5, 20.0, 1.0)
        lag, ia, ib = align_beat_events(times, times)
        assert lag == 0.0
        assert ia.tolist() == ib.tolist() == list(range(times.size))

    def test_disjoint_trains(self):
        lag, ia, ib = align_beat_events(
            np.array([1.0, 2.0, 3.0]), np.array([31.0, 32.0, 33.0]), max_lag_s=5.0
        )
        assert ia.size == ib.size == 0
        assert ia.dtype == ib.dtype == np.int64

    def test_single_event_each(self):
        lag, ia, ib = align_beat_events(np.array([1.0]), np.array([1.5]))
        assert abs(lag - 0.5) < 1e-9
        assert ia.tolist() == ib.tolist() == [0]

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError, match="must contain events"):
            align_beat_events(np.array([1.0]), np.array([]))

    def test_paired_consecutive(self):
        ia, ib = np.array([0, 1, 3, 4, 5]), np.array([0, 1, 2, 3, 4])
        i, j = paired_consecutive(ia, ib)
        assert i.tolist() == [0, 3, 4]
        assert j.tolist() == [0, 2, 3]
        for ia, ib in ((np.array([], np.int64), np.array([], np.int64)), ([2], [5])):
            i, j = paired_consecutive(np.asarray(ia), np.asarray(ib))
            assert i.size == j.size == 0

    @given(seed=st.integers(0, 2**32 - 1), max_lag_s=st.sampled_from([0.0, 1.0]))
    def test_pairs_equal_the_loop(self, seed, max_lag_s):
        # events a few steps apart on a 1/256 s grid, exact in binary, so
        # the distances to the events either side of an event tie often
        rng = np.random.default_rng(seed)
        ta = np.cumsum(rng.integers(1, 9, rng.integers(1, 41))) / 256.0
        tb = (rng.integers(0, 41) + np.cumsum(rng.integers(1, 9, rng.integers(1, 41)))) / 256.0
        pair_tol_s = rng.integers(0, 9) / 256.0
        lag, ia, ib = align_beat_events(ta, tb, max_lag_s, pair_tol_s)
        assert ia.dtype == ib.dtype == np.int64
        assert list(zip(ia.tolist(), ib.tolist())) == greedy_pairs_by_loop(ta, tb - lag, pair_tol_s)

    def test_tie_goes_to_the_lower_indices(self):
        # b event 0 is 0.25 s from a events 0 and 1, and b event 1 as far
        # from a event 1: the lower a index, then the lower b index, wins
        # each tie, so both pair; the other order would pair (1, 0) only
        ta = np.array([1.0, 1.5, 8.0])
        tb = np.array([1.25, 1.75, 8.0])
        expected = [(0, 0), (1, 1), (2, 2)]
        lag, ia, ib = align_beat_events(ta, tb, max_lag_s=0.0, pair_tol_s=0.25)
        assert lag == 0.0
        assert list(zip(ia.tolist(), ib.tolist())) == expected
        assert greedy_pairs_by_loop(ta, tb, 0.25) == expected

    @given(seed=st.integers(0, 500))
    def test_self_alignment_identity(self, seed):
        # unrounded times, off the 200 Hz event grid
        rng = np.random.default_rng(seed)
        times = np.cumsum(rng.uniform(0.5, 1.5, 20))
        lag, ia, ib = align_beat_events(times, times)
        assert lag == 0.0
        assert ia.dtype == ib.dtype == np.int64
        assert ia.tolist() == ib.tolist() == list(range(times.size))


# Samples with many ties (small integers), ties and plateaus at the
# edges, or none at all (continuous values)
signals = st.one_of(
    st.lists(st.integers(0, 4), max_size=300).map(lambda v: np.array(v, dtype=np.float64)),
    st.lists(
        st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False), max_size=300
    ).map(np.array),
)


class TestPeakFinderAgainstScipy:
    @given(x=signals, distance=st.integers(1, 40), prominence=st.floats(-1.0, 5.0))
    def test_same_integers_as_find_peaks(self, x, distance, prominence):
        x = np.asarray(x, dtype=np.float64)
        expected, _ = find_peaks(x, distance=distance, prominence=prominence)
        assert np.array_equal(_find_peaks(x, distance, prominence), expected)

    @given(seed=st.integers(0, 10_000))
    def test_same_integers_on_filtered_noise(self, seed):
        rng = np.random.default_rng(seed)
        x = np.convolve(rng.standard_normal(3000), np.hanning(25), "same")
        threshold = float(rng.uniform(0.0, 2.0))
        expected, _ = find_peaks(x, distance=66, prominence=threshold)
        assert np.array_equal(_find_peaks(x, 66, threshold), expected)

    def test_plateau_midpoint_and_edges(self):
        x = np.array([3.0, 3.0, 1.0, 2.0, 2.0, 2.0, 2.0, 0.0, 5.0, 5.0])
        # the edge plateaus are not maxima; the inner one rounds down
        assert _find_peaks(x, 1, 0.0).tolist() == [4]

    @given(x=signals.filter(lambda v: v.size > 0), window=st.integers(1, 60))
    def test_running_extremes_match_ndimage(self, x, window):
        x = np.asarray(x, dtype=np.float64)
        for op, reference in ((np.maximum, maximum_filter1d), (np.minimum, minimum_filter1d)):
            expected = reference(x, size=window, mode="nearest")
            assert np.array_equal(_running_extreme(x, window, op), expected)

    @given(x=signals.filter(lambda v: v.size > 1), window=st.integers(2, 60), block=st.integers(1, 80))
    def test_blocked_rolling_p2p_median_matches_ndimage(self, x, window, block):
        # blocks of at least a window, as short as a window, so a
        # window reaches into both neighbouring blocks
        x = np.asarray(x, dtype=np.float64)
        window = min(window, x.size)
        p2p = maximum_filter1d(x, size=window, mode="nearest") - minimum_filter1d(
            x, size=window, mode="nearest"
        )
        with mock.patch.object(beats, "P2P_BLOCK", block):
            assert beats._rolling_p2p_median(x, window) == np.median(p2p)

    @pytest.mark.parametrize("window", [2, 5, 60, 400])
    @pytest.mark.parametrize("block", [1, 7, 64, 1000])
    def test_blocked_rolling_p2p_median_on_noise(self, window, block):
        # a random walk's p2p values are distinct, so wrong ones at the
        # block edges show in the median
        x = np.cumsum(np.random.default_rng(window + block).standard_normal(3000))
        p2p = maximum_filter1d(x, size=window, mode="nearest") - minimum_filter1d(
            x, size=window, mode="nearest"
        )
        with mock.patch.object(beats, "P2P_BLOCK", block):
            assert beats._rolling_p2p_median(x, window) == np.median(p2p)


class TestLinearPolarity:
    @given(
        systolic=st.lists(st.integers(0, 400), max_size=40, unique=True),
        diastolic=st.lists(st.integers(0, 400), max_size=40, unique=True),
    )
    def test_matches_mask_oracle(self, systolic, diastolic):
        # any two increasing index sets, so feet equal to systolic
        # indices and feet missing on either side are covered
        train = SimpleNamespace(
            systolic_indices=np.array(sorted(systolic), dtype=np.int64),
            diastolic_indices=np.array(sorted(diastolic), dtype=np.int64),
        )
        assert polarity_inverted(train) == polarity_inverted_by_masks(train)

    @given(seed=st.integers(0, 10_000), beats=st.integers(0, 30))
    def test_matches_mask_oracle_on_interleaved_trains(self, seed, beats):
        rng = np.random.default_rng(seed)
        feet = np.cumsum(rng.integers(4, 60, beats + 1))
        peaks = feet[:-1] + rng.integers(1, 4, beats) * np.diff(feet) // 4
        train = PeakTrain(peaks, feet, FS)
        assert polarity_inverted(train) == polarity_inverted_by_masks(train)


class TestExactEventCorrelation:
    @given(
        seed=st.integers(0, 10_000),
        n_a=st.integers(1, 40),
        n_b=st.integers(1, 40),
        max_lag_s=st.sampled_from([0.0, 0.05, 1.0, 5.0, 100.0]),
    )
    def test_lag_matches_direct_correlation(self, seed, n_a, n_b, max_lag_s):
        # coarse times, so grid collisions and tied lag counts are common
        rng = np.random.default_rng(seed)
        ta = np.unique(rng.integers(0, 400, n_a)) / 20.0
        tb = np.unique(rng.integers(0, 400, n_b)) / 20.0
        a = event_train(ta, FS).diastolic_times()
        b = event_train(tb, FS).diastolic_times()
        lag, _, _ = align_beat_events(a, b, max_lag_s=max_lag_s)
        assert lag == impulse_correlation_lag(a, b, max_lag_s, FS)

    def test_negative_max_lag_rejected(self):
        a = np.array([1.0, 2.0])
        with pytest.raises(ValueError, match="max_lag_s"):
            align_beat_events(a, a, max_lag_s=-1.0)
