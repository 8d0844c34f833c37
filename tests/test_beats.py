import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from pulsecmp.beats import (
    IbiSeries,
    PeakTrain,
    align_beat_events,
    average_beats,
    detect_peaks,
    event_train,
    extract_ibi,
    foot_intervals_ms,
    in_ibi_gate,
    orient_and_detect,
    paired_consecutive,
    segment_beats_indexed,
)
from pulsecmp.signal_core import TimeSeries
from pulsecmp.synth import PulseModel, generate_waveform

from oracles import three_bump_wave

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
        ibi = extract_ibi(train)
        assert_allclose(ibi.intervals_ms, [1000.0, 1010.0])
        assert_allclose(ibi.anchor_times_s, [0.0, 1.0])

    def test_plausibility_gate(self):
        train = PeakTrain(np.array([20]), np.array([0, 40]), FS)
        ibi = extract_ibi(train)
        assert len(ibi) == 0

    def test_gate_bounds_are_exclusive(self):
        intervals = np.array([250.0, np.nextafter(250.0, 300.0), 2999.0, 3000.0])
        assert in_ibi_gate(intervals).tolist() == [False, True, True, False]
        with pytest.raises(ValueError, match="plausibility gate"):
            IbiSeries(np.array([3000.0]), np.array([0.0]))
        train = PeakTrain(np.array([20, 300]), np.array([0, 50, 650]), FS)
        assert_allclose(foot_intervals_ms(train), [250.0, 3000.0])
        assert len(extract_ibi(train)) == 0

    def test_fewer_than_two_feet(self):
        train = PeakTrain(np.array([], dtype=int), np.array([10]), FS)
        assert len(extract_ibi(train)) == 0

    def test_synthetic_truth_recovery(self):
        _, truth = pulse_train_series(duration_s=120.0, hr_bpm=62.0, seed=7, ibi_sd_ms=30.0)
        train = event_train(truth.beat_times_s, FS)
        ibi = extract_ibi(train)
        true_intervals = np.diff(truth.beat_times_s) * 1000.0
        # on-grid quantization only: half a sample each end
        assert np.abs(ibi.intervals_ms - true_intervals).mean() <= 5.0

    def test_sum_property(self):
        _, truth = pulse_train_series(duration_s=60.0, seed=3, ibi_sd_ms=30.0)
        train = event_train(truth.beat_times_s, FS)
        ibi = extract_ibi(train)
        if len(ibi) == truth.beat_times_s.size - 1:
            d = train.diastolic_indices
            total = (d[-1] - d[0]) / FS * 1000.0
            assert_allclose(ibi.intervals_ms.sum(), total, rtol=1e-12)


class TestSegmentBeats:
    def test_single_pulse_peak_position(self):
        waveform, truth = pulse_train_series(duration_s=12.0, hr_bpm=60.0)
        train = detect_peaks(waveform)
        _, shapes = segment_beats_indexed(waveform, train)
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
        feet, shapes = segment_beats_indexed(series, train, norm_len=200)
        assert feet.tolist() == [0]
        assert_allclose(shapes[0], series.samples[:200], atol=1e-12)

    def test_flat_segment_discarded(self):
        x = np.zeros(1000)
        t = np.arange(1000)
        x += np.exp(-(((t - 300) / 30.0) ** 2))
        series = TimeSeries(x, FS)
        train = PeakTrain(np.array([300]), np.array([100, 600]), FS)
        flat_train = PeakTrain(np.array([], dtype=int), np.array([700, 900]), FS)
        assert len(segment_beats_indexed(series, train)[0]) == 1
        feet, shapes = segment_beats_indexed(series, flat_train)
        assert feet.size == 0
        assert shapes.shape == (0, 200)

    def test_indexed_mapping(self):
        waveform, _ = pulse_train_series(duration_s=20.0, seed=2, ibi_sd_ms=30.0)
        train = detect_peaks(waveform)
        feet, shapes = segment_beats_indexed(waveform, train)
        assert feet.dtype == np.int64
        assert np.all(np.diff(feet) > 0)
        assert np.all((0 <= feet) & (feet < train.diastolic_indices.size - 1))
        assert shapes.shape == (feet.size, 200)

    def test_normalization_invariants(self):
        waveform, _ = pulse_train_series(duration_s=20.0, seed=9, ibi_sd_ms=30.0)
        train = detect_peaks(waveform)
        _, shapes = segment_beats_indexed(waveform, train, norm_len=150)
        assert shapes.shape[1] == 150
        # every row spans exactly [0, 1]
        assert np.all(shapes.min(axis=1) == 0.0)
        assert np.all(shapes.max(axis=1) == 1.0)


class TestAverageBeats:
    def test_single_segment(self):
        waveform, _ = pulse_train_series(duration_s=12.0)
        train = detect_peaks(waveform)
        _, shapes = segment_beats_indexed(waveform, train)
        avg = average_beats(shapes[:1])
        assert_allclose(avg.mean, shapes[0])
        assert_allclose(avg.sd, 0.0)
        assert avg.n_beats == 1

    def test_mirrored_pair(self):
        v = np.linspace(0.0, 1.0, 200)
        avg = average_beats(np.stack([v, 1.0 - v]))
        assert_allclose(avg.mean, 0.5, atol=1e-12)

    def test_noisy_copies(self):
        rng = np.random.default_rng(42)
        shape = three_bump_wave(np.linspace(0, 1, 200))
        template = (shape - shape.min()) / (shape.max() - shape.min())
        sigma = 0.05
        stack = []
        for _ in range(50):
            noisy = template + sigma * rng.standard_normal(200)
            stack.append((noisy - noisy.min()) / (noisy.max() - noisy.min()))
        stack = np.array(stack)
        avg = average_beats(stack)
        # exact against an independent numpy reduction of the same stack
        assert_allclose(avg.mean, stack.mean(axis=0), atol=1e-12)
        assert_allclose(avg.sd, stack.std(axis=0), atol=1e-12)
        assert avg.n_beats == 50
        # Monte-Carlo magnitude: the per-copy min-max rescale shrinks the
        # injected sigma by the noisy range (~1.25), the mean keeps shape
        assert 0.03 < np.median(avg.sd) < 0.06
        peak_region = slice(30, 45)
        assert abs(avg.mean[peak_region].max() - 1.0) < 0.07

    def test_identical_beats_zero_sd(self):
        waveform, _ = pulse_train_series(duration_s=30.0, hr_bpm=60.0)
        train = detect_peaks(waveform)
        _, shapes = segment_beats_indexed(waveform, train)
        avg = average_beats(shapes)
        assert np.median(avg.sd) < 0.01

    def test_empty_error(self):
        with pytest.raises(ValueError):
            average_beats(np.empty((0, 200)))


class TestAlignBeatEvents:
    def test_exact_shift(self):
        times = np.arange(0.5, 20.0, 1.0)
        a = event_train(times, FS)
        b = event_train(times + 0.5, FS)
        lag, pairs = align_beat_events(a, b)
        assert_allclose(lag, 0.5, atol=1e-9)
        assert pairs == [(i, i) for i in range(times.size)]

    def test_zero_shift_identity(self):
        times = np.arange(0.5, 20.0, 1.0)
        a = event_train(times, FS)
        lag, pairs = align_beat_events(a, a)
        assert lag == 0.0
        assert pairs == [(i, i) for i in range(times.size)]

    def test_disjoint_trains(self):
        a = event_train(np.array([1.0, 2.0, 3.0]), FS)
        b = event_train(np.array([31.0, 32.0, 33.0]), FS)
        lag, pairs = align_beat_events(a, b, max_lag_s=5.0)
        assert pairs == []

    def test_single_event_each(self):
        a = event_train(np.array([1.0]), FS)
        b = event_train(np.array([1.5]), FS)
        lag, pairs = align_beat_events(a, b)
        assert abs(lag - 0.5) < 1e-9
        assert pairs == [(0, 0)]

    def test_empty_train_rejected(self):
        a = event_train(np.array([1.0]), FS)
        empty = PeakTrain(np.array([], dtype=int), np.array([], dtype=int), FS)
        with pytest.raises(ValueError, match="diastolic events"):
            align_beat_events(a, empty)

    def test_paired_consecutive(self):
        pairs = [(0, 0), (1, 1), (3, 2), (4, 3), (5, 4)]
        i, j = paired_consecutive(pairs)
        assert i.tolist() == [0, 3, 4]
        assert j.tolist() == [0, 2, 3]
        for pairs in ([], [(2, 5)]):
            i, j = paired_consecutive(pairs)
            assert i.size == j.size == 0

    @given(seed=st.integers(0, 500))
    def test_self_alignment_identity(self, seed):
        rng = np.random.default_rng(seed)
        times = np.cumsum(rng.uniform(0.5, 1.5, 20))
        train = event_train(times, FS)
        lag, pairs = align_beat_events(train, train)
        assert lag == 0.0
        assert pairs == [(i, i) for i in range(times.size)]
