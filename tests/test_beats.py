import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from pulsecmp.beats import (
    BeatSegment,
    PeakTrain,
    align_beat_events,
    average_beats,
    detect_peaks,
    event_train,
    extract_ibi,
    paired_consecutive,
    segment_beats_indexed,
)
from pulsecmp.signal_core import TimeSeries
from pulsecmp.synth import PulseModel, generate_waveform

from oracles import segment_beats, three_bump_wave

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
        segments = segment_beats(waveform, train)
        assert segments
        peak_pos = np.argmax(segments[0].normalized) / (len(segments[0].normalized) - 1)
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
        segments = segment_beats(series, train, norm_len=200)
        assert len(segments) == 1
        assert_allclose(segments[0].normalized, series.samples[:200], atol=1e-12)

    def test_flat_segment_discarded(self):
        x = np.zeros(1000)
        t = np.arange(1000)
        x += np.exp(-(((t - 300) / 30.0) ** 2))
        series = TimeSeries(x, FS)
        train = PeakTrain(np.array([300]), np.array([100, 600]), FS)
        flat_train = PeakTrain(np.array([], dtype=int), np.array([700, 900]), FS)
        assert len(segment_beats(series, train)) == 1
        assert len(segment_beats(series, flat_train)) == 0

    def test_indexed_mapping(self):
        waveform, _ = pulse_train_series(duration_s=20.0, seed=2, ibi_sd_ms=30.0)
        train = detect_peaks(waveform)
        indexed = segment_beats_indexed(waveform, train)
        ks = [k for k, _ in indexed]
        assert ks == sorted(ks)
        assert all(0 <= k < train.diastolic_indices.size - 1 for k in ks)

    def test_normalization_invariants(self):
        waveform, _ = pulse_train_series(duration_s=20.0, seed=9, ibi_sd_ms=30.0)
        train = detect_peaks(waveform)
        for seg in segment_beats(waveform, train, norm_len=150):
            assert seg.normalized.size == 150
            assert abs(seg.normalized.min()) <= 1e-9
            assert abs(seg.normalized.max() - 1.0) <= 1e-9


class TestAverageBeats:
    def test_single_segment(self):
        waveform, _ = pulse_train_series(duration_s=12.0)
        train = detect_peaks(waveform)
        seg = segment_beats(waveform, train)[0]
        avg = average_beats([seg])
        assert_allclose(avg.mean, seg.normalized)
        assert_allclose(avg.sd, 0.0)
        assert avg.n_beats == 1

    def test_mirrored_pair(self):
        v = np.linspace(0.0, 1.0, 200)
        raw = TimeSeries(v, FS)
        segs = [BeatSegment(raw, v), BeatSegment(raw, 1.0 - v)]
        avg = average_beats(segs)
        assert_allclose(avg.mean, 0.5, atol=1e-12)

    def test_noisy_copies(self):
        rng = np.random.default_rng(42)
        shape = three_bump_wave(np.linspace(0, 1, 200))
        template = (shape - shape.min()) / (shape.max() - shape.min())
        raw = TimeSeries(template, FS)
        sigma = 0.05
        stack = []
        segs = []
        for _ in range(50):
            noisy = template + sigma * rng.standard_normal(200)
            normalized = (noisy - noisy.min()) / (noisy.max() - noisy.min())
            stack.append(normalized)
            segs.append(BeatSegment(raw, normalized))
        stack = np.array(stack)
        avg = average_beats(segs)
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
        segs = segment_beats(waveform, train)
        avg = average_beats(segs)
        assert np.median(avg.sd) < 0.01

    def test_empty_error(self):
        with pytest.raises(ValueError):
            average_beats([])


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
        cons = paired_consecutive(pairs)
        assert ((0, 1), (0, 1)) in cons
        assert ((3, 4), (2, 3)) in cons
        assert ((4, 5), (3, 4)) in cons
        assert len(cons) == 3

    @given(seed=st.integers(0, 500))
    def test_self_alignment_identity(self, seed):
        rng = np.random.default_rng(seed)
        times = np.cumsum(rng.uniform(0.5, 1.5, 20))
        train = event_train(times, FS)
        lag, pairs = align_beat_events(train, train)
        assert lag == 0.0
        assert pairs == [(i, i) for i in range(times.size)]
