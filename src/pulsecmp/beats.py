"""Beat detection, inter-beat intervals, segmentation, and averaging.

"Diastolic peak" throughout means the waveform foot: the minimum between
consecutive systolic maxima, which marks the start of the upstroke. Feet
are the timing anchors for inter-beat intervals and for cross-modality
event matching.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import maximum_filter1d, minimum_filter1d
from scipy.signal import correlate, find_peaks

from pulsecmp.signal_core import TimeSeries, resample_linear

IBI_MIN_MS = 250.0
IBI_MAX_MS = 3000.0

EVENT_GRID_HZ = 200.0


@dataclass
class PeakTrain:
    """Indices of systolic maxima and diastolic feet in one waveform.

    Both index arrays are strictly increasing. When systolic peaks are
    present the two sets interleave: exactly one systolic peak lies
    between consecutive diastolic feet.
    """

    systolic_indices: np.ndarray
    diastolic_indices: np.ndarray
    sample_rate_hz: float
    start_time_s: float = 0.0

    def __post_init__(self):
        self.systolic_indices = np.asarray(self.systolic_indices, dtype=np.int64)
        self.diastolic_indices = np.asarray(self.diastolic_indices, dtype=np.int64)
        for arr in (self.systolic_indices, self.diastolic_indices):
            if arr.size > 1 and not np.all(np.diff(arr) > 0):
                raise ValueError("peak indices must be strictly increasing")
        if not self.sample_rate_hz > 0:
            raise ValueError("sample_rate_hz must be positive")
        if self.systolic_indices.size and self.diastolic_indices.size:
            self._check_interleaving()

    def _check_interleaving(self):
        # systolic indices strictly between consecutive feet, for every
        # pair of feet at once (both arrays are strictly increasing)
        s, d = self.systolic_indices, self.diastolic_indices
        between = np.searchsorted(s, d[1:], "left") - np.searchsorted(s, d[:-1], "right")
        if np.any(between != 1):
            raise ValueError("systolic and diastolic peaks must interleave")

    @property
    def n_beats(self) -> int:
        """Number of complete foot-to-foot beats."""
        return max(0, self.diastolic_indices.size - 1)

    def diastolic_times(self) -> np.ndarray:
        return self.start_time_s + self.diastolic_indices / self.sample_rate_hz


def event_train(times_s: np.ndarray, sample_rate_hz: float) -> PeakTrain:
    """Diastolic-only PeakTrain from event times, for alignment purposes."""
    times = np.asarray(times_s, dtype=np.float64)
    idx = np.round(times * sample_rate_hz).astype(np.int64)
    return PeakTrain(np.array([], dtype=np.int64), idx, sample_rate_hz)


@dataclass
class IbiSeries:
    """Inter-beat intervals with the time of each interval's leading foot."""

    intervals_ms: np.ndarray
    anchor_times_s: np.ndarray

    def __post_init__(self):
        self.intervals_ms = np.asarray(self.intervals_ms, dtype=np.float64)
        self.anchor_times_s = np.asarray(self.anchor_times_s, dtype=np.float64)
        if self.intervals_ms.size != self.anchor_times_s.size:
            raise ValueError("intervals and anchors must have equal length")
        if self.intervals_ms.size and not (
            np.all(self.intervals_ms > IBI_MIN_MS) and np.all(self.intervals_ms < IBI_MAX_MS)
        ):
            raise ValueError("intervals outside the plausibility gate")

    def __len__(self) -> int:
        return self.intervals_ms.size


@dataclass
class BeatSegment:
    """One cardiac cycle between consecutive diastolic feet.

    ``raw`` is the unmodified waveform slice; ``normalized`` is the same
    beat resampled to a fixed length with amplitude min-max scaled to
    [0, 1] and the time axis mapped to [0, 1].
    """

    raw: TimeSeries
    normalized: np.ndarray

    def __post_init__(self):
        self.normalized = np.asarray(self.normalized, dtype=np.float64)
        if abs(self.normalized.min()) > 1e-9 or abs(self.normalized.max() - 1.0) > 1e-9:
            raise ValueError("normalized beat must span [0, 1]")


@dataclass
class AverageBeat:
    """Pointwise mean and spread of a set of normalized beats."""

    mean: np.ndarray
    sd: np.ndarray
    n_beats: int

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.sd = np.asarray(self.sd, dtype=np.float64)
        if self.mean.shape != self.sd.shape:
            raise ValueError("mean and sd must have equal length")
        if np.any(self.sd < 0):
            raise ValueError("sd must be non-negative")
        if self.n_beats < 1:
            raise ValueError("n_beats must be at least 1")


def _rolling_p2p_median(x: np.ndarray, window: int) -> float:
    if x.size >= window and window > 1:
        p2p = maximum_filter1d(x, size=window, mode="nearest") - minimum_filter1d(
            x, size=window, mode="nearest"
        )
        return float(np.median(p2p))
    return float(x.max() - x.min())


def detect_peaks(
    x: TimeSeries,
    min_separation_s: float = 0.33,
    prominence_rel: float = 0.3,
) -> PeakTrain:
    """Locate systolic maxima and diastolic feet in a filtered waveform.

    Systolic peaks are local maxima separated by at least
    ``min_separation_s`` whose prominence reaches ``prominence_rel``
    times the median peak-to-peak amplitude of 2-second sliding windows;
    the relative threshold makes the detector invariant to positive
    affine transforms of the input. Diastolic feet are the minimum
    samples between consecutive systolic peaks, plus the minima of the
    regions preceding the first and following the last systolic peak
    when those regions exist within the record.

    Finding no peaks is not an error: the result is an empty train.
    """
    fs = x.sample_rate_hz
    if len(x) < 3 * fs:
        raise ValueError("recording too short")
    sig = x.samples
    window = int(round(2.0 * fs))
    threshold = prominence_rel * _rolling_p2p_median(sig, window)
    distance = max(1, int(round(min_separation_s * fs)))
    systolic, _ = find_peaks(sig, distance=distance, prominence=threshold)
    diastolic: list[int] = []
    if systolic.size:
        if systolic[0] > 0:
            diastolic.append(int(np.argmin(sig[: systolic[0]])))
        for a, b in zip(systolic[:-1], systolic[1:]):
            diastolic.append(int(a + np.argmin(sig[a:b])))
        if systolic[-1] < sig.size - 1:
            diastolic.append(int(systolic[-1] + np.argmin(sig[systolic[-1] :])))
    return PeakTrain(
        np.asarray(systolic, dtype=np.int64),
        np.asarray(diastolic, dtype=np.int64),
        fs,
        x.start_time_s,
    )


def correct_polarity(
    waveform: TimeSeries,
    min_separation_s: float = 0.33,
    prominence_rel: float = 0.3,
) -> tuple[TimeSeries, bool]:
    """Orient a pulse waveform so the systolic upstroke is positive-going.

    Arterial pulses rise fast and decay slowly. The mean foot-to-peak
    rise time is compared against the mean peak-to-foot decay time; when
    the rise is strictly longer the waveform is negated.

    Raises
    ------
    ValueError
        "insufficient beats for polarity check" with fewer than three
        detected beats.
    """
    train = detect_peaks(waveform, min_separation_s, prominence_rel)
    sys_idx = train.systolic_indices
    dia_idx = train.diastolic_indices
    if sys_idx.size < 3:
        raise ValueError("insufficient beats for polarity check")
    rises = []
    decays = []
    for s in sys_idx:
        before = dia_idx[dia_idx < s]
        after = dia_idx[dia_idx > s]
        if before.size:
            rises.append(s - before[-1])
        if after.size:
            decays.append(after[0] - s)
    if not rises or not decays:
        raise ValueError("insufficient beats for polarity check")
    inverted = float(np.mean(rises)) > float(np.mean(decays))
    if inverted:
        return waveform.with_samples(-waveform.samples), True
    return waveform, False


def correct_polarity_or_keep(
    waveform: TimeSeries,
    min_separation_s: float = 0.33,
    prominence_rel: float = 0.3,
) -> tuple[TimeSeries, bool]:
    """:func:`correct_polarity`, or the waveform unchanged and not inverted
    when the check cannot decide, so degenerate recordings flow on."""
    try:
        return correct_polarity(waveform, min_separation_s, prominence_rel)
    except ValueError:
        return waveform, False


def extract_ibi(train: PeakTrain) -> IbiSeries:
    """Intervals between successive diastolic feet, in milliseconds.

    Intervals outside the (250, 3000) ms plausibility gate are dropped
    together with their anchors. Fewer than two feet yield an empty
    series.
    """
    d = train.diastolic_indices
    if d.size < 2:
        return IbiSeries(np.array([]), np.array([]))
    intervals = np.diff(d) / train.sample_rate_hz * 1000.0
    anchors = train.start_time_s + d[:-1] / train.sample_rate_hz
    keep = (intervals > IBI_MIN_MS) & (intervals < IBI_MAX_MS)
    return IbiSeries(intervals[keep], anchors[keep])


def segment_beats_indexed(
    x: TimeSeries, train: PeakTrain, norm_len: int = 200
) -> list[tuple[int, BeatSegment]]:
    """Cut the waveform into beats between consecutive diastolic feet.

    Each beat is resampled to ``norm_len`` points and min-max scaled to
    [0, 1]. Degenerate flat segments (peak-to-peak below 1e-12) are
    discarded. Each segment is paired with the index of its leading
    diastolic foot in ``train``, so segments can be matched across
    modalities after event alignment.
    """
    d = train.diastolic_indices
    if d.size < 2:
        raise ValueError("need at least two diastolic peaks")
    segments = []
    for k, (a, b) in enumerate(zip(d[:-1], d[1:])):
        raw = TimeSeries(
            x.samples[a : b + 1],
            x.sample_rate_hz,
            x.start_time_s + a / x.sample_rate_hz,
        )
        resampled = resample_linear(raw, norm_len)
        span = resampled.max() - resampled.min()
        if span < 1e-12:
            continue
        normalized = (resampled - resampled.min()) / span
        segments.append((k, BeatSegment(raw, normalized)))
    return segments


def average_beats(segments: list[BeatSegment]) -> AverageBeat:
    """Pointwise mean and population standard deviation across beats."""
    if not segments:
        raise ValueError("no beats to average")
    stack = np.stack([s.normalized for s in segments])
    return AverageBeat(stack.mean(axis=0), stack.std(axis=0), len(segments))


def align_beat_events(
    a: PeakTrain,
    b: PeakTrain,
    max_lag_s: float = 5.0,
    pair_tol_s: float = 0.25,
) -> tuple[float, list[tuple[int, int]]]:
    """Match diastolic events of two trains recorded simultaneously.

    Both event sets are rendered as binary impulse series on a fixed
    200 Hz grid and cross-correlated over lags within ``max_lag_s``; the
    argmax lag is the amount by which ``b`` trails ``a``. After shifting
    ``b`` by the lag, events are matched greedily nearest-neighbor with
    residual offsets at most ``pair_tol_s``, each event used once.

    Returns
    -------
    (lag_s, pairs)
        ``pairs`` holds (index into a, index into b) tuples in
        increasing order; empty when nothing matches within tolerance.
    """
    ta = a.diastolic_times()
    tb = b.diastolic_times()
    if ta.size == 0 or tb.size == 0:
        raise ValueError("both trains must contain diastolic events")
    fs = EVENT_GRID_HZ
    t_lo = min(ta.min(), tb.min())
    n = int(round((max(ta.max(), tb.max()) - t_lo) * fs)) + 1
    ia = np.zeros(n)
    ib = np.zeros(n)
    ia[np.clip(np.round((ta - t_lo) * fs).astype(int), 0, n - 1)] = 1.0
    ib[np.clip(np.round((tb - t_lo) * fs).astype(int), 0, n - 1)] = 1.0
    cc = correlate(ib, ia, mode="full", method="fft")
    lags = np.arange(-(n - 1), n)
    max_lag = int(round(max_lag_s * fs))
    mask = (lags >= -max_lag) & (lags <= max_lag)
    lag_s = float(lags[mask][np.argmax(cc[mask])] / fs)

    shifted = tb - lag_s
    candidates = []
    for j, t in enumerate(shifted):
        i = int(np.searchsorted(ta, t))
        for ii in (i - 1, i):
            if 0 <= ii < ta.size:
                dt = abs(ta[ii] - t)
                if dt <= pair_tol_s:
                    candidates.append((dt, ii, j))
    candidates.sort()
    used_a: set[int] = set()
    used_b: set[int] = set()
    pairs: list[tuple[int, int]] = []
    for _, i, j in candidates:
        if i not in used_a and j not in used_b:
            pairs.append((i, j))
            used_a.add(i)
            used_b.add(j)
    pairs.sort()
    return lag_s, pairs


def paired_consecutive(
    pairs: list[tuple[int, int]]
) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Pairs of matches that are consecutive in both trains.

    Each returned item is ((i, i+1), (j, j+1)): a beat bounded by two
    matched feet in each train, usable for interval-by-interval or
    beat-by-beat comparison.
    """
    out = []
    for (i1, j1), (i2, j2) in zip(pairs[:-1], pairs[1:]):
        if i2 == i1 + 1 and j2 == j1 + 1:
            out.append(((i1, i2), (j1, j2)))
    return out
