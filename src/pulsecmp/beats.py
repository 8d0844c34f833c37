"""Beat detection, inter-beat intervals, segmentation, and averaging.

"Diastolic peak" throughout means the waveform foot: the minimum between
consecutive systolic maxima, which marks the start of the upstroke. Feet
are the timing anchors for inter-beat intervals and for cross-modality
event matching. A modality's beats are one table (leading-foot indices
and a ``[beat][norm_len]`` array of normalized shapes), indexed by pairs.
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
        if not np.all(in_ibi_gate(self.intervals_ms)):
            raise ValueError("intervals outside the plausibility gate")

    def __len__(self) -> int:
        return self.intervals_ms.size


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


def polarity_inverted(train: PeakTrain) -> bool | None:
    """Whether a beat train's waveform is upside down; ``None`` when undecidable.

    Arterial pulses rise fast and decay slowly. The mean foot-to-peak
    rise time is compared against the mean peak-to-foot decay time; a
    strictly longer rise means the waveform is inverted. Fewer than
    three systolic peaks, or no rise or no decay to measure, leave the
    question open.
    """
    sys_idx = train.systolic_indices
    dia_idx = train.diastolic_indices
    if sys_idx.size < 3:
        return None
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
        return None
    return float(np.mean(rises)) > float(np.mean(decays))


def orient_and_detect(
    waveform: TimeSeries,
    min_separation_s: float = 0.33,
    prominence_rel: float = 0.3,
) -> tuple[TimeSeries, PeakTrain, bool | None]:
    """Orient a band-passed pulse waveform upstroke-up and detect its beats.

    This is the last step of every modality's chain. Beats are detected
    once; when :func:`polarity_inverted` says the waveform is upside
    down it is negated and detected again, and when the rule cannot
    decide the waveform is kept as it is, so degenerate recordings
    still flow downstream. Returns the oriented waveform, its beat
    train and the polarity decision: whether it was negated, or
    ``None`` when the rule could not decide.

    Raises
    ------
    ValueError
        "recording too short" from :func:`detect_peaks`.
    """
    train = detect_peaks(waveform, min_separation_s, prominence_rel)
    inverted = polarity_inverted(train)
    if not inverted:
        return waveform, train, inverted
    flipped = waveform.with_samples(-waveform.samples)
    return flipped, detect_peaks(flipped, min_separation_s, prominence_rel), True


def in_ibi_gate(intervals_ms: np.ndarray) -> np.ndarray:
    """Mask of the intervals inside the (250, 3000) ms plausibility gate."""
    return (intervals_ms > IBI_MIN_MS) & (intervals_ms < IBI_MAX_MS)


def foot_intervals_ms(train: PeakTrain) -> np.ndarray:
    """Interval from each diastolic foot to the next, in milliseconds, ungated."""
    return np.diff(train.diastolic_indices) / train.sample_rate_hz * 1000.0


def extract_ibi(train: PeakTrain) -> IbiSeries:
    """Intervals between successive diastolic feet, in milliseconds.

    Intervals outside the (250, 3000) ms plausibility gate are dropped
    together with their anchors. Fewer than two feet yield an empty
    series.
    """
    intervals = foot_intervals_ms(train)
    anchors = train.start_time_s + train.diastolic_indices[:-1] / train.sample_rate_hz
    keep = in_ibi_gate(intervals)
    return IbiSeries(intervals[keep], anchors[keep])


def segment_beats_indexed(
    x: TimeSeries, train: PeakTrain, norm_len: int = 200
) -> tuple[np.ndarray, np.ndarray]:
    """Cut the waveform into beats between consecutive diastolic feet.

    Each beat is resampled to ``norm_len`` points and min-max scaled to
    span exactly [0, 1]; flat beats (peak-to-peak below 1e-12) are
    discarded. Returns the kept beats as one table: the increasing
    index in ``train`` of each beat's leading diastolic foot, for
    matching beats across modalities after event alignment, and the
    ``[beat][norm_len]`` array of their normalized shapes.
    """
    d = train.diastolic_indices
    feet, shapes = [], []
    for k, (a, b) in enumerate(zip(d[:-1], d[1:])):
        resampled = resample_linear(TimeSeries(x.samples[a : b + 1], x.sample_rate_hz), norm_len)
        span = resampled.max() - resampled.min()
        if span < 1e-12:
            continue
        feet.append(k)
        shapes.append((resampled - resampled.min()) / span)
    return np.array(feet, dtype=np.int64), np.array(shapes).reshape(len(feet), norm_len)


def average_beats(shapes: np.ndarray) -> AverageBeat:
    """Pointwise mean and population standard deviation of ``[beat][sample]`` shapes."""
    if len(shapes) == 0:
        raise ValueError("no beats to average")
    return AverageBeat(shapes.mean(axis=0), shapes.std(axis=0), len(shapes))


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


def paired_consecutive(pairs: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """Leading indices of the matches whose next events also matched.

    Returns the arrays ``i`` and ``j`` of every match ``(i, j)`` for
    which ``(i + 1, j + 1)`` is the next match: a beat bounded by two
    matched feet in each train, usable for interval-by-interval or
    beat-by-beat comparison.
    """
    matched = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    lead = matched[:-1][np.all(np.diff(matched, axis=0) == 1, axis=1)]
    return lead[:, 0], lead[:, 1]
