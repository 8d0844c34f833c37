"""Beat detection, inter-beat intervals and segmentation.

"Diastolic peak" throughout means the waveform foot: the minimum between
consecutive systolic maxima, which marks the start of the upstroke. Feet
are the timing anchors for inter-beat intervals and for cross-modality
event matching. A modality's beats are one ``metrics.BeatTable``, each
beat cut, normalized and measured in one pass, and indexed by pairs.

The primitives are numpy alone and give the same integers as the scipy
calls they stand for: the systolic peak finder is
``scipy.signal.find_peaks`` with ``distance`` and ``prominence``
(plateau midpoints, greedy suppression in height order, prominence from
range maxima and minima over the local maxima); the rolling
peak-to-peak that scales its threshold is ``maximum_filter1d`` minus
``minimum_filter1d`` with ``mode="nearest"``, by doubling spans; and
event alignment, on two arrays of event times, counts event pairs at
each lag exactly, which is the impulse-train cross-correlation without
FFT rounding, and returns the matches as two index arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pulsecmp.config import PipelineConfig
from pulsecmp.metrics import MIN_BEAT_SAMPLES, BeatTable, auc_normalized, count_inflections
from pulsecmp.signal_core import TimeSeries, median

IBI_MIN_MS = 250.0
IBI_MAX_MS = 3000.0

EVENT_GRID_HZ = 200.0

# Beats cut, resampled and measured per block of rows: a whole table's
# index and interpolation temporaries would grow with the recording.
BEAT_BLOCK_ROWS = 128


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

    def diastolic_times(self) -> np.ndarray:
        return self.start_time_s + self.diastolic_indices / self.sample_rate_hz


def _running_extreme(x: np.ndarray, window: int, op: np.ufunc) -> np.ndarray:
    """Running ``op`` (``np.maximum`` or ``np.minimum``) over centred windows.

    Window ``i`` spans samples ``i - window // 2`` to ``i - window // 2 +
    window - 1``, the edge samples repeated beyond the record. Spans
    double by one vectorized pass each up to the largest power of two
    within the window, and two overlapping spans cover it, so the cost
    is ``log2(window)`` passes over the record, exact for any window.
    The passes go back and forth between two buffers.
    """
    left = window // 2
    src = np.concatenate((np.full(left, x[0]), x, np.full(window - 1 - left, x[-1])))
    dst = np.empty_like(src)
    size, span = src.size, 1
    while 2 * span <= window:
        size -= span
        op(src[:size], src[span : span + size], out=dst[:size])
        src, dst = dst, src
        span *= 2
    return op(src[: x.size], src[window - span : window - span + x.size], out=dst[: x.size])


# Samples per block of the rolling peak-to-peak: its running extremes
# are taken over one block (and a window's overlap) at a time.
P2P_BLOCK = 1 << 14


def _rolling_p2p_median(x: np.ndarray, window: int) -> float:
    if x.size < window or window < 2:
        return float(x.max() - x.min())
    # each block's window reaches past it by half a window at most on
    # either side, so the record's edges are repeated only at its ends
    left, right = window // 2, window - 1 - window // 2
    block = max(P2P_BLOCK, window)
    p2p = np.empty(x.size)
    for start in range(0, x.size, block):
        stop = min(start + block, x.size)
        lo = max(0, start - left)
        seg = x[lo : min(x.size, stop + right)]
        keep = slice(start - lo, stop - lo)
        np.subtract(
            _running_extreme(seg, window, np.maximum)[keep],
            _running_extreme(seg, window, np.minimum)[keep],
            out=p2p[start:stop],
        )
    return median(p2p)


def _local_maxima(x: np.ndarray) -> np.ndarray:
    """Midpoint (rounded down) of every plateau entered by a strict rise
    and left by a strict fall; a plateau touching either end is none."""
    step = np.diff(x)
    rising, moving = step > 0, step != 0
    del step  # the float steps go before the indices are taken
    changes = np.flatnonzero(moving)
    rises = rising[changes]
    peak = rises[:-1] & ~rises[1:]
    return (changes[:-1][peak] + 1 + changes[1:][peak]) // 2


def _distance_keep(peaks: np.ndarray, heights: np.ndarray, distance: int) -> np.ndarray:
    """Mask of the peaks kept by greedy suppression within ``distance``.

    Peaks are visited from the highest down, in reversed ``np.argsort``
    order, so equal heights are visited in scipy's order; each one
    still kept removes every peak less than ``distance`` samples away.
    A peak with no neighbour that close takes no part.
    """
    keep = np.ones(peaks.size, dtype=bool)
    lo = np.searchsorted(peaks, peaks - distance, "right")
    hi = np.searchsorted(peaks, peaks + distance, "left")
    own = np.arange(peaks.size)
    crowded = (lo < own) | (hi > own + 1)
    order = np.argsort(heights)[::-1]
    for j in order[crowded[order]].tolist():
        if keep[j]:
            keep[lo[j] : j] = False
            keep[j + 1 : hi[j]] = False
    return keep


def _sparse_table(values: np.ndarray, op: np.ufunc) -> list[np.ndarray]:
    # level k holds op over values[i : i + 2**k] at index i
    levels = [values]
    while 2 * (width := 1 << (len(levels) - 1)) <= values.size:
        levels.append(op(levels[-1][:-width], levels[-1][width:]))
    return levels


def _prominences(x: np.ndarray, maxima: np.ndarray, which: np.ndarray) -> np.ndarray:
    """Prominence of the local maxima ``maxima[which]``.

    The height above the higher of the two lowest points reached on
    each side before ground strictly higher than the peak (or the end
    of the record). That ground is always reached at a local maximum,
    so each side is the run of neighbouring maxima no higher than the
    peak, found by binary lifting over range maxima, and its lowest
    point the least valley along that run, from range minima of the
    valleys between consecutive maxima.
    """
    heights = x[maxima]
    # valley[i] is the minimum between maxima i - 1 and i (valley[0]
    # and valley[-1] reach the record's ends)
    valleys = np.minimum.reduceat(x, np.concatenate(([0], maxima)))
    highest = _sparse_table(heights, np.maximum)
    lowest = _sparse_table(valleys, np.minimum)
    top = heights[which]
    start, left_min = which.copy(), valleys[which]
    stop, right_min = which + 1, valleys[which + 1]
    for k in range(len(highest) - 1, -1, -1):
        width = 1 << k
        # extend the left run over maxima start - width .. start - 1
        ok = start >= width
        at = np.where(ok, start - width, 0)
        ok &= highest[k][at] <= top
        left_min = np.where(ok, np.minimum(left_min, lowest[k][at]), left_min)
        start = np.where(ok, at, start)
        # extend the right run over maxima stop .. stop + width - 1
        ok = stop + width <= maxima.size
        at = np.where(ok, stop, 0)
        ok &= highest[k][at] <= top
        right_min = np.where(ok, np.minimum(right_min, lowest[k][at + 1]), right_min)
        stop = np.where(ok, stop + width, stop)
    return top - np.maximum(left_min, right_min)


def _find_peaks(x: np.ndarray, distance: int, prominence: float) -> np.ndarray:
    """Indices of the local maxima kept by distance, then prominence.

    The same integers as ``scipy.signal.find_peaks(x, distance=distance,
    prominence=prominence)``: plateau midpoints, height-ordered
    suppression of peaks closer than ``distance`` samples, then a
    prominence of at least ``prominence``.
    """
    maxima = _local_maxima(x)
    if not maxima.size:
        return maxima
    which = np.flatnonzero(_distance_keep(maxima, x[maxima], distance))
    return maxima[which[_prominences(x, maxima, which) >= prominence]]


def detect_peaks(
    x: TimeSeries,
    min_separation_s: float = PipelineConfig.beats_min_separation_s,
    prominence_rel: float = PipelineConfig.beats_prominence_rel,
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
    systolic = _find_peaks(sig, distance, threshold)
    return PeakTrain(systolic, _feet(sig, systolic), fs, x.start_time_s)


def _feet(sig: np.ndarray, systolic: np.ndarray) -> np.ndarray:
    """First index of the minimum of every segment that ``systolic``
    cuts ``sig`` into, each peak starting a segment; the segment before
    the first peak and the one after the last count when not empty."""
    if not systolic.size:
        return systolic
    starts = systolic if systolic[0] == 0 else np.concatenate(([0], systolic))
    minima = np.minimum.reduceat(sig, starts)
    at_min = np.flatnonzero(sig == np.repeat(minima, np.diff(starts, append=sig.size)))
    feet = at_min[np.searchsorted(at_min, starts)]
    # the segment after the last peak is empty but for the peak itself
    return feet[:-1] if systolic[-1] == sig.size - 1 else feet


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
    # the last foot strictly before and the first strictly after each peak
    before = np.searchsorted(dia_idx, sys_idx, "left") - 1
    after = np.searchsorted(dia_idx, sys_idx, "right")
    has_before, has_after = before >= 0, after < dia_idx.size
    rises = sys_idx[has_before] - dia_idx[before[has_before]]
    decays = dia_idx[after[has_after]] - sys_idx[has_after]
    if not rises.size or not decays.size:
        return None
    return float(np.mean(rises)) > float(np.mean(decays))


def orient_and_detect(
    waveform: TimeSeries,
    min_separation_s: float = PipelineConfig.beats_min_separation_s,
    prominence_rel: float = PipelineConfig.beats_prominence_rel,
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


def extract_ibi(train: PeakTrain) -> tuple[np.ndarray, np.ndarray]:
    """Intervals between successive diastolic feet: ``(anchor_times_s,
    intervals_ms)``, each interval with the time of its leading foot.

    Intervals outside the (250, 3000) ms plausibility gate are dropped
    together with their anchors. Fewer than two feet yield two empty
    arrays.
    """
    intervals = foot_intervals_ms(train)
    anchors = train.start_time_s + train.diastolic_indices[:-1] / train.sample_rate_hz
    keep = in_ibi_gate(intervals)
    return anchors[keep], intervals[keep]


def segment_beats_indexed(
    x: TimeSeries, train: PeakTrain, norm_len: int = PipelineConfig.beats_norm_len
) -> BeatTable:
    """Cut the waveform into beats between consecutive diastolic feet, as one table.

    Each beat is resampled to ``norm_len`` points and min-max scaled to
    span exactly [0, 1]; flat beats (peak-to-peak below 1e-12) are
    discarded. Each kept beat is measured as it is cut: its row holds
    the increasing index in ``train`` of its leading diastolic foot, for
    matching beats across modalities after event alignment, its shape,
    its extrema count and its area. ``norm_len`` below ``MIN_BEAT_SAMPLES``,
    the shortest beat ``count_inflections`` measures, fails before any cut,
    and a waveform so large that a beat's resampling overflows fails too.
    """
    if norm_len < MIN_BEAT_SAMPLES:
        raise ValueError(f"norm_len must be at least {MIN_BEAT_SAMPLES}")
    d = train.diastolic_indices
    grid = np.linspace(0.0, 1.0, int(norm_len))
    n = max(0, d.size - 1)
    table = BeatTable(np.empty(n, np.int64), np.empty((n, grid.size)), np.empty(n), np.empty(n))
    filled = 0
    for k in range(0, n, BEAT_BLOCK_ROWS):
        lead = d[k : k + BEAT_BLOCK_ROWS + 1]
        # a finite waveform near the float range can overflow the
        # interpolation's slopes: the spans show it, with no numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            resampled = _resample_beats(x.samples, lead[:-1], np.diff(lead) + 1, grid)
            low = resampled.min(axis=1, keepdims=True)
            span = resampled.max(axis=1, keepdims=True) - low
        if not np.isfinite(span).all():
            raise ValueError("beat resampling overflowed: waveform too large")
        kept = span[:, 0] >= 1e-12
        shapes = (resampled[kept] - low[kept]) / span[kept]
        rows = slice(filled, filled + len(shapes))
        table.feet[rows] = k + np.flatnonzero(kept)
        table.shapes[rows] = shapes
        table.extrema[rows] = count_inflections(shapes)
        table.auc[rows] = auc_normalized(shapes)
        filled = rows.stop
    # flat beats leave the last rows unfilled
    return table.rows(slice(0, filled))


def _resample_beats(
    samples: np.ndarray, starts: np.ndarray, lengths: np.ndarray, grid: np.ndarray
) -> np.ndarray:
    """Row ``k`` is ``np.interp(grid, np.linspace(0, 1, L), beat)`` for
    the beat ``samples[starts[k]:][:L]``, ``L = lengths[k]``, bit for bit.

    ``grid`` runs from 0 to 1 inclusive. The beat's sample ``j`` sits at
    ``j * (1 / (L - 1))``, its last at 1, as ``np.linspace`` places
    them; each grid point below 1 is bracketed from ``floor`` with a
    one-step fix-up and interpolated with ``np.interp``'s arithmetic,
    and the grid's 1 takes the beat's last sample.
    """
    starts, last = starts[:, None], lengths[:, None] - 1
    step = 1.0 / last

    def at(i):  # the position of each beat's sample i
        return np.where(i == last, 1.0, i * step)

    g = grid[:-1]
    j = np.minimum(np.floor(g * last).astype(np.int64), last - 1)
    j -= at(j) > g
    j += at(j + 1) <= g
    xj = at(j)
    fj = samples[starts + j]
    slope = (samples[starts + j + 1] - fj) / (at(j + 1) - xj)
    out = np.empty((starts.shape[0], grid.size))
    out[:, :-1] = np.where(xj == g, fj, slope * (g - xj) + fj)
    out[:, -1] = samples[starts[:, 0] + last[:, 0]]
    return out


def align_beat_events(
    ta_s: np.ndarray,
    tb_s: np.ndarray,
    max_lag_s: float = PipelineConfig.align_max_lag_s,
    pair_tol_s: float = PipelineConfig.align_pair_tol_s,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Match two increasing sets of event times recorded simultaneously.

    Both event sets are rounded onto a fixed 200 Hz grid, and every
    pair of grid events within ``max_lag_s`` of each other is counted
    at its lag: the exact cross-correlation of the two binary impulse
    series. The most frequent lag, the earliest on a tie, is the amount
    by which ``tb_s`` trails ``ta_s``. After shifting ``tb_s`` by the
    lag, events are matched greedily nearest-neighbor with residual
    offsets at most ``pair_tol_s``, each event used once.

    Returns
    -------
    (lag_s, ia, ib)
        Match ``k`` pairs ``ta_s[ia[k]]`` with ``tb_s[ib[k]]``; both
        int64 arrays are in increasing order of ``ia``, and empty when
        nothing matches within tolerance.
    """
    if ta_s.size == 0 or tb_s.size == 0:
        raise ValueError("both trains must contain events")
    fs = EVENT_GRID_HZ
    t_lo = min(ta_s.min(), tb_s.min())
    n = int(round((max(ta_s.max(), tb_s.max()) - t_lo) * fs)) + 1
    # each set's times increase, so its distinct grid events are where
    # the rounded steps change (np.unique would import numpy.ma)
    grid = [np.clip(np.round((t - t_lo) * fs).astype(int), 0, n - 1) for t in (ta_s, tb_s)]
    ga, gb = (g[np.concatenate(([True], g[1:] != g[:-1]))] for g in grid)
    reach = min(int(round(max_lag_s * fs)), n - 1)
    if reach < 0:
        raise ValueError("max_lag_s must not be negative")
    if pair_tol_s < 0:
        raise ValueError("pair_tol_s must not be negative")
    # every (a, b) event pair at most ``reach`` grid steps apart
    lo = np.searchsorted(gb, ga - reach, "left")
    per_a = np.searchsorted(gb, ga + reach, "right") - lo
    first = np.repeat(lo - np.cumsum(per_a) + per_a, per_a)
    b_index = first + np.arange(per_a.sum())
    lags = gb[b_index] - np.repeat(ga, per_a)
    counts = np.bincount(lags + reach, minlength=2 * reach + 1)
    lag_s = float((int(np.argmax(counts)) - reach) / fs)

    # each shifted b event's candidates are the a events either side of it
    shifted = tb_s - lag_s
    after = np.searchsorted(ta_s, shifted)
    cand_a = np.concatenate((after - 1, after))
    cand_b = np.tile(np.arange(shifted.size), 2)
    inside = (cand_a >= 0) & (cand_a < ta_s.size)
    cand_a, cand_b = cand_a[inside], cand_b[inside]
    dt = np.abs(ta_s[cand_a] - shifted[cand_b])
    near = dt <= pair_tol_s
    cand_a, cand_b, dt = cand_a[near], cand_b[near], dt[near]
    # nearest first, ties to the lower a index, then the lower b index
    order = np.lexsort((cand_b, cand_a, dt))
    used_a: set[int] = set()
    used_b: set[int] = set()
    pairs: list[tuple[int, int]] = []
    for i, j in zip(cand_a[order].tolist(), cand_b[order].tolist()):
        if i not in used_a and j not in used_b:
            pairs.append((i, j))
            used_a.add(i)
            used_b.add(j)
    pairs.sort()
    ia, ib = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return lag_s, ia, ib


def paired_consecutive(ia: np.ndarray, ib: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Leading indices of the matches whose next events also matched.

    Returns the arrays ``i`` and ``j`` of every match ``(ia[k], ib[k])``
    for which ``(ia[k] + 1, ib[k] + 1)`` is the next match: a beat
    bounded by two matched feet in each train, usable for
    interval-by-interval or beat-by-beat comparison.
    """
    lead = (np.diff(ia) == 1) & (np.diff(ib) == 1)
    return ia[:-1][lead], ib[:-1][lead]
