"""Core signal types and shared DSP primitives.

Everything downstream (radar phase filtering, PPG conditioning, beat
analysis) is built on the operations here: zero-phase Butterworth
band-pass filtering and linear resampling. All arithmetic is 64-bit
floating point; operations are pure functions and never mutate their
inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import butter, sosfiltfilt


@dataclass
class TimeSeries:
    """Uniformly sampled scalar signal.

    Sample ``i`` occurs at time ``start_time_s + i / sample_rate_hz``.

    Parameters
    ----------
    samples : array_like
        Signal values; stored as a float64 array.
    sample_rate_hz : float
        Sampling rate, must be positive.
    start_time_s : float, optional
        Time of the first sample (default 0).
    """

    samples: np.ndarray
    sample_rate_hz: float
    start_time_s: float = 0.0

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if self.samples.size < 1:
            raise ValueError("empty input")
        if not self.sample_rate_hz > 0:
            raise ValueError("sample_rate_hz must be positive")
        self.sample_rate_hz = float(self.sample_rate_hz)
        self.start_time_s = float(self.start_time_s)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        """Span from the first to one past the last sample, in seconds."""
        return self.samples.size / self.sample_rate_hz

    def times(self) -> np.ndarray:
        """Time of every sample, in seconds."""
        return self.start_time_s + np.arange(self.samples.size) / self.sample_rate_hz

    def with_samples(self, samples: np.ndarray) -> "TimeSeries":
        """Copy of this series carrying new sample values."""
        return TimeSeries(samples, self.sample_rate_hz, self.start_time_s)


@dataclass(frozen=True)
class BandpassSpec:
    """Butterworth band-pass design parameters.

    The default (order 4, 0.5 Hz, 8 Hz) keeps cardiac content while
    rejecting baseline drift and high-frequency noise. Cutoffs are
    validated against the Nyquist rate when the filter is applied.
    """

    order: int = 4
    low_cut_hz: float = 0.5
    high_cut_hz: float = 8.0

    def __post_init__(self):
        if int(self.order) != self.order or self.order < 1:
            raise ValueError("order must be a positive integer")
        if not (0.0 < self.low_cut_hz < self.high_cut_hz):
            raise ValueError("invalid cutoff")

    def validate_for(self, sample_rate_hz: float) -> None:
        """Raise if the band does not fit below Nyquist for this rate."""
        if self.high_cut_hz >= sample_rate_hz / 2.0:
            raise ValueError("invalid cutoff")


@functools.lru_cache(maxsize=32)
def _bandpass_sos(spec: BandpassSpec, sample_rate_hz: float) -> np.ndarray:
    # Memoized: the radar chain filters one (antenna, bin) cell per
    # call and would otherwise redesign the same filter for each. The
    # cached array is shared, so it is read-only.
    sos = butter(
        spec.order,
        [spec.low_cut_hz, spec.high_cut_hz],
        btype="bandpass",
        fs=sample_rate_hz,
        output="sos",
    )
    sos.flags.writeable = False
    return sos


def _bandpass_padlen(spec: BandpassSpec, sample_rate_hz: float, n: int) -> int:
    # Reflect-pad by three times the effective impulse length of the
    # slowest pole, capped at n - 1 so short records remain filterable.
    nominal = 3 * spec.order * math.ceil(sample_rate_hz / spec.low_cut_hz)
    return int(min(nominal, n - 1))


def butterworth_bandpass(x: TimeSeries, spec: BandpassSpec | None = None) -> TimeSeries:
    """Zero-phase Butterworth band-pass filter.

    A bilinear-transform Butterworth design is applied forward and
    backward, squaring the magnitude response and cancelling the phase
    so peak timing is preserved. Each end is reflect-padded before
    filtering to suppress startup transients (see ``_bandpass_padlen``).

    Parameters
    ----------
    x : TimeSeries
        Input signal.
    spec : BandpassSpec, optional
        Filter design; the shared (4, 0.5, 8) default when omitted.

    Returns
    -------
    TimeSeries
        Filtered signal, same length, rate, and start time as ``x``.

    Raises
    ------
    ValueError
        "invalid cutoff" if the band does not fit below Nyquist, or
        "input too short" when fewer than ``3 * order`` samples.
    """
    return x.with_samples(bandpass_array(x.samples, x.sample_rate_hz, spec))


def bandpass_array(
    values: np.ndarray, sample_rate_hz: float, spec: BandpassSpec | None = None
) -> np.ndarray:
    """Array form of :func:`butterworth_bandpass`.

    Filters along the last axis with the one design and padding rule.
    A flat signal maps to exact zeros.
    """
    if spec is None:
        spec = BandpassSpec()
    spec.validate_for(sample_rate_hz)
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[-1]
    if n < 3 * spec.order:
        raise ValueError("input too short")
    # scipy's sosfilt kernel needs a writable buffer, though it does
    # not write the design
    sos = _bandpass_sos(spec, sample_rate_hz).copy()
    padlen = _bandpass_padlen(spec, sample_rate_hz, n)
    out = sosfiltfilt(sos, values, padtype="even", padlen=padlen)
    flat = values.max(axis=-1, keepdims=True) == values.min(axis=-1, keepdims=True)
    if flat.any():
        # the band-pass has an exact zero at DC; snap the rounding fuzz
        out = np.where(np.broadcast_to(flat, out.shape), 0.0, out)
    return out


def resample_linear(x: TimeSeries, target_len: int) -> np.ndarray:
    """Linearly interpolate onto ``target_len`` points spanning the series.

    The output grid covers the first through last sample times
    inclusively, so both endpoints are preserved exactly.
    """
    if len(x) < 2:
        raise ValueError("need at least two samples")
    if target_len < 2:
        raise ValueError("target_len must be at least 2")
    src = np.linspace(0.0, 1.0, len(x))
    dst = np.linspace(0.0, 1.0, int(target_len))
    return np.interp(dst, src, x.samples)
