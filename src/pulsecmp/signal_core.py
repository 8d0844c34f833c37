"""Core signal types and shared DSP primitives.

Everything downstream (radar phase filtering, PPG conditioning, beat
analysis) is built on the operations here: the shared record-length
minimum, a median and zero-phase Butterworth band-pass filtering. All
arithmetic is 64-bit floating point; operations are pure functions and
never mutate their inputs, but for the median, which partitions its
input in place.

The band-pass is numpy alone. The design is scipy's ``butter(...,
output="sos")``: analog prototype, band-pass transform, bilinear map,
nearest pole-zero pairing into second-order sections. The zero-phase
filter is scipy's ``sosfiltfilt(..., padtype="even")`` computed as a
block recursion (Burrus, IEEE Trans. Audio Electroacoust. 20(4), 1972):
the cascade's states, started in the steady state of the first sample
(Gustafsson, IEEE Trans. Signal Process. 44(4), 1996), are carried from
block to block by matrix products, so no Python loop runs per sample.
The products are formed one slab of a few thousand samples at a time
in one reused buffer, not over the whole row: each is one small GEMM,
below OpenBLAS's threading threshold, so it runs on the calling thread
with the same bits per output whatever the BLAS thread count (the CLI
starts OpenBLAS with one thread and no worker pool). Both passes write
over the padded row itself, the backward one through its reversed view,
so a filter holds the padded row and one slab's products.
``bandpass_gain`` bounds the filter's output by the range of its input;
it rests on the even extension and the steady-state starts, so it sits
beside them here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


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


# Shortest record, in seconds, that any modality's chain accepts.
MIN_RECORD_S = 10.0


def require_min_record(duration_s: float) -> None:
    """Raise "recording too short" for a record under ``MIN_RECORD_S``."""
    if duration_s < MIN_RECORD_S:
        raise ValueError("recording too short")


def median(values: np.ndarray) -> float:
    """``np.median(values, overwrite_input=True)`` of a finite 1-D float
    array, bit for bit: the mean of its middle one or two values,
    without ``np.median``'s import of ``numpy.ma``. Like it, this
    partitions ``values`` in place: every caller passes a temporary."""
    n = values.size
    values.partition(((n - 1) // 2, n // 2))
    middle = values[(n - 1) // 2 : n // 2 + 1]
    return float(middle.sum() / middle.size)


# Samples per block, blocks per chunk and chunks per slab of the
# block-recursive filter: block outputs and the states within a chunk
# are matrix products, and only the chunks' start states are carried
# in a loop. Each product is formed one slab at a time; at 8 chunks of
# the order-4 design the largest, 8 x 128 x 128, stays under the size
# at which OpenBLAS threads a product (4 * 65536 multiply-adds).
FILTER_BLOCK = 32
FILTER_CHUNK = 16
FILTER_SLAB = 8


def _bandpass_sos(spec: BandpassSpec, sample_rate_hz: float) -> np.ndarray:
    """Digital Butterworth band-pass as second-order sections.

    The analog prototype's poles are moved to the prewarped band by the
    low-pass to band-pass transform and to the z-plane by the bilinear
    map. Sections are built last to first, each from the remaining pole
    closest to the unit circle and the two zeros nearest it, so the
    most resonant section filters last; the gain goes into the first.
    """
    order = spec.order
    band = np.array([spec.low_cut_hz, spec.high_cut_hz]) / (sample_rate_hz / 2.0)
    warped = 4.0 * np.tan(np.pi * band / 2.0)
    bw = warped[1] - warped[0]
    wo = math.sqrt(warped[0] * warped[1])
    proto = -np.exp(1j * np.pi * np.arange(-order + 1, order, 2, dtype=np.float64) / (2 * order))
    half = proto * bw / 2
    root = np.sqrt(half**2 - wo**2)
    analog = np.concatenate((half + root, half - root))
    poles = (4.0 + analog) / (4.0 - analog)
    gain = bw**order * np.real(4.0**order / np.prod(4.0 - analog))
    # the analog zeros sit at s = 0 (mapped to z = 1) and at infinity
    # (mapped to z = -1)
    zeros = [-1.0] * order + [1.0] * order
    real = np.abs(poles.imag) <= 100 * np.finfo(np.float64).eps * np.abs(poles)
    upper = poles[~real & (poles.imag > 0)]
    # one pole of each conjugate pair, then the real poles (odd orders)
    pending = list(upper[np.argsort(upper.real)]) + list(np.sort(poles[real].real))
    sos = np.zeros((order, 6))
    for si in range(order - 1, -1, -1):
        p1 = pending.pop(_closest_to_unit_circle(pending))
        if p1.imag > 0:
            den = [1.0, -2.0 * p1.real, p1.real * p1.real + p1.imag * p1.imag]
        else:
            p2 = pending.pop(_closest_to_unit_circle(pending, real_only=True))
            den = [1.0, -(p1 + p2), p1 * p2]
        z1 = zeros.pop(int(np.argmin(np.abs(np.subtract(zeros, p1)))))
        z2 = zeros.pop(int(np.argmin(np.abs(np.subtract(zeros, p1)))))
        sos[si] = [1.0, -(z1 + z2), z1 * z2, *den]
    sos[0, :3] *= gain
    return sos


def _closest_to_unit_circle(poles: list, real_only: bool = False) -> int:
    # index of the most resonant pole, or of the most resonant real one
    distance = [abs(1.0 - abs(p)) if not (real_only and p.imag) else np.inf for p in poles]
    return int(np.argmin(distance))


@dataclass(frozen=True)
class _BlockFilter:
    """One band-pass design in block form (Burrus's block realization).

    The sections' transposed direct-form states, stacked, are one state
    row ``z`` of the cascade. A block ``x`` of ``FILTER_BLOCK`` samples
    starting in state ``z`` yields the outputs ``[x, z] @ output``, and
    ``x @ to_state`` is what its input adds to its end state. For a
    chunk of ``FILTER_CHUNK`` blocks, ``within`` maps those terms, side
    by side, to the end states of all its blocks from a zero start, and
    ``carry`` maps the chunk's start state to what it adds to each of
    them. ``zi`` is the state the cascade settles in under a unit step
    (Gustafsson's initial condition, as in ``sosfilt_zi``).
    """

    zi: np.ndarray
    output: np.ndarray
    to_state: np.ndarray
    within: np.ndarray
    carry: np.ndarray


def _cascade_state_space(sos: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    # z' = z @ a + x * b and y = z @ c + x * d for the stacked states
    # (z0, z1) of each section, where a section with input u computes
    # y = b0 u + z0, z0' = b1 u - a1 y + z1 and z1' = b2 u - a2 y.
    size = 2 * sos.shape[0]
    a = np.zeros((size, size))
    b = np.zeros(size)
    u_state, u_input = np.zeros(size), 1.0  # section input as a form in (z, x)
    for k, (b0, b1, b2, _, a1, a2) in enumerate(sos):
        y_state, y_input = b0 * u_state, b0 * u_input
        y_state[2 * k] += 1.0
        a[:, 2 * k] = b1 * u_state - a1 * y_state
        a[2 * k + 1, 2 * k] += 1.0
        b[2 * k] = b1 * u_input - a1 * y_input
        a[:, 2 * k + 1] = b2 * u_state - a2 * y_state
        b[2 * k + 1] = b2 * u_input - a2 * y_input
        u_state, u_input = y_state, y_input
    return a, b, u_state, u_input


def _steady_state(sos: np.ndarray) -> np.ndarray:
    # each section's lfilter_zi, scaled by the DC gain of the sections
    # before it
    zi = np.empty((sos.shape[0], 2))
    scale = 1.0
    for k, (b0, b1, b2, _, a1, a2) in enumerate(sos):
        i_minus_a = np.array([[1.0 + a1, -1.0], [a2, 1.0]])
        zi[k] = scale * np.linalg.solve(i_minus_a, [b1 - a1 * b0, b2 - a2 * b0])
        scale *= (b0 + b1 + b2) / (1.0 + a1 + a2)
    return zi.ravel()


@functools.lru_cache(maxsize=32)
def _bandpass_filter(spec: BandpassSpec, sample_rate_hz: float) -> _BlockFilter:
    # Memoized: the radar chain filters one (antenna, bin) cell per
    # call and would otherwise redesign the same filter for each. The
    # cached arrays are shared, so they are read-only.
    sos = _bandpass_sos(spec, sample_rate_hz)
    a, b, c, d = _cascade_state_space(sos)
    n = FILTER_BLOCK
    from_state = np.empty((a.shape[0], n))  # column i: c after i steps
    to_state = np.empty((n, a.shape[0]))  # row j: b carried to the block end
    col, row = c, b
    for i in range(n):
        from_state[:, i] = col
        to_state[n - 1 - i] = row
        col, row = a @ col, row @ a
    response = np.concatenate(([d], b @ from_state[:, :-1]))
    lag = np.arange(n)[None, :] - np.arange(n)[:, None]
    impulse = np.where(lag >= 0, response[np.clip(lag, 0, None)], 0.0)
    # powers[i] is the state carried over i blocks, one sample at a time
    powers = [np.eye(a.shape[0])]
    step = powers[0]
    for i in range(1, FILTER_CHUNK * n + 1):
        step = step @ a
        if i % n == 0:
            powers.append(step)
    zero = np.zeros_like(a)
    within = np.block(
        [[powers[i - j] if i >= j else zero for i in range(FILTER_CHUNK)] for j in range(FILTER_CHUNK)]
    )
    carry = np.hstack(powers[1:])
    output = np.vstack((impulse, from_state))
    design = _BlockFilter(_steady_state(sos), output, to_state, within, carry)
    for arr in vars(design).values():
        arr.flags.writeable = False
    return design


def _block_pass(f: _BlockFilter, x: np.ndarray, z0: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Filter ``x`` forward from state ``z0`` into ``out``, one slab at a time.

    ``out`` has the length of ``x`` and may be ``x`` itself, a reversed
    view included: each slab's samples are copied into the buffer before
    its outputs are written back over them. Returns ``out``.
    """
    n, states = FILTER_BLOCK, z0.size
    # Slabs of equal size, so each product is one GEMM per slab. The
    # last slab is zero-padded rather than left short: a slab of one
    # chunk would make ``within`` a vector product (GEMV), whose
    # rounding differs. Only a row of one chunk is a GEMV.
    slab = min(FILTER_SLAB, -(-x.size // (n * FILTER_CHUNK)))
    # row k: block k of the slab's samples, then the state it starts
    # in, so one product with ``output`` filters it; the one buffer
    # every slab reuses
    rows = np.empty((slab * FILTER_CHUNK, n + states))
    span = len(rows) * n
    z = z0
    for start in range(0, x.size, span):
        part = x[start : start + span]
        whole = part.size // n
        rows[:whole, :n] = part[: whole * n].reshape(whole, n)
        if whole < len(rows):  # the last slab
            rows[whole:, :n] = 0.0
            rows[whole, : part.size - whole * n] = part[whole * n :]
        # every block's end state as if its chunk started at rest, then
        # the chunk start states carried in, first to last; padding
        # chunks are not carried, as only their cut-off outputs read them
        ends = (rows[:, :n] @ f.to_state).reshape(slab, -1) @ f.within
        rows[0, n:] = z
        for chunk in ends[: -(-part.size // (n * FILTER_CHUNK))]:
            chunk += z @ f.carry
            z = chunk[-states:]
        rows[1:, n:] = ends.reshape(-1, states)[:-1]
        out[start : start + part.size] = (rows @ f.output).ravel()[: part.size]
    return out


def _filtfilt_row(f: _BlockFilter, x: np.ndarray, padlen: int) -> np.ndarray:
    # even extension, a forward pass from the steady state of the first
    # sample, a backward pass from that of the last output, then the
    # padding cut off again (scipy's sosfiltfilt with padtype="even").
    # Both passes filter the extension in place, the backward one over
    # its reversed view. The band-pass is zero at DC, so shifting the
    # row by its first sample changes nothing but the rounding, which
    # then scales with the pulsation instead of the offset, and a flat
    # row gives zeros.
    ext = np.concatenate((x[padlen:0:-1], x, x[-2 : -(padlen + 2) : -1]))
    ext -= x[0]
    _block_pass(f, ext, f.zi * ext[0], ext)
    back = ext[::-1]
    _block_pass(f, back, f.zi * back[0], back)
    return ext[padlen : padlen + x.size]


# Relative margin of ``bandpass_gain`` over its real-arithmetic value:
# it covers the filter's rounding (about 1e-12 of a row's
# peak-to-peak) and the impulse response cut off once its slowest pole
# has decayed by ``1e-13``, and costs nothing in what the bound prunes.
GAIN_SLACK = 1e-6


@functools.lru_cache(maxsize=32)
def _gain_terms(spec: BandpassSpec, sample_rate_hz: float) -> tuple[float, np.ndarray] | None:
    # ||g||_1 of the autocorrelation g of the one-pass impulse response
    # h, over every lag, and the tails t[k] = sum_{j >= k} |h_j| of h
    # (t[0] = ||h||_1, and a last entry 0), with h taken until its
    # slowest pole has decayed by 1e-13; None when that takes over
    # 2**20 samples. Memoized like the design it is taken from, so the
    # tails are read-only. Both sums come from the block filter itself:
    # a LAPACK eigen-solver or an FFT of a new size would load library
    # pages that stay in the process's peak RSS (0.9 and 0.5 MB).
    sos = _bandpass_sos(spec, sample_rate_hz)
    # each section's two poles, the roots of z**2 + a1 z + a2
    root = np.sqrt(sos[:, 4] ** 2 - 4.0 * sos[:, 5] + 0j)
    radius = np.abs(np.concatenate((-sos[:, 4] + root, -sos[:, 4] - root))).max() / 2.0
    size = math.ceil(math.log(1e-13) / math.log(radius)) if radius < 1.0 else math.inf
    if size > 1 << 20:
        return None
    f = _bandpass_filter(spec, sample_rate_hz)
    h = np.zeros(size)
    h[0] = 1.0
    _block_pass(f, h, np.zeros_like(f.zi), h)
    # h run forward over h reversed: g at lags size - 1 down to -size
    autocorrelation = np.zeros(2 * size)
    autocorrelation[:size] = h[::-1]
    _block_pass(f, autocorrelation, np.zeros_like(f.zi), autocorrelation)
    tails = np.append(np.cumsum(np.abs(h[::-1]))[::-1], 0.0)
    tails.flags.writeable = False
    return float(np.abs(autocorrelation).sum()), tails


def bandpass_gain(n: int, sample_rate_hz: float, spec: BandpassSpec | None = None) -> float:
    """A bound ``G`` on how far :func:`bandpass_array` spreads a row of
    ``n`` samples: every output sample lies within ``G * p / 2`` of 0,
    where ``p`` is the row's peak-to-peak, so the output's peak-to-peak
    over any of its samples is at most ``G * p``.

    With ``h`` the design's one-pass impulse response and ``g`` its
    autocorrelation (the response of a forward and backward pass),
    ``G = (||g||_1 + 2 ||h||_1 sum_{k > padlen} |h_k|) * (1 +
    GAIN_SLACK)``: 2.478 for the default design at 200 Hz, whose
    ``||h||_1`` is 2.796. It follows from ``_filtfilt_row``. The
    design's DC gain is 0, so a pass may measure its input from any
    constant, here the middle of the row's range. The even extension
    holds only the row's own values, and a steady-state start is a
    constant past input of one of them, so the forward pass is ``h``
    over values within ``p / 2`` of that middle, and stays within
    ``||h||_1 p / 2`` of 0 (Young's inequality). The backward pass
    starts from its last output held constant beyond the end. Had the
    forward pass run on, the two passes would be ``g`` over the
    extension, within ``||g||_1 p / 2`` of 0; the held value differs
    from that run-on by at most ``||h||_1 p``, and an output sample
    reads it only through taps past ``padlen``. ``inf`` when the
    response is too long to sum (over 2**20 samples).

    Raises
    ------
    ValueError
        As :func:`bandpass_array` for a row of ``n`` samples.
    """
    if spec is None:
        spec = BandpassSpec()
    padlen = _bandpass_padlen(spec, sample_rate_hz, n)
    terms = _gain_terms(spec, sample_rate_hz)
    if terms is None:
        return math.inf
    autocorrelation_l1, tails = terms
    tail = tails[min(padlen + 1, tails.size - 1)]
    return (autocorrelation_l1 + 2.0 * tails[0] * tail) * (1.0 + GAIN_SLACK)


def _bandpass_padlen(spec: BandpassSpec, sample_rate_hz: float, n: int) -> int:
    # Reflect-pad by three times the effective impulse length of the
    # slowest pole, capped at n - 1 so short records remain filterable.
    # Raises "invalid cutoff" for a band that does not fit below
    # Nyquist, then "input too short" under 3 * order samples.
    if spec.high_cut_hz >= sample_rate_hz / 2.0:
        raise ValueError("invalid cutoff")
    if n < 3 * spec.order:
        raise ValueError("input too short")
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
    """Array form of :func:`butterworth_bandpass`, for one 1-D row.

    The same design and padding rule; a flat signal maps to exact zeros.
    The result is a view of a new buffer: the filtered middle of the
    padded row.
    """
    if spec is None:
        spec = BandpassSpec()
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("values must be one-dimensional")
    padlen = _bandpass_padlen(spec, sample_rate_hz, values.size)
    return _filtfilt_row(_bandpass_filter(spec, sample_rate_hz), values, padlen)
