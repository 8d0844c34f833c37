"""Radar IF cube to arterial displacement-proxy waveform.

Processing chain: per-chirp mean removal, range FFT, coherent chirp
averaging to frame rate, per-bin phase extraction (arctangent, temporal
unwrapping, band-pass) and peak-to-peak bin/antenna selection. The chain
stops at the band-passed phase of the selected cell, which is
proportional to radial tissue displacement: ``phase = 4 * pi *
displacement / wavelength``. Orientation and beat detection are one
shared last step for every modality (``beats.orient_and_detect``).

Only the range bins of one rule, ``searchable_bins``, are reduced and
searched, and one antenna at a time: each antenna's slice of the cube
is reduced to wrapped phase block by block over frames, its rows are
unwrapped, and only the rows that can still win are band-passed and
scored; only the best row so far is kept. A row can still win while
the filter's gain bound (``signal_core.bandpass_gain``) times its raw
peak-to-peak reaches the best score so far, so skipping the others
changes no output. Memory is one antenna's float64 phase per (bin,
frame), that row and one frame block.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from pulsecmp.config import PipelineConfig
from pulsecmp.signal_core import (
    BandpassSpec,
    TimeSeries,
    bandpass_array,
    bandpass_gain,
    require_min_record,
)

SPEED_OF_LIGHT = 299792458.0

# Cube values per frame block: bounds the working set of the slow-time
# reduction, of synthesis and of the cube writer whatever the record
# length. A block of 2**18 float32 values is 1 MB.
BLOCK_SAMPLES = 1 << 18

# Share of frames at each edge left out of the bin-selection peak-to-peak.
EDGE_FRACTION = 0.05


@dataclass
class RadarCube:
    """Raw IF samples indexed [frame][antenna][chirp][sample].

    ``data`` is stored as float32, the precision of the ``.radc``
    payload, and may be a read-only view of a mapped file.
    ``release_frames``, when set, is called with ``(start, stop)`` once
    the slow-time reduction has consumed those frames of one antenna, so
    a file-backed cube can hand their pages back to the kernel. The
    reduction passes over the frames once per antenna, so a released
    page may be touched again by a later pass; a file-backed page is
    then read back from the file.
    """

    data: np.ndarray
    frame_rate_hz: float = 200.0
    fast_time_rate_hz: float = 2.0e6
    carrier_hz: float = 60.0e9
    metadata: dict = field(default_factory=dict)
    release_frames: Callable[[int, int], None] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float32)
        if self.data.ndim != 4:
            raise ValueError("cube must be 4-dimensional")
        if min(self.data.shape) < 1:
            raise ValueError("all cube dimensions must be at least 1")
        if self.data.shape[1] > 8:
            raise ValueError("too many antennas")
        for name in ("frame_rate_hz", "fast_time_rate_hz", "carrier_hz"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]

    @property
    def n_antennas(self) -> int:
        return self.data.shape[1]

    @property
    def n_samples(self) -> int:
        return self.data.shape[3]

    @property
    def duration_s(self) -> float:
        return self.n_frames / self.frame_rate_hz


@dataclass
class BinSelection:
    """The (antenna, range bin) combination chosen for analysis.

    ``inverted`` is the polarity decision of the shared orientation
    step: whether the waveform was negated, or ``None`` when the
    polarity rule could not decide and the waveform was kept.
    """

    antenna_index: int
    range_bin: int
    peak_to_peak: float
    inverted: bool | None = False

    def __post_init__(self):
        if self.antenna_index < 0 or self.range_bin < 0:
            raise ValueError("indices must be non-negative")
        if self.peak_to_peak < 0:
            raise ValueError("peak_to_peak must be non-negative")


@dataclass
class RadarPulseResult:
    """Band-passed phase of the selected cell plus the selection itself."""

    waveform: TimeSeries
    selection: BinSelection


def frame_blocks(shape: tuple[int, ...]) -> Iterator[tuple[int, int]]:
    """``(start, stop)`` frame ranges of about ``BLOCK_SAMPLES`` cube values."""
    n_frames = shape[0]
    step = max(1, BLOCK_SAMPLES // math.prod(shape[1:]))
    for start in range(0, n_frames, step):
        yield start, min(start + step, n_frames)


def searchable_bins(n_samples: int, max_bins: int = PipelineConfig.radar_max_bins) -> range:
    """Range bins the chain may select for chirps of ``n_samples`` samples.

    Bins 1 .. ceil(N/2) - 1: bin 0 is nulled by chirp mean removal, and
    the Nyquist bin N/2 of an even N is real-valued; neither phase
    carries displacement. ``max_bins=K > 0`` keeps bins 1 .. K-1 for
    near-field use (bin 0 counts toward K); 0 or less sets no cap. No
    bin left, as with ``max_bins=1`` or chirps of under 3 samples, raises
    "radar: no informative range bin to search".
    """
    stop = (n_samples + 1) // 2
    if max_bins > 0:
        stop = min(stop, max_bins)
    if stop <= 1:
        raise ValueError("radar: no informative range bin to search")
    return range(1, stop)


def _antenna_phase(cube: RadarCube, antenna: int, bins: range, phase: np.ndarray) -> None:
    """Fill ``phase[i]`` with the wrapped phase of ``antenna`` at bin ``bins[i]``.

    ``phase`` is ``[bin][frame]``, the chirp-averaged range FFT's angle.
    """
    # Chirp averaging commutes with the mean removal and the FFT (all
    # linear), so average first and transform once per frame. Averaging
    # float32 chirps in float64 gives the same values as averaging a
    # float64 copy, and it cannot overflow, so a non-finite block mean
    # means a non-finite sample. Each frame block is taken to its phase
    # at once, so no complex slow-time tensor is ever held.
    data = cube.data
    n_chirps = data.shape[2]
    for start, stop in frame_blocks(data.shape):
        if start == 0:  # the first block is the largest
            buffer = np.empty((stop, data.shape[3]))
        # np.mean's sum and division, in one buffer reused across blocks
        avg = buffer[: stop - start]
        np.add.reduce(data[start:stop, antenna], axis=1, dtype=np.float64, out=avg)
        avg /= n_chirps
        if not np.isfinite(avg).all():
            frame = _first_bad_frame(data, antenna, start + int(np.nonzero(~np.isfinite(avg))[0][0]))
            raise ValueError(f"radar: non-finite sample in frame {frame}")
        if cube.release_frames is not None:
            cube.release_frames(start, stop)
        avg -= avg.mean(axis=1, keepdims=True)
        spectrum = np.fft.rfft(avg, axis=1)[:, bins.start : bins.stop]
        # np.angle is this arctan2, written straight into the phase rows
        np.arctan2(spectrum.imag.T, spectrum.real.T, out=phase[:, start:stop])


def _first_bad_frame(data: np.ndarray, antenna: int, frame: int) -> int:
    """The first frame of any antenna holding a NaN or infinity, given
    that ``antenna``'s first is ``frame``: the antennas before it were
    reduced whole, and only those after it may hold an earlier one."""
    for start, stop in frame_blocks(data.shape):
        if start >= frame:
            break
        stop = min(stop, frame)
        finite = np.isfinite(data[start:stop, antenna + 1 :]).all(axis=(1, 2, 3))
        if not finite.all():
            return start + int(np.argmin(finite))
    return frame


def _unwrap(row: np.ndarray) -> None:
    """``row[:] = np.unwrap(row)``, bit for bit, in place.

    Only a step of at least pi is corrected, so ``np.mod`` runs on those
    steps alone. A positive step that wraps to -pi is kept at +pi, as
    numpy keeps it. The steps' buffer then holds the corrections and
    their running sum, so the only full-length temporary is one row.
    """
    step = np.diff(row)
    # |step| >= pi without a float temporary; false for NaN either way
    wraps = step >= np.pi
    wraps |= step <= -np.pi
    jumps = np.flatnonzero(wraps)
    jump = step[jumps]
    wrapped = np.mod(jump + np.pi, 2.0 * np.pi) - np.pi
    wrapped[(wrapped == -np.pi) & (jump > 0)] = np.pi
    step.fill(0.0)
    step[jumps] = wrapped - jump
    row[1:] += np.cumsum(step, out=step)


def select_best_bin(rows: np.ndarray, bins: range) -> tuple[int, float]:
    """The range bin of one antenna with the largest pulsation amplitude,
    and that amplitude.

    ``rows[i]`` is the band-passed phase at range bin ``bins[i]``, over
    the bins of ``searchable_bins``. Peak-to-peak is measured without
    the ``EDGE_FRACTION`` of samples at each end, so residual filter
    transients at the record edges cannot inflate it. Ties break toward
    the lower bin.
    """
    if rows.ndim != 2 or rows.shape[0] != len(bins):
        raise ValueError("rows must be [bin][frame] over the given bins")
    n_frames = rows.shape[1]
    margin = int(EDGE_FRACTION * n_frames)
    core = rows[:, margin : n_frames - margin] if n_frames - 2 * margin >= 2 else rows
    p2p = core.max(axis=1) - core.min(axis=1)
    index = int(np.argmax(p2p))
    return bins[index], float(p2p[index])


def process_radar(
    cube: RadarCube, spec: BandpassSpec = BandpassSpec(), max_bins: int = PipelineConfig.radar_max_bins
) -> RadarPulseResult:
    """Radar chain from raw cube to the band-passed phase of the best cell.

    ``searchable_bins(cube.n_samples, max_bins)`` is fixed first. The
    chain then runs one antenna at a time. Per-chirp mean removal, the
    range FFT and chirp averaging run as one fused linear reduction over
    frame blocks of that antenna, algebraically identical to composing
    them per chirp, and each block goes straight to the wrapped phase of
    those bins alone. Each of the antenna's rows is then unwrapped in
    place. The rows are visited by decreasing raw (unfiltered)
    peak-to-peak; each is band-passed in place and scored by
    ``select_best_bin``, until the first whose raw peak-to-peak times
    ``bandpass_gain`` is below the best score so far over every
    antenna. The filtered row's peak-to-peak is at most that product,
    so this row and every later one would score strictly below a
    scored row: they are set to zeros, which score 0, and the antenna's
    rows are scored once more together. The selection, its
    ``peak_to_peak`` and the waveform are the bits that filtering every
    row gives. A copy of the best row so far is kept, and a later
    antenna replaces it only with a strictly larger peak-to-peak, so
    ties still go to the lower antenna, then the lower bin. Memory is
    one antenna's phase rows, that copy and one frame block. The
    waveform is not oriented: that,
    and beat detection, are the shared last step of every modality
    (``beats.orient_and_detect``), which sets ``selection.inverted``.

    Raises
    ------
    ValueError
        "recording too short" under ``MIN_RECORD_S``, "radar: no
        informative range bin to search" before any reduction when the
        rule leaves no bin, or "radar: non-finite sample in frame N"
        naming the first frame, over all antennas, holding a NaN or
        infinity.
    """
    require_min_record(cube.duration_s)
    bins = searchable_bins(cube.n_samples, max_bins)
    phase = np.empty((len(bins), cube.n_frames))
    best = best_row = None
    for antenna in range(cube.n_antennas):
        _antenna_phase(cube, antenna, bins, phase)
        # one row at a time, in place, so only one row's temporaries are held
        for row in phase:
            _unwrap(row)
        gain = bandpass_gain(cube.n_frames, cube.frame_rate_hz, spec)
        raw = phase.max(axis=1) - phase.min(axis=1)
        floor = -math.inf if best is None else best.peak_to_peak
        order = np.argsort(-raw)
        for k, i in enumerate(order):
            if gain * raw[i] < floor:
                # this row and every later one cannot reach the floor
                phase[order[k:]] = 0.0
                break
            phase[i] = bandpass_array(phase[i], cube.frame_rate_hz, spec)
            floor = max(floor, select_best_bin(phase[i : i + 1], bins[i : i + 1])[1])
        range_bin, peak_to_peak = select_best_bin(phase, bins)
        if best is None or peak_to_peak > best.peak_to_peak:
            best = BinSelection(antenna, range_bin, peak_to_peak)
            best_row = phase[range_bin - bins.start].copy()
    return RadarPulseResult(TimeSeries(best_row, cube.frame_rate_hz), best)
