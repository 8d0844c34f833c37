"""Radar IF cube to arterial displacement-proxy waveform.

Processing chain: per-chirp mean removal, range FFT, coherent chirp
averaging to frame rate, per-bin phase extraction (arctangent, temporal
unwrapping, band-pass) and peak-to-peak bin/antenna selection. The chain
stops at the band-passed phase of the selected cell, which is
proportional to radial tissue displacement: ``phase = 4 * pi *
displacement / wavelength``. Orientation and beat detection are one
shared last step for every modality (``beats.orient_and_detect``).

Only the range bins of one rule, ``searchable_bins``, are reduced,
filtered and searched, and one antenna at a time: each antenna's slice
of the cube is reduced to wrapped phase block by block over frames,
its rows are unwrapped, band-passed and scored, and only the best row
so far is kept. Memory is one antenna's float64 phase per (bin, frame),
that row and one frame block.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from pulsecmp.signal_core import BandpassSpec, TimeSeries, bandpass_array, require_min_record

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
    def n_chirps(self) -> int:
        return self.data.shape[2]

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


def searchable_bins(n_samples: int, max_bins: int = 0) -> range:
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
    numpy keeps it.
    """
    step = np.diff(row)
    jumps = np.flatnonzero(np.abs(step) >= np.pi)
    jump = step[jumps]
    wrapped = np.mod(jump + np.pi, 2.0 * np.pi) - np.pi
    wrapped[(wrapped == -np.pi) & (jump > 0)] = np.pi
    correction = np.zeros_like(step)
    correction[jumps] = wrapped - jump
    row[1:] += np.cumsum(correction, out=correction)


def _filter_cells(phase: np.ndarray, frame_rate_hz: float, spec: BandpassSpec | None) -> None:
    # One (antenna, bin) row at a time, in place: unwrapping and the
    # band-pass act on each row alone, so this equals filtering the
    # whole stack while holding only one row's temporaries.
    for row in phase.reshape(-1, phase.shape[-1]):
        _unwrap(row)
        row[:] = bandpass_array(row, frame_rate_hz, spec)


def select_best_bin(phases: np.ndarray, bins: range) -> BinSelection:
    """Pick the (antenna, bin) with the largest pulsation amplitude.

    ``phases[a, i]`` is the band-passed phase of antenna ``a`` at range
    bin ``bins[i]``; ``process_radar`` passes one antenna's rows at a
    time, over the bins of ``searchable_bins``. Peak-to-peak is measured
    without the ``EDGE_FRACTION`` of samples at each end, so residual
    filter transients at the record edges cannot inflate it. Ties break
    toward the lower antenna index, then the lower bin.
    """
    phases = np.asarray(phases, dtype=np.float64)
    if phases.ndim != 3 or 0 in phases.shape[:2] or phases.shape[1] != len(bins):
        raise ValueError("phases must be [antenna][bin][frame] over the given bins")
    n_frames = phases.shape[2]
    margin = int(EDGE_FRACTION * n_frames)
    core = phases[:, :, margin : n_frames - margin] if n_frames - 2 * margin >= 2 else phases
    p2p = core.max(axis=2) - core.min(axis=2)
    # argmax scans antenna-major, as the tie rule asks
    antenna, index = np.unravel_index(int(np.argmax(p2p)), p2p.shape)
    return BinSelection(int(antenna), bins[index], float(p2p[antenna, index]))


def process_radar(
    cube: RadarCube, spec: BandpassSpec | None = None, max_bins: int = 0
) -> RadarPulseResult:
    """Radar chain from raw cube to the band-passed phase of the best cell.

    ``searchable_bins(cube.n_samples, max_bins)`` is fixed first. The
    chain then runs one antenna at a time. Per-chirp mean removal, the
    range FFT and chirp averaging run as one fused linear reduction over
    frame blocks of that antenna, algebraically identical to composing
    them per chirp, and each block goes straight to the wrapped phase of
    those bins alone. Each of the antenna's rows is then unwrapped and
    band-passed in place, and ``select_best_bin`` scores them; a copy of
    the best row so far is kept, and a later antenna replaces it only
    with a strictly larger peak-to-peak, so ties still go to the lower
    antenna, then the lower bin. Memory is one antenna's phase rows,
    that copy and one frame block. The waveform is not oriented: that,
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
        _filter_cells(phase, cube.frame_rate_hz, spec)
        pick = select_best_bin(phase[None], bins)
        if best is None or pick.peak_to_peak > best.peak_to_peak:
            best = BinSelection(antenna, pick.range_bin, pick.peak_to_peak)
            best_row = phase[pick.range_bin - bins.start].copy()
    return RadarPulseResult(TimeSeries(best_row, cube.frame_rate_hz), best)
