"""Radar IF cube to arterial displacement-proxy waveform.

Processing chain: per-chirp mean removal, range FFT, coherent chirp
averaging to frame rate, per-bin phase extraction (arctangent, temporal
unwrapping, band-pass) and peak-to-peak bin/antenna selection. The chain
stops at the band-passed phase of the selected cell, which is
proportional to radial tissue displacement: ``phase = 4 * pi *
displacement / wavelength``. Orientation and beat detection are one
shared last step for every modality (``beats.orient_and_detect``).

Only the range bins of one rule, ``searchable_bins``, are searched,
one antenna at a time and in one pass: each row is band-passed and
scored once, unless the filter's gain bound
(``signal_core.bandpass_gain``) shows that it cannot win, and only the
best row so far is kept. Memory is one antenna's float64 phase per
(bin, frame), that row and one frame block.
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
    "no informative range bin to search".
    """
    stop = (n_samples + 1) // 2
    if max_bins > 0:
        stop = min(stop, max_bins)
    if stop <= 1:
        raise ValueError("no informative range bin to search")
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
            raise ValueError(f"non-finite sample in frame {frame}")
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


def _score(row: np.ndarray) -> float:
    """Pulsation amplitude of one band-passed phase row: its
    peak-to-peak without the ``EDGE_FRACTION`` of samples at each end,
    where residual filter transients could inflate it."""
    margin = int(EDGE_FRACTION * row.size)  # rounds down: 90 % or more remains
    core = row[margin : row.size - margin]
    return float(core.max() - core.min())


def process_radar(
    cube: RadarCube, spec: BandpassSpec = BandpassSpec(), max_bins: int = PipelineConfig.radar_max_bins
) -> tuple[TimeSeries, BinSelection]:
    """Radar chain from raw cube to the band-passed phase of the best
    cell: returns that waveform and the cell's ``BinSelection``.

    ``searchable_bins(cube.n_samples, max_bins)`` is fixed first, then
    each antenna's rows are reduced (``_antenna_phase``, algebraically
    identical to per-chirp mean removal, range FFT and chirp averaging)
    and unwrapped in place. They are visited by decreasing raw
    peak-to-peak, each band-passed in place and scored once
    (``_score``), until the first whose raw peak-to-peak times
    ``bandpass_gain`` is below the best score so far over every
    antenna: the filtered row's peak-to-peak is at most that product,
    so this row and every later one keep score 0 unfiltered, and the
    result is the bits that filtering every row gives. The ``argmax``
    of the scores sends ties to the lower bin; a later antenna replaces
    the kept best only with a strictly larger score, so ties go to the
    lower antenna. The waveform is not oriented: that, and beat
    detection, are the shared last step of every modality
    (``beats.orient_and_detect``), which sets ``selection.inverted``.

    Raises
    ------
    ValueError
        "recording too short" under ``MIN_RECORD_S``, "no informative
        range bin to search" before any reduction when the rule leaves
        no bin, or "non-finite sample in frame N"
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
        score = np.zeros(len(bins))
        for i in np.argsort(-raw):
            if gain * raw[i] < floor:
                break  # this row and every later one cannot reach the floor
            phase[i] = bandpass_array(phase[i], cube.frame_rate_hz, spec)
            score[i] = _score(phase[i])
            floor = max(floor, score[i])
        index = int(np.argmax(score))
        if best is None or score[index] > best.peak_to_peak:
            best = BinSelection(antenna, bins[index], float(score[index]))
            best_row = phase[index].copy()
    return TimeSeries(best_row, cube.frame_rate_hz), best
