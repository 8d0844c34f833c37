"""Radar IF cube to arterial displacement-proxy waveform.

Processing chain: per-chirp mean removal, range FFT, coherent chirp
averaging to frame rate, per-bin phase extraction (arctangent, temporal
unwrapping, band-pass) and peak-to-peak bin/antenna selection. The chain
stops at the band-passed phase of the selected cell, which is
proportional to radial tissue displacement: ``phase = 4 * pi *
displacement / wavelength``. Orientation and beat detection are one
shared last step for every modality (``beats.orient_and_detect``).

Memory is one float64 phase per (antenna, bin, frame) plus one frame
block: the cube is reduced to wrapped phase block by block over frames,
and each cell's row is then unwrapped and band-passed in place.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from pulsecmp.signal_core import BandpassSpec, TimeSeries, bandpass_array

SPEED_OF_LIGHT = 299792458.0

# Cube values reduced per frame block: bounds the float64 working set of
# the slow-time reduction (and of synthesis) whatever the record length.
BLOCK_SAMPLES = 1 << 20

# Share of frames at each edge left out of the bin-selection peak-to-peak.
EDGE_FRACTION = 0.05


@dataclass
class RadarCube:
    """Raw IF samples indexed [frame][antenna][chirp][sample].

    ``data`` is stored as float32, the precision of the ``.radc``
    payload, and may be a read-only view of a mapped file.
    ``release_frames``, when set, is called with ``(start, stop)`` once
    the slow-time reduction has consumed those frames, so a file-backed
    cube can hand their pages back to the kernel.
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


def _slow_time_fused(cube: RadarCube) -> np.ndarray:
    """Wrapped phase [antenna][bin][frame] of the chirp-averaged range FFT."""
    # Chirp averaging commutes with the mean removal and the FFT (all
    # linear), so average first and transform once per frame. Averaging
    # float32 chirps in float64 gives the same values as averaging a
    # float64 copy, and it cannot overflow, so a non-finite block mean
    # means a non-finite sample. Each frame block is taken to its phase
    # at once, so no complex slow-time tensor is ever held.
    data = cube.data
    phase = np.empty((data.shape[1], data.shape[3] // 2 + 1, data.shape[0]))
    for start, stop in frame_blocks(data.shape):
        avg = np.mean(data[start:stop], axis=2, dtype=np.float64)
        if not np.isfinite(avg).all():
            frame = start + int(np.nonzero(~np.isfinite(avg))[0][0])
            raise ValueError(f"radar: non-finite sample in frame {frame}")
        if cube.release_frames is not None:
            cube.release_frames(start, stop)
        avg -= avg.mean(axis=2, keepdims=True)
        phase[:, :, start:stop] = np.angle(np.fft.rfft(avg, axis=2)).transpose(1, 2, 0)
    return phase


def _filter_cells(phase: np.ndarray, frame_rate_hz: float, spec: BandpassSpec | None) -> None:
    # One (antenna, bin) row at a time, in place: unwrapping and the
    # band-pass act on each row alone, so this equals filtering the
    # whole stack while holding only one row's temporaries.
    for row in phase.reshape(-1, phase.shape[-1]):
        row[:] = bandpass_array(np.unwrap(row), frame_rate_hz, spec)


def select_best_bin(phases: np.ndarray, max_bins: int | None = None) -> BinSelection:
    """Pick the (antenna, bin) with the largest pulsation amplitude.

    Peak-to-peak is measured without the ``EDGE_FRACTION`` of samples at
    each end, so residual filter transients at the record edges cannot
    inflate it. Ties break toward the lower antenna index, then the
    lower bin index.

    Bin 0 and the Nyquist bin are excluded from the search: the DC bin
    is nulled by chirp mean removal and the Nyquist bin of a real IF
    signal is real-valued, so the arctangent phase of either carries no
    displacement information. ``max_bins=K`` restricts the search to
    bins 1 .. K-1 for near-field use: the excluded bin 0 counts toward K.

    Raises
    ------
    ValueError
        When no informative bin is left to search, as with ``max_bins=1``
        or a cube of one fast-time sample.
    """
    phases = np.asarray(phases, dtype=np.float64)
    if phases.ndim != 3 or phases.shape[0] < 1 or phases.shape[1] < 1:
        raise ValueError("phases must be [antenna][bin][frame]")
    n_bins, n_frames = phases.shape[1:]
    stop = n_bins - 1 if n_bins > 2 else n_bins
    if max_bins is not None:
        stop = min(stop, max_bins)
    if stop <= 1:
        raise ValueError("radar: no informative range bin to search")
    margin = int(EDGE_FRACTION * n_frames)
    core = phases[:, :, margin : n_frames - margin] if n_frames - 2 * margin >= 2 else phases
    p2p = core.max(axis=2) - core.min(axis=2)
    # bins 1 .. stop-1; argmax scans antenna-major, as the tie rule asks
    search = p2p[:, 1:stop]
    antenna, offset = np.unravel_index(int(np.argmax(search)), search.shape)
    range_bin = offset + 1
    return BinSelection(int(antenna), int(range_bin), float(p2p[antenna, range_bin]))


def process_radar(
    cube: RadarCube, spec: BandpassSpec | None = None, max_bins: int | None = None
) -> RadarPulseResult:
    """Radar chain from raw cube to the band-passed phase of the best cell.

    Per-chirp mean removal, the range FFT and chirp averaging run as
    one fused linear reduction over frame blocks, algebraically
    identical to composing them per chirp, and each block goes straight
    to its wrapped phase. Each (antenna, bin) row is then unwrapped and
    band-passed in place, one row at a time, and bin selection follows.
    Memory is one float64 phase per (antenna, bin, frame) plus one
    frame block; no full-size copy of the cube or of its complex
    slow-time tensor is made. The waveform is not oriented: that, and
    beat detection, are the shared last step of every modality
    (``beats.orient_and_detect``), which sets ``selection.inverted``.

    Raises
    ------
    ValueError
        "recording too short" under 10 s, "radar: non-finite sample in
        frame N" naming the first frame holding a NaN or infinity, or
        "radar: no informative range bin to search" (before any
        reduction when chirps have fewer than 3 samples).
    """
    if cube.duration_s < 10.0:
        raise ValueError("recording too short")
    if cube.n_samples < 3:
        raise ValueError("radar: no informative range bin to search")
    phases = _slow_time_fused(cube)
    _filter_cells(phases, cube.frame_rate_hz, spec)
    selection = select_best_bin(phases, max_bins=max_bins)
    # a copy of the chosen row, so the phase tensor is freed on return
    waveform = TimeSeries(
        phases[selection.antenna_index, selection.range_bin].copy(), cube.frame_rate_hz
    )
    return RadarPulseResult(waveform, selection)
