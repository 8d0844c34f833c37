"""Radar IF cube to arterial displacement-proxy waveform.

Processing chain: per-chirp mean removal, range FFT, coherent chirp
averaging to frame rate, per-bin phase extraction (arctangent, temporal
unwrapping, band-pass), peak-to-peak bin/antenna selection, and polarity
correction. The output phase waveform is proportional to radial tissue
displacement: ``phase = 4 * pi * displacement / wavelength``.

Memory is one float64 phase per (antenna, bin, frame) plus one frame
block: the cube is reduced to wrapped phase block by block over frames,
and each cell's row is then unwrapped and band-passed in place.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from pulsecmp.beats import correct_polarity_or_keep
from pulsecmp.signal_core import BandpassSpec, TimeSeries, bandpass_array

SPEED_OF_LIGHT = 299792458.0

# Cube values reduced per frame block: bounds the float64 working set of
# the slow-time reduction (and of synthesis) whatever the record length.
BLOCK_SAMPLES = 1 << 20


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
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    @property
    def duration_s(self) -> float:
        return self.n_frames / self.frame_rate_hz


@dataclass
class BinSelection:
    """The (antenna, range bin) combination chosen for analysis."""

    antenna_index: int
    range_bin: int
    peak_to_peak: float
    inverted: bool = False

    def __post_init__(self):
        if self.antenna_index < 0 or self.range_bin < 0:
            raise ValueError("indices must be non-negative")
        if self.peak_to_peak < 0:
            raise ValueError("peak_to_peak must be non-negative")


@dataclass
class RadarPulseResult:
    """Polarity-corrected pulse waveform plus the selection that produced it."""

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


def phase_per_bin(
    slow_time: np.ndarray,
    frame_rate_hz: float,
    spec: BandpassSpec | None = None,
) -> np.ndarray:
    """Unwrapped, band-pass-filtered phase of every (antenna, bin) cell.

    Parameters
    ----------
    slow_time : complex ndarray
        Complex tensor [frame][antenna][bin] of chirp-averaged range bins.
    frame_rate_hz : float
        Slow-time sampling rate.
    spec : BandpassSpec, optional
        Filter design, the shared default when omitted.

    Returns
    -------
    ndarray
        Real tensor [antenna][bin][frame].
    """
    slow_time = np.asarray(slow_time)
    if slow_time.ndim != 3:
        raise ValueError("slow_time must be [frame][antenna][bin]")
    n_frames = slow_time.shape[0]
    if n_frames < 3.0 * frame_rate_hz:
        raise ValueError("recording too short")
    phase = np.ascontiguousarray(np.angle(slow_time).transpose(1, 2, 0))
    _filter_cells(phase, frame_rate_hz, spec)
    return phase


def select_best_bin(
    phases: np.ndarray,
    max_bins: int | None = None,
    edge_fraction: float = 0.05,
) -> BinSelection:
    """Pick the (antenna, bin) with the largest pulsation amplitude.

    Peak-to-peak is measured on the central 90 % of samples so residual
    filter transients at the record edges cannot inflate it. Ties break
    toward the lower antenna index, then the lower bin index.

    Bin 0 and the Nyquist bin are excluded from the search: the DC bin
    is nulled by chirp mean removal and the Nyquist bin of a real IF
    signal is real-valued, so the arctangent phase of either carries no
    displacement information. ``max_bins=K`` restricts the search to
    bins 1 .. K-1 for near-field use: the excluded bin 0 counts toward K.
    """
    phases = np.asarray(phases, dtype=np.float64)
    if phases.ndim != 3 or phases.shape[0] < 1 or phases.shape[1] < 1:
        raise ValueError("phases must be [antenna][bin][frame]")
    n_frames = phases.shape[2]
    margin = int(edge_fraction * n_frames)
    core = phases[:, :, margin : n_frames - margin] if n_frames - 2 * margin >= 2 else phases
    p2p = core.max(axis=2) - core.min(axis=2)
    search = p2p.copy()
    search[:, 0] = -np.inf
    if search.shape[1] > 2:
        search[:, -1] = -np.inf
    if max_bins is not None:
        search[:, max_bins:] = -np.inf
    antenna, range_bin = np.unravel_index(int(np.argmax(search)), search.shape)
    return BinSelection(int(antenna), int(range_bin), float(p2p[antenna, range_bin]))


def process_radar(
    cube: RadarCube,
    spec: BandpassSpec | None = None,
    max_bins: int | None = None,
    min_separation_s: float = 0.33,
    prominence_rel: float = 0.3,
) -> RadarPulseResult:
    """Full chain from raw cube to polarity-corrected pulse waveform.

    Per-chirp mean removal, the range FFT and chirp averaging run as
    one fused linear reduction over frame blocks, algebraically
    identical to composing them per chirp, and each block goes straight
    to its wrapped phase. Each (antenna, bin) row is then unwrapped and
    band-passed in place, as ``phase_per_bin`` does; bin selection and
    polarity correction follow. Memory is one float64 phase per
    (antenna, bin, frame) plus one frame block; no full-size copy of
    the cube or of its complex slow-time tensor is made. When too few
    beats exist to decide orientation, the waveform is returned
    unoriented rather than failing, so degenerate recordings still flow
    downstream.

    Raises
    ------
    ValueError
        "recording too short" under 10 s, or "radar: non-finite sample
        in frame N" naming the first frame holding a NaN or infinity.
    """
    if cube.duration_s < 10.0:
        raise ValueError("recording too short")
    phases = _slow_time_fused(cube)
    _filter_cells(phases, cube.frame_rate_hz, spec)
    selection = select_best_bin(phases, max_bins=max_bins)
    # a copy of the chosen row, so the phase tensor is freed on return
    waveform = TimeSeries(
        phases[selection.antenna_index, selection.range_bin].copy(), cube.frame_rate_hz
    )
    waveform, inverted = correct_polarity_or_keep(waveform, min_separation_s, prominence_rel)
    return RadarPulseResult(waveform, dataclasses.replace(selection, inverted=inverted))
