"""Physics-based synthetic data generator with known ground truth.

One shared arterial waveform drives all three modalities: the radar
cube encodes it as phase modulation of an IF tone at the target range
bin, the PPG channel sees it through a slow causal decay kernel, and
the pressure reference is an amplitude-calibrated copy. The generator
is fully deterministic given a seed (PCG64), so recordings regenerate
bit-identically and acceptance tests can compare pipeline output
against exact truth.

The per-beat shape is a sum of three Gaussian bumps (systolic peak,
late-systolic augmentation wave, dicrotic wave). Widths are 1/e
half-widths in beat-fraction units: ``amp * exp(-((u - center) /
width)**2)``; with the default model this produces five interior
extrema per beat (three maxima, two minima).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from pulsecmp.beats import IBI_MAX_MS, IBI_MIN_MS
from pulsecmp.ppg import DEFAULT_CHANNEL, PpgRecording
from pulsecmp.radar import SPEED_OF_LIGHT, RadarCube, frame_blocks, searchable_bins
from pulsecmp.signal_core import MIN_RECORD_S, TimeSeries

# Peak-to-peak extent of zero-mean Gaussian noise, as a multiple of its
# standard deviation (+/- 3 sigma covers 99.7 % of samples).
NOISE_P2P_SIGMA = 6.0

# Radar carrier, the target's static range offset and the uniform
# amplitude range of the clutter tones; PPG DC offset and drift rate.
CARRIER_HZ = 60.0e9
RANGE_OFFSET_M = 0.003
CLUTTER_AMP_RANGE = (0.2, 1.0)
PPG_OFFSET_COUNTS = 10000.0
PPG_DRIFT_HZ = 0.05


@dataclass(frozen=True)
class PulseModel:
    """Beat-shape and rhythm parameters for the generator."""

    hr_mean_bpm: float = 62.0
    ibi_sd_ms: float = 30.0
    systolic_amp: float = 1.0
    augmentation_amp: float = 0.25
    dicrotic_amp: float = 0.15
    systolic_center: float = 0.18
    augmentation_center: float = 0.34
    dicrotic_center: float = 0.55
    systolic_width: float = 0.06
    augmentation_width: float = 0.08
    dicrotic_width: float = 0.07

    def __post_init__(self):
        if not self.hr_mean_bpm > 0:
            raise ValueError("hr_mean_bpm must be positive")
        if self.ibi_sd_ms < 0:
            raise ValueError("ibi_sd_ms must be non-negative")
        amps = (self.systolic_amp, self.augmentation_amp, self.dicrotic_amp)
        if any(a < 0 for a in amps):
            raise ValueError("amplitudes must be non-negative")
        centers = (self.systolic_center, self.augmentation_center, self.dicrotic_center)
        if not (0.0 < centers[0] < centers[1] < centers[2] < 1.0):
            raise ValueError("centers must be strictly increasing in (0, 1)")
        widths = (self.systolic_width, self.augmentation_width, self.dicrotic_width)
        if any(w <= 0 for w in widths):
            raise ValueError("widths must be positive")

    @property
    def amps(self) -> tuple[float, float, float]:
        return (self.systolic_amp, self.augmentation_amp, self.dicrotic_amp)

    @property
    def centers(self) -> tuple[float, float, float]:
        return (self.systolic_center, self.augmentation_center, self.dicrotic_center)

    @property
    def widths(self) -> tuple[float, float, float]:
        return (self.systolic_width, self.augmentation_width, self.dicrotic_width)


@dataclass
class SynthGroundTruth:
    """Generator-side truth used by oracle tests."""

    beat_times_s: np.ndarray
    systolic_times_s: np.ndarray
    displacement: TimeSeries
    target_range_bin: int = 0
    target_antenna: int = 0
    seed: int = 0
    displacement_peak_m: float = 0.0

    def __post_init__(self):
        self.beat_times_s = np.asarray(self.beat_times_s, dtype=np.float64)
        self.systolic_times_s = np.asarray(self.systolic_times_s, dtype=np.float64)
        if self.beat_times_s.size > 1 and not np.all(np.diff(self.beat_times_s) > 0):
            raise ValueError("beat times must be strictly increasing")


@dataclass(frozen=True)
class CubeGeometry:
    """Dimensions and target placement for synthetic radar cubes; the
    target bin must be one the radar may select, ``searchable_bins(samples)``."""

    antennas: int = 3
    chirps: int = 16
    samples: int = 64
    target_antenna: int = 1
    target_range_bin: int = 7

    def __post_init__(self):
        if not (1 <= self.antennas <= 8):
            raise ValueError("antennas must be in 1..8")
        if self.chirps < 1:
            raise ValueError("invalid geometry")
        if not 0 <= self.target_antenna < self.antennas:
            raise ValueError("target antenna out of range")
        if self.target_range_bin not in searchable_bins(self.samples):
            raise ValueError("target bin must be a searchable range bin")


def generate_waveform(
    model: PulseModel, duration_s: float, fs_hz: float, seed: int
) -> tuple[TimeSeries, SynthGroundTruth]:
    """Build the shared arterial waveform and its ground truth.

    Inter-beat intervals are drawn from N(60000 / hr_mean_bpm,
    ibi_sd_ms) and clamped into the plausibility gate. Each beat's
    samples are the three-bump sum evaluated on that beat's own
    fractional time axis, so beat feet fall exactly at the drawn beat
    boundaries. The truth records every foot inside the record plus the
    systolic instants that land inside it.
    """
    if not math.isfinite(duration_s):
        raise ValueError("duration must be finite")
    if duration_s < MIN_RECORD_S:
        raise ValueError(f"duration must be at least {MIN_RECORD_S:g} s")
    if fs_hz < 50.0:
        raise ValueError("sample rate must be at least 50 Hz")
    rng = np.random.default_rng(seed)
    mean_ms = 60000.0 / model.hr_mean_bpm
    feet = [0.0]
    while feet[-1] < duration_s:
        ibi = rng.normal(mean_ms, model.ibi_sd_ms)
        ibi = min(max(ibi, np.nextafter(IBI_MIN_MS, IBI_MAX_MS)), np.nextafter(IBI_MAX_MS, IBI_MIN_MS))
        feet.append(feet[-1] + ibi / 1000.0)
    n = int(round(duration_s * fs_hz))
    t = np.arange(n) / fs_hz
    y = np.zeros(n)
    systolic_times = []
    for t0, t1 in zip(feet[:-1], feet[1:]):
        # t is sorted, so the samples in [t0, t1) form one slice
        beat = slice(*np.searchsorted(t, (t0, t1)))
        if beat.start == beat.stop:
            continue
        u = (t[beat] - t0) / (t1 - t0)
        for a, c, w in zip(model.amps, model.centers, model.widths):
            y[beat] += a * np.exp(-(((u - c) / w) ** 2))
        t_sys = t0 + model.systolic_center * (t1 - t0)
        if t_sys < n / fs_hz:
            systolic_times.append(t_sys)
    beat_times = np.array([f for f in feet if f < duration_s])
    waveform = TimeSeries(y, fs_hz)
    truth = SynthGroundTruth(
        beat_times_s=beat_times,
        systolic_times_s=np.array(systolic_times),
        displacement=waveform,
        seed=seed,
        displacement_peak_m=float(np.abs(y).max()),
    )
    return waveform, truth


@dataclass
class RadarStream:
    """A synthetic radar cube drawn one frame block at a time.

    Carries the header fields of a ``RadarCube`` and ``blocks``, a
    one-pass iterator of float32 ``[frame][antenna][chirp][sample]``
    blocks in frame order whose frames add up to ``shape[0]``. Each block
    is drawn when it is taken, so the whole cube is never held.
    """

    shape: tuple[int, int, int, int]
    frame_rate_hz: float
    carrier_hz: float
    metadata: dict
    blocks: Iterator[np.ndarray]
    fast_time_rate_hz: float = RadarCube.fast_time_rate_hz

    def checked_blocks(self) -> Iterator[np.ndarray]:
        """``blocks``, checked to fill ``shape``: a block of another
        trailing shape, or frames that do not add up to ``shape[0]``
        (a stream already taken holds none), raise ``ValueError``."""
        frames = 0
        for block in self.blocks:
            if block.shape[1:] != self.shape[1:]:
                raise ValueError(f"frame block of shape {block.shape} in a cube of {self.shape}")
            frames += len(block)
            if frames > self.shape[0]:
                frames += sum(len(rest) for rest in self.blocks)
                break
            yield block
            del block  # taken: let it go before the next is drawn
        if frames != self.shape[0]:
            raise ValueError(f"frame blocks hold {frames} frames, the header {self.shape[0]}")

    def to_cube(self) -> RadarCube:
        """Gather the blocks into one in-memory cube."""
        data = np.empty(self.shape, dtype=np.float32)
        start = 0
        for block in self.checked_blocks():
            data[start:start + len(block)] = block
            start += len(block)
        return RadarCube(
            data=data,
            frame_rate_hz=self.frame_rate_hz,
            fast_time_rate_hz=self.fast_time_rate_hz,
            carrier_hz=self.carrier_hz,
            metadata=self.metadata,
        )


def synth_radar_stream(
    displacement: TimeSeries,
    geometry: CubeGeometry = CubeGeometry(),
    snr_db: float | None = None,
    seed: int = 0,
) -> RadarStream:
    """Synthesize a raw IF cube for a target moving by ``displacement``,
    as a stream of frame blocks.

    The target (antenna, bin) carries a unit IF tone phase-modulated by
    ``4 * pi * (range_offset + d(t)) / wavelength``. Every other
    informative bin carries a static clutter tone with seeded random
    amplitude and phase (real IF data always rides on static
    reflections; without them a bin's phase is an unbounded random walk
    and peak-to-peak selection is meaningless). White noise on all
    samples is scaled so the ratio of the target's phase peak-to-peak
    to the induced phase-noise peak-to-peak matches ``snr_db``;
    ``None`` disables noise. Blocks are float32, the precision of the
    ``.radc`` payload.

    Each frame block (``radar.frame_blocks``) is summed in float64 and
    rounded to float32 once, and its noise continues one PCG64 stream,
    so the cube does not depend on the block size. The arguments are
    checked here, before any block is drawn.

    Raises
    ------
    ValueError
        "phase ambiguity" when the displacement peak reaches a quarter
        wavelength; "snr_db must be finite" for a NaN or infinite SNR.
    """
    if snr_db is not None and not math.isfinite(snr_db):
        raise ValueError("snr_db must be finite")
    wavelength = SPEED_OF_LIGHT / CARRIER_HZ
    d = displacement.samples
    if np.abs(d).max() >= wavelength / 4.0:
        raise ValueError("phase ambiguity")
    rng = np.random.default_rng(seed)
    n_ant, n_chirp, n_samp = geometry.antennas, geometry.chirps, geometry.samples
    shape = (len(d), n_ant, n_chirp, n_samp)
    n_bins = n_samp // 2 + 1
    phi = 4.0 * np.pi * (RANGE_OFFSET_M + d) / wavelength
    n = np.arange(n_samp)

    amps = rng.uniform(*CLUTTER_AMP_RANGE, size=(n_ant, n_bins))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(n_ant, n_bins))
    amps[:, 0] = 0.0  # DC carries no range information
    phases[:, -1] = 0.0  # a Nyquist tone (even N) with random phase can vanish
    amps[geometry.target_antenna, geometry.target_range_bin] = 0.0
    k = np.arange(n_bins)
    angles = 2.0 * np.pi * k[None, :, None] * n[None, None, :] / n_samp + phases[:, :, None]
    clutter = np.einsum("ak,akn->an", amps, np.cos(angles))

    carrier_phase = 2.0 * np.pi * geometry.target_range_bin * n[None, :] / n_samp
    sigma_if = None
    if snr_db is not None:
        phase_p2p = float(phi.max() - phi.min())
        sigma_phase = phase_p2p / (NOISE_P2P_SIGMA * 10.0 ** (snr_db / 20.0))
        # A unit tone maps to bin magnitude N/2; averaging C chirps
        # leaves per-component bin noise sigma_if * sqrt(N / (2 C)).
        sigma_if = sigma_phase * (n_samp / 2.0) / math.sqrt(n_samp / (2.0 * n_chirp))

    def draw(start: int, stop: int) -> np.ndarray:
        # The noise is drawn into the float32 block itself, then each
        # antenna slice is summed in float64 and stored back over it:
        # the working set is one block plus one float64 antenna slice.
        block = np.empty((stop - start, n_ant, n_chirp, n_samp), dtype=np.float32)
        cell = np.empty((stop - start, n_chirp, n_samp))
        if sigma_if is not None:
            rng.standard_normal(dtype=np.float32, out=block)
        for a in range(n_ant):
            static = clutter[a]
            if a == geometry.target_antenna:
                static = static + np.cos(carrier_phase + phi[start:stop, None])[:, None, :]
            if sigma_if is None:
                cell[:] = static
            else:
                np.multiply(sigma_if, block[:, a], out=cell, dtype=np.float64)
                cell += static
            block[:, a] = cell
        return block

    metadata = {
        "source": "synthetic",
        "target_antenna": str(geometry.target_antenna),
        "target_range_bin": str(geometry.target_range_bin),
    }
    # a generator expression keeps no block once it is taken
    blocks = (draw(start, stop) for start, stop in frame_blocks(shape))
    return RadarStream(shape, displacement.sample_rate_hz, CARRIER_HZ, metadata, blocks)


def synth_radar_cube(
    displacement: TimeSeries,
    geometry: CubeGeometry = CubeGeometry(),
    snr_db: float | None = None,
    seed: int = 0,
) -> RadarCube:
    """The cube of :func:`synth_radar_stream`, gathered into one array.

    Its memory grows with the record; ``simulate`` writes the stream one
    block at a time instead, so its memory does not. Raises as
    ``synth_radar_stream`` does.
    """
    return synth_radar_stream(displacement, geometry, snr_db, seed).to_cube()


def synth_ppg(
    waveform: TimeSeries,
    decay_tau_s: float = 0.25,
    noise_sd: float = 0.0,
    seed: int = 0,
    drift_amp_counts: float = 100.0,
) -> PpgRecording:
    """Reflective-PPG model: slow decay, offset, drift, and noise.

    The waveform is convolved with a causal exponential kernel
    ``exp(-t / tau)`` normalized to unit area (PPG decays more slowly
    than tissue displacement because blood drains through the capillary
    bed), then a DC offset, a slow sinusoidal baseline drift, and white
    noise are added. Emitted as the default channel, ``green_0``.
    """
    if decay_tau_s <= 0:
        raise ValueError("decay_tau_s must be positive")
    fs = waveform.sample_rate_hz
    n_kernel = max(1, int(round(8.0 * decay_tau_s * fs)))
    kernel = np.exp(-np.arange(n_kernel) / (decay_tau_s * fs))
    kernel /= kernel.sum()
    smeared = np.convolve(waveform.samples, kernel)[: len(waveform)]
    t = waveform.times()
    out = smeared + PPG_OFFSET_COUNTS + drift_amp_counts * np.sin(2.0 * np.pi * PPG_DRIFT_HZ * t)
    if noise_sd > 0:
        out = out + noise_sd * np.random.default_rng(seed).standard_normal(out.size)
    channel = TimeSeries(out, fs, waveform.start_time_s)
    return PpgRecording(channels={DEFAULT_CHANNEL: channel})


def synth_reference(
    waveform: TimeSeries,
    sbp: float = 120.0,
    dbp: float = 80.0,
    beat_times_s: np.ndarray | None = None,
) -> TimeSeries:
    """Pressure reference: affine map of the truth waveform to mmHg.

    Each beat is mapped so its minimum equals ``dbp`` and its maximum
    equals ``sbp`` exactly (the reference device calibrates per beat).
    Without boundaries, or with fewer than two, the whole record is one
    beat.
    """
    if not sbp > dbp:
        raise ValueError("invalid pressures")
    y = waveform.samples
    out = np.empty_like(y)
    times = np.asarray([] if beat_times_s is None else beat_times_s, dtype=np.float64)
    bounds = np.clip(np.round(times * waveform.sample_rate_hz).astype(int), 0, y.size)
    edges = [0] + bounds[1:-1].tolist() + [y.size]
    for a, b in zip(edges[:-1], edges[1:]):
        if b <= a:
            continue
        seg = y[a:b]
        lo, hi = float(seg.min()), float(seg.max())
        if hi - lo < 1e-12:
            raise ValueError("degenerate waveform")
        out[a:b] = dbp + (sbp - dbp) * (seg - lo) / (hi - lo)
    return waveform.with_samples(out)
