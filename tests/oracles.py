"""Independent oracles used to freeze expected values.

Everything here is derived from first principles (closed forms, brute
force, quadrature) without touching the implementation paths under
test, except the test-only views at the end: thin wrappers over
production code that only tests call.
"""

import json
import math

import numpy as np
from scipy.integrate import quad

from pulsecmp.beats import (
    IBI_MAX_MS,
    IBI_MIN_MS,
    detect_peaks,
    polarity_inverted,
)
from pulsecmp.formats import FormatError
from pulsecmp.radar import _filter_cells
from pulsecmp.signal_core import TimeSeries
from pulsecmp.synth import PulseModel, generate_waveform


def wrap_phase(x):
    """Wrap angles into (-pi, pi]."""
    x = np.asarray(x, dtype=np.float64)
    return -((-x + np.pi) % (2.0 * np.pi) - np.pi)


def brute_dft_onesided(x):
    """Direct O(n^2) DFT sum, bins 0..n//2."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    bins = []
    for k in range(n // 2 + 1):
        bins.append(np.sum(x * np.exp(-2j * np.pi * k * np.arange(n) / n)))
    return np.asarray(bins)


def analytic_bandpass_gain(f_hz, fs_hz, order, low_hz, high_hz):
    """Single-pass magnitude of a bilinear Butterworth band-pass.

    The bilinear transform maps the digital frequency to the prewarped
    analog frequency, where the analog Butterworth prototype magnitude
    is 1 / sqrt(1 + nu^(2N)) with nu the band-pass frequency variable.
    """
    warp = lambda x: 2.0 * fs_hz * math.tan(math.pi * x / fs_hz)
    w, wl, wh = warp(f_hz), warp(low_hz), warp(high_hz)
    nu = (w * w - wl * wh) / ((wh - wl) * w)
    return 1.0 / math.sqrt(1.0 + nu ** (2 * order))


def zero_phase_gain(f_hz, fs_hz, order=4, low_hz=0.5, high_hz=8.0):
    """Forward-backward application squares the magnitude response."""
    return analytic_bandpass_gain(f_hz, fs_hz, order, low_hz, high_hz) ** 2


def tone_amplitude(x, fs_hz, f_hz, lo_frac=0.25, hi_frac=0.75):
    """Quadrature amplitude estimate over a central window."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    sl = slice(int(lo_frac * n), int(hi_frac * n))
    t = np.arange(n)[sl] / fs_hz
    c = np.mean(x[sl] * np.cos(2 * np.pi * f_hz * t))
    s = np.mean(x[sl] * np.sin(2 * np.pi * f_hz * t))
    return 2.0 * math.hypot(c, s)


def t_two_sided_p_quadrature(t_stat, dof):
    """Two-sided t-distribution tail via numeric quadrature of the pdf."""
    log_norm = math.lgamma((dof + 1) / 2.0) - math.lgamma(dof / 2.0) - 0.5 * math.log(
        dof * math.pi
    )
    norm = math.exp(log_norm)

    def pdf(x):
        return norm * (1.0 + x * x / dof) ** (-(dof + 1) / 2.0)

    tail, _ = quad(pdf, abs(t_stat), np.inf)
    return 2.0 * tail


def count_extrema_dense(fn, lo=0.0, hi=1.0, n=200001):
    """Brute-force count of interior extrema of a smooth function."""
    u = np.linspace(lo, hi, n)
    d = np.diff(fn(u))
    signs = np.sign(d)
    signs = signs[signs != 0]
    return int(np.sum(signs[1:] != signs[:-1]))


def three_bump_wave(u, amps=(1.0, 0.25, 0.15), centers=(0.18, 0.34, 0.55),
                    widths=(0.06, 0.08, 0.07)):
    """Reference evaluation of the generator's per-beat shape."""
    u = np.asarray(u, dtype=np.float64)
    y = np.zeros_like(u)
    for a, c, w in zip(amps, centers, widths):
        y = y + a * np.exp(-(((u - c) / w) ** 2))
    return y


# Unfused radar chain: the reference the fused block-wise reduction in
# pulsecmp.radar is checked against. Every function takes cube data
# ([frame][antenna][chirp][sample]) as a float64 array, so float32 cubes
# are promoted before any arithmetic.


def chirp_mean_removal(data):
    """Subtract each chirp's sample mean, removing per-chirp DC bias."""
    data = np.asarray(data, dtype=np.float64)
    return data - data.mean(axis=3, keepdims=True)


def extract_slow_time(data):
    """Range FFT per chirp, coherently averaged over chirps per frame.

    Returns the complex tensor [frame][antenna][range_bin] with the
    one-sided bins 0 .. n_samples // 2.
    """
    spectra = np.fft.rfft(np.asarray(data, dtype=np.float64), axis=3)
    return spectra.mean(axis=2)


def range_fft(chirp_samples):
    """One-sided DFT of one chirp's samples (rectangular window)."""
    x = np.asarray(chirp_samples, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("need at least two samples")
    return np.fft.rfft(x)


def unwrap_phase(wrapped):
    """Temporal unwrapping of a phase TimeSeries, first sample kept."""
    return wrapped.with_samples(np.unwrap(wrapped.samples))


class ComplexSeries:
    """Uniformly sampled complex signal with its wrapped phase."""

    def __init__(self, values, sample_rate_hz):
        self.values = np.asarray(values, dtype=np.complex128)
        self.sample_rate_hz = float(sample_rate_hz)

    def phase(self):
        return TimeSeries(np.angle(self.values), self.sample_rate_hz)


def waveform_by_mask(model, duration_s, fs_hz, seed):
    """Samples and systolic instants of ``synth.generate_waveform``,
    built with one full-length boolean mask per beat (quadratic)."""
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
    systolic = []
    for t0, t1 in zip(feet[:-1], feet[1:]):
        mask = (t >= t0) & (t < t1)
        if not mask.any():
            continue
        u = (t[mask] - t0) / (t1 - t0)
        for a, c, w in zip(model.amps, model.centers, model.widths):
            y[mask] += a * np.exp(-(((u - c) / w) ** 2))
        t_sys = t0 + model.systolic_center * (t1 - t0)
        if t_sys < n / fs_hz:
            systolic.append(t_sys)
    return y, np.array(systolic)


# Test-only views of production code. Each calls what the pipeline
# itself runs (`_filter_cells`, `polarity_inverted`,
# `generate_waveform`), so tests written against it exercise that code.


def phase_per_bin(slow_time, frame_rate_hz, spec=None):
    """Unwrapped, band-pass-filtered phase of every (antenna, bin) cell.

    ``slow_time`` is the complex tensor [frame][antenna][bin] of
    chirp-averaged range bins; the result is the real tensor
    [antenna][bin][frame], filtered by the radar chain's own
    ``_filter_cells`` (``spec`` defaults to the shared band-pass).
    """
    slow_time = np.asarray(slow_time)
    if slow_time.ndim != 3:
        raise ValueError("slow_time must be [frame][antenna][bin]")
    if slow_time.shape[0] < 3.0 * frame_rate_hz:
        raise ValueError("recording too short")
    phase = np.ascontiguousarray(np.angle(slow_time).transpose(1, 2, 0))
    _filter_cells(phase, frame_rate_hz, spec)
    return phase


def correct_polarity(waveform, min_separation_s=0.33, prominence_rel=0.3):
    """Orient a pulse waveform so the systolic upstroke is positive-going.

    The production polarity rule (``beats.polarity_inverted``) on the
    waveform's detected beats, returning ``(waveform, inverted)``; where
    ``beats.orient_and_detect`` keeps an undecidable waveform, this
    raises ValueError "insufficient beats for polarity check".
    """
    inverted = polarity_inverted(detect_peaks(waveform, min_separation_s, prominence_rel))
    if inverted is None:
        raise ValueError("insufficient beats for polarity check")
    if inverted:
        return waveform.with_samples(-waveform.samples), True
    return waveform, False


def read_ground_truth(path):
    """Rebuild the ground truth from a ``truth.json`` sidecar.

    The waveform is regenerated from the stored seed and model, so a
    sidecar whose beat times do not regenerate raises
    ``FormatError("truth mismatch")``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    model = PulseModel(**doc["model"])
    waveform, truth = generate_waveform(model, doc["duration_s"], doc["fs_hz"], doc["seed"])
    displacement = waveform.with_samples(waveform.samples * float(doc["displacement_amp_m"]))
    truth.displacement = displacement
    truth.displacement_peak_m = float(np.abs(displacement.samples).max())
    truth.target_antenna = int(doc["target_antenna"])
    truth.target_range_bin = int(doc["target_range_bin"])
    stored = np.asarray(doc["beat_times_s"], dtype=np.float64)
    if stored.size != truth.beat_times_s.size or not np.allclose(
        stored, truth.beat_times_s, atol=1e-9
    ):
        raise FormatError("truth mismatch", "sidecar beat times do not regenerate")
    return truth, model
