"""Independent oracles used to freeze expected values.

Everything here is derived from first principles (closed forms, brute
force, quadrature) without touching the implementation paths under
test, except two groups at the end: earlier, simpler forms of code
that was since rewritten for speed or memory, kept to pin the new
code's bits, and test-only views, thin wrappers over production code
that only tests call.
"""

import json
import math

import numpy as np
from scipy.integrate import quad

from pulsecmp.beats import (
    IBI_MAX_MS,
    IBI_MIN_MS,
    PeakTrain,
    detect_peaks,
    polarity_inverted,
)
from pulsecmp.formats import FormatError
from pulsecmp.metrics import BeatTable, PairwiseComparison, cosine_similarity, paired_t_test
from pulsecmp.radar import (
    EDGE_FRACTION,
    SPEED_OF_LIGHT,
    BinSelection,
    frame_blocks,
    searchable_bins,
)
from pulsecmp.signal_core import FILTER_BLOCK, FILTER_CHUNK, BandpassSpec, TimeSeries, bandpass_array
from pulsecmp.synth import (
    CARRIER_HZ,
    CLUTTER_AMP_RANGE,
    NOISE_P2P_SIGMA,
    RANGE_OFFSET_M,
    CubeGeometry,
    PulseModel,
    generate_waveform,
    synth_radar_stream,
)


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


def count_inflections_convolved(beat, smooth_win=5, eps=1e-3):
    """One beat's interior extrema count, smoothed by ``np.convolve``:
    ``metrics.count_inflections`` as it was written per beat."""
    beat = np.asarray(beat, dtype=np.float64)
    pad = smooth_win // 2
    padded = np.concatenate([beat[pad:0:-1], beat, beat[-2 : -2 - pad : -1]])
    d = np.diff(np.convolve(padded, np.ones(smooth_win) / smooth_win, mode="valid"))
    span = beat.max() - beat.min()
    if span <= 0:
        return 0
    signs = np.sign(np.where(np.abs(d) < eps * span, 0.0, d))
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


def polarity_inverted_by_masks(train):
    """``beats.polarity_inverted`` with one pair of boolean masks per
    systolic peak (quadratic in beat count)."""
    sys_idx = train.systolic_indices
    dia_idx = train.diastolic_indices
    if sys_idx.size < 3:
        return None
    rises = []
    decays = []
    for s in sys_idx:
        before = dia_idx[dia_idx < s]
        after = dia_idx[dia_idx > s]
        if before.size:
            rises.append(s - before[-1])
        if after.size:
            decays.append(after[0] - s)
    if not rises or not decays:
        return None
    return float(np.mean(rises)) > float(np.mean(decays))


def impulse_correlation_lag(ta, tb, max_lag_s, fs_hz):
    """Lag of ``b`` behind ``a`` maximizing the direct correlation of the
    two events' binary impulse series on an ``fs_hz`` grid; the
    earliest lag wins a tie."""
    t_lo = min(ta.min(), tb.min())
    n = int(round((max(ta.max(), tb.max()) - t_lo) * fs_hz)) + 1
    ia = np.zeros(n)
    ib = np.zeros(n)
    ia[np.clip(np.round((ta - t_lo) * fs_hz).astype(int), 0, n - 1)] = 1.0
    ib[np.clip(np.round((tb - t_lo) * fs_hz).astype(int), 0, n - 1)] = 1.0
    cc = np.correlate(ib, ia, mode="full")
    lags = np.arange(-(n - 1), n)
    max_lag = int(round(max_lag_s * fs_hz))
    mask = (lags >= -max_lag) & (lags <= max_lag)
    return float(lags[mask][np.argmax(cc[mask])] / fs_hz)


def resample_linear(x, target_len):
    """Linearly interpolate a TimeSeries onto ``target_len`` points spanning it.

    The output grid covers the first through last sample times
    inclusively, so both endpoints are preserved exactly: the resampling
    ``beats.segment_beats_indexed`` applies to each beat.
    """
    if len(x) < 2:
        raise ValueError("need at least two samples")
    if target_len < 2:
        raise ValueError("target_len must be at least 2")
    src = np.linspace(0.0, 1.0, len(x))
    dst = np.linspace(0.0, 1.0, int(target_len))
    return np.interp(dst, src, x.samples)


def feet_by_argmin(samples, systolic):
    """Diastolic feet one beat at a time: the ``np.argmin`` of the
    samples before the first systolic peak, of each peak-to-peak
    stretch (the leading peak included) and of the samples from the
    last peak on, the end stretches only when the record extends past
    the peak."""
    samples = np.asarray(samples)
    if not len(systolic):
        return np.zeros(0, dtype=np.int64)
    feet = []
    if systolic[0] > 0:
        feet.append(np.argmin(samples[: systolic[0]]))
    for a, b in zip(systolic[:-1], systolic[1:]):
        feet.append(a + np.argmin(samples[a:b]))
    if systolic[-1] < samples.size - 1:
        feet.append(systolic[-1] + np.argmin(samples[systolic[-1] :]))
    return np.array(feet, dtype=np.int64)


# Earlier forms of rewritten code. Each is the code as it stood before
# the rewrite, which must give the same bits.


def block_pass_one_product(f, x, z0):
    """``signal_core._block_pass`` with each stage one product over the
    whole row, before the products were stacked in slabs."""
    n, states = FILTER_BLOCK, z0.size
    rows = np.zeros((-(-x.size // (n * FILTER_CHUNK)) * FILTER_CHUNK, n + states))
    whole = x.size // n
    rows[:whole, :n] = x[: whole * n].reshape(whole, n)
    rows[whole : whole + 1, : x.size - whole * n] = x[whole * n :]
    ends = (rows[:, :n] @ f.to_state).reshape(-1, FILTER_CHUNK * states) @ f.within
    z = z0
    for chunk in ends:
        chunk += z @ f.carry
        z = chunk[-states:]
    rows[0, n:] = z0
    rows[1:, n:] = ends.reshape(-1, states)[:-1]
    return (rows @ f.output).ravel()[: x.size]


def synth_blocks_five_pass(displacement, geometry, snr_db=None, seed=0):
    """The frame blocks of ``synth.synth_radar_stream``, each built by
    whole-block float64 passes (clutter fill, tone, float32 noise, its
    float64 copy, the copy scaled) and rounded to float32 at the end."""
    wavelength = SPEED_OF_LIGHT / CARRIER_HZ
    d = displacement.samples
    rng = np.random.default_rng(seed)
    n_ant, n_chirp, n_samp = geometry.antennas, geometry.chirps, geometry.samples
    shape = (len(d), n_ant, n_chirp, n_samp)
    n_bins = n_samp // 2 + 1
    phi = 4.0 * np.pi * (RANGE_OFFSET_M + d) / wavelength
    n = np.arange(n_samp)
    amps = rng.uniform(*CLUTTER_AMP_RANGE, size=(n_ant, n_bins))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(n_ant, n_bins))
    amps[:, 0] = 0.0
    phases[:, -1] = 0.0
    amps[geometry.target_antenna, geometry.target_range_bin] = 0.0
    k = np.arange(n_bins)
    angles = 2.0 * np.pi * k[None, :, None] * n[None, None, :] / n_samp + phases[:, :, None]
    clutter = np.einsum("ak,akn->an", amps, np.cos(angles))
    carrier_phase = 2.0 * np.pi * geometry.target_range_bin * n[None, :] / n_samp
    sigma_if = None
    if snr_db is not None:
        phase_p2p = float(phi.max() - phi.min())
        sigma_phase = phase_p2p / (NOISE_P2P_SIGMA * 10.0 ** (snr_db / 20.0))
        sigma_if = sigma_phase * (n_samp / 2.0) / math.sqrt(n_samp / (2.0 * n_chirp))
    blocks = []
    for start, stop in frame_blocks(shape):
        block = np.empty((stop - start, n_ant, n_chirp, n_samp))
        block[:] = clutter[None, :, None, :]
        tone = np.cos(carrier_phase + phi[start:stop, None])
        block[:, geometry.target_antenna, :, :] += tone[:, None, :]
        if sigma_if is not None:
            block += sigma_if * rng.standard_normal(block.shape, dtype=np.float32).astype(np.float64)
        blocks.append(block.astype(np.float32))
    return blocks


def slow_time_fused_whole(cube, bins):
    """Wrapped phase [antenna][bin][frame] of every antenna at once: the
    fused reduction of ``radar`` before it ran one antenna at a time,
    each frame block averaged over all antennas' chirps together."""
    data = cube.data
    phase = np.empty((data.shape[1], len(bins), data.shape[0]))
    for start, stop in frame_blocks(data.shape):
        avg = np.mean(data[start:stop], axis=2, dtype=np.float64)
        if not np.isfinite(avg).all():
            frame = start + int(np.nonzero(~np.isfinite(avg))[0][0])
            raise ValueError(f"non-finite sample in frame {frame}")
        avg -= avg.mean(axis=2, keepdims=True)
        spectrum = np.fft.rfft(avg, axis=2)[:, :, bins.start : bins.stop]
        phase[:, :, start:stop] = np.angle(spectrum).transpose(1, 2, 0)
    return phase


def filter_phase_rows(phase, frame_rate_hz, spec=BandpassSpec()):
    """Unwrap (``np.unwrap``) and band-pass every row of the last axis of
    ``phase`` in place, the radar chain's per-row filter."""
    for row in phase.reshape(-1, phase.shape[-1]):
        row[:] = bandpass_array(np.unwrap(row), frame_rate_hz, spec)


def select_whole_tensor(phases, bins):
    """The (antenna, bin) cell of a filtered [antenna][bin][frame] tensor
    with the largest edge-trimmed peak-to-peak; ``argmax`` scans
    antenna-major, so ties go to the lower antenna, then the lower bin."""
    n_frames = phases.shape[2]
    margin = int(EDGE_FRACTION * n_frames)
    core = phases[:, :, margin : n_frames - margin] if n_frames - 2 * margin >= 2 else phases
    p2p = core.max(axis=2) - core.min(axis=2)
    antenna, index = np.unravel_index(int(np.argmax(p2p)), p2p.shape)
    return BinSelection(int(antenna), bins[index], float(p2p[antenna, index]))


def process_radar_whole_tensor(cube, spec=BandpassSpec(), max_bins=0):
    """``radar.process_radar`` over the whole [antenna][bin][frame] phase
    tensor: every row filtered, then one antenna-major selection over all
    of them. Returns ``(waveform samples, selection)``."""
    bins = searchable_bins(cube.n_samples, max_bins)
    phases = slow_time_fused_whole(cube, bins)
    filter_phase_rows(phases, cube.frame_rate_hz, spec)
    selection = select_whole_tensor(phases, bins)
    return phases[selection.antenna_index, selection.range_bin - bins.start], selection


def compare_copied_tables(ref, test):
    """``metrics.compare_modalities`` on two paired tables, row ``k`` of
    each a pair, before it read the pairs by index: every cosine taken
    in one call over the whole copied tables."""
    if len(ref) != len(test):
        raise ValueError("beat tables must be paired")
    diff_infl = test.extrema - ref.extrema
    diff_auc = test.auc - ref.auc
    cos = cosine_similarity(ref.shapes, test.shapes)
    return PairwiseComparison(
        mean_diff_inflections=float(np.mean(diff_infl)),
        p_inflections=paired_t_test(diff_infl)[1],
        mean_diff_auc=float(np.mean(diff_auc)),
        p_auc=paired_t_test(diff_auc)[1],
        cosine_mean=float(cos.mean()),
        cosine_sd=float(cos.std(ddof=1)),
    )


def greedy_pairs_by_loop(ta_s, shifted_s, pair_tol_s):
    """The matching step of ``beats.align_beat_events`` after its lag is
    applied, before the candidate search was vectorized: one
    ``searchsorted`` per shifted event and candidate tuples
    ``(dt, i, j)`` sorted in Python. Returns the sorted ``(i, j)``
    pairs."""
    candidates = []
    for j, t in enumerate(shifted_s):
        i = int(np.searchsorted(ta_s, t))
        for ii in (i - 1, i):
            if 0 <= ii < ta_s.size:
                dt = abs(ta_s[ii] - t)
                if dt <= pair_tol_s:
                    candidates.append((dt, ii, j))
    candidates.sort()
    used_a, used_b, pairs = set(), set(), []
    for _, i, j in candidates:
        if i not in used_a and j not in used_b:
            pairs.append((i, j))
            used_a.add(i)
            used_b.add(j)
    return sorted(pairs)


# Test-only views of production code. Each calls what the pipeline
# itself runs (`polarity_inverted`, `generate_waveform`,
# `synth_radar_stream`), so tests written against it exercise that code.


def table_rows(table, index):
    """The ``BeatTable`` of ``table``'s rows at ``index``, in that order;
    a slice gives views."""
    return BeatTable(table.feet[index], table.shapes[index], table.extrema[index], table.auc[index])


def event_train(times_s, sample_rate_hz):
    """Diastolic-only PeakTrain of event times rounded to the sample grid."""
    idx = np.round(np.asarray(times_s, dtype=np.float64) * sample_rate_hz).astype(np.int64)
    return PeakTrain(np.array([], dtype=np.int64), idx, sample_rate_hz)


def synth_radar_cube(displacement, geometry=CubeGeometry(), snr_db=None, seed=0):
    """The cube of ``synth_radar_stream``, gathered into one array."""
    return synth_radar_stream(displacement, geometry, snr_db, seed).to_cube()


def phase_per_bin(slow_time, frame_rate_hz, spec=BandpassSpec()):
    """Unwrapped, band-pass-filtered phase of every (antenna, bin) cell.

    ``slow_time`` is the complex tensor [frame][antenna][bin] of
    chirp-averaged range bins; the result is the real tensor
    [antenna][bin][frame], filtered row by row as the radar chain
    filters (``spec`` defaults to the shared band-pass).
    """
    slow_time = np.asarray(slow_time)
    if slow_time.ndim != 3:
        raise ValueError("slow_time must be [frame][antenna][bin]")
    if slow_time.shape[0] < 3.0 * frame_rate_hz:
        raise ValueError("recording too short")
    phase = np.ascontiguousarray(np.angle(slow_time).transpose(1, 2, 0))
    filter_phase_rows(phase, frame_rate_hz, spec)
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
