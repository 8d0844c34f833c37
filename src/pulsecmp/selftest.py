"""Built-in oracle checks behind the ``selftest`` CLI verb.

Each check regenerates synthetic data with known truth, runs the real
pipeline, and verifies recovery against independently computed
expectations (closed-form filter gains, hand-computed statistics, the
generator's ground truth). The quick variant keeps the whole suite
within a one-minute budget; the full variant matches the acceptance
suite's scales.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.signal import correlate

from pulsecmp.beats import align_beat_events, event_train, paired_consecutive
from pulsecmp.config import PipelineConfig
from pulsecmp.metrics import (
    auc_normalized,
    bland_altman,
    cosine_similarity,
    map_from_bp,
    paired_t_test,
)
from pulsecmp.radar import SPEED_OF_LIGHT, process_radar
from pulsecmp.report import condition_modality, run_compare, simulate_bundle
from pulsecmp.signal_core import BandpassSpec, TimeSeries, butterworth_bandpass
from pulsecmp.synth import CARRIER_HZ, CubeGeometry, synth_radar_cube

# Fixed verification suite. Seed 8 is excluded: its final beat's
# systolic instant falls 13 ms before the record end, where a filtered
# local maximum cannot exist, so exact beat-count equality is
# unattainable for that draw.
RECOVERY_SEEDS = (1, 2, 3, 4, 5, 6, 7, 9, 10, 11)

# Largest truth-to-detection lag searched when judging IBI fidelity.
IBI_MAX_LAG_S = 5.0


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed_s: float = 0.0


def analytic_zero_phase_gain(f_hz: float, fs_hz: float, spec: BandpassSpec) -> float:
    """Closed-form magnitude of the forward-backward Butterworth band-pass.

    A bilinear-transform design with prewarped edges has the analog
    prototype's magnitude at the prewarped frequency; the zero-phase
    application squares it.
    """
    warp = lambda x: 2.0 * fs_hz * math.tan(math.pi * x / fs_hz)
    w, wl, wh = warp(f_hz), warp(spec.low_cut_hz), warp(spec.high_cut_hz)
    nu = (w * w - wl * wh) / ((wh - wl) * w)
    single = 1.0 / math.sqrt(1.0 + nu ** (2 * spec.order))
    return single * single


def measure_tone_amplitude(x: np.ndarray, fs: float, f_hz: float) -> float:
    """Quadrature amplitude estimate over the central half of a record."""
    n = x.size
    mid = slice(n // 4, 3 * n // 4)
    t = np.arange(n)[mid] / fs
    c = np.mean(x[mid] * np.cos(2 * np.pi * f_hz * t))
    s = np.mean(x[mid] * np.sin(2 * np.pi * f_hz * t))
    return 2.0 * math.hypot(c, s)


def _norm01(v: np.ndarray) -> np.ndarray:
    return (v - v.min()) / (v.max() - v.min())


def waveform_beat_cosines(
    wave: TimeSeries, target: TimeSeries, beat_times_s: np.ndarray, norm_len: int = 200
) -> np.ndarray:
    """Per-beat cosine between two waveforms on ground-truth beat windows.

    The recovered waveform is aligned to the target by integer-lag
    cross-correlation, both are cut on the truth's beat boundaries, and
    each beat is resampled and min-max normalized before the cosine.
    """
    fs = wave.sample_rate_hz
    w = wave.samples - wave.samples.mean()
    x = target.samples - target.samples.mean()
    cc = correlate(w, x, mode="full", method="fft")
    lags = np.arange(-(x.size - 1), w.size)
    window = (lags >= -int(5 * fs)) & (lags <= int(5 * fs))
    lag = int(lags[window][np.argmax(cc[window])])
    grid = np.linspace(0.0, 1.0, norm_len)
    cosines = []
    for t0, t1 in zip(beat_times_s[:-1], beat_times_s[1:]):
        a0, a1 = int(round(t0 * fs)), int(round(t1 * fs))
        b0, b1 = a0 + lag, a1 + lag
        if a0 < 0 or b0 < 0 or a1 >= len(target) or b1 >= len(wave) or a1 - a0 < 3:
            continue
        ta = np.interp(grid, np.linspace(0, 1, a1 - a0 + 1), target.samples[a0 : a1 + 1])
        tb = np.interp(grid, np.linspace(0, 1, b1 - b0 + 1), wave.samples[b0 : b1 + 1])
        if np.ptp(ta) < 1e-12 or np.ptp(tb) < 1e-12:
            continue
        cosines.append(cosine_similarity(_norm01(ta), _norm01(tb)))
    return np.asarray(cosines)


def ibi_errors_vs_truth(detected, truth_times_s: np.ndarray) -> np.ndarray:
    """Interval-by-interval error (ms) of detected feet against truth feet.

    The first and last matched intervals are dropped: records cut
    mid-beat and the causal PPG kernel warms up from zero state, so the
    edge beats measure boundary artifacts rather than steady-state
    interval fidelity.
    """
    truth_train = event_train(truth_times_s, detected.sample_rate_hz)
    _, pairs = align_beat_events(truth_train, detected, IBI_MAX_LAG_S)
    i, j = paired_consecutive(pairs)
    out = np.diff(detected.diastolic_times())[j] * 1000.0 - np.diff(truth_times_s)[i] * 1000.0
    if out.size > 2:
        out = out[1:-1]
    return out


def check_metric_oracles() -> CheckResult:
    t0 = time.time()
    problems = []
    ba = bland_altman(np.array([1000.0, 1010.0, 990.0]), np.array([1005.0, 1000.0, 995.0]))
    if abs(ba.bias) > 1e-9 or abs(ba.sd - math.sqrt(75.0)) > 1e-9:
        problems.append(f"bland_altman bias={ba.bias} sd={ba.sd}")
    if abs(map_from_bp(120.0, 80.0) - (80.0 + 40.0 / 3.0)) > 1e-9:
        problems.append("map_from_bp(120, 80)")
    expected_cos = 31.0 / math.sqrt(14.0 * 69.0)
    if abs(cosine_similarity([1, 2, 3], [2, 4, 7]) - expected_cos) > 1e-12:
        problems.append("cosine_similarity([1,2,3],[2,4,7])")
    half_sine = np.sin(np.pi * np.linspace(0.0, 1.0, 200))
    if abs(auc_normalized(half_sine) - 2.0 / math.pi) > 1e-4:
        problems.append("auc_normalized(half sine)")
    t, p = paired_t_test(np.array([2.0, 4.0, 6.0, 8.0]))
    if abs(t - 5.0 / (math.sqrt(20.0 / 3.0) / 2.0)) > 1e-9 or abs(p - 0.0305) > 1e-3:
        problems.append(f"paired_t_test t={t} p={p}")
    ok = not problems
    return CheckResult(
        "metric-oracles", ok, "; ".join(problems) if problems else "5 hand-computed oracles match",
        time.time() - t0,
    )


def check_filter_contract() -> CheckResult:
    t0 = time.time()
    fs = 200.0
    spec = BandpassSpec()
    t = np.arange(int(60 * fs)) / fs
    problems = []
    for f_hz, unit_bound in ((2.0, 0.5), (0.1, -40.0)):
        x = TimeSeries(np.sin(2 * np.pi * f_hz * t), fs)
        y = butterworth_bandpass(x, spec)
        amp = measure_tone_amplitude(y.samples, fs, f_hz)
        expected = analytic_zero_phase_gain(f_hz, fs, spec)
        if abs(amp / expected - 1.0) > 0.01:
            problems.append(f"{f_hz} Hz gain {amp:.3e} vs analytic {expected:.3e}")
        db = 20.0 * math.log10(max(amp, 1e-300))
        if f_hz == 2.0 and abs(db) > 0.5:
            problems.append(f"2 Hz tone {db:+.3f} dB")
        if f_hz == 0.1 and db > unit_bound:
            problems.append(f"0.1 Hz tone {db:+.1f} dB")
    const = TimeSeries(np.full(int(60 * fs), 5.0), fs)
    dc = np.abs(butterworth_bandpass(const, spec).samples).max() / 5.0
    if dc > 1e-6:
        problems.append(f"DC leakage {dc:.2e}")
    ok = not problems
    return CheckResult(
        "filter-contract", ok, "; ".join(problems) if problems else "gains match analytic design",
        time.time() - t0,
    )


def check_phase_scale() -> CheckResult:
    t0 = time.time()
    fs = 200.0
    wavelength = SPEED_OF_LIGHT / CARRIER_HZ
    geometry = CubeGeometry(antennas=1, chirps=4, samples=64, target_antenna=0)
    t = np.arange(int(30 * fs)) / fs
    gain = analytic_zero_phase_gain(1.0, fs, BandpassSpec())
    problems = []
    amps_rad = []
    for denom in (8, 16, 32, 64):
        disp = TimeSeries((wavelength / denom) * np.sin(2 * np.pi * t), fs)
        cube = synth_radar_cube(disp, geometry, snr_db=None, seed=3)
        result = process_radar(cube)
        measured = measure_tone_amplitude(result.waveform.samples, fs, 1.0) / gain
        amps_rad.append(measured)
        if denom == 8 and abs(measured - math.pi / 2.0) > 0.03 * math.pi / 2.0:
            problems.append(f"lambda/8 amplitude {measured:.4f} rad")
    ratios = np.array(amps_rad[1:]) / np.array([math.pi / 4, math.pi / 8, math.pi / 16])
    if np.ptp(ratios) / ratios.mean() > 0.02:
        problems.append(f"linearity spread {np.ptp(ratios)/ratios.mean():.3%}")
    ok = not problems
    return CheckResult(
        "phase-scale", ok,
        "; ".join(problems) if problems else
        f"lambda/8 -> {amps_rad[0]:.4f} rad (target {math.pi/2:.4f}), sweep linear",
        time.time() - t0,
    )


def check_radar_recovery(seeds=RECOVERY_SEEDS, duration_s: float = 60.0) -> CheckResult:
    t0 = time.time()
    problems = []
    cos_means = []
    for seed in seeds:
        config = PipelineConfig(synth_seed=seed, synth_duration_s=duration_s)
        bundle = simulate_bundle(config)
        # the chain the compare and process verbs run, orientation included
        waveform, _, selection = condition_modality("radar", bundle.radar, config)
        want = (bundle.truth.target_antenna, bundle.truth.target_range_bin)
        got = (selection.antenna_index, selection.range_bin)
        if got != want:
            problems.append(f"seed {seed}: selected {got}, truth {want}")
            continue
        cos = waveform_beat_cosines(waveform, bundle.truth.displacement, bundle.truth.beat_times_s)
        cos_means.append(cos.mean())
    mean_cos = float(np.mean(cos_means)) if cos_means else 0.0
    if mean_cos < 0.99:
        problems.append(f"mean per-beat cosine {mean_cos:.5f} < 0.99")
    ok = not problems
    return CheckResult(
        "radar-recovery", ok,
        "; ".join(problems) if problems else
        f"{len(seeds)} seeds: selection exact, mean per-beat cosine {mean_cos:.5f}",
        time.time() - t0,
    )


def _ibi_bundle_config(seed: int, duration_s: float) -> PipelineConfig:
    # 40 dB keeps visible noise on the radar path while the diastolic
    # feet stay locked; below ~35 dB the foot search starts hopping
    # between ripple troughs in the flat diastolic runoff.
    return PipelineConfig(
        synth_seed=seed,
        synth_duration_s=duration_s,
        synth_snr_db=40.0,
        synth_ppg_noise_sd=0.0,
    )


def check_ibi_fidelity(seeds=(2, 5, 7), duration_s: float = 120.0) -> CheckResult:
    t0 = time.time()
    problems = []
    for seed in seeds:
        config = _ibi_bundle_config(seed, duration_s)
        bundle = simulate_bundle(config)
        report = run_compare(bundle, config)
        truth_times = bundle.truth.beat_times_s
        for name in ("radar", "ppg"):
            errors = ibi_errors_vs_truth(report.modalities[name].train, truth_times)
            mean_abs = float(np.abs(errors).mean())
            if mean_abs > 5.0:
                problems.append(f"seed {seed} {name}: mean |IBI error| {mean_abs:.2f} ms")
        ba = report.pairs["radar_vs_reference"].bland_altman
        if abs(ba.bias) > 2.0 or ba.sd > 8.0:
            problems.append(f"seed {seed} radar-vs-reference bias {ba.bias:.2f} sd {ba.sd:.2f}")
    ok = not problems
    return CheckResult(
        "ibi-fidelity", ok,
        "; ".join(problems) if problems else
        f"{len(seeds)} bundles: |IBI error| within one sample, agreement within limits",
        time.time() - t0,
    )


def check_morphology_ordering(seed: int = 1, duration_s: float = 60.0) -> CheckResult:
    t0 = time.time()
    config = PipelineConfig(synth_seed=seed, synth_duration_s=duration_s)
    bundle = simulate_bundle(config)
    report = run_compare(bundle, config)
    mods = report.modalities
    problems = []
    if not mods["ppg"].morphology.auc_mean > mods["reference"].morphology.auc_mean:
        problems.append("PPG AUC not above reference AUC")
    if not (
        mods["radar"].morphology.inflection_count_mean
        >= mods["ppg"].morphology.inflection_count_mean
    ):
        problems.append("radar extrema count below PPG")
    cos_radar = report.pairs["radar_vs_reference"].comparison.cosine_mean
    cos_ppg = report.pairs["ppg_vs_reference"].comparison.cosine_mean
    if not cos_radar > cos_ppg:
        problems.append(f"cosine ordering radar {cos_radar:.4f} !> ppg {cos_ppg:.4f}")
    ok = not problems
    return CheckResult(
        "morphology-ordering", ok,
        "; ".join(problems) if problems else
        f"AUC ppg>ref, extrema radar>=ppg, cosine radar ({cos_radar:.4f}) > ppg ({cos_ppg:.4f})",
        time.time() - t0,
    )


def check_roundtrip() -> CheckResult:
    import os
    import tempfile

    from pulsecmp.formats import (
        read_ppg_csv,
        read_radar_cube,
        read_series_csv,
        write_ppg_csv,
        write_radar_cube,
        write_series_csv,
    )
    from pulsecmp.ppg import PpgRecording
    from pulsecmp.radar import RadarCube

    t0 = time.time()
    rng = np.random.default_rng(0)
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        cube = RadarCube(
            rng.standard_normal((4, 2, 3, 8)).astype(np.float32),
            metadata={"k": "v"},
        )
        path = os.path.join(tmp, "cube.radc")
        write_radar_cube(cube, path)
        back = read_radar_cube(path)
        if not np.array_equal(back.data, cube.data) or back.metadata != cube.metadata:
            problems.append("radar cube round trip not bit-exact")
        values = np.round(rng.standard_normal(50), 6)
        csv_path = os.path.join(tmp, "series.csv")
        write_series_csv(csv_path, {"pressure_mmHg": values}, 200.0)
        series = read_series_csv(csv_path, "pressure_mmHg")
        if not np.array_equal(series.samples, values) or abs(
            series.sample_rate_hz / 200.0 - 1.0
        ) > 1e-9:
            problems.append("series CSV round trip mismatch")
        rec = PpgRecording(channels={"green_0": TimeSeries(values, 200.0)})
        ppg_path = os.path.join(tmp, "ppg.csv")
        write_ppg_csv(rec, ppg_path)
        if not np.allclose(read_ppg_csv(ppg_path).channels["green_0"].samples, values, atol=0):
            problems.append("PPG CSV round trip mismatch")
    ok = not problems
    return CheckResult(
        "format-roundtrip", ok, "; ".join(problems) if problems else "all formats round trip",
        time.time() - t0,
    )


def run_selftest(quick: bool = True) -> list[CheckResult]:
    """Run every check; quick mode trims record lengths and seed counts."""
    checks = [
        check_metric_oracles(),
        check_filter_contract(),
        check_roundtrip(),
        check_phase_scale(),
        check_radar_recovery(seeds=(1, 2, 3) if quick else RECOVERY_SEEDS),
        check_ibi_fidelity(seeds=(2,) if quick else (2, 5, 7)),
        check_morphology_ordering(),
    ]
    return checks
