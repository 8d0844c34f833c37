"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-
criterion summary lines. The pipeline-level criteria regenerate
synthetic recordings with known ground truth and verify recovery; the
metric criteria check hand-computed oracle values at fixed tolerances.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from pulsecmp.config import PipelineConfig
from pulsecmp.formats import read_radar_cube, write_radar_cube
from pulsecmp.metrics import (
    auc_normalized,
    bland_altman,
    cosine_similarity,
    map_from_bp,
    paired_t_test,
)
from pulsecmp.radar import RadarCube, process_radar
from pulsecmp.report import condition_modality, run_compare, simulate_bundle
from pulsecmp.selftest import (
    RECOVERY_SEEDS,
    ibi_errors_vs_truth,
    waveform_beat_cosines,
)
from pulsecmp.signal_core import BandpassSpec, TimeSeries, butterworth_bandpass
from pulsecmp.synth import CubeGeometry, synth_radar_cube

from oracles import read_ground_truth, tone_amplitude, zero_phase_gain

FS = 200.0
WAVELENGTH = 299792458.0 / 60e9


def report(line: str) -> None:
    print(f"\n[acceptance] {line}")


def test_criterion_1_end_to_end_radar_recovery(tmp_path):
    """Selection exact on 10 fixed seeds, per-beat cosine >= 0.99, <= 30 s.

    The first seed runs through the actual CLI verbs (simulate writes
    the bundle files, process reads the cube back); the rest call the
    same functions the verbs dispatch to, in memory.
    """
    import json

    from pulsecmp.cli import main as cli_main
    from pulsecmp.formats import read_radar_cube

    start = time.perf_counter()
    cos_means = []
    for i, seed in enumerate(RECOVERY_SEEDS):
        config = PipelineConfig(synth_seed=seed, synth_duration_s=60.0, synth_snr_db=20.0)
        if i == 0:
            bundle_dir = tmp_path / f"seed{seed}"
            out_dir = tmp_path / f"out{seed}"
            assert cli_main([
                "simulate", "-o", str(bundle_dir),
                "--seed", str(seed), "--duration", "60", "--snr-db", "20",
            ]) == 0
            assert cli_main([
                "process", "radar", str(bundle_dir / "radar.radc"), "-o", str(out_dir),
            ]) == 0
            truth_obj, _ = read_ground_truth(str(bundle_dir / "truth.json"))
            meta = json.loads((out_dir / "meta.json").read_text())
            selected = (meta["selection"]["antenna_index"], meta["selection"]["range_bin"])
            waveform, _, _ = condition_modality(
                "radar", read_radar_cube(str(bundle_dir / "radar.radc")), config
            )
        else:
            bundle = simulate_bundle(config)
            truth_obj = bundle.truth
            waveform, _, selection = condition_modality("radar", bundle.radar, config)
            selected = (selection.antenna_index, selection.range_bin)
        truth = (truth_obj.target_antenna, truth_obj.target_range_bin)
        assert selected == truth, f"seed {seed}: selected {selected}, truth {truth}"
        cosines = waveform_beat_cosines(
            waveform, truth_obj.displacement, truth_obj.beat_times_s
        )
        cos_means.append(float(cosines.mean()))
    elapsed = time.perf_counter() - start
    mean_cos = float(np.mean(cos_means))
    assert mean_cos >= 0.99, f"mean per-beat cosine {mean_cos:.5f}"
    assert elapsed <= 30.0, f"runtime {elapsed:.1f} s"
    report(
        f"criterion 1 PASS: selection 10/10 exact (one seed via CLI files), mean "
        f"per-beat cosine {mean_cos:.5f} >= 0.99, runtime {elapsed:.1f} s <= 30 s"
    )


def test_criterion_2_phase_scale_physics():
    """lambda/8 -> pi/2 within 3 %; linearity within 2 % below lambda/16."""
    geometry = CubeGeometry(antennas=1, chirps=4, samples=64, target_antenna=0)
    t = np.arange(int(30 * FS)) / FS
    gain = zero_phase_gain(1.0, FS)
    displacement = TimeSeries((WAVELENGTH / 8.0) * np.sin(2 * np.pi * t), FS)
    cube = synth_radar_cube(displacement, geometry, snr_db=None, seed=1)
    amp = tone_amplitude(process_radar(cube).waveform.samples, FS, 1.0) / gain
    rel_err = abs(amp - math.pi / 2.0) / (math.pi / 2.0)
    assert rel_err <= 0.03, f"lambda/8 amplitude {amp:.5f} rad, error {rel_err:.3%}"

    sensitivities = []
    for denom in (64, 48, 32, 16):
        d = TimeSeries((WAVELENGTH / denom) * np.sin(2 * np.pi * t), FS)
        cube = synth_radar_cube(d, geometry, snr_db=None, seed=2)
        measured = tone_amplitude(process_radar(cube).waveform.samples, FS, 1.0) / gain
        sensitivities.append(measured / (4.0 * np.pi / denom))
    spread = float(np.ptp(sensitivities) / np.mean(sensitivities))
    assert spread <= 0.02, f"linearity spread {spread:.3%}"
    report(
        f"criterion 2 PASS: lambda/8 -> {amp:.5f} rad (pi/2 within {rel_err:.2%}), "
        f"4x sweep linear within {spread:.2%}"
    )


def test_criterion_3_ibi_fidelity():
    """Mean |IBI error| <= 5 ms on both paths; radar-vs-reference agreement."""
    details = []
    for seed in (2, 5, 7):
        config = PipelineConfig(
            synth_seed=seed,
            synth_duration_s=120.0,
            synth_snr_db=40.0,
            synth_ppg_noise_sd=0.0,
        )
        bundle = simulate_bundle(config)
        assert bundle.truth.beat_times_s.size - 1 >= 120
        result = run_compare(bundle, config)
        truth_times = bundle.truth.beat_times_s
        for name in ("radar", "ppg"):
            errors = ibi_errors_vs_truth(result.modalities[name].train, truth_times)
            mean_abs = float(np.abs(errors).mean())
            assert mean_abs <= 5.0, f"seed {seed} {name}: mean |IBI error| {mean_abs:.2f} ms"
            details.append(f"{name}@{seed}={mean_abs:.2f}")
        ba = result.pairs["radar_vs_reference"].bland_altman
        assert abs(ba.bias) <= 2.0, f"seed {seed}: bias {ba.bias:.3f} ms"
        assert ba.sd <= 8.0, f"seed {seed}: sd {ba.sd:.3f} ms"
        details.append(f"ba@{seed}={ba.bias:.2f}/{ba.sd:.2f}")
    report(
        "criterion 3 PASS: mean |IBI error| (ms) and radar-vs-reference "
        "bias/sd (ms) within bounds: " + ", ".join(details)
    )


def test_criterion_4_metric_oracles():
    """Hand-computed statistic oracles at their stated tolerances."""
    ba = bland_altman(np.array([1000.0, 1010.0, 990.0]), np.array([1005.0, 1000.0, 995.0]))
    assert abs(ba.bias - 0.0) <= 1e-9
    assert abs(ba.sd - math.sqrt(75.0)) <= 1e-9
    assert abs(ba.loa_low - (-2.0 * math.sqrt(75.0))) <= 1e-9
    assert abs(ba.loa_high - 2.0 * math.sqrt(75.0)) <= 1e-9

    auc = auc_normalized(np.sin(np.pi * np.linspace(0.0, 1.0, 200)))
    assert abs(auc - 2.0 / math.pi) <= 1e-4

    # dot([1,2,3],[2,4,7]) = 31, norms sqrt(14) and sqrt(69)
    cos = cosine_similarity([1.0, 2.0, 3.0], [2.0, 4.0, 7.0])
    expected_cos = 31.0 / math.sqrt(14.0 * 69.0)
    assert abs(cos - expected_cos) <= 1e-5

    assert abs(map_from_bp(120.0, 80.0) - (80.0 + 40.0 / 3.0)) <= 1e-9

    t_stat, p = paired_t_test(np.array([2.0, 4.0, 6.0, 8.0]))
    assert abs(p - 0.0305) <= 1e-3
    report(
        f"criterion 4 PASS: bland-altman sd {ba.sd:.6f}, auc {auc:.6f}, "
        f"cosine {cos:.6f}, map {map_from_bp(120.0, 80.0):.4f}, t-test p {p:.4f}"
    )


def test_criterion_5_morphology_ordering():
    """Directional morphology relations across modalities."""
    lines = []
    for seed in (1, 2, 3):
        config = PipelineConfig(synth_seed=seed, synth_duration_s=60.0, synth_snr_db=20.0)
        result = run_compare(simulate_bundle(config), config)
        mods = result.modalities
        auc_ppg = mods["ppg"].morphology.auc_mean
        auc_ref = mods["reference"].morphology.auc_mean
        assert auc_ppg > auc_ref, f"seed {seed}: AUC ppg {auc_ppg:.4f} !> ref {auc_ref:.4f}"
        infl_radar = mods["radar"].morphology.inflection_count_mean
        infl_ppg = mods["ppg"].morphology.inflection_count_mean
        assert infl_radar >= infl_ppg, f"seed {seed}: extrema radar !>= ppg"
        cos_radar = result.pairs["radar_vs_reference"].comparison.cosine_mean
        cos_ppg = result.pairs["ppg_vs_reference"].comparison.cosine_mean
        assert cos_radar > cos_ppg, f"seed {seed}: cosine radar !> ppg"
        lines.append(f"seed {seed}: cos {cos_radar:.4f}>{cos_ppg:.4f}")
    report("criterion 5 PASS: AUC ppg>ref, extrema radar>=ppg, " + "; ".join(lines))


def test_criterion_6_filter_contract():
    """Analytic Butterworth gains and zero-phase timing."""
    spec = BandpassSpec()
    t = np.arange(int(60 * FS)) / FS

    y2 = butterworth_bandpass(TimeSeries(np.sin(2 * np.pi * 2.0 * t), FS), spec)
    amp2 = tone_amplitude(y2.samples, FS, 2.0)
    db2 = 20.0 * math.log10(amp2)
    assert abs(db2) <= 0.5
    assert abs(amp2 / zero_phase_gain(2.0, FS) - 1.0) <= 1e-3

    y01 = butterworth_bandpass(TimeSeries(np.sin(2 * np.pi * 0.1 * t), FS), spec)
    db01 = 20.0 * math.log10(tone_amplitude(y01.samples, FS, 0.1))
    assert db01 <= -40.0

    # exactly-constant input maps to the filter's exact DC zero
    dc_const = butterworth_bandpass(TimeSeries(np.full(t.size, 5.0), FS), spec)
    leak_const = np.abs(dc_const.samples).max() / 5.0
    assert leak_const <= 1e-6
    # numeric path: residual mean of an offset tone over whole periods
    y_mix = butterworth_bandpass(
        TimeSeries(5.0 + 0.5 * np.sin(2 * np.pi * 2.0 * t), FS), spec
    )
    window = y_mix.samples[int(20 * FS) : int(40 * FS)]  # 40 full periods
    leak_mix = abs(window.mean()) / 5.0
    assert leak_mix <= 1e-6

    max_shift = 0
    for f_hz in (1.0, 2.0, 4.0):
        x = np.sin(2 * np.pi * f_hz * t)
        y = butterworth_bandpass(TimeSeries(x, FS), spec).samples
        period = int(round(FS / f_hz))
        for peak in range(int(10.33 * FS), int(49 * FS), period):
            lo, hi = peak - period // 3, peak + period // 3
            shift = abs(int(np.argmax(x[lo:hi])) - int(np.argmax(y[lo:hi])))
            max_shift = max(max_shift, shift)
    assert max_shift <= 1
    report(
        f"criterion 6 PASS: 2 Hz {db2:+.4f} dB, 0.1 Hz {db01:.1f} dB, DC leakage "
        f"{max(leak_const, leak_mix):.2e} (<= -120 dB), peak shift {max_shift} sample(s)"
    )


def test_criterion_7_invariants_roundtrips_selftest():
    """Format round trips bit-exact; selftest completes within 60 s.

    The module invariant suites themselves run as property tests across
    this pytest session (hypothesis profiles pin >= 100 cases each).
    """
    rng = np.random.default_rng(0)
    import tempfile, os

    with tempfile.TemporaryDirectory() as tmp:
        cube = RadarCube(
            rng.standard_normal((6, 3, 2, 16)).astype(np.float32).astype(np.float64),
            metadata={"k": "v"},
        )
        path = os.path.join(tmp, "c.radc")
        write_radar_cube(cube, path)
        back = read_radar_cube(path)
        assert np.array_equal(back.data, cube.data)
        assert back.metadata == cube.metadata

    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pulsecmp.cli", "selftest"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed <= 60.0, f"selftest took {elapsed:.1f} s"
    n_pass = proc.stdout.count("[PASS]")
    report(
        f"criterion 7 PASS: round trips bit-exact, selftest {n_pass} checks "
        f"green in {elapsed:.1f} s <= 60 s, invariant suites run in this session"
    )
