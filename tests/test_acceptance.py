"""Acceptance gate: each criterion's check at full scale, each printing a PASS line.

The criteria are stated in ``pulsecmp.selftest``, one check each
(criterion n is ``CHECKS[n - 1]``); this file runs those checks and
adds only what belongs to a test suite: criterion 1's first seed
through the CLI files, and the runtime limits of criteria 1 and 7.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-
criterion summary lines.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from pulsecmp.cli import main as cli_main
from pulsecmp.config import PipelineConfig
from pulsecmp.formats import read_radar_cube
from pulsecmp.report import condition_modality
from pulsecmp.selftest import (
    CHECKS,
    MIN_MEAN_COSINE,
    RECOVERY_SEEDS,
    analytic_zero_phase_gain,
    measure_tone_amplitude,
    radar_recovery_problems,
    run_check,
)
from pulsecmp.signal_core import BandpassSpec

from oracles import read_ground_truth, tone_amplitude, zero_phase_gain


def report(line: str) -> None:
    print(f"\n[acceptance] {line}")


def run_criterion(number: int, limit_s: float = math.inf) -> None:
    """Run criterion ``number``'s check at full scale; it must pass within ``limit_s``."""
    result = run_check(CHECKS[number - 1], quick=False)
    assert result.passed, f"criterion {number} ({result.name}): {result.detail}"
    assert result.elapsed_s <= limit_s, f"runtime {result.elapsed_s:.1f} s > {limit_s} s"
    report(f"criterion {number} PASS ({result.elapsed_s:.1f} s): {result.detail}")


def test_criterion_1_end_to_end_radar_recovery(tmp_path):
    """The ten seeds in memory within 30 s, then the first seed again
    through the CLI files: ``simulate`` writes its bundle, ``process
    radar`` reads the cube back, and the selection it writes, with the
    chain run on the cube file, recovers the truth regenerated from
    ``truth.json``."""
    run_criterion(1, limit_s=30.0)
    seed = RECOVERY_SEEDS[0]
    bundle_dir, out_dir = tmp_path / "bundle", tmp_path / "out"
    cube = str(bundle_dir / "radar.radc")
    simulate = ["simulate", "-o", str(bundle_dir), "--seed", str(seed), "--duration", "60"]
    assert cli_main([*simulate, "--snr-db", "20"]) == 0
    assert cli_main(["process", "radar", cube, "-o", str(out_dir)]) == 0
    truth, _ = read_ground_truth(str(bundle_dir / "truth.json"))
    selection = json.loads((out_dir / "meta.json").read_text())["selection"]
    config = PipelineConfig(synth_seed=seed, synth_duration_s=60.0, synth_snr_db=20.0)
    waveform, train, _ = condition_modality("radar", read_radar_cube(cube), config)
    selected = (selection["antenna_index"], selection["range_bin"])
    problems, cos_mean = radar_recovery_problems(selected, train, waveform, truth)
    assert not problems and cos_mean >= MIN_MEAN_COSINE, (problems, cos_mean)
    report(f"criterion 1 PASS through the CLI files: seed {seed}, per-beat cosine {cos_mean:.5f}")


def test_criterion_2_phase_scale_physics():
    run_criterion(2)


def test_criterion_3_ibi_fidelity():
    run_criterion(3)


def test_criterion_4_metric_oracles():
    run_criterion(4)


def test_criterion_5_morphology_ordering():
    run_criterion(5)


def test_criterion_6_filter_contract():
    run_criterion(6)


def test_criterion_7_invariants_roundtrips_selftest():
    """The bundle round trip, then the quick ``selftest`` verb within 60 s."""
    run_criterion(7)
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
    report(f"criterion 7 PASS: selftest {n_pass} checks green in {elapsed:.1f} s <= 60 s")


def test_check_oracles_equal_the_test_oracles():
    """The checks' filter-gain and tone-amplitude helpers are bit-equal to
    ``tests/oracles.py``'s, so the gate rests on an oracle ``src/`` does not define."""
    fs = 200.0
    record = np.random.default_rng(0).standard_normal(12_001)
    for f_hz in (0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 20.0):
        assert analytic_zero_phase_gain(f_hz, fs, BandpassSpec()) == zero_phase_gain(f_hz, fs)
        assert measure_tone_amplitude(record, fs, f_hz) == tone_amplitude(record, fs, f_hz)
