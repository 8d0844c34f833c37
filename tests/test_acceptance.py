"""Acceptance gate: one ``pulsecmp selftest`` run, one PASS line per criterion.

The criteria are stated in ``pulsecmp.selftest``, one check each
(criterion n is ``CHECKS[n - 1]``). This file runs the ``selftest``
verb once, in a fresh interpreter where scipy cannot be imported and a
warning from pulsecmp is an error, and each criterion's test asserts
its check's ``[PASS]`` line. It adds only what belongs to a test suite:
criterion 1's first seed through the CLI files, criterion 1's 30 s
bound, and criterion 7's exit code, line count and 60 s wall time.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-
criterion summary lines.
"""

import json
import re
import subprocess
import sys
import time

import numpy as np
import pytest

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
)
from pulsecmp.signal_core import BandpassSpec

from oracles import read_ground_truth, tone_amplitude, zero_phase_gain

SELFTEST = (
    "import sys, warnings\n"
    "sys.modules['scipy'] = None  # any scipy import now raises ImportError\n"
    "warnings.filterwarnings('error', module='pulsecmp')\n"
    "from pulsecmp import cli\n"
    "sys.exit(cli.main(['selftest']))\n"
)


@pytest.fixture(scope="module")
def selftest_run() -> tuple[subprocess.CompletedProcess, float]:
    """The ``selftest`` verb, run once for the whole file: its process and wall time."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SELFTEST], capture_output=True, text=True, timeout=120
    )
    return proc, time.perf_counter() - start


def result_lines(proc: subprocess.CompletedProcess) -> list[str]:
    return [line for line in proc.stdout.splitlines() if line.startswith(("[PASS]", "[FAIL]"))]


def report(line: str) -> None:
    print(f"\n[acceptance] {line}")


def assert_criterion(selftest_run, number: int) -> float:
    """Criterion ``number``'s result line must be its check's PASS; returns
    the seconds that line reports."""
    proc, _ = selftest_run
    lines = result_lines(proc)
    name = CHECKS[number - 1].__name__.removeprefix("check_").replace("_", "-")
    assert len(lines) >= number and lines[number - 1].startswith(f"[PASS] {name}: "), (
        proc.stdout + proc.stderr
    )
    report(f"criterion {number} {lines[number - 1]}")
    return float(re.search(r"\((\d+\.\d)s\)$", lines[number - 1]).group(1))


def test_criterion_1_end_to_end_radar_recovery(selftest_run, tmp_path):
    """The ten seeds within 30 s, then the first seed again through the
    CLI files: ``simulate`` writes its bundle, ``process radar`` reads
    the cube back, and the selection it writes, with the chain run on
    the cube file, recovers the truth regenerated from ``truth.json``."""
    elapsed_s = assert_criterion(selftest_run, 1)
    assert elapsed_s <= 30.0, f"runtime {elapsed_s:.1f} s > 30 s"
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


def test_criterion_2_phase_scale_physics(selftest_run):
    assert_criterion(selftest_run, 2)


def test_criterion_3_ibi_fidelity(selftest_run):
    assert_criterion(selftest_run, 3)


def test_criterion_4_metric_oracles(selftest_run):
    assert_criterion(selftest_run, 4)


def test_criterion_5_morphology_ordering(selftest_run):
    assert_criterion(selftest_run, 5)


def test_criterion_6_filter_contract(selftest_run):
    assert_criterion(selftest_run, 6)


def test_criterion_7_invariants_roundtrips_selftest(selftest_run):
    """The bundle round trip, and the verb: exit 0, one line per check, within 60 s."""
    assert_criterion(selftest_run, 7)
    proc, wall_s = selftest_run
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert len(result_lines(proc)) == len(CHECKS) == 7, proc.stdout
    assert wall_s <= 60.0, f"selftest took {wall_s:.1f} s"
    report(f"criterion 7 PASS: selftest 7 checks green in {wall_s:.1f} s <= 60 s")


def test_check_oracles_equal_the_test_oracles():
    """The checks' filter-gain and tone-amplitude helpers are bit-equal to
    ``tests/oracles.py``'s, so the gate rests on an oracle ``src/`` does not define."""
    fs = 200.0
    record = np.random.default_rng(0).standard_normal(12_001)
    for f_hz in (0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 20.0):
        assert analytic_zero_phase_gain(f_hz, fs, BandpassSpec()) == zero_phase_gain(f_hz, fs)
        assert measure_tone_amplitude(record, fs, f_hz) == tone_amplitude(record, fs, f_hz)
