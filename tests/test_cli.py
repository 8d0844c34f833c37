import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from pulsecmp import beats, cli
from pulsecmp.cli import main
from pulsecmp.formats import read_radar_cube, write_radar_cube
from pulsecmp.radar import RadarCube
from pulsecmp.signal_core import TimeSeries
from pulsecmp.synth import CubeGeometry, synth_radar_cube


def run_cli(args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "pulsecmp.cli", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


SIM_ARGS = ["--seed", "3", "--duration", "12", "--set", "synth.chirps=4",
            "--set", "synth.samples=32", "--set", "synth.target_bin=5"]


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("bundle") / "sub1"
    code = main(["simulate", "-o", str(path), *SIM_ARGS])
    assert code == 0
    return path


class TestSimulate:
    def test_outputs_present(self, bundle_dir):
        for name in ("radar.radc", "ppg.csv", "reference.csv", "truth.json"):
            assert (bundle_dir / name).exists()

    def test_truth_sidecar_contents(self, bundle_dir):
        doc = json.loads((bundle_dir / "truth.json").read_text())
        assert doc["seed"] == 3
        assert doc["target_range_bin"] == 5
        assert doc["model"]["hr_mean_bpm"] == 62.0
        assert len(doc["beat_times_s"]) >= 10

    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["simulate", "-o", str(a), *SIM_ARGS]) == 0
        assert main(["simulate", "-o", str(b), *SIM_ARGS]) == 0
        for name in ("radar.radc", "ppg.csv", "reference.csv", "truth.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestProcess:
    def test_radar(self, bundle_dir, tmp_path):
        out = tmp_path / "radar_out"
        assert main(["process", "radar", str(bundle_dir / "radar.radc"), "-o", str(out)]) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["selection"]["antenna_index"] == 1
        assert meta["selection"]["range_bin"] == 5
        assert (out / "waveform.csv").exists()
        assert (out / "peaks.csv").exists()
        assert (out / "ibi.csv").exists()

    def test_ppg(self, bundle_dir, tmp_path):
        out = tmp_path / "ppg_out"
        assert main(["process", "ppg", str(bundle_dir / "ppg.csv"), "-o", str(out)]) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["n_systolic"] > 5

    def test_ppg_detects_peaks_once(self, bundle_dir, tmp_path, call_log):
        detect_peaks_calls = call_log(beats.detect_peaks)
        out = tmp_path / "ppg_once"
        assert main(["process", "ppg", str(bundle_dir / "ppg.csv"), "-o", str(out)]) == 0
        assert len(detect_peaks_calls) == 1

    def test_reference(self, bundle_dir, tmp_path):
        out = tmp_path / "ref_out"
        assert main(["process", "reference", str(bundle_dir / "reference.csv"), "-o", str(out)]) == 0

    def test_missing_input_is_input_error(self, tmp_path):
        code = run_cli(["process", "radar", str(tmp_path / "nope.radc"), "-o", str(tmp_path)])
        assert code.returncode == 1

    def test_bad_magic_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.radc"
        bad.write_bytes(b"XXXX" + b"\x00" * 100)
        result = run_cli(["process", "radar", str(bad), "-o", str(tmp_path / "o")])
        assert result.returncode == 1
        assert "bad magic" in result.stderr


class TestCompare:
    def test_bundle_report(self, bundle_dir, tmp_path):
        out = tmp_path / "cmp"
        assert main(["compare", "--bundle", str(bundle_dir), "-o", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["baseline"] == "reference"
        assert set(doc["modalities"]) == {"ppg", "radar", "reference"}
        assert "radar_vs_reference" in doc["pairs"]
        assert (out / "ba_points_radar_vs_reference.csv").exists()
        assert (out / "avg_beat_reference.csv").exists()
        assert (out / "ibi_radar.csv").exists()

    def test_byte_identical_reports(self, bundle_dir, tmp_path):
        out1 = tmp_path / "c1"
        out2 = tmp_path / "c2"
        assert main(["compare", "--bundle", str(bundle_dir), "-o", str(out1)]) == 0
        assert main(["compare", "--bundle", str(bundle_dir), "-o", str(out2)]) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_explicit_files(self, bundle_dir, tmp_path):
        out = tmp_path / "files"
        code = main([
            "compare",
            "--ppg", str(bundle_dir / "ppg.csv"),
            "--reference", str(bundle_dir / "reference.csv"),
            "-o", str(out),
            "--subject", "s9",
        ])
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["subject_id"] == "s9"
        assert set(doc["modalities"]) == {"ppg", "reference"}

    def test_single_modality_is_input_error(self, bundle_dir, tmp_path):
        result = run_cli([
            "compare", "--reference", str(bundle_dir / "reference.csv"),
            "-o", str(tmp_path / "x"),
        ])
        assert result.returncode == 1
        assert "need two modalities" in result.stderr

    def test_directory_input_is_input_error(self, tmp_path, capsys):
        folder = tmp_path / "d"
        folder.mkdir()
        code = main(["compare", "--ppg", str(folder), "--reference", str(folder),
                     "-o", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_non_finite_radar_sample_is_input_error(self, bundle_dir, tmp_path):
        subject = tmp_path / "nan"
        subject.mkdir()
        for name in ("ppg.csv", "reference.csv"):
            (subject / name).write_bytes((bundle_dir / name).read_bytes())
        cube = read_radar_cube(str(bundle_dir / "radar.radc"))
        data = cube.data.copy()
        data[700, 1, 2, 3] = np.nan
        write_radar_cube(
            RadarCube(data, cube.frame_rate_hz, cube.fast_time_rate_hz, cube.carrier_hz,
                      cube.metadata),
            str(subject / "radar.radc"),
        )
        result = run_cli(["compare", "--bundle", str(subject), "-o", str(tmp_path / "out")])
        assert result.returncode == 1
        assert "error: radar: non-finite sample in frame 700" in result.stderr

    def test_non_finite_csv_sample_is_input_error(self, bundle_dir, tmp_path):
        subject = tmp_path / "nan"
        subject.mkdir()
        for name in ("radar.radc", "reference.csv"):
            (subject / name).write_bytes((bundle_dir / name).read_bytes())
        lines = (bundle_dir / "ppg.csv").read_text().splitlines(keepends=True)
        lines[500] = lines[500].split(",")[0] + ",nan\n"
        (subject / "ppg.csv").write_text("".join(lines))
        result = run_cli(["compare", "--bundle", str(subject), "-o", str(tmp_path / "out")])
        assert result.returncode == 1
        assert "non-finite" in result.stderr
        assert "green_0" in result.stderr

    def test_truth_sidecar_is_not_read(self, bundle_dir, tmp_path):
        reports = []
        for variant in ("intact", "missing", "corrupt"):
            subject = tmp_path / variant
            subject.mkdir()
            for name in ("radar.radc", "ppg.csv", "reference.csv"):
                (subject / name).write_bytes((bundle_dir / name).read_bytes())
            if variant == "intact":
                (subject / "truth.json").write_bytes((bundle_dir / "truth.json").read_bytes())
            elif variant == "corrupt":
                (subject / "truth.json").write_text("{not json")
            out = tmp_path / f"out_{variant}"
            assert main(["compare", "--bundle", str(subject), "-o", str(out),
                         "--subject", "s"]) == 0
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1] == reports[2]

    def test_process_matches_compare(self, bundle_dir, tmp_path):
        cmp_out = tmp_path / "cmp"
        assert main(["compare", "--bundle", str(bundle_dir), "-o", str(cmp_out)]) == 0
        report = json.loads((cmp_out / "report.json").read_text())
        for modality, filename in (
            ("radar", "radar.radc"), ("ppg", "ppg.csv"), ("reference", "reference.csv")
        ):
            out = tmp_path / modality
            assert main(["process", modality, str(bundle_dir / filename), "-o", str(out)]) == 0
            assert (out / "ibi.csv").read_bytes() == (
                cmp_out / f"ibi_{modality}.csv"
            ).read_bytes()
        meta = json.loads((tmp_path / "radar" / "meta.json").read_text())
        assert meta["selection"] == report["modalities"]["radar"]["selection"]

    def test_max_bins_one_is_input_error(self, bundle_dir, tmp_path, capsys):
        # bin 0 is the only bin under max_bins=1, and it carries no phase
        out = tmp_path / "mb1"
        code = main(["compare", "--bundle", str(bundle_dir), "-o", str(out),
                     "--set", "radar.max_bins=1"])
        assert code == 1
        assert "no informative range bin" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_two_sample_chirps_are_input_error(self, bundle_dir, tmp_path, capsys):
        # two samples give bins 0 and 1, and bin 1 is the Nyquist bin
        subject = tmp_path / "two"
        subject.mkdir()
        (subject / "reference.csv").write_bytes((bundle_dir / "reference.csv").read_bytes())
        data = np.random.default_rng(0).standard_normal((2400, 1, 2, 2))
        write_radar_cube(RadarCube(data), str(subject / "radar.radc"))
        out = tmp_path / "out"
        assert main(["compare", "--bundle", str(subject), "-o", str(out)]) == 1
        assert "error: radar: no informative range bin" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_undecided_polarity_is_null(self, bundle_dir, tmp_path):
        # a motionless target has no systolic peak to judge polarity by
        subject = tmp_path / "still"
        subject.mkdir()
        (subject / "reference.csv").write_bytes((bundle_dir / "reference.csv").read_bytes())
        still = TimeSeries(np.zeros(2400), 200.0)
        cube = synth_radar_cube(still, CubeGeometry(chirps=4, samples=32), snr_db=None, seed=3)
        write_radar_cube(cube, str(subject / "radar.radc"))
        assert main(["compare", "--bundle", str(subject), "-o", str(tmp_path / "cmp")]) == 0
        report = json.loads((tmp_path / "cmp" / "report.json").read_text())
        assert report["modalities"]["radar"]["selection"]["inverted"] is None
        assert main(["process", "radar", str(subject / "radar.radc"),
                     "-o", str(tmp_path / "proc")]) == 0
        meta = json.loads((tmp_path / "proc" / "meta.json").read_text())
        assert meta["selection"] == report["modalities"]["radar"]["selection"]

    def test_bad_subject_fails_alone(self, bundle_dir, tmp_path, capsys):
        root = tmp_path / "subjects"
        shutil.copytree(bundle_dir, root / "b_good")
        shutil.copytree(bundle_dir, root / "a_bad")
        (root / "a_bad" / "ppg.csv").write_bytes(b"\x00\x01 not a csv\n")
        solo = tmp_path / "solo"
        assert main(["compare", "--bundle", str(root / "b_good"), "-o", str(solo)]) == 0
        capsys.readouterr()
        errs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"reports{jobs}"
            code = main(["compare", "--bundle-root", str(root), "--jobs", jobs, "-o", str(out)])
            assert code == 1
            assert (out / "b_good" / "report.json").read_bytes() == (
                solo / "report.json"
            ).read_bytes()
            assert not (out / "a_bad" / "report.json").exists()
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert errs[0].startswith("error: a_bad: ")
        assert errs[0].count("\n") == 1

    def test_jobs_fanout(self, tmp_path):
        root = tmp_path / "subjects"
        for name in ("s1", "s2"):
            assert main(["simulate", "-o", str(root / name), "--subject", name, *SIM_ARGS]) == 0
        out = tmp_path / "reports"
        assert main(["compare", "--bundle-root", str(root), "--jobs", "2", "-o", str(out)]) == 0
        for name in ("s1", "s2"):
            doc = json.loads((out / name / "report.json").read_text())
            assert doc["subject_id"] == name

    def test_jobs_clamped_to_subjects(self, tmp_path, monkeypatch):
        workers = []

        class RecordingPool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return []

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        root = tmp_path / "subjects"
        for name in ("s1", "s2"):
            (root / name).mkdir(parents=True)
        out = str(tmp_path / "reports")
        assert main(["compare", "--bundle-root", str(root), "--jobs", "64", "-o", out]) == 0
        assert workers == [2]


class TestConfigPlumbing:
    def test_env_config(self, bundle_dir, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("beats.norm_len = 100\n")
        out = tmp_path / "env_out"
        env = dict(os.environ, PULSECMP_CONFIG=str(cfg))
        result = run_cli(["compare", "--bundle", str(bundle_dir), "-o", str(out)], env=env)
        assert result.returncode == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"]["beats.norm_len"] == 100

    def test_set_override_wins(self, bundle_dir, tmp_path):
        out = tmp_path / "ovr"
        assert main([
            "compare", "--bundle", str(bundle_dir), "-o", str(out),
            "--set", "align.pair_tol_s=0.2",
        ]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"]["align.pair_tol_s"] == 0.2

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", " Infinity"])
    def test_non_finite_value_is_input_error(self, bundle_dir, tmp_path, capsys, value):
        out = tmp_path / "nf"
        code = main(["compare", "--bundle", str(bundle_dir), "-o", str(out),
                     "--set", f"align.max_lag_s={value}"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: config key 'align.max_lag_s' must be finite")
        assert not out.exists()

    def test_non_finite_duration_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "inf"
        assert main(["simulate", "-o", str(out), "--duration", "inf"]) == 1
        assert capsys.readouterr().err == "error: duration must be finite\n"
        assert main(["simulate", "-o", str(out), "--set", "synth.duration_s=nan"]) == 1
        assert "'synth.duration_s' must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_key_is_input_error(self, bundle_dir, tmp_path):
        for key in ("bogus.key", "filter_order", "synth_ppg.tau_s", "filter.order.x"):
            result = run_cli([
                "compare", "--bundle", str(bundle_dir), "-o", str(tmp_path / "u"),
                "--set", f"{key}=1",
            ])
            assert result.returncode == 1, key
            assert "unknown config key" in result.stderr
