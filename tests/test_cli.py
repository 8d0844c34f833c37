import concurrent.futures
import json
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest

from pulsecmp import beats, cli, radar, synth
from pulsecmp.cli import main
from pulsecmp.config import PipelineConfig
from pulsecmp.formats import canonical_json, read_radar_cube, write_radar_cube
from pulsecmp.radar import RadarCube
from pulsecmp.report import (
    RecordingBundle,
    model_from_config,
    run_compare,
    simulate_bundle,
    simulate_stream,
)
from pulsecmp.signal_core import TimeSeries, _bandpass_filter
from pulsecmp.synth import (
    CubeGeometry,
    generate_waveform,
    synth_ppg,
    synth_radar_cube,
    synth_reference,
)

import seed_grid


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


class TestStreamedSimulate:
    """``simulate`` draws and writes the radar cube one frame block at a
    time: its ``radar.radc`` holds the bytes of the in-memory cube, and
    a failure leaves no partial file."""

    @staticmethod
    def assert_writes_in_memory_cube(tmp_path, config, *args):
        whole = tmp_path / "whole.radc"
        write_radar_cube(simulate_bundle(config).radar, str(whole))
        out = tmp_path / "streamed"
        assert main(["simulate", "-o", str(out), "--duration", "12", *args]) == 0
        assert (out / "radar.radc").read_bytes() == whole.read_bytes()

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_same_cube_as_in_memory(self, tmp_path, seed):
        config = PipelineConfig(synth_seed=seed, synth_duration_s=12.0)
        self.assert_writes_in_memory_cube(tmp_path, config, "--seed", str(seed))

    def test_same_cube_without_noise(self, tmp_path):
        config = PipelineConfig(synth_duration_s=12.0, synth_snr_db=-1.0)
        self.assert_writes_in_memory_cube(tmp_path, config, "--snr-db", "-1")

    def test_same_cube_with_ragged_last_block(self, tmp_path, monkeypatch):
        config = PipelineConfig(synth_seed=4, synth_duration_s=12.0)
        frame = config.synth_antennas * config.synth_chirps * config.synth_samples
        # 2400 frames in blocks of 7: the last block holds 6
        monkeypatch.setattr(radar, "BLOCK_SAMPLES", 7 * frame)
        assert list(radar.frame_blocks((2400, frame)))[-1] == (2394, 2400)
        self.assert_writes_in_memory_cube(tmp_path, config, "--seed", "4")

    def test_phase_ambiguity_creates_no_bundle(self, tmp_path, capsys):
        out = tmp_path / "bad"
        assert main(["simulate", "--set", "synth.displacement_m=0.01", "-o", str(out)]) == 1
        assert capsys.readouterr().err == "error: phase ambiguity\n"
        assert not out.exists()

    def test_failure_mid_stream_leaves_the_earlier_cube(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "bundle"
        out.mkdir()
        (out / "radar.radc").write_bytes(b"earlier cube")
        real = synth.frame_blocks
        drawn = []

        def two_blocks_then_fail(shape):
            for block in real(shape):
                if len(drawn) == 2:
                    raise RuntimeError("block source failed")
                drawn.append(block)
                yield block

        monkeypatch.setattr(synth, "frame_blocks", two_blocks_then_fail)
        assert main(["simulate", "-o", str(out), "--duration", "12"]) == 2
        assert "RuntimeError: block source failed" in capsys.readouterr().err
        assert len(drawn) == 2
        assert os.listdir(out) == ["radar.radc"]
        assert (out / "radar.radc").read_bytes() == b"earlier cube"

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
    def test_memory_does_not_grow_with_the_cube(self, tmp_path):
        out = tmp_path / "long"
        # A process's ru_maxrss starts at its parent's peak RSS when it
        # execs, and this test process may have a large one: a small
        # Python starts simulate and reads its peak with wait4.
        measure = (
            "import os, subprocess, sys\n"
            "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
            "_, status, usage = os.wait4(proc.pid, 0)\n"
            "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", measure,
             sys.executable, "-m", "pulsecmp.cli", "simulate", "-o", str(out), "--duration", "120"],
            capture_output=True, text=True, check=True,
        )
        code, maxrss_kib = map(int, result.stdout.split())
        assert code == 0, result.stderr
        # 24,000 frames of 3 x 16 x 64 float32 values: a 295 MB payload
        cube_bytes = (out / "radar.radc").stat().st_size
        assert cube_bytes > 24_000 * 3 * 16 * 64 * 4
        assert maxrss_kib * 1024 < cube_bytes / 2


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

    @pytest.mark.parametrize(
        "modality, flag",
        [("radar", "--channel"), ("reference", "--channel"), ("radar", "--column"),
         ("ppg", "--column")],
    )
    def test_flag_of_another_modality_is_input_error(
        self, bundle_dir, tmp_path, capsys, modality, flag
    ):
        source = cli.MODALITIES[modality]
        code = main(["process", modality, str(bundle_dir / source), "-o", str(tmp_path / "o"),
                     flag, "nosuch"])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {flag} applies to 'process ")
        assert not (tmp_path / "o").exists()

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

    def test_short_reference_is_input_error(self, bundle_dir, tmp_path, capsys):
        reference = cli.load_modality("reference", str(bundle_dir / "reference.csv"))
        short = reference.with_samples(reference.samples[: int(6 * reference.sample_rate_hz)])
        cli.save_modality("reference", short, str(tmp_path / "reference.csv"))
        code = main([
            "compare", "--ppg", str(bundle_dir / "ppg.csv"),
            "--reference", str(tmp_path / "reference.csv"), "-o", str(tmp_path / "out"),
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: recording too short\n"
        assert not (tmp_path / "out").exists()

    def test_single_modality_is_input_error(self, bundle_dir, tmp_path):
        result = run_cli([
            "compare", "--reference", str(bundle_dir / "reference.csv"),
            "-o", str(tmp_path / "x"),
        ])
        assert result.returncode == 1
        assert "need two modalities" in result.stderr

    @pytest.mark.parametrize(
        "extra",
        [
            ["--radar", "/nonexistent.radc"],
            ["--bundle-root", "/nonexistent"],
            ["--ppg", "p", "--reference", "r"],
        ],
    )
    def test_mixed_input_sources_are_input_error(self, bundle_dir, tmp_path, capsys, extra):
        code = main(["compare", "--bundle", str(bundle_dir), *extra, "-o", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: compare takes one input source")
        assert " ".join(["--bundle", *extra[::2]]) in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("source", [["--bundle"], ["--ppg", "--reference"]])
    def test_jobs_without_bundle_root_is_input_error(self, bundle_dir, tmp_path, capsys, source):
        files = {"--bundle": bundle_dir, "--ppg": bundle_dir / "ppg.csv",
                 "--reference": bundle_dir / "reference.csv"}
        args = [a for flag in source for a in (flag, str(files[flag]))]
        code = main(["compare", *args, "--jobs", "4", "-o", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == "error: --jobs applies to --bundle-root only\n"
        assert not (tmp_path / "o").exists()

    def test_subject_with_bundle_root_is_input_error(self, bundle_dir, tmp_path, capsys):
        root = str(bundle_dir.parent)  # holds one valid subject bundle
        code = main(["compare", "--bundle-root", root, "--subject", "foo",
                     "-o", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --subject does not apply to --bundle-root")
        assert not (tmp_path / "o").exists()

    def test_bundle_compare_imports_no_pool_or_selftest(self, bundle_dir, tmp_path):
        code = (
            "import sys\n"
            "from pulsecmp import cli\n"
            f"code = cli.main(['compare', '--bundle', {str(bundle_dir)!r}, '-o', {str(tmp_path)!r}])\n"
            "loaded = [m for m in ('multiprocessing', 'pulsecmp.selftest') if m in sys.modules]\n"
            "sys.exit(code or (f'compare imported {loaded}' if loaded else 0))"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "report.json").exists()

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

    def test_negative_pair_tolerance_is_input_error(self, bundle_dir, tmp_path, capsys):
        out = tmp_path / "neg"
        code = main(["compare", "--bundle", str(bundle_dir), "-o", str(out),
                     "--set", "align.pair_tol_s=-1"])
        assert code == 1
        assert "pair_tol_s must not be negative" in capsys.readouterr().err
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

        # cli looks the pool up when it fans out, not at import
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        root = tmp_path / "subjects"
        for name in ("s1", "s2"):
            (root / name).mkdir(parents=True)
        out = str(tmp_path / "reports")
        assert main(["compare", "--bundle-root", str(root), "--jobs", "64", "-o", out]) == 0
        assert workers == [2]


class TestOneReportInMemoryAndFromDisk:
    """A bundle gives the same report whether it was processed in memory
    or written by ``simulate``'s writer and read back by ``compare``'s reader."""

    @staticmethod
    def assert_same_report(bundle, config, written=None) -> str:
        """Compare ``bundle`` in memory with ``written`` (by default
        ``bundle`` itself) after a trip through the bundle files."""
        with tempfile.TemporaryDirectory() as tmp:
            cli.write_bundle_dir(written or bundle, config, tmp)
            back = cli.read_bundle_dir(tmp, subject_id=bundle.subject_id)
            from_disk = canonical_json(run_compare(back, config).to_dict())
        assert from_disk == canonical_json(run_compare(bundle, config).to_dict())
        return from_disk

    @pytest.mark.parametrize("seed", seed_grid.SEEDS)
    def test_default_bundle(self, seed):
        # and the same report as the committed seed grid (see seed_grid.py)
        config = PipelineConfig(synth_seed=seed)
        # written as simulate writes it, the cube streamed block by block
        report = self.assert_same_report(simulate_bundle(config), config, simulate_stream(config))
        seed_grid.assert_matches(json.loads(report), seed_grid.expected(seed))

    def test_long_ppg_and_reference_bundle(self):
        config = PipelineConfig(synth_seed=41, synth_duration_s=1200.0)
        waveform, truth = generate_waveform(
            model_from_config(config), config.synth_duration_s, config.synth_fs_hz, 41
        )
        ppg = synth_ppg(waveform, config.synth_ppg_tau_s, config.synth_ppg_noise_sd, 41)
        reference = synth_reference(
            waveform, config.synth_sbp_mmhg, config.synth_dbp_mmhg, truth.beat_times_s
        )
        self.assert_same_report(RecordingBundle(ppg=ppg, reference=reference), config)

    def test_one_bandpass_design_from_disk(self, bundle_dir):
        bundle = cli.read_bundle_dir(str(bundle_dir))
        _bandpass_filter.cache_clear()
        run_compare(bundle)
        assert _bandpass_filter.cache_info().misses == 1


class TestCompareMemory:
    def test_ppg_and_reference_compare_holds_each_record_about_once(self, tmp_path):
        # 300 s at 200 Hz: one channel is 480 kB. The two channels read
        # stay, each modality's waveform lives until its beats are cut,
        # and beat cutting adds ~2.4 MB of per-block temporaries that do
        # not grow with the record: ~9.2 channels in all.
        config = PipelineConfig(synth_seed=43, synth_duration_s=300.0)
        waveform, truth = generate_waveform(
            model_from_config(config), config.synth_duration_s, config.synth_fs_hz, 43
        )
        ppg = synth_ppg(waveform, config.synth_ppg_tau_s, config.synth_ppg_noise_sd, 43)
        reference = synth_reference(
            waveform, config.synth_sbp_mmhg, config.synth_dbp_mmhg, truth.beat_times_s
        )
        cli.write_bundle_dir(RecordingBundle(ppg=ppg, reference=reference), config, str(tmp_path))
        channel = reference.samples.nbytes
        run_compare(cli.read_bundle_dir(str(tmp_path)))  # the filter design is cached
        tracemalloc.start()
        try:
            run_compare(cli.read_bundle_dir(str(tmp_path)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 10 * channel


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

    @pytest.mark.parametrize("setting, message", [
        ("filter.low_hz=abc", "config key 'filter.low_hz' needs a number, got 'abc'"),
        ("beats.norm_len=1e3", "config key 'beats.norm_len' needs an integer, got '1e3'"),
    ])
    def test_unparsable_value_names_its_key(self, bundle_dir, tmp_path, capsys, setting, message):
        out = tmp_path / "bad"
        code = main(["compare", "--bundle", str(bundle_dir), "-o", str(out), "--set", setting])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_config_file_error_names_its_line(self, bundle_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("# widths\nfilter.order = 4\nbeats.norm_len = 2OO\n")
        out = tmp_path / "bad"
        code = main(["compare", "--bundle", str(bundle_dir), "-o", str(out), "--config", str(cfg)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: line 3: config key 'beats.norm_len' needs an integer, got '2OO'\n"
        )
        assert not out.exists()

    def test_norm_len_has_one_rule(self, bundle_dir, tmp_path, capsys):
        out = tmp_path / "short"
        code = main(["compare", "--bundle", str(bundle_dir), "-o", str(out),
                     "--set", "beats.norm_len=5"])
        assert code == 1
        assert capsys.readouterr().err == "error: norm_len must be at least 7\n"
        assert main(["compare", "--bundle", str(bundle_dir), "-o", str(out),
                     "--set", "beats.norm_len=7"]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert {m["status"] for m in doc["modalities"].values()} == {"ok"}

    def test_non_finite_duration_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "inf"
        assert main(["simulate", "-o", str(out), "--duration", "inf"]) == 1
        assert capsys.readouterr().err == "error: duration must be finite\n"
        assert main(["simulate", "-o", str(out), "--set", "synth.duration_s=nan"]) == 1
        assert "'synth.duration_s' must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_snr_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "nan"
        assert main(["simulate", "-o", str(out), "--set", "synth.snr_db=nan"]) == 1
        via_set = capsys.readouterr().err
        assert main(["simulate", "-o", str(out), "--duration", "12", "--snr-db", "nan"]) == 1
        assert capsys.readouterr().err == via_set
        assert via_set.startswith("error: config key 'synth.snr_db' must be finite")
        assert not out.exists()

    def test_unknown_key_is_input_error(self, bundle_dir, tmp_path):
        for key in ("bogus.key", "filter_order", "synth_ppg.tau_s", "filter.order.x"):
            result = run_cli([
                "compare", "--bundle", str(bundle_dir), "-o", str(tmp_path / "u"),
                "--set", f"{key}=1",
            ])
            assert result.returncode == 1, key
            assert "unknown config key" in result.stderr


class TestNumpyOnlyRuntime:
    """The installed runtime needs numpy alone; scipy is a test oracle."""

    def test_cli_import_loads_no_scipy(self):
        code = (
            "import sys, pulsecmp.cli\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_compare_loads_no_numpy_ma(self, bundle_dir, tmp_path):
        # np.median and np.unique import numpy.ma on first use (numpy
        # itself loads it lazily); compare calls neither
        code = (
            "import sys, numpy\n"
            "before = 'numpy.ma' in sys.modules\n"
            "from pulsecmp import cli\n"
            f"code = cli.main(['compare', '--bundle', {str(bundle_dir)!r}, '-o', {str(tmp_path)!r}])\n"
            "loaded = 'numpy.ma' in sys.modules and not before\n"
            "sys.exit(code or ('compare imported numpy.ma' if loaded else 0))"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "report.json").exists()

    def test_simulate_compare_selftest_with_scipy_blocked(self, tmp_path):
        bundle, report = str(tmp_path / "bundle"), str(tmp_path / "report")
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None  # any scipy import now raises ImportError\n"
            "from pulsecmp import cli\n"
            f"codes = [cli.main(['simulate', '-o', {bundle!r}, *{SIM_ARGS!r}]),\n"
            f"         cli.main(['compare', '--bundle', {bundle!r}, '-o', {report!r}]),\n"
            "         cli.main(['selftest'])]\n"
            "sys.exit(0 if codes == [0, 0, 0] else f'exit codes {codes}')"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert json.loads((tmp_path / "report" / "report.json").read_text())["pairs"]
