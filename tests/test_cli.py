import concurrent.futures
import json
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import weakref

import numpy as np
import pytest

from pulsecmp import beats, cli, formats, radar, signal_core, synth
from pulsecmp.cli import main
from pulsecmp.config import PipelineConfig
from pulsecmp.formats import (
    FormatError,
    canonical_json,
    read_radar_cube,
    read_series_csv,
    write_radar_cube,
    write_series_csv,
)
from pulsecmp.radar import RadarCube
from pulsecmp.report import (
    MIN_BEATS,
    RecordingBundle,
    model_from_config,
    run_compare,
    simulate_bundle,
    simulate_stream,
)
from pulsecmp.signal_core import BandpassSpec, TimeSeries, _bandpass_filter
from pulsecmp.synth import (
    CubeGeometry,
    generate_waveform,
    synth_ppg,
    synth_reference,
)

import seed_grid
from oracles import synth_radar_cube


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

    def test_ppg_channel_is_the_column_read(self, bundle_dir, tmp_path):
        # a flat green_0 beside the recorded pulse as ir_0: the default
        # pick finds no beats, ir_0 reads as the one-channel file does
        ppg = read_series_csv(str(bundle_dir / "ppg.csv"))
        path = str(tmp_path / "ppg.csv")
        write_series_csv(path, {"green_0": np.full(len(ppg), 1e4), "ir_0": ppg.samples},
                         ppg.sample_rate_hz, ppg.start_time_s)
        for source, flags, name in ((bundle_dir / "ppg.csv", [], "one"),
                                    (path, ["--channel", "ir_0"], "ir"), (path, [], "green")):
            assert main(["process", "ppg", str(source), "-o", str(tmp_path / name), *flags]) == 0
        for table in ("waveform.csv", "peaks.csv", "ibi.csv"):
            assert (tmp_path / "ir" / table).read_bytes() == (tmp_path / "one" / table).read_bytes()
        assert json.loads((tmp_path / "green" / "meta.json").read_text())["n_systolic"] == 0
        reference = str(bundle_dir / "reference.csv")
        statuses = {}
        for flags in ([], ["--set", "ppg.channel=ir_0"]):
            out = tmp_path / f"c{len(flags)}"
            assert main(["compare", "--ppg", path, "--reference", reference, "-o", str(out),
                         *flags]) == 0
            statuses[tuple(flags)] = json.loads((out / "report.json").read_text())["modalities"]
        assert statuses[()]["ppg"]["status"] == "insufficient beats"
        assert statuses[("--set", "ppg.channel=ir_0")]["ppg"]["status"] == "ok"

    def test_reference_column_is_picked_as_the_ppg_channel_is(self, bundle_dir, tmp_path):
        # no column named: pressure_mmHg when the file has it, else the
        # first column by name; each file holds the bundle's pressure there
        reference = read_series_csv(str(bundle_dir / "reference.csv"), "pressure_mmHg")
        flat = np.full(len(reference), 80.0)
        files = {
            "renamed": {"abp": reference.samples},
            "first": {"abp": reference.samples, "zz": flat},
            "preferred": {"abp": flat, "pressure_mmHg": reference.samples},
        }
        assert main(["process", "reference", str(bundle_dir / "reference.csv"),
                     "-o", str(tmp_path / "one")]) == 0
        for name, columns in files.items():
            path = str(tmp_path / f"{name}.csv")
            write_series_csv(path, columns, reference.sample_rate_hz, reference.start_time_s)
            assert main(["process", "reference", path, "-o", str(tmp_path / name)]) == 0
            for table in ("waveform.csv", "peaks.csv", "ibi.csv"):
                assert (tmp_path / name / table).read_bytes() == \
                    (tmp_path / "one" / table).read_bytes()
        # --column still names the column read
        assert main(["process", "reference", str(tmp_path / "first.csv"), "--column", "zz",
                     "-o", str(tmp_path / "zz")]) == 0
        assert json.loads((tmp_path / "zz" / "meta.json").read_text())["n_systolic"] == 0

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

    @pytest.mark.parametrize(
        "modality, source, flags, message",
        [("ppg", "ppg.csv", ["--channel", "nope"],
          "error: ppg: missing column: 'nope' not in columns: green_0"),
         ("radar", "missing.radc", [], "error: [Errno 2]")],
    )
    def test_failed_call_writes_nothing(
        self, bundle_dir, tmp_path, capsys, modality, source, flags, message
    ):
        out = tmp_path / "o"
        assert main(["process", modality, str(bundle_dir / source), "-o", str(out), *flags]) == 1
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

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
    def test_reference_of_another_column_name(self, bundle_dir, tmp_path):
        # a reference.csv whose one column is not pressure_mmHg reads as
        # the bundle's: the same files, byte for byte
        renamed = tmp_path / bundle_dir.name
        shutil.copytree(bundle_dir, renamed)
        text = (bundle_dir / "reference.csv").read_bytes()
        assert text.startswith(b"time_s,pressure_mmHg\n")
        (renamed / "reference.csv").write_bytes(b"time_s,abp" + text[len(b"time_s,pressure_mmHg"):])
        for source, name in ((bundle_dir, "want"), (renamed, "got")):
            assert main(["compare", "--bundle", str(source), "-o", str(tmp_path / name)]) == 0
        written = sorted(os.listdir(tmp_path / "want"))
        assert sorted(os.listdir(tmp_path / "got")) == written
        for filename in written:
            assert (tmp_path / "got" / filename).read_bytes() == \
                (tmp_path / "want" / filename).read_bytes()

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
        reference = read_series_csv(str(bundle_dir / "reference.csv"), cli.csv_column("reference"))
        short = reference.with_samples(reference.samples[: int(6 * reference.sample_rate_hz)])
        cli.write_bundle_dir(RecordingBundle(reference=short), PipelineConfig(), str(tmp_path))
        code = main([
            "compare", "--ppg", str(bundle_dir / "ppg.csv"),
            "--reference", str(tmp_path / "reference.csv"), "-o", str(tmp_path / "out"),
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: reference: recording too short\n"
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

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_input_error(self, bundle_dir, tmp_path, capsys, jobs):
        root = str(bundle_dir.parent)  # holds one valid subject bundle
        code = main(["compare", "--bundle-root", root, "--jobs", jobs, "-o", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == f"error: --jobs must be at least 1, got {jobs}\n"
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

    @pytest.mark.parametrize("source, message", [
        (["--bundle", "{tmp}/missing"], "no bundle directory at {tmp}/missing"),
        (["--bundle", "{bundle}/ppg.csv"], "no bundle directory at {bundle}/ppg.csv"),
        ([], "compare needs an input source: --bundle, --bundle-root, or "
             "--radar/--ppg/--reference files"),
    ], ids=["missing-bundle", "file-as-bundle", "no-source"])
    def test_input_source_error_says_what_is_wrong(
        self, bundle_dir, tmp_path, capsys, source, message
    ):
        # neither reads as an empty bundle
        fill = {"tmp": tmp_path, "bundle": bundle_dir}
        args = [arg.format(**fill) for arg in source]
        code = main(["compare", *args, "-o", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message.format(**fill)}\n"
        assert not (tmp_path / "o").exists()

    def test_radar_chain_error_comes_before_a_later_bad_csv(self, bundle_dir, tmp_path, capsys):
        # each modality is read just before its chain, in radar, PPG,
        # reference order: a short cube fails before the PPG file is read
        subject = tmp_path / "s"
        subject.mkdir()
        cube = read_radar_cube(str(bundle_dir / "radar.radc"))
        frames = int(6 * cube.frame_rate_hz)
        write_radar_cube(
            RadarCube(cube.data[:frames].copy(), cube.frame_rate_hz, cube.fast_time_rate_hz,
                      cube.carrier_hz, cube.metadata),
            str(subject / "radar.radc"),
        )
        (subject / "ppg.csv").write_text("not a table\n")
        code = main(["compare", "--bundle", str(subject), "-o", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == "error: radar: recording too short\n"
        assert not (tmp_path / "o").exists()

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

    @staticmethod
    def overflowing_reference(bundle_dir, subject):
        """A bundle whose 12 s reference holds the finite samples
        1e307 sin(2 pi 1.1 t): the band-pass's sums overflow."""
        t = np.arange(2400) / 200.0
        reference = TimeSeries(1e307 * np.sin(2 * np.pi * 1.1 * t), 200.0)
        cli.write_bundle_dir(RecordingBundle(reference=reference), PipelineConfig(), str(subject))
        (subject / "ppg.csv").write_bytes((bundle_dir / "ppg.csv").read_bytes())
        return subject

    def test_filter_overflow_is_input_error(self, bundle_dir, tmp_path):
        subject = self.overflowing_reference(bundle_dir, tmp_path / "big")
        out = tmp_path / "out"
        result = run_cli(["compare", "--bundle", str(subject), "-o", str(out)])
        assert result.returncode == 1
        # one line, no numpy warning
        assert result.stderr == (
            "error: reference: band-pass output is not finite: input too large or not finite\n"
        )
        assert not out.exists()

    def test_beat_resampling_overflow_is_input_error(self, bundle_dir, tmp_path):
        # the reference centred and scaled to +-1e307: the band-pass
        # output is finite, a beat's interpolation slopes are not
        reference = read_series_csv(str(bundle_dir / "reference.csv"), cli.csv_column("reference"))
        centered = reference.samples - reference.samples.mean()
        huge = reference.with_samples(centered * (1e307 / np.abs(centered).max()))
        subject = tmp_path / "big"
        cli.write_bundle_dir(RecordingBundle(reference=huge), PipelineConfig(), str(subject))
        (subject / "ppg.csv").write_bytes((bundle_dir / "ppg.csv").read_bytes())
        out = tmp_path / "out"
        result = run_cli(["compare", "--bundle", str(subject), "-o", str(out)])
        assert result.returncode == 1
        assert result.stderr == "error: reference: beat resampling overflowed: waveform too large\n"
        assert not out.exists()

    def test_pressure_mean_overflow_is_input_error(self, bundle_dir, tmp_path):
        # a 60 s reference scaled to peak at 1e307: its chain's output is
        # finite, the sum of its ~60 systolic pressures is not
        config = PipelineConfig(synth_seed=1, synth_duration_s=60.0)
        waveform, truth = generate_waveform(
            model_from_config(config), config.synth_duration_s, config.synth_fs_hz, 1
        )
        ppg = synth_ppg(waveform, config.synth_ppg_tau_s, config.synth_ppg_noise_sd, 1)
        reference = synth_reference(
            waveform, config.synth_sbp_mmhg, config.synth_dbp_mmhg, truth.beat_times_s
        )
        huge = reference.with_samples(reference.samples * (1e307 / reference.samples.max()))
        subject = tmp_path / "big"
        cli.write_bundle_dir(RecordingBundle(ppg=ppg, reference=huge), config, str(subject))
        out = tmp_path / "out"
        result = run_cli(["compare", "--bundle", str(subject), "-o", str(out)])
        assert result.returncode == 1
        # one line, no numpy warning
        assert result.stderr == "error: reference: pressure mean is not finite: input too large\n"
        assert not out.exists()

    def test_non_finite_report_value_leaves_no_output(self, bundle_dir, tmp_path, monkeypatch,
                                                       capsys):
        # the report is serialised before -o is created
        monkeypatch.setattr("pulsecmp.report.map_from_bp", lambda sbp, dbp: float("nan"))
        out = tmp_path / "out"
        assert main(["compare", "--bundle", str(bundle_dir), "-o", str(out)]) == 1
        assert capsys.readouterr().err == "error: non-finite value in output\n"
        assert not out.exists()

    @pytest.mark.parametrize("row", ["header", "first", "deep"])
    def test_non_utf8_csv_is_a_coded_input_error(self, bundle_dir, tmp_path, capsys, row):
        # the byte in the header, in the first data row (both in the
        # header read's first chunk) or far past that chunk
        lines = (bundle_dir / "ppg.csv").read_bytes().splitlines(keepends=True)
        index = {"header": 0, "first": 1, "deep": len(lines) - 2}[row]
        lines[index] = lines[index].replace(b",", b",\xff", 1)
        path = tmp_path / "ppg.csv"
        path.write_bytes(b"".join(lines))
        for argv in (["compare", "--ppg", str(path), "--reference", str(bundle_dir / "reference.csv")],
                     ["process", "ppg", str(path)]):
            out = tmp_path / "out"
            assert main([*argv, "-o", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ppg: bad encoding: 'utf-8' codec can't decode byte 0xff")
            assert err.count("\n") == 1
            assert not out.exists()

    def test_process_filter_overflow_writes_nothing(self, bundle_dir, tmp_path):
        subject = self.overflowing_reference(bundle_dir, tmp_path / "big")
        out = tmp_path / "out"
        result = run_cli(["process", "reference", str(subject / "reference.csv"), "-o", str(out)])
        assert result.returncode == 1
        assert result.stderr.startswith("error: reference: band-pass output is not finite")
        assert result.stderr.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "cut_s, flags, message",
        [
            (8.0, [], "error: ppg: recording too short\n"),
            # no modality's 100 Hz Nyquist fits it; radar's chain runs first
            (None, ["--set", "filter.high_hz=150"], "error: radar: invalid cutoff\n"),
        ],
    )
    def test_errors_name_their_modality(self, bundle_dir, tmp_path, capsys, cut_s, flags, message):
        subject = tmp_path / "s"
        shutil.copytree(bundle_dir, subject)
        if cut_s is not None:
            lines = (bundle_dir / "ppg.csv").read_text().splitlines(keepends=True)
            (subject / "ppg.csv").write_text("".join(lines[: 1 + int(cut_s * 200)]))
        assert main(["compare", "--bundle", str(subject), "-o", str(tmp_path / "o"), *flags]) == 1
        assert capsys.readouterr().err == message
        assert main(["compare", "--bundle-root", str(tmp_path), "-o", str(tmp_path / "r"), *flags]) == 1
        assert capsys.readouterr().err == message.replace("error: ", "error: s: ")
        if cut_s is not None:
            out = tmp_path / "p"
            assert main(["process", "ppg", str(subject / "ppg.csv"), "-o", str(out)]) == 1
            assert capsys.readouterr().err == message
            assert not out.exists()

    def test_named_format_error_keeps_its_class_and_code(self, bundle_dir, tmp_path):
        subject = tmp_path / "s"
        shutil.copytree(bundle_dir, subject)
        (subject / "ppg.csv").write_text("t,v\n0,1\n0.005,2\n")
        with pytest.raises(FormatError) as err:
            cli.compare_bundle(cli.bundle_paths(str(subject)), "s", PipelineConfig())
        assert err.value.code == "bad header"
        assert str(err.value) == "ppg: bad header: first column must be time_s"

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
        # and on a flat reference, whose interval series is empty
        flat = tmp_path / "flat"
        flat.mkdir()
        for name in ("radar.radc", "ppg.csv"):
            (flat / name).write_bytes((bundle_dir / name).read_bytes())
        header, *rows = (bundle_dir / "reference.csv").read_text().splitlines()
        (flat / "reference.csv").write_text(
            "\n".join([header, *(row.split(",")[0] + ",100.0" for row in rows)]) + "\n"
        )
        for bundle in (bundle_dir, flat):
            cmp_out = tmp_path / f"cmp_{bundle.name}"
            assert main(["compare", "--bundle", str(bundle), "-o", str(cmp_out)]) == 0
            report = json.loads((cmp_out / "report.json").read_text())
            for modality, filename in (
                ("radar", "radar.radc"), ("ppg", "ppg.csv"), ("reference", "reference.csv")
            ):
                out = tmp_path / f"{bundle.name}_{modality}"
                assert main(["process", modality, str(bundle / filename), "-o", str(out)]) == 0
                assert (out / "ibi.csv").read_bytes() == (
                    cmp_out / f"ibi_{modality}.csv"
                ).read_bytes()
            meta = json.loads((tmp_path / f"{bundle.name}_radar" / "meta.json").read_text())
            assert meta["selection"] == report["modalities"]["radar"]["selection"]
        assert report["modalities"]["reference"]["n_ibi"] == 0

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


def read_table(path) -> tuple[list[str], np.ndarray]:
    """A CSV that ``formats.write_table`` wrote: its header and its columns."""
    with open(path, encoding="utf-8") as fh:
        names = fh.readline().rstrip("\n").split(",")
    return names, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T


class TestReportTables:
    """``avg_beat_<m>.csv``, ``ba_points_<pair>.csv``, ``ibi_<m>.csv`` and
    the report's ``n_ibi`` and ``morphology`` are written from the arrays
    the report holds."""

    def test_intervals_and_morphology_are_read_from_train_and_table(self, bundle_dir, tmp_path):
        # n_ibi is the row count of ibi_<m>.csv and process's n_ibi; the
        # morphology block is the beat table's mean and sample SD, bit for bit
        paths = cli.bundle_paths(str(bundle_dir))
        report = cli.compare_bundle(paths, "s", PipelineConfig())
        cli._write_report_files(report, str(tmp_path))
        doc = json.loads((tmp_path / "report.json").read_text())["modalities"]
        assert set(doc) == set(report.modalities) == set(cli.MODALITIES)
        for name, modality in report.modalities.items():
            names, (_, intervals) = read_table(tmp_path / f"ibi_{name}.csv")
            assert names == ["anchor_time_s", "interval_ms"]
            out = tmp_path / f"p_{name}"
            assert main(["process", name, paths[name], "-o", str(out)]) == 0
            meta = json.loads((out / "meta.json").read_text())
            assert list(meta)[-3:] == ["n_systolic", "n_diastolic", "n_ibi"]
            assert doc[name]["n_ibi"] == intervals.size == meta["n_ibi"] > 0
            table = modality.beats
            assert len(table) >= MIN_BEATS
            assert list(doc[name]["morphology"].items()) == [
                ("inflection_count_mean", float(table.extrema.mean())),
                ("inflection_count_sd", float(table.extrema.std(ddof=1))),
                ("auc_mean", float(table.auc.mean())),
                ("auc_sd", float(table.auc.std(ddof=1))),
            ]

    def test_average_beat_is_the_beat_table_mean_and_sd(self, bundle_dir, tmp_path):
        report = cli.compare_bundle(cli.bundle_paths(str(bundle_dir)), "s", PipelineConfig())
        cli._write_report_files(report, str(tmp_path))
        assert {m.status for m in report.modalities.values()} == {"ok"}
        for name, modality in report.modalities.items():
            names, (position, mean, sd) = read_table(tmp_path / f"avg_beat_{name}.csv")
            shapes = modality.beats.shapes
            assert names == ["position", "mean", "sd"]
            assert np.array_equal(position, np.linspace(0.0, 1.0, shapes.shape[1]))
            # the population SD, bit for bit after the round-trip digits
            assert np.array_equal(mean, shapes.mean(axis=0))
            assert np.array_equal(sd, shapes.std(axis=0))

    def test_bland_altman_points_are_the_pair_arrays(self, bundle_dir, tmp_path):
        report = cli.compare_bundle(cli.bundle_paths(str(bundle_dir)), "s", PipelineConfig())
        cli._write_report_files(report, str(tmp_path))
        doc = json.loads((tmp_path / "report.json").read_text())
        assert set(report.pairs) == {"ppg_vs_reference", "radar_vs_reference"}
        for name, pair in report.pairs.items():
            names, (means, diffs) = read_table(tmp_path / f"ba_points_{name}.csv")
            assert names == ["mean_ms", "diff_ms"]
            assert np.array_equal(means, pair.bland_altman.means)
            assert np.array_equal(diffs, pair.bland_altman.diffs)
            assert doc["pairs"][name]["bland_altman"]["n"] == diffs.size == pair.n_paired_ibis


class TestOneReportInMemoryAndFromDisk:
    """A bundle gives the same report whether it was processed in memory
    or written by ``simulate``'s writer and streamed back from disk as
    ``compare`` reads it."""

    @staticmethod
    def assert_same_report(bundle, config, written=None) -> str:
        """Compare ``bundle`` in memory with ``written`` (by default
        ``bundle`` itself) after a trip through the bundle files."""
        with tempfile.TemporaryDirectory() as tmp:
            cli.write_bundle_dir(written or bundle, config, tmp)
            back = cli.compare_bundle(cli.bundle_paths(tmp), bundle.subject_id, config)
            from_disk = canonical_json(back.to_dict())
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
        _bandpass_filter.cache_clear()
        cli.compare_bundle(cli.bundle_paths(str(bundle_dir)), "s", PipelineConfig())
        assert _bandpass_filter.cache_info().misses == 1


class TestCompareMemory:
    def test_ppg_and_reference_compare_holds_each_record_about_once(self, tmp_path):
        # 300 s at 200 Hz: one channel is 480 kB. Each channel read lives
        # until its modality's beats are cut, as does its waveform, and
        # beat cutting adds ~2.4 MB of per-block temporaries that do not
        # grow with the record: ~8.2 channels in all.
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
        paths = cli.bundle_paths(str(tmp_path))
        cli.compare_bundle(paths, "s", config)  # the filter design is cached
        tracemalloc.start()
        try:
            cli.compare_bundle(paths, "s", config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 9 * channel

    @pytest.mark.parametrize("source", ["--bundle", "files", "--bundle-root"])
    def test_no_two_raw_recordings_are_held_at_once(self, bundle_dir, tmp_path, monkeypatch,
                                                    source):
        # each recording is released before the next modality's file is read
        loaded, alive = [], {}

        def load_modality(name, path, *args):
            alive[name] = [n for n, ref in loaded if ref() is not None]
            recording = read(name, path, *args)
            loaded.append((name, weakref.ref(recording)))
            return recording

        read = cli.load_modality
        monkeypatch.setattr(cli, "load_modality", load_modality)
        if source == "files":
            args = [a for name, filename in cli.MODALITIES.items()
                    for a in (f"--{name}", str(bundle_dir / filename))]
        else:
            args = [source, str(bundle_dir if source == "--bundle" else bundle_dir.parent)]
        assert main(["compare", *args, "-o", str(tmp_path / "o")]) == 0
        assert alive == {name: [] for name in cli.MODALITIES}


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
        assert capsys.readouterr().err == "error: radar: norm_len must be at least 7\n"
        assert main(["compare", "--bundle", str(bundle_dir), "-o", str(out),
                     "--set", "beats.norm_len=7"]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert {m["status"] for m in doc["modalities"].values()} == {"ok"}

    def test_config_imports_neither_numpy_nor_the_pipeline(self):
        # every pipeline module reads its defaults from the config, so
        # the config may import none of them
        code = (
            "import sys, pulsecmp.config\n"
            "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('pulsecmp.')))"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "['pulsecmp.config']"

    def test_every_key_reaches_its_stage(self, bundle_dir, tmp_path, call_log):
        # each key off its default: a stage that fell back on the default
        # its own signature states would show here
        config = PipelineConfig(
            filter_order=3, filter_low_hz=0.6, filter_high_hz=7.0,
            beats_min_separation_s=0.3, beats_prominence_rel=0.25, beats_norm_len=150,
            align_max_lag_s=4.0, align_pair_tol_s=0.2, radar_max_bins=12, ppg_channel="ir_0",
        )
        default = PipelineConfig().to_flat_dict()
        changed = {k for k, v in config.to_flat_dict().items() if v != default[k]}
        assert changed == {k for k in default if not k.startswith("synth.")}
        # a PPG file with a second channel, which only the key picks
        paths = cli.bundle_paths(str(bundle_dir))
        green = read_series_csv(paths["ppg"])
        paths["ppg"] = str(tmp_path / "ppg.csv")
        write_series_csv(paths["ppg"], {"green_0": green.samples, "ir_0": 2.0 * green.samples},
                         green.sample_rate_hz, green.start_time_s)
        stages = (
            formats.read_series_csv,
            radar.process_radar,
            signal_core.butterworth_bandpass,
            beats.orient_and_detect,
            beats.segment_beats_indexed,
            beats.align_beat_events,
        )
        calls = {fn.__name__: call_log(fn) for fn in stages}
        cli.compare_bundle(paths, "s", config)
        spec = BandpassSpec(3, 0.6, 7.0)
        # ppg.channel names the PPG's column; the reference's is picked,
        # pressure_mmHg first
        assert calls["read_series_csv"] == [
            (paths["ppg"], "ir_0", "green_0"), (paths["reference"], "", "pressure_mmHg")
        ]
        assert [args[1:] for args in calls["process_radar"]] == [(spec, 12)]
        assert [args[1:] for args in calls["butterworth_bandpass"]] == [(spec,)] * 2
        assert np.array_equal(calls["butterworth_bandpass"][0][0].samples, 2.0 * green.samples)
        assert [args[1:] for args in calls["orient_and_detect"]] == [(0.3, 0.25)] * 3
        assert [args[2:] for args in calls["segment_beats_indexed"]] == [(150,)] * 3
        assert [args[2:] for args in calls["align_beat_events"]] == [(4.0, 0.2)] * 2

    def test_call_log_sees_keyword_arguments(self, call_log):
        # a keyword-passed argument is logged in its positional slot, so
        # a stage called by keyword cannot slip past the test above
        calls = call_log(beats.align_beat_events)
        times = np.arange(1.0, 6.0)
        beats.align_beat_events(times, times, max_lag_s=2.0, pair_tol_s=0.1)
        beats.align_beat_events(times, times, 2.0, pair_tol_s=0.1)
        beats.align_beat_events(times, tb_s=times)
        assert [args[2:] for args in calls] == [(2.0, 0.1), (2.0, 0.1), ()]
        assert all(args[0] is times and args[1] is times for args in calls)

    def test_non_finite_duration_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "inf"
        assert main(["simulate", "-o", str(out), "--duration", "inf"]) == 1
        assert capsys.readouterr().err == (
            "error: config key 'synth.duration_s' must be finite, got inf\n"
        )
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


class TestSelftest:
    def test_raising_and_failing_checks_exit_2(self, monkeypatch, capsys):
        from pulsecmp import selftest

        def check_passes():
            return [], "fine"

        def check_raises():
            # the type that names an input error when a verb raises it
            raise ValueError("recording too short")

        def check_fails():
            return ["off by one"], ""

        checks = [check_passes] * len(selftest.CHECKS)
        checks[1], checks[4] = check_raises, check_fails
        monkeypatch.setattr(selftest, "CHECKS", tuple(checks))
        assert main(["selftest"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert len([line for line in lines if line.startswith(("[PASS]", "[FAIL]"))]) == 7
        failed = [line for line in lines if line.startswith("[FAIL]")]
        assert len(failed) == 2
        assert failed[0].startswith("[FAIL] raises: raised ValueError: recording too short (")
        assert failed[1].startswith("[FAIL] fails: off by one (")
        assert lines[-1] == "2 of 7 checks failed"

    def test_roundtrip_check_sees_a_recording_altered_as_it_loads(self, monkeypatch):
        from pulsecmp import selftest

        load = cli.load_modality
        altered = []

        def load_and_alter(name, path, *args):
            raw = load(name, path, *args)
            if name == "ppg":
                raw.samples[100] += 1.0
                altered.append(name)
            return raw

        monkeypatch.setattr(cli, "load_modality", load_and_alter)
        problems, _ = selftest.check_bundle_roundtrip()
        assert altered == ["ppg"]
        assert problems[0] == "ppg samples differ"


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

    def test_simulate_compare_with_scipy_blocked(self, tmp_path):
        # selftest runs without scipy in test_acceptance's one selftest run
        bundle, report = str(tmp_path / "bundle"), str(tmp_path / "report")
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None  # any scipy import now raises ImportError\n"
            "from pulsecmp import cli\n"
            f"codes = [cli.main(['simulate', '-o', {bundle!r}, *{SIM_ARGS!r}]),\n"
            f"         cli.main(['compare', '--bundle', {bundle!r}, '-o', {report!r}])]\n"
            "sys.exit(0 if codes == [0, 0] else f'exit codes {codes}')"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert json.loads((tmp_path / "report" / "report.json").read_text())["pairs"]


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def run_fresh(args, **env):
    """Run a fresh interpreter with no BLAS thread variable but those in ``env``."""
    clean = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env={**clean, **env}
    )


class TestColdStart:
    """A CLI process starts without a BLAS thread pool or the synthesizer,
    and spends no cyclic-GC passes on its imports or its shutdown."""

    def test_cli_process_runs_one_thread(self, bundle_dir, tmp_path):
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("no /proc/self/task to count threads in")
        # runpy is what `python -m pulsecmp.cli` runs: the package root, then cli
        code = (
            "import os, runpy, sys\n"
            f"sys.argv = ['pulsecmp', 'compare', '--bundle', {str(bundle_dir)!r}, '-o', {str(tmp_path)!r}]\n"
            "try:\n"
            "    runpy.run_module('pulsecmp.cli', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    assert not exc.code, exc.code\n"
            "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])"
        )
        result = run_fresh(["-c", code])
        assert result.returncode == 0, result.stderr
        assert result.stdout.split()[-2:] == ["1", "1"]
        assert (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_user_thread_count_is_kept(self, name):
        code = (
            "import os, pulsecmp.cli\n"
            "print({k: os.environ.get(k) for k in ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS')})"
        )
        result = run_fresh(["-c", code], **{name: "2"})
        assert result.returncode == 0, result.stderr
        expected = {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": None, name: "2"}
        assert result.stdout.strip() == str(expected)

    def test_cli_imported_after_numpy_leaves_environment(self):
        code = (
            "import os, numpy\n"
            "before = dict(os.environ)\n"
            "import pulsecmp.cli\n"
            "assert dict(os.environ) == before"
        )
        result = run_fresh(["-c", code])
        assert result.returncode == 0, result.stderr

    def test_compare_and_process_load_no_synth(self, bundle_dir, tmp_path):
        code = (
            "import sys\n"
            "from pulsecmp import cli\n"
            f"codes = [cli.main(['compare', '--bundle', {str(bundle_dir)!r}, '-o', {str(tmp_path / 'c')!r}]),\n"
            f"         cli.main(['process', 'ppg', {str(bundle_dir / 'ppg.csv')!r}, '-o', {str(tmp_path / 'p')!r}])]\n"
            "loaded = 'pulsecmp.synth' in sys.modules\n"
            "sys.exit(f'exit codes {codes}' if codes != [0, 0] else 'synth loaded' if loaded else 0)"
        )
        result = run_fresh(["-c", code])
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "c" / "report.json").exists()

    def test_jobs_fork_from_one_thread(self, bundle_dir, tmp_path):
        # Python >= 3.12 warns when os.fork runs in a multi-threaded
        # process, as a started BLAS pool would make it
        root = tmp_path / "subjects"
        for name in ("s1", "s2"):
            shutil.copytree(bundle_dir, root / name)
        result = run_fresh([
            "-W", "always::DeprecationWarning", "-m", "pulsecmp.cli",
            "compare", "--bundle-root", str(root), "--jobs", "2", "-o", str(tmp_path / "out"),
        ])
        assert result.returncode == 0, result.stderr
        assert "multi-threaded" not in result.stderr

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("frozen", [True, False])
    def test_import_leaves_gc_state(self, enabled, frozen):
        code = (
            "import gc\n"
            f"gc.enable() if {enabled} else gc.disable()\n"
            f"gc.freeze() if {frozen} else None\n"
            "frozen = gc.get_freeze_count()\n"
            "import pulsecmp.cli\n"
            f"assert gc.isenabled() is {enabled}\n"
            "assert gc.get_freeze_count() == frozen"
        )
        result = run_fresh(["-c", code])
        assert result.returncode == 0, result.stderr

    def test_in_process_main_freezes_nothing(self, bundle_dir, tmp_path):
        code = (
            "import gc\n"
            "from pulsecmp import cli\n"
            f"assert cli.main(['compare', '--bundle', {str(bundle_dir)!r}, '-o', {str(tmp_path)!r}]) == 0\n"
            "assert gc.get_freeze_count() == 0 and gc.isenabled()"
        )
        result = run_fresh(["-c", code])
        assert result.returncode == 0, result.stderr

    def test_process_entry_freezes_before_exit(self, bundle_dir, tmp_path):
        # runpy is what `python -m pulsecmp.cli` runs
        code = (
            "import gc, runpy, sys\n"
            f"sys.argv = ['pulsecmp', 'compare', '--bundle', {str(bundle_dir)!r}, '-o', {str(tmp_path)!r}]\n"
            "try:\n"
            "    runpy.run_module('pulsecmp.cli', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    assert not exc.code, exc.code\n"
            "assert gc.get_freeze_count() > 0"
        )
        result = run_fresh(["-c", code])
        assert result.returncode == 0, result.stderr

    def test_process_writes_in_process_bytes(self, bundle_dir, tmp_path, capsys):
        result = run_fresh(["-m", "pulsecmp.cli", "compare", "--bundle", str(bundle_dir),
                            "-o", str(tmp_path / "p")])
        assert result.returncode == 0, result.stderr
        assert main(["compare", "--bundle", str(bundle_dir), "-o", str(tmp_path / "m")]) == 0
        reports = [(tmp_path / d / "report.json").read_bytes() for d in ("p", "m")]
        assert reports[0] == reports[1]
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "ppg.csv").write_bytes(b"\x00\x01 not a csv\n")
        capsys.readouterr()
        result = run_fresh(["-m", "pulsecmp.cli", "compare", "--bundle", str(bad),
                            "-o", str(tmp_path / "pb")])
        assert main(["compare", "--bundle", str(bad), "-o", str(tmp_path / "mb")]) == 1
        assert result.returncode == 1
        assert result.stderr.startswith("error: ")
        assert result.stderr == capsys.readouterr().err

    def test_console_script_is_the_module_entry(self):
        # `pulsecmp` and `python -m pulsecmp.cli` run the same function
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml")) as f:
            scripts = f.read().split("[project.scripts]\n", 1)[1]
        assert scripts.splitlines()[0] == 'pulsecmp = "pulsecmp.cli:run"'
        with open(cli.__file__) as f:
            assert f.read().endswith('if __name__ == "__main__":\n    sys.exit(run())\n')
