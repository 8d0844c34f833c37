import json
import math
import os
import re
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from pulsecmp.config import ENV_CONFIG, PipelineConfig, load_config, parse_config_text
from pulsecmp import formats
from pulsecmp.formats import (
    FormatError,
    canonical_json,
    read_radar_cube,
    read_series_csv,
    write_ground_truth,
    write_radar_cube,
    write_series_csv,
    write_table,
)
from pulsecmp.radar import RadarCube, process_radar
from pulsecmp.signal_core import TimeSeries
from pulsecmp.synth import (
    CubeGeometry,
    PulseModel,
    RadarStream,
    generate_waveform,
)

from oracles import read_ground_truth, synth_radar_cube


class TestRadarCubeFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((5, 3, 2, 16)).astype(np.float32).astype(np.float64)
        cube = RadarCube(
            data,
            frame_rate_hz=200.0,
            fast_time_rate_hz=1.5e6,
            carrier_hz=60e9,
            metadata={"device": "synthetic", "note": "x"},
        )
        path = str(tmp_path / "cube.radc")
        write_radar_cube(cube, path)
        back = read_radar_cube(path)
        assert np.array_equal(back.data, cube.data)
        assert back.metadata == cube.metadata
        assert back.frame_rate_hz == cube.frame_rate_hz
        assert back.fast_time_rate_hz == cube.fast_time_rate_hz
        assert back.carrier_hz == cube.carrier_hz

    def test_process_radar_same_in_memory_and_from_disk(self, tmp_path):
        waveform, _ = generate_waveform(PulseModel(), 20.0, 200.0, seed=21)
        displacement = waveform.with_samples(waveform.samples * 1e-4)
        cube = synth_radar_cube(displacement, CubeGeometry(), snr_db=20.0, seed=21)
        path = str(tmp_path / "cube.radc")
        write_radar_cube(cube, path)
        back = read_radar_cube(path)
        assert back.release_frames is not None
        memory_waveform, memory_sel = process_radar(cube)
        disk_waveform, disk_sel = process_radar(back)
        assert np.array_equal(disk_waveform.samples, memory_waveform.samples)
        assert disk_sel == memory_sel
        # pages released during the reduction read back unchanged
        assert np.array_equal(back.data, cube.data)

    @pytest.mark.parametrize(
        "frames, trailing", [(3, (1, 2, 4)), (6, (1, 2, 4)), (5, (1, 2, 3))]
    )
    def test_blocks_that_do_not_fill_the_header_are_rejected(self, tmp_path, frames, trailing):
        # too few frames, too many, or a block of the wrong trailing shape
        def stream():
            blocks = iter([np.zeros((frames, *trailing), dtype=np.float32)])
            return RadarStream((5, 1, 2, 4), 200.0, 60e9, {}, blocks)

        path = tmp_path / "cube.radc"
        path.write_bytes(b"earlier")
        with pytest.raises(ValueError, match="frame block"):
            write_radar_cube(stream(), str(path))
        assert os.listdir(tmp_path) == ["cube.radc"]
        assert path.read_bytes() == b"earlier"
        with pytest.raises(ValueError, match="frame block"):
            stream().to_cube()

    def test_a_written_stream_does_not_gather_again(self, tmp_path):
        blocks = iter([np.ones((2, 1, 2, 4), dtype=np.float32)] * 2)
        stream = RadarStream((4, 1, 2, 4), 200.0, 60e9, {}, blocks)
        write_radar_cube(stream, str(tmp_path / "cube.radc"))
        assert np.array_equal(read_radar_cube(str(tmp_path / "cube.radc")).data, np.ones((4, 1, 2, 4)))
        with pytest.raises(ValueError, match="^frame blocks hold 0 frames, the header 4$"):
            stream.to_cube()

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "bad.radc")
        with open(path, "wb") as fh:
            fh.write(b"XXXX" + b"\x00" * 60)
        with pytest.raises(FormatError, match="bad magic") as err:
            read_radar_cube(path)
        assert err.value.code == "bad magic"

    @pytest.mark.parametrize(
        "antennas, frame_rate, metadata, code, message",
        [
            (9, 200.0, b"", "bad header", "too many antennas"),
            (1, 0.0, b"", "bad header", "frame_rate_hz must be positive"),
            (1, float("nan"), b"", "bad header", "frame_rate_hz must be positive"),
            (1, 200.0, b"[1,2]", "bad metadata", "not a JSON object"),
        ],
        ids=["nine-antennas", "zero-rate", "nan-rate", "metadata-list"],
    )
    def test_bad_header_values(self, tmp_path, antennas, frame_rate, metadata, code, message):
        header = struct.pack(
            "<4sIIIIIdddI", b"RADC", 1, 1, antennas, 1, 2, frame_rate, 1e6, 60e9, len(metadata)
        )
        path = str(tmp_path / "bad.radc")
        with open(path, "wb") as fh:
            fh.write(header + metadata + np.zeros(2 * antennas, dtype="<f4").tobytes())
        with pytest.raises(FormatError, match=message) as err:
            read_radar_cube(path)
        assert err.value.code == code

    def test_truncated_payload(self, tmp_path):
        header = struct.pack(
            "<4sIIIIIdddI", b"RADC", 1, 2, 2, 2, 2, 200.0, 1e6, 60e9, 0
        )
        path = str(tmp_path / "short.radc")
        with open(path, "wb") as fh:
            fh.write(header + np.zeros(15, dtype="<f4").tobytes())
        with pytest.raises(FormatError, match="truncated payload") as err:
            read_radar_cube(path)
        assert err.value.code == "truncated payload"

    def test_dimension_overflow(self, tmp_path):
        header = struct.pack(
            "<4sIIIIIdddI", b"RADC", 1, 2**30, 8, 2**10, 2**10, 200.0, 1e6, 60e9, 0
        )
        path = str(tmp_path / "huge.radc")
        with open(path, "wb") as fh:
            fh.write(header)
        with pytest.raises(FormatError, match="dimension overflow"):
            read_radar_cube(path)

    def test_unsupported_version(self, tmp_path):
        header = struct.pack(
            "<4sIIIIIdddI", b"RADC", 9, 1, 1, 1, 2, 200.0, 1e6, 60e9, 0
        )
        path = str(tmp_path / "v9.radc")
        with open(path, "wb") as fh:
            fh.write(header + np.zeros(2, dtype="<f4").tobytes())
        with pytest.raises(FormatError, match="unsupported version"):
            read_radar_cube(path)

    @given(
        dims=st.tuples(
            st.integers(1, 4), st.integers(1, 4), st.integers(1, 3), st.integers(2, 9)
        ),
        seed=st.integers(0, 1000),
    )
    def test_round_trip_property(self, dims, seed):
        import tempfile

        rng = np.random.default_rng(seed)
        data = rng.standard_normal(dims).astype(np.float32).astype(np.float64)
        cube = RadarCube(data)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cube.radc")
            write_radar_cube(cube, path)
            assert np.array_equal(read_radar_cube(path).data, cube.data)


class TestSeriesCsv:
    def test_rate_detection(self, tmp_path):
        path = str(tmp_path / "s.csv")
        with open(path, "w") as fh:
            fh.write("time_s,pressure_mmHg\n0,80\n0.005,90\n0.010,100\n")
        series = read_series_csv(path, "pressure_mmHg")
        assert series.sample_rate_hz == 200.0
        assert_allclose(series.samples, [80.0, 90.0, 100.0])

    @pytest.mark.parametrize("times", ["0.000,0.005,0.01,0.015", "1.5,1.505,1.51"])
    def test_hand_written_decimal_times_read_exact_rate(self, tmp_path, times):
        path = _write(
            tmp_path / "s.csv", "time_s,v\n" + "".join(f"{t},1\n" for t in times.split(","))
        )
        assert read_series_csv(path, "v").sample_rate_hz == 200.0

    def test_irregular_times_keep_the_median_step(self, tmp_path):
        times = np.array([0.0, 0.00499, 0.00999, 0.01498, 0.01997])
        path = _write(tmp_path / "s.csv", "time_s,v\n" + "".join(f"{t},1\n" for t in times))
        assert read_series_csv(path, "v").sample_rate_hz == 1.0 / np.median(np.diff(times))

    @given(
        mantissa=st.integers(1, 999_999_999),
        exponent=st.integers(-6, 0),
        n=st.integers(2, 500),
    )
    def test_written_rate_reads_back_exactly(self, mantissa, exponent, n):
        import tempfile

        rate = float(f"{mantissa}e{exponent}")  # at most 9 significant digits
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "rt.csv")
            write_series_csv(path, {"v": np.ones(n)}, rate)
            series = read_series_csv(path, "v")
        assert series.sample_rate_hz == rate
        assert series.start_time_s == 0.0

    def test_non_monotonic(self, tmp_path):
        path = str(tmp_path / "s.csv")
        with open(path, "w") as fh:
            fh.write("time_s,v\n0,1\n0.005,2\n0.004,3\n")
        with pytest.raises(FormatError, match="non-monotonic"):
            read_series_csv(path, "v")

    def test_jitter_rejected(self, tmp_path):
        path = str(tmp_path / "s.csv")
        with open(path, "w") as fh:
            fh.write("time_s,v\n0,1\n0.005,2\n0.011,3\n0.015,4\n")
        with pytest.raises(FormatError, match="non-uniform"):
            read_series_csv(path, "v")

    @pytest.mark.parametrize(
        "times",
        [
            "0,0.005,0.004",  # a step back
            "0,0.005,0.005,0.01",  # a repeated time
        ],
    )
    def test_non_monotonic_message(self, tmp_path, times):
        path = _write(tmp_path / "s.csv", "time_s,v\n" + "".join(f"{t},1\n" for t in times.split(",")))
        for read in (lambda: read_series_csv(path, "v"), lambda: read_series_csv(path)):
            with pytest.raises(FormatError) as info:
                read()
            assert info.value.code == "non-monotonic"
            assert str(info.value) == "non-monotonic: time column must strictly increase"

    @pytest.mark.parametrize("factor, rejected", [(1.0099, False), (1.0101, True), (0.9899, True)])
    def test_jitter_bound_and_message(self, tmp_path, factor, rejected):
        # one step off the 5 ms median by just under or just over 1 %
        steps = np.full(20, 0.005)
        steps[7] *= factor
        times = np.concatenate(([0.0], np.cumsum(steps)))
        path = _write(tmp_path / "s.csv", "time_s,v\n" + "".join(f"{t!r},1\n" for t in times.tolist()))
        for read in (lambda: read_series_csv(path, "v"), lambda: read_series_csv(path)):
            if not rejected:
                read()
                continue
            with pytest.raises(FormatError) as info:
                read()
            assert info.value.code == "non-uniform sampling"
            assert str(info.value) == "non-uniform sampling: time step jitter exceeds 1%"

    def test_channels_are_their_own_arrays(self, tmp_path):
        # the column read is copied out of the parsed table, so the table
        # and its time column are not kept alive by it
        path = _write(tmp_path / "s.csv", "time_s,b,a\n0,1,2\n0.005,3,4\n0.01,5,6\n")
        channels = [read_series_csv(path, "a"), read_series_csv(path, "b"), read_series_csv(path)]
        for series in channels:
            assert series.samples.flags.c_contiguous
            assert series.samples.flags.owndata and series.samples.base is None
        # no name given and no green_0: the first column by name
        assert [c.samples.tolist() for c in channels] == [[2, 4, 6], [1, 3, 5], [2, 4, 6]]

    def test_missing_column_lists_names(self, tmp_path):
        path = str(tmp_path / "s.csv")
        with open(path, "w") as fh:
            fh.write("time_s,green_0,green_1\n0,1,2\n0.005,3,4\n")
        with pytest.raises(FormatError, match="green_0, green_1"):
            read_series_csv(path, "red_0")

    def test_write_read_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        values = rng.standard_normal(100)
        path = str(tmp_path / "rt.csv")
        write_series_csv(path, {"pressure_mmHg": values}, 200.0, start_time_s=1.5)
        series = read_series_csv(path, "pressure_mmHg")
        assert np.array_equal(series.samples, values)  # bit-exact round trip
        assert_allclose(series.sample_rate_hz, 200.0, rtol=1e-12)
        assert series.start_time_s == 1.5

    def test_ppg_round_trip(self, tmp_path):
        # a two-channel PPG file: each channel reads back as written, and
        # the default pick is green_0
        rng = np.random.default_rng(2)
        channels = {"green_1": rng.standard_normal(50), "green_0": rng.standard_normal(50)}
        path = str(tmp_path / "ppg.csv")
        write_series_csv(path, channels, 200.0)
        for name, column in (("green_0", ""), *((name, name) for name in channels)):
            back = read_series_csv(path, column)
            assert np.array_equal(back.samples, channels[name])
            assert (back.sample_rate_hz, back.start_time_s) == (200.0, 0.0)


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return str(path)


def _log_loadtxt_sources(monkeypatch):
    """The type names of what each later ``np.loadtxt`` call parses."""
    sources = []
    loadtxt = np.loadtxt

    def logged(source, *args, **kwargs):
        sources.append(type(source).__name__)
        return loadtxt(source, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", logged)
    return sources


class TestCsvCodec:
    @pytest.mark.parametrize("suffix", [".csv", ".gz"])
    @pytest.mark.parametrize("row", [0, 1, 3000])
    def test_non_utf8_byte_is_bad_encoding(self, tmp_path, row, suffix):
        # the header, the first data row (both in the header read's first
        # chunk) and a row far past it; a .gz name is parsed from the handle
        lines = ["time_s,green_0\n"] + [f"{i / 200!r},{i % 7}.5\n" for i in range(4000)]
        data = [line.encode() for line in lines]
        data[row] = data[row].replace(b",", b",\xff", 1)
        path = tmp_path / f"p{suffix}"
        path.write_bytes(b"".join(data))
        with pytest.raises(FormatError) as err:
            read_series_csv(str(path))
        assert err.value.code == "bad encoding"
        assert str(err.value).startswith("bad encoding: 'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize(
        "text, code",
        [
            ("", "bad header"),
            ("t,v\n0,1\n0.005,2\n", "bad header"),
            ("time_s,v,v\n0,1,1\n0.005,2,2\n", "bad header"),
            ("time_s,v,time_s\n0,1,0\n0.005,2,0.005\n", "bad header"),
            ("time_s,\n0,1\n0.005,2\n", "bad header"),
            ("time_s\n0\n0.005\n", "bad header"),
            ("time_s,v\n0,1\n0.005,2,3\n0.010,3\n", "bad row"),
            ("time_s,v\n0,1,9\n0.005,2,9\n0.010,3,9\n", "bad row"),
            ("time_s,v\n0,1\n0.005,x\n0.010,3\n", "bad row"),
            ("time_s,v\n0,1\n0.005,1_0\n", "bad row"),
            ("time_s,v\n", "too short"),
            ("time_s,v\n0,1\n", "too short"),
            ("time_s,v\n0,1\n0.005,nan\n0.010,3\n", "non-finite"),
            ("time_s,v\n0,1\n0.005,inf\n0.010,3\n", "non-finite"),
            ("time_s,v\n0,1\n0.005,-inf\n0.010,3\n", "non-finite"),
            # a rate, a span or a step past the float range
            ("time_s,v\n0,1\n1e-320,2\n2e-320,3\n", "non-uniform sampling"),
            ("time_s,v\n-1.5e308,1\n0,2\n1.5e308,3\n", "non-uniform sampling"),
            ("time_s,v\n1e308,1\n-1e308,2\n1e308,3\n", "non-monotonic"),
        ],
    )
    @pytest.mark.filterwarnings("error")  # numpy's overflow warnings included
    def test_error_codes(self, tmp_path, text, code):
        path = _write(tmp_path / "s.csv", text)
        with pytest.raises(FormatError) as err:
            read_series_csv(path, "v")
        assert err.value.code == code

    def test_duplicate_column_named(self, tmp_path):
        path = _write(tmp_path / "d.csv", "time_s,green_0,green_0\n0,1,2\n0.005,3,4\n0.010,5,6\n")
        with pytest.raises(FormatError, match="^bad header: duplicate column green_0$"):
            read_series_csv(path)

    def test_non_finite_names_row_and_column(self, tmp_path):
        path = _write(tmp_path / "p.csv", "time_s,green_0,green_1\n0,1,2\n0.005,3,inf\n0.010,5,6\n")
        with pytest.raises(FormatError, match="data row 2, column green_1"):
            read_series_csv(path)

    def test_blank_and_whitespace_lines_skipped(self, tmp_path):
        plain = _write(tmp_path / "plain.csv", "time_s,v\n0,1\n0.005,2\n0.010,3\n")
        spaced = _write(
            tmp_path / "spaced.csv", "time_s,v\n\n0,1\n   \n0.005,2\n\t\n0.010,3\n\n"
        )
        a, b = read_series_csv(plain, "v"), read_series_csv(spaced, "v")
        assert np.array_equal(a.samples, b.samples)
        assert a.sample_rate_hz == b.sample_rate_hz
        assert a.start_time_s == b.start_time_s

    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
            min_size=2,
            max_size=40,
        )
    )
    def test_series_round_trip_is_bit_exact(self, values):
        import tempfile

        values = np.array(values + [0.0, -0.0, 5e-324, -2.2250738585072014e-308])
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "rt.csv")
            write_series_csv(path, {"v": values}, 200.0)
            back = read_series_csv(path, "v").samples
        assert np.array_equal(back.view(np.int64), values.view(np.int64))

    def test_17_digit_file_reads_as_its_shortest_digit_rewrite(self, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.standard_normal(300) * 1e4
        times = 1.5 + np.arange(values.size) / 200.0
        old = _write(
            tmp_path / "old.csv",
            "time_s,v\n" + "".join(f"{t:.17g},{v:.17g}\n" for t, v in zip(times, values)),
        )
        new = str(tmp_path / "new.csv")
        write_series_csv(new, {"v": values}, 200.0, start_time_s=1.5)
        assert open(new).read().splitlines()[2].startswith("1.505,")
        a, b = read_series_csv(old, "v"), read_series_csv(new, "v")
        assert np.array_equal(a.samples.view(np.int64), b.samples.view(np.int64))
        assert a.sample_rate_hz == b.sample_rate_hz == 200.0
        assert a.start_time_s == b.start_time_s == 1.5

    def test_path_and_line_filter_give_one_table(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(6)
        direct = str(tmp_path / "direct.csv")
        write_series_csv(direct, {"a": rng.standard_normal(500), "b": rng.uniform(size=500)}, 250.0)
        lines = open(direct).read().splitlines(keepends=True)
        filtered = _write(tmp_path / "filtered.csv", "".join(lines[:100] + [" \n"] + lines[100:]))
        sources = _log_loadtxt_sources(monkeypatch)
        names, table = formats._parse_time_table(direct)
        # a path: numpy's C parser reads the file in chunks
        assert sources == ["str"]
        # the whitespace-only line fails the path; the filtered lines parse
        names_filtered, table_filtered = formats._parse_time_table(filtered)
        assert sources[1:] == ["str", "generator"]
        assert names == names_filtered == ["time_s", "a", "b"]
        assert np.array_equal(table.view(np.int64), table_filtered.view(np.int64))

    @pytest.mark.parametrize(
        "name, source",
        [
            ("plain.gz", "TextIOWrapper"),
            ("plain.bz2", "TextIOWrapper"),
            ("plain.xz", "TextIOWrapper"),
            ("plain.lzma", "TextIOWrapper"),
            ("plain.GZ", "str"),
            ("s://h/plain.csv", "str"),
        ],
    )
    def test_any_name_reads_as_plain_text(self, tmp_path, monkeypatch, name, source):
        # numpy reads a path with a compression suffix as compressed and
        # a relative name that parses as a URL as one; pulsecmp reads
        # every file as the plain text its header was read from
        rng = np.random.default_rng(8)
        csv = str(tmp_path / "plain.csv")
        write_series_csv(csv, {"a": rng.standard_normal(40)}, 200.0)
        monkeypatch.chdir(tmp_path)
        os.makedirs(os.path.dirname(name) or ".", exist_ok=True)
        with open(csv, "rb") as src, open(name, "wb") as dst:
            dst.write(src.read())
        sources = _log_loadtxt_sources(monkeypatch)
        names, table = formats._parse_time_table(name)
        assert sources == [source]
        expected = formats._parse_time_table(csv)
        assert names == expected[0]
        assert np.array_equal(table.view(np.int64), expected[1].view(np.int64))

    def test_crlf_file_reads_as_its_lf_twin(self, tmp_path):
        rng = np.random.default_rng(7)
        lf = str(tmp_path / "lf.csv")
        write_series_csv(lf, {"a": rng.standard_normal(300), "b": rng.uniform(size=300)}, 200.0, 1.5)
        text = open(lf, newline="").read()
        crlf = str(tmp_path / "crlf.csv")
        with open(crlf, "w", newline="") as fh:
            fh.write(text.replace("\n", "\r\n"))
        spaced = str(tmp_path / "spaced.csv")
        with open(spaced, "w", newline="") as fh:
            fh.write(text.replace("\n", "\r\n\r\n  \r\n", 50))
        # a spreadsheet export's UTF-8 byte-order mark before time_s
        bom = str(tmp_path / "bom.csv")
        with open(bom, "w", newline="", encoding="utf-8") as fh:
            fh.write("\ufeff" + text)
        names, table = formats._parse_time_table(lf)
        for path in (crlf, spaced, bom):
            twin_names, twin = formats._parse_time_table(path)
            assert twin_names == names
            assert np.array_equal(twin.view(np.int64), table.view(np.int64))
            for name in ("a", "b"):
                a, b = read_series_csv(lf, name), read_series_csv(path, name)
                assert np.array_equal(a.samples, b.samples)
                assert a.sample_rate_hz == b.sample_rate_hz == 200.0
                assert a.start_time_s == b.start_time_s == 1.5

    @pytest.mark.parametrize("offset", [1, 2])
    def test_mismatch_in_last_check_block_falls_back(self, tmp_path, offset):
        # past two full check blocks, only one sample of the partial last
        # block is off the writer's column, and not the last sample,
        # which is tested first
        n = 2 * formats.RATE_CHECK_ROWS + 5
        times = np.arange(n, dtype=np.float64) / 200.0
        times[n - 1 - offset] = np.nextafter(times[n - 1 - offset], np.inf)
        path = _write(tmp_path / "s.csv", "time_s,v\n" + "".join(f"{t!r},1\n" for t in times.tolist()))
        series = read_series_csv(path, "v")
        assert series.sample_rate_hz == 1.0 / np.median(np.diff(times))
        assert series.sample_rate_hz != 200.0
        # unaltered, the same file reads the writer's rate exactly
        times[n - 1 - offset] = (n - 1 - offset) / 200.0
        path = _write(tmp_path / "s.csv", "time_s,v\n" + "".join(f"{t!r},1\n" for t in times.tolist()))
        assert read_series_csv(path, "v").sample_rate_hz == 200.0

    @pytest.mark.parametrize(
        "row, column, value",
        [(0, 0, "nan"), (5, 1, "-inf"), (20_000, 2, "inf"), (20_001, 0, "inf")],
    )
    def test_non_finite_cell_named_in_a_long_file(self, tmp_path, row, column, value):
        n = 20_002
        cells = [[repr(i / 200.0), "1.0", "2.0"] for i in range(n)]
        cells[row][column] = value
        path = _write(tmp_path / "p.csv", "time_s,green_0,green_1\n" + "".join(
            ",".join(r) + "\n" for r in cells))
        name = ["time_s", "green_0", "green_1"][column]
        with pytest.raises(FormatError) as err:
            read_series_csv(path)
        assert str(err.value) == f"non-finite: data row {row + 1}, column {name}: {float(value)}"

    def test_file_replaced_during_the_read_reads_as_one_version(self, tmp_path, monkeypatch):
        # writers replace files by rename: the header read from one open
        # and the body parsed from another must come from one file
        path = str(tmp_path / "s.csv")
        write_table(path, {"time_s": [0.0, 0.005, 0.01], "old": [1.0, 2.0, 3.0]})
        replacement = str(tmp_path / "new.csv")
        write_table(replacement, {"time_s": [0.0, 0.01, 0.02, 0.03], "new": [4.0, 5.0, 6.0, 7.0]})
        loadtxt = np.loadtxt
        parsed = []

        def replace_first(source, *args, **kwargs):
            if not parsed:
                os.replace(replacement, path)
            parsed.append(type(source).__name__)
            return loadtxt(source, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", replace_first)
        names, table = formats._parse_time_table(path)
        assert names == ["time_s", "new"]
        assert table.tolist() == [[0.0, 4.0], [0.01, 5.0], [0.02, 6.0], [0.03, 7.0]]
        assert parsed == ["str", "str"]
        # unchanged, a file is parsed once
        formats._parse_time_table(path)
        assert parsed == ["str"] * 3

    def test_block_size_does_not_change_bytes(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(4)
        columns = {"a": rng.standard_normal(50), "b": rng.standard_normal(50) * 1e-300}
        write_table(str(tmp_path / "one.csv"), columns)
        monkeypatch.setattr(formats, "TABLE_BLOCK_ROWS", 7)
        write_table(str(tmp_path / "blocks.csv"), columns)
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "blocks.csv").read_bytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_write_non_finite_leaves_no_file(self, tmp_path, bad):
        with pytest.raises(ValueError, match="non-finite value in output"):
            write_table(str(tmp_path / "t.csv"), {"a": [1.0, 2.0], "b": [3.0, bad]})
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "name, detail",
        [
            ("a,b", "column 3 name 'a,b' does not read back"),
            ("", "column 3 has no name"),
            ("time_s", "duplicate column time_s"),
            ("x\ny", "column 3 name 'x\\ny' does not read back"),
            ("x\ry", "column 3 name 'x\\ry' does not read back"),
            (" green_0", "column 3 name ' green_0' does not read back"),
            ("green_1\t", "column 3 name 'green_1\\t' does not read back"),
        ],
    )
    def test_write_name_the_reader_rejects_leaves_no_file(self, tmp_path, name, detail):
        # the reader would fail on the file, or read the channel back
        # under another name
        with pytest.raises(FormatError, match=f"^bad header: {re.escape(detail)}$"):
            write_series_csv(str(tmp_path / "p.csv"), {"green_0": [1.0, 2.0], name: [3.0, 4.0]}, 200.0)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("name", ["green 0", "ir-1", "Ñ", "a;b", "'q'"])
    def test_names_the_rule_allows_read_back_as_themselves(self, tmp_path, name):
        path = str(tmp_path / "p.csv")
        write_series_csv(path, {"green_0": [1.0, 2.0], name: [3.0, 4.0]}, 200.0)
        assert read_series_csv(path, name).samples.tolist() == [3.0, 4.0]
        with pytest.raises(FormatError, match=f"^missing column: 'nope' not in columns: green_0, {re.escape(name)}$"):
            read_series_csv(path, "nope")


class TestGroundTruthSidecar:
    def test_round_trip_regenerates(self, tmp_path):
        model = PulseModel()
        waveform, truth = generate_waveform(model, 15.0, 200.0, 17)
        truth.target_antenna = 1
        truth.target_range_bin = 7
        truth.displacement = waveform.with_samples(waveform.samples * 1e-4)
        path = str(tmp_path / "truth.json")
        write_ground_truth(truth, model, 15.0, 200.0, 1e-4, path)
        back, back_model = read_ground_truth(path)
        assert np.allclose(back.beat_times_s, truth.beat_times_s, atol=1e-12)
        assert back.target_antenna == 1 and back.target_range_bin == 7
        assert np.allclose(back.displacement.samples, truth.displacement.samples)
        assert back_model == model


class TestCanonicalJson:
    def test_float_precision(self):
        x = 0.1 + 0.2
        out = canonical_json({"v": x})
        assert json.loads(out)["v"] == x

    def test_fixed_key_order(self):
        doc = {"b": 1, "a": [1.5, {"z": True, "y": None}]}
        assert canonical_json(doc) == canonical_json(doc)
        assert canonical_json(doc) == '{"b":1,"a":[1.5,{"z":true,"y":null}]}'

    def test_rejects_non_finite(self):
        for value in (float("nan"), np.float32("nan"), np.float64("inf")):
            with pytest.raises(ValueError, match="^non-finite value in output$"):
                canonical_json({"v": [value]})

    def test_rejects_other_objects(self):
        with pytest.raises(TypeError, match="cannot serialize object"):
            canonical_json({"v": object()})

    def test_numpy_scalars(self):
        out = canonical_json(
            {"b": np.bool_(True), "i": np.int64(3), "f": np.float64(0.5)}
        )
        assert out == '{"b":true,"i":3,"f":0.5}'

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_floats_round_trip(self, x):
        # the shortest round-trip digits, the rule write_table uses
        out = canonical_json({"v": x})
        assert out == '{"v":' + repr(x) + "}"
        assert json.loads(out)["v"] == x


class TestConfig:
    def test_parse_text(self):
        cfg = parse_config_text(
            """
            # comment
            filter.order = 6
            filter.low_hz = 0.4   # trailing comment
            beats.norm_len = 150
            synth.seed = 9
            ppg.channel = green_1
            """
        )
        assert cfg.filter_order == 6
        assert cfg.filter_low_hz == 0.4
        assert cfg.beats_norm_len == 150
        assert cfg.synth_seed == 9
        assert cfg.ppg_channel == "green_1"

    def test_unknown_key(self):
        # near misses of real keys too: the field name itself, the wrong
        # underscore turned into a dot, and a trailing extra section
        for key in ("nope.key", "filter_order", "synth_ppg.tau_s", "filter.order.x"):
            with pytest.raises(ValueError, match=f"^line 1: unknown config key '{key}'$"):
                parse_config_text(f"{key} = 1")

    def test_unparsable_value_names_its_key(self):
        message = "^line 1: config key 'beats.norm_len' needs an integer, got '2OO'$"
        with pytest.raises(ValueError, match=message):
            parse_config_text("beats.norm_len = 2OO\n")
        message = "^line 1: config key 'filter.low_hz' needs a number, got 'abc'$"
        with pytest.raises(ValueError, match=message):
            parse_config_text("filter.low_hz = abc")

    def test_bad_line(self):
        with pytest.raises(ValueError, match="expected"):
            parse_config_text("just some words")

    def test_env_var(self, tmp_path, monkeypatch):
        path = tmp_path / "cfg.txt"
        path.write_text("filter.high_hz = 6.5\n")
        monkeypatch.setenv(ENV_CONFIG, str(path))
        assert load_config().filter_high_hz == 6.5
        monkeypatch.delenv(ENV_CONFIG)
        assert load_config().filter_high_hz == 8.0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_constructor_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="^config key 'synth.snr_db' must be finite"):
            PipelineConfig(synth_snr_db=value)
        with pytest.raises(ValueError, match="^config key 'filter.order' must be finite"):
            PipelineConfig(filter_order=value)

    def test_flat_dict_round_trip(self):
        cfg = PipelineConfig()
        flat = cfg.to_flat_dict()
        assert flat["filter.order"] == 4
        assert flat["synth.displacement_m"] == 100e-6
        rebuilt = PipelineConfig()
        for key, value in flat.items():
            rebuilt.set_key(key, str(value))
        assert rebuilt == cfg
