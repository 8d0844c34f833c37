"""File formats: radar cube binary, time-series CSV, truth sidecar JSON.

Radar cube container (all fields little-endian):

    magic            4 bytes, b"RADC"
    version          u32 (currently 1)
    frames           u32
    antennas         u32
    chirps           u32
    samples          u32
    frame_rate_hz    f64
    fast_time_rate   f64
    carrier_hz       f64
    metadata_len     u32
    metadata         UTF-8 JSON object of string pairs
    payload          f32 array, C order [frame][antenna][chirp][sample]

Payload values are stored as 32-bit floats. The writer writes the
payload one frame block at a time, so a synthetic cube streamed to it
is never held whole. The reader maps the payload read-only as a float32
array instead of copying it, and the radar chain reduces it block by
block over frames, so its memory is one float64 phase per (antenna,
bin, frame) plus one frame block, not the cube.

Every CSV is written by ``write_table`` (header row of column names,
values in their shortest round-trip digits, so ``0.005`` and not
``0.0050000000000000001``) and read by ``_parse_time_table``, which
skips blank and whitespace-only lines and rejects bad headers (a
repeated column name included) and rows, fewer than two rows and
non-finite samples with a ``FormatError``. Values read back bit for
bit. Time-series CSVs start with a ``time_s`` column; sampling must be
uniform to within 1 % jitter of the median step, and what
``write_series_csv`` wrote reads back at the rate it was written.

Every JSON file (``report.json``, ``meta.json``, ``truth.json``) is
written by ``canonical_json``, whose floats follow the same rule.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import struct
import tempfile
import warnings
from dataclasses import asdict

import numpy as np

from pulsecmp.ppg import PpgRecording
from pulsecmp.radar import RadarCube, frame_blocks
from pulsecmp.signal_core import TimeSeries, median
from pulsecmp.synth import PulseModel, RadarStream, SynthGroundTruth

MAGIC = b"RADC"
VERSION = 1
_HEADER = struct.Struct("<4sIIIIIdddI")
MAX_CUBE_ELEMENTS = 2**34  # 16 Gi float32 values (64 GiB); beyond is corrupt

REFERENCE_COLUMN = "pressure_mmHg"

# Rows formatted per chunk by write_table: formatting a whole table at
# once holds its text in memory, which grows with the recording.
TABLE_BLOCK_ROWS = 4096


class FormatError(ValueError):
    """File-format violation with a short machine-readable code."""

    def __init__(self, code: str, detail: str = ""):
        self.code = code
        super().__init__(f"{code}: {detail}" if detail else code)


def write_bytes_atomic(path: str, chunks) -> None:
    """Write an iterable of bytes-like chunks via a temp file and
    rename, so readers never see partial files. Each chunk is dropped
    once written, before the next is drawn."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
                del chunk
        os.chmod(tmp, 0o644)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text_atomic(path: str, text: str) -> None:
    write_bytes_atomic(path, [text.encode("utf-8")])


def write_radar_cube(cube: RadarCube | RadarStream, path: str) -> None:
    """Write a cube's header, then its payload one frame block at a time.

    An in-memory ``RadarCube`` is written as ``cube.data`` sliced by
    ``frame_blocks``; a ``RadarStream``'s blocks are written as they are
    drawn, so the cube is never held whole. Blocks that do not fill the
    header's shape raise ``ValueError`` (``RadarStream.checked_blocks``),
    and a failed write leaves any file already at ``path`` as it was.
    """
    if isinstance(cube, RadarStream):
        shape, blocks = cube.shape, cube.checked_blocks()
    else:
        shape = cube.data.shape
        blocks = (cube.data[start:stop] for start, stop in frame_blocks(shape))
    metadata = json.dumps(cube.metadata, sort_keys=True).encode("utf-8")
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        *shape,
        cube.frame_rate_hz,
        cube.fast_time_rate_hz,
        cube.carrier_hz,
        len(metadata),
    )

    def chunks():
        yield header
        yield metadata
        for block in blocks:
            yield memoryview(np.ascontiguousarray(block, dtype="<f4")).cast("B")
            del block  # written: let it go before the next is drawn

    write_bytes_atomic(path, chunks())


def _page_release(mapping: mmap.mmap, offset: int, frame_bytes: int):
    """Callback dropping the mapped pages of consumed frames from RSS.

    The mapping is read-only and file-backed, so a dropped page that is
    touched again is read back from the file unchanged.
    """
    if not hasattr(mmap, "MADV_DONTNEED"):
        return None

    def release(start: int, stop: int) -> None:
        lo = (offset + start * frame_bytes) // mmap.PAGESIZE * mmap.PAGESIZE
        hi = (offset + stop * frame_bytes) // mmap.PAGESIZE * mmap.PAGESIZE
        if hi > lo:
            mapping.madvise(mmap.MADV_DONTNEED, lo, hi - lo)

    return release


def read_radar_cube(path: str) -> RadarCube:
    """Map a ``.radc`` file read-only as a float32 cube without copying.

    The mapping lives as long as the returned cube's ``data``. Writers
    replace files by atomic rename, so a mapped file never changes under
    the reader.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _HEADER.size:
            raise FormatError("truncated payload", "file shorter than header")
        magic, version, frames, antennas, chirps, samples, frame_rate, fast_rate, carrier, meta_len = (
            _HEADER.unpack(fh.read(_HEADER.size))
        )
        if magic != MAGIC:
            raise FormatError("bad magic", f"got {magic!r}")
        if version != VERSION:
            raise FormatError("unsupported version", str(version))
        dims = (frames, antennas, chirps, samples)
        if min(dims) < 1 or math.prod(dims) > MAX_CUBE_ELEMENTS:
            raise FormatError("dimension overflow", f"dims {dims}")
        offset = _HEADER.size + meta_len
        if size < offset:
            raise FormatError("truncated payload", "metadata cut short")
        try:
            metadata = json.loads(fh.read(meta_len).decode("utf-8")) if meta_len else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError("bad metadata", str(exc)) from exc
        if not isinstance(metadata, dict):
            raise FormatError("bad metadata", f"not a JSON object: {type(metadata).__name__}")
        expected = math.prod(dims) * 4
        if size - offset != expected:
            raise FormatError(
                "truncated payload",
                f"expected {expected} payload bytes, found {size - offset}",
            )
        mapping = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    data = np.frombuffer(mapping, dtype="<f4", count=math.prod(dims), offset=offset)
    try:
        return RadarCube(
            data=data.reshape(dims),
            frame_rate_hz=frame_rate,
            fast_time_rate_hz=fast_rate,
            carrier_hz=carrier,
            metadata=metadata,
            release_frames=_page_release(mapping, offset, expected // frames),
        )
    except ValueError as exc:
        # the dimensions are checked above, so the cube rejected a header value
        raise FormatError("bad header", str(exc)) from exc


def canonical_json(obj) -> str:
    """Deterministic JSON: keys in insertion order, no spaces, UTF-8
    text, and floats in their shortest round-trip digits (Python
    ``repr``, the rule ``write_table`` uses). Numpy scalars and arrays
    are written as the Python values they hold; any other type raises
    ``TypeError`` and a non-finite float ``ValueError``."""
    try:
        return json.dumps(obj, ensure_ascii=False, separators=(",", ":"), allow_nan=False,
                          default=_numpy_value)
    except ValueError as exc:
        raise ValueError("non-finite value in output") from exc


def _numpy_value(obj):
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _parse_time_table(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header:
            raise FormatError("bad header", "empty file")
        names = [c.strip() for c in header.split(",")]
        if names[0] != "time_s":
            raise FormatError("bad header", "first column must be time_s")
        duplicate = next((n for i, n in enumerate(names) if n in names[:i]), None)
        if duplicate is not None:
            raise FormatError("bad header", f"duplicate column {duplicate}")
        body = fh.tell()
        with warnings.catch_warnings():
            # an empty body is reported below as "too short"
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            try:
                # loadtxt skips empty lines itself
                table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            except ValueError:
                # a whitespace-only line is a bad row to loadtxt: parse
                # again without them, so only a real bad row raises
                fh.seek(body)
                lines = (line for line in fh if line.strip())
                try:
                    table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
                except ValueError as exc:
                    raise FormatError("bad row", str(exc)) from exc
    if table.size and table.shape[1] != len(names):
        raise FormatError("bad row", f"{table.shape[1]} columns under {len(names)} names")
    if table.shape[0] < 2:
        raise FormatError("too short", "need at least two rows")
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        row, col = bad[0]
        raise FormatError(
            "non-finite", f"data row {row + 1}, column {names[col]}: {table[row, col]}"
        )
    return names, table


def _uniform_rate(times: np.ndarray) -> float:
    """``rate`` for a column that is exactly ``t0 + np.arange(n) / rate``
    (what ``write_series_csv`` writes), the shortest decimal rounding of
    the span estimate that regenerates it; else ``1 / median(dt)``."""
    # the checks run in place on the one buffer of steps
    dt = np.diff(times)
    if np.any(dt <= 0):
        raise FormatError("non-monotonic", "time column must strictly increase")
    step = median(dt)
    dt -= step
    if np.abs(dt, out=dt).max() > 0.01 * step:
        raise FormatError("non-uniform sampling", "time step jitter exceeds 1%")
    n, t0 = times.size, times[0]
    estimate = (n - 1) / (times[-1] - t0)
    for digits in range(1, 18):
        rate = float(f"{estimate:.{digits}g}")
        # the last sample first: it rules out almost every wrong candidate
        if t0 + (n - 1) / rate == times[-1]:
            # the writer's column, built in one array: fresh ones fault in pages
            column = np.arange(n, dtype=np.float64)
            column /= rate
            column += t0
            if np.array_equal(column, times):
                return rate
    return 1.0 / step


def _read_channels(path: str) -> dict[str, TimeSeries]:
    """Every non-time column of a time-series CSV, by column name, each
    copied out as its own array, so the table and its time column are
    freed once the rate is known."""
    names, table = _parse_time_table(path)
    rate = _uniform_rate(table[:, 0])
    start = float(table[0, 0])
    return {name: TimeSeries(table[:, i].copy(), rate, start) for i, name in enumerate(names) if i}


def read_series_csv(path: str, column: str) -> TimeSeries:
    """Read one named column of a time-series CSV as a TimeSeries."""
    channels = _read_channels(path)
    if column not in channels:
        raise FormatError("missing column", f"{column!r} not in columns: {', '.join(channels)}")
    return channels[column]


def write_table(path: str, columns: dict[str, np.ndarray]) -> None:
    """Write equal-length columns as a CSV: a header row, then values
    in their shortest round-trip digits (Python ``repr``), streamed
    ``TABLE_BLOCK_ROWS`` rows at a time. Unequal lengths or a non-finite
    value raise ``ValueError`` before any file is created."""
    arrays = [np.asarray(values, dtype=np.float64) for values in columns.values()]
    if len({arr.shape for arr in arrays}) != 1:
        raise ValueError("all columns must have equal length")
    if not all(np.isfinite(arr).all() for arr in arrays):
        raise ValueError("non-finite value in output")
    row = ",".join(["%r"] * len(arrays)) + "\n"

    def chunks():
        yield (",".join(columns) + "\n").encode("utf-8")
        for start in range(0, arrays[0].size, TABLE_BLOCK_ROWS):
            block = np.column_stack([arr[start:start + TABLE_BLOCK_ROWS] for arr in arrays])
            yield ((row * len(block)) % tuple(block.ravel().tolist())).encode("ascii")

    write_bytes_atomic(path, chunks())


def write_series_csv(path: str, columns: dict[str, np.ndarray], sample_rate_hz: float,
                     start_time_s: float = 0.0) -> None:
    """Write named channels sharing one uniform time base."""
    n = max((np.size(values) for values in columns.values()), default=0)
    times = start_time_s + np.arange(n) / sample_rate_hz
    write_table(path, {"time_s": times, **columns})


def read_ppg_csv(path: str) -> PpgRecording:
    """Read every non-time column of a CSV as one PPG channel."""
    return PpgRecording(channels=_read_channels(path))


def write_ppg_csv(rec: PpgRecording, path: str) -> None:
    first = next(iter(rec.channels.values()))
    write_series_csv(
        path,
        {name: ts.samples for name, ts in sorted(rec.channels.items())},
        first.sample_rate_hz,
        first.start_time_s,
    )


def write_ground_truth(
    truth: SynthGroundTruth,
    model: PulseModel,
    duration_s: float,
    fs_hz: float,
    displacement_amp_m: float,
    path: str,
) -> None:
    """JSON sidecar carrying everything needed to reconstruct the truth."""
    doc = {
        "seed": int(truth.seed),
        "duration_s": duration_s,
        "fs_hz": fs_hz,
        "displacement_amp_m": displacement_amp_m,
        "target_antenna": int(truth.target_antenna),
        "target_range_bin": int(truth.target_range_bin),
        "model": asdict(model),
        "beat_times_s": truth.beat_times_s,
        "systolic_times_s": truth.systolic_times_s,
        "displacement_peak_m": truth.displacement_peak_m,
    }
    write_text_atomic(path, canonical_json(doc) + "\n")
