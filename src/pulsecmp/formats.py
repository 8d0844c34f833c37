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
array instead of copying it. The radar chain reduces it one antenna at
a time, block by block over frames, and holds one antenna's float64
phase rows, the best row kept so far and one frame block, not the cube.

Every CSV is written by ``write_table`` (header row of column names,
values in their shortest round-trip digits, so ``0.005`` and not
``0.0050000000000000001``) and read by ``_parse_time_table``, which
skips blank and whitespace-only lines, reads CRLF line ends as LF,
drops a leading UTF-8 byte-order mark, and rejects bytes that are
not UTF-8, bad headers (an empty or repeated column name included) and
rows, fewer than two rows and non-finite samples with a
``FormatError``. Writer and reader share one column-name rule
(``_check_column_names``), so a name the writer accepts reads back as
itself. Values read back bit for bit. The header is read from an open
handle; the body is parsed from the path, which lets numpy's C parser
read the file in chunks rather than one Python string per line. The
two opens are checked to be the same file, and the read starts again
if a writer renamed another file into place between them. Time-series
CSVs start with a ``time_s`` column; sampling must be uniform to within
1 % jitter of the median step, and what ``write_series_csv`` wrote
reads back at the rate it was written. That last check compares the
time column with the writer's ``t0 + k / rate`` in blocks of
``RATE_CHECK_ROWS``, so it holds no second full-length column.
``read_series_csv`` is the reader of the PPG and the reference alike:
each is the one column of its file that the load picks.

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
from typing import TYPE_CHECKING

import numpy as np

from pulsecmp.radar import RadarCube, frame_blocks
from pulsecmp.signal_core import TimeSeries, median

if TYPE_CHECKING:
    from pulsecmp.synth import PulseModel, RadarStream, SynthGroundTruth

MAGIC = b"RADC"
VERSION = 1
_HEADER = struct.Struct("<4sIIIIIdddI")
MAX_CUBE_ELEMENTS = 2**34  # 16 Gi float32 values (64 GiB); beyond is corrupt

# The column a bundle's reference.csv and ppg.csv are written as, and
# the one each read picks when none is named and the file has it
REFERENCE_COLUMN = "pressure_mmHg"
DEFAULT_CHANNEL = "green_0"

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
    from pulsecmp.synth import RadarStream  # only simulate writes a cube

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
    while True:
        # utf-8-sig drops the byte-order mark a spreadsheet export may
        # start with; the body parse skips the header line it sits on
        with open(path, "r", encoding="utf-8-sig") as fh:
            try:
                names = _read_header(fh)
                table = _parse_body(path, fh)
            except UnicodeDecodeError as exc:
                # wherever the byte sits: in the header's first chunk
                # or in a body line either parser decodes
                raise FormatError("bad encoding", str(exc)) from exc
            opened = os.fstat(fh.fileno())
        # the body was parsed from a second open of ``path``: a writer's
        # rename in between pairs this header with another file's rows
        if os.path.samestat(opened, os.stat(path)):
            break
    if table.size and table.shape[1] != len(names):
        raise FormatError("bad row", f"{table.shape[1]} columns under {len(names)} names")
    if table.shape[0] < 2:
        raise FormatError("too short", "need at least two rows")
    if not np.isfinite(table).all():
        row, col = np.argwhere(~np.isfinite(table))[0]
        raise FormatError(
            "non-finite", f"data row {row + 1}, column {names[col]}: {table[row, col]}"
        )
    return names, table


def _read_header(fh) -> list[str]:
    header = fh.readline().strip()
    if not header:
        raise FormatError("bad header", "empty file")
    names = [c.strip() for c in header.split(",")]
    if names[0] != "time_s":
        raise FormatError("bad header", "first column must be time_s")
    if len(names) < 2:
        raise FormatError("bad header", "no data column after time_s")
    _check_column_names(names)
    return names


def _check_column_names(names: list[str]) -> None:
    """The one rule for CSV column names, which the reader enforces and
    ``write_table`` checks before it writes: each name is non-empty,
    holds no comma, CR or LF, has no whitespace at either end (the
    reader strips it), and is not repeated. Else ``FormatError``
    "bad header"."""
    for i, name in enumerate(names):
        if not name:
            raise FormatError("bad header", f"column {i + 1} has no name")
        if name != name.strip() or any(c in name for c in ",\r\n"):
            raise FormatError("bad header", f"column {i + 1} name {name!r} does not read back")
        if name in names[:i]:
            raise FormatError("bad header", f"duplicate column {name}")


# Suffixes that numpy's DataSource, which opens a path for np.loadtxt,
# reads through a decompressor
COMPRESSION_SUFFIXES = (".bz2", ".gz", ".lzma", ".xz")


def _parse_body(path: str, fh) -> np.ndarray:
    """The rows after the header, at which ``fh`` stands. Given a path,
    numpy's C parser reads the file in chunks; given the handle, it
    makes one ``str`` per line. The path is made absolute, so that no
    name is taken for a URL, and a name with a compression suffix is
    parsed from the handle, as plain text."""
    body = fh.tell()
    if os.path.splitext(path)[1] in COMPRESSION_SUFFIXES:
        source, skip = fh, 0
    else:
        source, skip = os.path.abspath(path), 1
    with warnings.catch_warnings():
        # an empty body is reported by the caller as "too short"
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            # loadtxt skips empty lines itself
            return np.loadtxt(source, delimiter=",", comments=None, ndmin=2, skiprows=skip,
                              encoding="utf-8")
        except ValueError:
            # a whitespace-only line is a bad row to loadtxt: parse
            # again without them, so only a real bad row raises. The seek
            # starts the decoder's chunks at the body, which sets the
            # position a decode error names
            fh.seek(body)
            lines = (line for line in fh if line.strip())
            try:
                return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
            except UnicodeDecodeError:
                raise  # a ValueError too, but the caller's "bad encoding"
            except ValueError as exc:
                raise FormatError("bad row", str(exc)) from exc


# Rows of the time column compared per block with the writer's
# ``t0 + k / rate``, so the check holds no full-length column
RATE_CHECK_ROWS = 16384


def _uniform_rate(times: np.ndarray) -> float:
    """``rate`` for a column that is exactly ``t0 + np.arange(n) / rate``
    (what ``write_series_csv`` writes), the shortest decimal rounding of
    the span estimate that regenerates it; else ``1 / median(dt)``."""
    # comparisons and Python floats, which cannot overflow into a
    # warning, until the span is known to give a finite rate: then no
    # step overflows either
    if np.any(times[1:] <= times[:-1]):
        raise FormatError("non-monotonic", "time column must strictly increase")
    n, t0 = times.size, float(times[0])
    span = float(times[-1]) - t0
    estimate = (n - 1) / span
    if not 0.0 < estimate < math.inf:
        raise FormatError("non-uniform sampling", f"time span {span!r} s gives rate {estimate!r} Hz")
    # the checks run in place on the one buffer of steps
    dt = np.diff(times)
    step = median(dt)
    dt -= step
    if np.abs(dt, out=dt).max() > 0.01 * step:
        raise FormatError("non-uniform sampling", "time step jitter exceeds 1%")
    for digits in range(1, 18):
        rate = float(f"{estimate:.{digits}g}")
        # the last sample first: it rules out almost every wrong candidate
        if t0 + (n - 1) / rate == times[-1] and _is_written_column(times, t0, rate):
            return rate
    return 1.0 / step


def _is_written_column(times: np.ndarray, t0: float, rate: float) -> bool:
    """Whether ``times`` equals ``t0 + np.arange(n) / rate`` bit for bit."""
    for start in range(0, times.size, RATE_CHECK_ROWS):
        stop = min(start + RATE_CHECK_ROWS, times.size)
        column = np.arange(start, stop, dtype=np.float64)
        column /= rate
        column += t0
        if not np.array_equal(column, times[start:stop]):
            return False
    return True


def read_series_csv(path: str, column: str = "", prefer: str = DEFAULT_CHANNEL) -> TimeSeries:
    """Read one column of a time-series CSV as a TimeSeries, copied out
    of the parsed table, so the table and its time column are freed on
    return. An empty ``column`` picks ``prefer`` when the file has it,
    else the first column by name; a name the file lacks is
    ``FormatError`` "missing column", listing the file's columns."""
    names, table = _parse_time_table(path)
    rate = _uniform_rate(table[:, 0])
    columns = names[1:]
    column = column or (prefer if prefer in columns else min(columns))
    if column not in columns:
        raise FormatError("missing column", f"{column!r} not in columns: {', '.join(columns)}")
    return TimeSeries(table[:, names.index(column)].copy(), rate, float(table[0, 0]))


def write_table(path: str, columns: dict[str, np.ndarray]) -> None:
    """Write equal-length columns as a CSV: a header row, then values
    in their shortest round-trip digits (Python ``repr``), streamed
    ``TABLE_BLOCK_ROWS`` rows at a time. A column name outside
    the rule of ``_check_column_names``, unequal lengths or a non-finite
    value raise ``ValueError`` before any file is created."""
    _check_column_names(list(columns))
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
    """Write named channels sharing one uniform time base; a channel
    named ``time_s`` is a repeated column."""
    _check_column_names(["time_s", *columns])
    n = max((np.size(values) for values in columns.values()), default=0)
    times = start_time_s + np.arange(n) / sample_rate_hz
    write_table(path, {"time_s": times, **columns})


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
