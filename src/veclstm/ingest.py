"""GeoLife-format ingestion: PLT parsing, label joining, dataset assembly.

Directory layout expected under a GeoLife root:

    Data/<user>/Trajectory/*.plt   -- 6 header lines, then CSV rows
                                      lat,lon,0,alt_feet,days_float,yyyy-MM-dd,HH:mm:ss
    Data/<user>/labels.txt         -- tab-separated header row, then
                                      start<TAB>end<TAB>mode with
                                      yyyy/MM/dd HH:mm:ss timestamps

The assembled dataset has the seven columns time, lat, lon, alt, label,
user, metadata, ordered by (user, timestamp).
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import islice
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (ConfigError, EmptyDataset, InvertedSpan, MalformedLine, TruncatedHeader,
                     UndecodableName, VecLstmError)
from .vectorizer import (
    MISSING,
    NormalizationStats,
    VectorizationConfig,
    fit_stats,
    is_missing,
    normalize_column,
    sample_cell_grids,
    vectorize_metadata,
)

FEET_TO_METERS = 0.3048
ALT_INVALID_SENTINEL = -777.0
PLT_HEADER_LINES = 6

# The seven transportation modes kept for classification, in code order.
# GeoLife contains more (boat, run, airplane, motorcycle, composites);
# anything not listed here is rejected at mapping time.
DEFAULT_MODES = ("walk", "bike", "bus", "car", "taxi", "subway", "train")

DATASET_COLUMNS = ("time", "lat", "lon", "alt", "label", "user", "metadata")
METADATA_FEATURES = ("cell_density", "normalized_alt", "normalized_speed")

@dataclass(frozen=True)
class LabelSpan:
    start: int  # UTC seconds, inclusive
    end: int    # UTC seconds, inclusive
    mode: str


@dataclass
class Dataset:
    """The seven dataset columns: equal-length arrays, row i at index i."""

    time: np.ndarray      # int64 UTC seconds
    lat: np.ndarray       # float64
    lon: np.ndarray       # float64
    alt: np.ndarray       # float64 meters, MISSING (nan) when absent
    label: np.ndarray     # int64 mode code
    user: np.ndarray      # object array of str
    metadata: np.ndarray  # float64 scalar feature in [0, 1]
    stats: NormalizationStats

    def __len__(self) -> int:
        return self.time.size

    def to_arrays(self) -> dict[str, np.ndarray]:
        """The columns by name; alt keeps nan for missing values."""
        return {name: getattr(self, name) for name in DATASET_COLUMNS}


def _as_text(data: bytes | str) -> str:
    if isinstance(data, bytes):
        return data.decode("utf-8", errors="replace")
    return data


def _parse_utc(text: str, fmt: str) -> int:
    dt = datetime.strptime(text, fmt).replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


# Character positions of the digits in a canonical yyyy?MM?dd date and
# HH:mm:ss clock.
_DATE_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9]
_CLOCK_DIGITS = [0, 1, 3, 4, 6, 7]


def _utc_seconds(dates: Sequence[str], clocks: Sequence[str], sep: str) -> np.ndarray:
    """UTC seconds of each row's date and clock, up to the first row strptime rejects.

    Row i's timestamp is f"{dates[i]} {clocks[i]}", read as
    f"%Y{sep}%m{sep}%d %H:%M:%S". A canonical row (a 10-character date
    of ASCII digits and sep, and an 8-character HH:MM:SS clock of ASCII
    digits with hours below 24 and minutes and seconds below 60) gets its
    seconds from one strptime per distinct date plus its clock digits.
    Every other row, and each row whose date strptime rejects,
    goes through strptime on its timestamp, in row order; the values stop
    before the first row that fails there.
    """
    n = len(dates)
    date_fmt = f"%Y{sep}%m{sep}%d"
    # Lengths come from the str objects: a numpy str array drops trailing NULs.
    fast = ((np.fromiter(map(len, dates), np.intp, n) == 10)
            & (np.fromiter(map(len, clocks), np.intp, n) == 8))
    date = np.array(dates, dtype="U10").view(np.uint32).reshape(n, 10)
    clock = np.array(clocks, dtype="U8").view(np.uint32).reshape(n, 8)
    date_digit = date[:, _DATE_DIGITS].astype(np.int64) - ord("0")
    clock_digit = clock[:, _CLOCK_DIGITS].astype(np.int64) - ord("0")
    fast &= (((date_digit >= 0) & (date_digit <= 9)).all(axis=1)
             & ((clock_digit >= 0) & (clock_digit <= 9)).all(axis=1)
             & (date[:, 4] == ord(sep)) & (date[:, 7] == ord(sep))
             & (clock[:, 2] == ord(":")) & (clock[:, 5] == ord(":")))
    hms = clock_digit[:, 0::2] * 10 + clock_digit[:, 1::2]
    fast &= (hms[:, 0] < 24) & (hms[:, 1] < 60) & (hms[:, 2] < 60)

    seconds = hms @ np.array([3600, 60, 1], dtype=np.int64)
    rows = np.flatnonzero(fast)
    day_key = date_digit[rows] @ 10 ** np.arange(7, -1, -1, dtype=np.int64)
    _, first, inverse = np.unique(day_key, return_index=True, return_inverse=True)
    inverse = inverse.reshape(-1)
    day_seconds = np.zeros(first.size, dtype=np.int64)
    date_ok = np.ones(first.size, dtype=bool)
    for k, row in enumerate(rows[first].tolist()):
        try:
            day_seconds[k] = _parse_utc(dates[row], date_fmt)
        except ValueError:  # e.g. 2009-02-30: its rows go through strptime
            date_ok[k] = False
    seconds[rows] += day_seconds[inverse]
    fast[rows] = date_ok[inverse]

    fmt = f"{date_fmt} %H:%M:%S"
    for row in np.flatnonzero(~fast).tolist():
        try:
            seconds[row] = _parse_utc(f"{dates[row]} {clocks[row]}", fmt)
        except ValueError:
            return seconds[:row]
    return seconds


class _FirstFailure:
    """The first failing row of a table of text cells, checked by column.

    Checks run in the order a row-by-row reader applies them within a
    row, and each scans only the rows before the first failure found so
    far. So the failure kept is the one a row-by-row reader meets first:
    the earliest row, and within it the earliest check.
    """

    def __init__(self, line_nos: Sequence[int], error: MalformedLine | None = None):
        self.line_nos = line_nos
        self.end = len(line_nos)  # rows [0, end) have passed every check so far
        self.error = error

    def fail(self, row: int, reason: str) -> None:
        self.end = row
        self.error = MalformedLine(self.line_nos[row], reason)

    def convert(self, cells, convert, dtype, reason) -> np.ndarray:
        """convert() applied to cells[:end], as a dtype array.

        On the first cell that convert rejects (ValueError, or a value
        outside dtype), record reason(row, exc) and return the values
        before it.
        """
        cells = cells[:self.end]
        try:
            return np.fromiter(map(convert, cells), dtype, len(cells))
        except (ValueError, OverflowError):
            for row, cell in enumerate(cells):
                try:
                    np.fromiter(map(convert, (cell,)), dtype, 1)
                except (ValueError, OverflowError) as exc:
                    self.fail(row, reason(row, exc))
                    return np.fromiter(map(convert, cells[:row]), dtype, row)
            raise

    def check(self, bad: np.ndarray, reason) -> None:
        """Fail at the first True of bad[:end] (bad may run on), with reason(row)."""
        hits = np.flatnonzero(bad[:self.end])
        if hits.size:
            self.fail(int(hits[0]), reason(int(hits[0])))

    def check_coordinates(self, lat: np.ndarray, lon: np.ndarray) -> None:
        """A latitude outside [-90, 90], then a longitude outside [-180, 180]."""
        self.check(~((lat >= -90.0) & (lat <= 90.0)),
                   lambda row: f"latitude {float(lat[row])} out of range")
        self.check(~((lon >= -180.0) & (lon <= 180.0)),
                   lambda row: f"longitude {float(lon[row])} out of range")


def _cut_lines(lines: list[str], first_no: int, sep: str, n_fields: int,
               kind: str = "") -> tuple[list[list[str]], _FirstFailure]:
    """Each non-blank line's fields, split at sep, and a _FirstFailure over
    their line numbers, counted from first_no. The rows stop before the
    first line without n_fields fields, whose MalformedLine is its error."""
    rows, line_nos = [], []
    for line_no, line in enumerate(lines, first_no):
        if line.strip():
            fields = line.split(sep)
            if len(fields) != n_fields:
                return rows, _FirstFailure(line_nos, MalformedLine(
                    line_no, f"expected {n_fields} {kind}fields, got {len(fields)}"))
            rows.append(fields)
            line_nos.append(line_no)
    return rows, _FirstFailure(line_nos)


def parse_plt(data: bytes | str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Parse one PLT file into (time, lat, lon, alt) columns.

    The first six lines are header and skipped. time is int64 UTC
    seconds. Altitude arrives in feet and is converted to meters; the
    sentinel -777 and nan become MISSING. Raises TruncatedHeader on short
    files and MalformedLine(line_no) on the first bad row (wrong field
    count, non-numeric fields, out-of-range coordinates, an infinite
    altitude, or a timestamp going backwards).
    """
    lines = _as_text(data).splitlines()
    if len(lines) < PLT_HEADER_LINES:
        raise TruncatedHeader(
            f"PLT file has {len(lines)} lines, expected at least {PLT_HEADER_LINES}"
        )
    rows, first = _cut_lines(lines[PLT_HEADER_LINES:], PLT_HEADER_LINES + 1, ",", 7)
    lat_s, lon_s, _, alt_s, days_s, dates, clocks = zip(*rows) if rows else [()] * 7
    # The days serial is unused but must be numeric.
    lat, lon, alt_feet, _ = (
        first.convert(cells, float, np.float64, lambda row, exc: f"non-numeric field: {exc}")
        for cells in (lat_s, lon_s, alt_s, days_s))
    time = _utc_seconds(dates[:first.end], clocks[:first.end], "-")
    if time.size < first.end:
        first.fail(time.size, f"bad date/time {dates[time.size]},{clocks[time.size]}")
    first.check_coordinates(lat, lon)
    first.check(np.isinf(alt_feet), lambda row: f"altitude {float(alt_feet[row])} out of range")
    first.check(np.concatenate(([False], time[1:] < time[:-1])),
                lambda row: "timestamp decreases within file")
    if first.error is not None:
        raise first.error
    alt = np.where(alt_feet == ALT_INVALID_SENTINEL, MISSING, alt_feet * FEET_TO_METERS)
    return time, lat, lon, alt


def parse_labels(data: bytes | str) -> list[LabelSpan]:
    """Parse a labels.txt file: header row, then start/end/mode rows.

    Raises TruncatedHeader on an empty file. The first bad row raises
    MalformedLine (wrong field count or bad timestamp) or InvertedSpan
    (a span that ends before it starts).
    """
    lines = _as_text(data).splitlines()
    if not lines:
        raise TruncatedHeader("labels file is empty")
    rows, first = _cut_lines(lines[1:], 2, "\t", 3, "tab-separated ")
    # Start and end interleaved, so the first bad one is in row order.
    texts = [text.strip() for fields in rows for text in fields[:2]]
    dates, _, clocks = zip(*(text.partition(" ") for text in texts)) if rows else ((), (), ())
    times = _utc_seconds(dates, clocks, "/")
    n_ok = times.size // 2  # rows before the first bad timestamp
    start, end = times[:2 * n_ok:2], times[1:2 * n_ok:2]
    inverted = np.flatnonzero(start > end)
    if inverted.size:
        raise InvertedSpan(f"line {first.line_nos[inverted[0]]}: span ends before it starts")
    if n_ok < len(rows):
        raise MalformedLine(first.line_nos[n_ok], "bad timestamp")
    if first.error is not None:
        raise first.error
    return [LabelSpan(start=s, end=e, mode=fields[2].strip())
            for s, e, fields in zip(start.tolist(), end.tolist(), rows)]


def assign_labels(times: np.ndarray, spans: list[LabelSpan]) -> np.ndarray:
    """Index into spans of the span containing each timestamp, or -1.

    Both span ends are inclusive. When spans overlap, the span with the
    latest start wins; among equal starts the one later in file order
    wins. Spans are written over the sorted timestamps in that order, so
    the last writer is the winner.
    """
    times = np.asarray(times, dtype=np.int64)
    order = np.argsort(times, kind="stable")
    sorted_times = times[order]
    owner = np.full(times.size, -1, dtype=np.int64)
    for idx in sorted(range(len(spans)), key=lambda i: (spans[i].start, i)):
        lo = np.searchsorted(sorted_times, spans[idx].start, side="left")
        hi = np.searchsorted(sorted_times, spans[idx].end, side="right")
        owner[lo:hi] = idx
    out = np.empty_like(owner)
    out[order] = owner
    return out


def map_mode(mode: str, modes: tuple[str, ...] = DEFAULT_MODES) -> int | None:
    """Case-insensitive lookup into the canonical mode set; None = rejected."""
    needle = mode.strip().lower()
    for code, name in enumerate(modes):
        if name == needle:
            return code
    return None


def _haversine_m(lat1, lon1, lat2, lon2):
    r = 6371000.0
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * r * math.asin(math.sqrt(a))


def _metadata_scalars(
    time: np.ndarray, lat: np.ndarray, lon: np.ndarray, alt: np.ndarray,
    user: np.ndarray, stats: NormalizationStats, config: VectorizationConfig,
    feature: str,
) -> np.ndarray:
    if feature == "cell_density":
        return vectorize_metadata(sample_cell_grids(lat, lon, stats, config))
    if feature == "normalized_alt":
        return normalize_column(alt, stats.bounds("alt"), config)
    if feature == "normalized_speed":
        # math-module haversine per consecutive pair: numpy's sin/cos
        # round differently in a few pairs per 10^5, which would change
        # the dataset CSV.
        speeds = np.zeros(time.size)
        moving = (user[1:] == user[:-1]) & (time[1:] > time[:-1])
        t, la, lo = time.tolist(), lat.tolist(), lon.tolist()
        for i in (np.flatnonzero(moving) + 1).tolist():
            dist = _haversine_m(la[i - 1], lo[i - 1], la[i], lo[i])
            speeds[i] = dist / (t[i] - t[i - 1])
        top = speeds.max()
        return speeds / top if top > 0 else speeds
    raise ConfigError(f"unknown metadata feature {feature!r}")


def build_dataset(
    time: np.ndarray,
    lat: np.ndarray,
    lon: np.ndarray,
    alt: np.ndarray,
    label: np.ndarray,
    user: np.ndarray,
    config: VectorizationConfig = VectorizationConfig(),
    metadata_feature: str = "cell_density",
) -> Dataset:
    """Assemble the 7-column dataset from labeled point columns.

    Rows are ordered by (user, timestamp), stably; the metadata scalar
    is derived from the full dataset (cell-density ratio by default).
    """
    if len(time) == 0:
        raise EmptyDataset("no labeled points to assemble")
    order = np.lexsort((time, user))
    time, lat, lon, alt, label, user = (
        np.asarray(col)[order] for col in (time, lat, lon, alt, label, user))
    stats = fit_stats(lat, lon, alt)
    metadata = _metadata_scalars(time, lat, lon, alt, user, stats, config, metadata_feature)
    return Dataset(time=time, lat=lat, lon=lon, alt=alt, label=label, user=user,
                   metadata=metadata, stats=stats)


# --- directory walking -------------------------------------------------

@dataclass
class IngestWarning:
    path: str
    error: Exception


@dataclass
class IngestResult:
    dataset: Dataset | None
    n_points: int
    n_labeled: int
    n_outside_spans: int  # parsed points no label span covers
    n_unmapped: int       # points in a span whose mode map_mode rejects
    warnings: list[IngestWarning] = field(default_factory=list)


def iter_geolife_users(root: Path) -> Iterator[tuple[str, list[Path], Path | None]]:
    """Yield (user_id, plt files, labels path or None) per user directory."""
    data_dir = root / "Data"
    if not data_dir.is_dir():
        raise FileNotFoundError(f"no Data/ directory under {root}")
    for user_dir in sorted(data_dir.iterdir()):
        if not user_dir.is_dir():
            continue
        traj_dir = user_dir / "Trajectory"
        plt_files = sorted(traj_dir.glob("*.plt")) if traj_dir.is_dir() else []
        labels = user_dir / "labels.txt"
        yield user_dir.name, plt_files, labels if labels.is_file() else None


def ingest_geolife(
    root: Path,
    config: VectorizationConfig = VectorizationConfig(),
    strict: bool = False,
    metadata_feature: str = "cell_density",
    mode_names: tuple[str, ...] = DEFAULT_MODES,
) -> IngestResult:
    """Walk a GeoLife tree, join labels, and build the dataset.

    Per-file parse failures, and user directories whose name is not
    UTF-8, are collected as warnings and skipped, unless strict is set,
    in which case the first failure raises. Either way the error names
    the file, as `<path>: <error>`.
    """
    warnings: list[IngestWarning] = []
    labeled: list[tuple[np.ndarray, ...]] = []  # (time, lat, lon, alt, label, user) per user
    n_points = n_outside_spans = n_unmapped = 0

    def skip(path: Path, exc: VecLstmError | OSError) -> None:
        # Bytes of a name that are not UTF-8 show as \xNN escapes.
        shown = os.fsencode(path).decode("utf-8", "backslashreplace")
        if not strict:
            warnings.append(IngestWarning(shown, exc))
            return
        if isinstance(exc, VecLstmError):  # an OSError names its file already
            exc.args = (f"{shown}: {exc}",)
        raise exc

    for user_id, plt_files, labels_path in iter_geolife_users(root):
        if labels_path is None:
            continue
        try:
            # Path.iterdir decodes such a name with surrogate escapes.
            if user_id != os.fsencode(user_id).decode("utf-8", "replace"):
                raise UndecodableName(f"directory name {os.fsencode(user_id)!r} is not UTF-8")
            spans = parse_labels(labels_path.read_bytes())
        except (VecLstmError, OSError) as exc:
            skip(labels_path, exc)
            continue
        files = []
        for plt_path in plt_files:
            try:
                files.append(parse_plt(plt_path.read_bytes()))
            except (VecLstmError, OSError) as exc:
                skip(plt_path, exc)
        if not files:
            continue
        time, lat, lon, alt = (np.concatenate(col) for col in zip(*files))
        n_points += time.size
        # A code per span (-1 if unmapped), then a -1 that assign_labels'
        # "no span" index -1 picks.
        codes = [map_mode(span.mode, mode_names) for span in spans]
        span_codes = np.array([-1 if c is None else c for c in codes] + [-1], dtype=np.int64)
        owner = assign_labels(time, spans)
        label = span_codes[owner]
        keep = label >= 0
        n_outside_spans += int((owner < 0).sum())
        n_unmapped += int(((owner >= 0) & ~keep).sum())
        # One str shared by every row: np.full would store a copy per row.
        users = np.empty(int(keep.sum()), dtype=object)
        users[:] = user_id
        labeled.append((time[keep], lat[keep], lon[keep], alt[keep], label[keep], users))
    n_labeled = sum(part[0].size for part in labeled)
    dataset = None
    if n_labeled:
        columns = (np.concatenate(col) for col in zip(*labeled))
        dataset = build_dataset(*columns, config, metadata_feature)
    return IngestResult(
        dataset=dataset, n_points=n_points, n_labeled=n_labeled,
        n_outside_spans=n_outside_spans, n_unmapped=n_unmapped, warnings=warnings,
    )


# --- CSV round trip ----------------------------------------------------

# Rows per chunk of the dataset CSV writer and of the csv.reader path of
# its reader, and bytes per block its np.loadtxt path reads: 64k rows of
# 64 bytes. A chunk is what either holds at once besides the columns.
_CHUNK_ROWS = 1 << 16
_CHUNK_BYTES = 64 * _CHUNK_ROWS

# Per dataset column: its dtype, the text of a value in a dataset CSV and
# the value of a cell. User cells are quoted by the csv module instead,
# and an empty alt cell reads as "nan", MISSING.
_CSV_FORMATS = (
    (np.int64, str, int), (np.float64, repr, float), (np.float64, repr, float),
    (np.float64, lambda value: "" if is_missing(value) else repr(value),
     lambda cell: float(cell or "nan")),
    (np.int64, str, int), (object, None, None), (np.float64, repr, float))

# The dataset columns as np.loadtxt reads them. A wider user field would
# cost time in every row; a user that fills it is taken from its line.
_USER_WIDTH = 16
_LOADTXT_DTYPE = [(name, f"U{_USER_WIDTH}" if dtype is object else dtype)
                  for name, (dtype, _, _) in zip(DATASET_COLUMNS, _CSV_FORMATS)]


def _distinct_text(values: np.ndarray, fmt: Callable, end: str) -> list[str]:
    """fmt(v) + end for each value, calling fmt once per distinct 64-bit pattern.

    Keying by bits keeps -0.0 apart from 0.0 and each NaN as written.
    """
    keys, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array([fmt(v) + end for v in keys.view(values.dtype).tolist()], dtype=object)
    return text[inverse.reshape(-1)].tolist()


def _csv_fields(values: list, end: str) -> dict:
    """Each distinct value as the csv module writes it inside a row, + end."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    fields = {}
    for value in dict.fromkeys(values):
        buf.seek(0)
        buf.truncate()
        # Not alone in its row, where csv would quote an empty string.
        writer.writerow(("", value, ""))
        fields[value] = buf.getvalue()[1:-3] + end
    return fields


def write_dataset_csv(dataset: Dataset, path: Path) -> None:
    """RFC-4180 CSV with the 7-column header; missing alt is an empty field.

    Lines end in CRLF and only fields that need it are quoted. Floats are
    written as the repr of Python floats, so they read back exactly.
    Each column of a chunk of rows formats each distinct value once.
    """
    n = len(dataset)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(DATASET_COLUMNS) + "\r\n")
        for lo in range(0, n, _CHUNK_ROWS):
            rows = slice(lo, lo + _CHUNK_ROWS)
            cells: list = [None] * (7 * min(_CHUNK_ROWS, n - lo))
            for k, (name, (dtype, fmt, _)) in enumerate(zip(DATASET_COLUMNS, _CSV_FORMATS)):
                end = "\r\n" if k == 6 else ","
                column = getattr(dataset, name)[rows]
                if fmt is None:
                    users = column.tolist()
                    cells[k::7] = map(_csv_fields(users, end).__getitem__, users)
                else:
                    cells[k::7] = _distinct_text(np.asarray(column, dtype), fmt, end)
            fh.write("".join(cells))


def _line_blocks(fh) -> Iterator[bytes]:
    """The rest of binary file fh in blocks of about _CHUNK_BYTES, each
    ending after a LF or at the end of the file, so that no block cuts a
    line, a UTF-8 sequence or a CRLF."""
    while block := fh.read(_CHUNK_BYTES):
        if not block.endswith(b"\n"):
            block += fh.readline()
        yield block


def _scan_dataset_csv(path: Path) -> tuple[int, bool]:
    """(rows after the header at most, whether the file is plain).

    Raises MalformedLine at the first byte that is not UTF-8, by physical
    line and byte offset. A plain file has no '"', no NUL, no CR outside
    CRLF and no line of csv.field_size_limit() bytes or more, so each line
    is one record whose fields are the comma-separated parts of the line,
    none of them over the limit.
    """
    limit = csv.field_size_limit()
    newlines = breaks = offset = 0
    plain, last = True, b"\n"
    with open(path, "rb") as fh:
        for block in _line_blocks(fh):
            try:
                block.decode("utf-8")
            except UnicodeDecodeError as exc:
                line_no = newlines + block.count(b"\n", 0, exc.start) + 1
                raise MalformedLine(line_no, f"invalid UTF-8 at byte {offset + exc.start}") from None
            data = np.frombuffer(block, np.uint8)
            lf = np.flatnonzero(data == ord("\n"))
            # Every CR but those before a LF, a CR ending the file among them.
            lone_cr = (np.count_nonzero(data == ord("\r"))
                       - np.count_nonzero(data[lf[lf > 0] - 1] == ord("\r")))
            newlines += lf.size
            breaks += lf.size + lone_cr
            plain = (plain and not lone_cr and b'"' not in block and b"\0" not in block
                     and np.diff(lf, prepend=-1, append=data.size).max() <= limit)
            offset += len(block)
            last = block[-1:]
    records = breaks + (last not in (b"\n", b"\r"))
    return max(records - 1, 0), plain


def _check_header(reader):
    """reader after its header record; MalformedLine at line 1 if that is wrong."""
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise MalformedLine(1, str(exc)) from None
    if header is None or tuple(header) != DATASET_COLUMNS:
        raise MalformedLine(1, f"expected header {','.join(DATASET_COLUMNS)}")
    return reader


def _csv_values(reader, line_no: int) -> Iterator[tuple[list, _FirstFailure]]:
    """(values by column, first) per chunk of the records of csv.reader
    reader from line line_no on: the values before the first cell that
    does not convert, users as an object array of text, and the chunk's
    first bad record, by its cells, its field count or csv.reader.
    Returns the next line number."""
    while True:
        rows, stop = [], None
        try:
            for row in islice(reader, _CHUNK_ROWS):
                if len(row) != 7:
                    stop = f"expected 7 columns, got {len(row)}"
                    break
                rows.append(row)
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            stop = str(exc)
        cells, end = list(zip(*rows)) or [()] * 7, line_no + len(rows)
        first = _FirstFailure(range(line_no, end),
                              None if stop is None else MalformedLine(end, stop))
        yield [np.array(cells[k], dtype=object) if parse is None
               else first.convert(cells[k], parse, dtype, lambda row, exc: str(exc))
               for k, (dtype, _, parse) in enumerate(_CSV_FORMATS)], first
        if stop is not None or len(rows) < _CHUNK_ROWS:
            return end
        line_no = end


def _loadtxt_values(block: bytes) -> list | None:
    """The values of block, whole lines of a plain file, by column as
    np.loadtxt reads them, users as a str array (an object array where
    one may have been cut); or None, for csv.reader, where
    loadtxt rejects a field (that float() or int() may take, as 1_0 or
    full-width digits) or skips a line (a blank one, a record of no fields)."""
    lines = np.count_nonzero(np.frombuffer(block, np.uint8) == ord("\n")) + (block[-1] != ord("\n"))
    if len(block) <= 2 * lines:  # maybe blank lines only, which loadtxt would warn of
        return None
    try:
        table = np.loadtxt(io.BytesIO(block), dtype=_LOADTXT_DTYPE, delimiter=",", quotechar=None,
                           comments=None, converters={3: _CSV_FORMATS[3][2]}, encoding="utf-8",
                           ndmin=1)
    except ValueError:
        return None
    if table.size != lines:
        return None
    users = table["user"]
    if np.char.str_len(users).max() == _USER_WIDTH:  # a user may have been cut
        users = np.array([line.split(",")[5] for line in block.decode("utf-8").split("\n")[:lines]],
                         dtype=object)
    return [users if name == "user" else table[name] for name in DATASET_COLUMNS]


def _plain_values(fh) -> Iterator[tuple[list, _FirstFailure]]:
    """_csv_values for binary file fh, plain: np.loadtxt reads it by block,
    and csv.reader each block that loadtxt cannot vouch for."""
    _check_header(csv.reader([fh.readline().decode("utf-8")]))
    line_no = 2
    for block in _line_blocks(fh):
        if (values := _loadtxt_values(block)) is None:
            text = io.StringIO(block.decode("utf-8"), newline="")
            line_no = yield from _csv_values(csv.reader(text), line_no)
        else:
            yield values, _FirstFailure(range(line_no, line_no + len(values[0])))
            line_no += len(values[0])


def _shared_users(values: np.ndarray, users: dict[str, str]) -> np.ndarray:
    """values, a chunk's users as a str or object array, as an object
    array of the one str that users keeps per distinct user. Each run of
    equal values is looked up once: a dataset CSV is sorted by user."""
    if not len(values):
        return np.empty(0, dtype=object)
    starts = np.flatnonzero(values[1:] != values[:-1]) + 1
    firsts = values[np.concatenate(([0], starts))].tolist()
    shared = np.empty(len(firsts), dtype=object)
    shared[:] = [users.setdefault(user, user) for user in firsts]
    return np.repeat(shared, np.diff(np.concatenate(([0], starts, [len(values)]))))


def read_dataset_csv(path: Path) -> Dataset:
    """Read a dataset CSV; the first bad row raises MalformedLine.

    A row is bad when it has other than 7 fields, a field that does not
    convert, a coordinate that parse_plt would reject as out of range, a
    label code outside [0, 7) or a metadata value outside [0, 1] (NaN
    among them).
    Line numbers count CSV records, the header being record 1; bytes
    that are not UTF-8 are reported by physical line and byte offset,
    before any other error. The message names the file, as
    `<path>: line <n>: <reason>`. The rows are read in chunks into
    columns sized by a first pass over the bytes.
    """
    try:
        capacity, plain = _scan_dataset_csv(path)
        columns = [np.empty(capacity, dtype) for dtype, _, _ in _CSV_FORMATS]
        users: dict[str, str] = {}  # one str object per distinct user
        n = 0
        with open(path, "rb") if plain else open(path, encoding="utf-8", newline="") as fh:
            chunks = _plain_values(fh) if plain else _csv_values(_check_header(csv.reader(fh)), 2)
            for values, first in chunks:
                size = len(first.line_nos)
                for column, value, (_, _, parse) in zip(columns, values, _CSV_FORMATS):
                    if parse is not None:
                        column[n:n + len(value)] = value
                first.check_coordinates(columns[1][n:n + size], columns[2][n:n + size])
                label = columns[4][n:n + size]
                n_modes = len(DEFAULT_MODES)
                first.check((label < 0) | (label >= n_modes),
                            lambda row: f"label {int(label[row])} outside [0, {n_modes})")
                metadata = columns[6][n:n + size]
                first.check(~((metadata >= 0.0) & (metadata <= 1.0)),
                            lambda row: f"metadata {float(metadata[row])} outside [0, 1]")
                if first.error is not None:
                    raise first.error
                columns[5][n:n + size] = _shared_users(values[5], users)
                n += size
    except MalformedLine as exc:  # line_no and reason stay as they were
        exc.args = (f"{path}: {exc}",)
        raise
    if not n:
        raise EmptyDataset(f"{path} contains a header but no rows")
    time, lat, lon, alt, label, user, metadata = (column[:n] for column in columns)
    return Dataset(time=time, lat=lat, lon=lon, alt=alt, label=label, user=user,
                   metadata=metadata, stats=fit_stats(lat, lon, alt))
