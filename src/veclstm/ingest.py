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
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import EmptyDataset, InvertedSpan, MalformedLine, TruncatedHeader
from .vectorizer import (
    MISSING,
    NormalizationStats,
    VectorizationConfig,
    fit_stats,
    is_missing,
    normalize_columns,
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


def _utc_seconds(dates: Sequence[str], clocks: Sequence[str], sep: str,
                 text: Callable[[int], str]) -> np.ndarray:
    """UTC seconds of each row's date and clock, up to the first row strptime rejects.

    Row i's timestamp is text(i), read as f"%Y{sep}%m{sep}%d %H:%M:%S".
    A canonical row (a 10-character date of ASCII digits and sep, and an
    8-character HH:MM:SS clock of ASCII digits with hours below 24 and
    minutes and seconds below 60) gets its seconds from one strptime per distinct date plus its clock
    digits. Every other row, and each row whose date strptime rejects,
    goes through strptime on text(i), in row order; the values stop
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
            seconds[row] = _parse_utc(text(row), fmt)
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

    def __init__(self, line_nos: list[int], error: MalformedLine | None = None):
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


def parse_plt(data: bytes | str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Parse one PLT file into (time, lat, lon, alt) columns.

    The first six lines are header and skipped. time is int64 UTC
    seconds. Altitude arrives in feet and is converted to meters; the
    sentinel -777 becomes MISSING. Raises TruncatedHeader on short files
    and MalformedLine(line_no) on the first bad row (wrong field count,
    non-numeric fields, out-of-range coordinates, or a timestamp going
    backwards).
    """
    lines = _as_text(data).splitlines()
    if len(lines) < PLT_HEADER_LINES:
        raise TruncatedHeader(
            f"PLT file has {len(lines)} lines, expected at least {PLT_HEADER_LINES}"
        )
    rows: list[list[str]] = []
    line_nos: list[int] = []
    short = None
    for line_no, line in enumerate(lines[PLT_HEADER_LINES:], PLT_HEADER_LINES + 1):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 7:
            short = MalformedLine(line_no, f"expected 7 fields, got {len(fields)}")
            break
        rows.append(fields)
        line_nos.append(line_no)
    first = _FirstFailure(line_nos, short)
    lat_s, lon_s, _, alt_s, days_s, dates, clocks = zip(*rows) if rows else [()] * 7
    # The days serial is unused but must be numeric.
    lat, lon, alt_feet, _ = (
        first.convert(cells, float, np.float64, lambda row, exc: f"non-numeric field: {exc}")
        for cells in (lat_s, lon_s, alt_s, days_s))
    time = _utc_seconds(dates[:first.end], clocks[:first.end], "-",
                        lambda row: f"{dates[row]} {clocks[row]}")
    if time.size < first.end:
        first.fail(time.size, f"bad date/time {dates[time.size]},{clocks[time.size]}")
    first.check(~((lat >= -90.0) & (lat <= 90.0)),
                lambda row: f"latitude {float(lat[row])} out of range")
    first.check(~((lon >= -180.0) & (lon <= 180.0)),
                lambda row: f"longitude {float(lon[row])} out of range")
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
    rows: list[list[str]] = []
    line_nos: list[int] = []
    short = None
    for line_no, line in enumerate(lines[1:], 2):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            short = MalformedLine(line_no, f"expected 3 tab-separated fields, got {len(fields)}")
            break
        rows.append(fields)
        line_nos.append(line_no)
    # Start and end interleaved, so the first bad one is in row order.
    texts = [text.strip() for fields in rows for text in fields[:2]]
    dates, _, clocks = zip(*(text.partition(" ") for text in texts)) if rows else ((), (), ())
    times = _utc_seconds(dates, clocks, "/", texts.__getitem__)
    n_ok = times.size // 2  # rows before the first bad timestamp
    start, end = times[:2 * n_ok:2], times[1:2 * n_ok:2]
    inverted = np.flatnonzero(start > end)
    if inverted.size:
        raise InvertedSpan(f"line {line_nos[inverted[0]]}: span ends before it starts")
    if n_ok < len(rows):
        raise MalformedLine(line_nos[n_ok], "bad timestamp")
    if short is not None:
        raise short
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
        return vectorize_metadata(lat, lon, alt, config)
    if feature == "normalized_alt":
        return normalize_columns(lat, lon, alt, stats, config)[2]
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
    raise ValueError(f"unknown metadata feature {feature!r}")


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

    Per-file parse failures are collected as warnings and the file is
    skipped, unless strict is set, in which case the first failure
    raises.
    """
    warnings: list[IngestWarning] = []
    labeled: list[tuple[np.ndarray, ...]] = []  # (time, lat, lon, alt, label, user) per user
    n_points = n_outside_spans = n_unmapped = 0
    for user_id, plt_files, labels_path in iter_geolife_users(root):
        if labels_path is None:
            continue
        try:
            spans = parse_labels(labels_path.read_bytes())
        except Exception as exc:
            if strict:
                raise
            warnings.append(IngestWarning(str(labels_path), exc))
            continue
        files = []
        for plt_path in plt_files:
            try:
                files.append(parse_plt(plt_path.read_bytes()))
            except Exception as exc:
                if strict:
                    raise
                warnings.append(IngestWarning(str(plt_path), exc))
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
        labeled.append((time[keep], lat[keep], lon[keep], alt[keep], label[keep],
                        np.full(int(keep.sum()), user_id, dtype=object)))
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

def write_dataset_csv(dataset: Dataset, path: Path) -> None:
    """RFC-4180 CSV with the 7-column header; missing alt is an empty field.

    Floats are written as the repr of Python floats, so they read back
    exactly.
    """
    alt = ["" if is_missing(a) else repr(a) for a in dataset.alt.tolist()]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(DATASET_COLUMNS)
        writer.writerows(zip(
            dataset.time.tolist(),
            map(repr, dataset.lat.tolist()),
            map(repr, dataset.lon.tolist()),
            alt,
            dataset.label.tolist(),
            dataset.user.tolist(),
            map(repr, dataset.metadata.tolist()),
        ))


def read_dataset_csv(path: Path) -> Dataset:
    """Read a dataset CSV; the first bad row raises MalformedLine.

    Line numbers count CSV records, the header being record 1; bytes
    that are not UTF-8 are reported by physical line and byte offset.
    """
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = raw.count(b"\n", 0, exc.start) + 1
        raise MalformedLine(line_no, f"invalid UTF-8 at byte {exc.start}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    rows: list[list[str]] = []
    header = short = None
    try:
        header = next(reader, None)
        if header is None or tuple(header) != DATASET_COLUMNS:
            raise MalformedLine(1, f"expected header {','.join(DATASET_COLUMNS)}")
        for row in reader:
            if len(row) != 7:
                short = MalformedLine(len(rows) + 2, f"expected 7 columns, got {len(row)}")
                break
            rows.append(row)
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        line_no = len(rows) + 2 if header is not None else 1
        raise MalformedLine(line_no, str(exc)) from None
    first = _FirstFailure(list(range(2, len(rows) + 2)), short)
    if not rows:
        raise first.error or EmptyDataset(f"{path} contains a header but no rows")
    time_s, lat_s, lon_s, alt_s, label_s, user_s, meta_s = zip(*rows)
    time, lat, lon, alt, label, metadata = (
        first.convert(cells, convert, dtype, lambda row, exc: str(exc))
        for cells, convert, dtype in (
            (time_s, int, np.int64), (lat_s, float, np.float64), (lon_s, float, np.float64),
            (alt_s, lambda cell: MISSING if cell == "" else float(cell), np.float64),
            (label_s, int, np.int64), (meta_s, float, np.float64)))
    if first.error is not None:
        raise first.error
    return Dataset(time=time, lat=lat, lon=lon, alt=alt, label=label,
                   user=np.array(user_s, dtype=object), metadata=metadata,
                   stats=fit_stats(lat, lon, alt))
