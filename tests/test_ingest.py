"""Ingest tests: PLT/labels parsing, span joining, dataset assembly."""

import calendar
import csv
import io
import math
import struct
import warnings
from datetime import datetime, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from veclstm import ingest as ingest_mod
from veclstm.errors import (
    ConfigError,
    EmptyDataset,
    InvertedSpan,
    MalformedLine,
    TruncatedHeader,
)
from veclstm.ingest import (
    DATASET_COLUMNS,
    DEFAULT_MODES,
    Dataset,
    LabelSpan,
    assign_labels,
    build_dataset,
    ingest_geolife,
    map_mode,
    parse_labels,
    parse_plt,
    read_dataset_csv,
    write_dataset_csv,
)
from veclstm.vectorizer import NormalizationStats, is_missing

from _oracles import (
    bisect_assign_labels,
    row_parse_labels,
    row_parse_plt,
    row_read_dataset_csv,
    row_write_dataset_csv,
)
from conftest import corrupt, labels_text, plt_text


def epoch_utc(y, mo, d, h, mi, s):
    # independent of datetime.strptime: calendar.timegm on a raw tuple
    return calendar.timegm((y, mo, d, h, mi, s, 0, 0, 0))


class TestParsePlt:
    def test_documented_example_line(self):
        text = plt_text([(39.906631, 116.385564, 492, "2009-03-10", "12:00:00")])
        (time,), (lat,), (lon,), (alt,) = parse_plt(text)
        assert lat == 39.906631
        assert lon == 116.385564
        assert alt == pytest.approx(149.9616, abs=1e-9)  # 492 ft
        assert time == epoch_utc(2009, 3, 10, 12, 0, 0)

    def test_header_only_file(self):
        columns = parse_plt(plt_text([]))
        assert [col.size for col in columns] == [0, 0, 0, 0]
        assert columns[0].dtype == np.int64

    def test_altitude_sentinel_becomes_missing(self):
        # so does a nan altitude, unlike an infinite one
        text = plt_text([(39.9, 116.4, -777, "2009-03-10", "12:00:00"),
                         (39.9, 116.4, "nan", "2009-03-10", "12:00:01")])
        _, _, _, alt = parse_plt(text)
        assert all(is_missing(value) for value in alt.tolist())

    @pytest.mark.parametrize("alt, shown", [("inf", "inf"), ("-inf", "-inf"),
                                            ("1e309", "inf")])
    def test_infinite_altitude(self, alt, shown):
        text = plt_text([(39.9, 116.4, 100, "2009-03-10", "12:00:00"),
                         (39.9, 116.4, alt, "2009-03-10", "12:00:01")])
        with pytest.raises(MalformedLine, match=f"altitude {shown} out of range") as exc:
            parse_plt(text)
        assert exc.value.line_no == 8

    def test_truncated_header(self):
        with pytest.raises(TruncatedHeader):
            parse_plt("line1\nline2\n")

    def test_wrong_field_count(self):
        text = plt_text([]) + "39.9,116.4,0\n"
        with pytest.raises(MalformedLine) as exc:
            parse_plt(text)
        assert exc.value.line_no == 7

    def test_non_numeric_field(self):
        text = plt_text([]) + "39.9,abc,0,100,39000.0,2009-03-10,12:00:00\n"
        with pytest.raises(MalformedLine):
            parse_plt(text)

    def test_out_of_range_latitude(self):
        text = plt_text([(95.0, 116.4, 100, "2009-03-10", "12:00:00")])
        with pytest.raises(MalformedLine):
            parse_plt(text)

    def test_decreasing_timestamp(self):
        text = plt_text([
            (39.9, 116.4, 100, "2009-03-10", "12:00:10"),
            (39.9, 116.4, 100, "2009-03-10", "12:00:00"),
        ])
        with pytest.raises(MalformedLine):
            parse_plt(text)

    def test_first_failing_check_wins(self):
        # within a row latitude, longitude, altitude and time are checked
        # in that order; across rows the earlier row wins whatever its check
        both = plt_text([(95.0, 200.0, 100, "2009-03-10", "12:00:00")])
        with pytest.raises(MalformedLine, match="latitude"):
            parse_plt(both)
        for lon, reason in ((200.0, "longitude"), (116.4, "altitude")):
            late = plt_text([(39.9, 116.4, 100, "2009-03-10", "12:00:01"),
                             (39.9, lon, "inf", "2009-03-10", "12:00:00")])
            with pytest.raises(MalformedLine, match=reason):
                parse_plt(late)
        text = plt_text([(39.9, 200.0, 100, "2009-03-10", "12:00:00"),
                         (95.0, 116.4, 100, "2009-03-10", "12:00:01")]) + "1,2\n"
        with pytest.raises(MalformedLine, match="longitude") as exc:
            parse_plt(text)
        assert exc.value.line_no == 7

    def test_bytes_input(self):
        raw = plt_text([(39.9, 116.4, 100, "2009-03-10", "12:00:00")]).encode()
        assert len(parse_plt(raw)[0]) == 1

    def test_round_trip_precision(self):
        # lossless for valid rows: numeric fields reparse to themselves
        text = plt_text([(39.906631, 116.385564, 492, "2009-03-10", "12:00:00")])
        _, (lat,), (lon,), (alt,) = parse_plt(text)
        rebuilt = plt_text([(float(lat), float(lon), float(alt) / 0.3048,
                             "2009-03-10", "12:00:00")])
        _, (lat2,), (lon2,), (alt2,) = parse_plt(rebuilt)
        assert lat2 == lat
        assert lon2 == lon
        assert alt2 == pytest.approx(alt, abs=1e-9)


class TestParseLabels:
    def test_documented_example(self):
        text = labels_text([("2008/04/02 11:24:21", "2008/04/02 11:50:45", "train")])
        (span,) = parse_labels(text)
        assert span.start < span.end
        assert span.mode == "train"
        assert span.start == epoch_utc(2008, 4, 2, 11, 24, 21)

    def test_header_only(self):
        assert parse_labels(labels_text([])) == []

    def test_inverted_span(self):
        text = labels_text([("2008/04/02 12:00:00", "2008/04/02 11:00:00", "bus")])
        with pytest.raises(InvertedSpan):
            parse_labels(text)

    def test_malformed_row(self):
        with pytest.raises(MalformedLine):
            parse_labels("Start\tEnd\tMode\nnot-a-row\n")


def labeled(times, spans):
    """(timestamp, mode) of each covered timestamp, in input order."""
    owner = assign_labels(np.array(times, dtype=np.int64), spans)
    return [(t, spans[i].mode) for t, i in zip(times, owner.tolist()) if i >= 0]


class TestAssignLabels:
    def test_empty_spans(self):
        assert assign_labels(np.array([5]), []).tolist() == [-1]

    def test_inclusive_boundaries(self):
        spans = [LabelSpan(start=10, end=20, mode="walk")]
        pairs = labeled([10, 20, 21], spans)
        assert [t for t, _ in pairs] == [10, 20]
        assert all(mode == "walk" for _, mode in pairs)

    def test_coverage_subset(self):
        spans = [LabelSpan(0, 10, "walk"), LabelSpan(100, 110, "bus")]
        assert labeled([5, 8, 50, 105, 200], spans) == [
            (5, "walk"), (8, "walk"), (105, "bus")]

    def test_brute_force_interval_membership(self):
        rng = np.random.default_rng(31)
        spans = []
        for _ in range(12):
            start = int(rng.integers(0, 900))
            spans.append(LabelSpan(start, start + int(rng.integers(0, 120)),
                                   f"m{rng.integers(0, 5)}"))
        times = rng.integers(0, 1100, size=300)
        owner = assign_labels(times, spans).tolist()
        assert owner == bisect_assign_labels(times.tolist(), spans)

        for t, got in zip(times.tolist(), owner):
            containing = [(s.start, i) for i, s in enumerate(spans)
                          if s.start <= t <= s.end]
            assert got == (max(containing)[1] if containing else -1)

    def test_overlap_latest_start_wins(self):
        spans = [LabelSpan(0, 100, "walk"), LabelSpan(50, 100, "bus")]
        ((_, mode),) = labeled([75], spans)
        assert mode == "bus"

    def test_equal_start_later_file_order_wins(self):
        spans = [LabelSpan(0, 100, "walk"), LabelSpan(0, 100, "bus")]
        ((_, mode),) = labeled([5], spans)
        assert mode == "bus"


class TestMapMode:
    @pytest.mark.parametrize("raw,expected", [
        ("taxi", 4), ("TRAIN", 6), ("Walk", 0), ("subway", 5)])
    def test_accepted(self, raw, expected):
        assert map_mode(raw) == expected

    @pytest.mark.parametrize("raw", ["run", "boat", "airplane", "motorcycle", ""])
    def test_rejected(self, raw):
        assert map_mode(raw) is None

    def test_pure_function(self):
        assert map_mode("bike") == map_mode("bike") == 1

    def test_seven_distinct_codes(self):
        codes = [map_mode(m) for m in DEFAULT_MODES]
        assert sorted(codes) == list(range(7))


def point_columns(times, labels, users=None, lat=None, lon=None, alt=None):
    """The six build_dataset input columns; unset coordinates are 0."""
    n = len(times)
    zeros = np.zeros(n)
    return (np.array(times, dtype=np.int64),
            zeros if lat is None else np.asarray(lat, dtype=np.float64),
            zeros if lon is None else np.asarray(lon, dtype=np.float64),
            zeros if alt is None else np.asarray(alt, dtype=np.float64),
            np.array(labels, dtype=np.int64),
            np.array(["u"] * n if users is None else users, dtype=object))


class TestBuildDataset:
    def test_single_point(self):
        dataset = build_dataset(*point_columns([5], [0]))
        assert len(dataset) == 1
        assert 0.0 <= dataset.metadata[0] <= 1.0

    def test_single_cell_metadata_is_one(self):
        dataset = build_dataset(*point_columns(range(4), [0] * 4))
        assert dataset.metadata.tolist() == [1.0] * 4

    def test_ordering_matches_sort_oracle(self):
        rng = np.random.default_rng(13)
        users, times, lat, lon, labels = [], [], [], [], []
        for _ in range(100):
            users.append(f"u{rng.integers(0, 3)}")
            times.append(int(rng.integers(0, 10_000)))
            lat.append(float(rng.uniform()))
            lon.append(float(rng.uniform()))
            labels.append(int(rng.integers(0, 7)))
        dataset = build_dataset(*point_columns(times, labels, users, lat, lon))
        assert len(dataset) == 100
        keys = list(zip(dataset.user.tolist(), dataset.time.tolist()))
        assert keys == sorted(keys)
        rows = sorted(zip(users, times, lat, lon, labels), key=lambda r: (r[0], r[1]))
        assert list(zip(dataset.user.tolist(), dataset.time.tolist(), dataset.lat.tolist(),
                        dataset.lon.tolist(), dataset.label.tolist())) == rows

    def test_empty_rejected(self):
        with pytest.raises(EmptyDataset):
            build_dataset(*point_columns([], []))

    def test_alternate_metadata_features(self):
        times = list(range(10))
        columns = point_columns(times, [0] * 10, lat=[0.001 * t for t in times],
                                alt=[float(t) for t in times])
        alt_based = build_dataset(*columns, metadata_feature="normalized_alt")
        assert alt_based.metadata[0] == 0.0
        assert alt_based.metadata[-1] == 1.0
        speed_based = build_dataset(*columns, metadata_feature="normalized_speed")
        values = speed_based.metadata.tolist()
        assert values[0] == 0.0 and max(values) == 1.0

    def test_unknown_metadata_feature(self):
        with pytest.raises(ConfigError, match="'nope'"):
            build_dataset(*point_columns([5], [0]), metadata_feature="nope")

    def test_speed_restarts_at_each_user(self):
        # u1's first point is 1 degree from u0's last: no speed between them
        times, lat = [0, 10, 20, 30, 40], [0.0, 0.001, 0.003, 1.0, 1.001]
        dataset = build_dataset(*point_columns(times, [0] * 5, ["u0"] * 3 + ["u1"] * 2, lat),
                                metadata_feature="normalized_speed")
        meters = [0.0, 111.19492664455873, 222.38985328911747, 0.0, 111.19492664455873]
        speeds = [m / 10 for m in meters]
        assert dataset.metadata.tolist() == pytest.approx([v / max(speeds) for v in speeds],
                                                          abs=1e-12)


class TestGeolifeTree:
    def test_counts(self, geolife_tree):
        result = ingest_geolife(geolife_tree)
        assert result.n_points == 8
        # user 000: 4 points inside spans, but only 4 walk/bus points
        # minus the unlabeled one; user 001: 3 train points
        assert result.n_labeled == 7
        assert len(result.dataset) == 7
        labels = np.unique(result.dataset.label).tolist()
        assert labels == [map_mode("walk"), map_mode("bus"), map_mode("train")] or \
            labels == sorted([0, 2, 6])

    def test_missing_altitude_propagates(self, geolife_tree):
        result = ingest_geolife(geolife_tree)
        assert np.isnan(result.dataset.alt).sum() == 1

    def test_one_str_object_per_user(self, geolife_tree):
        users = ingest_geolife(geolife_tree).dataset.user
        assert len({id(u) for u in users}) == len(set(users.tolist())) == 2

    def test_strict_raises_on_malformed(self, geolife_tree):
        bad = geolife_tree / "Data" / "000" / "Trajectory" / "bad.plt"
        bad.write_text("too\nshort\n", encoding="utf-8")
        with pytest.raises(TruncatedHeader):
            ingest_geolife(geolife_tree, strict=True)
        result = ingest_geolife(geolife_tree, strict=False)
        assert len(result.warnings) == 1
        assert result.n_labeled == 7


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path, geolife_tree):
        dataset = ingest_geolife(geolife_tree).dataset
        path = tmp_path / "dataset.csv"
        write_dataset_csv(dataset, path)
        header = path.read_text().splitlines()[0]
        assert header == "time,lat,lon,alt,label,user,metadata"
        loaded = read_dataset_csv(path)
        assert len(loaded) == len(dataset)
        for name in DATASET_COLUMNS:
            a, b = getattr(loaded, name), getattr(dataset, name)
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b, equal_nan=name == "alt"), name
        assert np.isnan(loaded.alt).sum() == 1
        assert loaded.stats == dataset.stats


# --- columnar readers against the row-by-row oracles -------------------

def _same_outcome(columnar, oracle):
    """Run both readers: equal columns, or MalformedLine at the same line."""
    try:
        expected = oracle()
    except MalformedLine as exc:
        event(f"MalformedLine: {exc.reason.split(':')[0].split(' ')[0]}")
        with pytest.raises(MalformedLine) as got:
            columnar()
        assert got.value.line_no == exc.line_no
        return got.value, exc
    except (EmptyDataset, TruncatedHeader) as exc:
        event(type(exc).__name__)
        with pytest.raises(type(exc)):
            columnar()
        return None
    event("read")
    got = columnar()
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
    return None


# Seconds after 2000-01-01: spread over years, or a few days so that
# rows share a date.
OFFSETS = st.one_of(st.integers(0, 400_000_000), st.integers(0, 3 * 86_400))

# Coordinates run a little past their valid ranges, altitudes may be
# infinite or nan, and the timestamps are sorted unless the draw says
# otherwise, so every check of the parser gets to fail.
plt_rows = st.lists(st.tuples(
    st.floats(-100, 100), st.floats(-200, 200),
    st.one_of(st.just(-777.0), st.floats(-1e4, 1e5),
              st.sampled_from((math.inf, -math.inf, math.nan))),
    OFFSETS,
), max_size=6)

# A start offset, a duration that may invert the span, and a mode.
label_rows = st.lists(st.tuples(
    OFFSETS, st.integers(-600, 20_000), st.sampled_from(("walk", " Bus ", "boat")),
), max_size=6)


def _arabic_indic(text: str) -> str:
    return "".join(chr(0x660 + int(ch)) if ch.isdigit() else ch for ch in text)


# How a timestamp is written, as (date, clock) from a UTC datetime and the
# date separator: the canonical form and the forms the fast path must
# leave to strptime, which accepts some of them.
STAMP_FORMS = {
    "canonical": lambda t, sep: (f"{t:%Y}{sep}{t:%m}{sep}{t:%d}", f"{t:%H:%M:%S}"),
    "single digits": lambda t, sep: (f"{t.year}{sep}{t.month}{sep}{t.day}",
                                     f"{t.hour}:{t.minute}:{t.second}"),
    "space in date": lambda t, sep: (f"{t:%Y}{sep}{t:%m}{sep}{t.day:2d}", f"{t:%H:%M:%S}"),
    "space in clock": lambda t, sep: (f"{t:%Y}{sep}{t:%m}{sep}{t:%d}",
                                      f"{t.hour:2d}:{t.minute:2d}:{t:%S}"),
    "24:00:00": lambda t, sep: (f"{t:%Y}{sep}{t:%m}{sep}{t:%d}", "24:00:00"),
    "23:59:60": lambda t, sep: (f"{t:%Y}{sep}{t:%m}{sep}{t:%d}", "23:59:60"),
    "02-30": lambda t, sep: (f"{t:%Y}{sep}02{sep}30", f"{t:%H:%M:%S}"),
    "non-ASCII digits": lambda t, sep: (f"{_arabic_indic(f'{t:%Y}')}{sep}{t:%m}{sep}{t:%d}",
                                        f"{t:%H:%M:%S}"),
    "trailing NUL": lambda t, sep: (f"{t:%Y}{sep}{t:%m}{sep}{t:%d}", f"{t:%H:%M:%S}\x00"),
}
stamp_forms = st.one_of(st.just("canonical"), st.sampled_from(sorted(STAMP_FORMS)))


def _stamp(data, seconds: int, sep: str) -> tuple[str, str]:
    form = data.draw(stamp_forms)
    event(f"stamp: {form}")
    return STAMP_FORMS[form](datetime.fromtimestamp(seconds, timezone.utc), sep)


class TestColumnarReadersMatchRowOracles:
    @settings(max_examples=300, deadline=None)
    @given(rows=plt_rows, data=st.data())
    def test_parse_plt(self, rows, data):
        start = epoch_utc(2000, 1, 1, 0, 0, 0)
        offsets = [r[3] for r in rows]
        if data.draw(st.integers(0, 4)):
            offsets.sort()
        lines = []
        for (lat, lon, alt, _), ts in zip(rows, offsets):
            date, clock = _stamp(data, start + ts, "-")
            lines.append(f"{lat!r},{lon!r},0,{alt!r},39000.5,{date},{clock}")
        text = corrupt(plt_text([]) + "\n".join(lines) + "\n", data, header_lines=6)
        errors = _same_outcome(lambda: parse_plt(text), lambda: row_parse_plt(text))
        if errors:
            assert str(errors[0]) == str(errors[1])

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.tuples(
        st.integers(-2**63, 2**63 - 1),
        # coordinates mostly in range, so that whole files still read
        st.one_of(st.floats(-90, 90), st.floats()),
        st.one_of(st.floats(-180, 180), st.floats()),
        st.one_of(st.none(), st.floats()), st.integers(-3, 9),
        st.text(max_size=4), st.one_of(st.floats(0, 1), st.floats())), max_size=6),
        data=st.data())
    def test_read_dataset_csv(self, tmp_path_factory, rows, data):
        out = io.StringIO(newline="")
        writer = csv.writer(out)
        writer.writerow(DATASET_COLUMNS)
        for t, lat, lon, alt, label, user, meta in rows:
            writer.writerow([t, repr(lat), repr(lon), "" if alt is None else repr(alt),
                             label, user, repr(meta)])
        path = tmp_path_factory.mktemp("csv") / "dataset.csv"
        path.write_text(corrupt(out.getvalue(), data, header_lines=1),
                        encoding="utf-8", newline="")

        def columnar():
            dataset = read_dataset_csv(path)
            return [getattr(dataset, name) for name in DATASET_COLUMNS]

        def oracle():
            columns = row_read_dataset_csv(path)
            return [columns[name] for name in DATASET_COLUMNS]

        _same_outcome(columnar, oracle)

    @settings(max_examples=300, deadline=None)
    @given(rows=label_rows, data=st.data())
    def test_parse_labels(self, rows, data):
        start = epoch_utc(2000, 1, 1, 0, 0, 0)
        lines = []
        for offset, duration, mode in rows:
            stamps = (" ".join(_stamp(data, start + offset + d, "/")) for d in (0, duration))
            lines.append("\t".join((*stamps, mode)))
        text = corrupt(labels_text([]) + "\n".join(lines) + "\n", data,
                       header_lines=1, sep="\t")
        # Equal spans, or the same error type and message.
        try:
            expected = row_parse_labels(text)
        except (MalformedLine, InvertedSpan, TruncatedHeader) as exc:
            event(type(exc).__name__)
            with pytest.raises(type(exc)) as got:
                parse_labels(text)
            assert str(got.value) == str(exc)
            return
        event("read")
        assert parse_labels(text) == expected


# (date, clock) in forms the fast path leaves to strptime, and the UTC
# time strptime reads, or None where it rejects the row.
NON_CANONICAL = {
    "single digits": ("2009-3-9", "9:5:7", (2009, 3, 9, 9, 5, 7)),
    "space-padded day": ("2009-03- 9", "12:00:00", (2009, 3, 9, 12, 0, 0)),
    "space-padded hour": ("2009-03-10", " 2:00:00", (2009, 3, 10, 2, 0, 0)),
    "space inside clock": ("2009-03-10", "12: 00:00", None),
    "24:00:00": ("2009-03-10", "24:00:00", None),
    "23:59:60": ("2009-03-10", "23:59:60", None),
    "02-30": ("2009-02-30", "12:00:00", None),
    "non-ASCII year": ("\u0662\u0660\u0660\u0669-03-10", "12:00:00", (2009, 3, 10, 12, 0, 0)),
    "non-ASCII day": ("2009-03-\u0661\u0660", "12:00:00", None),
    "trailing NUL after date": ("2009-03-10\x00", "12:00:00", None),
    "trailing NUL after clock": ("2009-03-10", "12:00:00\x00", None),
    "NUL as last digit": ("2009-03-10", "12:00:0\x00", None),
}


@pytest.mark.parametrize("form", sorted(NON_CANONICAL))
class TestNonCanonicalTimestamps:
    # Each form sits between two canonical rows, one on its own date.

    def test_parse_plt(self, form):
        date, clock, utc = NON_CANONICAL[form]
        text = plt_text([(39.9, 116.4, 100, "2009-03-01", "00:00:00"),
                         (39.9, 116.4, 100, date, clock),
                         (39.9, 116.4, 100, "2009-03-10", "23:59:59")])
        if utc is None:
            with pytest.raises(MalformedLine) as exc:
                parse_plt(text)
            assert exc.value.line_no == 8
            assert exc.value.reason == f"bad date/time {date},{clock}"
        else:
            assert parse_plt(text)[0].tolist() == [
                epoch_utc(2009, 3, 1, 0, 0, 0), epoch_utc(*utc), epoch_utc(2009, 3, 10, 23, 59, 59)]

    def test_parse_labels(self, form):
        date, clock, utc = NON_CANONICAL[form]
        text = labels_text([("2009/03/01 00:00:00", "2009/03/01 00:10:00", "walk"),
                            (f"{date.replace('-', '/')} {clock}", "2009/03/10 23:59:59", "bus")])
        if utc is None:
            with pytest.raises(MalformedLine) as exc:
                parse_labels(text)
            assert exc.value.line_no == 3
        else:
            assert [span.start for span in parse_labels(text)] == [
                epoch_utc(2009, 3, 1, 0, 0, 0), epoch_utc(*utc)]


class TestDatasetCsvErrors:
    def _write(self, tmp_path, body: bytes):
        path = tmp_path / "dataset.csv"
        path.write_bytes(",".join(DATASET_COLUMNS).encode() + b"\n" + body)
        return path

    def test_non_utf8_bytes_name_their_line(self, tmp_path):
        path = self._write(tmp_path, b"1,2.0,3.0,,0,u,0.5\n2,2.0,3.0,,0,\xff\xfe,0.5\n")
        with pytest.raises(MalformedLine) as exc:
            read_dataset_csv(path)
        assert exc.value.line_no == 3
        assert "UTF-8" in str(exc.value)

    def test_errors_name_the_file_and_keep_line_and_reason(self, tmp_path):
        for body in (b"1,2.0,3.0,,0,u,0.5\n2,2.0,3.0,,0,\xff\xfe,0.5\n",
                     b"1,2.0,3.0,,0,u,0.5\n2,2.0,3.0,,0,u,1.5\n"):
            path = self._write(tmp_path, body)
            with pytest.raises(MalformedLine) as exc:
                read_dataset_csv(path)
            assert exc.value.line_no == 3
            assert str(exc.value) == f"{path}: line 3: {exc.value.reason}"

    def test_field_over_csv_limit(self, tmp_path):
        path = self._write(tmp_path, b"1,2.0,3.0,,0,u,0.5\n2,2.0,3.0,,0,"
                           + b"u" * (csv.field_size_limit() + 1) + b",0.5\n")
        with pytest.raises(MalformedLine) as exc:
            read_dataset_csv(path)
        assert exc.value.line_no == 3

    @pytest.mark.parametrize("user", [b"u", b'"u"'], ids=["split", "csv_reader"])
    @pytest.mark.parametrize("coords, reason", [
        (b"inf,3.0", "latitude inf out of range"),
        (b"nan,3.0", "latitude nan out of range"),
        (b"-90.5,3.0", "latitude -90.5 out of range"),
        (b"90.5,200.0", "latitude 90.5 out of range"),
        (b"2.0,-inf", "longitude -inf out of range"),
        (b"2.0,180.5", "longitude 180.5 out of range"),
    ])
    def test_coordinate_out_of_range(self, tmp_path, user, coords, reason):
        path = self._write(tmp_path, b"1,90.0,-180.0,,0," + user + b",0.5\n"
                           + b"2," + coords + b",,0," + user + b",0.5\n")
        with pytest.raises(MalformedLine) as exc:
            read_dataset_csv(path)
        assert (exc.value.line_no, exc.value.reason) == (3, reason)

    @pytest.mark.parametrize("user", [b"u", b'"u"'], ids=["split", "csv_reader"])
    @pytest.mark.parametrize("label", [-1, 7, 9])
    def test_label_outside_the_modes(self, tmp_path, user, label):
        path = self._write(tmp_path, b"1,2.0,3.0,,6," + user + b",0.5\n"
                           + b"2,2.0,3.0,,%d," % label + user + b",0.5\n")
        with pytest.raises(MalformedLine) as exc:
            read_dataset_csv(path)
        assert (exc.value.line_no, exc.value.reason) == (3, f"label {label} outside [0, 7)")

    @pytest.mark.parametrize("user", [b"u", b'"u"'], ids=["split", "csv_reader"])
    @pytest.mark.parametrize("meta", ["nan", "inf", "-inf", "1e308", "-0.5", "1.5"])
    def test_metadata_outside_the_unit_interval(self, tmp_path, user, meta):
        path = self._write(tmp_path, b"1,2.0,3.0,,0," + user + b",0.0\n"
                           + b"2,2.0,3.0,,0," + user + b",1.0\n"
                           + b"3,2.0,3.0,,0," + user + b"," + meta.encode() + b"\n")
        with pytest.raises(MalformedLine) as exc:
            read_dataset_csv(path)
        assert (exc.value.line_no, exc.value.reason) == (
            4, f"metadata {float(meta)} outside [0, 1]")

    def test_label_is_checked_before_metadata(self, tmp_path):
        path = self._write(tmp_path, b"1,2.0,3.0,,0,u,0.5\n2,2.0,3.0,,9,u,nan\n")
        with pytest.raises(MalformedLine) as exc:
            read_dataset_csv(path)
        assert (exc.value.line_no, exc.value.reason) == (3, "label 9 outside [0, 7)")

    def test_first_bad_row_wins_across_columns(self, tmp_path):
        # row 3 has a bad label, row 2 a bad metadata cell: row 2 is reported
        path = self._write(tmp_path, b"1,2.0,3.0,,0,u,x\n2,2.0,3.0,,y,u,0.5\n")
        with pytest.raises(MalformedLine) as exc:
            read_dataset_csv(path)
        assert exc.value.line_no == 2


# --- the columnar CSV writer, and reads across a chunk boundary --------

# Float edge values, each with its own 64-bit pattern.
FLOAT_EDGES = (0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf)
# Users the csv module quotes, or does not, or that are not ASCII.
QUOTED_USERS = ("", ",", '"', "\n", "\r", " a", "é", "北京", "u1")


def _bits(value):
    return struct.pack("<d", value) if isinstance(value, float) else value


def _column(data, n: int, values):
    """n values: all equal, all distinct or drawn one by one."""
    kind = data.draw(st.sampled_from(["equal", "distinct", "mixed"]))
    event(f"column: {kind}")
    if kind == "equal":
        return [data.draw(values)] * n
    if kind == "distinct":
        return data.draw(st.lists(values, min_size=n, max_size=n, unique_by=_bits))
    return data.draw(st.lists(values, min_size=n, max_size=n))


class TestDatasetCsvWriterMatchesRowOracle:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 30), data=st.data())
    def test_same_bytes(self, tmp_path_factory, n, data):
        floats = st.one_of(st.sampled_from(FLOAT_EDGES), st.floats())
        ints = st.integers(-2**63, 2**63 - 1)
        users = st.one_of(st.sampled_from(QUOTED_USERS), st.text(max_size=3))
        dataset = Dataset(
            time=np.array(_column(data, n, ints), dtype=np.int64),
            lat=np.array(_column(data, n, floats), dtype=np.float64),
            lon=np.array(_column(data, n, floats), dtype=np.float64),
            alt=np.array(_column(data, n, floats), dtype=np.float64),
            label=np.array(_column(data, n, ints), dtype=np.int64),
            user=np.array(_column(data, n, users), dtype=object),
            metadata=np.array(_column(data, n, floats), dtype=np.float64),
            stats=NormalizationStats(0.0, 1.0, 0.0, 1.0, 0.0, 1.0))
        folder = tmp_path_factory.mktemp("csv")
        write_dataset_csv(dataset, folder / "columnar.csv")
        row_write_dataset_csv(dataset, folder / "rows.csv")
        assert (folder / "columnar.csv").read_bytes() == (folder / "rows.csv").read_bytes()

    def test_same_bytes_over_more_than_one_chunk(self, tmp_path):
        # Values that repeat across the chunks of the writer, and some
        # that do not.
        n = 70_000
        rng = np.random.default_rng(3)
        dataset = Dataset(
            time=np.arange(n, dtype=np.int64) * 5,
            lat=rng.choice([0.0, -0.0, math.nan, 39.9], n), lon=rng.uniform(116, 117, n),
            alt=rng.choice([math.nan, 1.5, -math.inf], n), label=rng.integers(0, 7, n),
            user=np.array(rng.choice(QUOTED_USERS, n), dtype=object),
            metadata=rng.choice(rng.uniform(0, 1, 90), n),
            stats=NormalizationStats(0.0, 1.0, 0.0, 1.0, 0.0, 1.0))
        write_dataset_csv(dataset, tmp_path / "columnar.csv")
        row_write_dataset_csv(dataset, tmp_path / "rows.csv")
        assert (tmp_path / "columnar.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


# Records of 64 bytes, so that the reader's first chunk of bytes after
# the header ends at a known record.
ROW_BYTES = 64


def _row(i: int) -> bytes:
    head = f"{1_230_000_000 + i},{39 + i * 1e-6:.6f},{116 + i * 1e-6:.6f},,{i % 7},"
    tail = ",0.25\r\n"
    return (head + "u" * (ROW_BYTES - len(head) - len(tail)) + tail).encode()


class TestDatasetCsvChunkBoundary:
    """Files one chunk plus a few records long, read against the row oracle."""

    @pytest.fixture(scope="class")
    def rows(self):
        per_chunk = ingest_mod._CHUNK_BYTES // ROW_BYTES
        rows = [_row(i) for i in range(per_chunk + 5)]
        assert {len(row) for row in rows} == {ROW_BYTES}
        return per_chunk, rows

    def _write(self, tmp_path, rows):
        path = tmp_path / "dataset.csv"
        path.write_bytes(",".join(DATASET_COLUMNS).encode() + b"\r\n" + b"".join(rows))
        return path

    def _same_columns(self, path):
        expected = row_read_dataset_csv(path)
        got = read_dataset_csv(path)
        for name in DATASET_COLUMNS:
            a, b = getattr(got, name), expected[name]
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), name
        return expected

    def _same_error(self, path, line_no):
        with pytest.raises(MalformedLine) as expected:
            row_read_dataset_csv(path)
        with pytest.raises(MalformedLine) as got:
            read_dataset_csv(path)
        assert expected.value.line_no == line_no
        assert (got.value.line_no, got.value.reason) == (line_no, expected.value.reason)

    def test_whole_file_reads_as_the_oracle_does(self, tmp_path, rows):
        per_chunk, rows = rows
        assert len(self._same_columns(self._write(tmp_path, rows))["time"]) == per_chunk + 5

    def test_bad_cell_first_in_the_second_chunk(self, tmp_path, rows):
        per_chunk, rows = rows
        rows = list(rows)
        rows[per_chunk] = rows[per_chunk].replace(b",0.25", b",0.2x")
        self._same_error(self._write(tmp_path, rows), per_chunk + 2)

    def test_latitude_out_of_range_first_in_the_second_chunk(self, tmp_path, rows):
        per_chunk, rows = rows
        rows = list(rows)
        rows[per_chunk] = rows[per_chunk].replace(b",39.", b",99.", 1)
        self._same_error(self._write(tmp_path, rows), per_chunk + 2)

    def test_short_row_first_in_the_second_chunk(self, tmp_path, rows):
        per_chunk, rows = rows
        rows = list(rows)
        rows[per_chunk] = rows[per_chunk].replace(b",0.25", b"")
        self._same_error(self._write(tmp_path, rows), per_chunk + 2)

    def test_invalid_utf8_first_in_the_second_chunk(self, tmp_path, rows):
        per_chunk, rows = rows
        rows = list(rows)
        rows[per_chunk] = rows[per_chunk].replace(b"u", b"\xff", 1)
        path = self._write(tmp_path, rows)
        raw = path.read_bytes()
        offset = raw.index(b"\xff")
        with pytest.raises(UnicodeDecodeError):
            row_read_dataset_csv(path)
        with pytest.raises(MalformedLine) as got:
            read_dataset_csv(path)
        assert got.value.line_no == per_chunk + 2 == raw.count(b"\n", 0, offset) + 1
        assert got.value.reason == f"invalid UTF-8 at byte {offset}"

    def test_quoted_user_across_the_boundary(self, tmp_path, rows):
        # The last record of the first chunk holds a quoted user with a line
        # end in it, and runs past the first chunk's bytes.
        per_chunk, rows = rows
        rows = list(rows)
        rows[per_chunk - 1] = rows[per_chunk - 1].replace(b",uuu", b',"a\r\nb,""c""', 1).replace(
            b"uu,0.25", b'"u,0.25', 1)
        expected = self._same_columns(self._write(tmp_path, rows))
        assert expected["user"][per_chunk - 1].startswith('a\r\nb,"c"u')


# --- the np.loadtxt path of the reader against the row oracle ----------

def _read_as_oracle(path) -> str:
    """read_dataset_csv gives the oracle's columns, bit for bit, or its
    error at the same line for the same reason, and warns of nothing.
    Returns the outcome: "read" or the error's type."""
    try:
        expected = row_read_dataset_csv(path)
    except (MalformedLine, EmptyDataset) as exc:
        with warnings.catch_warnings(record=True) as caught, pytest.raises(type(exc)) as got:
            warnings.simplefilter("always")
            read_dataset_csv(path)
        if isinstance(exc, MalformedLine):
            assert (got.value.line_no, got.value.reason) == (exc.line_no, exc.reason)
        assert caught == []
        return type(exc).__name__
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        dataset = read_dataset_csv(path)
    assert caught == []
    for name in DATASET_COLUMNS:
        got, want = getattr(dataset, name), expected[name]
        assert got.dtype == want.dtype, name
        if want.dtype == object:
            assert got.tolist() == want.tolist(), name
        else:
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), name
    return "read"


def _arabic_indic_digits(text: str) -> str:
    return "".join(chr(0x660 + int(ch)) if "0" <= ch <= "9" else ch for ch in text)


def _full_width_digits(text: str) -> str:
    return "".join(chr(0xFF10 + int(ch)) if "0" <= ch <= "9" else ch for ch in text)


def _underscored(text: str) -> str:
    """text with '_' between its first two adjacent digits, if it has any."""
    for i in range(len(text) - 1):
        if text[i].isdigit() and text[i + 1].isdigit():
            return text[:i + 1] + "_" + text[i + 1:]
    return text


# How a number is written: as repr or str writes it, or in a form that
# float() and int() accept and np.loadtxt rejects.
DIGIT_FORMS = {"ascii": str, "underscore": _underscored,
               "full-width": _full_width_digits, "arabic-indic": _arabic_indic_digits}


class TestSharedUsers:
    """The reader keeps one str per distinct user, looked up once per run
    of equal users, whatever the order of the runs."""

    USERS = ["b", "a", "a", "b", "a", "\u00e9", "\u00e9", "b"]

    @pytest.mark.parametrize("long_user", [False, True], ids=["fit", "cut"])
    @pytest.mark.parametrize("quoted", [False, True], ids=["loadtxt", "csv_reader"])
    def test_one_str_per_distinct_user(self, tmp_path, quoted, long_user):
        # A user that fills loadtxt's field takes the users from the lines.
        users = self.USERS + ["x" * 20] * 2 * long_user
        path = tmp_path / "dataset.csv"
        lines = [",".join(DATASET_COLUMNS)]
        for i, user in enumerate(users):
            cell = f'"{user}"' if quoted else user
            lines.append(f"{i},39.9,116.3,,{i % 7},{cell},0.5")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert _read_as_oracle(path) == "read"
        got = read_dataset_csv(path).user
        assert got.tolist() == users
        assert len({id(u) for u in got}) == len(set(users)) == 3 + long_user


class TestLoadtxtDivergences:
    """Each input on which np.loadtxt and csv.reader with float() and int()
    part ways reads as the row oracle reads it."""

    ROW = "1235866126,39.9,116.4,,1,u,0.5"

    def _write(self, tmp_path, body: str, end: str = "\n"):
        path = tmp_path / "dataset.csv"
        path.write_text(",".join(DATASET_COLUMNS) + end + body, encoding="utf-8", newline="")
        return path

    @pytest.mark.parametrize("body, fast", [
        # loadtxt skips a blank line; csv.reader reads it as a record of no fields.
        (f"{ROW}\n\n{ROW}\n", False),
        (f"{ROW}\n{ROW}\n\n", False),
        # numpy's default comments="#" would cut the user at '#'.
        (f"{ROW}\n".replace(",u,", ",a#b,"), True),
        (f"{ROW}\n".replace(",u,", ",#,"), True),
        # wider than the user field loadtxt reads first
        (f"{ROW}\n{ROW}\n".replace(",u,", "," + "w" * 100 + ",", 1), True),
        (f"{ROW}\n".replace(",u,", "," + "é" * 16 + ","), True),
    ], ids=["blank_mid", "blank_end", "hash_in_user", "hash_user", "user_100", "user_16"])
    def test_lines_and_users(self, tmp_path, body, fast):
        assert (ingest_mod._loadtxt_values(body.encode()) is not None) == fast
        _read_as_oracle(self._write(tmp_path, body))

    # A label of one digit has no underscore form, so it is written 01.
    @pytest.mark.parametrize("column, text, value", [
        ("time", "1235866126", 1235866126), ("label", "01", 1), ("lat", "39.9", 39.9)])
    @pytest.mark.parametrize("form", ["underscore", "full-width", "arabic-indic"])
    def test_digits_loadtxt_rejects(self, tmp_path, column, text, value, form):
        cells = dict(zip(DATASET_COLUMNS, self.ROW.split(",")))
        cells[column] = DIGIT_FORMS[form](text)
        body = f"{self.ROW}\n" + ",".join(cells.values()) + "\n"
        assert ingest_mod._loadtxt_values(body.encode()) is None
        path = self._write(tmp_path, body)
        _read_as_oracle(path)
        assert getattr(read_dataset_csv(path), column)[1] == value

    @pytest.mark.parametrize("body, end", [
        (f"{ROW}\r\n{ROW}\r\n", "\r\n"),
        (f"{ROW}\n{ROW}", "\n"),
        (f"{ROW}\r\n{ROW}", "\r\n"),
    ], ids=["crlf", "unterminated", "crlf_unterminated"])
    def test_line_ends(self, tmp_path, body, end):
        assert ingest_mod._loadtxt_values(body.encode()) is not None
        _read_as_oracle(self._write(tmp_path, body, end))

    @pytest.mark.parametrize("end", ["\n", "\r\n", ""])
    def test_header_only_raises_with_no_warning(self, tmp_path, end):
        path = self._write(tmp_path, "", end)
        with warnings.catch_warnings(record=True) as caught, pytest.raises(EmptyDataset):
            warnings.simplefilter("always")
            read_dataset_csv(path)
        assert caught == []

    @pytest.mark.parametrize("body", ["\n", "\r\n\r\n", "\n\n\n"])
    def test_blank_lines_only_raise_with_no_warning(self, tmp_path, body):
        _read_as_oracle(self._write(tmp_path, body))


# Users with neither a quote nor a line end, so that most files stay
# plain: '#', spaces, non-ASCII, and users as wide as or wider than the
# field np.loadtxt reads first.
USER_TEXT = st.text(alphabet=st.characters(exclude_characters='",\r\n\x00',
                                           exclude_categories=("Cs",)), max_size=3)
DIFF_USERS = st.one_of(st.sampled_from(("000", "a#b", "#", " u ", "北京", "")), USER_TEXT,
                       st.text(alphabet="ab#", min_size=15, max_size=17),
                       st.just("x" * 100))


class TestLoadtxtMatchesRowOracle:
    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.tuples(
        st.integers(0, 2**40), st.floats(-90, 90), st.floats(-180, 180),
        st.one_of(st.none(), st.floats()), st.integers(0, 6), DIFF_USERS, st.floats(0, 1)),
        max_size=8),
        forms=st.lists(st.tuples(st.integers(0, 7), st.sampled_from([0, 1, 2, 3, 4, 6]),
                                 st.sampled_from(sorted(DIGIT_FORMS))), max_size=2),
        blanks=st.lists(st.integers(0, 8), max_size=2),
        end=st.sampled_from(["\n", "\r\n"]), terminated=st.booleans(),
        block=st.sampled_from([40, 120, 1 << 22]))
    def test_read_dataset_csv(self, tmp_path_factory, rows, forms, blanks, end, terminated,
                              block):
        cells = [["" if value is None else repr(value) if isinstance(value, float) else str(value)
                  for value in row] for row in rows]
        # A few numbers in a form that float() and int() accept and loadtxt rejects.
        for row, column, form in forms:
            if row < len(cells):
                cells[row][column] = DIGIT_FORMS[form](cells[row][column])
        lines = [",".join(row) for row in cells]
        for at in blanks:
            lines.insert(min(at, len(lines)), "")
        body = end.join(lines) + (end if terminated and lines else "")
        event(f"loadtxt reads the body as one block: "
              f"{bool(body) and ingest_mod._loadtxt_values(body.encode()) is not None}")
        event(f"line end {end!r}, terminated: {terminated}")
        path = tmp_path_factory.mktemp("csv") / "dataset.csv"
        path.write_text(",".join(DATASET_COLUMNS) + end + body, encoding="utf-8", newline="")
        # Small blocks mix loadtxt blocks and csv.reader blocks in one file.
        with mock.patch.object(ingest_mod, "_CHUNK_BYTES", block):
            event(_read_as_oracle(path))
