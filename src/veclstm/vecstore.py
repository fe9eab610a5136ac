"""Persistence for flattened grid-heatmap vectors.

Two interchangeable backends sit behind one interface: a SQL-92
relational table in sqlite3 and an append-only binary file. A file
batch is written in place past the committed data and committed by a
header rewrite, so readers never observe a partial write; only the
empty file at init and the one-time upgrade of a v1 file use
temp-file-then-rename.

Record ids are assigned by the store and strictly increase. Vectors are
stored as little-endian float32, one blob per record.

A record is a VectorRecord, a NamedTuple, so a fetch builds all of its
records in one C-level pass with no Python call per record. It keeps
the contract of a frozen value: equal when every field is, the vector
by its values; unequal to a plain tuple; unhashable, immutable and
unordered.
"""

from __future__ import annotations

import operator
import os
import sqlite3
import struct
import tempfile
from itertools import repeat
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConnectionFailed, SchemaMismatch, StorageError, ValidationError

FILE_MAGIC = b"VLVS"
FILE_VERSION = 2
_HEADER = struct.Struct("<4sHHQQ")  # magic, version, grid_size, record count, committed end
_HEADER_V1 = struct.Struct("<4sHHQ")  # magic, version, grid_size, record count
_RECORD_HEAD = struct.Struct("<QH")  # record_id, user byte length
_RECORD_TAIL = struct.Struct("<Bq")  # label, created_at
_INT64 = (-(2**63), 2**63 - 1)

DDL = [
    "CREATE TABLE IF NOT EXISTS trajectory_vectors ("
    " record_id BIGINT PRIMARY KEY,"
    " user_id VARCHAR(64) NOT NULL,"
    " label SMALLINT NOT NULL,"
    " vec BLOB NOT NULL,"
    " created_at BIGINT NOT NULL)",
    "CREATE INDEX IF NOT EXISTS idx_tv_user ON trajectory_vectors(user_id)",
    "CREATE INDEX IF NOT EXISTS idx_tv_label ON trajectory_vectors(label)",
]


class VectorRecord(NamedTuple):
    """One stored heatmap vector: VectorRecord(record_id, user, label,
    vector, created_at), by position or keyword."""
    record_id: int
    user: str
    label: int
    vector: np.ndarray  # (grid_size^2,) float32
    created_at: int     # UTC seconds

    # tuple's ==, != and hash would compare or hash the vector element-wise,
    # and its <, <=, >, >= order records by record_id; a record compares
    # as a value and is neither hashable nor ordered.
    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VectorRecord)
            and self.record_id == other.record_id
            and self.user == other.user
            and self.label == other.label
            and self.created_at == other.created_at
            and np.array_equal(self.vector, other.vector)
        )

    def __ne__(self, other) -> bool:
        return not self.__eq__(other)

    __hash__ = None

    def __lt__(self, other):
        raise TypeError("VectorRecords have no order")

    __le__ = __gt__ = __ge__ = __lt__


def _user_bytes(user: str) -> bytes:
    """user as UTF-8; a user that is not a str, or a str that has none (a
    lone surrogate), raises ValidationError."""
    if not isinstance(user, str):
        raise ValidationError(f"user {user!r} is not a str")
    try:
        return user.encode("utf-8")
    except UnicodeEncodeError:
        raise ValidationError(f"user {user!r} is not valid UTF-8") from None


def _validate(record: VectorRecord, vector_len: int) -> VectorRecord:
    """record as stored: its vector as little-endian float32, its label
    and created_at as Python ints; a field out of range raises
    ValidationError."""
    vec = np.asarray(record.vector, dtype="<f4")
    if vec.ndim != 1 or vec.size != vector_len:
        raise ValidationError(
            f"vector length {vec.size} != expected {vector_len}"
        )
    label = _integer("label", record.label)
    if not 0 <= label <= 6:
        raise ValidationError(f"label {label} outside 0..6")
    if len(_user_bytes(record.user)) > 0xFFFF:
        raise ValidationError("user longer than 65,535 UTF-8 bytes")
    created_at = _integer("created_at", record.created_at)
    if not _INT64[0] <= created_at <= _INT64[1]:
        raise ValidationError(f"created_at {created_at} outside int64")
    return VectorRecord(record.record_id, record.user, label, vec, created_at)


def _integer(name: str, value) -> int:
    """value as a Python int, through operator.index; a value that is not
    an integer (a float, a str) raises ValidationError naming the field."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} {value!r} is not an integer") from None


def _filters(user, label, id_range) -> tuple[bytes | None, int | None, tuple[int, int] | None]:
    """A fetch's filters as both stores compare them: user as its UTF-8
    bytes, label and the id_range bounds as Python ints, each None when
    not given. A filter of another kind raises ValidationError naming it."""
    if user is not None:
        user = _user_bytes(user)
    if label is not None:
        label = _integer("label", label)
    if id_range is not None:
        try:
            lo, hi = id_range
        except (TypeError, ValueError):
            raise ValidationError(f"id_range {id_range!r} is not a (low, high) pair") from None
        id_range = (_integer("id_range low", lo), _integer("id_range high", hi))
    return user, label, id_range


def _build_records(ids: Sequence[int], users: Sequence[bytes | str], labels: Sequence[int],
                   created_at: Sequence[int], vectors: bytearray | np.ndarray, vector_len: int,
                   where: Callable[[int], str]) -> list[VectorRecord]:
    """The VectorRecords of a fetch's hits, in the order given.

    vectors is a writable buffer of the hits' float32 values, joined;
    each record gets its own row of it. A user given as bytes is decoded
    once per distinct value, and every record of a user shares one str;
    one that is not UTF-8 raises SchemaMismatch with where(i), which
    names the first hit i that holds it. The records are made by
    tuple.__new__ over the zipped columns, so no Python code runs per
    record.
    """
    names = dict.fromkeys(users)
    for user in names:
        try:
            names[user] = user if isinstance(user, str) else user.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaMismatch(f"{where(users.index(user))} is not UTF-8") from exc
    rows = np.frombuffer(vectors, dtype="<f4").reshape(len(users), vector_len)
    fields = zip(ids, map(names.__getitem__, users), labels, rows, created_at)
    return list(map(tuple.__new__, repeat(VectorRecord), fields))


def _gather(data: bytes, at: np.ndarray, width: int) -> np.ndarray:
    """The width bytes of data at each offset in at, as a (len(at), width) copy."""
    windows = np.ndarray((max(len(data) - width + 1, 0), width), np.uint8, data, strides=(1, 1))
    return windows[at]


class _Index(NamedTuple):
    """The records of one file's bytes as columns, in file order."""
    data: bytes               # the whole file the index was scanned from
    offsets: np.ndarray       # int64 byte offset of each record
    ids: np.ndarray           # uint64
    user_codes: dict          # user bytes -> code
    users: np.ndarray         # int64 code of each record's user
    user_bytes: np.ndarray    # object array of the user bytes, by code
    labels: np.ndarray        # uint8
    created_at: np.ndarray    # int64
    vectors: np.ndarray       # int64 byte offset of each vector
    in_id_order: bool


class _Header(NamedTuple):
    version: int
    count: int
    start: int  # offset of the first record
    end: int    # committed byte length; records lie in [start, end)


class VectorStore:
    """Interface both backends implement."""

    def init_schema(self) -> None:
        raise NotImplementedError

    def insert_batch(self, records: Sequence[VectorRecord]) -> int:
        raise NotImplementedError

    def fetch(self, user: str | None = None, label: int | None = None,
              id_range: tuple[int, int] | None = None) -> list[VectorRecord]:
        raise NotImplementedError

    def count(self) -> int:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class SqlVectorStore(VectorStore):
    """Vector records in a sqlite3 table, through SQL-92 statements
    with qmark parameters."""

    def __init__(self, connection: sqlite3.Connection, grid_size: int = 10):
        self._conn = connection
        self.grid_size = grid_size
        self._vector_len = grid_size * grid_size

    def init_schema(self) -> None:
        try:
            cur = self._conn.cursor()
            for statement in DDL:
                cur.execute(statement)
            self._conn.commit()
            # Probe the expected columns: an existing table with a
            # different layout fails here, not at first insert.
            cur.execute(
                "SELECT record_id, user_id, label, vec, created_at"
                " FROM trajectory_vectors WHERE 1=0"
            )
        except sqlite3.Error as exc:
            raise SchemaMismatch(f"schema init failed: {exc}") from exc

    def insert_batch(self, records: Sequence[VectorRecord]) -> int:
        if not records:
            return 0
        records = [_validate(r, self._vector_len) for r in records]
        cur = self._conn.cursor()
        try:
            cur.execute("SELECT MAX(record_id) FROM trajectory_vectors")
            row = cur.fetchone()
            next_id = (row[0] or 0) + 1
            cur.executemany(
                "INSERT INTO trajectory_vectors"
                " (record_id, user_id, label, vec, created_at)"
                " VALUES (?, ?, ?, ?, ?)",
                [
                    (next_id + i, r.user, r.label, r.vector.tobytes(), r.created_at)
                    for i, r in enumerate(records)
                ],
            )
            self._conn.commit()
        except sqlite3.Error as exc:
            self._conn.rollback()
            raise StorageError(f"insert failed: {exc}") from exc
        return len(records)

    def fetch(self, user=None, label=None, id_range=None) -> list[VectorRecord]:
        _, label, id_range = _filters(user, label, id_range)
        if id_range is not None:  # record ids are int64, and sqlite binds no wider int
            id_range = max(id_range[0], _INT64[0]), min(id_range[1], _INT64[1])
        if (label is not None and not 0 <= label <= 6) or (id_range and id_range[0] > id_range[1]):
            return []
        clauses, args = [], []
        if user is not None:
            clauses.append("user_id = ?")
            args.append(user)
        if label is not None:
            clauses.append("label = ?")
            args.append(label)
        if id_range is not None:
            clauses.append("record_id >= ? AND record_id <= ?")
            args.extend(id_range)
        sql = "SELECT record_id, user_id, label, vec, created_at FROM trajectory_vectors"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY record_id"
        try:
            rows = self._conn.cursor().execute(sql, args).fetchall()
        except sqlite3.Error as exc:
            raise StorageError(f"fetch failed: {exc}") from exc
        ids, users, labels, blobs, created = zip(*rows) if rows else ((),) * 5
        size = 4 * self._vector_len
        if set(map(len, blobs)) - {size}:
            rid, blob = next((r, b) for r, b in zip(ids, blobs) if len(b) != size)
            raise SchemaMismatch(f"vec of record {rid} holds {len(blob)} bytes, not {size}")
        return _build_records(ids, users, labels, created, bytearray().join(blobs),
                              self._vector_len, lambda i: f"user of record {ids[i]}")

    def count(self) -> int:
        try:
            cur = self._conn.cursor()
            cur.execute("SELECT COUNT(*) FROM trajectory_vectors")
            return int(cur.fetchone()[0])
        except sqlite3.Error as exc:
            raise StorageError(f"count failed: {exc}") from exc

    def close(self) -> None:
        self._conn.close()


class FileVectorStore(VectorStore):
    """Append-only binary store.

    Header (v2): magic "VLVS", version u16, grid_size u16, record count
    u64, committed byte length u64. Each record: record_id u64, user
    length u16 + UTF-8 bytes, label u8, created_at i64, then grid_size^2
    little-endian float32 values. Ids run 1..count in file order.

    A batch is written in place at the committed length and fsynced;
    the header rewrite that follows (and its own fsync) commits it, so
    bytes past the committed length are a torn append that readers
    ignore and the next insert overwrites. Only the empty file at init
    and the one-time rewrite of a v1 file (whose 16-byte header has no
    committed length) go through temp-file-then-rename.

    fetch reads the whole file on every call. While the file holds the
    same bytes as at the last scan, the index of that scan picks the
    hits; any other bytes are scanned, and checked, record by record.
    insert_batch extends the index with the records it appends, for the
    bytes the file holds after it, so a fetch after an insert parses no
    record again.
    """

    def __init__(self, path: str | Path, grid_size: int = 10):
        self.path = Path(path)
        self.grid_size = grid_size
        self._vector_len = grid_size * grid_size
        self._record_min = _RECORD_HEAD.size + _RECORD_TAIL.size + 4 * self._vector_len
        self._index: _Index | None = None  # of the file bytes last scanned
        if not self.path.parent.is_dir():
            raise ConnectionFailed(f"directory {self.path.parent} does not exist")

    def init_schema(self) -> None:
        if self.path.exists():
            self._read_header()  # validates magic/version/grid size
            return
        self._write_atomic(self._pack_header(0, _HEADER.size))

    def _pack_header(self, count: int, end: int) -> bytes:
        return _HEADER.pack(FILE_MAGIC, FILE_VERSION, self.grid_size, count, end)

    def _parse_header(self, data: bytes, size: int) -> _Header:
        """The header of a `size`-byte file whose first bytes are `data`."""
        if len(data) < _HEADER_V1.size:
            raise SchemaMismatch(f"{self.path}: file too short for store header")
        magic, version, grid_size, count = _HEADER_V1.unpack_from(data)
        if magic != FILE_MAGIC:
            raise SchemaMismatch(f"{self.path}: not a vector store file (bad magic)")
        if version == 1:
            start, end = _HEADER_V1.size, size
        elif version == FILE_VERSION:
            if len(data) < _HEADER.size:
                raise SchemaMismatch(f"{self.path}: file too short for v2 store header")
            start, end = _HEADER.size, _HEADER.unpack_from(data)[4]
            if not start <= end <= size:
                raise SchemaMismatch(
                    f"{self.path}: committed length {end} outside {start}..{size}"
                    " (file truncated or header corrupt)")
        else:
            raise SchemaMismatch(f"{self.path}: unsupported store version {version}")
        if grid_size != self.grid_size:
            raise SchemaMismatch(
                f"{self.path}: store grid size {grid_size} != requested {self.grid_size}"
            )
        if count > (end - start) // self._record_min:
            raise SchemaMismatch(
                f"{self.path}: header counts {count} records, more than"
                f" {end - start} bytes of records can hold")
        return _Header(version, count, start, end)

    def _read_header(self) -> _Header:
        try:
            with open(self.path, "rb") as fh:
                raw = fh.read(_HEADER.size)
                size = os.fstat(fh.fileno()).st_size
        except OSError as exc:
            raise ConnectionFailed(str(exc)) from exc
        return self._parse_header(raw, size)

    def _read_all(self) -> tuple[bytes, _Header]:
        try:
            data = self.path.read_bytes()
        except OSError as exc:
            raise ConnectionFailed(str(exc)) from exc
        return data, self._parse_header(data, len(data))

    def _write_atomic(self, content: bytes) -> None:
        fd, tmp_name = tempfile.mkstemp(dir=self.path.parent,
                                        prefix=self.path.name + ".")
        try:
            with os.fdopen(fd, "wb") as out:
                out.write(content)
                out.flush()
                os.fsync(out.fileno())
            os.replace(tmp_name, self.path)
        except OSError as exc:
            os.unlink(tmp_name)
            raise StorageError(f"write failed: {exc}") from exc

    def _scan(self, data: bytes, header: _Header, known: _Index | None = None) -> _Index:
        """Parse exactly `header.count` records from the committed bytes
        into the columns of an index. Given known, the index of the
        records that data's committed bytes begin with, only the records
        after them are parsed, and the index is known's extended."""
        end = header.end
        vector_bytes = 4 * self._vector_len
        rest = _RECORD_TAIL.size + vector_bytes  # label onwards
        head = _RECORD_HEAD.unpack_from
        offsets, ids, users = [], [], []
        done = 0 if known is None else known.ids.size
        offset = header.start if not done else int(known.vectors[-1]) + vector_bytes
        for _ in range(header.count - done):
            if offset + _RECORD_HEAD.size > end:
                raise SchemaMismatch(
                    f"{self.path}: record at byte {offset} is cut short at byte {end}")
            record_id, user_len = head(data, offset)
            user_at = offset + _RECORD_HEAD.size
            tail_at = user_at + user_len
            next_at = tail_at + rest
            if next_at > end:
                raise SchemaMismatch(
                    f"{self.path}: record at byte {offset} overruns the"
                    f" committed data ending at byte {end}")
            offsets.append(offset)
            ids.append(record_id)
            users.append(data[user_at:tail_at])
            offset = next_at
        if offset != end:
            raise SchemaMismatch(
                f"{self.path}: header counts {header.count} records, but {end - offset}"
                f" bytes follow the last one at byte {offset}")

        offsets = np.array(offsets, dtype=np.int64)
        tails = offsets + _RECORD_HEAD.size + np.fromiter(map(len, users), np.int64, len(users))
        codes = {} if known is None else dict(known.user_codes)
        for user in users:
            codes.setdefault(user, len(codes))
        columns = [offsets, np.array(ids, dtype=np.uint64),
                   np.fromiter(map(codes.__getitem__, users), np.int64, len(users)),
                   _gather(data, tails, 1).ravel(), _gather(data, tails + 1, 8).view("<i8").ravel(),
                   tails + _RECORD_TAIL.size]
        if known is not None:
            columns = [np.concatenate(pair) for pair in zip(
                (known.offsets, known.ids, known.users, known.labels, known.created_at,
                 known.vectors), columns)]
        offsets, ids, user_codes, labels, created_at, vectors = columns
        return _Index(
            data=data, offsets=offsets, ids=ids, user_codes=codes, users=user_codes,
            user_bytes=np.array(list(codes), dtype=object), labels=labels,
            created_at=created_at, vectors=vectors,
            in_id_order=bool(np.all(ids[1:] >= ids[:-1])))

    def _records(self, data: bytes, header: _Header,
                 user: bytes | None = None, label: int | None = None,
                 id_range: tuple[int, int] | None = None) -> list[VectorRecord]:
        """The records of the file bytes `data` that pass the _filters, in
        id order. The index of the last bytes scanned serves while the
        bytes are equal; other bytes are scanned anew."""
        index = self._index
        if index is None or index.data != data:
            index = self._index = self._scan(data, header)
        keep = np.ones(index.ids.size, dtype=bool)
        if user is not None:
            keep &= index.users == index.user_codes.get(user, -1)
        if label is not None:
            keep &= index.labels == label
        if id_range is not None:
            lo, hi = id_range
            keep &= (index.ids >= lo) & (index.ids <= hi)
        hits = np.flatnonzero(keep)
        offsets = index.offsets[hits]
        out = _build_records(
            index.ids[hits].tolist(), index.user_bytes[index.users[hits]].tolist(),
            index.labels[hits].tolist(), index.created_at[hits].tolist(),
            _gather(data, index.vectors[hits], 4 * self._vector_len),
            self._vector_len, lambda i: f"{self.path}: user of record at byte {offsets[i]}")
        if not index.in_id_order:
            out.sort(key=operator.attrgetter("record_id"))
        return out

    def _upgrade_v1(self) -> _Header:
        """Rewrite a v1 file as v2, once, before its first append."""
        data, header = self._read_all()
        ids = [r.record_id for r in self._records(data, header)]
        if ids != list(range(1, header.count + 1)):
            raise SchemaMismatch(
                f"{self.path}: v1 record ids are not 1..{header.count} in order;"
                " cannot upgrade to v2")
        body = data[header.start:header.end]
        end = _HEADER.size + len(body)
        self._write_atomic(self._pack_header(header.count, end) + body)
        return _Header(FILE_VERSION, header.count, _HEADER.size, end)

    def _pack_records(self, records: Sequence[VectorRecord], first_id: int) -> bytes:
        parts = []
        for i, record in enumerate(records):
            user = record.user.encode("utf-8")
            parts += (_RECORD_HEAD.pack(first_id + i, len(user)), user,
                      _RECORD_TAIL.pack(record.label, record.created_at),
                      record.vector.tobytes())
        return b"".join(parts)

    def insert_batch(self, records: Sequence[VectorRecord]) -> int:
        if not records:
            return 0
        records = [_validate(r, self._vector_len) for r in records]
        header = self._read_header()
        if header.version == 1:
            header = self._upgrade_v1()
        count, end = header.count, header.end
        payload = self._pack_records(records, count + 1)
        index, self._index = self._index, None
        try:
            with open(self.path, "r+b") as fh:
                # Write at the committed end, not at EOF, so a torn tail
                # is overwritten; the header rewrite is the commit point.
                new_end = end + len(payload)
                fh.seek(end)
                fh.write(payload)
                if os.fstat(fh.fileno()).st_size > new_end:
                    fh.truncate()
                fh.flush()
                os.fsync(fh.fileno())
                fh.seek(0)
                fh.write(self._pack_header(count + len(records), new_end))
                fh.flush()
                os.fsync(fh.fileno())
        except OSError as exc:
            raise StorageError(f"append to {self.path} failed: {exc}") from exc
        if index is not None and index.data[:_HEADER.size] == self._pack_header(count, end):
            # The file now holds the committed bytes the index was scanned
            # from, with this batch appended, if no other writer came in
            # between; fetch compares the bytes, so the index serves only
            # if so.
            new_header = _Header(FILE_VERSION, count + len(records), _HEADER.size, new_end)
            data = b"".join((self._pack_header(new_header.count, new_end),
                             index.data[_HEADER.size:end], payload))
            self._index = self._scan(data, new_header, index)
        return len(records)

    def fetch(self, user=None, label=None, id_range=None) -> list[VectorRecord]:
        filters = _filters(user, label, id_range)
        return self._records(*self._read_all(), *filters)

    def count(self) -> int:
        return self._read_header().count

    def close(self) -> None:
        self._index = None


def open_store(descriptor: str, grid_size: int = 10) -> VectorStore:
    """Open a store from a descriptor.

    "sqlite:<path>" (also "sqlite://<path>") selects the SQL backend;
    an empty path or ":memory:" gives an in-memory database. Any other
    descriptor is a file path for the binary backend.
    """
    if descriptor.startswith("sqlite:"):
        path = descriptor.removeprefix("sqlite:")
        if path.startswith("//"):
            path = path[2:]
        target = ":memory:" if path in ("", ":memory:") else path
        try:
            conn = sqlite3.connect(target)
        except sqlite3.Error as exc:
            raise ConnectionFailed(f"cannot open {descriptor}: {exc}") from exc
        return SqlVectorStore(conn, grid_size=grid_size)
    return FileVectorStore(descriptor, grid_size=grid_size)
