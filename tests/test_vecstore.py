"""Store tests: round trips, filters, idempotence, model-based conformance."""

import struct

import numpy as np
import pytest

from veclstm.errors import ConnectionFailed, SchemaMismatch, ValidationError
from veclstm.vecstore import FileVectorStore, VectorRecord, open_store


def make_record(user="alice", label=3, seed=0, created_at=1_600_000_000, n=100):
    rng = np.random.default_rng(seed)
    return VectorRecord(record_id=0, user=user, label=label,
                        vector=rng.normal(size=n).astype("<f4"),
                        created_at=created_at)


@pytest.fixture(params=["file", "sql"])
def store(request, tmp_path):
    if request.param == "file":
        backend = FileVectorStore(tmp_path / "vectors.vlvs")
    else:
        backend = open_store("sqlite::memory:")
    backend.init_schema()
    yield backend
    backend.close()


class TestBasics:
    def test_fresh_store_is_empty(self, store):
        assert store.count() == 0
        assert store.fetch() == []

    def test_init_twice_is_noop(self, store):
        store.insert_batch([make_record()])
        store.init_schema()
        assert store.count() == 1

    def test_empty_batch(self, store):
        assert store.insert_batch([]) == 0
        assert store.count() == 0

    def test_ids_strictly_increase_across_batches(self, store):
        store.insert_batch([make_record(seed=i) for i in range(3)])
        store.insert_batch([make_record(seed=9)])
        ids = [r.record_id for r in store.fetch()]
        assert ids == sorted(ids)
        assert len(set(ids)) == 4

    def test_round_trip_bit_identical(self, store):
        record = make_record(user="bob", label=6, seed=5, created_at=123456)
        assert store.insert_batch([record]) == 1
        (got,) = store.fetch()
        assert got.user == "bob"
        assert got.label == 6
        assert got.created_at == 123456
        assert got.vector.dtype == np.float32
        assert got.vector.tobytes() == record.vector.astype("<f4").tobytes()

    def test_wrong_vector_length_rejected(self, store):
        with pytest.raises(ValidationError):
            store.insert_batch([make_record(n=99)])
        assert store.count() == 0

    def test_out_of_range_label_rejected(self, store):
        with pytest.raises(ValidationError):
            store.insert_batch([make_record(label=9)])

    def test_user_longer_than_u16_rejected(self, store):
        store.insert_batch([make_record(user="\u00e9" * 32767 + "a")])  # 65,535 bytes
        with pytest.raises(ValidationError):
            store.insert_batch([make_record(user="\u00e9" * 32768)])  # 65,536 bytes
        assert store.count() == 1

    def test_created_at_outside_int64_rejected(self, store):
        store.insert_batch([make_record(created_at=-(2**63)),
                            make_record(created_at=2**63 - 1)])
        for created_at in (2**63, -(2**63) - 1):
            with pytest.raises(ValidationError):
                store.insert_batch([make_record(created_at=created_at)])
        assert [r.created_at for r in store.fetch()] == [-(2**63), 2**63 - 1]

    def test_user_that_is_not_utf8_rejected(self, store):
        # A lone surrogate: what Path.iterdir makes of a name that is not UTF-8.
        store.insert_batch([make_record(user="a")])
        with pytest.raises(ValidationError, match=r"user 'a\\udcff' is not valid UTF-8"):
            store.insert_batch([make_record(user="a\udcff")])
        with pytest.raises(ValidationError, match="not valid UTF-8"):
            store.fetch(user="a\udcff")
        assert [r.user for r in store.fetch(user="a")] == ["a"]

    @pytest.mark.parametrize("user", [123, b"a", None])
    def test_user_that_is_not_a_str_rejected(self, store, user):
        with pytest.raises(ValidationError, match=f"user {user!r} is not a str"):
            store.insert_batch([make_record(user=user)])
        assert store.count() == 0


class TestFetchFilters:
    def populate(self, store):
        records = []
        for i, (user, label) in enumerate(
                [("u1", 0), ("u1", 3), ("u2", 3), ("u2", 5), ("u1", 3)]):
            records.append(make_record(user=user, label=label, seed=i))
        store.insert_batch(records)
        return records

    def test_absent_user(self, store):
        self.populate(store)
        assert store.fetch(user="nobody") == []

    def test_unfiltered_in_id_order(self, store):
        self.populate(store)
        ids = [r.record_id for r in store.fetch()]
        assert ids == [1, 2, 3, 4, 5]

    def test_filters_match_scan_oracle(self, store):
        self.populate(store)
        everything = store.fetch()
        got = store.fetch(user="u1", label=3)
        expected = [r for r in everything if r.user == "u1" and r.label == 3]
        assert got == expected

    def test_id_range(self, store):
        self.populate(store)
        got = store.fetch(id_range=(2, 4))
        assert [r.record_id for r in got] == [2, 3, 4]

    def test_numpy_integer_filters_match_python_ints(self, store):
        self.populate(store)
        assert store.fetch(label=np.int64(3)) == store.fetch(label=3) != []
        assert store.fetch(id_range=(np.int64(2), np.uint64(4))) == store.fetch(id_range=(2, 4))
        assert store.fetch(id_range=[2, 4]) == store.fetch(id_range=(2, 4)) != []

    @pytest.mark.parametrize("query, field", [
        ({"label": "3"}, "label"), ({"label": 3.0}, "label"), ({"label": [3]}, "label"),
        ({"id_range": (1,)}, "id_range"), ({"id_range": (1, 2, 3)}, "id_range"),
        ({"id_range": 4}, "id_range"), ({"id_range": (1, "4")}, "id_range high"),
        ({"id_range": (1.0, 4)}, "id_range low"), ({"user": 123}, "user"),
        ({"user": b"u1"}, "user"),
    ])
    def test_malformed_filter_names_its_field(self, store, query, field):
        self.populate(store)
        with pytest.raises(ValidationError, match=f"^{field} "):
            store.fetch(**query)

    @pytest.mark.parametrize("label", [-1, 7, 2**70, -(2**70)])
    def test_label_outside_the_codes_matches_nothing(self, store, label):
        self.populate(store)
        assert store.fetch(label=label) == []

    def test_count_equals_unfiltered_fetch(self, store):
        self.populate(store)
        assert store.count() == len(store.fetch()) == 5


class TestFileBackend:
    def test_nonexistent_directory(self, tmp_path):
        with pytest.raises(ConnectionFailed):
            FileVectorStore(tmp_path / "no" / "such" / "dir" / "x.vlvs")

    def test_survives_reopen(self, tmp_path):
        path = tmp_path / "v.vlvs"
        first = FileVectorStore(path)
        first.init_schema()
        records = [make_record(user=f"u{i}", label=i % 7, seed=i) for i in range(4)]
        first.insert_batch(records)
        before = first.fetch()
        first.close()

        again = FileVectorStore(path)
        again.init_schema()
        assert again.count() == 4
        assert again.fetch() == before

    def test_header_layout(self, tmp_path):
        path = tmp_path / "v.vlvs"
        backend = FileVectorStore(path, grid_size=10)
        backend.init_schema()
        raw = path.read_bytes()
        assert raw[:4] == b"VLVS"
        assert int.from_bytes(raw[4:6], "little") == 2
        assert int.from_bytes(raw[6:8], "little") == 10
        assert int.from_bytes(raw[8:16], "little") == 0  # record count
        assert int.from_bytes(raw[16:24], "little") == 24 == len(raw)  # committed end

    def test_grid_size_mismatch(self, tmp_path):
        path = tmp_path / "v.vlvs"
        FileVectorStore(path, grid_size=10).init_schema()
        with pytest.raises(SchemaMismatch):
            FileVectorStore(path, grid_size=8).init_schema()

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "junk.vlvs"
        path.write_bytes(b"NOT A STORE AT ALL")
        with pytest.raises(SchemaMismatch):
            FileVectorStore(path).init_schema()


def v1_file_bytes(records, count=None, ids=None, grid_size=10):
    """A store file in the v1 layout: 16-byte header, then the records."""
    ids = range(1, len(records) + 1) if ids is None else ids
    out = struct.pack("<4sHHQ", b"VLVS", 1, grid_size,
                      len(records) if count is None else count)
    for record_id, r in zip(ids, records):
        user = r.user.encode("utf-8")
        out += struct.pack("<QH", record_id, len(user)) + user
        out += struct.pack("<Bq", r.label, r.created_at)
        out += np.asarray(r.vector, dtype="<f4").tobytes()
    return out


def record_size(user="alice", n=100):
    return 8 + 2 + len(user.encode("utf-8")) + 1 + 8 + 4 * n


def committed_end(path):
    return int.from_bytes(path.read_bytes()[16:24], "little")


class TestCommitProtocol:
    def test_torn_tail_is_ignored_then_overwritten(self, tmp_path):
        path = tmp_path / "v.vlvs"
        backend = FileVectorStore(path)
        backend.init_schema()
        backend.insert_batch([make_record(seed=i) for i in range(3)])
        before = backend.fetch()
        end = committed_end(path)
        # A torn append: bytes past the committed end, header unchanged.
        # Longer than the next batch, so that insert must cut it off.
        with open(path, "ab") as fh:
            fh.write(make_record(seed=7).vector.tobytes() * 3)
        assert path.stat().st_size > end + record_size()
        assert backend.count() == 3
        assert backend.fetch() == before

        backend.insert_batch([make_record(seed=9)])
        assert committed_end(path) == end + record_size()
        assert path.stat().st_size == committed_end(path)
        after = backend.fetch()
        assert after[:3] == before
        assert [r.record_id for r in after] == [1, 2, 3, 4]
        assert after[3].vector.tobytes() == make_record(seed=9).vector.tobytes()

    def test_v1_file_reads_back_and_upgrades_on_insert(self, tmp_path):
        path = tmp_path / "old.vlvs"
        records = [make_record(user=u, label=i % 7, seed=i, created_at=1000 + i)
                   for i, u in enumerate(["ann", "bo", "ann", "c\u00e9"])]
        path.write_bytes(v1_file_bytes(records))
        expected = [VectorRecord(record_id=i + 1, user=r.user, label=r.label,
                                 vector=r.vector, created_at=r.created_at)
                    for i, r in enumerate(records)]
        backend = FileVectorStore(path)
        backend.init_schema()
        assert backend.count() == 4
        assert backend.fetch() == expected
        assert backend.fetch(user="ann") == [expected[0], expected[2]]
        assert path.read_bytes()[4:6] == b"\x01\x00"  # reading leaves it v1

        backend.insert_batch([make_record(user="dee", seed=50),
                              make_record(user="ann", seed=51)])
        raw = path.read_bytes()
        assert int.from_bytes(raw[4:6], "little") == 2
        assert int.from_bytes(raw[8:16], "little") == 6
        assert committed_end(path) == len(raw)
        got = backend.fetch()
        assert got[:4] == expected
        assert [r.record_id for r in got[4:]] == [5, 6]
        assert [r.user for r in got[4:]] == ["dee", "ann"]

    @pytest.mark.parametrize("count", [3, 5])
    def test_v1_count_disagreeing_with_records(self, tmp_path, count):
        path = tmp_path / "old.vlvs"
        path.write_bytes(v1_file_bytes([make_record(seed=i) for i in range(4)], count=count))
        backend = FileVectorStore(path)
        with pytest.raises(SchemaMismatch, match="old.vlvs"):
            backend.fetch()
        with pytest.raises(SchemaMismatch):
            backend.insert_batch([make_record()])

    def test_v1_ids_not_one_to_count_are_read_but_not_upgraded(self, tmp_path):
        path = tmp_path / "old.vlvs"
        raw = v1_file_bytes([make_record(seed=i) for i in range(3)], ids=[1, 2, 7])
        path.write_bytes(raw)
        backend = FileVectorStore(path)
        assert [r.record_id for r in backend.fetch()] == [1, 2, 7]
        with pytest.raises(SchemaMismatch, match="1..3"):
            backend.insert_batch([make_record()])
        assert path.read_bytes() == raw

    def test_insert_appends_in_place(self, tmp_path):
        path = tmp_path / "v.vlvs"
        backend = FileVectorStore(path)
        backend.init_schema()
        backend.insert_batch([make_record(seed=1)])
        inode, size = path.stat().st_ino, path.stat().st_size
        backend.insert_batch([make_record(user="bob", seed=2), make_record(user="cy", seed=3)])
        assert path.stat().st_ino == inode
        assert path.stat().st_size == size + record_size("bob") + record_size("cy")
        assert path.stat().st_size == committed_end(path)

    def test_committed_end_past_file_size(self, tmp_path):
        path = tmp_path / "v.vlvs"
        backend = FileVectorStore(path)
        backend.init_schema()
        backend.insert_batch([make_record(seed=i) for i in range(2)])
        raw = path.read_bytes()
        path.write_bytes(raw[:-1])
        for call in (backend.count, backend.fetch, backend.init_schema):
            with pytest.raises(SchemaMismatch, match=f"outside 24..{len(raw) - 1}"):
                call()


class TestSqlBackend:
    def test_sqlite_file_descriptor(self, tmp_path):
        descriptor = f"sqlite:{tmp_path}/vec.db"
        store = open_store(descriptor)
        store.init_schema()
        store.insert_batch([make_record()])
        store.close()
        reopened = open_store(descriptor)
        reopened.init_schema()
        assert reopened.count() == 1
        reopened.close()

    def test_incompatible_existing_table(self, tmp_path):
        import sqlite3
        db = tmp_path / "bad.db"
        conn = sqlite3.connect(db)
        conn.execute("CREATE TABLE trajectory_vectors (wrong TEXT)")
        conn.commit()
        conn.close()
        store = open_store(f"sqlite:{db}")
        with pytest.raises(SchemaMismatch):
            store.init_schema()


class ReferenceStore:
    """In-memory model the backends must agree with."""

    def __init__(self):
        self.records = []

    def insert_batch(self, records):
        next_id = max((r.record_id for r in self.records), default=0) + 1
        for i, r in enumerate(records):
            self.records.append(VectorRecord(
                record_id=next_id + i, user=r.user, label=r.label,
                vector=np.asarray(r.vector, dtype="<f4"),
                created_at=r.created_at))
        return len(records)

    def fetch(self, user=None, label=None, id_range=None):
        out = [r for r in self.records
               if (user is None or r.user == user)
               and (label is None or r.label == label)
               and (id_range is None or id_range[0] <= r.record_id <= id_range[1])]
        return sorted(out, key=lambda r: r.record_id)

    def count(self):
        return len(self.records)


class TestModelBased:
    def test_500_random_operations_match_reference(self, tmp_path):
        """Acceptance-grade conformance: both backends mirror the model."""
        rng = np.random.default_rng(2024)
        file_store = FileVectorStore(tmp_path / "model.vlvs")
        file_store.init_schema()
        sql_store = open_store("sqlite::memory:")
        sql_store.init_schema()
        reference = ReferenceStore()
        users = ["u0", "u1", "u2"]

        for step in range(500):
            op = rng.choice(["insert", "fetch", "count"], p=[0.3, 0.5, 0.2])
            if op == "insert":
                batch = [
                    make_record(user=users[rng.integers(0, 3)],
                                label=int(rng.integers(0, 7)),
                                seed=int(rng.integers(0, 2**31)),
                                created_at=int(rng.integers(0, 2**31)))
                    for _ in range(rng.integers(0, 4))
                ]
                n_file = file_store.insert_batch(batch)
                n_sql = sql_store.insert_batch(batch)
                n_ref = reference.insert_batch(batch)
                assert n_file == n_sql == n_ref
            elif op == "fetch":
                user = users[rng.integers(0, 3)] if rng.random() < 0.5 else None
                label = int(rng.integers(0, 7)) if rng.random() < 0.5 else None
                id_range = None
                if rng.random() < 0.3:
                    lo = int(rng.integers(0, 20))
                    id_range = (lo, lo + int(rng.integers(0, 30)))
                expected = reference.fetch(user, label, id_range)
                assert file_store.fetch(user, label, id_range) == expected, step
                assert sql_store.fetch(user, label, id_range) == expected, step
            else:
                assert file_store.count() == sql_store.count() == reference.count()

        sql_store.close()
