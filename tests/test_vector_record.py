"""VectorRecord's contract, and the fields both stores keep of a record."""

import operator
import pickle

import numpy as np
import pytest

from veclstm.errors import ValidationError
from veclstm.vecstore import FileVectorStore, VectorRecord, open_store

FIELDS = ("record_id", "user", "label", "vector", "created_at")


def record(record_id=1, user="alice", label=3, vector=(0.5, -1.0, 2.0), created_at=7):
    return VectorRecord(record_id=record_id, user=user, label=label,
                        vector=np.array(vector, dtype="<f4"), created_at=created_at)


@pytest.fixture(params=["file", "sql"])
def store(request, tmp_path):
    if request.param == "file":
        backend = FileVectorStore(tmp_path / "vectors.vlvs", grid_size=2)
    else:
        backend = open_store("sqlite::memory:", grid_size=2)
    backend.init_schema()
    yield backend
    backend.close()


def stored(user="alice", label=3, created_at=1_600_000_000, seed=0):
    vector = np.random.default_rng(seed).normal(size=4).astype("<f4")
    return VectorRecord(0, user, label, vector, created_at)


class TestContract:
    def test_keyword_and_positional_construction(self):
        vector = np.arange(3, dtype="<f4")
        by_keyword = VectorRecord(record_id=1, user="u", label=2, vector=vector, created_at=5)
        by_position = VectorRecord(1, "u", 2, vector, 5)
        assert by_keyword == by_position
        assert VectorRecord._fields == FIELDS
        assert [getattr(by_position, name) for name in FIELDS] == [1, "u", 2, vector, 5]

    def test_equal_when_every_field_is(self):
        assert record() == record()
        assert not record() != record()

    @pytest.mark.parametrize("field, other", [
        ("record_id", 2), ("user", "bob"), ("label", 4), ("created_at", 8),
        ("vector", (0.5, -1.0, 2.5)), ("vector", (0.5, -1.0)),
    ])
    def test_unequal_when_one_field_differs(self, field, other):
        changed = record(**{field: other})
        assert (record() == changed) is False
        assert (record() != changed) is True
        assert (changed != record()) is True

    def test_unequal_to_a_plain_tuple_of_equal_fields(self):
        plain = tuple(record())
        assert (record() == plain) is False and (plain == record()) is False
        assert (record() != plain) is True and (plain != record()) is True

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(record())
        with pytest.raises(TypeError):
            {record()}

    @pytest.mark.parametrize("name", [*FIELDS, "extra"])
    def test_immutable(self, name):
        rec = record()
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
        assert rec == record()

    @pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge])
    def test_unordered(self, op):
        # Not even by record_id, as tuple order would have it, nor
        # against a plain tuple on either side.
        low, high = record(record_id=1), record(record_id=2)
        for left, right in ((low, high), (high, low), (low, tuple(high)), (tuple(low), high)):
            with pytest.raises(TypeError):
                op(left, right)

    def test_pickle_round_trip(self):
        rec = record(user="élève", created_at=-(2**63))
        back = pickle.loads(pickle.dumps(rec))
        assert type(back) is VectorRecord
        assert back == rec
        assert back.vector.dtype == np.dtype("<f4")


class TestFetchedRecords:
    def test_each_owns_its_vector_row_and_each_user_one_str(self, store):
        store.insert_batch([stored(user=user, seed=i) for i, user in
                            enumerate(["u1", "u2", "u1", "u1", "u2"])])
        records = store.fetch()
        assert all(type(r) is VectorRecord for r in records)
        for i, a in enumerate(records):
            assert a.vector.flags.writeable
            assert not any(np.shares_memory(a.vector, b.vector) for b in records[i + 1:])
        for user in ("u1", "u2"):
            assert len({id(r.user) for r in records if r.user == user}) == 1
        before = [r.vector.copy() for r in records]
        records[0].vector[:] = 99.0
        assert all(np.array_equal(r.vector, v) for r, v in zip(records[1:], before[1:]))
        assert store.fetch()[0] == VectorRecord(1, "u1", 3, before[0], 1_600_000_000)


class TestStoredIntegers:
    @pytest.mark.parametrize("value", [np.int64(3), np.uint8(3), np.int16(3), 3])
    def test_numpy_integer_label_is_stored_as_an_int(self, store, value):
        store.insert_batch([stored(label=value)])
        (got,) = store.fetch()
        assert type(got.label) is int and got.label == 3
        assert store.fetch(label=3) == [got]

    @pytest.mark.parametrize("value", [np.int64(-5), np.uint32(4_000_000_000),
                                       np.int64(2**63 - 1)])
    def test_numpy_integer_created_at_is_stored_as_an_int(self, store, value):
        store.insert_batch([stored(created_at=value)])
        (got,) = store.fetch()
        assert type(got.created_at) is int and got.created_at == int(value)

    @pytest.mark.parametrize("field, value", [
        ("label", 3.0), ("label", np.float64(3.0)), ("label", "3"), ("label", None),
        ("created_at", 1.6e9), ("created_at", np.float32(7.0)), ("created_at", "7"),
    ])
    def test_non_integer_is_a_validation_error_naming_the_field(self, store, field, value):
        store.insert_batch([stored()])
        with pytest.raises(ValidationError, match=f"^{field} .* is not an integer$"):
            store.insert_batch([stored(), stored(**{field: value})])
        assert store.count() == 1

    def test_both_backends_store_the_same_fields(self, tmp_path):
        batch = [stored(user="u", label=np.int64(i % 7), created_at=np.int32(i), seed=i)
                 for i in range(9)]
        fetched = []
        for backend in (FileVectorStore(tmp_path / "v.vlvs", grid_size=2),
                        open_store("sqlite::memory:", grid_size=2)):
            with backend:
                backend.init_schema()
                backend.insert_batch(batch)
                fetched.append(backend.fetch())
        file_records, sql_records = fetched
        assert file_records == sql_records
        assert [(type(r.label), type(r.created_at)) for r in file_records + sql_records] \
            == [(int, int)] * 18
