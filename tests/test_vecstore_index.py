"""The VLVS record index: a store that has fetched reuses the index of the
file bytes it last scanned only while the file holds those same bytes."""

import sqlite3

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veclstm.errors import SchemaMismatch, VecLstmError
from veclstm.vecstore import FileVectorStore, SqlVectorStore, VectorRecord

from _oracles import record_loop_vlvs_fetch

USERS = ["ann", "bob", "çé"]


def make_records(n, seed, users=USERS):
    rng = np.random.default_rng(seed)
    return [VectorRecord(record_id=0, user=users[i % len(users)], label=int(rng.integers(7)),
                         vector=rng.normal(size=100).astype("<f4"),
                         created_at=int(rng.integers(-(2**40), 2**40)))
            for i in range(n)]


@pytest.fixture
def fetched(tmp_path):
    """A store with six records that has fetched once."""
    store = FileVectorStore(tmp_path / "v.vlvs")
    store.init_schema()
    store.insert_batch(make_records(6, seed=1))
    store.fetch()
    return store


@pytest.fixture(params=["vlvs", "sql"])
def either_fetched(request, fetched):
    """fetched, or a sqlite store that holds the same six records."""
    if request.param == "vlvs":
        yield fetched
        return
    store = SqlVectorStore(sqlite3.connect(":memory:"))
    store.init_schema()
    store.insert_batch(make_records(6, seed=1))
    yield store
    store.close()


def fresh_fetch(path, **query):
    return FileVectorStore(path).fetch(**query)


def test_same_length_rewrite_by_another_writer_is_read(fetched, tmp_path):
    before = fetched.fetch()
    other = FileVectorStore(tmp_path / "other.vlvs")
    other.init_schema()
    other.insert_batch(make_records(6, seed=2))  # same users, so the same length
    new_bytes = other.path.read_bytes()
    assert len(new_bytes) == fetched.path.stat().st_size
    fetched.path.write_bytes(new_bytes)
    got = fetched.fetch()
    assert got == other.fetch() != before
    assert fetched.fetch(label=got[0].label) == other.fetch(label=got[0].label)


def test_torn_tail_past_committed_end_leaves_results_unchanged(fetched):
    queries = [{}, {"user": "bob"}, {"label": 3}, {"id_range": (2, 5)}]
    before = [fetched.fetch(**q) for q in queries]
    with open(fetched.path, "ab") as fh:
        fh.write(b"\x07" * 333)
    assert [fetched.fetch(**q) for q in queries] == before


def test_insert_fetch_insert_fetch(fetched):
    first = make_records(2, seed=3)
    fetched.insert_batch(first)
    got = fetched.fetch()
    assert [r.record_id for r in got] == list(range(1, 9))
    assert got[6:] == [VectorRecord(7 + i, r.user, r.label, r.vector, r.created_at)
                       for i, r in enumerate(first)]
    fetched.insert_batch(make_records(1, seed=4, users=["dee"]))
    assert [r.record_id for r in fetched.fetch(user="dee")] == [9]
    assert fetched.fetch() == fresh_fetch(fetched.path)


def test_non_utf8_user_raises_on_first_fetch_and_on_repeat(fetched):
    raw = bytearray(fetched.path.read_bytes())
    # The third record (user "çé", 4 bytes) gets bytes that are not UTF-8.
    at = raw.index("çé".encode())
    raw[at:at + 4] = b"\xff\xfe\xfd\xfc"
    fetched.path.write_bytes(bytes(raw))
    offset = at - 10  # the record starts at its 8-byte id and 2-byte length
    for _ in range(2):
        with pytest.raises(SchemaMismatch, match=f"record at byte {offset} is not UTF-8"):
            fetched.fetch()
    # Only hits are decoded.
    assert [r.user for r in fetched.fetch(user="ann")] == ["ann", "ann"]
    assert fetched.fetch(id_range=(1, 2)) == fresh_fetch(fetched.path, id_range=(1, 2))


@pytest.mark.parametrize("lo", [-(2**70), -1, 0, 3, 2**64 - 1, 2**64, 2**70])
@pytest.mark.parametrize("hi", [-(2**70), -1, 0, 4, 2**64 - 1, 2**64, 2**70])
def test_id_range_beyond_u64_compares_as_python_ints(either_fetched, lo, hi):
    everything = either_fetched.fetch()
    assert either_fetched.fetch(id_range=(lo, hi)) == \
        [r for r in everything if lo <= r.record_id <= hi]


def test_returned_vectors_are_writable_copies(fetched):
    first = fetched.fetch()
    assert all(r.vector.flags.writeable for r in first)
    kept = [r.vector.copy() for r in first]
    for r in first:
        r.vector[:] = 0.0
    assert [r.vector.tolist() for r in fetched.fetch()] == [v.tolist() for v in kept]


def test_close_drops_the_index(fetched):
    fetched.close()
    assert fetched._index is None
    assert fetched.fetch() == fresh_fetch(fetched.path)


def test_sql_vector_of_the_wrong_size_is_a_schema_mismatch():
    conn = sqlite3.connect(":memory:")
    store = SqlVectorStore(conn)
    store.init_schema()
    store.insert_batch(make_records(3, seed=5))
    conn.execute("UPDATE trajectory_vectors SET vec = zeroblob(396) WHERE record_id = 2")
    with pytest.raises(SchemaMismatch, match="record 2 holds 396 bytes, not 400"):
        store.fetch()
    assert [r.record_id for r in store.fetch(id_range=(3, 3))] == [3]
    store.close()


def _outcome(call):
    """The records a call returns, by field and vector bytes (a flipped
    bit may make a NaN, which np.array_equal calls unequal to itself),
    or the type and message of the error it raises."""
    try:
        records = call()
    except VecLstmError as exc:
        return type(exc), str(exc)
    return [(r.record_id, r.user, r.label, r.created_at, r.vector.tobytes()) for r in records]


QUERIES = st.fixed_dictionaries({}, optional={
    "user": st.sampled_from(USERS + ["nobody"]),
    "label": st.integers(-1, 8),
    "id_range": st.tuples(st.integers(-2, 12), st.integers(-2, 12)),
})

# Steps on the file: a batch appended through the long-lived store, its
# bytes damaged, cut or extended, or restored to an earlier state.
STEPS = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 3), st.integers(0, 2**31)),
    st.tuples(st.just("flip"), st.integers(0, 2**31), st.integers(0, 7)),
    st.tuples(st.just("cut"), st.integers(0, 2**31)),
    st.tuples(st.just("tail"), st.binary(max_size=40)),
    st.tuples(st.just("restore"), st.integers(0, 2**31)),
)


@given(steps=st.lists(st.tuples(STEPS, st.lists(QUERIES, min_size=1, max_size=3)),
                      max_size=12))
@settings(max_examples=150, deadline=None)
def test_long_lived_store_matches_a_fresh_one_and_the_record_loop(tmp_path_factory, steps):
    path = tmp_path_factory.mktemp("diff") / "v.vlvs"
    store = FileVectorStore(path)
    store.init_schema()
    store.insert_batch(make_records(4, seed=0))
    store.fetch()
    snapshots = [path.read_bytes()]
    for step, queries in steps:
        raw = path.read_bytes()
        if step[0] == "insert":
            try:
                store.insert_batch(make_records(step[1], seed=step[2]))
            except VecLstmError:
                pass
        elif step[0] == "flip" and raw:
            out = bytearray(raw)
            out[step[1] % len(raw)] ^= 1 << step[2]
            path.write_bytes(bytes(out))
        elif step[0] == "cut":
            path.write_bytes(raw[:step[1] % (len(raw) + 1)])
        elif step[0] == "tail":
            path.write_bytes(raw + step[1])
        elif step[0] == "restore":
            path.write_bytes(snapshots[step[1] % len(snapshots)])
        snapshots.append(path.read_bytes())
        for query in queries:
            got = _outcome(lambda: store.fetch(**query))
            assert got == _outcome(lambda: fresh_fetch(path, **query))
            assert got == _outcome(lambda: record_loop_vlvs_fetch(store, **query))


def assert_same_index(got, want):
    for name, a, b in zip(got._fields, got, want):
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        else:
            assert a == b, name


def test_insert_extends_the_index_instead_of_a_rescan(tmp_path, monkeypatch):
    store = FileVectorStore(tmp_path / "v.vlvs")
    store.init_schema()
    store.insert_batch(make_records(5, seed=20))
    scan = FileVectorStore._scan
    full_scans = []

    def counted(self, data, header, known=None):
        if self is store:
            full_scans.append(known is None)
        return scan(self, data, header, known)

    monkeypatch.setattr(FileVectorStore, "_scan", counted)
    store.fetch()
    for i in range(4):
        batch = make_records(3 + i, seed=21 + i, users=[USERS[i % 3], f"new{i}"])
        store.insert_batch(batch)
        got = store.fetch(user=f"new{i}")
        assert [r.user for r in got] == [f"new{i}"] * len(got) and got
        assert store.fetch(id_range=(1, 5)) == fresh_fetch(store.path, id_range=(1, 5))
    # The first fetch scanned the file; each insert after it parsed only
    # the records it appended, and no fetch parsed a record again.
    assert full_scans == [True] + [False] * 4
    data = store.path.read_bytes()
    assert_same_index(store._index, scan(store, data, store._parse_header(data, len(data))))
    assert store.fetch() == fresh_fetch(store.path)


def test_extended_index_does_not_serve_after_another_writer(fetched):
    fetched.insert_batch(make_records(2, seed=30))
    FileVectorStore(fetched.path).insert_batch(make_records(3, seed=31, users=["eve"]))
    assert [r.record_id for r in fetched.fetch(user="eve")] == [9, 10, 11]
    assert fetched.fetch() == fresh_fetch(fetched.path)
