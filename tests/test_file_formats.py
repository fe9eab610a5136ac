"""Damaged binary files: a truncated or bit-flipped VLNN checkpoint or VLVS
store either still reads or raises a typed VecLstmError, never a bare
ValueError, struct.error or UnicodeDecodeError."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veclstm.errors import VecLstmError
from veclstm.neuralnet import load_checkpoint, save_checkpoint
from veclstm.vecstore import FileVectorStore, VectorRecord

from conftest import flip_bit

USERS = ["ann", "böb", "ç"]


def _records(n, seed):
    rng = np.random.default_rng(seed)
    return [VectorRecord(record_id=0, user=USERS[i % 3], label=i % 7,
                         vector=rng.normal(size=100).astype("<f4"),
                         created_at=int(rng.integers(-(2**40), 2**40)))
            for i in range(n)]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("formats")


@pytest.fixture(scope="module")
def vlnn_bytes(workdir):
    rng = np.random.default_rng(0)
    path = workdir / "valid.vlnn"
    save_checkpoint(path, {"lstm1.w_i": rng.normal(size=(4, 3)),
                           "head.b": rng.normal(size=3),
                           "scalar": np.array(2.5),
                           "conv.k": rng.normal(size=(2, 1, 3))})
    return path.read_bytes()


@pytest.fixture(scope="module")
def vlvs_store(workdir):
    """(committed file bytes, torn tail bytes, every committed record)."""
    path = workdir / "valid.vlvs"
    store = FileVectorStore(path)
    store.init_schema()
    store.insert_batch(_records(3, seed=1))
    store.insert_batch(_records(2, seed=2))
    committed = path.read_bytes()
    store.insert_batch(_records(2, seed=3))
    torn_tail = path.read_bytes()[len(committed):]
    path.write_bytes(committed)
    return committed, torn_tail, store.fetch()


def _read_checkpoint(path, data):
    path.write_bytes(data)
    try:
        with np.errstate(invalid="ignore"):  # a flipped value may be a signalling NaN
            load_checkpoint(path)
    except VecLstmError:
        pass


def _read_store(path, data):
    path.write_bytes(data)
    store = FileVectorStore(path)
    for call in (store.count, store.fetch, lambda: store.fetch(user=USERS[1]),
                 lambda: store.fetch(label=2), lambda: store.fetch(id_range=(2, 4))):
        try:
            call()
        except VecLstmError:
            pass


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_vlnn_truncation_reads_or_raises_typed(workdir, vlnn_bytes, data):
    cut = data.draw(st.integers(0, len(vlnn_bytes) - 1))
    _read_checkpoint(workdir / "cut.vlnn", vlnn_bytes[:cut])


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_vlnn_bit_flip_reads_or_raises_typed(workdir, vlnn_bytes, data):
    bit = data.draw(st.integers(0, 8 * len(vlnn_bytes) - 1))
    _read_checkpoint(workdir / "flip.vlnn", flip_bit(vlnn_bytes, bit))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_vlvs_truncation_reads_or_raises_typed(workdir, vlvs_store, data):
    committed, _, _ = vlvs_store
    cut = data.draw(st.integers(0, len(committed) - 1))
    _read_store(workdir / "cut.vlvs", committed[:cut])


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_vlvs_bit_flip_reads_or_raises_typed(workdir, vlvs_store, data):
    committed, _, _ = vlvs_store
    bit = data.draw(st.integers(0, 8 * len(committed) - 1))
    _read_store(workdir / "flip.vlvs", flip_bit(committed, bit))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_vlvs_truncation_past_end_keeps_every_committed_record(workdir, vlvs_store, data):
    committed, torn_tail, records = vlvs_store
    cut = data.draw(st.integers(0, len(torn_tail)))
    path = workdir / "torn.vlvs"
    path.write_bytes(committed + torn_tail[:cut])
    store = FileVectorStore(path)
    assert store.count() == len(records)
    assert store.fetch() == records
