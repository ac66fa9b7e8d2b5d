"""DurableState: journaling, folding, recovery, named objects, tracing."""

import json

import pytest

from repro.dapplet.state import PersistentState
from repro.errors import SerializationError, StoreError
from repro.messages import Text
from repro.obs import Tracer
from repro.store import (
    FSYNC_ALWAYS,
    FSYNC_FOLD,
    FSYNC_NEVER,
    DurableState,
    FileBackend,
    MemoryBackend,
)
from repro.store.wal import iter_records


@pytest.fixture(params=["memory", "file"])
def backend(request, tmp_path):
    if request.param == "memory":
        yield MemoryBackend()
    else:
        fb = FileBackend(tmp_path / "store")
        yield fb
        fb.close()


def test_journal_then_recover(backend):
    d = DurableState(backend, name="s", snapshot_every=0)
    d.journal("cal", {"o": "s", "k": "mon", "v": "busy"})
    d.journal("cal", {"o": "s", "k": "tue", "v": "free"})
    d.journal("cal", {"o": "d", "k": "mon"})
    d.journal("docs", {"o": "s", "k": "n", "v": 3})
    fresh = DurableState(backend, name="s")
    assert fresh.recover() == {"cal": {"tue": "free"}, "docs": {"n": 3}}


def test_recover_empty_store(backend):
    assert DurableState(backend, name="s").recover() == {}


def test_restore_op_replaces_region(backend):
    d = DurableState(backend, name="s", snapshot_every=0)
    d.journal("cal", {"o": "s", "k": "a", "v": 1})
    d.journal("cal", {"o": "r", "v": {"b": 2}})  # checkpoint rollback
    assert DurableState(backend, name="s").recover() == {"cal": {"b": 2}}


def test_fold_truncates_wal_and_recovery_matches(backend):
    d = DurableState(backend, name="s", snapshot_every=0)
    for i in range(10):
        d.journal("r", {"o": "s", "k": f"k{i}", "v": i})
    d.fold(state={"r": {f"k{i}": i for i in range(10)}})
    assert d.wal_bytes() == b""
    d.journal("r", {"o": "s", "k": "post", "v": "fold"})
    expected = {"r": {**{f"k{i}": i for i in range(10)}, "post": "fold"}}
    assert DurableState(backend, name="s").recover() == expected


def test_auto_fold_after_snapshot_every(backend):
    state = {"r": {}}
    d = DurableState(backend, name="s", snapshot_every=3,
                     state_fn=lambda: state)
    for i in range(7):
        state["r"][f"k{i}"] = i
        d.journal("r", {"o": "s", "k": f"k{i}", "v": i})
    assert d.stats.folds == 2  # at records 3 and 6
    records, _, _ = iter_records(d.wal_bytes())
    assert len(records) == 1  # only the 7th record since the last fold
    assert DurableState(backend, name="s").recover() == state


def test_stale_wal_records_skipped_by_sequence(backend):
    """A crash between writing the snapshot and truncating the WAL
    leaves stale records behind; recovery must skip them by sequence,
    not re-apply them over the snapshot."""
    d = DurableState(backend, name="s", snapshot_every=0)
    d.journal("r", {"o": "s", "k": "x", "v": "old"})
    d.journal("r", {"o": "d", "k": "x"})
    wal_before = d.wal_bytes()
    d.fold(state={"r": {"x": "folded"}})
    # Simulate the un-truncated WAL the crash would leave.
    backend.write(d.wal_key, wal_before)
    fresh = DurableState(backend, name="s")
    assert fresh.recover() == {"r": {"x": "folded"}}
    assert fresh.stats.skipped == 2
    assert fresh.stats.replayed == 0


def test_sequence_continues_after_recovery(backend):
    d = DurableState(backend, name="s", snapshot_every=0)
    d.journal("r", {"o": "s", "k": "a", "v": 1})
    fresh = DurableState(backend, name="s", snapshot_every=0)
    fresh.recover()
    fresh.journal("r", {"o": "s", "k": "b", "v": 2})
    # Both records survive a second recovery: no sequence collision.
    final = DurableState(backend, name="s")
    assert final.recover() == {"r": {"a": 1, "b": 2}}


def test_torn_tail_tolerated_and_counted(backend):
    d = DurableState(backend, name="s", snapshot_every=0)
    d.journal("r", {"o": "s", "k": "a", "v": 1})
    clean_wal = d.wal_bytes()
    backend.append(d.wal_key, b"\x00\x00\x00\x99torn")  # crash signature
    fresh = DurableState(backend, name="s", snapshot_every=0)
    assert fresh.recover() == {"r": {"a": 1}}
    assert fresh.stats.torn_tails == 1
    # Recovery truncated the garbage, so new appends stay readable.
    assert fresh.wal_bytes() == clean_wal
    fresh.journal("r", {"o": "s", "k": "b", "v": 2})
    assert DurableState(backend, name="s").recover() == \
        {"r": {"a": 1, "b": 2}}


def test_corrupt_snapshot_raises_typed(backend):
    d = DurableState(backend, name="s")
    backend.write(d.snap_key, b"this is not a record")
    with pytest.raises(StoreError, match="snapshot"):
        d.recover()


def test_unencodable_value_fails_before_any_write(backend):
    d = DurableState(backend, name="s", snapshot_every=0)
    with pytest.raises(SerializationError):
        d.journal("r", {"o": "s", "k": "bad", "v": object()})
    assert d.wal_bytes() == b""
    assert d.stats.appends == 0


def test_wire_types_roundtrip_through_journal(backend):
    """Everything the message codec handles — bytes, tuples, messages —
    must survive the journal byte-for-byte."""
    d = DurableState(backend, name="s", snapshot_every=0)
    d.journal("r", {"o": "s", "k": "blob", "v": b"\x00\xff\x80"})
    d.journal("r", {"o": "s", "k": "pair", "v": (1, ("a", b"b"))})
    d.journal("r", {"o": "s", "k": "msg", "v": Text("hello")})
    state = DurableState(backend, name="s").recover()
    assert state["r"]["blob"] == b"\x00\xff\x80"
    assert state["r"]["pair"] == (1, ("a", b"b"))
    assert isinstance(state["r"]["msg"], Text)
    assert state["r"]["msg"].text == "hello"


def test_wal_bytes_are_deterministic():
    def run():
        b = MemoryBackend()
        d = DurableState(b, name="s", snapshot_every=0)
        d.journal("r", {"o": "s", "k": "z", "v": {"b": 2, "a": 1}})
        d.journal("r", {"o": "s", "k": "y", "v": [3, (4, 5)]})
        d.journal("r", {"o": "d", "k": "z"})
        return d.wal_bytes()

    assert run() == run()  # canonical JSON: byte-identical journals


def test_named_objects_roundtrip(backend):
    d = DurableState(backend, name="dapplet/a")
    d.save_object("ckpt@7", {"state": {"r": {"k": (1, 2)}}, "clock": 7})
    loaded = DurableState(backend, name="dapplet/a").load_object("ckpt@7")
    assert loaded == {"state": {"r": {"k": (1, 2)}}, "clock": 7}
    assert d.load_object("ckpt@99") is None


def test_named_log_roundtrip(backend):
    d = DurableState(backend, name="dapplet/a")
    d.append_log("ckpt@7.chan", Text("one"))
    d.append_log("ckpt@7.chan", Text("two"))
    msgs = DurableState(backend, name="dapplet/a").read_log("ckpt@7.chan")
    assert [m.text for m in msgs] == ["one", "two"]
    assert d.read_log("ckpt@99.chan") == []


def test_fsync_policies(backend):
    always = DurableState(backend, name="a", fsync=FSYNC_ALWAYS,
                          snapshot_every=0)
    always.journal("r", {"o": "s", "k": "x", "v": 1})
    synced = backend.sync_calls
    assert synced >= 1
    never = DurableState(backend, name="n", fsync=FSYNC_NEVER,
                         snapshot_every=0)
    never.journal("r", {"o": "s", "k": "x", "v": 1})
    never.fold(state={"r": {"x": 1}})
    assert backend.sync_calls == synced  # untouched
    fold_only = DurableState(backend, name="f", fsync=FSYNC_FOLD,
                             snapshot_every=0)
    fold_only.journal("r", {"o": "s", "k": "x", "v": 1})
    assert backend.sync_calls == synced
    fold_only.fold(state={"r": {"x": 1}})
    assert backend.sync_calls == synced + 1


def test_constructor_validation():
    b = MemoryBackend()
    with pytest.raises(StoreError):
        DurableState(b, fsync="sometimes")
    with pytest.raises(StoreError):
        DurableState(b, snapshot_every=-1)
    with pytest.raises(StoreError, match="state_fn"):
        DurableState(b).fold()


class _Substrate:
    """Minimal tracer host: a settable ``tracer`` and a clock."""

    def __init__(self):
        self.tracer = None
        self.now = 0.0


def test_trace_events_and_histograms():
    substrate = _Substrate()
    tracer = Tracer().attach(substrate)
    b = MemoryBackend()
    d = DurableState(b, name="s", snapshot_every=0, substrate=substrate,
                     node="caltech.edu:1")
    d.journal("r", {"o": "s", "k": "a", "v": 1})
    d.fold(state={"r": {"a": 1}})
    DurableState(b, name="s", substrate=substrate,
                 node="caltech.edu:1").recover()
    names = {(e.cat, e.name) for e in tracer.events}
    assert ("store", "append") in names
    assert ("store", "fold") in names
    assert ("store", "fsync") in names
    assert ("store", "recover") in names
    summary = tracer.summary()
    assert summary["histograms"]["store.fsync"]["count"] >= 1
    assert summary["histograms"]["store.replay"]["count"] == 1
    # Memory backend: traced durations are exactly 0.0, so the JSONL is
    # a deterministic function of the mutation sequence.
    for event in tracer.select("store"):
        for field in ("fsync", "replay"):
            if field in event.fields:
                assert event.fields[field] == 0.0
    for line in tracer.to_jsonl().splitlines():
        json.loads(line)


def test_persistent_state_attach_guards():
    b = MemoryBackend()
    state = PersistentState(DurableState(b, name="s"))
    with pytest.raises(StoreError, match="already"):
        state.attach(DurableState(b, name="other"))
    late = PersistentState()
    late.region("r")
    with pytest.raises(StoreError, match="before the first"):
        late.attach(DurableState(b, name="late"))


def test_persistent_state_full_cycle(backend):
    durable = DurableState(backend, name="dapplet/a", snapshot_every=4)
    state = PersistentState(durable)
    cal = state.region("cal")
    for day in ("mon", "tue", "wed", "thu", "fri"):
        cal.set(day, "busy")  # the 4th set auto-folds
    cal.delete("tue")
    state.region("docs").set("draft", b"\x89PNG")
    reborn = PersistentState(DurableState(backend, name="dapplet/a"))
    assert reborn.snapshot() == state.snapshot()
    assert reborn.region("docs").get("draft") == b"\x89PNG"
    # The reborn state keeps journaling: a third incarnation sees its
    # writes too.
    reborn.region("cal").set("sat", "free")
    third = PersistentState(DurableState(backend, name="dapplet/a"))
    assert third.region("cal").get("sat") == "free"
