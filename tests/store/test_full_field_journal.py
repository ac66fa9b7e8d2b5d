"""A journal written before defaults stayed off the wire still recovers.

Messages in a region are journaled through the codec's value encoder,
which now leaves out every field that holds its default. WALs and
snapshots written earlier carry every field; recovery rebuilds the
left-out ones through ``cls(**fields)``, so both forms must recover to
the same durable state. The full-field records here are written by hand
with the test oracle's pre-elision encoder.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.messages import Blob, Text
from repro.net import NodeAddress
from repro.rpc.messages import Invoke, Reply
from repro.store import DurableState, FileBackend, MemoryBackend, wal
from tests.messages.test_codec_oracle import messages, oracle_encode

INBOX = NodeAddress("caltech.edu", 2000).inbox("rpc")

#: Values a region might hold, most with fields at their defaults.
VALUES = {
    "call": Invoke(call_id=1, method="ping"),
    "oneway": Invoke(call_id=2, method="note", args=("x",)),
    "asked": Invoke(call_id=3, method="get", reply_to=INBOX,
                    principal="alice"),
    "ok": Reply(call_id=1, ok=True),
    "failed": Reply(call_id=3, ok=False, error_type="KeyError",
                    error_message="'k'"),
    "empty": Blob(),
    "nested": [Blob({"r": Reply(call_id=4, ok=True, value=Text("v"))}),
               (Invoke(call_id=5, method="m"), None)],
}


def record(payload: dict) -> bytes:
    """One WAL record framed as ``DurableState`` frames it."""
    return wal.frame(json.dumps(payload, sort_keys=True,
                                separators=(",", ":")).encode("utf-8"))


def full_journal(backend, name: str, snapshot: dict, updates: dict) -> None:
    """A snapshot of ``snapshot`` at sequence 2, then a WAL holding one
    stale record (sequence 2, already folded) and one ``set`` per
    update, every message written with all of its fields."""
    backend.write(f"{name}.snap", record({"q": 2, "s": {
        region: {k: oracle_encode(v, full=True) for k, v in items.items()}
        for region, items in snapshot.items()}}))
    backend.append(f"{name}.wal", record(
        {"q": 2, "r": "rpc", "o": "d", "k": "call"}))
    for seq, (key, value) in enumerate(updates.items(), start=3):
        backend.append(f"{name}.wal", record(
            {"q": seq, "r": "rpc", "o": "s", "k": key,
             "v": oracle_encode(value, full=True)}))


def new_journal(backend, name: str, snapshot: dict, updates: dict) -> None:
    """The same state journaled by today's encoder."""
    d = DurableState(backend, name=name, snapshot_every=0)
    d.journal("rpc", {"o": "s", "k": "seed", "v": 0})
    d.journal("rpc", {"o": "d", "k": "seed"})
    d.fold(state=snapshot)
    for key, value in updates.items():
        d.journal("rpc", {"o": "s", "k": key, "v": value})


@pytest.fixture(params=["memory", "file"])
def backend(request, tmp_path):
    if request.param == "memory":
        yield MemoryBackend()
    else:
        fb = FileBackend(tmp_path / "store")
        yield fb
        fb.close()


def test_full_field_wal_and_snapshot_recover_the_same_state(backend):
    keys = list(VALUES)
    snapshot = {"rpc": {k: VALUES[k] for k in keys[:4]}}
    updates = {k: VALUES[k] for k in keys[4:]}
    full_journal(backend, "old", snapshot, updates)
    new_journal(backend, "new", snapshot, updates)
    assert len(backend.read("old.snap")) > len(backend.read("new.snap"))
    assert len(backend.read("old.wal")) > len(backend.read("new.wal"))

    old, new = DurableState(backend, name="old"), DurableState(
        backend, name="new")
    expected = {"rpc": {**snapshot["rpc"], **updates}}
    assert old.recover() == new.recover() == expected
    assert old.stats.skipped == 1 and old._seq == new._seq
    # Appends after recovery extend the old journal in the new form.
    old.journal("rpc", {"o": "s", "k": "after", "v": Reply(9, True)})
    assert DurableState(backend, name="old").recover() == \
        {"rpc": {**expected["rpc"], "after": Reply(9, True)}}


@settings(max_examples=100, deadline=None)
@given(st.lists(messages(), min_size=1, max_size=4))
def test_any_registered_message_recovers_from_its_full_field_record(items):
    backend = MemoryBackend()
    updates = {f"k{i}": m for i, m in enumerate(items)}
    full_journal(backend, "old", {}, updates)
    new_journal(backend, "new", {}, updates)
    assert DurableState(backend, name="old").recover() == \
        DurableState(backend, name="new").recover() == {"rpc": updates}
