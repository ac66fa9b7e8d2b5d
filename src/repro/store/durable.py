"""``DurableState``: a journaled, snapshotting layer over a backend.

The shape is the classic persistable-object design: every mutation is
appended to a write-ahead log *before* it is applied in memory, and the
log is periodically folded into a snapshot so recovery stays O(recent
mutations), not O(history)::

    recover() = snapshot + valid WAL prefix

Each journal record carries a monotone sequence number; a snapshot
records the sequence it folded up to, so recovery replays exactly the
records newer than the snapshot — a crash *between* writing the
snapshot and truncating the WAL is therefore harmless (the stale
records are skipped by sequence, not re-applied).

One ``DurableState`` owns a key namespace inside its backend::

    <name>.wal          the journal (WAL records, appended)
    <name>.snap         the latest snapshot (one record, replaced atomically)
    <name>.<key>        named objects (checkpoint cuts; one record each)
    <name>.<key>        named logs (checkpoint channel messages; appended)

Values are encoded with the message codec's value encoder
(:func:`repro.messages.serialize.encode_value`), so everything that can
cross the wire can also be replayed from disk — and anything that
cannot fails typed *before* any byte is written or any in-memory state
changes.

Trace events (category ``store``) cover appends, fsyncs, folds and
recoveries; ``fsync``/``replay`` duration fields feed the
``store.fsync``/``store.replay`` histograms (wall-clock on file
backends; exactly 0.0 on :class:`~repro.store.MemoryBackend`, keeping
simulated traces deterministic).
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable

from repro.errors import StoreError
from repro.messages.serialize import decode_value, encode_value
from repro.obs.metrics import Counters
from repro.store import wal
from repro.store.backend import StorageBackend

#: ``fsync`` policies: after every append / only when folding / never.
FSYNC_ALWAYS = "always"
FSYNC_FOLD = "fold"
FSYNC_NEVER = "never"
_FSYNC_POLICIES = (FSYNC_ALWAYS, FSYNC_FOLD, FSYNC_NEVER)

StateDict = dict[str, dict[str, Any]]


class DurableStats(Counters):
    """Journaling counters of one durable state (all monotonic)."""

    layer = "store"
    __slots__ = ("appends", "folds", "recoveries", "replayed", "skipped",
                 "torn_tails", "objects_saved")


def _canonical(payload: Any) -> bytes:
    """Canonical JSON bytes: the journal is a deterministic function of
    the mutation sequence, which the crash-matrix tests rely on."""
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


class DurableState:
    """Journals region mutations; folds them into snapshots; recovers.

    Parameters
    ----------
    backend:
        Where the bytes live (:class:`~repro.store.MemoryBackend`,
        :class:`~repro.store.FileBackend`, or anything satisfying
        :class:`~repro.store.StorageBackend`).
    name:
        This state's key namespace inside the backend (dapplets use
        ``dapplet/<name>``).
    snapshot_every:
        Fold the WAL into a snapshot automatically after this many
        journaled records (``0`` disables auto-folding). Folding needs
        ``state_fn``.
    state_fn:
        Zero-argument callable returning the full current state as
        ``{region: {key: value}}``; :class:`~repro.dapplet.state
        .PersistentState` wires its own ``snapshot`` here on attach.
    fsync:
        ``"always"`` (default) syncs the WAL after every append,
        ``"fold"`` only when folding/saving objects, ``"never"`` leaves
        durability to the backend.
    substrate:
        Optional substrate whose ``tracer`` receives ``store`` events;
        ``node`` labels them (the owning dapplet's address).
    """

    def __init__(self, backend: StorageBackend, *, name: str = "state",
                 snapshot_every: int = 256,
                 state_fn: Callable[[], StateDict] | None = None,
                 fsync: str = FSYNC_ALWAYS,
                 substrate: Any = None, node: Any = None) -> None:
        if fsync not in _FSYNC_POLICIES:
            raise StoreError(f"fsync must be one of {_FSYNC_POLICIES}, "
                             f"got {fsync!r}")
        if snapshot_every < 0:
            raise StoreError("snapshot_every must be >= 0")
        self.backend = backend
        self.name = name
        self.snapshot_every = snapshot_every
        self.state_fn = state_fn
        self.fsync = fsync
        self._substrate = substrate
        self._node = node
        self._seq = 0
        self._since_fold = 0
        self.stats = DurableStats()

    # -- keys --------------------------------------------------------------

    @property
    def wal_key(self) -> str:
        return f"{self.name}.wal"

    @property
    def snap_key(self) -> str:
        return f"{self.name}.snap"

    def object_key(self, key: str) -> str:
        return f"{self.name}.{key}"

    def wal_bytes(self) -> bytes:
        """The raw journal bytes (tests and tooling read these)."""
        return self.backend.read(self.wal_key)

    # -- journaling --------------------------------------------------------

    def journal(self, region: str, op: dict[str, Any]) -> int:
        """Append one mutation record; returns its sequence number.

        ``op`` is ``{"o": "s"|"d"|"r", ...}`` (set / delete / restore)
        with raw Python values — encoding happens here, and an
        unencodable value raises
        :class:`~repro.errors.SerializationError` before anything is
        written, so callers can journal *first* and mutate memory only
        on success (write-ahead discipline end to end).
        """
        payload = {"q": self._seq + 1, "r": region}
        for field, value in op.items():
            payload[field] = encode_value(value) if field == "v" else value
        framed = wal.frame(_canonical(payload))
        self.backend.append(self.wal_key, framed)
        # The append is durable: past this point the record counts even
        # if a later fsync or fold crashes.
        self._seq += 1
        self._since_fold += 1
        self.stats.appends += 1
        self._emit("append", seq=self._seq, n=len(framed))
        if self.fsync == FSYNC_ALWAYS:
            self._sync(self.wal_key)
        if self.snapshot_every and self._since_fold >= self.snapshot_every \
                and self.state_fn is not None:
            # Write-ahead means the caller has not applied this record
            # in memory yet, so state_fn() lags the journal by exactly
            # this op — apply it to the fold's copy or the truncation
            # would silently drop it.
            state = self.state_fn()
            self._apply(state, payload)
            self.fold(state)
        return self._seq

    # -- snapshots ---------------------------------------------------------

    def fold(self, state: StateDict | None = None) -> None:
        """Fold the journal into a snapshot and truncate it.

        ``state`` defaults to ``state_fn()``. The snapshot is written
        atomically and stamped with the current sequence; the WAL is
        then reset. A crash between the two leaves stale records behind,
        which recovery skips by sequence.
        """
        if state is None:
            if self.state_fn is None:
                raise StoreError("fold() needs a state or a state_fn")
            state = self.state_fn()
        encoded = {region: {k: encode_value(v) for k, v in contents.items()}
                   for region, contents in state.items()}
        payload = _canonical({"q": self._seq, "s": encoded})
        self.backend.write(self.snap_key, wal.frame(payload))
        self.backend.write(self.wal_key, b"")
        if self.fsync != FSYNC_NEVER:
            self._sync(self.snap_key)
        self._since_fold = 0
        self.stats.folds += 1
        self._emit("fold", seq=self._seq, n=len(payload))

    # -- recovery ----------------------------------------------------------

    def recover(self) -> StateDict:
        """Rebuild the state: snapshot, then every newer valid record.

        Tolerates a torn WAL tail (the crash signature) by stopping at
        it; raises :class:`~repro.errors.StoreError` only for a corrupt
        *snapshot*, which atomic writes make impossible under the crash
        model — seeing it means real bit rot or misuse.
        """
        started = time.perf_counter()
        state: StateDict = {}
        snap_seq = 0
        raw_snap = self.backend.read(self.snap_key)
        if raw_snap:
            snap = json.loads(wal.single_record(raw_snap, what="snapshot"))
            snap_seq = snap["q"]
            state = {region: {k: decode_value(v)
                              for k, v in contents.items()}
                     for region, contents in snap["s"].items()}
        raw_wal = self.backend.read(self.wal_key)
        records, consumed, torn = wal.iter_records(raw_wal)
        replayed = skipped = 0
        last_seq = snap_seq
        for record in records:
            payload = json.loads(record)
            seq = payload["q"]
            if seq <= snap_seq:
                skipped += 1
                continue
            self._apply(state, payload)
            replayed += 1
            last_seq = seq
        self._seq = last_seq
        self._since_fold = replayed
        self.stats.recoveries += 1
        self.stats.replayed += replayed
        self.stats.skipped += skipped
        if torn:
            self.stats.torn_tails += 1
            # Truncate the torn tail: future appends must extend the
            # valid prefix, not pile up unreadably behind the garbage.
            self.backend.write(self.wal_key, raw_wal[:consumed])
        # Wall-clock replay duration only where durations are real
        # (file backends); 0.0 on the memory backend keeps simulated
        # traces byte-deterministic with store tracing enabled.
        duration = (time.perf_counter() - started
                    if getattr(self.backend, "wall_timed", True) else 0.0)
        self._emit("recover", seq=last_seq, records=replayed,
                   torn=int(torn), replay=duration)
        return state

    @staticmethod
    def _apply(state: StateDict, payload: dict[str, Any]) -> None:
        region = state.setdefault(payload["r"], {})
        op = payload["o"]
        if op == "s":
            region[payload["k"]] = decode_value(payload["v"])
        elif op == "d":
            region.pop(payload["k"], None)
        elif op == "r":
            state[payload["r"]] = {k: decode_value(v)
                                   for k, v in payload["v"].items()}
        else:  # an unknown op in a *checksummed* record is corruption
            raise StoreError(f"unknown journal op {op!r}")

    # -- named objects and logs (checkpoint cuts) --------------------------

    def save_object(self, key: str, obj: Any) -> None:
        """Atomically store ``obj`` under ``key`` (one checksummed record)."""
        payload = _canonical(encode_value(obj))
        self.backend.write(self.object_key(key), wal.frame(payload))
        if self.fsync != FSYNC_NEVER:
            self._sync(self.object_key(key))
        self.stats.objects_saved += 1
        self._emit("object", key=key, n=len(payload))

    def load_object(self, key: str) -> Any:
        """The object stored under ``key``, or ``None`` if absent."""
        raw = self.backend.read(self.object_key(key))
        if not raw:
            return None
        return decode_value(json.loads(
            wal.single_record(raw, what=f"object {key!r}")))

    def append_log(self, key: str, obj: Any) -> None:
        """Append ``obj`` as one record to the named log ``key``."""
        self.backend.append(self.object_key(key),
                            wal.frame(_canonical(encode_value(obj))))
        if self.fsync == FSYNC_ALWAYS:
            self._sync(self.object_key(key))

    def read_log(self, key: str) -> list[Any]:
        """Every valid record of the named log (torn tails tolerated)."""
        records, _, _ = wal.iter_records(
            self.backend.read(self.object_key(key)))
        return [decode_value(json.loads(r)) for r in records]

    # -- plumbing ----------------------------------------------------------

    def _sync(self, key: str) -> None:
        duration = self.backend.sync(key)
        self._emit("fsync", key=key, fsync=duration)

    def _emit(self, event: str, **fields: Any) -> None:
        substrate = self._substrate
        if substrate is None:
            return
        tracer = substrate.tracer
        if tracer is not None:
            tracer.emit("store", event, node=self._node, ns=self.name,
                        **fields)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<DurableState {self.name!r} seq={self._seq} "
                f"since_fold={self._since_fold}>")
