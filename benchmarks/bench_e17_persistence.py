"""E17 — persistence: WAL journaling cost, fold compaction, recovery.

Four measurements over the durable-state layer (``repro.store``):

* **Journal density** (deterministic): a fixed 240-mutation workload
  produces a byte-deterministic WAL; ops-per-KB is a pure function of
  the record framing + canonical-JSON codec, so any drift is a format
  change. ``benchmarks/check_counts.py`` pins the same framing's
  density exactly (E20's ``store.wal_bytes_per_set``).

* **Fold compaction** (deterministic): the same workload with periodic
  folding; the ratio of unfolded journal bytes to folded resident bytes
  (snapshot + live WAL tail) is the compaction win.

* **Crash-recovery equivalence** (deterministic): the crash matrix as a
  metric — at every interesting crash offset, recovery must equal the
  exact mutation prefix below the cut. The asserted metric is the
  fraction of offsets where it does: anything under 1.0 is a recovery
  bug.

* **Wall-clock cost** (recorded, not gated): journaled mutation
  throughput in memory vs on disk (fsync-always vs fsync-never — the
  price of durability per op), and cold-recovery speed from a
  2000-record on-disk journal.
"""

from __future__ import annotations

import tempfile
import time

import pytest

from benchmarks._util import print_table
from repro.dapplet.state import PersistentState
from repro.errors import BackendCrash
from repro.obs import Tracer
from repro.store import (
    FSYNC_ALWAYS,
    FSYNC_NEVER,
    CrashPoint,
    DurableState,
    FileBackend,
    MemoryBackend,
)
from repro.store.wal import interesting_offsets

N_OPS = 240
FOLD_EVERY = 24
N_FILE_OPS = 120
N_RECOVERY_RECORDS = 2000


def apply_ops_one(state: PersistentState, i: int) -> None:
    """The ``i``-th mutation of the deterministic workload: a mix of
    sets, deletes and restores with varied value shapes (strings,
    bytes, tuples, nested dicts)."""
    region = state.region(f"r{i % 3}")
    if i % 11 == 7:
        region.delete(f"k{(i - 3) % 17}")
    elif i % 29 == 13:
        region.restore({f"k{j}": (j, f"v{j}") for j in range(i % 5)})
    else:
        region.set(f"k{i % 17}", {
            "i": i, "text": "x" * (i % 23),
            "blob": bytes([i % 256]) * (i % 7), "pair": (i, -i)})


def apply_ops(state: PersistentState, n: int) -> None:
    for i in range(n):
        apply_ops_one(state, i)


class _Host:
    """Minimal substrate stand-in: store tracing needs ``tracer``/``now``."""

    def __init__(self):
        self.tracer = None
        self.now = 0.0


def run_journal_density() -> dict:
    host = _Host()
    tracer = Tracer(categories=["store"], metrics_only=True).attach(host)
    backend = MemoryBackend()
    durable = DurableState(backend, name="d", snapshot_every=0,
                           substrate=host, node="bench")
    apply_ops(PersistentState(durable), N_OPS)
    wal_bytes = len(backend.read("d.wal"))
    summary = tracer.summary()
    return {
        "ops": N_OPS,
        "appends": durable.stats.appends,
        "wal_bytes": wal_bytes,
        "bytes_per_op": wal_bytes / N_OPS,
        "ops_per_kb": N_OPS / (wal_bytes / 1024),
        "fsyncs": summary["histograms"]["store.fsync"]["count"],
    }


def run_fold_compaction() -> dict:
    flat = MemoryBackend()
    apply_ops(PersistentState(DurableState(flat, name="d",
                                           snapshot_every=0)), N_OPS)
    unfolded = len(flat.read("d.wal"))

    folded = MemoryBackend()
    durable = DurableState(folded, name="d", snapshot_every=FOLD_EVERY)
    apply_ops(PersistentState(durable), N_OPS)
    resident = len(folded.read("d.wal")) + len(folded.read("d.snap"))
    return {
        "unfolded_bytes": unfolded,
        "resident_bytes": resident,
        "appends": durable.stats.appends,
        "folds": durable.stats.folds,
        "compaction": unfolded / resident,
    }


def run_crash_recovery_equivalence() -> dict:
    """The crash matrix as a single guarded number."""
    golden_backend = MemoryBackend()
    golden = PersistentState(DurableState(golden_backend, name="d",
                                          snapshot_every=0))
    ends, prefix_states = [0], [golden.snapshot()]
    for i in range(N_OPS):
        apply_ops_one(golden, i)
        ends.append(len(golden_backend.read("d.wal")))
        prefix_states.append(golden.snapshot())
    full_wal = golden_backend.read("d.wal")

    offsets = interesting_offsets(full_wal)
    equal = torn = 0
    for offset in offsets:
        backend = MemoryBackend()
        backend.install_crash_point(CrashPoint(after_bytes=offset))
        state = PersistentState(DurableState(backend, name="d",
                                             snapshot_every=0))
        try:
            for i in range(N_OPS):
                apply_ops_one(state, i)
        except BackendCrash:
            pass
        backend.reset_crash()
        recovering = DurableState(backend, name="d")
        recovered = PersistentState(recovering)
        torn += recovering.stats.torn_tails
        expected = max(i for i, end in enumerate(ends) if end <= offset)
        if recovered.snapshot() == prefix_states[expected]:
            equal += 1
    return {
        "offsets": len(offsets),
        "torn_recoveries": torn,
        "equal": equal / len(offsets),
    }


def run_wall_journal(kind: str, fsync: str, n: int) -> dict:
    """Wall-clock journaled-mutation throughput."""
    with tempfile.TemporaryDirectory() as tmp:
        if kind == "mem":
            backend = MemoryBackend()
        else:
            backend = FileBackend(tmp)
        state = PersistentState(DurableState(backend, name="d",
                                             snapshot_every=0, fsync=fsync))
        start = time.perf_counter()
        for i in range(n):
            apply_ops_one(state, i)
        elapsed = time.perf_counter() - start
        if kind == "file":
            backend.close()
    return {"ops": n, "elapsed": elapsed, "ops_per_s": n / elapsed}


def run_wall_recovery(records: int) -> dict:
    """Cold recovery from an on-disk journal of ``records`` mutations."""
    with tempfile.TemporaryDirectory() as tmp:
        backend = FileBackend(tmp)
        state = PersistentState(DurableState(backend, name="d",
                                             snapshot_every=0,
                                             fsync=FSYNC_NEVER))
        for i in range(records):
            apply_ops_one(state, i)
        backend.close()
        cold = FileBackend(tmp)
        start = time.perf_counter()
        durable = DurableState(cold, name="d")
        recovered = PersistentState(durable)
        elapsed = time.perf_counter() - start
        assert recovered.snapshot() == state.snapshot()
        cold.close()
    return {"records": durable.stats.replayed, "elapsed": elapsed,
            "records_per_s": durable.stats.replayed / elapsed}


@pytest.fixture(scope="module")
def results():
    return {
        "sim/wal": run_journal_density(),
        "sim/fold": run_fold_compaction(),
        "sim/recovery": run_crash_recovery_equivalence(),
        "mem/journal": run_wall_journal("mem", FSYNC_ALWAYS, N_OPS),
        "file/journal_fsync": run_wall_journal("file", FSYNC_ALWAYS,
                                               N_FILE_OPS),
        "file/journal_nofsync": run_wall_journal("file", FSYNC_NEVER,
                                                 N_OPS),
        "file/recovery": run_wall_recovery(N_RECOVERY_RECORDS),
    }


def test_e17_table_and_shape(results, benchmark):
    wal, fold, rec = (results["sim/wal"], results["sim/fold"],
                      results["sim/recovery"])
    print_table(
        "E17a: journal density and fold compaction (deterministic)",
        ["ops", "WAL bytes", "bytes/op", "ops/KB", "folds", "compaction"],
        [[wal["ops"], wal["wal_bytes"], f"{wal['bytes_per_op']:.1f}",
          f"{wal['ops_per_kb']:.1f}", fold["folds"],
          f"{fold['compaction']:.2f}x"]])
    print_table(
        "E17b: crash matrix — recovery equals the prefix below the cut",
        ["crash offsets", "torn recoveries", "equal"],
        [[rec["offsets"], rec["torn_recoveries"],
          f"{rec['equal']:.3f}"]])
    rows = [[label, r["ops"], f"{r['ops_per_s']:.0f}"]
            for label, r in (("memory", results["mem/journal"]),
                             ("file, fsync always",
                              results["file/journal_fsync"]),
                             ("file, fsync never",
                              results["file/journal_nofsync"]))]
    print_table("E17c: journaled mutation throughput (wall clock)",
                ["backend", "ops", "ops/s"], rows)
    cold = results["file/recovery"]
    print_table("E17d: cold recovery from disk (wall clock)",
                ["records", "elapsed (s)", "records/s"],
                [[cold["records"], f"{cold['elapsed']:.3f}",
                  f"{cold['records_per_s']:.0f}"]])

    # Shape claims. The recovery equivalence is the tentpole: every
    # single crash offset recovers the exact prefix state.
    assert rec["equal"] == 1.0
    assert rec["torn_recoveries"] > 0       # the matrix did tear records
    assert fold["compaction"] > 1.5         # folding genuinely compacts
    # One fold per FOLD_EVERY journal records (no-op deletes journal
    # nothing, so the record count trails the op count slightly).
    assert fold["folds"] == fold["appends"] // FOLD_EVERY
    assert wal["fsyncs"] == wal["appends"]  # fsync-always: one per record
    # Every journaled record is replayed (no-op deletes journal none).
    assert results["file/recovery"]["records"] > 0.95 * N_RECOVERY_RECORDS
    # Durability has a price and skipping it shows: fsync-never beats
    # fsync-always on the file backend.
    assert (results["file/journal_nofsync"]["ops_per_s"]
            > results["file/journal_fsync"]["ops_per_s"])

    benchmark(run_journal_density)
