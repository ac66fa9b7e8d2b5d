"""Summary parity: what the metrics fold must equal, event for event.

For every corpus case, a full ``Tracer()`` and a ``Tracer(metrics_only=
True)`` must report the same ``summary()`` (apart from ``events``, which
counts retained records in one mode and counted events in the other),
and both must equal a reference fold this test computes itself from the
full run's JSONL records: one count per event under ``"<cat>.<ev>"``
globally, per ``node`` and per ``ch``, and every histogram field folded
into its metric's count, sum, extremes and log2 buckets.

The reference is written from the definitions, not from the tracer's
code, so it pins what any faster per-event path must still fold.
"""

import functools
import json

import pytest

from repro.obs import replay
from repro.obs.tracer import Tracer

from tests.obs.test_corpus import CASES

#: Event field -> histogram metric, as documented in ``repro.obs.tracer``.
HISTOGRAM_FIELDS = {"rtt": "ep.rtt", "wait": "mbox.wait", "cwnd": "ep.cwnd",
                    "rlat": "dir.resolve", "dlat": "ep.dlat",
                    "slat": "ep.skip_wait", "fsync": "store.fsync",
                    "replay": "store.replay", "route": "tok.route",
                    "clat": "reg.check"}

#: Bucket upper bounds: 1 µs doubling 27 times; above the last, overflow.
BOUNDS = [1e-6 * 2 ** i for i in range(27)]


def bucket_of(value):
    """Index of the first bound ``value`` is <= to; ``None`` = overflow."""
    for i, bound in enumerate(BOUNDS):
        if value <= bound:
            return i
    return None


def reference_fold(jsonl):
    counters, per_node, per_channel, values = {}, {}, {}, {}
    for line in jsonl.splitlines():
        record = json.loads(line)
        key = f"{record['cat']}.{record['ev']}"
        counters[key] = counters.get(key, 0) + 1
        for table, owner in ((per_node, record.get("node")),
                             (per_channel, record.get("ch"))):
            if owner is not None:
                by = table.setdefault(owner, {})
                by[key] = by.get(key, 0) + 1
        for field, metric in HISTOGRAM_FIELDS.items():
            if record.get(field) is not None:
                values.setdefault(metric, []).append(record[field])
    histograms = {}
    for metric, seen in values.items():
        buckets, overflow = {}, 0
        for value in seen:
            i = bucket_of(value)
            if i is None:
                overflow += 1
            else:
                label = f"le_{BOUNDS[i]:.6g}"
                buckets[label] = buckets.get(label, 0) + 1
        histograms[metric] = {
            "count": len(seen), "sum": functools.reduce(
                lambda a, b: a + b, seen, 0.0),
            "min": min(seen), "max": max(seen),
            "buckets": buckets, "overflow": overflow}
    return counters, per_node, per_channel, histograms


@pytest.mark.parametrize(
    "case_path", [case_path for case_path, _ in CASES],
    ids=[case_path.stem for case_path, _ in CASES])
def test_full_and_metrics_only_fold_exactly_the_reference(case_path,
                                                          monkeypatch):
    case = json.loads(case_path.read_text())
    full = replay.run_case(case)
    monkeypatch.setattr(replay, "Tracer",
                        functools.partial(Tracer, metrics_only=True))
    cheap = replay.run_case(case)
    full_summary, cheap_summary = full.summary(), cheap.summary()
    assert full_summary["events"] == cheap_summary["events"] == len(full)
    del full_summary["events"], cheap_summary["events"]
    assert full_summary == cheap_summary
    assert json.dumps(full_summary) == json.dumps(cheap_summary)

    counters, per_node, per_channel, histograms = reference_fold(
        full.to_jsonl())
    assert full_summary["counters"] == counters
    assert full_summary["per_node"] == per_node
    assert full_summary["per_channel"] == per_channel
    assert set(full_summary["histograms"]) == set(histograms)
    for metric, want in histograms.items():
        got = full_summary["histograms"][metric]
        for name, value in want.items():
            assert got[name] == value, (metric, name)
        assert got["mean"] == want["sum"] / want["count"]
