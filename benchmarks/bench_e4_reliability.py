"""E4 — the ordering layer over UDP (paper §3.2) under faults (§2.2).

Scenario: a 200-message stream caltech -> rice under increasing
datagram loss, raw datagrams vs the reliable-FIFO layer — the latter in
both recovery modes: pure cumulative ACKs (the seed protocol) and the
default SACK + fast-retransmit + delayed-ack protocol. Metrics:
delivered count, FIFO integrity, mean delivery latency, retransmits.

Shape claims: the raw baseline (the UNRELIABLE delivery class since the
per-outbox class refactor) loses wire arrivals in proportion to the
drop rate, and under jitter its freshness filter stale-drops reordered
arrivals rather than presenting them out of order — the application
sees an ordered subsequence, never corruption, but pays for disorder in
dropped messages. The reliable layer delivers everything in order at
every loss level, paying latency that grows with loss. Ablation claim:
at every lossy level SACK retransmits less and delivers sooner than
cumulative-only, because holes are fast-retransmitted after duplicate
ACKs instead of stalling a full RTO and the already-buffered tail stays
off the wire.
"""

from __future__ import annotations

import pytest

from benchmarks._util import print_table
from repro import Dapplet, World
from repro.messages import Text
from repro.net import RELIABLE, UNRELIABLE, ConstantLatency, FaultPlan


class Node(Dapplet):
    kind = "node"


N = 200


def run_stream(drop: float, reliable: bool, seed: int = 9, *,
               sack: bool = True):
    options = (dict(rto_initial=0.1, max_retries=60, sack=sack,
                    ack_delay=0.01 if sack else 0.0) if reliable else {})
    world = World(seed=seed, latency=ConstantLatency(0.02),
                  faults=FaultPlan(drop_prob=drop, duplicate_prob=0.05,
                                   reorder_jitter=0.05),
                  endpoint_options=options)
    src = world.dapplet(Node, "caltech.edu", "src")
    dst = world.dapplet(Node, "rice.edu", "dst")
    arrivals: list[tuple[float, int]] = []
    inbox = dst.create_inbox(name="in")
    inbox.delivery_hooks.append(
        lambda m: (arrivals.append((world.now, int(m.text))), m)[1])
    outbox = src.create_outbox(delivery=RELIABLE if reliable else UNRELIABLE)
    outbox.add(inbox.named_address)
    send_times = {}
    for i in range(N):
        send_times[i] = world.now
        outbox.send(Text(str(i)))
    world.run()
    seq = [s for _, s in arrivals]
    latencies = [t - send_times[s] for t, s in arrivals]
    return {
        "delivered": len(set(seq)),
        # Raw mode: what actually crossed the wire — app deliveries plus
        # the reordered arrivals the UNRELIABLE freshness filter dropped
        # as stale. Loss proportionality shows here, not in `delivered`.
        "arrived": len(set(seq)) + dst.endpoint.stats.stale_dropped,
        "fifo": seq == sorted(set(seq)),
        "mean_latency": (sum(latencies) / len(latencies)) if latencies else 0,
        "retransmits": src.endpoint.stats.data_retransmitted,
        "fast_retransmits": src.endpoint.stats.fast_retransmits,
        "acks": dst.endpoint.stats.acks_sent,
    }


@pytest.fixture(scope="module")
def results():
    drops = (0.0, 0.1, 0.3, 0.5)
    table = {}
    for drop in drops:
        for mode, kwargs in (("raw", {"reliable": False}),
                             ("cum", {"reliable": True, "sack": False}),
                             ("sack", {"reliable": True, "sack": True})):
            table[(drop, mode)] = run_stream(drop, **kwargs)
    return drops, table


def test_e4_table_and_shape(results, benchmark):
    drops, table = results
    rows = []
    for drop in drops:
        raw = table[(drop, "raw")]
        cum = table[(drop, "cum")]
        sel = table[(drop, "sack")]
        rows.append([f"{drop:.0%}", raw["arrived"], raw["delivered"],
                     f"{cum['mean_latency']*1000:.1f}", cum["retransmits"],
                     f"{sel['mean_latency']*1000:.1f}", sel["retransmits"],
                     sel["fast_retransmits"]])
    print_table("E4: raw vs ordering layer, cumulative vs SACK (200 msgs)",
                ["drop", "raw wire", "raw recv", "cum lat (ms)", "cum rtx",
                 "sack lat (ms)", "sack rtx", "fast rtx"], rows)

    for drop in drops:
        for mode in ("cum", "sack"):
            rel = table[(drop, mode)]
            assert rel["delivered"] == N and rel["fifo"]
    # Shape: raw wire arrivals shrink with the drop fraction, and the
    # UNRELIABLE freshness filter keeps app deliveries an ordered
    # subsequence of them (stale reordered arrivals dropped, not
    # presented out of order).
    assert table[(0.3, "raw")]["arrived"] < 0.85 * N
    assert table[(0.5, "raw")]["arrived"] < table[(0.1, "raw")]["arrived"]
    for drop in drops:
        raw = table[(drop, "raw")]
        assert raw["fifo"]
        assert raw["delivered"] <= raw["arrived"]
    # Shape: reliable latency grows with loss; retransmits too.
    for mode in ("cum", "sack"):
        lat = [table[(d, mode)]["mean_latency"] for d in drops]
        assert lat[-1] > lat[0]
        rtx = [table[(d, mode)]["retransmits"] for d in drops]
        assert rtx == sorted(rtx) and rtx[-1] > 0
    # Ablation: at every lossy level SACK both retransmits less and
    # delivers sooner than cumulative-only.
    for drop in drops[1:]:
        cum = table[(drop, "cum")]
        sel = table[(drop, "sack")]
        assert sel["retransmits"] < cum["retransmits"]
        assert sel["mean_latency"] < cum["mean_latency"]
        assert sel["fast_retransmits"] > 0
    # Delayed acks also thin the reverse path (fewer ACK datagrams than
    # the one-per-DATA cumulative baseline).
    assert table[(0.1, "sack")]["acks"] < table[(0.1, "cum")]["acks"]

    benchmark(run_stream, 0.3, True)
