"""A1 (ablation) — retransmission-timeout sizing x recovery protocol.

The layer's default estimates the initial RTO as 4x the link's mean
latency (per destination, from the latency model). This ablation pits
that choice against fixed under- and over-estimates on a jittery,
lossy intercontinental link — and crosses the interesting arms with the
recovery protocol: pure cumulative ACKs (the original seed protocol)
vs the SACK + fast-retransmit default. Flow control is switched off
(as in E13's ``noflow`` row): the ablation isolates the timer from the
window. With the window on — the default since after A1 was recorded —
every RTO also collapses ``cwnd``, so an undersized timer throttles the
stream it was meant to hurry and the table measures congestion
control, not RTO sizing.

Measured shape (recorded in EXPERIMENTS.md), cumulative arm: spurious
retransmits fall monotonically as the RTO grows toward the estimated
default; delivery latency rises monotonically once the RTO exceeds the
RTT, because every loss stalls the FIFO stream for the full timeout,
and grossly over-sizing is the worst of all worlds (seconds-long stalls
*and* pointless retransmission of the queue behind them). SACK arm:
duplicate-ACK-driven fast retransmit decouples loss recovery from the
timer, so the over-sizing pathology mostly vanishes — recovery latency
is set by the dup-ack round trip, the RTO only backstops losses at the
very tail of the stream. Adaptive RTO estimation (Jacobson, Karn-gated
samples from ack-echoed timestamps) is the robust partner to SACK: it
tracks the channel without hand-tuning, while in the cumulative arm a
single unlucky loss x backoff chain can still dominate the tail.
"""

from __future__ import annotations

import pytest

from benchmarks._util import print_table
from repro import Dapplet, World
from repro.messages import Text
from repro.net import FaultPlan, GeoLatency


class Node(Dapplet):
    kind = "node"


N = 150
DROP = 0.2


def run_rto(rto: "float | None", seed: int = 81, mode: str = "static", *,
            sack: bool = True):
    world = World(seed=seed, latency=GeoLatency(),
                  faults=FaultPlan(drop_prob=DROP, reorder_jitter=0.02),
                  endpoint_options={"rto_initial": rto, "max_retries": 60,
                                    "rto_mode": mode, "sack": sack,
                                    "ack_delay": 0.01 if sack else 0.0,
                                    "flow_control": False})
    src = world.dapplet(Node, "caltech.edu", "src")
    dst = world.dapplet(Node, "sydney.edu.au", "dst")
    inbox = dst.create_inbox(name="in")
    arrivals = {}
    inbox.delivery_hooks.append(
        lambda m: (arrivals.setdefault(int(m.text), world.now), m)[1])
    out = src.create_outbox()
    out.add(inbox.named_address)
    send_times = {}

    def paced_sender():
        # A paced stream (not a burst): later packets benefit from what
        # earlier acks taught the adaptive estimator.
        for i in range(N):
            send_times[i] = world.now
            out.send(Text(str(i)))
            yield world.kernel.timeout(0.05)

    world.process(paced_sender())
    world.run()
    assert len(arrivals) == N
    latencies = sorted(arrivals[i] - send_times[i] for i in range(N))
    return {
        "mean": sum(latencies) / N,
        "p95": latencies[int(0.95 * N)],
        "retransmits": src.endpoint.stats.data_retransmitted,
        "datagrams": world.network.stats.sent,
    }


CONFIGS = [
    ("tiny (20ms)", 0.02),
    ("small (80ms)", 0.08),
    ("estimated", None),   # the default: 4x mean link latency
    ("huge (3s)", 3.0),
]


@pytest.fixture(scope="module")
def results():
    table = {}
    for name, rto in CONFIGS:
        table[(name, "cum")] = run_rto(rto, sack=False)
    # The recovery-protocol cross: does SACK rescue a badly sized RTO?
    table[("estimated", "sack")] = run_rto(None, sack=True)
    table[("huge (3s)", "sack")] = run_rto(3.0, sack=True)
    table[("adaptive", "cum")] = run_rto(None, mode="adaptive", sack=False)
    table[("adaptive", "sack")] = run_rto(None, mode="adaptive", sack=True)
    return table


def test_a1_table_and_shape(results, benchmark):
    rows = [[name, proto, f"{r['mean']*1000:.0f}", f"{r['p95']*1000:.0f}",
             r["retransmits"], r["datagrams"]]
            for (name, proto), r in results.items()]
    print_table(f"A1: RTO sizing x recovery protocol, caltech->sydney, "
                f"{DROP:.0%} loss ({N} msgs)",
                ["rto", "proto", "mean lat (ms)", "p95 lat (ms)",
                 "retransmits", "datagrams"], rows)

    # -- cumulative arm: the seed protocol's RTO-sizing trade-off -------
    estimated = results[("estimated", "cum")]
    # Spurious retransmits fall as the RTO grows toward the estimate;
    # tail latency rises monotonically past the RTT.
    assert results[("tiny (20ms)", "cum")]["retransmits"] > \
        results[("small (80ms)", "cum")]["retransmits"] > \
        estimated["retransmits"]
    p95 = [results[(name, "cum")]["p95"] for name, _ in CONFIGS]
    assert p95 == sorted(p95)
    # Grossly over-sizing is the worst of all worlds: every loss stalls
    # the FIFO stream for seconds, and the packets queueing up behind
    # the stall get pointlessly retransmitted.
    huge = results[("huge (3s)", "cum")]
    assert huge["p95"] > 5 * estimated["p95"]
    assert huge["retransmits"] > estimated["retransmits"]

    # -- SACK arm: fast retransmit decouples recovery from the timer ----
    # At a well-sized RTO, SACK dominates cumulative on every axis.
    est_sack = results[("estimated", "sack")]
    for axis in ("mean", "p95", "retransmits", "datagrams"):
        assert est_sack[axis] < estimated[axis]
    # The over-sizing pathology mostly vanishes: recovery latency is set
    # by the dup-ack round trip, not the 3s timer, and the buffered tail
    # stays off the wire entirely.
    huge_sack = results[("huge (3s)", "sack")]
    assert huge_sack["mean"] < huge["mean"] / 3
    assert huge_sack["retransmits"] < estimated["retransmits"]

    # -- adaptive RTO: the robust partner to SACK -----------------------
    # Jacobson estimation with Karn-gated samples tracks the channel
    # without hand-tuning; paired with SACK it beats the hand-estimated
    # static default of the seed protocol on every axis.
    adaptive_sack = results[("adaptive", "sack")]
    for axis in ("mean", "p95", "retransmits", "datagrams"):
        assert adaptive_sack[axis] < estimated[axis]
    # ... and it beats adaptive-over-cumulative too: without selective
    # acks one unlucky loss x backoff chain still dominates the tail.
    adaptive_cum = results[("adaptive", "cum")]
    assert adaptive_sack["mean"] < adaptive_cum["mean"]
    assert adaptive_sack["retransmits"] < adaptive_cum["retransmits"]

    benchmark(run_rto, None)
