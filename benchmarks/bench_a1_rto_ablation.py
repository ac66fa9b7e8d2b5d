"""A1 (ablation) — retransmission-timeout sizing.

The layer's default estimates the initial RTO as 4x the link's mean
latency (per destination, from the latency model). This ablation pits
that choice against fixed under- and over-estimates on a jittery,
lossy intercontinental link, on the transport's one protocol: SACK,
duplicate-ACK fast retransmit, delayed ACKs and the AIMD window. The
seed is the only axis; every timer (packet, PROBE, SKIP) starts from it.

Measured shape (recorded in EXPERIMENTS.md, next to the bounds the
asserts below hold the rows to): spurious retransmits fall as the seed
grows toward the estimate, and past the tiny seed tail latency rises
with it. Every RTO also collapses ``cwnd`` to one payload, and with only
a packet or two in flight a loss draws too few duplicate ACKs for fast
retransmit (2-6 per row here), so the timer, not the dup-ack round
trip, sets most recoveries: the tiny seed throttles the stream it was
meant to hurry, and the estimated and huge seeds queue the paced stream
behind a collapsed window for seconds — the worst of all worlds at 3 s.
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


def run_rto(rto: "float | None", seed: int = 81):
    world = World(seed=seed, latency=GeoLatency(),
                  faults=FaultPlan(drop_prob=DROP, reorder_jitter=0.02),
                  endpoint_options={"rto_initial": rto, "max_retries": 60})
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
        # A paced stream (not a burst): each loss meets a mostly idle
        # channel, so the seed — not queueing — sets its recovery.
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
    return {name: run_rto(rto) for name, rto in CONFIGS}


def test_a1_table_and_shape(results, benchmark):
    rows = [[name, f"{r['mean']*1000:.0f}", f"{r['p95']*1000:.0f}",
             r["retransmits"], r["datagrams"]]
            for name, r in results.items()]
    print_table(f"A1: RTO sizing, caltech->sydney, {DROP:.0%} loss "
                f"({N} msgs)",
                ["rto", "mean lat (ms)", "p95 lat (ms)", "retransmits",
                 "datagrams"], rows)

    tiny, small = results["tiny (20ms)"], results["small (80ms)"]
    estimated, huge = results["estimated"], results["huge (3s)"]
    # Spurious retransmits fall as the seed grows toward the estimate.
    assert tiny["retransmits"] > small["retransmits"] > \
        estimated["retransmits"]
    # Past the tiny seed, tail latency rises with the seed. The tiny seed
    # itself is slower than the small one (p95 2452 vs 852 ms): each
    # spurious RTO collapses ``cwnd``, throttling the stream it was
    # meant to hurry.
    assert tiny["p95"] > small["p95"] < estimated["p95"] < huge["p95"]
    # Grossly over-sizing is the worst of all worlds: a loss that fast
    # retransmit cannot repair stalls the FIFO stream for seconds.
    assert huge["p95"] > 5 * estimated["p95"]
    assert huge["retransmits"] > estimated["retransmits"]
    # Absolute bounds on the rows (measured at seed 81: estimated 4582 /
    # 7408 ms mean / p95, 83 retransmits, 203 datagrams; huge 29594 ms
    # mean, 93 retransmits).
    assert estimated["mean"] < 5.5
    assert estimated["p95"] < 9.0
    assert estimated["retransmits"] <= 100
    assert estimated["datagrams"] <= 250
    assert huge["mean"] < 36.0
    assert huge["retransmits"] <= 110

    benchmark(run_rto, None)
