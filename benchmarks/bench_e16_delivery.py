"""E16 — delivery classes: pay for exactly the reliability you need.

Two scenarios compare the per-outbox delivery classes the endpoint now
speaks (RELIABLE / UNRELIABLE / RELIABLE_SKIP; see
``docs/PROTOCOLS.md``):

**Throughput (unpaced burst, no loss).** One sender fires N messages at
one receiver. The RELIABLE row pays for acknowledgements, the sliding
window and retransmission state; the UNRELIABLE row is fire-and-forget
DATA frames with a sequence stamp. On the virtual-time simulator the
unreliable burst lands as fast as the network carries it, while the
reliable burst is gated by window growth and ack round trips — the
shape claim is UNRELIABLE ≥ 2x RELIABLE messages/s. The asyncio row
(real UDP loopback, smaller N) is recorded for inspection, not gated:
wall-clock numbers are machine noise, and loopback may shed unreliable
bursts at the socket buffer.

**Tail latency under loss (paced stream, 5% drop).** A paced stream
where every dropped DATA frame blocks the FIFO until repaired. RELIABLE
repairs by retransmission after the (static) 0.25s RTO, so the p99
delivery latency absorbs a full RTO. RELIABLE_SKIP abandons the packet
at a 0.05s skip timeout and advances the receiver past the hole — the
survivors' p99 stays near skip-timeout scale. Shape claim: the skip
stream's p99 is strictly below the reliable stream's, at the price of
the abandoned messages (counted).
"""

from __future__ import annotations

import pytest

from benchmarks._util import print_table
from repro.net import (RELIABLE, RELIABLE_SKIP, UNRELIABLE, ConstantLatency,
                       Endpoint, FaultPlan, NodeAddress)
from repro.runtime import AsyncioSubstrate, SimSubstrate

HUB = NodeAddress("hub.edu", 1000)
SRC = NodeAddress("src.edu", 1000)

N_SIM = 2000
N_AIO = 300
N_LAT = 300
LAT_PACE = 0.02
LAT_DROP = 0.05
LAT_RTO = 0.25
LAT_SKIP = 0.05


def run_tput(kind: str, delivery: str, *, n: int, seed: int = 11,
             wall_timeout: float | None = None) -> dict:
    """One unpaced n-message burst; msgs/s of substrate time."""
    if kind == "sim":
        substrate = SimSubstrate(seed=seed, latency=ConstantLatency(0.005))
    else:
        substrate = AsyncioSubstrate(seed=seed)
    try:
        recv = Endpoint(substrate, substrate.datagrams, HUB, rto_initial=0.1,
                        recv_window=64000)
        send = Endpoint(substrate, substrate.datagrams, SRC, rto_initial=0.1,
                        cwnd_initial=4096, recv_window=64000)
        delivered = [0]
        last = [0.0]

        def deliver(payload, addr):
            delivered[0] += 1
            last[0] = substrate.now

        recv.register_inbox(0, deliver)
        start = substrate.now
        for i in range(n):
            send.send(HUB.inbox(0), f"{i:06d}", "bench", delivery=delivery)
        # Run to quiescence: counts whatever actually landed (loopback
        # may shed part of an unreliable burst) and times the last
        # delivery, not the trailing ack/timer chatter.
        if wall_timeout is not None:
            substrate.run(wall_timeout=wall_timeout)
        else:
            substrate.run()
        elapsed = last[0] - start
        return {
            "delivered": delivered[0],
            "msgs_per_s": (delivered[0] / elapsed) if elapsed > 0 else 0.0,
        }
    finally:
        substrate.close()


def run_latency(delivery: str, *, n: int = N_LAT, seed: int = 7) -> dict:
    """A paced stream under loss; per-message delivery latency tail."""
    substrate = SimSubstrate(seed=seed, latency=ConstantLatency(0.02),
                             faults=FaultPlan(drop_prob=LAT_DROP))
    try:
        recv = Endpoint(substrate, substrate.datagrams, HUB,
                        rto_initial=LAT_RTO)
        send = Endpoint(substrate, substrate.datagrams, SRC,
                        rto_initial=LAT_RTO, skip_timeout=LAT_SKIP)
        sent_at: dict[str, float] = {}
        lats: list[float] = []
        recv.register_inbox(
            0, lambda payload, addr: lats.append(
                substrate.now - sent_at[payload]))

        def producer():
            for i in range(n):
                key = f"{i:06d}"
                sent_at[key] = substrate.now
                send.send(HUB.inbox(0), key, "bench", delivery=delivery)
                yield substrate.timeout(LAT_PACE)

        substrate.process(producer())
        substrate.run()
        lats.sort()
        return {
            "delivered": len(lats),
            "abandoned": n - len(lats),
            "p50": lats[len(lats) // 2],
            "p99": lats[int(len(lats) * 0.99) - 1],
            "max": lats[-1],
            "holes_skipped": recv.stats.holes_skipped,
        }
    finally:
        substrate.close()


@pytest.fixture(scope="module")
def results():
    table = {}
    for delivery in (RELIABLE, UNRELIABLE):
        table[("sim", delivery)] = run_tput("sim", delivery, n=N_SIM)
        table[("aio", delivery)] = run_tput("aio", delivery, n=N_AIO,
                                            wall_timeout=60)
    table[("lat", RELIABLE)] = run_latency(RELIABLE)
    table[("lat", RELIABLE_SKIP)] = run_latency(RELIABLE_SKIP)
    return table


def test_e16_table_and_shape(results, benchmark):
    table = results
    rel, unrel = table[("sim", RELIABLE)], table[("sim", UNRELIABLE)]
    lat_rel = table[("lat", RELIABLE)]
    lat_skip = table[("lat", RELIABLE_SKIP)]
    speedup = unrel["msgs_per_s"] / rel["msgs_per_s"]
    advantage = lat_rel["p99"] / lat_skip["p99"]

    rows = [["sim tput", N_SIM, f"{rel['msgs_per_s']:.0f}",
             f"{unrel['msgs_per_s']:.0f}", f"{speedup:.1f}x", "-", "-"],
            ["aio tput", N_AIO,
             f"{table[('aio', RELIABLE)]['msgs_per_s']:.0f}",
             f"{table[('aio', UNRELIABLE)]['msgs_per_s']:.0f}", "-", "-",
             "-"],
            ["sim lat p99", N_LAT, f"{lat_rel['p99'] * 1000:.0f}ms",
             f"{lat_skip['p99'] * 1000:.0f}ms", f"{advantage:.1f}x",
             lat_skip["abandoned"], lat_skip["holes_skipped"]]]
    print_table(
        "E16: delivery classes — reliable vs unreliable vs reliable-skip",
        ["row", "msgs", "reliable", "unrel/skip", "ratio", "abandoned",
         "holes"], rows)

    # Shape: the unreliable burst clears at least twice the reliable
    # throughput on the simulator (no acks, no window to grow).
    assert rel["delivered"] == N_SIM and unrel["delivered"] == N_SIM
    assert speedup >= 2.0
    # Shape: under 5% loss the skip stream's p99 stays strictly below
    # the reliable stream's (which eats a full 0.25s RTO per repair) —
    # the skip timeout bounds head-of-line blocking.
    assert lat_rel["delivered"] == N_LAT  # reliable loses nothing
    assert lat_skip["abandoned"] > 0      # skip pays in dropped messages
    assert lat_skip["holes_skipped"] > 0
    assert lat_skip["p99"] < lat_rel["p99"]
    assert lat_skip["p99"] <= LAT_SKIP + 3 * 0.02 + LAT_PACE

    benchmark(run_tput, "sim", UNRELIABLE, n=N_SIM)
