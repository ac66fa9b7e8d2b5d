"""Timer work per message is flat in the burst size.

The endpoint used to arm one kernel timer per packet (and scan the whole
queue from whichever fired); a 20 000-message burst cost 5x a
2 000-message one per message and nothing in the suite could see it.
This counts, with no wall clock: the endpoint's timer callbacks on a
clean burst must stay within the frames it sent — one wake per stream
half per due time, not one per message.
"""

import pytest

from repro.mailbox import Inbox, Outbox
from repro.messages import Text
from repro.net import ConstantLatency, Endpoint, NodeAddress
from repro.runtime import SimSubstrate

HUB = NodeAddress("hub.edu", 1000)
SRC = NodeAddress("src.edu", 1000)


class CountingSubstrate(SimSubstrate):
    """Counts ``call_later`` callbacks by the module that armed them."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fired = 0

    def call_later(self, delay, fn):
        if fn.__module__ != "repro.net.endpoint":
            return super().call_later(delay, fn)

        def counted():
            self.fired += 1
            fn()

        return super().call_later(delay, counted)


@pytest.mark.parametrize("n", [2000, 8000])
def test_clean_burst_fires_no_more_timers_than_frames(n):
    # The E13 ``run_wire`` settings (see benchmarks/bench_e13_throughput.py).
    substrate = CountingSubstrate(seed=11, latency=ConstantLatency(0.005))
    rx = Endpoint(substrate, substrate.datagrams, HUB, rto_initial=0.1,
                  recv_window=64000)
    tx = Endpoint(substrate, substrate.datagrams, SRC, rto_initial=0.1,
                  cwnd_initial=4096)
    inbox = Inbox(substrate, rx, 0)
    outbox = Outbox(substrate, tx, 0)
    outbox.add(inbox.address)

    def consumer():
        for _ in range(n):
            yield inbox.receive()

    done = substrate.process(consumer())
    for i in range(n):
        outbox.send(Text(f"{i:06d}"))
    substrate.run(done)
    substrate.run()

    assert inbox.messages_received == n
    assert tx.stats.data_retransmitted == 0
    frames = substrate.datagrams.stats.sent
    assert frames < n  # batching carried the burst
    assert substrate.fired <= frames + 8


def test_deadlines_of_acknowledged_packets_do_not_pile_up():
    """Regression: a ``send(timeout=)`` deadline outlives its packet's
    acknowledgement by the whole timeout, and dead agenda entries were
    dropped only off the heap's head. A paced stream always has a live
    packet at the head, so 2 000 sends at 100 msg/s with ``timeout=60``
    held ~2 000 entries for 2 unacknowledged packets at t=20 s."""
    substrate = SimSubstrate(seed=11, latency=ConstantLatency(0.005))
    rx = Endpoint(substrate, substrate.datagrams, HUB)
    tx = Endpoint(substrate, substrate.datagrams, SRC)
    inbox = Inbox(substrate, rx, 0)
    outbox = Outbox(substrate, tx, 0)
    outbox.add(inbox.address)
    excess = []

    def sender():
        for i in range(2000):
            outbox.send(Text(f"{i:06d}"), timeout=60.0)
            yield substrate.timeout(0.01)
            (stream,) = tx._send_streams.values()
            excess.append(len(stream.agenda) - 5 * len(stream.unacked))

    def consumer():
        for _ in range(2000):
            yield inbox.receive()

    done = substrate.process(consumer())
    substrate.process(sender())
    substrate.run(done)
    assert max(excess) <= 8
    substrate.run()
    (stream,) = tx._send_streams.values()
    assert stream.agenda == [] and not stream.unacked
