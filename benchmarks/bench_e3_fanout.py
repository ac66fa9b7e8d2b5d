"""E3 — Figure 3: outbox -> inbox fan-out and fan-in.

Scenario: one dapplet's outbox bound to F inboxes on other dapplets
("dapplet 2's outbox is bound to the inboxes of dapplets 3, 4 and 5");
a burst of messages flows. Metrics: datagrams per message, virtual time
for all copies, and FIFO integrity under reordering faults.

Shape claims: copies (and datagrams) grow linearly with fan-out — the
layer "sends a copy of the message along all channels connected to that
outbox" — while per-copy latency stays flat; FIFO holds per channel at
every fault level.
"""

from __future__ import annotations

import pytest

from benchmarks._util import print_table
from repro import Dapplet, World
from repro.messages import Text
from repro.net import ConstantLatency, FaultPlan
from repro.world import World


class Node(Dapplet):
    kind = "node"


N_MESSAGES = 50


def run_fanout(fanout: int, *, reorder: float = 0.0, seed: int = 5):
    world = World(seed=seed, latency=ConstantLatency(0.02),
                  faults=FaultPlan(reorder_jitter=reorder))
    sender = world.dapplet(Node, "caltech.edu", "sender")
    inboxes = []
    for i in range(fanout):
        d = world.dapplet(Node, f"site{i}.edu", f"r{i}")
        inboxes.append(d.create_inbox(name="in"))
    outbox = sender.create_outbox()
    for inbox in inboxes:
        outbox.add(inbox.named_address)
    before = world.network.stats.sent
    t0 = world.now
    for i in range(N_MESSAGES):
        outbox.send(Text(str(i)))
    world.run()
    elapsed = world.now - t0
    datagrams = world.network.stats.sent - before
    fifo = all([int(m.text) for m in ib.queued()] == list(range(N_MESSAGES))
               for ib in inboxes)
    complete = all(len(ib.queued()) == N_MESSAGES for ib in inboxes)
    return {"elapsed": elapsed, "datagrams": datagrams, "fifo": fifo,
            "complete": complete}


@pytest.fixture(scope="module")
def results():
    fanouts = (1, 2, 4, 8, 16)
    return fanouts, {f: run_fanout(f, reorder=0.1) for f in fanouts}


def test_e3_table_and_shape(results, benchmark):
    fanouts, table = results
    rows = [[f, N_MESSAGES, table[f]["datagrams"],
             f"{table[f]['datagrams'] / (N_MESSAGES * f):.2f}",
             f"{table[f]['elapsed']:.3f}",
             table[f]["fifo"], table[f]["complete"]] for f in fanouts]
    print_table("E3: fan-out delivery (50 msgs, 10% reorder jitter)",
                ["fanout", "messages", "datagrams", "dgrams/copy",
                 "elapsed (s)", "fifo", "complete"], rows)

    for f in fanouts:
        assert table[f]["fifo"] and table[f]["complete"]
    # Shape: datagrams linear in fan-out (within ack/retx noise).
    ratio = table[16]["datagrams"] / table[1]["datagrams"]
    assert 12 < ratio < 20
    # Shape: elapsed roughly flat (copies go out in parallel).
    assert table[16]["elapsed"] < 3 * table[1]["elapsed"]

    benchmark(run_fanout, 8)


def test_e3_fanin(benchmark):
    """Fan-in: many outboxes bound to one inbox; all arrive, each
    channel independently FIFO."""
    def run(n_senders=8):
        world = World(seed=6, latency=ConstantLatency(0.02),
                      faults=FaultPlan(reorder_jitter=0.1))
        hub = world.dapplet(Node, "caltech.edu", "hub")
        inbox = hub.create_inbox(name="in")
        for i in range(n_senders):
            d = world.dapplet(Node, f"site{i}.edu", f"s{i}")
            ob = d.create_outbox()
            ob.add(inbox.named_address)
            for k in range(20):
                ob.send(Text(f"{i}:{k}"))
        world.run()
        got = [m.text for m in inbox.queued()]
        assert len(got) == n_senders * 20
        for i in range(n_senders):
            mine = [int(t.split(":")[1]) for t in got
                    if t.startswith(f"{i}:")]
            assert mine == list(range(20))
        return len(got)

    received = benchmark(run)
    assert received == 160
