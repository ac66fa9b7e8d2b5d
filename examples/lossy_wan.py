#!/usr/bin/env python3
"""Coping with a varied network environment (paper §2.2 and §3.2).

One channel, caltech -> sydney, under increasing datagram loss. The
ordering layer (sequence numbers + acks + retransmission over simulated
UDP) keeps delivery FIFO and exactly-once; the raw datagram baseline
(the UNRELIABLE delivery class) loses messages in proportion to the
loss — and its freshness filter turns reordered arrivals into drops
rather than out-of-order deliveries, so what does arrive is still an
ordered subsequence. Also demonstrates the paper's delivery-timeout
exception during a network partition.

Run:  python examples/lossy_wan.py
"""

from repro import Dapplet, DeliveryTimeout, World
from repro.messages import Text
from repro.net import RELIABLE, UNRELIABLE, FaultPlan, GeoLatency


class Node(Dapplet):
    kind = "node"


def run_transfer(drop: float, delivery, n: int = 200):
    world = World(seed=int(drop * 100) + (1 if delivery is RELIABLE else 0),
                  latency=GeoLatency(),
                  faults=FaultPlan(drop_prob=drop, reorder_jitter=0.05))
    src = world.dapplet(Node, "caltech.edu", "src")
    dst = world.dapplet(Node, "sydney.edu.au", "dst")
    inbox = dst.create_inbox(name="data")
    outbox = src.create_outbox(delivery=delivery)
    outbox.add(inbox.named_address)

    def producer():
        # Paced sends: a burst fired in one instant would arrive almost
        # fully shuffled under jitter, and the UNRELIABLE freshness
        # filter would then stale-drop most of it. A modest gap keeps
        # reordering the exception, so the raw row shows *loss*.
        for i in range(n):
            outbox.send(Text(str(i)))
            yield world.substrate.timeout(0.1)

    world.run(until=world.process(producer()))
    world.run()
    received = [int(m.text) for m in inbox.queued()]
    in_order = received == sorted(received) and \
        received == list(dict.fromkeys(received))
    return len(received), in_order, src.endpoint.stats.data_retransmitted


def main() -> None:
    n = 200
    print(f"sending {n} messages caltech -> sydney\n")
    print(f"{'drop':>5} | {'raw recv':>9} {'raw FIFO?':>10} | "
          f"{'rel recv':>9} {'rel FIFO?':>10} {'retransmits':>12}")
    for drop in (0.0, 0.1, 0.3, 0.5):
        raw_n, raw_ok, _ = run_transfer(drop, UNRELIABLE, n=n)
        rel_n, rel_ok, rtx = run_transfer(drop, RELIABLE, n=n)
        print(f"{drop:>5.0%} | {raw_n:>9} {str(raw_ok):>10} | "
              f"{rel_n:>9} {str(rel_ok):>10} {rtx:>12}")

    # A partition: the paper says undelivered messages raise exceptions.
    print("\npartition demo: sydney unreachable, send with 2 s timeout")
    faults = FaultPlan()
    world = World(seed=9, latency=GeoLatency(), faults=faults,
                  endpoint_options={"rto_initial": 0.3})
    src = world.dapplet(Node, "caltech.edu", "src")
    dst = world.dapplet(Node, "sydney.edu.au", "dst")
    inbox = dst.create_inbox(name="data")
    outbox = src.create_outbox()
    outbox.add(inbox.named_address)
    faults.partition(src.address, dst.address)

    def sender():
        try:
            yield outbox.send_confirmed(Text("urgent"), timeout=2.0)
            print("  delivered (unexpected)")
        except DeliveryTimeout as exc:
            print(f"  DeliveryTimeout raised after {exc.timeout}s, "
                  "as the paper specifies")
        faults.heal(src.address, dst.address)
        yield outbox.send_confirmed(Text("after heal"), timeout=10.0)
        print("  after healing the partition, delivery confirmed")

    world.run(until=world.process(sender()))
    world.run()


if __name__ == "__main__":
    main()
