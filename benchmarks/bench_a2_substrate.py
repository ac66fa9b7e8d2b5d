"""A2 (micro) — substrate throughput: how much simulation per wall second.

Not a paper experiment: these wall-clock micro-benchmarks size the
simulator itself, so downstream users can budget experiments (events/s
of the kernel, end-to-end messages/s through the full dapplet stack).
Regressions here slow every other benchmark.
"""

from __future__ import annotations

import pytest

from repro import Dapplet, World
from repro.mailbox import Inbox
from repro.messages import Text
from repro.net import ConstantLatency, DatagramNetwork, Endpoint, NodeAddress
from repro.sim import Kernel


class Node(Dapplet):
    kind = "node"


def test_kernel_event_throughput(benchmark):
    """Raw event scheduling + processing."""
    def run(n=20_000):
        kernel = Kernel()
        for i in range(n):
            kernel.timeout(i * 0.001)
        kernel.run()
        return kernel.now

    assert benchmark(run) > 0


def test_process_switch_throughput(benchmark):
    """Generator coroutine resume cost."""
    def run(n=5_000):
        kernel = Kernel()
        done = []

        def body():
            for _ in range(n):
                yield kernel.timeout(0.001)
            done.append(True)

        kernel.process(body())
        kernel.run()
        return done[0]

    assert benchmark(run)


def test_inbox_handoff_throughput(benchmark):
    """Deliver-to-receive through one inbox, no transport: the queue,
    its zero-delay drain and the process resume."""
    def run(n=10_000):
        kernel = Kernel()
        endpoint = Endpoint(kernel, DatagramNetwork(kernel),
                            NodeAddress("hub.edu", 1000))
        inbox = Inbox(kernel, endpoint, 0)
        got = []

        def consumer():
            for _ in range(n):
                got.append((yield inbox.receive()))

        kernel.process(consumer())
        for i in range(n):
            inbox.deliver_local(Text(str(i)))
        kernel.run()
        return len(got)

    assert benchmark(run) == 10_000


def test_end_to_end_message_throughput(benchmark):
    """Full stack: serialize -> transport (reliable) -> deliver -> receive."""
    def run(n=1_000):
        world = World(seed=0, latency=ConstantLatency(0.01))
        a = world.dapplet(Node, "caltech.edu", "a")
        b = world.dapplet(Node, "rice.edu", "b")
        inbox = b.create_inbox(name="in")
        out = a.create_outbox()
        out.add(inbox.named_address)
        got = []

        # Somebody has to drain the inbox: with flow control an unread
        # backlog closes the receive window and the rest never arrives.
        def consumer():
            while True:
                got.append((yield inbox.receive()))

        b.spawn(consumer())
        for i in range(n):
            out.send(Text(str(i)))
        world.run()
        return len(got)

    assert benchmark(run) == 1_000
