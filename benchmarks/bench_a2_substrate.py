"""A2 (micro) — substrate throughput: how much simulation per wall second.

Not a paper experiment: these wall-clock micro-benchmarks size the
simulator itself, so downstream users can budget experiments (events/s
of the kernel, end-to-end messages/s through the full dapplet stack).
Regressions here slow every other benchmark.

The memory row sizes a world instead: tracemalloc bytes per plain
dapplet, per directed link, and per client in the stream machines (the
bytes a settled channel pair keeps) at three world sizes. Those are
counts, not wall time; the only gate on them is that a dapplet costs
about the same at every size.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from benchmarks._util import print_table
from repro import Dapplet, World
from repro.mailbox import Inbox
from repro.messages import Text
from repro.net import ConstantLatency, DatagramNetwork, Endpoint, NodeAddress
from repro.rpc import RemoteProxy, export
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


class _Counter:
    def __init__(self):
        self.value = 0

    def add(self, n):
        self.value += n
        return self.value


#: Where a directed link's state is allocated: its entry in the datagram
#: layer and, once something draws, its named random streams.
_LINK_FILES = ("repro/net/datagram.py", "repro/sim/rng.py")
#: Where a channel's sender and receiver state is allocated.
_STREAM_FILES = ("repro/net/stream.py",)


def _world_bytes(n: int) -> tuple[float, float, int, float]:
    """(bytes per dapplet, bytes per directed link, links, stream bytes
    per dapplet) for a world of ``n`` plain dapplets on 50 hosts, each
    of which has made one RPC to a hub: constant latency, no fault
    plan, no directory."""
    world = World(seed=0, latency=ConstantLatency(0.01))
    hub = world.dapplet(Node, "hub.edu", "hub")
    counter = _Counter()
    pointer = export(hub, counter, name="counter").pointer
    world.run()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        start = tracemalloc.get_traced_memory()[0]
        clients = [world.dapplet(Node, f"h{i % 50}.edu", f"d{i}")
                   for i in range(n)]
        for client in clients:
            RemoteProxy(client, pointer).call("add", 1)
        world.run()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - start
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert counter.value == n
    links = len(world.network._links)
    diff = after.compare_to(before, "filename")

    def allocated(files: tuple[str, ...]) -> int:
        return sum(stat.size_diff for stat in diff
                   if stat.traceback[0].filename.endswith(files))

    return (held / n, allocated(_LINK_FILES) / links, links,
            allocated(_STREAM_FILES) / n)


def test_memory_per_dapplet_and_per_link():
    """Count clock (tracemalloc bytes), reported, not gated, except that
    a dapplet costs the same within 1.3x at 1 000 as at 100."""
    rows = {n: _world_bytes(n) for n in (100, 300, 1_000)}
    print_table("A2 memory: tracemalloc bytes, one RPC per dapplet to a hub",
                ["dapplets", "B/dapplet", "B/client in stream.py", "B/link",
                 "links"],
                [(n, round(d), round(stream), round(link), links)
                 for n, (d, link, links, stream) in rows.items()])
    assert rows[1_000][0] <= 1.3 * rows[100][0]
