"""Same-instant discipline of the asyncio substrate.

Zero-delay events on :class:`AsyncioSubstrate` run FIFO from a queue the
substrate owns, drained by the loop callback that filled them — the
kernel's order, without an asyncio timer or a loop pass per event. These
tests hold the order to the kernel's, keep the drain live (a zero-delay
livelock cannot outlast ``wall_timeout`` or a time bound), keep ``close``
final, and pin the saving as a count of loop passes per RPC call.
"""

import asyncio
import time

import pytest

from repro import AsyncioSubstrate, Dapplet, World
from repro.errors import SimulationError
from repro.mailbox import Inbox
from repro.messages import Text
from repro.net import DatagramNetwork, Endpoint, NodeAddress
from repro.rpc import RemoteProxy, export
from repro.sim import Kernel


def cascade(s, log):
    """Script one zero-delay cascade on ``s``; return the run target and
    the process that finishes it."""
    datagrams = getattr(s, "datagrams", None) or DatagramNetwork(s)
    inbox = Inbox(s, Endpoint(s, datagrams, NodeAddress("n.edu", 1000)), 0)
    target = s.event()
    a, b, c, q = s.event(), s.event(), s.event(), s.event()

    def on_a(ev):
        log.append("a")
        b.succeed()          # triggered inside a callback: queued behind q

    def on_b(ev):
        log.append("b")
        c.succeed()          # a nested trigger, one level deeper

    a.callbacks.append(on_a)
    b.callbacks.append(on_b)
    c.callbacks.append(lambda ev: log.append("c"))
    q.callbacks.append(lambda ev: log.append("q"))

    def child(tag):
        log.append(f"{tag} start")
        yield s.timeout(0)
        log.append(f"{tag} end")
        return tag

    def consumer():
        for _ in range(3):
            message = yield inbox.receive()
            log.append(f"got {message.text}")

    def producer():
        log.append("producer start")
        for k in range(3):
            inbox.deliver_local(Text(str(k)))
            log.append(f"put {k}")
            yield s.timeout(0)
        joined = yield s.process(child("spawned"))   # spawned mid-cascade
        log.append(f"joined {joined}")
        target.succeed("done")
        log.append("target triggered")
        yield s.timeout(0)
        log.append("after target")

    s.process(consumer())
    finish = s.process(producer())
    a.succeed()
    q.succeed()
    return target, finish


def run_cascade(s, **run_options):
    """The log when ``run(until=target)`` returns, and when the rest of
    the cascade has run."""
    log: list[str] = []
    target, finish = cascade(s, log)
    assert s.run(until=target, **run_options) == "done"
    at_target = list(log)
    s.run(until=finish, **run_options)
    return at_target, log


def test_same_instant_order_matches_the_kernel():
    kernel_at_target, kernel_log = run_cascade(Kernel(seed=3))

    substrate = AsyncioSubstrate(seed=3)
    try:
        armed: list[int] = []
        substrate.trace_hooks.append(
            lambda now, ev: armed.append(len(substrate._handles)))
        aio_at_target, aio_log = run_cascade(substrate, wall_timeout=5)
    finally:
        substrate.close()

    # The run stops where the kernel's does: at the target, not after.
    assert kernel_at_target[-1] == "target triggered"
    assert aio_at_target == kernel_at_target
    assert aio_log == kernel_log
    assert kernel_log[-1] == "after target"
    # FIFO, not depth-first: q was triggered before a's callback ran.
    assert kernel_log.index("q") < kernel_log.index("b")
    # Zero-delay events arm no asyncio timer.
    assert armed and not any(armed)


def spin(s):
    while True:
        yield s.timeout(0)


def test_zero_delay_livelock_cannot_outlast_wall_timeout():
    substrate = AsyncioSubstrate()
    try:
        substrate.process(spin(substrate))
        start = time.monotonic()
        with pytest.raises(SimulationError, match="wall_timeout"):
            substrate.run(until=substrate.event(), wall_timeout=0.5)
        assert time.monotonic() - start < 2.0
    finally:
        substrate.close()


def test_zero_delay_livelock_cannot_outlast_a_time_bound():
    substrate = AsyncioSubstrate()
    try:
        substrate.process(spin(substrate))
        start = time.monotonic()
        # wall_timeout only turns a hang into a failure here.
        substrate.run(until=0.3, wall_timeout=5)
        assert substrate.now >= 0.3
        assert time.monotonic() - start < 2.0
    finally:
        substrate.close()


def test_close_inside_a_drained_event_stops_the_drain():
    loop = asyncio.new_event_loop()
    try:
        substrate = AsyncioSubstrate(loop=loop)
        fired = []

        def first(ev):
            fired.append("first")
            substrate.close()

        events = [substrate.event() for _ in range(3)]
        events[0].callbacks.append(first)
        events[1].callbacks.append(lambda ev: fired.append("second"))
        events[2].callbacks.append(lambda ev: fired.append("third"))
        for ev in events:
            ev.succeed()
        loop.run_until_complete(asyncio.sleep(0.05))
        assert fired == ["first"]
        assert substrate.closed and substrate._pending == 0
    finally:
        loop.close()


class Node(Dapplet):
    kind = "node"


class Counter:
    def __init__(self):
        self.total = 0

    def add(self, amount):
        self.total += amount
        return self.total


def test_an_rpc_call_costs_at_most_three_loop_passes():
    """A request–reply over loopback is two datagrams; each should cost
    one pass of the event loop, not one per event it triggers."""
    loop = asyncio.new_event_loop()
    run_once = getattr(loop, "_run_once", None)
    if run_once is None:
        loop.close()
        pytest.skip("this event loop has no _run_once to count")
    passes = 0

    def counted():
        nonlocal passes
        passes += 1
        run_once()

    loop._run_once = counted
    try:
        world = World(substrate=AsyncioSubstrate(loop=loop))
        server = world.dapplet(Node, "s.edu", "server")
        client = world.dapplet(Node, "c.edu", "client")
        target = Counter()
        proxy = RemoteProxy(client, export(server, target,
                                           name="acc").pointer)

        def caller(calls):
            for _ in range(calls):
                yield proxy.call("add", 1)

        world.run(until=world.process(caller(20)), wall_timeout=20)
        passes = 0
        world.run(until=world.process(caller(200)), wall_timeout=20)
        assert target.total == 220
        assert passes / 200 <= 3.0, passes / 200
        world.close()
    finally:
        loop.close()
