"""Unit tests for the Dapplet base class and the World facade."""

import pytest

from repro.dapplet import Dapplet
from repro.errors import AddressError, DappletError
from repro.messages import Text
from repro.net import ConstantLatency, FaultPlan
from repro.world import World


class Plain(Dapplet):
    kind = "plain"


class Greeter(Dapplet):
    kind = "greeter"

    def setup(self):
        self.inbox = self.create_inbox(name="hello")
        self.greeted = []

    def main(self):
        def run():
            while True:
                msg = yield self.inbox.receive()
                self.greeted.append(msg.text)

        return run()


@pytest.fixture
def world():
    return World(seed=2, latency=ConstantLatency(0.01))


def test_world_allocates_unique_addresses(world):
    a = world.dapplet(Plain, "caltech.edu", "a")
    b = world.dapplet(Plain, "caltech.edu", "b")
    c = world.dapplet(Plain, "rice.edu", "c")
    assert a.address != b.address
    assert a.address.host == b.address.host == "caltech.edu"
    assert c.address.host == "rice.edu"


def test_world_registers_in_directory(world):
    a = world.dapplet(Plain, "caltech.edu", "a")
    assert world.get("a") is a
    assert world.dapplets() == [a]


def test_world_rejects_duplicate_names(world):
    world.dapplet(Plain, "caltech.edu", "a")
    with pytest.raises(DappletError):
        world.dapplet(Plain, "rice.edu", "a")


def test_world_get_unknown_raises(world):
    with pytest.raises(DappletError):
        world.get("nobody")


def test_setup_hook_runs_at_creation(world):
    g = world.dapplet(Greeter, "caltech.edu", "g")
    assert g.inbox_named("hello") is g.inbox


def test_main_starts_and_processes_messages(world):
    g = world.dapplet(Greeter, "caltech.edu", "g")
    g.start()
    sender = world.dapplet(Plain, "rice.edu", "s")
    out = sender.create_outbox()
    out.add(g.inbox.named_address)
    out.send(Text("hi"))
    world.run()
    assert g.greeted == ["hi"]


def test_start_without_main_returns_none(world):
    p = world.dapplet(Plain, "caltech.edu", "p")
    assert p.start() is None


def test_named_inbox_uniqueness(world):
    d = world.dapplet(Plain, "caltech.edu", "d")
    d.create_inbox(name="x")
    with pytest.raises(DappletError):
        d.create_inbox(name="x")
    with pytest.raises(DappletError):
        d.inbox_named("missing")


def test_close_inbox_releases_name(world):
    d = world.dapplet(Plain, "caltech.edu", "d")
    inbox = d.create_inbox(name="x")
    d.close_inbox(inbox)
    d.create_inbox(name="x")  # name is reusable


def test_stop_unregisters_everywhere(world):
    d = world.dapplet(Plain, "caltech.edu", "d")
    address = d.address
    d.stop()
    assert d.stopped
    assert not world.network.is_registered(address)
    with pytest.raises(DappletError):
        world.get("d")
    # Ports cannot be created on a stopped dapplet.
    with pytest.raises(DappletError):
        d.create_inbox()
    with pytest.raises(DappletError):
        d.create_outbox()
    d.stop()  # idempotent


def test_port_hooks_cover_existing_and_future_ports(world):
    d = world.dapplet(Plain, "caltech.edu", "d")
    existing = d.create_inbox()
    seen = []
    d.port_hooks.append(seen.append)
    new_in = d.create_inbox()
    new_out = d.create_outbox()
    assert new_in in seen and new_out in seen
    assert existing not in seen  # hooks apply from registration onward


def test_spawn_names_processes_after_dapplet(world):
    d = world.dapplet(Plain, "caltech.edu", "d")

    def body():
        yield world.kernel.timeout(1.0)

    p = d.spawn(body(), name="worker")
    assert p.name == "d/worker"
    world.run()


def test_every_dapplet_has_session_manager_and_clock(world):
    d = world.dapplet(Plain, "caltech.edu", "d")
    assert d.sessions is d.sessions  # stable instance
    assert d.clock.time >= 0
    # The control inbox is reachable by name.
    assert d.inbox_named("_session") is d.sessions.inbox


def test_sessions_may_be_used_in_setup(world):
    """``sessions`` is created on first use — including a first use
    inside ``setup()``, which the constructor must not repeat."""
    class Early(Dapplet):
        def setup(self):
            self.seen = self.sessions

    d = world.dapplet(Early, "caltech.edu", "d")
    assert d.sessions is d.seen
    assert d.inbox_named("_session") is d.sessions.inbox


def test_post_keeps_one_channel_per_destination(world):
    a = world.dapplet(Plain, "caltech.edu", "a")
    b = world.dapplet(Greeter, "rice.edu", "b")
    b.start()
    before = len(a.outboxes)
    a.post(b.inbox.named_address, Text("one"))
    a.post(b.inbox.named_address, Text("two"))
    world.run()
    assert b.greeted == ["one", "two"]
    assert len(a.outboxes) == before + 1
    # A payload over the frame ceiling fails its send but says nothing
    # about the channel, which is kept.
    channel = a._posts[b.inbox.named_address]
    a.post(b.inbox.named_address, Text("x" * 70_000))
    assert a._posts[b.inbox.named_address] is channel
    assert len(a.outboxes) == before + 1
    a.unpost(b.inbox.named_address)
    assert len(a.outboxes) == before


def test_post_on_a_stopped_dapplet_fails_like_its_closed_endpoint(world):
    """One error type whether or not a channel was already open — the
    one servlets catch around a send on a closed endpoint."""
    a = world.dapplet(Plain, "caltech.edu", "a")
    b = world.dapplet(Greeter, "rice.edu", "b")
    c = world.dapplet(Greeter, "utk.edu", "c")
    a.post(b.inbox.named_address, Text("one"))
    a.stop()
    for target in (b, c):  # an open channel; none yet
        with pytest.raises(AddressError, match="is closed"):
            a.post(target.inbox.named_address, Text("late"))
    assert c.inbox.named_address not in a._posts


def test_a_replaced_channel_leaves_the_endpoint_with_it():
    """post replaces a channel the transport gave up, and the endpoint
    forgets the dead stream; unposting a healthy channel forgets only
    the outbox (its stream may still owe retransmissions)."""
    lost = []
    world = World(seed=2, latency=ConstantLatency(0.01),
                  faults=FaultPlan(drop_filter=lambda d: bool(lost)),
                  endpoint_options={"max_retries": 2, "rto_max": 0.1})
    a = world.dapplet(Plain, "caltech.edu", "a")
    b = world.dapplet(Greeter, "rice.edu", "b")
    b.start()
    to = b.inbox.named_address
    lost.append(True)
    a.post(to, Text("lost"))
    world.run()
    (broken,) = a.endpoint._send_streams.values()
    assert broken.broken
    lost.clear()
    a.post(to, Text("found"))
    world.run()
    assert b.greeted == ["found"]
    (fresh,) = a.endpoint._send_streams.values()
    assert fresh is not broken and not fresh.broken
    a.unpost(to)
    assert list(a.endpoint._send_streams.values()) == [fresh]


def test_principal_is_the_owner_name_or_empty(world):
    alice = world.registry.principal("alice", "acme")
    assert world.dapplet(Plain, "caltech.edu", "a", owner=alice).principal \
        == "alice"
    assert world.dapplet(Plain, "caltech.edu", "b").principal == ""


def test_world_run_until_and_process(world):
    log = []

    def body():
        yield world.kernel.timeout(2.0)
        log.append(world.now)
        return "done"

    p = world.process(body())
    assert world.run(until=p) == "done"
    assert log == [2.0]
    assert world.now == 2.0
