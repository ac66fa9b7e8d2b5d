"""Tests for the global-checkpoint collector and recovery flow."""

import pytest

from repro.dapplet import Dapplet
from repro.errors import ClockError
from repro.messages import Blob
from repro.net import UniformLatency
from repro.services.clocks import CheckpointService, GlobalCheckpoint
from repro.services.clocks.checkpoint import checkpoint_key
from repro.store import MemoryBackend
from repro.world import World


class Node(Dapplet):
    kind = "node"


def chatty_ring(world, n=3):
    nodes = [world.dapplet(Node, f"s{i}.edu", f"d{i}") for i in range(n)]
    inboxes = [d.create_inbox(name="in") for d in nodes]
    outboxes = []
    for i, d in enumerate(nodes):
        ob = d.create_outbox()
        ob.add(inboxes[(i + 1) % n].address)
        outboxes.append(ob)

    def churn(i):
        for k in range(20):
            nodes[i].state.region("log").set(f"sent:{k}", True)
            outboxes[i].send(Blob({"k": k}))
            yield inboxes[i].receive()

    for i in range(n):
        world.process(churn(i))
    return nodes


def test_collect_restore_roundtrip():
    world = World(seed=83, latency=UniformLatency(0.01, 0.2))
    nodes = chatty_ring(world)
    services = GlobalCheckpoint.install(nodes, at_time=15)
    world.run()
    checkpoint = GlobalCheckpoint.collect(services)
    assert set(checkpoint.checkpoints) == {"d0", "d1", "d2"}

    # Corrupt live state, then recover from the checkpoint.
    before = {d.name: d.state.snapshot() for d in nodes}
    for d in nodes:
        d.state.region("log").set("corruption", True)
        d.state.region("garbage").set("x", 1)
    checkpoint.restore(world)
    for d in nodes:
        log = d.state.region("log")
        assert "corruption" not in log
        # The restored log matches what the checkpoint recorded.
        assert log.snapshot() == checkpoint.checkpoints[d.name].state.get(
            "log", {})


def test_collect_before_taken_raises():
    world = World(seed=84, latency=UniformLatency(0.01, 0.1))
    nodes = chatty_ring(world)
    services = GlobalCheckpoint.install(nodes, at_time=10_000)  # far future
    world.run()
    with pytest.raises(ClockError, match="not yet taken"):
        GlobalCheckpoint.collect(services)


def test_collect_mixed_times_raises():
    world = World(seed=85, latency=UniformLatency(0.01, 0.1))
    nodes = chatty_ring(world)
    services = GlobalCheckpoint.install(nodes[:2], at_time=5)
    services.update(GlobalCheckpoint.install(nodes[2:], at_time=7))
    world.run()
    with pytest.raises(ClockError, match="mixed"):
        GlobalCheckpoint.collect(services)


def test_durable_cuts_flushed_and_loadable():
    """With a store, every service flushes its cut as it forms;
    GlobalCheckpoint.load rebuilds the whole thing straight from the
    backend — without the live services or even the live dapplets."""
    backend = MemoryBackend()
    world = World(seed=87, latency=UniformLatency(0.01, 0.2), store=backend)
    nodes = chatty_ring(world)
    services = GlobalCheckpoint.install(nodes, at_time=15)
    world.run()
    collected = GlobalCheckpoint.collect(services)
    loaded = GlobalCheckpoint.load(backend, 15)
    assert set(loaded.checkpoints) == set(collected.checkpoints)
    for name, cp in loaded.checkpoints.items():
        live = collected.checkpoints[name]
        assert cp.state == live.state
        assert cp.clock_when_taken == live.clock_when_taken
        assert cp.channel_messages == live.channel_messages


def test_load_unknown_time_raises():
    backend = MemoryBackend()
    world = World(seed=88, latency=UniformLatency(0.01, 0.1), store=backend)
    services = GlobalCheckpoint.install(chatty_ring(world), at_time=15)
    world.run()
    with pytest.raises(ClockError, match="no durable checkpoints"):
        GlobalCheckpoint.load(backend, 999)


def test_duplicate_triggers_are_idempotent():
    """Duplicate clock advances past T, explicit re-triggers, and a
    second service installation must all leave exactly one cut and
    exactly one durable snapshot of it."""
    backend = MemoryBackend()
    world = World(seed=89, latency=UniformLatency(0.01, 0.1), store=backend)
    nodes = chatty_ring(world)
    services = GlobalCheckpoint.install(nodes, at_time=15)
    world.run()
    d0 = nodes[0]
    service = services["d0"]
    cut = service.taken
    saved = d0.state.durable.stats.objects_saved
    service._take()                       # explicit re-trigger
    service._on_advance(14, 99)           # duplicate advance past T
    assert service.taken is cut           # the original cut, untouched
    assert d0.state.durable.stats.objects_saved == saved


def test_late_installation_takes_immediately():
    backend = MemoryBackend()
    world = World(seed=90, latency=UniformLatency(0.01, 0.1), store=backend)
    nodes = chatty_ring(world)
    world.run()  # no service installed: clocks run far past 5
    late = CheckpointService(nodes[0], 5)
    assert late.taken is not None
    assert late.taken.clock_when_taken >= 5
    assert late.taken.state == nodes[0].state.snapshot()
    # The late cut was still flushed durably.
    assert nodes[0].state.durable.load_object(
        checkpoint_key(5))["state"] == late.taken.state


def test_pre_t_messages_land_in_exactly_one_channel_log():
    """However many times an inbox gets announced to the service, each
    pre-T message is recorded once — in memory and in the durable log."""
    backend = MemoryBackend()
    world = World(seed=91, latency=UniformLatency(0.05, 0.5), store=backend)
    nodes = chatty_ring(world)
    services = GlobalCheckpoint.install(nodes, at_time=12)
    for d in nodes:  # re-announce every port, repeatedly
        for service in services.values():
            if service.dapplet is d:
                for inbox in d.inboxes.values():
                    service._hook_port(inbox)
                    service._hook_port(inbox)
    world.run()
    total_in_transit = 0
    for name, service in services.items():
        d = service.dapplet
        for inbox in d.inboxes.values():
            assert inbox.delivery_hooks.count(service._on_deliver) == 1
        logged = d.state.durable.read_log(checkpoint_key(12) + ".chan")
        assert logged == service.taken.channel_messages
        total_in_transit += len(logged)
    assert total_in_transit > 0  # slow links: something was in transit


def test_persist_false_writes_nothing():
    backend = MemoryBackend()
    world = World(seed=92, latency=UniformLatency(0.01, 0.1), store=backend)
    nodes = chatty_ring(world)
    services = {d.name: CheckpointService(d, 15, persist=False)
                for d in nodes}
    world.run()
    assert all(s.taken is not None for s in services.values())
    for d in nodes:
        assert d.state.durable.load_object(checkpoint_key(15)) is None
        assert d.state.durable.read_log(checkpoint_key(15) + ".chan") == []


def test_restart_from_checkpoint_erases_post_cut_regions():
    """Rolling a dapplet back to T must not leak regions born after
    the cut — and the rollback itself is durable."""
    backend = MemoryBackend()
    world = World(seed=93, latency=UniformLatency(0.01, 0.2), store=backend)
    nodes = chatty_ring(world)
    services = GlobalCheckpoint.install(nodes, at_time=15)
    world.run()
    cut_state = services["d0"].taken.state
    nodes[0].state.region("post").set("x", 1)   # born after the cut
    rolled = world.restart_dapplet("d0", from_checkpoint=15)
    assert rolled.state.snapshot() == cut_state
    # A further plain restart recovers the rolled-back state, not the
    # pre-rollback journal: the clears were journaled too.
    again = world.restart_dapplet("d0")
    assert again.state.snapshot() == cut_state


def test_replay_feeds_channel_messages():
    world = World(seed=86, latency=UniformLatency(0.05, 0.5))
    nodes = chatty_ring(world, n=4)
    services = GlobalCheckpoint.install(nodes, at_time=12)
    world.run()
    checkpoint = GlobalCheckpoint.collect(services)
    replayed = []
    count = checkpoint.replay(lambda name, msg: replayed.append((name, msg)))
    assert count == len(replayed)
    assert count == sum(len(cp.channel_messages)
                        for cp in checkpoint.checkpoints.values())
    for name, msg in replayed:
        assert isinstance(msg, Blob)
