"""Failure-injection tests: crashes and partitions at awkward moments.

The paper's target environment "must also cope with faults in the
network, such as undelivered messages"; these tests exercise the
system-level consequences: half-dead sessions, partitions during
link-up, crashed coordinators, and services facing silence.
"""

import pytest

from repro.dapplet import Dapplet
from repro.errors import (
    DeliveryTimeout,
    DiscoveryError,
    ReceiveTimeout,
    RegistryError,
    RpcTimeout,
    SessionError,
    SessionRejected,
)
from repro.messages import Text
from repro.net import ConstantLatency, FaultPlan
from repro.rpc import RemoteProxy, export
from repro.runtime import AsyncioSubstrate
from repro.services.clocks import CheckpointService
from repro.services.sync import DistributedSemaphore, SyncHost
from repro.services.tokens import TokenAgent, TokenCoordinator
from repro.session import Initiator, SessionSpec
from repro.store import FileBackend, MemoryBackend
from repro.world import World


class Plain(Dapplet):
    kind = "plain"


class Tracker(Dapplet):
    kind = "tracker"

    def on_session_start(self, ctx):
        self.ctx = ctx

    def on_session_end(self, ctx):
        self.ended = getattr(self, "ended", 0) + 1


def pair_spec():
    spec = SessionSpec("t")
    spec.add_member("a", inboxes=("in",))
    spec.add_member("b", inboxes=("in",))
    spec.bind("a", "out", "b", "in")
    return spec


def test_partition_during_establish_times_out_cleanly():
    faults = FaultPlan()
    world = World(seed=61, latency=ConstantLatency(0.01), faults=faults,
                  endpoint_options={"rto_initial": 0.05, "max_retries": 5})
    a = world.dapplet(Tracker, "caltech.edu", "a")
    b = world.dapplet(Tracker, "rice.edu", "b")
    initiator = world.dapplet(Initiator, "caltech.edu", "init")
    faults.partition(initiator.address, b.address)
    outcome = []

    def director():
        try:
            yield from initiator.establish(pair_spec(), timeout=2.0)
        except SessionError as exc:
            outcome.append("timeout")

    world.run(until=world.process(director()))
    world.run()
    assert outcome == ["timeout"]
    # a was prepared then aborted; neither side has an active session.
    assert a.sessions.active_sessions() == []
    assert b.sessions.active_sessions() == []


def test_partition_heals_and_session_establishes():
    faults = FaultPlan()
    world = World(seed=62, latency=ConstantLatency(0.01), faults=faults,
                  endpoint_options={"rto_initial": 0.05, "max_retries": 60})
    world.dapplet(Tracker, "caltech.edu", "a")
    b = world.dapplet(Tracker, "rice.edu", "b")
    initiator = world.dapplet(Initiator, "caltech.edu", "init")
    faults.partition(initiator.address, b.address)
    world.kernel.call_later(1.0, lambda: faults.heal(initiator.address,
                                                     b.address))
    done = []

    def director():
        # Long timeout: the retransmission layer rides out the partition.
        session = yield from initiator.establish(pair_spec(), timeout=30.0)
        done.append(world.now)
        yield from session.terminate()

    world.run(until=world.process(director()))
    world.run()
    assert done and done[0] > 1.0


def test_member_crash_mid_session_terminate_still_succeeds():
    world = World(seed=63, latency=ConstantLatency(0.01))
    a = world.dapplet(Tracker, "caltech.edu", "a")
    b = world.dapplet(Tracker, "rice.edu", "b")
    initiator = world.dapplet(Initiator, "caltech.edu", "init")
    log = []

    def director():
        session = yield from initiator.establish(pair_spec())
        b.stop()  # crash after establishment
        # Messages to the dead member vanish; sender's channel breaks
        # after retries but the sender is not crashed.
        a.ctx.outbox("out").send(Text("into the void"))
        yield from session.terminate(timeout=1.0)
        log.append(session.terminated)

    world.run(until=world.process(director()))
    world.run()
    assert log == [True]
    assert a.ended == 1  # the live member was unlinked properly


def test_rpc_server_crash_times_out_client():
    world = World(seed=64, latency=ConstantLatency(0.01))
    server = world.dapplet(Plain, "caltech.edu", "server")
    client = world.dapplet(Plain, "rice.edu", "client")

    class Svc:
        def ping(self):
            return "pong"

    remote = export(server, Svc(), name="svc")
    proxy = RemoteProxy(client, remote.pointer)
    log = []

    def caller():
        first = yield proxy.call("ping", timeout=5.0)
        log.append(first)
        server.stop()
        try:
            yield proxy.call("ping", timeout=1.0)
        except RpcTimeout:
            log.append("timeout")

    world.run(until=world.process(caller()))
    world.run()
    assert log == ["pong", "timeout"]


def _world_that_can_mute(seed):
    """A world whose fault plan loses every DATA frame of one node at a
    time, on a transport that gives a channel up within a second."""
    muted = []
    faults = FaultPlan(drop_filter=lambda d: d.src in muted
                       and d.header.get("kind") == "DATA")
    world = World(seed=seed, latency=ConstantLatency(0.01), faults=faults,
                  endpoint_options={"max_retries": 3, "rto_max": 0.2})
    return world, muted


def test_rpc_export_answers_again_after_its_reply_channel_broke():
    """A fault that outlives the retry budget breaks the server's reply
    channel; once the network recovers the export must answer again."""
    world, muted = _world_that_can_mute(68)
    server = world.dapplet(Plain, "caltech.edu", "server")
    client = world.dapplet(Plain, "rice.edu", "client")

    class Counter:
        n = 0

        def bump(self):
            self.n += 1
            return self.n

    proxy = RemoteProxy(client, export(server, Counter(), name="svc").pointer)
    log = []

    def caller():
        log.append((yield proxy.call("bump", timeout=1.0)))
        muted.append(server.address)
        try:
            yield proxy.call("bump", timeout=1.0)
        except RpcTimeout:
            log.append("timeout")
        yield world.kernel.timeout(5.0)
        muted.clear()
        log.append((yield proxy.call("bump", timeout=1.0)))
        log.append((yield proxy.call("bump", timeout=1.0)))

    world.run(until=world.process(caller()))
    assert server.endpoint.stats.gave_up == 1
    assert log == [1, "timeout", 3, 4]


def test_token_manager_answers_again_after_its_reply_channel_broke():
    world, muted = _world_that_can_mute(69)
    host = world.dapplet(Plain, "caltech.edu", "host")
    coordinator = TokenCoordinator(host, {"obj": 3})
    agent = TokenAgent(world.dapplet(Plain, "rice.edu", "d0"),
                       coordinator.pointer)
    log = []

    def holder():
        log.append((yield agent.request({"obj": 1})))
        muted.append(host.address)
        lost = agent.request({"obj": 1})
        yield lost | world.kernel.timeout(5.0)
        log.append(lost.triggered)
        muted.clear()
        granted = agent.request({"obj": 1})
        yield granted | world.kernel.timeout(5.0)
        log.append(granted.triggered and granted.value)

    world.run(until=world.process(holder()))
    assert host.endpoint.stats.gave_up == 1
    assert log == [{"obj": 1}, False, {"obj": 1}]
    coordinator.check_conservation()


# The same fault on the other side: the *client's* DATA is lost until its
# request channel breaks. Requests leave through Dapplet.post like
# replies do, so each client below must work again once the mute lifts.


def test_rpc_proxy_calls_again_after_its_request_channel_broke():
    world, muted = _world_that_can_mute(71)
    server = world.dapplet(Plain, "caltech.edu", "server")
    client = world.dapplet(Plain, "rice.edu", "client")

    class Counter:
        n = 0

        def bump(self):
            self.n += 1
            return self.n

    proxy = RemoteProxy(client, export(server, Counter(), name="svc").pointer)
    log = []

    def attempt():
        try:
            log.append((yield proxy.call("bump", timeout=1.0)))
        except RpcTimeout:
            log.append("timeout")

    def caller():
        yield from attempt()
        muted.append(client.address)
        yield from attempt()
        yield world.kernel.timeout(5.0)
        muted.clear()
        yield from attempt()
        yield from attempt()

    world.run(until=world.process(caller()))
    assert client.endpoint.stats.gave_up == 1
    assert log == [1, "timeout", 2, 3]
    assert not any(s.broken for s in client.endpoint._send_streams.values())


def test_token_agent_requests_again_after_its_request_channel_broke():
    world, muted = _world_that_can_mute(72)
    host = world.dapplet(Plain, "caltech.edu", "host")
    coordinator = TokenCoordinator(host, {"obj": 3})
    d0 = world.dapplet(Plain, "rice.edu", "d0")
    agent = TokenAgent(d0, coordinator.pointer)
    log = []

    def holder():
        log.append((yield agent.request({"obj": 1})))
        muted.append(d0.address)
        lost = agent.request({"obj": 1})
        yield lost | world.kernel.timeout(5.0)
        log.append(lost.triggered)
        muted.clear()
        granted = agent.request({"obj": 1})
        yield granted | world.kernel.timeout(5.0)
        log.append(granted.triggered and granted.value)

    world.run(until=world.process(holder()))
    assert d0.endpoint.stats.gave_up == 1
    assert log == [{"obj": 1}, False, {"obj": 1}]
    coordinator.check_conservation()


def test_sync_handle_acquires_again_after_its_request_channel_broke():
    world, muted = _world_that_can_mute(73)
    host = SyncHost(world.dapplet(Plain, "caltech.edu", "host"))
    d0 = world.dapplet(Plain, "rice.edu", "d0")
    sem = DistributedSemaphore(d0, host.pointer, "s", permits=3)
    log = []

    def worker():
        yield sem.acquire()
        muted.append(d0.address)
        lost = sem.acquire()
        yield lost | world.kernel.timeout(5.0)
        log.append(lost.triggered)
        muted.clear()
        again = sem.acquire()
        yield again | world.kernel.timeout(5.0)
        log.append(again.triggered)

    world.run(until=world.process(worker()))
    assert d0.endpoint.stats.gave_up == 1
    assert log == [False, True]


def test_lease_rows_come_back_after_a_four_minute_outage():
    """Default endpoint options: a channel survives ~120 s of silence, so
    240 s breaks the channel to every replica of both catalogs. The
    dapplet must re-register by itself once its link is back."""
    muted = []
    world = World(seed=74, latency=ConstantLatency(0.01),
                  faults=FaultPlan(drop_filter=lambda d: d.src in muted))
    alice = world.registry.principal("alice", "acme")
    directory = world.host_directory(3)
    dappstore = world.host_dappstore(3)
    d0 = world.dapplet(Plain, "rice.edu", "d0", owner=alice)
    other = world.dapplet(Plain, "utk.edu", "other", owner=alice)
    resolver = world.resolver_for(d0)
    client = world.store_client_for(d0)
    agents = (d0.lease_agent, d0.manifest_agent)

    def replicas_serving():
        return tuple(
            sum(1 for r in ring
                if row in {rec.name for rec in r.live_records()})
            for ring, row in ((directory, "d0"),
                              (dappstore, d0.manifest_name)))

    def body():
        yield d0.lease_agent.registered
        yield d0.manifest_agent.published
        yield world.kernel.timeout(5.0)
        assert replicas_serving() == (3, 3)
        muted.append(d0.address)
        # Asked during the outage, so the resolver's and the client's
        # channels break along with the agents'.
        with pytest.raises(DiscoveryError):
            yield from resolver.resolve("other")
        with pytest.raises(RegistryError):
            yield from client.lookup(other.manifest_name)
        yield world.kernel.timeout(240.0)
        assert replicas_serving() == (0, 0)
        assert d0.endpoint.stats.gave_up >= 6
        muted.clear()
        yield world.kernel.timeout(30.0)
        assert replicas_serving() == (3, 3)
        before = [agent.renewals for agent in agents]
        yield world.kernel.timeout(10.0)
        assert all(agent.renewals > was
                   for agent, was in zip(agents, before))
        assert (yield from resolver.resolve("other")) == other.address
        manifest = yield from client.lookup(other.manifest_name)
        assert manifest.dapplet == "other"

    world.run(until=world.process(body()))
    # Every channel post replaced was forgotten by the endpoint too.
    streams = d0.endpoint._send_streams
    assert len(streams) <= len(directory) + len(dappstore) + 1
    assert not any(s.broken for s in streams.values())


def test_broken_request_channels_do_not_pile_up_in_the_endpoint():
    """One lease agent, 60 s cut off on a transport that gives up in a
    second: it opens a channel per failover, and each one it replaces
    must leave the endpoint's stream table with it."""
    world, muted = _world_that_can_mute(75)
    directory = world.host_directory(3)
    d0 = world.dapplet(Plain, "rice.edu", "d0")

    def body():
        yield d0.lease_agent.registered
        muted.append(d0.address)
        yield world.kernel.timeout(60.0)
        assert d0.endpoint.stats.gave_up > 30
        muted.clear()
        yield world.kernel.timeout(10.0)

    world.run(until=world.process(body()))
    streams = d0.endpoint._send_streams
    assert len(streams) <= len(directory) + 1
    assert len(d0.outboxes) <= len(directory) + 1
    # Replacement is lazy, so a replica not written to since the outage
    # may still hold its last broken channel — one per destination at
    # most, never one per failover; the replica in use has a live one.
    assert sum(s.broken for s in streams.values()) < len(directory)
    assert d0.lease_agent.renewals > 0


def test_token_holder_crash_coordinator_keeps_accounting():
    """A crashed holder's tokens stay checked out — the coordinator's
    books remain consistent (recovery policy is the application's
    business; the invariant is that nothing is double-granted)."""
    world = World(seed=65, latency=ConstantLatency(0.01))
    host = world.dapplet(Plain, "caltech.edu", "host")
    coordinator = TokenCoordinator(host, {"obj": 1})
    d0 = world.dapplet(Plain, "s0.edu", "d0")
    d1 = world.dapplet(Plain, "s1.edu", "d1")
    a0 = TokenAgent(d0, coordinator.pointer)
    a1 = TokenAgent(d1, coordinator.pointer)
    waited = []

    def holder():
        yield a0.request({"obj": 1})
        d0.stop()  # crash while holding the token

    def waiter():
        ev = a1.request({"obj": 1})
        got = yield ev | world.kernel.timeout(3.0)
        waited.append(ev.triggered)

    world.run(until=world.process(holder()))
    world.run(until=world.process(waiter()))
    world.run()
    assert waited == [False]  # never granted: the token is genuinely held
    coordinator.check_conservation()
    assert coordinator.holders.get("d0") == {"obj": 1}


def test_receive_timeout_under_total_silence():
    world = World(seed=66, latency=ConstantLatency(0.01))
    d = world.dapplet(Plain, "caltech.edu", "d")
    inbox = d.create_inbox(name="in")
    outcomes = []

    def listener():
        try:
            yield inbox.receive(timeout=2.0)
        except ReceiveTimeout:
            outcomes.append(world.now)

    world.run(until=world.process(listener()))
    assert outcomes == [2.0]


def test_send_confirmed_to_crashed_peer_raises():
    world = World(seed=67, latency=ConstantLatency(0.01),
                  endpoint_options={"rto_initial": 0.05, "max_retries": 4})
    a = world.dapplet(Plain, "caltech.edu", "a")
    b = world.dapplet(Plain, "rice.edu", "b")
    inbox = b.create_inbox(name="in")
    out = a.create_outbox()
    out.add(inbox.named_address)
    b.stop()
    caught = []

    def sender():
        try:
            yield out.send_confirmed(Text("x"), timeout=1.0)
        except DeliveryTimeout:
            caught.append("timeout")

    world.run(until=world.process(sender()))
    world.run()
    assert caught == ["timeout"]


class DurableCounter(Dapplet):
    """Tallies received messages into durable state."""

    kind = "durable-counter"

    def on_session_start(self, ctx):
        self.ctx = ctx

        def count():
            while ctx.active:
                msg = yield ctx.inbox("in").receive()
                tally = self.state.region("tally")
                tally.set("count", tally.get("count", 0) + 1)
                tally.set("last", msg.text)

        self.spawn(count(), name="count")
        return None


def _crash_restart_scenario(world, *, checkpoint_delta=None):
    """Kill the receiver mid-session, restart it from its durable
    store (optionally rolled back to the time-T checkpoint cut), then
    re-establish the session and prove traffic flows again. Returns
    ``(state_at_restart, outcome_log)`` for the caller to assert on."""
    sender = world.dapplet(Tracker, "caltech.edu", "a")
    receiver = world.dapplet(DurableCounter, "rice.edu", "b")
    initiator = world.dapplet(Initiator, "caltech.edu", "init")
    log = []

    def director():
        session = yield from initiator.establish(pair_spec(), timeout=60.0)
        # T is relative to the post-establishment clock (the session
        # protocol itself advances Lamport time), so the cut lands a
        # few data messages in.
        service = at_time = None
        if checkpoint_delta is not None:
            at_time = receiver.clock.time + checkpoint_delta
            service = CheckpointService(receiver, at_time)
        for i in range(6):
            sender.ctx.outbox("out").send(Text(f"m{i}"))
            yield world.substrate.timeout(0.05)
        # Wait until the receiver has tallied everything, then crash it.
        while receiver.state.region("tally").get("count", 0) < 6:
            yield world.substrate.timeout(0.05)
        live_state = receiver.state.snapshot()
        receiver.stop()  # in-memory state is gone; the journal is not
        sender.ctx.outbox("out").send(Text("into the void"))
        yield from session.terminate(timeout=5.0)

        if service is not None:
            log.append(("cut", service.taken.state))
            reborn = world.restart_dapplet("b", from_checkpoint=at_time)
        else:
            reborn = world.restart_dapplet("b")
        log.append(("recovered", reborn.state.snapshot(), live_state))

        # The session re-establishes against the reborn member (fresh
        # port, re-registered in the directory) and traffic flows.
        session2 = yield from initiator.establish(pair_spec(), timeout=60.0)
        before = reborn.state.region("tally").get("count", 0)
        sender.ctx.outbox("out").send(Text("after the restart"))
        while reborn.state.region("tally").get("count", 0) == before:
            yield world.substrate.timeout(0.05)
        log.append(("resumed",
                    reborn.state.region("tally").get("last"),
                    reborn.state.region("tally").get("count", 0), before))
        yield from session2.terminate()

    return director, log


def _assert_crash_restart_outcome(log, *, checkpointed):
    if checkpointed:
        (tag0, cut), (tag1, recovered, live), (tag2, last, after, before) \
            = log
        # Rolled back to the time-T cut, not the state at the crash.
        assert recovered == cut
        assert cut["tally"]["count"] < live["tally"]["count"]
    else:
        (tag1, recovered, live), (tag2, last, after, before) = log
        # Recovered exactly the state at the moment of the crash: the
        # "into the void" message never reached the journal.
        assert recovered == live
        assert recovered["tally"]["count"] == 6
    assert last == "after the restart"
    assert after == before + 1


def test_kill_mid_session_restart_reestablish_sim():
    world = World(seed=71, latency=ConstantLatency(0.01),
                  store=MemoryBackend())
    director, log = _crash_restart_scenario(world)
    world.run(until=world.process(director()))
    world.run()
    _assert_crash_restart_outcome(log, checkpointed=False)


def test_kill_mid_session_restart_from_checkpoint_sim():
    world = World(seed=72, latency=ConstantLatency(0.01),
                  store=MemoryBackend())
    director, log = _crash_restart_scenario(world, checkpoint_delta=3)
    world.run(until=world.process(director()))
    world.run()
    _assert_crash_restart_outcome(log, checkpointed=True)


def test_kill_mid_session_restart_reestablish_real_udp(tmp_path):
    """The same crash/restart cycle over real loopback UDP sockets,
    with the journal on a real filesystem."""
    backend = FileBackend(tmp_path / "store")
    world = World(substrate=AsyncioSubstrate(seed=73), store=backend)
    try:
        director, log = _crash_restart_scenario(world)
        world.run(until=world.process(director()), wall_timeout=60)
    finally:
        backend.close()
        world.close()
    _assert_crash_restart_outcome(log, checkpointed=False)


def test_kill_mid_session_restart_from_checkpoint_real_udp(tmp_path):
    backend = FileBackend(tmp_path / "store")
    world = World(substrate=AsyncioSubstrate(seed=74), store=backend)
    try:
        director, log = _crash_restart_scenario(world, checkpoint_delta=3)
        world.run(until=world.process(director()), wall_timeout=60)
    finally:
        backend.close()
        world.close()
    _assert_crash_restart_outcome(log, checkpointed=True)


def test_restart_from_checkpoint_retains_owner_grants_and_manifest():
    """Crash + ``restart_dapplet(from_checkpoint=T)`` in an owned world:
    the reborn dapplet keeps its owning principal and DAppStore name,
    its manifest is re-published with a fresh lease, existing grants
    keep working, and the capability gate still denies the ungranted."""
    world = World(seed=76, latency=ConstantLatency(0.01),
                  store=MemoryBackend())
    alice = world.registry.principal("alice", org="acme")
    bob = world.registry.principal("bob", org="acme")
    mallory = world.registry.principal("mallory", org="evil")
    world.host_dappstore(2)
    world.registry.grant(bob, "acme/**", ("session.establish",))
    sender = world.dapplet(Tracker, "caltech.edu", "a")
    receiver = world.dapplet(DurableCounter, "rice.edu", "b", owner=alice)
    initiator = world.dapplet(Initiator, "caltech.edu", "init", owner=bob)
    intruder = world.dapplet(Initiator, "caltech.edu", "mall-init",
                             owner=mallory)
    store_name = receiver.manifest_name
    assert store_name == "acme/durable-counter/b"
    log = []

    def director():
        session = yield from initiator.establish(pair_spec(), timeout=60.0)
        at_time = receiver.clock.time + 3
        service = CheckpointService(receiver, at_time)
        for i in range(6):
            sender.ctx.outbox("out").send(Text(f"m{i}"))
            yield world.substrate.timeout(0.05)
        while receiver.state.region("tally").get("count", 0) < 6:
            yield world.substrate.timeout(0.05)
        live_count = receiver.state.region("tally").get("count")
        receiver.stop()
        yield from session.terminate(timeout=5.0)

        reborn = world.restart_dapplet("b", from_checkpoint=at_time)
        log.append(("rollback",
                    reborn.state.region("tally").get("count", 0),
                    live_count))
        # Ownership and the hierarchical store name survive the restart.
        assert reborn.owner is alice
        assert reborn.manifest_name == store_name

        # bob's grant still admits him against the recovered member...
        session2 = yield from initiator.establish(pair_spec(), timeout=60.0)
        log.append(("reestablished", session2.session_id))
        # ...while mallory is still denied at the capability gate.
        try:
            yield from intruder.establish(pair_spec(), timeout=60.0)
        except SessionRejected as exc:
            log.append(("denied", exc.participant, exc.reason))
        yield from session2.terminate()

        # The manifest was re-enrolled under a live lease (the reborn's
        # publish agent waits out the predecessor's lease, at most one
        # TTL): a catalog lookup resolves it to the reborn instance.
        yield reborn.manifest_agent.published
        client = world.store_client_for(sender)
        manifest = None
        while manifest is None:  # anti-entropy reaches every replica
            manifest = yield from client.lookup(store_name)
            if manifest is None:
                yield world.substrate.timeout(0.5)
        log.append(("manifest", manifest.owner, manifest.dapplet))

    # No trailing bare run(): store replicas gossip/sweep forever, so
    # the simulator would never quiesce.
    world.run(until=world.process(director()))
    (_, recovered_count, live_count), (tag, _), denied, manifest_row = log
    assert recovered_count < live_count  # rolled back to the time-T cut
    assert tag == "reestablished"
    assert denied == ("denied", "b", "capability:session.establish")
    assert receiver.sessions.stats.rejects_capability == 0  # old instance
    reborn = next(d for d in world.dapplets() if d.name == "b")
    assert reborn.sessions.stats.rejects_capability == 1
    assert manifest_row == ("manifest", "alice", "b")
    assert world.registry.grants_for(bob)  # grants outlive the crash


def test_interference_state_released_after_crash_teardown():
    """After a member crash + terminate, new sessions on the survivors
    are not blocked by stale interference entries."""
    world = World(seed=68, latency=ConstantLatency(0.01))
    a = world.dapplet(Tracker, "caltech.edu", "a")
    b = world.dapplet(Tracker, "rice.edu", "b")
    c = world.dapplet(Tracker, "utk.edu", "c")
    initiator = world.dapplet(Initiator, "caltech.edu", "init")

    def spec_with_regions(members):
        spec = SessionSpec("t")
        for m in members:
            spec.add_member(m, regions={"shared": "rw"})
        return spec

    done = []

    def director():
        s1 = yield from initiator.establish(spec_with_regions(["a", "b"]))
        b.stop()
        yield from s1.terminate(timeout=1.0)
        # 'a' must accept a new conflicting-region session now.
        s2 = yield from initiator.establish(spec_with_regions(["a", "c"]))
        done.append(True)
        yield from s2.terminate()

    world.run(until=world.process(director()))
    world.run()
    assert done == [True]
