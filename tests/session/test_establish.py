"""Integration tests: the two-phase session link-up protocol."""

import pytest

from repro.errors import AddressError, SessionError, SessionRejected
from repro.messages import Text
from repro.net import InboxAddress
from repro.rpc import RemoteProxy
from repro.session import (Binding, InterferenceMonitor, MemberSpec,
                           SessionSpec)
from repro.session.manager import CONTROL_INBOX

from tests.session.conftest import EchoDapplet, PassiveDapplet, pair_spec


def test_establish_two_member_session(world, initiator):
    a = world.dapplet(EchoDapplet, "caltech.edu", "a")
    b = world.dapplet(PassiveDapplet, "rice.edu", "b")
    results = []

    def director():
        session = yield from initiator.establish(pair_spec())
        results.append(session)
        # b can now talk to a through its session ports.
        ctx = b.last_ctx
        ctx.outbox("out").send(Text("ping"))
        reply = yield ctx.inbox("in").receive()
        results.append(reply.text)
        yield from session.terminate()

    p = world.process(director())
    world.run(until=p)
    session = results[0]
    assert session.members == {"a", "b"}
    assert results[1] == "echo:ping"
    assert session.terminated
    assert a.started == 1 and a.ended == 1
    assert b.ended == 1


def test_ports_are_namespaced_by_session(world, initiator):
    a = world.dapplet(PassiveDapplet, "caltech.edu", "a")
    b = world.dapplet(PassiveDapplet, "rice.edu", "b")
    sessions = []

    def director():
        s1 = yield from initiator.establish(pair_spec())
        s2 = yield from initiator.establish(pair_spec())
        sessions.extend([s1, s2])

    p = world.process(director())
    world.run(until=p)
    s1, s2 = sessions
    assert s1.session_id != s2.session_id
    assert s1.port("a", "in") != s2.port("a", "in")


def test_acl_rejection_aborts_cleanly(world, initiator):
    a = world.dapplet(PassiveDapplet, "caltech.edu", "a")
    b = world.dapplet(PassiveDapplet, "rice.edu", "b")
    b.acl.deny(initiator.address)
    outcome = []

    def director():
        try:
            yield from initiator.establish(pair_spec())
        except SessionRejected as exc:
            outcome.append((exc.participant, exc.reason))

    p = world.process(director())
    world.run(until=p)
    world.run()  # let the in-flight abort land
    assert outcome == [("b", "acl")]
    # The accepting member was aborted: no active sessions anywhere.
    assert a.sessions.active_sessions() == []
    assert a.sessions.stats.aborts == 1
    assert not hasattr(a, "last_ctx")  # never committed


def test_interference_rejection(world, initiator):
    a = world.dapplet(PassiveDapplet, "caltech.edu", "a")
    b = world.dapplet(PassiveDapplet, "rice.edu", "b")
    outcome = []

    def director():
        spec1 = pair_spec(regions_a={"cal": "rw"})
        s1 = yield from initiator.establish(spec1)
        try:
            yield from initiator.establish(pair_spec(regions_a={"cal": "r"}))
        except SessionRejected as exc:
            outcome.append(exc.reason)
        # After terminating the first session the second succeeds.
        yield from s1.terminate()
        s2 = yield from initiator.establish(
            pair_spec(regions_a={"cal": "r"}))
        outcome.append(s2.session_id)
        yield from s2.terminate()

    p = world.process(director())
    world.run(until=p)
    assert outcome[0] == "interference"
    assert outcome[1]  # second establishment succeeded
    assert b.sessions.stats.rejects_interference == 0
    assert a.sessions.stats.rejects_interference == 1


def test_read_read_sessions_coexist(world, initiator):
    a = world.dapplet(PassiveDapplet, "caltech.edu", "a")
    b = world.dapplet(PassiveDapplet, "rice.edu", "b")
    monitor = InterferenceMonitor()
    world.interference_monitor = monitor
    done = []

    def director():
        s1 = yield from initiator.establish(pair_spec(regions_a={"cal": "r"}))
        s2 = yield from initiator.establish(pair_spec(regions_a={"cal": "r"}))
        done.append((s1, s2))
        yield from s1.terminate()
        yield from s2.terminate()

    p = world.process(director())
    world.run(until=p)
    assert done
    assert monitor.max_concurrent == 2


def test_establish_timeout_when_member_missing(world, initiator):
    # The spec names 'b' by a stale address: its dapplet is stopped.
    a = world.dapplet(PassiveDapplet, "caltech.edu", "a")
    b = world.dapplet(PassiveDapplet, "rice.edu", "b")
    spec = pair_spec()
    spec.members["b"].address = b.address
    b.stop()
    outcome = []

    def director():
        try:
            yield from initiator.establish(spec, timeout=2.0)
        except SessionError as exc:
            outcome.append(str(exc))

    p = world.process(director())
    world.run(until=p)
    assert outcome and "no reply" in outcome[0]
    assert a.sessions.active_sessions() == []


def _absent(world, name):
    """A name the world does not have: never created, or stopped."""
    if name == "stopped":
        world.dapplet(PassiveDapplet, "utk.edu", name).stop()


@pytest.mark.parametrize("name", ["ghost", "stopped"])
def test_establish_with_an_absent_member_fails_before_any_prepare(
        world, initiator, name):
    # No directory is hosted: members resolve among the world's dapplets.
    a = world.dapplet(PassiveDapplet, "caltech.edu", "a")
    _absent(world, name)
    spec = SessionSpec("test")
    spec.add_member("a", inboxes=("in",))
    spec.add_member(name, inboxes=("in",))
    spec.bind("a", "out", name, "in")
    outcome = []

    def director():
        try:
            yield from initiator.establish(spec)
        except AddressError as exc:
            outcome.append(exc)

    world.run(until=world.process(director()))
    world.run()
    assert len(outcome) == 1 and repr(name) in str(outcome[0])
    assert a.sessions.stats.prepares == 0
    assert a.sessions.active_sessions() == []


@pytest.mark.parametrize("name", ["ghost", "stopped"])
def test_growth_to_an_absent_member_fails_and_leaves_the_session(
        world, initiator, name):
    a = world.dapplet(PassiveDapplet, "caltech.edu", "a")
    b = world.dapplet(PassiveDapplet, "rice.edu", "b")
    _absent(world, name)
    outcome = []

    def director():
        session = yield from initiator.establish(pair_spec())
        ports = {m: dict(p) for m, p in session.ports.items()}
        try:
            yield from session.add_member(
                MemberSpec(name, inboxes=("in",)),
                [Binding("a", "to_new", name, "in")])
        except AddressError as exc:
            outcome.append(exc)
        assert session.members == {"a", "b"}
        assert session.ports == ports
        yield from session.terminate()

    world.run(until=world.process(director()))
    assert len(outcome) == 1 and repr(name) in str(outcome[0])
    assert a.sessions.stats.prepares == b.sessions.stats.prepares == 1


def test_session_context_region_views(world, initiator):
    a = world.dapplet(PassiveDapplet, "caltech.edu", "a")
    b = world.dapplet(PassiveDapplet, "rice.edu", "b")
    a.state.region("cal").set("monday", "free")

    def director():
        spec = pair_spec(regions_a={"cal": "rw"}, regions_b={"cal": "r"})
        session = yield from initiator.establish(spec)
        yield from session.terminate()

    p = world.process(director())

    # Check region views while the session is active.
    def checker():
        while not hasattr(a, "last_ctx"):
            yield world.kernel.timeout(0.01)
        ctx_a = a.last_ctx
        assert ctx_a.region("cal").get("monday") == "free"
        ctx_a.region("cal").set("tuesday", "busy")
        ctx_b = b.last_ctx
        assert not ctx_b.region("cal").writable
        with pytest.raises(PermissionError):
            ctx_b.region("cal").set("x", 1)
        with pytest.raises(SessionError):
            ctx_a.region("undeclared")

    world.process(checker())
    world.run(until=p)
    # State persists after the session ends (the paper's requirement).
    assert a.state.region("cal").get("tuesday") == "busy"


def test_fanout_session_topology(world, initiator):
    """A star: one hub outbox bound to three member inboxes."""
    hub = world.dapplet(PassiveDapplet, "caltech.edu", "hub")
    spokes = [world.dapplet(PassiveDapplet, "rice.edu", f"s{i}")
              for i in range(3)]
    spec = SessionSpec("star")
    spec.add_member("hub")
    for i in range(3):
        spec.add_member(f"s{i}", inboxes=("in",))
        spec.bind("hub", "bcast", f"s{i}", "in")
    got = []

    def director():
        session = yield from initiator.establish(spec)
        hub.last_ctx.outbox("bcast").send(Text("fan"))
        for s in spokes:
            msg = yield s.last_ctx.inbox("in").receive()
            got.append(msg.text)
        yield from session.terminate()

    p = world.process(director())
    world.run(until=p)
    assert got == ["fan", "fan", "fan"]


def test_duplicate_prepare_is_idempotent(world, initiator):
    """A retried prepare gets the same ports back."""
    a = world.dapplet(PassiveDapplet, "caltech.edu", "a")
    proxy = RemoteProxy(initiator, InboxAddress(a.address, CONTROL_INBOX))
    ports = []

    def poke():
        args = ("dup#1", "x", "a", ("in",), {}, False, 30.0)
        ports.append((yield proxy.call("prepare", *args)))
        ports.append((yield proxy.call("prepare", *args)))  # a retry

    p = world.process(poke())
    world.run(until=p)
    first, second = ports
    assert first == second
    assert a.sessions.stats.prepares == 2
    assert a.sessions.stats.accepts == 2
