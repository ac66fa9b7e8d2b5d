"""Integration tests: session growth, shrinkage, leave, termination."""

import pytest

from repro.errors import SessionError, SessionRejected
from repro.messages import Text
from repro.session import Binding, MemberSpec, SessionSpec

from tests.session.conftest import PassiveDapplet, pair_spec


def test_grow_session_adds_member_and_channels(world, initiator):
    a = world.dapplet(PassiveDapplet, "caltech.edu", "a")
    b = world.dapplet(PassiveDapplet, "rice.edu", "b")
    c = world.dapplet(PassiveDapplet, "utk.edu", "c")
    got = []

    def director():
        session = yield from initiator.establish(pair_spec())
        assert session.members == {"a", "b"}
        yield from session.add_member(
            MemberSpec("c", inboxes=("in",)),
            [Binding("a", "to_c", "c", "in"),
             Binding("c", "out", "a", "in")])
        assert session.members == {"a", "b", "c"}
        # a -> c over the new channel added by bind_add.
        a.last_ctx.outbox("to_c").send(Text("welcome"))
        msg = yield c.last_ctx.inbox("in").receive()
        got.append(msg.text)
        # c -> a over c's committed outbox.
        c.last_ctx.outbox("out").send(Text("thanks"))
        msg = yield a.last_ctx.inbox("in").receive()
        got.append(msg.text)
        yield from session.terminate()

    p = world.process(director())
    world.run(until=p)
    assert got == ["welcome", "thanks"]
    assert c.ended == 1


def test_grow_validates_membership(world, initiator):
    world.dapplet(PassiveDapplet, "caltech.edu", "a")
    world.dapplet(PassiveDapplet, "rice.edu", "b")
    world.dapplet(PassiveDapplet, "utk.edu", "c")
    errors = []

    def director():
        session = yield from initiator.establish(pair_spec())
        try:
            yield from session.add_member(
                MemberSpec("a", inboxes=("in",)), [])
        except SessionError as exc:
            errors.append("dup")
        try:
            yield from session.add_member(
                MemberSpec("c", inboxes=("in",)),
                [Binding("a", "o", "b", "in")])  # does not involve c
        except SessionError:
            errors.append("uninvolved")
        yield from session.terminate()

    p = world.process(director())
    world.run(until=p)
    assert errors == ["dup", "uninvolved"]


def test_grow_rejected_by_interference(world, initiator):
    world.dapplet(PassiveDapplet, "caltech.edu", "a")
    world.dapplet(PassiveDapplet, "rice.edu", "b")
    c = world.dapplet(PassiveDapplet, "utk.edu", "c")
    outcome = []

    def director():
        # c is already in a session writing its 'docs' region.
        solo = SessionSpec("solo")
        solo.add_member("c", regions={"docs": "rw"})
        s1 = yield from initiator.establish(solo)
        s2 = yield from initiator.establish(pair_spec())
        try:
            yield from s2.add_member(
                MemberSpec("c", inboxes=("in",), regions={"docs": "r"}),
                [Binding("a", "to_c", "c", "in")])
        except SessionRejected as exc:
            outcome.append(exc.reason)
        yield from s1.terminate()
        yield from s2.terminate()

    p = world.process(director())
    world.run(until=p)
    assert outcome == ["interference"]


def test_shrink_removes_member_and_channels(world, initiator):
    a = world.dapplet(PassiveDapplet, "caltech.edu", "a")
    b = world.dapplet(PassiveDapplet, "rice.edu", "b")
    logs = []

    def director():
        session = yield from initiator.establish(pair_spec())
        a_out = a.last_ctx.outbox("out")
        assert len(a_out.destinations()) == 1
        yield from session.remove_member("b")
        assert session.members == {"a"}
        # The channel a -> b was removed by bind_remove.
        assert a_out.destinations() == ()
        logs.append(b.ended)
        yield from session.terminate()

    p = world.process(director())
    world.run(until=p)
    assert logs == [1]
    assert a.ended == 1


def test_shrink_unknown_member_raises(world, initiator):
    world.dapplet(PassiveDapplet, "caltech.edu", "a")
    world.dapplet(PassiveDapplet, "rice.edu", "b")
    errors = []

    def director():
        session = yield from initiator.establish(pair_spec())
        try:
            yield from session.remove_member("ghost")
        except SessionError:
            errors.append("unknown")
        yield from session.terminate()

    p = world.process(director())
    world.run(until=p)
    assert errors == ["unknown"]


def test_member_leave_is_answered_at_terminate(world, initiator):
    a = world.dapplet(PassiveDapplet, "caltech.edu", "a")
    b = world.dapplet(PassiveDapplet, "rice.edu", "b")
    log = []

    def director():
        session = yield from initiator.establish(pair_spec())
        # b leaves unilaterally; nothing is sent.
        b.last_ctx.leave(reason="done early")
        yield world.kernel.timeout(1.0)
        # b answers the unlink for the session it left, so termination
        # costs one round trip, not the timeout.
        began = world.now
        yield from session.terminate()
        log.append((sorted(session.members), world.now - began < 1.0))

    p = world.process(director())
    world.run(until=p)
    assert b.ended == 1 and a.ended == 1
    assert log == [(["a", "b"], True)]  # membership record retained
    assert b.sessions.stats.unlinks == 1


def test_terminate_is_idempotent(world, initiator):
    world.dapplet(PassiveDapplet, "caltech.edu", "a")
    world.dapplet(PassiveDapplet, "rice.edu", "b")
    done = []

    def director():
        session = yield from initiator.establish(pair_spec())
        yield from session.terminate()
        yield from session.terminate()  # second call is a no-op
        done.append(True)

    p = world.process(director())
    world.run(until=p)
    assert done == [True]


def test_terminate_tolerates_dead_member(world, initiator):
    a = world.dapplet(PassiveDapplet, "caltech.edu", "a")
    b = world.dapplet(PassiveDapplet, "rice.edu", "b")
    done = []

    def director():
        session = yield from initiator.establish(pair_spec())
        b.stop()  # b crashes; its unlink goes unanswered
        yield from session.terminate(timeout=2.0)
        done.append(session.terminated)

    p = world.process(director())
    world.run(until=p)
    assert done == [True]
    assert a.ended == 1


def test_grow_after_terminate_raises(world, initiator):
    world.dapplet(PassiveDapplet, "caltech.edu", "a")
    world.dapplet(PassiveDapplet, "rice.edu", "b")
    world.dapplet(PassiveDapplet, "utk.edu", "c")
    errors = []

    def director():
        session = yield from initiator.establish(pair_spec())
        yield from session.terminate()
        try:
            yield from session.add_member(
                MemberSpec("c", inboxes=("in",)), [])
        except SessionError:
            errors.append("terminated")

    p = world.process(director())
    world.run(until=p)
    assert errors == ["terminated"]
