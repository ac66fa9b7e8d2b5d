"""Regression: failed growth rolls back cleanly."""

import pytest

from repro.errors import SessionError, SessionRejected
from repro.net import ConstantLatency, PerLinkLatency
from repro.session import Binding, Initiator, MemberSpec, SessionSpec
from repro.world import World

from tests.session.conftest import PassiveDapplet, pair_spec


def test_grow_timeout_aborts_late_accepter():
    latency = PerLinkLatency(ConstantLatency(0.01))
    latency.set_link("caltech.edu", "slow.edu", ConstantLatency(3.0))
    world = World(seed=101, latency=latency)
    initiator = world.dapplet(Initiator, "caltech.edu", "init")
    world.dapplet(PassiveDapplet, "caltech.edu", "a")
    world.dapplet(PassiveDapplet, "rice.edu", "b")
    c = world.dapplet(PassiveDapplet, "slow.edu", "c")
    outcomes = []

    def director():
        session = yield from initiator.establish(pair_spec())
        try:
            yield from session.add_member(
                MemberSpec("c", inboxes=("in",), regions={"r": "rw"}),
                [Binding("a", "to_c", "c", "in")], timeout=1.0)
        except SessionError:
            outcomes.append("timeout")
        assert "c" not in session.members
        assert "c" not in session.ports
        # Let the slow accept and the abort both land.
        yield world.kernel.timeout(10.0)
        # c holds nothing: a fresh conflicting-region session succeeds.
        solo = SessionSpec("solo")
        solo.add_member("c", regions={"r": "rw"})
        s2 = yield from initiator.establish(solo)
        outcomes.append("clean")
        yield from s2.terminate()
        yield from session.terminate()

    p = world.process(director())
    world.run(until=p)
    world.run()
    assert outcomes == ["timeout", "clean"]
    assert c.sessions._entries == {}


def test_grow_rejection_rolls_back_spec():
    world = World(seed=102, latency=ConstantLatency(0.01))
    initiator = world.dapplet(Initiator, "caltech.edu", "init")
    a = world.dapplet(PassiveDapplet, "caltech.edu", "a")
    world.dapplet(PassiveDapplet, "rice.edu", "b")
    c = world.dapplet(PassiveDapplet, "utk.edu", "c")
    c.acl.deny(initiator.address)
    outcomes = []

    def director():
        session = yield from initiator.establish(pair_spec())
        bindings_before = list(session.bindings)
        try:
            yield from session.add_member(
                MemberSpec("c", inboxes=("in",)),
                [Binding("a", "to_c", "c", "in")])
        except SessionRejected as exc:
            outcomes.append(exc.reason)
        assert session.bindings == bindings_before
        assert "c" not in session.members
        assert "c" not in session.spec.members
        # The existing members' channels are untouched; the session
        # still works end to end.
        from repro.messages import Text
        a.last_ctx.outbox("out").send(Text("still alive"))
        import tests.session.conftest  # noqa: F401 (b defined there)
        b = world.get("b")
        msg = yield b.last_ctx.inbox("in").receive()
        outcomes.append(msg.text)
        yield from session.terminate()

    p = world.process(director())
    world.run(until=p)
    world.run()
    assert outcomes == ["acl", "still alive"]


def test_growth_and_shrinkage_move_the_bindings_not_the_spec():
    """``Session.spec`` stays the spec the session was established
    with; ``Session.bindings`` follows growth, rewiring and shrinkage."""
    world = World(seed=103, latency=ConstantLatency(0.01))
    initiator = world.dapplet(Initiator, "caltech.edu", "init")
    world.dapplet(PassiveDapplet, "caltech.edu", "a")
    world.dapplet(PassiveDapplet, "rice.edu", "b")
    world.dapplet(PassiveDapplet, "utk.edu", "c")
    to_c = Binding("a", "to_c", "c", "in")
    from_c = Binding("c", "out", "b", "in")
    done = []

    def director():
        session = yield from initiator.establish(pair_spec())
        established = list(session.spec.bindings)
        assert session.bindings == established
        yield from session.add_member(MemberSpec("c", inboxes=("in",)),
                                      [to_c])
        yield from session.add_bindings([from_c])
        assert session.bindings == established + [to_c, from_c]
        assert sorted(session.members) == ["a", "b", "c"]
        yield from session.remove_member("b")
        assert session.bindings == [to_c]
        assert sorted(session.members) == ["a", "c"]
        assert session.spec.bindings == established
        assert sorted(session.spec.members) == ["a", "b"]
        yield from session.terminate()
        done.append(True)

    world.run(until=world.process(director()))
    assert done == [True]
