"""Unit tests for SessionManager protocol edge cases, driven by raw calls
on a dapplet's session facet (no initiator)."""

import pytest

from repro.errors import RpcError
from repro.messages import Text
from repro.net import ConstantLatency, InboxAddress
from repro.rpc import RemoteProxy
from repro.session.manager import CONTROL_INBOX
from repro.world import World

from tests.session.conftest import PassiveDapplet


@pytest.fixture
def rig():
    world = World(seed=91, latency=ConstantLatency(0.01))
    target = world.dapplet(PassiveDapplet, "caltech.edu", "target")
    probe = world.dapplet(PassiveDapplet, "rice.edu", "probe")
    proxy = RemoteProxy(probe, InboxAddress(target.address, CONTROL_INBOX))
    return world, target, probe, proxy


def prepare(proxy, sid="s#1", member="m", inboxes=("in",), regions=None,
            timeout=30.0):
    return proxy.call("prepare", sid, "t", member, inboxes, regions or {},
                      False, timeout)


def settle(world, call):
    """Run until ``call`` returns: its value, or the RpcError it raised."""
    outcome = []

    def wait():
        try:
            outcome.append((yield call))
        except RpcError as exc:
            outcome.append(exc)

    world.run(until=world.process(wait()))
    return outcome[0]


def test_commit_for_unknown_session_raises(rig):
    world, target, probe, proxy = rig
    error = settle(world, proxy.call("commit", "ghost#1", {}, {}, {}))
    assert error.remote_type == "SessionError"
    assert target.sessions.stats.commits == 0
    assert target.sessions.active_sessions() == []


def test_commit_after_abort_is_dropped(rig):
    world, target, probe, proxy = rig
    assert set(settle(world, prepare(proxy))) == {"in"}
    proxy.invoke("abort", "s#1")
    # Same proxy, same channel: the abort lands before the commit.
    error = settle(world, proxy.call("commit", "s#1", {}, {}, {}))
    assert error.remote_type == "SessionError"
    assert target.sessions.active_sessions() == []
    assert target.sessions.stats.aborts == 1
    assert not hasattr(target, "last_ctx")


def test_duplicate_commit_re_acks_ready(rig):
    world, target, probe, proxy = rig
    settle(world, prepare(proxy))
    assert settle(world, proxy.call("commit", "s#1", {}, {}, {})) is None
    assert settle(world, proxy.call("commit", "s#1", {}, {}, {})) is None
    assert target.sessions.stats.commits == 1  # only counted once
    # on_session_start ran once.
    assert target.last_ctx is not None


def test_duplicate_unlink_is_answered(rig):
    world, target, probe, proxy = rig
    settle(world, prepare(proxy))
    assert settle(world, proxy.call("unlink", "s#1")) is None
    # A second unlink (duplicate terminate) is answered too, from no
    # state at all.
    assert settle(world, proxy.call("unlink", "s#1")) is None
    assert target.sessions.stats.unlinks == 1


def test_unlink_of_never_seen_session_is_answered(rig):
    world, target, probe, proxy = rig
    assert settle(world, proxy.call("unlink", "never#1")) is None
    assert target.sessions.stats.unlinks == 0


def test_bind_add_before_commit_is_dropped(rig):
    world, target, probe, proxy = rig
    settle(world, prepare(proxy))
    error = settle(world, proxy.call(
        "bind_add", "s#1", "out", (probe.address.inbox("ctl"),), ""))
    # Not committed: no ctx, and the caller is told.
    assert error.remote_type == "SessionError"
    assert not hasattr(target, "last_ctx")


def test_bind_add_is_idempotent(rig):
    world, target, probe, proxy = rig
    settle(world, prepare(proxy))
    settle(world, proxy.call("commit", "s#1", {}, {}, {}))
    dest = probe.address.inbox("ctl")
    for _ in range(2):
        assert settle(world, proxy.call(
            "bind_add", "s#1", "out", (dest,), "")) is None
    assert target.last_ctx.outbox("out").destinations() == (dest,)


def test_bind_remove_is_idempotent(rig):
    world, target, probe, proxy = rig
    settle(world, prepare(proxy))
    target_addr = probe.address.inbox("ctl")
    settle(world, proxy.call("commit", "s#1", {"out": (target_addr,)}, {},
                             {}))
    ctx = target.last_ctx
    assert ctx.outbox("out").destinations() == (target_addr,)
    proxy.invoke("bind_remove", "s#1", "out", (target_addr,))
    world.run()
    assert ctx.outbox("out").destinations() == ()
    # Removing again (or an unknown outbox) is harmless.
    proxy.invoke("bind_remove", "s#1", "out", (target_addr,))
    proxy.invoke("bind_remove", "s#1", "nope", (target_addr,))
    world.run()
    assert target.sessions._remote.errors == 0


def test_unknown_control_message_is_ignored(rig):
    world, target, probe, proxy = rig
    probe.post(InboxAddress(target.address, CONTROL_INBOX),
               Text("not a control message"))
    world.run()
    assert target.sessions.active_sessions() == []
    assert target.sessions._remote.invocations == 0


def test_manager_internals_are_not_invocable(rig):
    """Only the facet is exported: the manager's own surface stays local."""
    world, target, probe, proxy = rig
    for method in ("active_sessions", "stats", "authorizes_callers",
                   "_prepare"):
        error = settle(world, proxy.call(method))
        assert error.remote_type in ("AttributeError", "PermissionError")


def test_prepare_with_unwritable_port_name_collision(rig):
    """Two different sessions create same-named ports: namespacing by
    session id keeps them distinct."""
    world, target, probe, proxy = rig
    first, second = prepare(proxy, sid="s#1"), prepare(proxy, sid="s#2")
    assert settle(world, first)["in"] != settle(world, second)["in"]


def test_expired_prepare_is_released_on_the_next_call(rig):
    """Presumed abort: a prepared entry outliving its initiator's
    deadline is aborted lazily — by whatever facet call comes next."""
    world, target, probe, proxy = rig
    settle(world, prepare(proxy, regions={"cal": "rw"}, timeout=1.0))
    world.run(until=world.now + 5.0)
    assert list(target.sessions._entries) == ["s#1"]  # no timer fired
    ports = settle(world, prepare(proxy, sid="s#2", regions={"cal": "rw"}))
    assert set(ports) == {"in"}
    assert list(target.sessions._entries) == ["s#2"]
    assert target.sessions.stats.aborts == 1


def test_committed_session_outlives_its_prepare_deadline(rig):
    world, target, probe, proxy = rig
    settle(world, prepare(proxy, regions={"cal": "rw"}, timeout=1.0))
    settle(world, proxy.call("commit", "s#1", {}, {}, {}))
    world.run(until=world.now + 5.0)
    error = settle(world, prepare(proxy, sid="s#2", regions={"cal": "rw"}))
    assert error.remote_message == "interference"
    assert target.sessions.active_sessions() == ["s#1"]
    assert target.sessions.stats.aborts == 0
