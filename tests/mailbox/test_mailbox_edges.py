"""Edge-case tests for mailbox ports."""

import pytest

from repro.errors import BindingError, ReceiveTimeout
from repro.mailbox import Inbox, Outbox
from repro.messages import Text
from repro.net import ConstantLatency, DatagramNetwork, Endpoint, NodeAddress
from repro.sim import Kernel

A = NodeAddress("a.edu", 1000)
B = NodeAddress("b.edu", 1000)


def world_pair():
    k = Kernel(seed=0)
    net = DatagramNetwork(k, latency=ConstantLatency(0.02))
    return k, Endpoint(k, net, A), Endpoint(k, net, B)


def test_send_result_confirmed_with_no_receipts_fires_immediately():
    k, ea, eb = world_pair()
    out = Outbox(k, ea, 0)
    result = out.send(Text("void"))  # no bindings
    fired = []

    def waiter():
        yield result.confirmed()
        fired.append(k.now)

    k.process(waiter())
    k.run()
    assert fired == [0.0]


def test_send_with_timeout_and_no_bindings_raises():
    """A timed send on an unbound outbox is a wiring bug, not a silent
    instant success: it raises BindingError exactly like send_confirmed."""
    k, ea, eb = world_pair()
    out = Outbox(k, ea, 0)
    with pytest.raises(BindingError):
        out.send(Text("void"), timeout=1.0)
    # The untimed fan-out-of-zero stays legal (vacuous confirmation).
    assert out.send(Text("void")).copies == 0


@pytest.mark.parametrize("arrives", ["before_expiry", "after_expiry"])
def test_receive_timeout_same_instant_arrival_is_kept(arrives):
    """A message delivered in the very instant a timed receive expires,
    on either side of the expiry in that instant: the receive fails
    with ReceiveTimeout, and the next receive takes the message."""
    k, ea, eb = world_pair()
    inbox = Inbox(k, eb, 0)

    def deliver():
        inbox.deliver_local(Text("racer"))

    if arrives == "before_expiry":
        k.call_later(0.05, deliver)
    ev = inbox.receive(timeout=0.05)
    if arrives == "after_expiry":
        k.call_later(0.05, deliver)
    with pytest.raises(ReceiveTimeout):
        k.run(until=ev)
    k.run()
    assert k.now == 0.05
    assert [m.text for m in inbox.queued()] == ["racer"]
    assert k.run(until=inbox.receive()).text == "racer"
    assert inbox.is_empty and inbox.backlog_bytes == 0


def test_transform_queued_rewrites_and_drops():
    k, ea, eb = world_pair()
    inbox = Inbox(k, eb, 0)
    out = Outbox(k, ea, 0)
    out.add(inbox.address)
    for i in range(4):
        out.send(Text(str(i)))
    k.run()
    inbox.transform_queued(
        lambda m: None if int(m.text) % 2 else Text("x" + m.text))
    assert [m.text for m in inbox.queued()] == ["x0", "x2"]


def test_queued_returns_copy():
    k, ea, eb = world_pair()
    inbox = Inbox(k, eb, 0)
    out = Outbox(k, ea, 0)
    out.add(inbox.address)
    out.send(Text("m"))
    k.run()
    snapshot = inbox.queued()
    snapshot.clear()
    assert len(inbox) == 1


def test_receive_timeout_zero_like_behaviour():
    """A receive with a very short timeout on an empty inbox fails; on a
    non-empty inbox it succeeds immediately."""
    k, ea, eb = world_pair()
    inbox = Inbox(k, eb, 0)
    inbox.deliver_local(Text("ready"))
    got = []

    def reader():
        msg = yield inbox.receive(timeout=0.001)
        got.append(msg.text)

    k.process(reader())
    k.run()
    assert got == ["ready"]


def test_outbox_send_hooks_apply_per_send_not_per_copy():
    """One stamp per send: all copies carry identical hook output."""
    k, ea, eb = world_pair()
    in1 = Inbox(k, eb, 0)
    in2 = Inbox(k, eb, 1)
    out = Outbox(k, ea, 0)
    out.add(in1.address)
    out.add(in2.address)
    calls = []
    out.send_hooks.append(lambda m: (calls.append(1), m)[1])
    out.send(Text("m"))
    assert len(calls) == 1
    k.run()
    assert len(in1) == len(in2) == 1


def test_inbox_counts_messages_received():
    k, ea, eb = world_pair()
    inbox = Inbox(k, eb, 0)
    for i in range(3):
        inbox.deliver_local(Text(str(i)))
    assert inbox.messages_received == 3
    # Hook-swallowed messages are not counted as received.
    inbox.delivery_hooks.append(lambda m: None)
    inbox.deliver_local(Text("swallowed"))
    assert inbox.messages_received == 3
