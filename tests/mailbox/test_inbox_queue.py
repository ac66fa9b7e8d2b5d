"""The inbox's own queue: FIFO receives, blocking receives served in
order, peek, withdrawn timed receives, and each dequeue's wait."""

from collections import deque

import pytest

from repro import Dapplet, World
from repro.errors import ReceiveTimeout
from repro.mailbox import Inbox
from repro.mailbox.inbox import LOCAL_MESSAGE_SIZE
from repro.messages import Text
from repro.net import ConstantLatency, DatagramNetwork, Endpoint, NodeAddress
from repro.obs import Tracer
from repro.sim import Kernel

B = NodeAddress("b.edu", 1000)


def make_inbox():
    k = Kernel(seed=0)
    net = DatagramNetwork(k, latency=ConstantLatency(0.02))
    return k, Inbox(k, Endpoint(k, net, B), 0)


def test_receives_after_deliveries_are_fifo():
    k, inbox = make_inbox()
    for i in range(3):
        inbox.deliver_local(Text(str(i)))
    got = []

    def body():
        for _ in range(3):
            got.append((yield inbox.receive()).text)

    k.process(body())
    k.run()
    assert got == ["0", "1", "2"]


def test_receive_blocks_until_a_delivery():
    k, inbox = make_inbox()
    got = []

    def consumer():
        message = yield inbox.receive()
        got.append((message.text, k.now))

    k.process(consumer())
    k.call_later(5.0, lambda: inbox.deliver_local(Text("x")))
    k.run()
    assert got == [("x", 5.0)]


def test_waiting_receivers_are_served_in_order():
    k, inbox = make_inbox()
    got = []

    def consumer(i):
        message = yield inbox.receive()
        got.append((i, message.text))

    for i in range(3):
        k.process(consumer(i))
    k.call_later(1.0, lambda: [inbox.deliver_local(Text(c)) for c in "abc"])
    k.run()
    assert got == [(0, "a"), (1, "b"), (2, "c")]


def test_a_delivery_stays_visible_until_the_waiting_receive_runs():
    """A put while a receive waits hands the message over in a zero-delay
    drain, so code inspecting the queue in the delivering instant still
    sees it."""
    k, inbox = make_inbox()
    taken = inbox.receive()
    inbox.deliver_local(Text("m"))
    assert len(inbox) == 1 and not inbox.is_empty
    assert inbox.backlog_bytes == LOCAL_MESSAGE_SIZE
    assert not taken.triggered
    k.run()
    assert taken.value.text == "m"
    assert len(inbox) == 0 and inbox.is_empty and inbox.backlog_bytes == 0


def test_peek_reads_the_head_without_consuming():
    k, inbox = make_inbox()
    with pytest.raises(LookupError):
        inbox.peek()
    inbox.deliver_local(Text("head"))
    inbox.deliver_local(Text("tail"))
    assert inbox.peek().text == "head"
    assert len(inbox) == 2


def test_an_expired_receive_withdraws_and_takes_nothing():
    k, inbox = make_inbox()
    expired = inbox.receive(timeout=1.0)
    with pytest.raises(ReceiveTimeout):
        k.run(until=expired)
    inbox.deliver_local(Text("x"))
    k.run()
    # The withdrawn receive did not consume the message.
    assert [m.text for m in inbox.queued()] == ["x"]
    assert k.run(until=inbox.receive()).text == "x"


class _Node(Dapplet):
    kind = "node"


def test_each_dequeue_reports_its_own_wait_when_traced_mid_run():
    """m1 and m2 arrive at t=0, a tracer is attached at t=1, m3 arrives
    at t=5, and all three are received at t=9: each dequeue reports the
    residence time of the message it took (9, 9 and 4 s), including the
    two queued before anything was traced."""
    world = World(seed=0, latency=ConstantLatency(0.01))
    node = world.dapplet(_Node, "b.edu", "b")
    inbox = node.create_inbox(name="in")
    tracer = Tracer()
    inbox.deliver_local(Text("m1"))
    inbox.deliver_local(Text("m2"))
    world.kernel.call_later(1.0, lambda: world.attach_tracer(tracer))
    world.kernel.call_later(5.0, lambda: inbox.deliver_local(Text("m3")))

    def reader():
        yield world.kernel.timeout(9.0)
        for _ in range(3):
            yield inbox.receive()

    world.run(until=world.process(reader()))
    dequeues = [ev.fields for ev in tracer.select("mbox", "dequeue")]
    assert [(f["qlen"], f["wait"]) for f in dequeues] == [
        (2, 9.0), (1, 9.0), (0, 4.0)]
    assert tracer.summary()["histograms"]["mbox.wait"]["count"] == 3


def test_an_inbox_that_never_receives_holds_no_deque():
    """The message queue is made at the first arrival. Until then the
    inbox answers every query without one, and the receives a service
    loop parks on it (a plain dapplet's ``_session``) need none either."""
    k, inbox = make_inbox()
    inbox.transform_queued(lambda message: message)
    with pytest.raises(LookupError):
        inbox.peek()
    assert (inbox.is_empty, len(inbox), inbox.queued()) == (True, 0, [])
    assert inbox._entries is None

    world = World(seed=0, latency=ConstantLatency(0.01))
    a = world.dapplet(_Node, "caltech.edu", "a")
    b = world.dapplet(_Node, "rice.edu", "b")
    used = b.create_inbox(name="in")
    out = a.create_outbox()
    out.add(used.named_address)
    out.send(Text("x"))
    world.run()
    idle = [i for d in (a, b) for i in d.inboxes.values() if i is not used]
    assert idle and all(i.messages_received == 0 for i in idle)
    assert any(i._takers for i in idle)     # a parked service loop
    assert not any(isinstance(getattr(i, attr), deque)
                   for i in idle for attr in ("_entries", "_takers"))
    assert [m.text for m in used.queued()] == ["x"]
