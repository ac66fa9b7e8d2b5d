"""Moderate-scale smoke tests and whole-run determinism checks."""

import pytest

from repro import Dapplet, Initiator, SessionSpec, World
from repro.apps.calendar import (
    CalendarDapplet,
    MeetingDirector,
    SecretaryDapplet,
    load_calendar,
    schedule_meeting,
)
from repro.mailbox import Inbox, Outbox
from repro.messages import Text
from repro.net import (
    ConstantLatency,
    DatagramNetwork,
    Endpoint,
    FaultPlan,
    GeoLatency,
    NodeAddress,
    UniformLatency,
)
from repro.obs import Tracer
from repro.sim import Kernel


class Node(Dapplet):
    kind = "node"

    def on_session_start(self, ctx):
        self.ctx = ctx


def test_forty_dapplet_star_session():
    """One hub broadcasting to 39 spokes over a lossy net: everything
    arrives, in order, and the session tears down cleanly."""
    world = World(seed=111, latency=UniformLatency(0.005, 0.05),
                  faults=FaultPlan(drop_prob=0.05),
                  endpoint_options={"rto_initial": 0.1})
    n = 40
    hub = world.dapplet(Node, "caltech.edu", "hub")
    spokes = [world.dapplet(Node, f"s{i}.edu", f"n{i}")
              for i in range(n - 1)]
    initiator = world.dapplet(Initiator, "caltech.edu", "init")
    spec = SessionSpec("bigstar")
    spec.add_member("hub")
    for s in spokes:
        spec.add_member(s.name, inboxes=("in",))
        spec.bind("hub", "bcast", s.name, "in")
    done = []

    def director():
        session = yield from initiator.establish(spec, timeout=60.0)
        for i in range(25):
            hub.ctx.outbox("bcast").send(Text(str(i)))
        yield world.kernel.timeout(5.0)
        yield from session.terminate(timeout=60.0)
        done.append(True)

    world.run(until=world.process(director()))
    world.run()
    assert done
    for s in spokes:
        got = [m.text for m in s.ctx.inbox("in").queued()]
        assert got == [str(i) for i in range(25)], s.name


def test_hundred_sequential_sessions_no_drift():
    """A long-lived deployment: 100 establish/terminate cycles keep
    the world clean and the virtual clock finite."""
    world = World(seed=112, latency=ConstantLatency(0.01))
    a = world.dapplet(Node, "caltech.edu", "a")
    b = world.dapplet(Node, "rice.edu", "b")
    initiator = world.dapplet(Initiator, "caltech.edu", "init")

    def run_all():
        for k in range(100):
            spec = SessionSpec(f"cycle{k}")
            spec.add_member("a", inboxes=("in",))
            spec.add_member("b", inboxes=("in",))
            spec.bind("a", "out", "b", "in")
            session = yield from initiator.establish(spec)
            a.ctx.outbox("out").send(Text(str(k)))
            msg = yield b.ctx.inbox("in").receive()
            assert msg.text == str(k)
            yield from session.terminate()

    p = world.process(run_all())
    world.run(until=p)
    world.run()
    # Steady state: two base inboxes per dapplet (_session + none),
    # no session ports left behind.
    assert all(not ib.name or not ib.name.startswith("init#")
               for ib in a.inboxes.values())
    assert initiator._rpc_client._pending == {}


def fan_in_soak(seed, *, senders=50, per_sender=8):
    """50 cooperative outboxes fan in onto one slow inbox under 10%%
    loss; returns (trace, peak queue depth, max retransmit buffer,
    received messages)."""
    k = Kernel(seed=seed)
    tracer = Tracer(categories=["ep"]).attach(k)
    net = DatagramNetwork(k, latency=ConstantLatency(0.01),
                          faults=FaultPlan(drop_prob=0.1))
    hub = NodeAddress("hub.edu", 1000)
    eb = Endpoint(k, net, hub, rto_initial=0.1, recv_window=600)
    inbox = Inbox(k, eb, 0)
    peak = [0]

    def watch(message):
        peak[0] = max(peak[0], len(inbox) + 1)
        return message

    inbox.delivery_hooks.append(watch)
    got = []
    total = senders * per_sender

    def consumer():
        while len(got) < total:
            msg = yield inbox.receive()
            got.append(msg.text)
            yield k.timeout(0.005)  # the slow part

    max_unacked = [0]

    def sender(i, outbox, endpoint):
        chan = next(iter(outbox._channels.values()))
        for j in range(per_sender):
            yield from outbox.send_flow(Text(f"s{i:02d}|{j}"))
            stream = endpoint._send_streams[(hub, chan.key)]
            max_unacked[0] = max(max_unacked[0], len(stream.unacked))

    for i in range(senders):
        ea = Endpoint(k, net, NodeAddress(f"s{i:02d}.edu", 1000),
                      rto_initial=0.1, cwnd_initial=200)
        outbox = Outbox(k, ea, 0)
        outbox.add(inbox.address)
        k.process(sender(i, outbox, ea))
    k.process(consumer())
    k.run()
    return tracer.to_jsonl(), peak[0], max_unacked[0], got


def test_fan_in_backpressure_bounds_queues_and_is_deterministic():
    """Backpressure keeps the receiver queue and every sender's
    retransmit buffer bounded by the window geometry — far below the
    400 messages in flight without it — and the whole soak is
    byte-identical across same-seed repeats."""
    trace, peak, max_unacked, got = fan_in_soak(42)
    assert len(got) == 400
    for i in range(50):
        mine = [m for m in got if m.startswith(f"s{i:02d}|")]
        assert mine == [f"s{i:02d}|{j}" for j in range(8)], f"sender {i}"
    # ~600B of receive budget (a handful of messages) plus at most one
    # racing packet per sender: nowhere near the 400-message firehose.
    assert peak <= 120, peak
    assert max_unacked <= 10, max_unacked
    trace2, peak2, max_unacked2, got2 = fan_in_soak(42)
    assert (trace2, peak2, max_unacked2, got2) == (trace, peak,
                                                  max_unacked, got)


def full_calendar_trace(seed):
    world = World(seed=seed, latency=GeoLatency(),
                  faults=FaultPlan(drop_prob=0.05, reorder_jitter=0.05),
                  endpoint_options={"rto_initial": 0.5})
    members = []
    for i, host in enumerate(["caltech.edu", "rice.edu", "utk.edu",
                              "sydney.edu.au"]):
        d = world.dapplet(CalendarDapplet, host, f"m{i}")
        load_calendar(d.state, [i])
        members.append(f"m{i}")
    world.dapplet(SecretaryDapplet, "caltech.edu", "sec")
    director = world.dapplet(MeetingDirector, "caltech.edu", "dir")
    box = []

    def driver():
        out = yield from schedule_meeting(director, "sec", members,
                                          horizon=8)
        box.append(out)

    world.run(until=world.process(driver()))
    world.run()
    out = box[0]
    return (out.day, out.rounds, round(out.elapsed, 9), out.datagrams,
            world.network.stats.snapshot())


def test_whole_application_run_is_deterministic():
    """Identical seeds give bit-identical end-to-end traces, including
    every network counter, even under loss and reordering."""
    assert full_calendar_trace(7) == full_calendar_trace(7)
    assert full_calendar_trace(7) != full_calendar_trace(8)
