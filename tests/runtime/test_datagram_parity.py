"""The datagram front end behaves the same under both carriers.

``DatagramNetwork`` and ``UdpDatagramService`` share one front end
(``repro.net.datagram.DatagramFrontEnd``): counters, wire taps, ``net``
trace events and the fault draw. These tests hold the two substrates to
what that promises — same seed and same :class:`FaultPlan` give the same
per-datagram fate on a link, and the loss cases (nobody there, garbage
bytes) are counted *and* traced on both.
"""

import pytest

from repro.net.address import NodeAddress
from repro.net.datagram import Datagram
from repro.net.faults import FaultPlan
from repro.net.wire import KIND_DATA, encode_frame
from repro.obs import Tracer
from repro.runtime import AsyncioSubstrate, SimSubstrate
from repro.sim import RandomStreams

A = NodeAddress("alice.host", 2000)
B = NodeAddress("bob.host", 2000)
NOWHERE = NodeAddress("nobody.host", 2000)


def make_substrate(kind, *, seed=11, faults=None):
    cls = SimSubstrate if kind == "sim" else AsyncioSubstrate
    substrate = cls(seed=seed, faults=faults)
    substrate.datagrams.register(A, lambda datagram: None)
    substrate.datagrams.register(B, lambda datagram: None)
    return substrate, Tracer(categories=["net"]).attach(substrate)


def data(src, dst, seq):
    return Datagram(src, dst, {"kind": KIND_DATA, "to": 0, "ch": "c",
                               "seq": seq, "ts": 0.0}, "x")


@pytest.fixture(params=["sim", "asyncio"])
def kind(request):
    return request.param


def test_same_seed_same_plan_same_fate_per_datagram():
    fates, counts = {}, {}
    for kind in ("sim", "asyncio"):
        substrate, tracer = make_substrate(
            kind, faults=FaultPlan(drop_prob=0.3, duplicate_prob=0.2))
        try:
            for seq in range(200):
                substrate.datagrams.send(data(A, B, seq))
            fates[kind] = [(ev.name, ev.fields["seq"])
                           for ev in tracer.select("net")
                           if ev.name in ("send", "drop", "dup")]
            stats = substrate.datagrams.stats.snapshot()
            counts[kind] = {k: stats[k]
                            for k in ("sent", "dropped", "duplicated")}
        finally:
            substrate.close()
    assert fates["sim"] == fates["asyncio"]
    assert counts["sim"] == counts["asyncio"]
    assert counts["sim"]["dropped"] > 0 and counts["sim"]["duplicated"] > 0


def test_a_datagram_for_nobody_is_counted_and_traced(kind):
    """Whichever side finds out: the sender with no route, or the
    receiving side with no handler for the frame's destination."""
    substrate, tracer = make_substrate(kind)
    try:
        substrate.datagrams.send(data(A, NOWHERE, 0))
        if kind == "sim":
            substrate.run()  # the simulator finds out on arrival
        substrate.datagrams._deliver_bytes(encode_frame(data(A, NOWHERE, 1)))
        assert substrate.datagrams.stats.undeliverable == 2
        assert [ev.node for ev in tracer.select("net", "undeliverable")] \
            == [str(NOWHERE)] * 2
    finally:
        substrate.close()


def test_garbage_bytes_are_counted_and_traced(kind):
    substrate, tracer = make_substrate(kind)
    try:
        substrate.datagrams._deliver_bytes(b"garbage")
        assert substrate.datagrams.stats.bad_frames == 1
        assert len(tracer.select("net", "bad_frame")) == 1
    finally:
        substrate.close()


def record_stream_names(substrate):
    names = []
    get = substrate.rng.get
    substrate.rng.get = lambda name: names.append(name) or get(name)
    return names


def test_link_streams_are_named_once_per_link(kind):
    """At most once per link, and only when a draw needs the stream:
    nothing while the plan is empty, the fault stream once the plan
    draws, and never the latency stream of a constant latency."""
    substrate, _tracer = make_substrate(kind)
    try:
        names = record_stream_names(substrate)
        for seq in range(5):
            substrate.datagrams.send(data(A, B, seq))
            substrate.datagrams.send(data(B, A, seq))
        assert names == []
        substrate.datagrams.faults.drop_prob = 0.3
        for seq in range(5, 10):
            substrate.datagrams.send(data(A, B, seq))
            substrate.datagrams.send(data(B, A, seq))
        assert sorted(names) == [f"net/{A}->{B}/faults",
                                 f"net/{B}->{A}/faults"]
    finally:
        substrate.close()


def test_idle_links_name_no_stream(kind):
    """Traffic on many links under a constant latency and an empty
    plan creates no ``net/...`` stream."""
    substrate, _tracer = make_substrate(kind)
    try:
        names = record_stream_names(substrate)
        for i in range(30):
            peer = NodeAddress(f"peer{i}.host", 2000)
            substrate.datagrams.send(data(A, peer, i))
            substrate.datagrams.send(data(peer, B, i))
        if kind == "sim":
            substrate.run()
        assert substrate.datagrams.stats.sent == 60
        assert names == []
    finally:
        substrate.close()


def test_fates_are_those_of_eagerly_fetched_named_streams(kind):
    """Per datagram, the fate each link draws is the one its named fault
    stream, fetched up front, gives."""
    plan = dict(drop_prob=0.3, duplicate_prob=0.2, reorder_jitter=0.05)
    substrate, tracer = make_substrate(kind, faults=FaultPlan(**plan))
    links = [(A, B), (B, A)]
    try:
        for seq in range(120):
            substrate.datagrams.send(data(*links[seq % 2], seq))
        got = [(ev.name, ev.fields["seq"]) for ev in tracer.select("net")
               if ev.name in ("drop", "dup")]
    finally:
        substrate.close()
    eager = RandomStreams(11)
    reference = FaultPlan(**plan)
    want = []
    for seq in range(120):
        src, dst = links[seq % 2]
        copies = reference.copies(eager.get(f"net/{src}->{dst}/faults"),
                                  src, dst)
        if len(copies) != 1:
            want.append(("dup" if copies else "drop", seq))
    assert got == want
    assert {name for name, _ in got} == {"drop", "dup"}
