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


def test_link_streams_are_named_once_per_link(kind):
    substrate, _tracer = make_substrate(kind)
    try:
        names = []
        get = substrate.rng.get
        substrate.rng.get = lambda name: names.append(name) or get(name)
        for seq in range(5):
            substrate.datagrams.send(data(A, B, seq))
            substrate.datagrams.send(data(B, A, seq))
        assert f"net/{A}->{B}/faults" in names
        assert f"net/{B}->{A}/faults" in names
        assert len(names) == len(set(names))
    finally:
        substrate.close()
