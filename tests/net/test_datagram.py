"""Unit tests for the unreliable datagram network."""

from random import Random

import pytest

from repro.errors import AddressError
from repro.net import (
    ConstantLatency,
    Datagram,
    DatagramNetwork,
    FaultPlan,
    NodeAddress,
    UniformLatency,
)
from repro.sim import Kernel, RandomStreams

A = NodeAddress("a.edu", 1000)
B = NodeAddress("b.edu", 1000)


def make_net(kernel, **kw):
    return DatagramNetwork(kernel, **kw)


def dgram(payload="hi", src=A, dst=B):
    return Datagram(src, dst, {"kind": "RAW", "to": 0, "ch": "c"}, payload)


def test_delivery_with_constant_latency():
    k = Kernel()
    net = make_net(k, latency=ConstantLatency(0.25))
    got = []
    net.register(B, lambda d: got.append((k.now, d.payload)))
    net.send(dgram("x"))
    k.run()
    assert got == [(0.25, "x")]
    assert net.stats.sent == net.stats.delivered == 1


def test_unregistered_destination_is_dropped_silently():
    k = Kernel()
    net = make_net(k)
    net.send(dgram())
    k.run()
    assert net.stats.undeliverable == 1
    assert net.stats.delivered == 0


def test_double_registration_rejected():
    k = Kernel()
    net = make_net(k)
    net.register(B, lambda d: None)
    with pytest.raises(AddressError):
        net.register(B, lambda d: None)
    net.unregister(B)
    net.register(B, lambda d: None)  # re-register after unregister is fine
    assert net.is_registered(B)


def test_drop_faults_counted():
    k = Kernel()
    net = make_net(k, faults=FaultPlan(drop_prob=1.0))
    net.register(B, lambda d: pytest.fail("must not deliver"))
    for _ in range(10):
        net.send(dgram())
    k.run()
    assert net.stats.dropped == 10
    assert net.stats.delivered == 0


def test_duplicate_faults_deliver_twice():
    k = Kernel()
    net = make_net(k, faults=FaultPlan(duplicate_prob=1.0))
    got = []
    net.register(B, lambda d: got.append(d.payload))
    net.send(dgram("x"))
    k.run()
    assert got == ["x", "x"]
    assert net.stats.duplicated == 1


def test_reordering_possible_with_jitter():
    """With reorder jitter, later sends can overtake earlier ones."""
    k = Kernel(seed=3)
    net = make_net(k, latency=ConstantLatency(0.01),
                   faults=FaultPlan(reorder_jitter=0.5))
    got = []
    net.register(B, lambda d: got.append(int(d.payload)))

    def sender():
        for i in range(30):
            net.send(dgram(str(i)))
            yield k.timeout(0.001)

    k.process(sender())
    k.run()
    assert sorted(got) == list(range(30))
    assert got != sorted(got)  # at least one inversion occurred


def test_latency_independent_per_link_direction():
    """Each (src,dst) pair gets its own random stream."""
    k = Kernel(seed=1)
    net = make_net(k, latency=UniformLatency(0.0, 1.0))
    times = {}
    net.register(B, lambda d: times.setdefault("ab", k.now))
    net.register(A, lambda d: times.setdefault("ba", k.now))
    net.send(dgram(src=A, dst=B))
    net.send(dgram(src=B, dst=A))
    k.run()
    assert times["ab"] != times["ba"]


def test_wire_taps_observe_sends():
    k = Kernel()
    net = make_net(k)
    seen = []
    net.wire_taps.append(lambda t, d: seen.append(d.payload))
    net.register(B, lambda d: None)
    net.send(dgram("x"))
    assert seen == ["x"]


def test_datagram_size_includes_overhead():
    d = dgram("12345")
    assert d.size == 64 + 5


def test_byte_counters():
    k = Kernel()
    net = make_net(k)
    net.register(B, lambda d: None)
    net.send(dgram("12345"))
    k.run()
    assert net.stats.bytes_sent == 69
    assert net.stats.bytes_delivered == 69


def test_link_streams_are_the_named_ones_resolved_once():
    """The network looks a link's fault and latency streams up once per
    (src, dst), at their first draw; they are the same named streams as
    ever, so the draws — and every seeded run — are unchanged."""
    k = Kernel(seed=9)
    net = make_net(k, latency=UniformLatency(0.01, 0.02),
                   faults=FaultPlan(drop_prob=0.5))
    net.register(B, lambda d: None)
    net.register(A, lambda d: None)
    faults = k.rng.get(f"net/{A}->{B}/faults")
    latency = k.rng.get(f"net/{A}->{B}/latency")
    back = k.rng.get(f"net/{B}->{A}/faults")
    states = (faults.getstate(), latency.getstate(), back.getstate())
    for _ in range(20):
        net.send(dgram())
    assert faults.getstate() != states[0]
    assert latency.getstate() != states[1]
    assert back.getstate() == states[2]      # directional
    net.send(dgram(src=B, dst=A))
    assert back.getstate() != states[2]


def test_links_that_never_draw_hold_no_stream():
    """A constant latency and an empty plan draw nothing, so traffic on
    many links names no ``net/...`` stream and the link entries hold no
    generator."""
    k = Kernel(seed=3)
    net = make_net(k, latency=ConstantLatency(0.01))
    names = []
    get = k.rng.get
    k.rng.get = lambda name: names.append(name) or get(name)
    peers = [NodeAddress(f"p{i}.edu", 1000) for i in range(40)]
    for peer in (B, *peers):
        net.register(peer, lambda d: None)
    for peer in peers:
        net.send(dgram(src=peer, dst=B))
        net.send(dgram(src=B, dst=peer))
    k.run()
    assert net.stats.delivered == 80
    assert names == []
    assert not any(isinstance(stream, Random)
                   for entry in net._links.values() for stream in entry)


def test_lazy_streams_draw_what_eager_named_streams_draw():
    """Fates and delivery times per datagram equal those computed from
    the links' named streams fetched up front (so creating a stream at
    its first draw moves no draw), duplicates included."""
    seed, n = 5, 60
    plan = dict(drop_prob=0.3, duplicate_prob=0.1, reorder_jitter=0.05)
    latency = UniformLatency(0.01, 0.2)
    links = [(A, B), (B, A), (A, NodeAddress("c.edu", 1000))]
    k = Kernel(seed=seed)
    net = make_net(k, latency=latency, faults=FaultPlan(**plan))
    got = {}
    for _, dst in links:
        net.register(dst, lambda d: got.setdefault(d.payload, []).append(k.now))
    for i in range(n):
        src, dst = links[i % len(links)]
        net.send(dgram(str(i), src=src, dst=dst))
    k.run()

    eager = RandomStreams(seed)
    reference = FaultPlan(**plan)
    want = {}
    for i in range(n):
        src, dst = links[i % len(links)]
        name = f"net/{src}->{dst}/"
        lat_rng = eager.get(name + "latency")
        times = [extra + latency.sample(lat_rng, src.host, dst.host,
                                        dgram(str(i)).size)
                 for extra in reference.copies(eager.get(name + "faults"),
                                               src, dst)]
        if times:
            want[str(i)] = times
    assert {p: sorted(t) for p, t in got.items()} \
        == {p: sorted(t) for p, t in want.items()}
    assert net.stats.dropped > 0 and net.stats.duplicated > 0


def test_a_plan_raised_mid_run_draws_the_named_streams_first_value():
    k = Kernel(seed=8)
    net = make_net(k, latency=ConstantLatency(0.01))
    net.register(B, lambda d: None)
    for _ in range(10):
        net.send(dgram())          # nothing to draw yet
    net.faults.drop_prob = 0.5
    net.send(dgram())
    name = f"net/{A}->{B}/faults"
    first = RandomStreams(8).get(name)
    assert net.stats.dropped == (first.random() < 0.5)
    # The link's stream has drawn exactly that one number.
    assert k.rng.get(name).getstate() == first.getstate()
