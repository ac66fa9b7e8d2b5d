"""Unit tests for the unreliable datagram network."""

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
from repro.sim import Kernel

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
    (src, dst); they are the same named streams as ever, so the draws —
    and every seeded run — are unchanged."""
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
