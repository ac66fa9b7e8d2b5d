"""Unit and property tests for the reliable-FIFO transport layer."""

import pytest

from repro.errors import AddressError, DeliveryTimeout
from repro.net import (
    UNRELIABLE,
    ConstantLatency,
    DatagramNetwork,
    Endpoint,
    FaultPlan,
    NodeAddress,
    UniformLatency,
)
from repro.sim import Kernel

A = NodeAddress("a.edu", 1000)
B = NodeAddress("b.edu", 1000)


def make_pair(seed=0, *, latency=None, faults=None, **epkw):
    k = Kernel(seed=seed)
    net = DatagramNetwork(k, latency=latency or ConstantLatency(0.02),
                          faults=faults)
    ea = Endpoint(k, net, A, **epkw)
    eb = Endpoint(k, net, B, **epkw)
    return k, net, ea, eb


def collect_inbox(endpoint, ref=0, name=None):
    got = []
    endpoint.register_inbox(ref, lambda payload, addr: got.append(payload),
                            name=name)
    return got


def test_basic_delivery():
    k, net, ea, eb = make_pair()
    got = collect_inbox(eb)
    receipt = ea.send(B.inbox(0), "hello", channel="c1")
    k.run()
    assert got == ["hello"]
    assert receipt.is_confirmed
    # Confirmation takes a full round trip: data out + ack back.
    assert receipt.confirmed.value == pytest.approx(0.04)


def test_fifo_order_over_reordering_network():
    k, net, ea, eb = make_pair(
        seed=7, faults=FaultPlan(reorder_jitter=0.5),
        latency=ConstantLatency(0.01))
    got = collect_inbox(eb)
    n = 50
    for i in range(n):
        ea.send(B.inbox(0), str(i), channel="c1")
    k.run()
    assert got == [str(i) for i in range(n)]
    assert eb.stats.buffered_out_of_order > 0  # the net did reorder


def test_exactly_once_under_loss_and_duplication():
    k, net, ea, eb = make_pair(
        seed=11,
        faults=FaultPlan(drop_prob=0.3, duplicate_prob=0.2,
                         reorder_jitter=0.1),
        latency=ConstantLatency(0.01), rto_initial=0.05)
    got = collect_inbox(eb)
    n = 60
    for i in range(n):
        ea.send(B.inbox(0), str(i), channel="c1")
    k.run()
    assert got == [str(i) for i in range(n)]
    assert ea.stats.data_retransmitted > 0
    assert eb.stats.duplicates_discarded > 0


def test_channels_are_independent_fifo_streams():
    """FIFO holds per channel; cross-channel order is unconstrained."""
    k, net, ea, eb = make_pair(seed=5, faults=FaultPlan(reorder_jitter=0.3),
                               latency=ConstantLatency(0.01))
    got = collect_inbox(eb)
    for i in range(20):
        ea.send(B.inbox(0), f"x{i}", channel="cx")
        ea.send(B.inbox(0), f"y{i}", channel="cy")
    k.run()
    xs = [m for m in got if m.startswith("x")]
    ys = [m for m in got if m.startswith("y")]
    assert xs == [f"x{i}" for i in range(20)]
    assert ys == [f"y{i}" for i in range(20)]


def test_delivery_receipt_timeout_raises_in_waiter():
    k, net, ea, eb = make_pair(faults=FaultPlan(drop_prob=1.0),
                               rto_initial=0.05, max_retries=100)
    collect_inbox(eb)
    receipt = ea.send(B.inbox(0), "m", channel="c", timeout=0.3)
    failures = []

    def waiter():
        try:
            yield receipt.confirmed
        except DeliveryTimeout as exc:
            failures.append(exc)

    k.process(waiter())
    k.run(until=5.0)
    assert len(failures) == 1
    assert failures[0].timeout == pytest.approx(0.3)


def failed_at(k, receipt):
    """Virtual time at which ``receipt`` fails (None if it never does)."""
    seen = []

    def waiter():
        try:
            yield receipt.confirmed
        except DeliveryTimeout as exc:
            seen.append((k.now, exc))

    k.process(waiter())
    return seen


def test_delivery_deadline_fires_at_the_deadline_not_the_next_rto():
    """``timeout=`` is its own due time: with a 0.5 s RTO and total loss
    the receipt fails at t=0.05, not when the retransmission timer
    happens to look. The packet keeps retransmitting (FIFO not holed)."""
    k, net, ea, eb = make_pair(faults=FaultPlan(drop_prob=1.0),
                               rto_initial=0.5, max_retries=100)
    collect_inbox(eb)
    seen = failed_at(k, ea.send(B.inbox(0), "m", channel="c", timeout=0.05))
    k.run(until=2.0)
    assert [t for t, _ in seen] == [pytest.approx(0.05)]
    assert "not delivered within 0.050s" in str(seen[0][1])
    assert ea.stats.data_retransmitted >= 2


def test_delivery_deadline_of_a_queued_packet_fires_on_time():
    """A packet parked behind a closed window has no retransmission
    timer of its own; its deadline must not wait for another packet's."""
    k, net, ea, eb = make_pair(faults=FaultPlan(drop_prob=1.0),
                               rto_initial=0.5, max_retries=100,
                               cwnd_initial=1)
    collect_inbox(eb)
    ea.send(B.inbox(0), "head", channel="c")  # fills the one-packet window
    seen = failed_at(k, ea.send(B.inbox(0), "queued", channel="c",
                                timeout=0.05))
    stream = ea._send_streams[(B, "c")]
    assert stream.queued == 1 and stream.unacked[stream.next_tx].payload \
        == "queued"
    k.run(until=0.4)  # before any RTO of the head
    assert [t for t, _ in seen] == [pytest.approx(0.05)]
    assert stream.queued == 1 and stream.next_tx == 1  # still queued


def test_unobserved_timeout_does_not_crash_run():
    k, net, ea, eb = make_pair(faults=FaultPlan(drop_prob=1.0),
                               rto_initial=0.05, max_retries=3)
    collect_inbox(eb)
    ea.send(B.inbox(0), "m", channel="c", timeout=0.1)
    k.run()  # must terminate quietly
    assert ea.stats.gave_up == 1


def test_broken_channel_semantics():
    """Exhausting the retry budget breaks the channel exactly once: one
    gave_up increment, every queued receipt fails, later sends fail fast
    without touching the wire."""
    k, net, ea, eb = make_pair(faults=FaultPlan(drop_prob=1.0),
                               rto_initial=0.01, max_retries=3)
    collect_inbox(eb)
    receipts = [ea.send(B.inbox(0), str(i), channel="c") for i in range(5)]
    k.run()
    assert ea.stats.gave_up == 1  # one break for the channel, not per packet
    assert all(r.is_failed for r in receipts)
    assert all(isinstance(r.confirmed.value, DeliveryTimeout)
               for r in receipts)
    late = ea.send(B.inbox(0), "late", channel="c")
    assert late.is_failed
    sent_before = net.stats.sent
    k.run()
    assert net.stats.sent == sent_before, "fail-fast sends emit no datagrams"


def test_channel_breaks_after_retry_budget():
    k, net, ea, eb = make_pair(faults=FaultPlan(drop_prob=1.0),
                               rto_initial=0.01, max_retries=4)
    collect_inbox(eb)
    r1 = ea.send(B.inbox(0), "m", channel="c")
    k.run()
    assert r1.is_failed
    # Subsequent sends on the broken channel fail immediately.
    r2 = ea.send(B.inbox(0), "m2", channel="c")
    assert r2.is_failed
    # Other channels are unaffected (they break independently).
    r3 = ea.send(B.inbox(0), "m3", channel="other")
    assert not r3.is_failed


def test_named_inbox_delivery():
    k, net, ea, eb = make_pair()
    got = collect_inbox(eb, ref=4, name="students")
    ea.send(B.inbox("students"), "enroll", channel="c")
    ea.send(B.inbox(4), "enroll2", channel="c")
    k.run()
    assert got == ["enroll", "enroll2"]


def test_duplicate_inbox_registration_rejected():
    k, net, ea, eb = make_pair()
    eb.register_inbox(0, lambda p, a: None, name="x")
    with pytest.raises(AddressError):
        eb.register_inbox(0, lambda p, a: None)
    with pytest.raises(AddressError):
        eb.register_inbox(1, lambda p, a: None, name="x")
    eb.unregister_inbox(0, name="x")
    eb.register_inbox(0, lambda p, a: None, name="x")


def test_unknown_inbox_counted_not_crashed():
    k, net, ea, eb = make_pair()
    ea.send(B.inbox(99), "m", channel="c")
    k.run()
    assert eb.stats.no_such_inbox == 1


def test_unreliable_endpoint_loses_messages_under_loss():
    """UNRELIABLE sends (the retired raw mode's home)."""
    k, net, ea, eb = make_pair(seed=3, faults=FaultPlan(drop_prob=0.5))
    got = collect_inbox(eb)
    for i in range(100):
        ea.send(B.inbox(0), str(i), channel="c", delivery=UNRELIABLE)
    k.run()
    assert 0 < len(got) < 100  # some lost, none retransmitted
    assert ea.stats.unreliable_sent == 100
    assert ea.stats.data_retransmitted == 0
    assert eb.stats.unreliable_delivered == len(got)


def test_unreliable_endpoint_rejects_timeout():
    k, net, ea, eb = make_pair()
    with pytest.raises(ValueError):
        ea.send(B.inbox(0), "m", channel="c", timeout=1.0,
                delivery=UNRELIABLE)


def test_send_to_closed_endpoint_is_lost_then_gives_up():
    k, net, ea, eb = make_pair(rto_initial=0.01, max_retries=3)
    collect_inbox(eb)
    eb.close()
    r = ea.send(B.inbox(0), "m", channel="c")
    k.run()
    assert r.is_failed
    assert net.stats.undeliverable > 0


def test_bidirectional_traffic():
    k, net, ea, eb = make_pair(seed=9, faults=FaultPlan(drop_prob=0.2),
                               rto_initial=0.05)
    got_b = collect_inbox(eb)
    got_a = collect_inbox(ea)
    for i in range(20):
        ea.send(B.inbox(0), f"a{i}", channel="ab")
        eb.send(A.inbox(0), f"b{i}", channel="ba")
    k.run()
    assert got_b == [f"a{i}" for i in range(20)]
    assert got_a == [f"b{i}" for i in range(20)]


def test_deterministic_given_seed():
    def trace(seed):
        k, net, ea, eb = make_pair(
            seed=seed, faults=FaultPlan(drop_prob=0.3, reorder_jitter=0.2),
            latency=UniformLatency(0.01, 0.1), rto_initial=0.05)
        times = []
        eb.register_inbox(0, lambda p, a: times.append((k.now, p)))
        for i in range(20):
            ea.send(B.inbox(0), str(i), channel="c")
        k.run()
        return times

    assert trace(42) == trace(42)
    assert trace(42) != trace(43)


def test_the_rto_falls_back_only_when_the_service_has_no_latency_model():
    """A service need not offer ``latency``; the transport then seeds its
    RTO from a 50 ms guess. A model that raises is a bug to surface, not
    a missing model: the send fails with the model's own error."""

    class Broken(ConstantLatency):
        def mean_estimate(self, src_host, dst_host):
            raise ZeroDivisionError("typo in the model")

    k, net, ea, eb = make_pair(latency=Broken(0.02))
    collect_inbox(eb)
    with pytest.raises(ZeroDivisionError, match="typo"):
        ea.send(B.inbox(0), "x", channel="c1")

    class NoModel:
        """The network minus its ``latency`` attribute."""

        def __init__(self, network):
            self._network = network

        def __getattr__(self, attr):
            if attr == "latency":
                raise AttributeError(attr)
            return getattr(self._network, attr)

    k = Kernel()
    net = NoModel(DatagramNetwork(k, latency=ConstantLatency(1.0)))
    assert Endpoint(k, net, A)._pick_rto(B) == pytest.approx(0.2)
