"""Unit tests for the loss-recovery refinements of the ordering layer:
selective acknowledgements, fast retransmit, delayed and piggybacked
ACKs, and endpoint close semantics."""

import pytest

from repro.errors import AddressError, DeliveryTimeout
from repro.net import (
    UNRELIABLE,
    ConstantLatency,
    DatagramNetwork,
    Endpoint,
    FaultPlan,
    NodeAddress,
)
from repro.net.wire import KIND_ACK, KIND_DATA, SACK_MAX_RANGES
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


def collect_inbox(endpoint, ref=0):
    got = []
    endpoint.register_inbox(ref, lambda payload, addr: got.append(payload))
    return got


def wire_log(net):
    log = []
    net.wire_taps.append(lambda t, d: log.append((t, d)))
    return log


def drop_first_tx(*seqs):
    """Fault filter: lose one transmission of DATA per listed seq, in
    order of appearance (list a seq twice to also kill its first
    retransmission)."""
    remaining = list(seqs)

    def flt(d):
        if d.header.get("kind") == KIND_DATA and d.header["seq"] in remaining:
            remaining.remove(d.header["seq"])
            return True
        return False

    return flt


# -- selective acknowledgements ---------------------------------------------


def test_acks_advertise_bounded_sack_ranges():
    """An ACK behind a gap carries the reordering buffer as inclusive
    ranges, never more than SACK_MAX_RANGES of them."""
    k, net, ea, eb = make_pair(
        seed=13, latency=ConstantLatency(0.01), rto_initial=5.0,
        faults=FaultPlan(drop_prob=0.4))
    collect_inbox(eb)
    log = wire_log(net)
    for i in range(30):
        ea.send(B.inbox(0), str(i), channel="c")
    k.run(until=0.5)  # before any RTO: only first-transmissions + acks
    sacks = [d.header["sack"] for _, d in log
             if d.header.get("kind") == KIND_ACK and "sack" in d.header]
    assert sacks, "lossy run must produce out-of-order ACKs"
    for ranges in sacks:
        assert 1 <= len(ranges) <= SACK_MAX_RANGES
        for start, end in ranges:
            assert start <= end
        # Ranges are disjoint, ascending, non-adjacent (maximal runs).
        for (s1, e1), (s2, e2) in zip(ranges, ranges[1:]):
            assert e1 + 1 < s2
    k.run()


def test_sack_suppresses_retransmission_of_buffered_packets():
    """With one hole persisting past the RTO (first copy and its fast
    retransmission both lost), only the hole goes back on the wire; the
    SACKed tail's timers are suppressed."""
    k, net, ea, eb = make_pair(latency=ConstantLatency(0.02),
                               rto_initial=0.2,
                               faults=FaultPlan(drop_filter=drop_first_tx(2, 2)))
    got = collect_inbox(eb)
    log = wire_log(net)
    n = 20
    for i in range(n):
        ea.send(B.inbox(0), str(i), channel="c")
    k.run()
    assert got == [str(i) for i in range(n)]
    retransmitted = {}
    for _, d in log:
        if d.header.get("kind") == KIND_DATA:
            retransmitted[d.header["seq"]] = \
                retransmitted.get(d.header["seq"], 0) + 1
    spurious = {s for s, n_tx in retransmitted.items() if n_tx > 1 and s != 2}
    assert spurious == set(), "only the dropped packet may be retransmitted"
    assert ea.stats.sacked_suppressed > 0
    assert ea.stats.data_retransmitted <= 2


# -- fast retransmit ---------------------------------------------------------


def test_fast_retransmit_fires_before_rto():
    """Duplicate cumulative ACKs from packets behind the hole trigger a
    retransmission long before the (huge) RTO expires."""
    k, net, ea, eb = make_pair(latency=ConstantLatency(0.01),
                               rto_initial=30.0,
                               faults=FaultPlan(drop_filter=drop_first_tx(2)))
    arrivals = []
    eb.register_inbox(0, lambda p, a: arrivals.append((k.now, p)))
    for i in range(10):
        ea.send(B.inbox(0), str(i), channel="c")
    k.run()
    assert [p for _, p in arrivals] == [str(i) for i in range(10)]
    assert arrivals[-1][0] < 1.0, "recovery must not wait for the 30s RTO"
    assert ea.stats.fast_retransmits == 1


def test_fast_retransmit_respects_dup_ack_threshold():
    k, net, ea, eb = make_pair(latency=ConstantLatency(0.01),
                               rto_initial=30.0, dup_ack_threshold=50,
                               faults=FaultPlan(drop_filter=drop_first_tx(2)))
    collect_inbox(eb)
    for i in range(10):
        ea.send(B.inbox(0), str(i), channel="c")
    k.run(until=5.0)
    # Only 7 packets follow the hole -> at most 7 dup acks: below the
    # threshold of 50, so the hole waits for its RTO.
    assert ea.stats.fast_retransmits == 0


def test_dup_ack_threshold_validation():
    k = Kernel()
    net = DatagramNetwork(k)
    with pytest.raises(ValueError):
        Endpoint(k, net, A, dup_ack_threshold=0)
    with pytest.raises(ValueError):
        Endpoint(k, net, A, ack_delay=-0.1)


@pytest.mark.parametrize("option", [
    {"rto_initial": 0.0}, {"rto_initial": -1.0}, {"rto_max": 0.0},
    {"max_retries": -1}])
def test_degenerate_rto_settings_are_rejected(option):
    """A zero or negative timer would retransmit at the send's own
    instant until the channel breaks; a negative budget would break it
    on the first loss."""
    k = Kernel()
    net = DatagramNetwork(k)
    with pytest.raises(ValueError):
        Endpoint(k, net, A, **option)


def test_fifo_exactly_once_with_sack_under_heavy_faults():
    k, net, ea, eb = make_pair(
        seed=23, latency=ConstantLatency(0.01), rto_initial=0.05,
        faults=FaultPlan(drop_prob=0.3, duplicate_prob=0.2,
                         reorder_jitter=0.1))
    got = collect_inbox(eb)
    n = 80
    for i in range(n):
        ea.send(B.inbox(0), str(i), channel="c")
    k.run()
    assert got == [str(i) for i in range(n)]


# -- delayed / piggybacked acks ----------------------------------------------


def test_delayed_acks_coalesce_a_burst():
    """A same-instant burst is acknowledged with two ACK datagrams: one
    immediate, one closing the delayed-ack window."""
    k, net, ea, eb = make_pair(latency=ConstantLatency(0.02))
    got = collect_inbox(eb)
    n = 50
    for i in range(n):
        ea.send(B.inbox(0), str(i), channel="c")
    k.run()
    assert got == [str(i) for i in range(n)]
    assert eb.stats.acks_sent == 2
    assert eb.stats.acks_delayed == n - 1


def test_solitary_packet_acked_immediately():
    """Delayed acks never add latency to a lone packet: the quiet-window
    rule acks the first arrival on the spot."""
    k, net, ea, eb = make_pair(latency=ConstantLatency(0.02))
    collect_inbox(eb)
    receipt = ea.send(B.inbox(0), "m", channel="c")
    k.run()
    assert receipt.confirmed.value == pytest.approx(0.04)
    assert eb.stats.acks_delayed == 0


def test_pending_ack_piggybacks_on_reverse_data():
    """When the receiver itself sends DATA to the peer inside the
    delayed-ack window, the owed ACK rides along instead of flying
    separately."""
    k, net, ea, eb = make_pair(latency=ConstantLatency(0.02))
    got_b = collect_inbox(eb)
    got_a = collect_inbox(ea)

    def ping_pong():
        for i in range(10):
            ea.send(B.inbox(0), f"a{i}a", channel="ab")
            ea.send(B.inbox(0), f"a{i}b", channel="ab")
            yield k.timeout(0.02)
            # eb now owes a delayed ack for the second copy; its own send
            # (inside the window) must carry it.
            eb.send(A.inbox(0), f"b{i}", channel="ba")
            yield k.timeout(0.2)

    k.process(ping_pong())
    k.run()
    assert got_b == [f"a{i}{h}" for i in range(10) for h in "ab"]
    assert got_a == [f"b{i}" for i in range(10)]
    assert eb.stats.acks_piggybacked > 0


def test_ack_delay_zero_disables_coalescing():
    k, net, ea, eb = make_pair(latency=ConstantLatency(0.02), ack_delay=0.0)
    collect_inbox(eb)
    for i in range(20):
        ea.send(B.inbox(0), str(i), channel="c")
    k.run()
    assert eb.stats.acks_sent == 20
    assert eb.stats.acks_delayed == 0


# -- endpoint close -----------------------------------------------------------


def test_closed_endpoint_emits_no_further_datagrams():
    """Regression: armed retransmission timers on a closed endpoint used
    to keep injecting datagrams until max_retries exhausted."""
    k, net, ea, eb = make_pair(rto_initial=0.05, max_retries=20,
                               faults=FaultPlan(drop_prob=1.0))
    collect_inbox(eb)
    ea.send(B.inbox(0), "m", channel="c")
    k.run(until=0.12)  # a couple of retransmissions happen
    ea.close()
    closed_at = k.now
    emitted_after_close = []
    net.wire_taps.append(
        lambda t, d: emitted_after_close.append(d) if d.src == A else None)
    k.run()
    assert emitted_after_close == []
    assert k.now <= closed_at + 0.2, "no timer tail may linger after close"


def test_close_fails_outstanding_receipts():
    k, net, ea, eb = make_pair(rto_initial=1.0,
                               faults=FaultPlan(drop_prob=1.0))
    collect_inbox(eb)
    receipts = [ea.send(B.inbox(0), str(i), channel="c") for i in range(3)]
    ea.close()
    failures = []

    def waiter(r):
        try:
            yield r.confirmed
        except DeliveryTimeout as exc:
            failures.append(exc)

    for r in receipts:
        k.process(waiter(r))
    k.run()
    assert len(failures) == 3
    assert all(r.is_failed for r in receipts)


def test_send_on_closed_endpoint_raises():
    k, net, ea, eb = make_pair()
    ea.close()
    with pytest.raises(AddressError):
        ea.send(B.inbox(0), "m", channel="c")
    k2, net2, ec, ed = make_pair()
    ec.close()
    with pytest.raises(AddressError):
        ec.send(B.inbox(0), "m", channel="c", delivery=UNRELIABLE)


def test_close_is_idempotent_and_cancels_delayed_acks():
    k, net, ea, eb = make_pair(latency=ConstantLatency(0.02))
    collect_inbox(eb)
    for i in range(10):
        ea.send(B.inbox(0), str(i), channel="c")
    k.run(until=0.02)  # burst has just arrived; delayed ack armed on eb
    eb.close()
    eb.close()
    emitted_after_close = []
    net.wire_taps.append(
        lambda t, d: emitted_after_close.append(d) if d.src == B else None)
    k.run()
    assert emitted_after_close == []
