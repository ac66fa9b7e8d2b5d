"""Delivery-class tests: RELIABLE / UNRELIABLE / RELIABLE_SKIP.

The reliable path has its own battery in ``test_transport*.py``; this
file covers the class machinery itself — the UNRELIABLE fast path (the
legacy raw mode's new home, including its edge cases), the
RELIABLE_SKIP abandon protocol, per-message classes, and the
rejection of an endpoint-wide class (and of the retired ``reliable=``
constructor shim).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Dapplet, World
from repro.errors import AddressError, DeliveryTimeout, PayloadTooLarge
from repro.messages import Text
from repro.net import (
    RELIABLE,
    RELIABLE_SKIP,
    UNRELIABLE,
    ConstantLatency,
    DatagramNetwork,
    Endpoint,
    FaultPlan,
    NodeAddress,
)
from repro.net.delivery import DELIVERY_CLASSES, validate_delivery
from repro.net.wire import KIND_DATA, KIND_SKIP, MAX_FRAME_BYTES
from repro.sim import Kernel

A = NodeAddress("a.edu", 1000)
B = NodeAddress("b.edu", 1000)


class _Node(Dapplet):
    kind = "node"


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


# -- the class vocabulary ---------------------------------------------------


def test_validate_delivery():
    for cls in DELIVERY_CLASSES:
        assert validate_delivery(cls) == cls
    with pytest.raises(ValueError, match="delivery class"):
        validate_delivery("best_effort")


def test_endpoint_rejects_unknown_class():
    """An endpoint takes no class at all, known or not: a class is
    chosen per outbox, session binding or send."""
    k = Kernel(seed=0)
    net = DatagramNetwork(k, latency=ConstantLatency(0.01))
    for cls in ("bogus", UNRELIABLE):
        with pytest.raises(TypeError):
            Endpoint(k, net, A, delivery=cls)


def test_post_opens_reliable_channels():
    """``Dapplet.post`` carries RPC, session link-up and lease calls, so
    its channels are RELIABLE whatever the world's endpoint options, and
    those options cannot carry a delivery class."""
    world = World(seed=0, latency=ConstantLatency(0.01),
                  endpoint_options={"rto_initial": 0.05})
    a = world.dapplet(_Node, "a.edu", "a")
    b = world.dapplet(_Node, "b.edu", "b")
    inbox = b.create_inbox(name="in")
    a.post(inbox.named_address, Text("hi"))
    assert a._posts[inbox.named_address].delivery == RELIABLE
    world.run()
    assert [m.text for m in inbox.queued()] == ["hi"]
    assert a.endpoint.stats.unreliable_sent == 0
    with pytest.raises(TypeError):
        World(seed=0, endpoint_options={"delivery": UNRELIABLE}).dapplet(
            _Node, "c.edu", "c")


def test_send_rejects_unknown_class_override():
    k, net, ea, eb = make_pair()
    with pytest.raises(ValueError, match="delivery class"):
        ea.send(B.inbox(0), "x", channel="c", delivery="bogus")


def test_reliable_shim_is_gone():
    """The retired ``reliable=`` boolean is a hard TypeError, not a
    silently-ignored kwarg; a send naming no class is RELIABLE."""
    k = Kernel(seed=0)
    net = DatagramNetwork(k, latency=ConstantLatency(0.01))
    with pytest.raises(TypeError):
        Endpoint(k, net, A, reliable=False)
    rel = Endpoint(k, net, B)
    assert not hasattr(rel, "reliable")
    assert rel.send(A.inbox(0), "x", channel="c") is not None  # a receipt


# -- UNRELIABLE -------------------------------------------------------------


def test_unreliable_send_returns_no_receipt():
    k, net, ea, eb = make_pair()
    got = collect_inbox(eb)
    assert ea.send(B.inbox(0), "hello", channel="c1",
                   delivery=UNRELIABLE) is None
    k.run()
    assert got == ["hello"]
    assert ea.stats.unreliable_sent == 1
    assert eb.stats.unreliable_delivered == 1


def test_unreliable_never_retransmits_under_loss():
    k, net, ea, eb = make_pair(seed=3, faults=FaultPlan(drop_prob=0.4))
    got = collect_inbox(eb)
    n = 80
    for i in range(n):
        ea.send(B.inbox(0), str(i), channel="c1", delivery=UNRELIABLE)
    k.run()
    assert 0 < len(got) < n  # the net lost some, nobody repaired them
    assert ea.stats.data_retransmitted == 0
    assert ea.stats.acks_sent == 0 and eb.stats.acks_sent == 0


def test_unreliable_rejects_delivery_timeout():
    """The legacy raw-mode edge case, verbatim error included: a
    timeout needs acknowledgements, which UNRELIABLE never gets."""
    k, net, ea, eb = make_pair()
    with pytest.raises(ValueError,
                       match="delivery timeout requires a reliable endpoint"):
        ea.send(B.inbox(0), "x", channel="c1", timeout=1.0,
                delivery=UNRELIABLE)


def test_unreliable_oversized_payload_raises_at_send():
    k, net, ea, eb = make_pair()
    with pytest.raises(PayloadTooLarge):
        ea.send(B.inbox(0), "x" * (MAX_FRAME_BYTES + 1), channel="c1",
                delivery=UNRELIABLE)
    assert ea.stats.unreliable_sent == 0


def test_closed_endpoint_rejects_unreliable_sends():
    k, net, ea, eb = make_pair()
    ea.send(B.inbox(0), "one", channel="c1", delivery=UNRELIABLE)
    ea.close()
    with pytest.raises(AddressError, match="closed"):
        ea.send(B.inbox(0), "two", channel="c1", delivery=UNRELIABLE)


def test_close_with_queued_reliable_sends_fails_receipts():
    """The other legacy close edge case: reliable receipts queued behind
    the window (or in flight) fail with DeliveryTimeout at close."""
    k, net, ea, eb = make_pair(faults=FaultPlan(drop_prob=1.0))
    collect_inbox(eb)
    receipts = [ea.send(B.inbox(0), str(i), channel="c1") for i in range(5)]
    k.run(until=0.01)
    ea.close()
    for r in receipts:
        assert r.is_failed
        assert isinstance(r.confirmed.value, DeliveryTimeout)


def test_unreliable_drops_duplicates_and_stale():
    """Duplicated frames arrive with an already-seen stamp and are
    dropped; reordered older-than-latest frames are dropped as stale."""
    k, net, ea, eb = make_pair(
        seed=9, faults=FaultPlan(duplicate_prob=0.5, reorder_jitter=0.2))
    got = collect_inbox(eb)
    n = 60
    for i in range(n):
        ea.send(B.inbox(0), str(i), channel="c1", delivery=UNRELIABLE)
    k.run()
    assert len(got) == len(set(got))  # no duplicates reach the app
    seqs = [int(p) for p in got]
    assert seqs == sorted(seqs)  # never older than the latest delivered
    assert eb.stats.stale_dropped > 0


def test_unreliable_channels_are_independent():
    k, net, ea, eb = make_pair()
    got = collect_inbox(eb)
    ea.send(B.inbox(0), "a0", channel="ca", delivery=UNRELIABLE)
    ea.send(B.inbox(0), "b0", channel="cb", delivery=UNRELIABLE)
    ea.send(B.inbox(0), "a1", channel="ca", delivery=UNRELIABLE)
    k.run()
    assert sorted(got) == ["a0", "a1", "b0"]
    assert ea._unreliable_seq[(B, "ca")] == 2
    assert ea._unreliable_seq[(B, "cb")] == 1


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       drop=st.floats(min_value=0.0, max_value=0.5),
       dup=st.floats(min_value=0.0, max_value=0.5),
       jitter=st.floats(min_value=0.0, max_value=0.3))
def test_unreliable_no_dup_no_stale_property(seed, drop, dup, jitter):
    """Under any fault schedule, each UNRELIABLE channel delivers a
    strictly increasing subsequence of what was sent: no duplicate and
    nothing older than the latest already delivered."""
    k = Kernel(seed=seed)
    net = DatagramNetwork(
        k, latency=ConstantLatency(0.01),
        faults=FaultPlan(drop_prob=drop, duplicate_prob=dup,
                         reorder_jitter=jitter))
    ea = Endpoint(k, net, A)
    eb = Endpoint(k, net, B)
    per_channel: dict[str, list[int]] = {"ca": [], "cb": []}
    eb.register_inbox(0, lambda payload, addr: per_channel[
        payload.split(":")[0]].append(int(payload.split(":")[1])))
    n = 40
    for i in range(n):
        ea.send(B.inbox(0), f"ca:{i}", channel="ca", delivery=UNRELIABLE)
        ea.send(B.inbox(0), f"cb:{i}", channel="cb", delivery=UNRELIABLE)
    k.run()
    for ch, seqs in per_channel.items():
        assert seqs == sorted(set(seqs)), (
            f"channel {ch} saw a duplicate or stale delivery: {seqs}")


# -- RELIABLE_SKIP ----------------------------------------------------------


def drop_first_data(seqs):
    """A drop filter losing the first transmission of the given DATA seqs."""
    seen = set()
    def flt(datagram):
        h = datagram.header
        if h.get("kind") == KIND_DATA and h.get("seq") in seqs \
                and h["seq"] not in seen:
            seen.add(h["seq"])
            return True
        return False
    return flt


def test_skip_abandons_lost_packet_and_receiver_advances():
    """Lose seq 1 forever (drop every copy): the sender abandons it at
    the skip deadline and the receiver delivers around the hole."""
    k, net, ea, eb = make_pair(
        faults=FaultPlan(drop_filter=lambda d:
                         d.header.get("kind") == KIND_DATA
                         and d.header.get("seq") == 1),
        skip_timeout=0.06, rto_initial=0.5)
    got = collect_inbox(eb)
    receipts = [ea.send(B.inbox(0), str(i), channel="c1",
                        delivery=RELIABLE_SKIP) for i in range(4)]
    k.run()
    assert got == ["0", "2", "3"]
    assert receipts[1].is_skipped
    assert receipts[1].outcome == "skipped"
    assert receipts[1].is_confirmed  # skipped resolves, not fails
    for i in (0, 2, 3):
        assert receipts[i].outcome == "delivered"
        assert not receipts[i].is_skipped
    assert ea.stats.skipped == 1
    assert ea.stats.skips_sent >= 1
    assert eb.stats.holes_skipped == 1


def test_retransmit_beats_skip_deadline():
    """With the RTO shorter than the skip timeout, a retransmission can
    still repair the loss — the receipt then resolves delivered, not
    skipped, and nothing is abandoned."""
    k, net, ea, eb = make_pair(
        faults=FaultPlan(drop_filter=drop_first_data({1})),
        skip_timeout=1.0, rto_initial=0.05)
    got = collect_inbox(eb)
    receipts = [ea.send(B.inbox(0), str(i), channel="c1",
                        delivery=RELIABLE_SKIP) for i in range(3)]
    k.run()
    assert got == ["0", "1", "2"]
    assert all(r.outcome == "delivered" for r in receipts)
    assert ea.stats.skipped == 0
    assert ea.stats.data_retransmitted >= 1


def test_skip_frame_loss_is_repaired_by_retransmission():
    """SKIP frames are themselves best-effort: lose the first few and
    the sender's skip-retransmit timer still converges the receiver."""
    lost = [0]
    def flt(d):
        h = d.header
        if h.get("kind") == KIND_DATA and h.get("seq") == 0:
            return True  # seq 0 never arrives
        if h.get("kind") == KIND_SKIP and lost[0] < 3:
            lost[0] += 1
            return True  # ...and neither do the first three SKIPs
        return False
    k, net, ea, eb = make_pair(
        faults=FaultPlan(drop_filter=flt),
        skip_timeout=0.05, rto_initial=0.08)
    got = collect_inbox(eb)
    ea.send(B.inbox(0), "zero", channel="c1", delivery=RELIABLE_SKIP)
    ea.send(B.inbox(0), "one", channel="c1", delivery=RELIABLE_SKIP)
    k.run()
    assert got == ["one"]
    assert lost[0] == 3
    assert ea.stats.skips_sent >= 4
    stream = ea._send_streams[(B, "c1")]
    assert stream.last_cum >= stream.skip_upto - 1  # rtx timer disarmed


def test_skip_never_abandons_a_live_reliable_packet():
    """RELIABLE and RELIABLE_SKIP share one FIFO stream. Abandoning a
    skip-class packet advances only to the next *outstanding* seq, so a
    still-retransmitting RELIABLE packet behind it is never skipped."""
    k, net, ea, eb = make_pair(
        faults=FaultPlan(drop_filter=drop_first_data({0, 1})),
        skip_timeout=0.05, rto_initial=0.2)
    got = collect_inbox(eb)
    r0 = ea.send(B.inbox(0), "skip-me", channel="c1", delivery=RELIABLE_SKIP)
    r1 = ea.send(B.inbox(0), "keep-me", channel="c1")  # RELIABLE
    k.run()
    # seq 0 was abandoned at t=0.05; seq 1's retransmission at t=0.2
    # must still be delivered, not skipped over.
    assert got == ["keep-me"]
    assert r0.is_skipped
    assert r1.outcome == "delivered"
    assert ea.stats.skipped == 1


def test_per_message_delivery_overrides():
    """One RELIABLE endpoint, three classes on three sends."""
    k, net, ea, eb = make_pair(skip_timeout=0.1)
    got = collect_inbox(eb)
    r_rel = ea.send(B.inbox(0), "rel", channel="c1")
    r_skip = ea.send(B.inbox(0), "skip", channel="c1",
                     delivery=RELIABLE_SKIP)
    r_unrel = ea.send(B.inbox(0), "unrel", channel="c-fast",
                      delivery=UNRELIABLE)
    assert r_unrel is None
    k.run()
    assert sorted(got) == ["rel", "skip", "unrel"]
    assert r_rel.outcome == "delivered"
    assert r_skip.outcome == "delivered"  # nothing was lost
    assert ea.stats.unreliable_sent == 1


def test_skip_timeout_validation():
    k, net, ea, eb = make_pair()
    with pytest.raises(ValueError, match="skip_timeout"):
        Endpoint(Kernel(seed=0), DatagramNetwork(Kernel(seed=0)),
                 NodeAddress("x.edu", 1), skip_timeout=0.0)
    with pytest.raises(ValueError, match="skip_timeout"):
        ea.send(B.inbox(0), "x", channel="c1", delivery=RELIABLE_SKIP,
                skip_timeout=-1.0)
