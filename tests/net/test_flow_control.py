"""Unit tests for the sliding-window layer of the ordering protocol:
congestion-window gating, receiver-advertised windows, batched DATA
frames, zero-window persist probes, window-update ACKs, backpressure
events — and the close-while-blocked regression (a queued send must
fail promptly, not hang, when the endpoint or substrate goes away)."""

from repro.errors import AddressError, DeliveryTimeout
from repro.mailbox import Inbox, Outbox
from repro.messages import Text
from repro.net import (
    ConstantLatency,
    DatagramNetwork,
    Endpoint,
    FaultPlan,
    NodeAddress,
)
from repro.net.datagram import HEADER_OVERHEAD
from repro.net.wire import KIND_ACK, KIND_DATA, KIND_PROBE
from repro.runtime import AsyncioSubstrate
from repro.sim import Kernel

A = NodeAddress("a.edu", 1000)
B = NodeAddress("b.edu", 1000)

#: 100-byte payloads -> 164 wire bytes each given the 64-byte header.
PAYLOAD = "x" * 100
PACKET = HEADER_OVERHEAD + len(PAYLOAD)


def make_pair(seed=0, *, latency=None, faults=None, **epkw):
    k = Kernel(seed=seed)
    net = DatagramNetwork(k, latency=latency or ConstantLatency(0.02),
                          faults=faults)
    ea = Endpoint(k, net, A, **epkw)
    eb = Endpoint(k, net, B, **epkw)
    return k, net, ea, eb


def collect_inbox(endpoint, ref=0, backlog=None):
    got = []
    endpoint.register_inbox(ref, lambda payload, addr: got.append(payload),
                            backlog=backlog)
    return got


def wire_log(net):
    log = []
    net.wire_taps.append(lambda t, d: log.append((t, d)))
    return log


def drop_first_tx(*seqs):
    remaining = list(seqs)

    def flt(d):
        if d.header.get("kind") == KIND_DATA and d.header["seq"] in remaining:
            remaining.remove(d.header["seq"])
            return True
        return False

    return flt


def data_frames(log):
    return [d for _, d in log if d.header.get("kind") == KIND_DATA]


# -- window gating -----------------------------------------------------------


def test_small_window_queues_excess_and_preserves_fifo():
    """With cwnd fitting one packet, only one DATA frame leaves at t=0;
    the rest queue behind the window, stall exactly once, resume exactly
    once, and still arrive in order with every receipt confirmed."""
    k, net, ea, eb = make_pair(rto_initial=0.5, cwnd_initial=PACKET + 10)
    got = collect_inbox(eb)
    log = wire_log(net)
    receipts = [ea.send(B.inbox(0), f"{i:0100d}", channel="c")
                for i in range(6)]
    at_t0 = data_frames(log)
    assert len(at_t0) == 1 and at_t0[0].header["seq"] == 0
    assert ea.stats.window_stalls == 1
    k.run()
    assert got == [f"{i:0100d}" for i in range(6)]
    assert ea.stats.window_resumes == 1
    assert all(r.is_confirmed for r in receipts)
    stream = ea._send_streams[(B, "c")]
    assert stream.in_flight == 0 and not stream.queued


def test_send_never_exceeds_window_at_transmission():
    """Every DATA first-transmission leaves with bytes-in-flight (itself
    included) within min(cwnd, rwnd) at that instant."""
    k, net, ea, eb = make_pair(rto_initial=0.5, cwnd_initial=2 * PACKET)
    collect_inbox(eb)
    stream_box = {}
    seen = set()

    def tap(t, d):
        if d.header.get("kind") != KIND_DATA:
            return
        n = len(d.header.get("parts", ())) or 1
        first = d.header["seq"] not in seen
        seen.update(range(d.header["seq"], d.header["seq"] + n))
        if first and stream_box:
            stream = stream_box["s"]
            assert stream.in_flight <= stream.window() + 1e-9

    net.wire_taps.append(tap)
    for i in range(20):
        ea.send(B.inbox(0), PAYLOAD, channel="c")
        stream_box["s"] = ea._send_streams[(B, "c")]
    k.run()
    assert eb.stats.delivered == 20


def test_window_reopen_batches_queued_payloads():
    """Payloads queued behind a closed window coalesce into one batched
    DATA frame (``parts`` framing) when the window reopens, and the
    receiver unpacks them in order."""
    k, net, ea, eb = make_pair(rto_initial=0.5, cwnd_initial=PACKET + 10)
    got = collect_inbox(eb)
    log = wire_log(net)
    for i in range(6):
        ea.send(B.inbox(0), f"{i:0100d}", channel="c")
    k.run()
    assert got == [f"{i:0100d}" for i in range(6)]
    assert ea.stats.batches_sent >= 1
    assert ea.stats.batched_payloads >= 2
    batched = [d for d in data_frames(log) if "parts" in d.header]
    assert batched, "window reopening must have coalesced queued payloads"
    for d in batched:
        # Consecutive seqs ride implicitly: seq is the base, one part per
        # payload, and the coalesced frame respects the byte ceiling.
        assert len(d.header["parts"]) >= 2
        assert d.size <= ea.batch_bytes + HEADER_OVERHEAD


def test_batch_respects_byte_ceiling():
    """batch_bytes splits a large backlog into several frames instead of
    one jumbo datagram."""
    k, net, ea, eb = make_pair(rto_initial=0.5, cwnd_initial=PACKET + 10,
                               batch_bytes=2 * PACKET + 10)
    got = collect_inbox(eb)
    log = wire_log(net)
    for i in range(9):
        ea.send(B.inbox(0), f"{i:0100d}", channel="c")
    k.run()
    assert got == [f"{i:0100d}" for i in range(9)]
    for d in data_frames(log):
        parts = d.header.get("parts")
        if parts:
            assert len(parts) <= 2


# -- receiver-advertised window ----------------------------------------------


def test_acks_advertise_receive_window_minus_backlog():
    """ACKs carry rwnd = recv_window - inbox backlog - reorder buffer;
    the sender records the advertisement."""
    backlog = [0]
    k, net, ea, eb = make_pair(rto_initial=0.5, recv_window=1000)
    got = collect_inbox(eb, backlog=lambda: backlog[0])
    log = wire_log(net)
    eb_inboxes = got  # delivered payloads land here; backlog is ours to fake
    ea.send(B.inbox(0), PAYLOAD, channel="c")
    backlog[0] = 400
    k.run()
    acks = [d.header for _, d in log if d.header.get("kind") == KIND_ACK]
    assert acks and all("rwnd" in h for h in acks)
    assert acks[-1]["rwnd"] == 1000 - 400
    assert ea._send_streams[(B, "c")].rwnd == 600
    assert eb_inboxes == [PAYLOAD]


def test_zero_window_probes_then_resumes_on_window_update():
    """A zero advertisement halts the sender; persist probes keep asking
    and an unsolicited window-update ACK on drain reopens the stream."""
    backlog = [300]
    k, net, ea, eb = make_pair(rto_initial=0.1, recv_window=300,
                               cwnd_initial=PACKET + 10)
    got = collect_inbox(eb, backlog=lambda: backlog[0])
    log = wire_log(net)
    r0 = ea.send(B.inbox(0), PAYLOAD, channel="c")
    r1 = ea.send(B.inbox(0), PAYLOAD, channel="c")

    def drain():
        backlog[0] = 0
        eb.inbox_drained(0)

    k.call_later(1.0, drain)
    k.run()
    assert got == [PAYLOAD, PAYLOAD]
    assert r0.is_confirmed and r1.is_confirmed
    assert ea.stats.window_probes >= 1
    assert eb.stats.window_updates >= 1
    probes = [d for _, d in log if d.header.get("kind") == KIND_PROBE]
    assert probes and all(d.header["ch"] == "c" for d in probes)
    zero_acks = [d.header for _, d in log
                 if d.header.get("kind") == KIND_ACK
                 and d.header.get("rwnd") == 0]
    assert zero_acks, "the closed window must have been advertised"
    # Delivery of the second message waited for the t=1.0 drain.
    deliveries = [t for t, d in log if d.header.get("kind") == KIND_DATA
                  and d.header["seq"] == 1]
    assert deliveries and deliveries[0] >= 1.0


def test_zero_window_probe_budget_breaks_channel():
    """A receiver that never drains exhausts the persist budget: the
    channel is declared broken, queued receipts fail, later sends fail
    fast, and the run still quiesces."""
    k, net, ea, eb = make_pair(rto_initial=0.1, max_retries=3,
                               recv_window=300, cwnd_initial=PACKET + 10)
    collect_inbox(eb, backlog=lambda: 300)
    r0 = ea.send(B.inbox(0), PAYLOAD, channel="c")
    r1 = ea.send(B.inbox(0), PAYLOAD, channel="c")
    k.run()
    assert r0.is_confirmed  # transmitted before the zero advertisement
    assert r1.is_failed
    assert isinstance(r1.confirmed.value, DeliveryTimeout)
    assert ea.stats.gave_up == 1
    assert ea.stats.window_probes == 3
    r2 = ea.send(B.inbox(0), PAYLOAD, channel="c")
    assert r2.is_failed
    k.run()


# -- congestion response ------------------------------------------------------


def test_cwnd_halves_on_fast_retransmit():
    k, net, ea, eb = make_pair(
        rto_initial=5.0, faults=FaultPlan(drop_filter=drop_first_tx(0)))
    got = collect_inbox(eb)
    for i in range(8):
        ea.send(B.inbox(0), f"{i:0100d}", channel="c")
    k.run()
    assert got == [f"{i:0100d}" for i in range(8)]
    assert ea.stats.fast_retransmits == 1
    assert ea.stats.cwnd_halvings == 1
    assert ea.stats.cwnd_collapses == 0
    stream = ea._send_streams[(B, "c")]
    assert stream.cwnd < ea.cwnd_initial


def test_cwnd_collapses_on_rto():
    k, net, ea, eb = make_pair(
        rto_initial=0.1, faults=FaultPlan(drop_filter=drop_first_tx(0)))
    got = collect_inbox(eb)
    ea.send(B.inbox(0), "0" * 100, channel="c")
    ea.send(B.inbox(0), "1" * 100, channel="c")
    k.run()
    assert got == ["0" * 100, "1" * 100]
    assert ea.stats.cwnd_collapses == 1
    assert ea.stats.cwnd_halvings == 0


# -- backpressure upward ------------------------------------------------------


def test_writable_fires_immediately_when_nothing_queued():
    k, net, ea, eb = make_pair(rto_initial=0.5)
    assert ea.writable(B, "c").triggered  # stream does not even exist yet


def test_writable_parks_until_queue_drains():
    k, net, ea, eb = make_pair(rto_initial=0.5, cwnd_initial=PACKET + 10)
    collect_inbox(eb)
    for i in range(4):
        ea.send(B.inbox(0), PAYLOAD, channel="c")
    ev = ea.writable(B, "c")
    assert not ev.triggered
    woke = []
    k.process(iter_wait(ev, woke, k))
    k.run()
    assert woke and woke[0] > 0.0


def iter_wait(ev, out, k):
    yield ev
    out.append(k.now)


# -- close-while-blocked regression ------------------------------------------


def test_close_fails_queued_receipts_immediately():
    """Endpoint.close must fail *queued* (never-transmitted) receipts as
    promptly as in-flight ones — a blocked window is not an excuse to
    hang the waiter until some timer notices."""
    k, net, ea, eb = make_pair(rto_initial=0.5, cwnd_initial=PACKET + 10)
    collect_inbox(eb)
    receipts = [ea.send(B.inbox(0), PAYLOAD, channel="c") for _ in range(4)]
    ev = ea.writable(B, "c")
    assert not ev.triggered
    ea.close()
    assert all(r.is_failed for r in receipts)
    assert ev.triggered and not ev.ok  # AddressError, pre-defused
    k.run()  # quiesces; stray timers on the closed endpoint are inert


def test_close_releases_blocked_send_flow():
    """A process parked in Outbox.send_flow behind a zero window gets
    AddressError at the instant of Endpoint.close — not after an RTO,
    not never."""
    k = Kernel(seed=0)
    net = DatagramNetwork(k, latency=ConstantLatency(0.02))
    ea = Endpoint(k, net, A, rto_initial=0.1)
    eb = Endpoint(k, net, B, rto_initial=0.1, recv_window=200)
    inbox = Inbox(k, eb, 0)  # nobody ever receives: backlog only grows
    outbox = Outbox(k, ea, 0)
    outbox.add(inbox.address)
    sent_at, failed_at = [], []

    def sender():
        try:
            while True:
                yield from outbox.send_flow(Text("x" * 300))
                sent_at.append(k.now)
        except AddressError:
            failed_at.append(k.now)

    k.process(sender())
    k.call_later(2.0, ea.close)
    k.run()
    assert sent_at, "the first sends must go through before the window closes"
    assert failed_at == [2.0]
    assert max(sent_at) < 2.0
    assert len(inbox) >= 1


def test_substrate_teardown_races_endpoint_close():
    """Closing the asyncio substrate before the endpoint must not blow
    up when close() fails the queued receipts (the loop is gone; the
    failure events are dropped, their values stay readable)."""
    substrate = AsyncioSubstrate(seed=0)
    try:
        ea = Endpoint(substrate, substrate.datagrams, A,
                      rto_initial=0.1, cwnd_initial=PACKET + 10)
        eb = Endpoint(substrate, substrate.datagrams, B, rto_initial=0.1)
        eb.register_inbox(0, lambda payload, addr: None)
        receipts = [ea.send(B.inbox(0), PAYLOAD, channel="c")
                    for _ in range(4)]
        assert any(not r.confirmed.triggered for r in receipts)
    finally:
        substrate.close()
    ea.close()  # after substrate close: must be a clean no-crash path
    assert all(r.is_failed for r in receipts)
