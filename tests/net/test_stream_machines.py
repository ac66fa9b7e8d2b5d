"""Model test of the stream machines, without a world.

One :class:`ReliableSender` is wired to one :class:`ReliableReceiver`
through a bag of frames this test owns: hypothesis sends (with and
without ``timeout`` / skip), delivers any frame, drops one, duplicates
one, lets the application consume, and advances ``now`` to either
half's ``wake_at``. No ``Kernel``, no ``World``, no ``Endpoint`` is
constructed — the machines take ``now`` as an argument and talk to the
fake host below. After **every** step the window, sequence and agenda
invariants are checked (the ones ``docs/PROTOCOLS.md`` writes down).
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.net.address import NodeAddress
from repro.net.stream import (_DEADLINE, _PROBE, _RTO, _SKIP_RTX,
                              ReliableReceiver, ReliableSender)
from repro.net.wire import KIND_ACK, KIND_DATA, KIND_PROBE, KIND_SKIP

A = NodeAddress("a.edu", 1000)
B = NodeAddress("b.edu", 1000)
OVERHEAD = 64


class Stats:
    """Any counter, starting at zero."""

    def __getattr__(self, name):
        return 0


class Receipt:
    """Records how the sender resolved one send (first call wins in the
    real receipt; here every call is kept)."""

    destination = None

    def __init__(self):
        self.calls: list[str] = []

    def _ack(self):
        self.calls.append("delivered")

    def _skip(self):
        self.calls.append("skipped")

    def _fail(self, exc):
        self.calls.append("failed")


class Host:
    """What a machine asks of its surroundings, recorded."""

    tracer = None
    overhead = OVERHEAD
    rto_max = 2.0
    max_retries = 6
    dup_ack_threshold = 3
    ack_delay = 0.01
    recv_window = 500
    batch_bytes = 200

    def __init__(self, address, wire):
        self.address = address
        self.stats = Stats()
        self.wire = wire
        self.inbox: list[str] = []     # delivered, not yet consumed
        self.delivered: list[int] = []
        #: Every sequence number this host put on the wire as DATA.
        self.sent: set[int] = set()
        self.owed = 0
        self.pinched: set = set()

    def emit(self, dst, header, payload="", parts=None):
        if header["kind"] == KIND_DATA:
            self.sent.update(range(header["seq"],
                                   header["seq"] + len(parts or "_")))
        self.wire.append((dst, header, payload, parts))

    def route(self, to_ref):
        return (lambda payload, _addr: (self.inbox.append(payload),
                                        self.delivered.append(int(payload))),
                None)

    def piggyback(self, dst, budget, now):
        return []

    def ack_owed(self, node, delta):
        self.owed += delta

    def window_pinched(self, stream, pinched):
        assert (stream in self.pinched) != pinched  # changes only
        (self.pinched.add if pinched else self.pinched.discard)(stream)

    def backlog(self, to_ref):
        return sum(OVERHEAD + len(p) for p in self.inbox)

    def drained(self, sender):
        pass


def queue(sender):
    """The seqs of the sender's accepted-but-untransmitted packets."""
    return [seq for seq in sender.unacked if seq >= sender.next_tx]


class StreamPair(RuleBasedStateMachine):

    def __init__(self):
        super().__init__()
        self.now = 0.0
        self.wire: list = []
        self.host_a = Host(A, self.wire)
        self.host_b = Host(B, self.wire)
        self.sender = ReliableSender(self.host_a, B, "ch", rto_initial=0.05,
                                     cwnd_initial=600.0)
        self.receiver = ReliableReceiver(self.host_b, A, "ch")
        self.receipts: dict[int, Receipt] = {}

    # -- inputs ---------------------------------------------------------------

    @rule(size=st.integers(1, 60),
          timeout=st.one_of(st.none(), st.floats(0.01, 0.3)),
          skip=st.one_of(st.none(), st.floats(0.02, 0.2)))
    def app_send(self, size, timeout, skip):
        receipt = Receipt()
        seq = self.sender.next_seq
        payload = str(seq).rjust(size, "0")
        self.sender.send(self.now, 0, payload, len(payload), receipt,
                         timeout, skip)
        if self.sender.next_seq == seq:  # refused: the channel is broken
            assert self.sender.broken and receipt.calls == ["failed"]
        else:
            self.receipts[seq] = receipt

    def _arrive(self, frame):
        dst, header, payload, parts = frame
        kind = header["kind"]
        if dst == A:
            assert kind == KIND_ACK
            self.sender.on_ack(self.now, header)
        elif kind == KIND_DATA:
            self.receiver.on_data(self.now, header, payload, parts)
        elif kind == KIND_PROBE:
            self.receiver.on_probe(self.now)
        else:
            assert kind == KIND_SKIP
            self.receiver.on_skip(self.now, header["upto"])

    @precondition(lambda self: self.wire)
    @rule(data=st.data())
    def deliver_frame(self, data):
        index = data.draw(st.integers(0, len(self.wire) - 1))
        self._arrive(self.wire.pop(index))

    @precondition(lambda self: self.wire)
    @rule(data=st.data())
    def drop_frame(self, data):
        self.wire.pop(data.draw(st.integers(0, len(self.wire) - 1)))

    @precondition(lambda self: self.wire)
    @rule(data=st.data())
    def duplicate_frame(self, data):
        self.wire.append(
            self.wire[data.draw(st.integers(0, len(self.wire) - 1))])

    @precondition(lambda self: self.host_b.inbox)
    @rule()
    def app_consume(self):
        self.host_b.inbox.pop(0)
        self.receiver.window_update(self.now)

    @precondition(lambda self: self.sender.wake_at is not None)
    @rule()
    def wake_sender(self):
        self.now = max(self.now, self.sender.wake_at)
        self.sender.on_wake(self.now)

    @precondition(lambda self: self.receiver.wake_at is not None)
    @rule()
    def wake_receiver(self):
        self.now = max(self.now, self.receiver.wake_at)
        self.receiver.on_wake(self.now)
        assert self.receiver.wake_at is None

    # -- invariants -----------------------------------------------------------

    @invariant()
    def in_flight_is_the_transmitted_unacked_bytes(self):
        s = self.sender
        assert s.in_flight == sum(p.size for p in s.unacked.values()
                                  if p.seq < s.next_tx)

    @invariant()
    def cwnd_never_drops_below_one_packet(self):
        assert self.sender.cwnd >= self.sender.max_payload

    @invariant()
    def packets_at_or_past_next_tx_were_never_sent_and_queued_counts_them(
            self):
        s = self.sender
        assert all(seq < s.next_tx for seq in self.host_a.sent)
        assert s.queued == len(queue(s))
        assert list(s.unacked) == sorted(s.unacked)

    @invariant()
    def delivery_is_fifo_exactly_once_minus_skipped_holes(self):
        delivered = self.host_b.delivered
        assert delivered == sorted(set(delivered))
        holes = set(range(self.receiver.expected)) - set(delivered)
        assert all("skipped" in self.receipts[seq].calls for seq in holes)

    @invariant()
    def receipts_resolve_once_as_delivered_or_skipped(self):
        for seq, receipt in self.receipts.items():
            final = [c for c in receipt.calls if c != "failed"]
            assert len(final) <= 1
            if seq in self.sender.unacked:
                assert not final
            elif not self.sender.broken:
                assert final

    @invariant()
    def acks_owed_index_matches_the_receiver(self):
        assert self.host_b.owed == int(self.receiver.ack_pending)

    @invariant()
    def pinched_index_matches_the_advertised_window(self):
        r = self.receiver
        rwnd = r.advertised_rwnd
        pinched = rwnd is not None and (
            rwnd <= 0 or rwnd < self.host_b.recv_window // 2)
        assert r.pinched == pinched == (r in self.host_b.pinched)

    @invariant()
    def no_timer_is_lost(self):
        s = self.sender
        live = [entry for entry in s.agenda
                if entry[2] > _DEADLINE or entry[3] in s.unacked]
        if live:
            assert s.wake_at is not None
            assert s.wake_at <= min(due for due, *_ in live)
        # Every packet on the wire has a retransmission entry, and a
        # closed window with nothing in flight is being probed.
        armed = {seq for _, _, kind, seq in s.agenda if kind == _RTO}
        assert all(seq in armed for seq in s.unacked if seq < s.next_tx)
        if s.queued and s.in_flight == 0:
            assert any(kind == _PROBE for _, _, kind, _ in s.agenda)
        # ... and an announced skip the receiver has not confirmed is
        # being re-announced.
        if s.last_cum < s.skip_upto - 1 and not s.broken:
            assert any(kind == _SKIP_RTX for _, _, kind, _ in s.agenda)
        if s.broken:
            assert not s.unacked and not s.queued and s.wake_at is None

    @invariant()
    def dead_entries_do_not_pile_up_behind_a_live_head(self):
        s = self.sender
        assert len(s.agenda) <= 5 * len(s.unacked) + 8


StreamPair.TestCase.settings = settings(max_examples=60,
                                        stateful_step_count=50,
                                        deadline=None)
test_stream_pair = StreamPair.TestCase


def test_a_batch_never_spans_an_abandoned_sequence_number():
    """The shrunk case the model search found (the per-packet-timer
    endpoint had it too): seq 2 is skipped while still *queued* behind a
    closed window; when the window reopens 1 and 3 must not share a
    ``parts`` frame — the i-th part is numbered ``seq + i``, so the
    receiver would take message 3 for sequence 2 and deliver it again
    when the real 3 is retransmitted."""
    pair = StreamPair()
    sender, receiver, wire = pair.sender, pair.receiver, pair.wire
    sender.cwnd = 65.0  # one 1-byte packet
    for skip in (None, None, 0.1, None):
        pair.app_send(size=1, timeout=None, skip=skip)
    assert queue(sender) == [1, 2, 3]
    wire.clear()  # DATA 0 is lost
    sender.cwnd = 600.0
    pair.now = 0.1
    sender.on_wake(pair.now)  # the RTO of 0 (due 0.05) and the skip of 2
    assert queue(sender) == [1, 3]
    pair._arrive(wire.pop())  # DATA 0, retransmitted
    pair._arrive(wire.pop())  # its ACK reopens the window
    data = [f for f in wire if f[1]["kind"] == KIND_DATA]
    assert [(h["seq"], h.get("parts")) for _, h, _, _ in data] == [
        (1, None), (3, None)]
    for frame in data:
        pair._arrive(frame)
    assert pair.host_b.delivered == [0, 1]  # 3 waits for the SKIP of 2
    assert sorted(receiver.buffer) == [3]
    pair.teardown()
