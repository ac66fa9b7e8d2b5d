"""The ordering layer's stream machines: one channel's protocol, sans I/O.

The paper (§3.2): "The initial implementation uses UDP ... and it
includes a layer to ensure that messages are delivered in the order they
were sent", and "if a message is not delivered within a specified time,
an exception is raised." This module is that layer for one channel (one
outbox→inbox pair, so two channels between the same two nodes are
independent): per-channel sequence numbers, cumulative acknowledgements,
retransmission with exponential backoff, a receiver-side reordering
buffer and duplicate suppression — FIFO, exactly-once delivery over a
network that drops, duplicates and reorders. Four TCP-shaped
refinements ride on the cumulative baseline:

* **Selective acknowledgements** — every ACK lists (bounded) the
  out-of-order ranges the receiver holds; the sender marks them and
  retransmits only true holes (``stats.sacked_suppressed``).
* **Fast retransmit** — ``dup_ack_threshold`` duplicate cumulative ACKs
  retransmit the first unSACKed hole at once, paced to one recovery
  transmission per measured round trip (``stats.fast_retransmits``).
* **Delayed / piggybacked ACKs** — clean in-order arrivals coalesce
  behind ``ack_delay``; a gap, duplicate or hole-fill ACKs immediately so
  duplicate ACKs keep flowing. An owed ACK rides outgoing DATA to the
  same node for free (``stats.acks_piggybacked``).
* **Flow + congestion control** — every ACK advertises the receiver's
  remaining buffer (``rwnd``: ``recv_window`` minus the addressed
  inbox's queued bytes minus the reordering buffer) and the sender runs
  an AIMD ``cwnd`` with slow start (grow per acknowledged byte below
  ``ssthresh``, ~one max-size payload per round trip above it; halve on
  fast retransmit, collapse to one payload on RTO; never below the
  largest payload seen, so one packet can always fly). New packets go
  out only while bytes in flight stay within ``min(cwnd, rwnd)``; the
  excess queues, and consecutive queued payloads coalesce into batched
  DATA frames (``parts`` framing, :mod:`repro.net.wire`) when the window
  reopens. A closed window is probed with payload-less PROBE frames so a
  lost window update cannot deadlock the sender.

There are **two sequence spaces, so two machine pairs**. RELIABLE and
RELIABLE_SKIP share :class:`ReliableSender` / :class:`ReliableReceiver`:
skip is a per-packet deadline after which the sender abandons the
packet, resolves its receipt ``skipped`` and sends a SKIP frame moving
the receiver past the hole. UNRELIABLE has its own stamp per channel —
:class:`FreshSender` / :class:`FreshReceiver`: no retransmit state, no
reorder buffer, no window; the receiver drops anything not fresher than
the last frame it delivered.

**The machine interface.** Inputs are *app send*, *frame arrived* and
*wake*, each taking ``now`` as an argument; the code here reads no
clock, arms no timer and owns no socket. A reliable half keeps an
agenda of absolute due times and exposes only ``wake_at`` (the earliest,
or ``None``) and ``on_wake(now)``; whoever drives it keeps one timer
armed at ``wake_at``. Outputs go, in protocol order, to an injected
``host`` (:class:`~repro.net.endpoint.Endpoint` in the stack, a fake in
``tests/net/test_stream_machines.py``): frames through ``emit``,
payloads through ``route``, the cross-stream and per-node jobs through
``piggyback`` / ``ack_owed`` / ``window_pinched`` / ``backlog`` /
``drained``, counters on ``host.stats``, trace events on ``host.tracer``
(``None`` = off), and receipts through the ``_ack`` / ``_skip`` /
``_fail`` of the object handed to :meth:`ReliableSender.send`. The host
also carries the knobs, its ``address`` and ``overhead``, the bytes
charged per packet on top of its payload. ``docs/PROTOCOLS.md`` spells
the interface out, next to the timer table and the field glossary.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import takewhile
from typing import Any

from repro.errors import DeliveryTimeout
from repro.net.delivery import RELIABLE_SKIP, UNRELIABLE
from repro.net.wire import (BATCH_COUNT_SIZE, BATCH_MAX_PAYLOADS,
                            DATA_FIXED_SIZE, KIND_ACK, KIND_DATA, KIND_PROBE,
                            KIND_SKIP, MAX_FRAME_BYTES, PART_LEN_SIZE,
                            SACK_MAX_RANGES, frame_base_size, ref_wire_size)

#: Ceiling on congestion-window growth, in bytes. Far above any window
#: this package can use; exists so additive increase cannot grow the
#: float unboundedly over very long runs.
CWND_MAX = float(1 << 24)

# Agenda entry kinds (the wake reasons of docs/PROTOCOLS.md "Timers").
# The first three belong to one packet; the last two to the stream.
_RTO, _SKIP, _DEADLINE, _PROBE, _SKIP_RTX = range(5)


@dataclass(eq=False)
class PendingPacket:
    """Sender-side state of one unacknowledged packet."""

    seq: int
    to_ref: "int | str"
    payload: str
    receipt: Any
    #: Charge against the send window (host overhead + payload bytes).
    size: int
    #: UTF-8 byte length of ``payload`` on the wire (sizes batch frames).
    wire_len: int
    #: Current retransmission timeout; doubles per expiry up to
    #: ``rto_max``.
    rto: float
    first_sent_at: float
    #: The delivery timeout asked for, if any (its receipt fails at
    #: ``first_sent_at + timeout``; the packet itself carries on).
    timeout: float | None = None
    #: RELIABLE_SKIP only: when the sender abandons this packet.
    skip_at: float | None = None
    attempts: int = 1
    #: The receiver advertised holding this packet in its reordering
    #: buffer; retransmission is suppressed while an earlier hole exists.
    sacked: bool = False
    #: When this packet was last retransmitted (RTO- or duplicate-ACK
    #: driven). Fast retransmit is paced against it: at most one
    #: recovery transmission per measured RTT, so a lost fast
    #: retransmission is retried after ~one RTT instead of stalling
    #: until the (possibly huge) RTO, without ever flooding one hole.
    last_rtx_at: float = float("-inf")


class _Backoff:
    """Retransmission state of one payload-less control frame kind."""

    __slots__ = ("interval", "attempts")

    def __init__(self) -> None:
        #: Current interval; 0.0 = nothing scheduled.
        self.interval = 0.0
        self.attempts = 0


class ReliableSender:
    """Sender half of one reliable channel (fixed peer node + channel key).

    Owns the sequence space shared by RELIABLE and RELIABLE_SKIP, the
    unacknowledged window, the last echoed round trip (which paces fast
    retransmit), the AIMD window and the agenda of due times. Every
    timer starts from ``rto_initial``. Invariants (checked after
    every transition by the model test): ``in_flight`` is the summed
    size of transmitted unacknowledged packets; ``cwnd >= max_payload``;
    the packets at or past ``next_tx`` were never sent, and ``queued``
    counts them; ``wake_at`` is never later than the earliest live
    agenda entry; the agenda holds at most ``5 * len(unacked) + 8``
    entries (see :meth:`_prune`).
    """

    # A session-churning node holds thousands of these at once.
    __slots__ = ("host", "peer", "peer_label", "channel", "frame_base",
                 "next_seq", "unacked", "rto_initial", "broken",
                 "last_cum", "dup_acks", "last_rtt", "next_tx", "queued",
                 "in_flight", "cwnd", "ssthresh", "rwnd", "max_payload",
                 "stalled", "cwnd_band", "skip_upto", "probe", "skip_rtx",
                 "agenda", "order", "wake_armed")

    def __init__(self, host: Any, peer: Any, channel: str,
                 rto_initial: float, cwnd_initial: float = CWND_MAX) -> None:
        self.host = host
        self.peer = peer
        #: ``str(peer)``, formatted once for the trace's ``dst`` field.
        self.peer_label = str(peer)
        self.channel = channel
        self.frame_base = frame_base_size(host.address, peer, channel)
        self.next_seq = 0
        #: seq -> packet, in sequence order (seqs only ever grow).
        self.unacked: dict[int, PendingPacket] = {}
        self.rto_initial = rto_initial
        self.broken = False
        #: Highest cumulative acknowledgement seen so far.
        self.last_cum = -1
        #: Consecutive duplicate cumulative ACKs at ``last_cum``.
        self.dup_acks = 0
        #: Most recent raw round trip from any ACK's echo timestamp,
        #: duplicate-triggered ACKs included: it only paces fast
        #: retransmit, never sizes the RTO.
        self.last_rtt = 0.0
        #: The queue: the ``unacked`` packets at or past ``next_tx`` are
        #: accepted but not yet transmitted, and ``queued`` counts them.
        self.next_tx = 0
        self.queued = 0
        #: Bytes transmitted but not yet cumulatively acknowledged.
        self.in_flight = 0
        self.cwnd = float(cwnd_initial)
        self.ssthresh = CWND_MAX
        #: Receiver-advertised window; ``None`` = not yet advertised.
        self.rwnd: int | None = None
        #: Largest packet accepted so far — the floor under ``cwnd`` and
        #: the congestion-avoidance increment unit.
        self.max_payload = 1
        #: A stall was traced for the current closed-window episode.
        self.stalled = False
        #: log2 band of ``cwnd`` when last traced (growth trace dedup).
        self.cwnd_band = int(cwnd_initial).bit_length()
        #: RELIABLE_SKIP: highest abandoned-seq bound announced to the
        #: receiver (0 = nothing skipped yet).
        self.skip_upto = 0
        self.probe = _Backoff()
        self.skip_rtx = _Backoff()
        #: Heap of ``(due, arming order, kind, seq)``; entries whose
        #: packet left ``unacked`` are dead and dropped when they surface.
        self.agenda: list[tuple[float, int, int, int]] = []
        self.order = 0
        #: The driver's note: due time of its one live timer, or ``None``.
        self.wake_armed: float | None = None

    # -- window arithmetic --------------------------------------------------

    def window(self) -> float:
        """Current admission limit in bytes: ``min(cwnd, rwnd)``."""
        if self.rwnd is None:
            return self.cwnd
        return min(self.cwnd, float(self.rwnd))

    def _cwnd_cut(self, reason: str) -> None:
        """Loss response: ``halve`` on duplicate-ACK loss (the path still
        delivers), ``collapse`` to one packet on timeout."""
        before = self.cwnd
        self.ssthresh = max(self.in_flight / 2.0, 2.0 * self.max_payload)
        self.cwnd = (max(self.ssthresh, float(self.max_payload))
                     if reason == "halve" else float(self.max_payload))
        if self.cwnd >= before:
            return  # already at (or below) the floor; nothing happened
        host = self.host
        if reason == "halve":
            host.stats.cwnd_halvings += 1
        else:
            host.stats.cwnd_collapses += 1
        self.cwnd_band = int(self.cwnd).bit_length()
        tr = host.tracer
        if tr is not None:
            tr.emit("ep", "cwnd", node=host.address, ch=self.channel,
                    cwnd=int(self.cwnd), reason=reason)

    # -- the agenda ---------------------------------------------------------

    @property
    def wake_at(self) -> float | None:
        """When :meth:`on_wake` next has work, or ``None``."""
        return self.agenda[0][0] if self.agenda else None

    def _schedule(self, due: float, kind: int, seq: int = -1) -> None:
        self.order += 1
        heappush(self.agenda, (due, self.order, kind, seq))

    def _prune(self) -> None:
        """Drop dead per-packet entries off the head, so an acknowledged
        stream does not wake once per packet it no longer holds. Dead
        entries behind a live head are dropped too, by a rebuild from
        the live ones, once the heap outgrows ``4 * len(unacked) + 8``
        (a live packet has at most three entries, a control kind one).
        The head stays, so no wake moves. Only a prune follows a
        packet's removal, so the agenda never holds more than
        ``5 * len(unacked) + 8`` entries: the extra one per packet is the
        retransmission entry of a packet queued at the last prune."""
        agenda, unacked = self.agenda, self.unacked
        while agenda and agenda[0][2] <= _DEADLINE \
                and agenda[0][3] not in unacked:
            heappop(agenda)
        if len(agenda) > 4 * len(unacked) + 8:
            agenda[:] = [e for e in agenda
                         if e[2] > _DEADLINE or e[3] in unacked]
            heapify(agenda)

    def on_wake(self, now: float) -> None:
        """Run every agenda entry due by ``now``, in (due, arming) order."""
        agenda = self.agenda
        while agenda and agenda[0][0] <= now:
            _due, _order, kind, seq = heappop(agenda)
            if kind >= _PROBE:
                self._on_control(now, kind)
                continue
            pending = self.unacked.get(seq)
            if pending is None:
                continue  # acknowledged or abandoned in the meantime
            if kind == _RTO:
                self._on_rto(now, pending)
            elif kind == _SKIP:
                self._on_skip(now, pending)
            else:
                # Paper semantics: raise to the application at the
                # deadline; the packet keeps retransmitting (or stays
                # queued) so the channel's FIFO stream is not holed.
                pending.receipt._fail(DeliveryTimeout(
                    f"message on channel {self.channel!r} to {self.peer} "
                    f"not delivered within {pending.timeout:.3f}s",
                    destination=pending.receipt.destination,
                    timeout=pending.timeout))
        self._prune()

    # -- input: the application sends ---------------------------------------

    def send(self, now: float, to_ref: "int | str", payload: str,
             wire_len: int, receipt: Any, timeout: float | None = None,
             skip_after: float | None = None) -> None:
        """Accept one payload: allocate its sequence number, schedule
        its deadlines, queue it and pump. ``skip_after`` makes it a
        RELIABLE_SKIP packet."""
        host = self.host
        # A due time and an input on the very same instant resolve
        # due-time-first, as they did when every entry was a kernel timer
        # armed an RTO before anything the input rode in on (virtual
        # time makes such ties routine: a 10 ms sender under an 80 ms
        # RTO). An *overdue* agenda — a busy real-time loop — waits for
        # its wake: the input may be the ACK that makes it moot.
        if self.agenda and self.agenda[0][0] == now:
            self.on_wake(now)
        if self.broken:
            receipt._fail(DeliveryTimeout(
                f"channel {self.channel!r} to {self.peer} is broken "
                "(retries exhausted)",
                destination=receipt.destination, timeout=timeout))
            return
        seq = self.next_seq
        self.next_seq += 1
        pending = PendingPacket(seq, to_ref, payload, receipt,
                                host.overhead + len(payload), wire_len,
                                self.rto_initial, now, timeout)
        self.unacked[seq] = pending
        host.stats.data_sent += 1
        tr = host.tracer
        if skip_after is not None:
            pending.skip_at = now + skip_after
            if tr is not None:
                tr.emit("ep", "data", node=host.address, ch=self.channel,
                        seq=seq, dst=self.peer_label, cls=RELIABLE_SKIP)
            self._schedule(pending.skip_at, _SKIP, seq)
        elif tr is not None:
            tr.emit("ep", "data", node=host.address, ch=self.channel,
                    seq=seq, dst=self.peer_label)
        if timeout is not None:
            self._schedule(now + timeout, _DEADLINE, seq)
        if pending.size > self.max_payload:
            self.max_payload = pending.size
        if self.cwnd < pending.size:
            self.cwnd = float(pending.size)
        self.queued += 1
        self._pump(now)

    def _pump(self, now: float) -> None:
        """Transmit queued packets while the window allows, coalescing
        consecutive queued payloads into batched DATA frames; then update
        the stall/resume state.

        The filler is size-aware in *wire* bytes, not just in the flow
        accounting: a group stops before its encoded frame would exceed
        :data:`~repro.net.wire.MAX_FRAME_BYTES`, so a run of large
        payloads splits into several frames on every substrate."""
        if self.broken:
            return
        host = self.host
        unacked = self.unacked
        batch_base = self.frame_base + DATA_FIXED_SIZE + BATCH_COUNT_SIZE
        while self.queued:
            head = unacked.get(self.next_tx)
            if head is None:
                self.next_tx += 1  # a skipped packet's seq
                continue
            window = self.window()
            if self.in_flight + head.size > window:
                break
            group = [head]
            total = head.size
            # Projected wire size if the group becomes a batch frame
            # (the head's ref appears both as ``to`` and in ``parts``).
            wire_total = (batch_base + 2 * ref_wire_size(head.to_ref)
                          + PART_LEN_SIZE + head.wire_len)
            while len(group) < BATCH_MAX_PAYLOADS:
                nxt = unacked.get(head.seq + len(group))
                if nxt is None:
                    break  # the queue's end, or a skipped packet's gap
                if total + nxt.size > host.batch_bytes:
                    break
                if self.in_flight + total + nxt.size > window:
                    break
                nxt_wire = (ref_wire_size(nxt.to_ref) + PART_LEN_SIZE
                            + nxt.wire_len)
                if wire_total + nxt_wire > MAX_FRAME_BYTES:
                    break
                group.append(nxt)
                total += nxt.size
                wire_total += nxt_wire
            self.next_tx = head.seq + len(group)
            self.queued -= len(group)
            self.in_flight += total
            self._transmit(now, group)
            for p in group:
                self._schedule(now + p.rto, _RTO, p.seq)
        tr = host.tracer
        if self.queued:
            if not self.stalled:
                self.stalled = True
                host.stats.window_stalls += 1
                if tr is not None:
                    tr.emit("ep", "stall", node=host.address,
                            ch=self.channel, queued=self.queued,
                            in_flight=self.in_flight, cwnd=int(self.cwnd),
                            rwnd=self.rwnd)
            if self.in_flight == 0 and not self.probe.interval:
                # Zero-window persist: nothing in flight can solicit the
                # window-opening ACK, so probe for it.
                self._start_control(now, _PROBE)
        elif self.stalled:
            self.stalled = False
            host.stats.window_resumes += 1
            if tr is not None:
                tr.emit("ep", "resume", node=host.address, ch=self.channel,
                        in_flight=self.in_flight, cwnd=int(self.cwnd),
                        rwnd=self.rwnd)
            host.drained(self)

    def _transmit(self, now: float, group: "list[PendingPacket]") -> None:
        """One DATA frame for ``group`` (consecutive packets). A single
        rides as ``payload``; several ride as ``parts`` — ``seq`` is the
        first packet's, the i-th part has sequence ``seq + i`` — and the
        wire codec writes each payload exactly once. ``ts`` is echoed
        back in ACKs (TCP-timestamps style) so RTT samples stay clean
        under cumulative-ack delays and retransmission ambiguity."""
        host = self.host
        head = group[0]
        header = {"kind": KIND_DATA, "to": head.to_ref, "ch": self.channel,
                  "seq": head.seq, "ts": now}
        if len(group) == 1:
            if head.skip_at is not None:
                header["cls"] = RELIABLE_SKIP
            body = head.wire_len
        else:
            header["parts"] = [p.to_ref for p in group]
            body = BATCH_COUNT_SIZE + sum(
                ref_wire_size(p.to_ref) + PART_LEN_SIZE + p.wire_len
                for p in group)
        budget = (MAX_FRAME_BYTES - self.frame_base - DATA_FIXED_SIZE
                  - ref_wire_size(head.to_ref) - body)
        packs = host.piggyback(self.peer, budget, now)
        if packs:
            header["pack"] = packs
        if len(group) == 1:
            host.emit(self.peer, header, head.payload)
            return
        host.stats.batches_sent += 1
        host.stats.batched_payloads += len(group)
        tr = host.tracer
        if tr is not None:
            tr.emit("ep", "batch", node=host.address, ch=self.channel,
                    seq=head.seq, n=len(group))
        host.emit(self.peer, header, "", tuple(p.payload for p in group))

    # -- input: an acknowledgement arrived ----------------------------------

    def on_ack(self, now: float, fields: dict) -> None:
        """One ackbody (an ACK frame's header or a piggybacked pack)."""
        host = self.host
        if self.agenda and self.agenda[0][0] == now:
            self.on_wake(now)  # a tie: the due time first, as in ``send``
        unacked = self.unacked
        rwnd = fields.get("rwnd")
        if rwnd is not None:
            self.rwnd = rwnd
        cum: int = fields["cum"]
        echoed = fields.get("ets")
        if echoed is not None:
            self.last_rtt = now - echoed
        bytes_acked = 0
        if cum > self.last_cum:
            self.last_cum = cum
            self.dup_acks = 0
            tr = host.tracer
            acked = []
            for seq in unacked:
                if seq > cum:
                    break
                acked.append(seq)
            for seq in acked:
                pending = unacked.pop(seq)
                if seq < self.next_tx:
                    bytes_acked += pending.size
                    self.in_flight -= pending.size
                else:
                    self.queued -= 1
                if tr is not None:
                    tr.emit("ep", "confirm", node=host.address,
                            ch=self.channel, seq=seq,
                            rtt=now - pending.first_sent_at)
                pending.receipt._ack()
            self._prune()
        elif cum == self.last_cum and unacked:
            self.dup_acks += 1
        for start, end in fields.get("sack", ()):
            for seq in range(start, end + 1):
                pending = unacked.get(seq)
                if pending is not None:
                    pending.sacked = True
        if bytes_acked > 0:
            # AIMD growth: slow start below ``ssthresh``, ~one payload
            # per round trip above it.
            if self.cwnd < self.ssthresh:
                self.cwnd = min(self.cwnd + bytes_acked, CWND_MAX)
            else:
                self.cwnd = min(self.cwnd + self.max_payload * bytes_acked
                                / max(self.cwnd, 1.0), CWND_MAX)
            band = int(self.cwnd).bit_length()
            if band != self.cwnd_band:
                # Growth is traced per log2 band, not per ACK, to keep
                # traces readable; reductions always trace (_cwnd_cut).
                self.cwnd_band = band
                tr = host.tracer
                if tr is not None:
                    tr.emit("ep", "cwnd", node=host.address,
                            ch=self.channel, cwnd=int(self.cwnd),
                            reason="grow")
        if self.dup_acks >= host.dup_ack_threshold:
            self._fast_retransmit(now)
        self._pump(now)

    def _fast_retransmit(self, now: float) -> None:
        hole = next((p for p in self.unacked.values() if not p.sacked), None)
        if hole is None or hole.seq >= self.next_tx:
            return
        if now - hole.last_rtx_at <= self.last_rtt:
            return  # already retransmitted within the last round trip
        hole.last_rtx_at = now
        self.dup_acks = 0
        host = self.host
        self._cwnd_cut("halve")
        host.stats.fast_retransmits += 1
        host.stats.data_retransmitted += 1
        tr = host.tracer
        if tr is not None:
            tr.emit("ep", "rtx", node=host.address, ch=self.channel,
                    seq=hole.seq, reason="fast", attempt=hole.attempts)
        self._transmit(now, [hole])

    # -- input: a wake, by agenda kind --------------------------------------

    def _on_rto(self, now: float, pending: PendingPacket) -> None:
        host = self.host
        seq = pending.seq
        tr = host.tracer
        if pending.sacked and any(not p.sacked for p in takewhile(
                lambda p: p.seq < seq, self.unacked.values())):
            # The receiver holds this packet; the earlier hole's own
            # entry drives recovery. Keep this one alive (without
            # consuming retry budget) as the reneging-safety fallback:
            # if it ever becomes the lowest outstanding packet its SACK
            # mark is ignored and it retransmits normally, so liveness
            # never depends on an advertisement whose ACK may be lost.
            host.stats.sacked_suppressed += 1
            if tr is not None:
                tr.emit("ep", "sack_suppress", node=host.address,
                        ch=self.channel, seq=seq)
            pending.rto = min(pending.rto * 2.0, host.rto_max)
            self._schedule(now + pending.rto, _RTO, seq)
            return
        if pending.attempts > host.max_retries:
            self._break(seq, pending.attempts)
            return
        pending.attempts += 1
        if any(p.sacked for p in self.unacked.values() if p.seq > seq):
            # SACKed data above this hole proves the path is alive, so
            # the loss is random rather than congestive — and with the
            # tail suppressed this packet is the only traffic left that
            # can solicit an ACK. Hold at the base RTO instead of
            # backing off: a lost retransmission or ACK is repaired
            # within ~one RTO rather than an exponentially growing stall
            # (the retry budget still bounds the attempts).
            pending.rto = self.rto_initial
        else:
            pending.rto = min(pending.rto * 2.0, host.rto_max)
        pending.last_rtx_at = now
        self._cwnd_cut("collapse")
        host.stats.data_retransmitted += 1
        if tr is not None:
            tr.emit("ep", "rtx", node=host.address, ch=self.channel, seq=seq,
                    reason="rto", attempt=pending.attempts)
        self._transmit(now, [pending])
        self._schedule(now + pending.rto, _RTO, seq)

    def _on_skip(self, now: float, pending: PendingPacket) -> None:
        """A RELIABLE_SKIP packet's hold expired: stop retransmitting it,
        resolve its receipt ``skipped`` and tell the receiver to advance
        past every abandoned hole."""
        if pending.sacked:
            # The receiver already has it; it only waits for the
            # cumulative ACK. Abandoning it would mislabel a delivered
            # message as skipped.
            return
        host = self.host
        del self.unacked[pending.seq]
        if pending.seq < self.next_tx:
            self.in_flight -= pending.size
        else:
            self.queued -= 1
        host.stats.skipped += 1
        # Everything below the first still-outstanding packet is either
        # acknowledged or abandoned: the receiver may deliver past it.
        upto = next(iter(self.unacked), self.next_seq)
        if upto > self.skip_upto:
            self.skip_upto = upto
        pending.receipt._skip()
        tr = host.tracer
        if tr is not None:
            tr.emit("ep", "skip", node=host.address, ch=self.channel,
                    seq=pending.seq, upto=self.skip_upto,
                    slat=now - pending.first_sent_at)
        if self.last_cum < self.skip_upto - 1:
            self._emit_skip()
            if not self.skip_rtx.interval:
                self._start_control(now, _SKIP_RTX)
        self._pump(now)

    def _emit_skip(self) -> None:
        self.host.stats.skips_sent += 1
        self.host.emit(self.peer, {"kind": KIND_SKIP, "ch": self.channel,
                                   "upto": self.skip_upto})

    def _start_control(self, now: float, kind: int) -> None:
        back = self.probe if kind == _PROBE else self.skip_rtx
        back.attempts = 0
        back.interval = self.rto_initial
        self._schedule(now + back.interval, kind)

    def _on_control(self, now: float, kind: int) -> None:
        """PROBE and SKIP frames share one discipline: resend with
        doubling intervals (capped at ``rto_max``) until the condition
        that started them clears — the window opened, or an ACK at or
        past ``skip_upto - 1`` proved the receiver moved — and break the
        channel once ``max_retries`` resends went unanswered."""
        host = self.host
        probing = kind == _PROBE
        if probing:
            back = self.probe
            # The window may have opened meanwhile (``interval`` is still
            # set, so this pump cannot start a second probe chain).
            self._pump(now)
            settled = not self.queued or self.in_flight > 0
        else:
            back = self.skip_rtx
            settled = self.last_cum >= self.skip_upto - 1
        if settled:
            back.interval = 0.0
            back.attempts = 0
            return
        back.attempts += 1
        if back.attempts > host.max_retries:
            self._break(self.next_tx if probing else self.skip_upto,
                        back.attempts)
            return
        if probing:
            host.stats.window_probes += 1
            tr = host.tracer
            if tr is not None:
                tr.emit("ep", "probe", node=host.address, ch=self.channel,
                        rwnd=self.rwnd, attempt=back.attempts)
            host.emit(self.peer, {"kind": KIND_PROBE, "ch": self.channel})
        else:
            self._emit_skip()
        back.interval = min(back.interval * 2.0, host.rto_max)
        self._schedule(now + back.interval, kind)

    # -- teardown -----------------------------------------------------------

    def _break(self, seq: int, attempts: int) -> None:
        """Give up: the channel is declared broken. Every outstanding
        packet fails; later sends fail immediately."""
        host = self.host
        host.stats.gave_up += 1
        tr = host.tracer
        if tr is not None:
            tr.emit("ep", "broken", node=host.address, ch=self.channel,
                    seq=seq, attempts=attempts)
        self.broken = True
        self.abort(f"channel {self.channel!r} to {self.peer} broken after "
                   f"{host.max_retries} retries")
        host.drained(self)

    def abort(self, reason: str) -> None:
        """Fail every outstanding receipt — queued or in flight — with
        ``reason`` and forget all packets and due times."""
        for pending in self.unacked.values():
            pending.receipt._fail(DeliveryTimeout(
                reason, destination=pending.receipt.destination))
        self.unacked.clear()
        self.queued = 0
        self.agenda.clear()
        self.in_flight = 0
        self.stalled = False


class ReliableReceiver:
    """Receiver half of one reliable channel (fixed peer node + channel
    key): the reordering buffer, the cumulative expectation and the ACK
    it owes. Its whole agenda is one due time — the delayed ACK — so
    ``wake_at`` is a plain attribute."""

    __slots__ = ("host", "peer", "channel", "expected", "buffer",
                 "ack_pending", "last_ack_at", "pending_ets",
                 "buffered_bytes", "last_to", "advertised_rwnd", "pinched",
                 "order", "wake_at", "wake_armed")

    def __init__(self, host: Any, peer: Any, channel: str,
                 order: int = 0) -> None:
        self.host = host
        self.peer = peer
        self.channel = channel
        #: Creation rank among the host's receive streams; cross-stream
        #: jobs visit streams in this order.
        self.order = order
        self.expected = 0
        self.buffer: dict[int, tuple["int | str", str]] = {}
        #: An acknowledgement is owed but has not been put on the wire.
        self.ack_pending = False
        self.last_ack_at = float("-inf")
        #: Echo timestamp of the earliest packet covered by the pending
        #: ACK (RFC 7323 rule: a coalesced ACK echoes its oldest trigger,
        #: so RTT samples account for the ack delay the sender must absorb).
        self.pending_ets: float | None = None
        #: Bytes held in the reordering buffer (charged against ``rwnd``).
        self.buffered_bytes = 0
        #: The inbox ref/name this channel last addressed; its queue
        #: occupancy is what the advertised window is derived from.
        self.last_to: "int | str | None" = None
        #: The window value most recently put on the wire (``None``
        #: before the first advertisement); window updates compare
        #: against it.
        self.advertised_rwnd: int | None = None
        #: ``advertised_rwnd`` is zero or below half of ``recv_window`` —
        #: the only state in which :meth:`window_update` can have anything
        #: to say. Kept by :meth:`ack_fields`, reported to the host through
        #: ``window_pinched`` on every change.
        self.pinched = False
        #: When the delayed ACK falls due. Set by the first coalesced
        #: arrival and cleared only by the wake itself: an ACK that left
        #: earlier by other means does not move it.
        self.wake_at: float | None = None
        #: The driver's note: due time of its one live timer, or ``None``.
        self.wake_armed: float | None = None

    # -- inputs ---------------------------------------------------------------

    def on_data(self, now: float, header: dict, payload: str,
                parts_payloads: "tuple[str, ...] | None") -> None:
        """One reliable-class DATA frame, single or batched."""
        host = self.host
        base: int = header["seq"]
        parts = header.get("parts")
        if parts is None:
            packets = [(base, header["to"], payload)]
        else:
            packets = [(base + i, to_ref, part) for i, (to_ref, part)
                       in enumerate(zip(parts, parts_payloads or ()))]
        tr = host.tracer
        buffer = self.buffer
        in_order_run = True
        for seq, to_ref, part in packets:
            if seq < self.expected or seq in buffer:
                in_order_run = False
                host.stats.duplicates_discarded += 1
                if tr is not None:
                    tr.emit("ep", "dup_data", node=host.address,
                            ch=self.channel, seq=seq)
                continue
            if seq != self.expected or buffer:
                in_order_run = False
            self.last_to = to_ref
            buffer[seq] = (to_ref, part)
            self.buffered_bytes += host.overhead + len(part)
            if seq != self.expected:
                host.stats.buffered_out_of_order += 1
                if tr is not None:
                    tr.emit("ep", "ooo", node=host.address, ch=self.channel,
                            seq=seq, expected=self.expected)
            self._drain()
        # Duplicates re-ack immediately (the previous ack may have been
        # lost), gaps and hole-fills ack immediately (the sender is
        # recovering and needs the feedback now); only clean in-order
        # arrivals coalesce behind the delayed-ack window.
        self._owe_ack(header.get("ts"))
        if (not in_order_run or host.ack_delay <= 0
                or now - self.last_ack_at >= host.ack_delay):
            self._flush_ack(now)
        else:
            host.stats.acks_delayed += 1
            if self.wake_at is None:
                self.wake_at = now + host.ack_delay

    def on_probe(self, now: float) -> None:
        """A zero-window probe: answer with an immediate ACK whose
        ``rwnd`` field re-advertises the current window."""
        self._flush_ack(now)

    def on_skip(self, now: float, upto: int) -> None:
        """A SKIP signal: the sender abandoned every sequence number
        below ``upto``. Deliver what the buffer holds below the mark (in
        order), step over the holes, drain the in-order tail and ACK
        immediately — the ACK stops the sender's SKIP retransmissions."""
        if upto > self.expected:
            holes = 0
            while self.expected < upto:
                if self.expected in self.buffer:
                    self._drain()
                else:
                    holes += 1
                    self.expected += 1
            self._drain()
            host = self.host
            host.stats.holes_skipped += holes
            tr = host.tracer
            if tr is not None:
                tr.emit("ep", "skip_advance", node=host.address,
                        ch=self.channel, upto=upto, holes=holes)
        self._flush_ack(now)

    def window_update(self, now: float) -> None:
        """The addressed inbox drained. Re-advertise the window, but
        only when it matters: it was zero (the sender is probing) and is
        now positive, or it was below half of ``recv_window`` and has
        recovered past half (TCP's silly-window-avoidance shape)."""
        advertised = self.advertised_rwnd
        if advertised is None:
            return
        host = self.host
        current = self._rwnd()
        half = host.recv_window // 2
        if (advertised <= 0 < current) or (advertised < half <= current):
            host.stats.window_updates += 1
            tr = host.tracer
            if tr is not None:
                tr.emit("ep", "wnd_update", node=host.address,
                        ch=self.channel, rwnd=current)
            self._flush_ack(now)

    def on_wake(self, now: float) -> None:
        """The delayed-ack window closed."""
        self.wake_at = None
        if self.ack_pending:  # else flushed or piggybacked meanwhile
            self._flush_ack(now)

    # -- delivery and acknowledgement -----------------------------------------

    def _drain(self) -> None:
        """Deliver the in-order run at the head of the buffer."""
        host = self.host
        buffer = self.buffer
        tr = host.tracer
        while self.expected in buffer:
            to_ref, payload = buffer.pop(self.expected)
            self.buffered_bytes -= host.overhead + len(payload)
            if tr is not None:
                tr.emit("ep", "deliver", node=host.address, ch=self.channel,
                        seq=self.expected)
            self.expected += 1
            route = host.route(to_ref)
            if route is not None:
                host.stats.delivered += 1
                route[0](payload, route[1])

    def _owe_ack(self, ets: float | None = None) -> None:
        if not self.ack_pending:
            self.ack_pending = True
            self.pending_ets = ets
            self.host.ack_owed(self.peer, 1)

    def _rwnd(self) -> int:
        """Remaining receive budget: ``recv_window`` minus the addressed
        inbox's queued bytes minus this channel's reordering buffer."""
        host = self.host
        return max(0, host.recv_window - host.backlog(self.last_to)
                   - self.buffered_bytes)

    def ack_fields(self) -> dict:
        """The ackbody describing this half right now."""
        host = self.host
        fields = {"cum": self.expected - 1, "ets": self.pending_ets}
        if self.buffer:
            # The out-of-order runs held, as bounded inclusive ranges.
            ranges: list[list[int]] = []
            for seq in sorted(self.buffer):
                if ranges and seq == ranges[-1][1] + 1:
                    ranges[-1][1] = seq
                elif len(ranges) == SACK_MAX_RANGES:
                    break
                else:
                    ranges.append([seq, seq])
            fields["sack"] = ranges
        fields["rwnd"] = self.advertised_rwnd = rwnd = self._rwnd()
        pinched = rwnd <= 0 or rwnd < host.recv_window // 2
        if pinched != self.pinched:
            self.pinched = pinched
            host.window_pinched(self, pinched)
        return fields

    def ack_leaves(self, now: float, fields: dict, mode: str) -> None:
        """``fields`` is going out (``mode``: ``wire`` | ``piggyback``):
        nothing is owed any more."""
        host = self.host
        self.ack_pending = False
        host.ack_owed(self.peer, -1)
        self.pending_ets = None
        self.last_ack_at = now
        tr = host.tracer
        if tr is not None:
            tr.emit("ep", "ack", node=host.address, ch=self.channel,
                    cum=fields["cum"], sack=fields.get("sack"), mode=mode)

    def _flush_ack(self, now: float) -> None:
        """Put an ACK on the wire now, owed already or not."""
        self._owe_ack()
        self.host.stats.acks_sent += 1
        fields = self.ack_fields()
        self.ack_leaves(now, fields, "wire")
        self.host.emit(self.peer,
                       {"kind": KIND_ACK, "ch": self.channel, **fields})


class FreshSender:
    """UNRELIABLE, sending side of a node: fire-and-forget frames carrying
    a per-channel stamp from a sequence space of their own."""

    def __init__(self, host: Any) -> None:
        self.host = host
        #: Next stamp per (destination node, channel key).
        self.next_seq: dict[tuple[Any, str], int] = {}

    def send(self, now: float, dst: Any, channel: str, payload: str) -> None:
        host = self.host
        key = (dst.node, channel)
        seq = self.next_seq.get(key, 0)
        self.next_seq[key] = seq + 1
        host.stats.unreliable_sent += 1
        tr = host.tracer
        if tr is not None:
            tr.emit("ep", "data", node=host.address, ch=channel, seq=seq,
                    dst=str(dst.node), cls=UNRELIABLE)
        host.emit(dst.node, {"kind": KIND_DATA, "to": dst.ref, "ch": channel,
                             "seq": seq, "ts": now, "cls": UNRELIABLE},
                  payload)


class FreshReceiver:
    """UNRELIABLE, receiving side of a node: no ACK, no reordering
    buffer, no rwnd. Anything at or below the latest delivered stamp is
    dropped (duplicate or stale), so the application only ever sees
    fresher-than-last updates."""

    def __init__(self, host: Any) -> None:
        self.host = host
        #: Latest stamp delivered per (source node, channel key).
        self.latest: dict[tuple[Any, str], int] = {}

    def on_data(self, now: float, src: Any, header: dict,
                payload: str) -> None:
        host = self.host
        channel: str = header["ch"]
        seq: int = header["seq"]
        latest = self.latest.get((src, channel))
        tr = host.tracer
        if latest is not None and seq <= latest:
            host.stats.stale_dropped += 1
            if tr is not None:
                tr.emit("ep", "drop_stale", node=host.address, ch=channel,
                        seq=seq, latest=latest)
            return
        route = host.route(header["to"])
        if route is None:
            return
        self.latest[(src, channel)] = seq
        host.stats.unreliable_delivered += 1
        if tr is not None:
            tr.emit("ep", "deliver", node=host.address, ch=channel, seq=seq,
                    cls=UNRELIABLE, dlat=now - header["ts"])
        route[0](payload, route[1])
