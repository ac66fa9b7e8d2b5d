"""A node's attachment to the network: routing and I/O for the ordering layer.

One :class:`Endpoint` exists per node (machine); every inbox of every
dapplet on that node registers with it, and every outbox sends through
the endpoint of its node. The protocol itself — sequence numbers,
acknowledgements, retransmission, windows, the three delivery classes —
lives once, in the sans-I/O stream machines of :mod:`repro.net.stream`;
the frame layout in :mod:`repro.net.wire`. What is left here is what is
genuinely per node: the inbox registry, delivery-class dispatch and the
frame-ceiling check in :meth:`Endpoint.send`, delivery receipts and
``writable`` waiters, the cross-stream jobs (piggybacking owed ACKs on
outgoing DATA, window updates when an inbox drains, ``close``), datagram
I/O and the wake timers: each stream half exposes ``wake_at`` and the
endpoint keeps exactly one timer armed there (:meth:`Endpoint._arm`, the
only place this module arms a timer).

The endpoint is substrate-agnostic: it talks to a
:class:`~repro.runtime.substrate.Scheduler` for time and timers and to a
:class:`~repro.runtime.substrate.DatagramService` for the wire, so the
same machines run on the virtual-time simulator and on real UDP sockets
(see :mod:`repro.runtime`).

The paper: "if a message is not delivered within a specified time, an
exception is raised" — :meth:`Endpoint.send` returns a
:class:`DeliveryReceipt` whose ``confirmed`` event fails with
:class:`~repro.errors.DeliveryTimeout` in that case.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import AddressError
from repro.net.address import InboxAddress, NodeAddress
from repro.net.datagram import HEADER_OVERHEAD, Datagram
from repro.net.delivery import (RELIABLE, RELIABLE_SKIP, UNRELIABLE,
                                validate_delivery)
from repro.net.stream import (FreshReceiver, FreshSender, ReliableReceiver,
                              ReliableSender)
from repro.net.wire import (DATA_FIXED_SIZE, KIND_ACK, KIND_DATA, KIND_PROBE,
                            KIND_SKIP, MAX_FRAME_BYTES, frame_base_size,
                            pack_entry_wire_size, payload_too_large,
                            ref_wire_size, utf8_len)
from repro.obs.metrics import Counters
from repro.runtime.substrate import DatagramService, Scheduler
from repro.sim.events import Event


class EndpointStats(Counters):
    """Counters kept per endpoint (glossary: ``docs/OBSERVABILITY.md``)."""

    layer = "ep"
    __slots__ = ("data_sent", "data_retransmitted", "acks_sent",
                 "delivered", "duplicates_discarded",
                 "buffered_out_of_order", "gave_up", "no_such_inbox",
                 "fast_retransmits", "sacked_suppressed", "acks_delayed",
                 "acks_piggybacked", "window_stalls", "window_resumes",
                 "window_probes", "window_updates", "batches_sent",
                 "batched_payloads", "cwnd_halvings", "cwnd_collapses",
                 "unreliable_sent", "unreliable_delivered", "stale_dropped",
                 "skipped", "skips_sent", "holes_skipped")


class DeliveryReceipt:
    """Tracks the outcome of one reliable-class send.

    ``confirmed`` is an event that succeeds (with the elapsed
    send-to-resolution round-trip time) when the destination endpoint
    acknowledges the message — or, on a ``RELIABLE_SKIP`` channel, when
    the sender abandons it at the skip timeout — or fails with
    :class:`DeliveryTimeout` if a timeout was requested and expired
    first. ``outcome`` distinguishes the two success cases:
    ``"delivered"`` vs ``"skipped"`` (check :attr:`is_skipped`).
    Callers that do not care may simply drop the receipt; an unobserved
    timeout does not crash the run.
    """

    def __init__(self, kernel: Scheduler, destination: InboxAddress) -> None:
        self.kernel = kernel
        self.destination = destination
        self.sent_at = kernel.now
        self.confirmed: Event = kernel.event()
        #: ``"delivered"`` | ``"skipped"`` once resolved, else ``None``.
        self.outcome: str | None = None
        #: Pre-defused: a failure here is an application-visible outcome
        #: carried by the event, not an internal simulator error.
        self.confirmed.defused = True

    @property
    def is_confirmed(self) -> bool:
        return self.confirmed.triggered and self.confirmed._ok is True

    @property
    def is_failed(self) -> bool:
        return self.confirmed.triggered and self.confirmed._ok is False

    @property
    def is_skipped(self) -> bool:
        return self.outcome == "skipped"

    def _ack(self) -> None:
        if not self.confirmed.triggered:
            self.outcome = "delivered"
            self.confirmed.succeed(self.kernel.now - self.sent_at)

    def _skip(self) -> None:
        if not self.confirmed.triggered:
            self.outcome = "skipped"
            self.confirmed.succeed(self.kernel.now - self.sent_at)

    def _fail(self, exc: Exception) -> None:
        if not self.confirmed.triggered:
            self.confirmed.fail(exc)
            self.confirmed.defused = True


DeliverFn = Callable[[str, InboxAddress], None]
BacklogFn = Callable[[], int]


class Endpoint:
    """A node's attachment to the network; home of the ordering layer.

    Parameters
    ----------
    kernel / network:
        The substrate halves: any :class:`Scheduler` (the simulation
        kernel, an :class:`~repro.runtime.AsyncioSubstrate`, ...) and any
        :class:`DatagramService` (the simulated network, real UDP
        sockets, ...).
    skip_timeout:
        RELIABLE_SKIP only: seconds a packet is retransmitted before
        the sender abandons it and signals the receiver to skip.
    rto_initial:
        Initial retransmission timeout, > 0. ``None`` estimates it per
        destination as 4x the latency model's mean. Every timer
        (packet, PROBE, SKIP) starts from it.
    rto_max / max_retries:
        Backoff cap (> 0) and retry budget (>= 0); exhausting the
        budget marks the channel broken (counted in ``stats.gave_up``)
        so runs always quiesce even under pathological loss. The same
        budget bounds zero-window persist probes.
    dup_ack_threshold:
        Duplicate cumulative ACKs that trigger a fast retransmit of the
        first unSACKed hole (TCP's classic K=3).
    ack_delay:
        Width of the receiver's delayed-ack window. In-order arrivals
        within ``ack_delay`` of the previous ACK coalesce into one
        deferred ACK; out-of-order, duplicate and hole-filling arrivals
        always ACK immediately. 0 disables coalescing entirely.
    cwnd_initial:
        Initial congestion window in bytes. The generous default means
        small workloads never queue; benchmarks and stress tests shrink
        it to exercise the window.
    recv_window:
        Receive buffer budget advertised per channel, in bytes: queued
        inbox bytes plus reordering-buffer bytes are subtracted from it.
    batch_bytes:
        Ceiling on one batched DATA frame's coalesced payload bytes
        (see also :data:`~repro.net.wire.BATCH_MAX_PAYLOADS`).
    """

    def __init__(self, kernel: Scheduler, network: DatagramService,
                 address: NodeAddress, *, skip_timeout: float = 0.25,
                 rto_initial: float | None = None, rto_max: float = 5.0,
                 max_retries: int = 30, dup_ack_threshold: int = 3,
                 ack_delay: float = 0.01, cwnd_initial: int = 64 * 1024,
                 recv_window: int = 64 * 1024,
                 batch_bytes: int = 4096) -> None:
        if rto_initial is not None and rto_initial <= 0:
            raise ValueError("rto_initial must be > 0 (or None)")
        if rto_max <= 0:
            raise ValueError("rto_max must be > 0")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if dup_ack_threshold < 1:
            raise ValueError("dup_ack_threshold must be >= 1")
        if ack_delay < 0:
            raise ValueError("ack_delay must be >= 0")
        if cwnd_initial < 1:
            raise ValueError("cwnd_initial must be >= 1")
        if recv_window < 1:
            raise ValueError("recv_window must be >= 1")
        if batch_bytes < 1:
            raise ValueError("batch_bytes must be >= 1")
        if skip_timeout <= 0:
            raise ValueError("skip_timeout must be > 0")
        self.kernel = kernel
        self.network = network
        self.address = address
        self.skip_timeout = skip_timeout
        self.rto_initial = rto_initial
        self.rto_max = rto_max
        self.max_retries = max_retries
        self.dup_ack_threshold = dup_ack_threshold
        self.ack_delay = ack_delay
        self.cwnd_initial = cwnd_initial
        self.recv_window = recv_window
        self.batch_bytes = batch_bytes
        #: Bytes a packet is charged on top of its payload, by the flow
        #: accounting here exactly as by the datagram layer's latency.
        self.overhead = HEADER_OVERHEAD
        self.closed = False
        self.stats = EndpointStats()
        #: ref or name -> (deliver, the address it was registered under).
        self._inboxes: dict["int | str", tuple[DeliverFn, InboxAddress]] = {}
        self._backlogs: dict["int | str", BacklogFn] = {}
        self._send_streams: dict[tuple[NodeAddress, str], ReliableSender] = {}
        self._recv_streams: dict[tuple[NodeAddress, str],
                                 ReliableReceiver] = {}
        #: The same receive streams per source node, in creation order:
        #: what :meth:`piggyback` walks instead of every node's streams.
        self._recv_from: dict[NodeAddress, list[ReliableReceiver]] = {}
        #: Creation rank -> receive stream whose advertised window is
        #: pinched (``ReliableReceiver.pinched``): the only streams
        #: :meth:`inbox_drained` can have a window update for.
        self._pinched: dict[int, ReliableReceiver] = {}
        self._unreliable_out = FreshSender(self)
        self._unreliable_in = FreshReceiver(self)
        #: UNRELIABLE: next sequence stamp per (destination node, channel).
        self._unreliable_seq = self._unreliable_out.next_seq
        self._rto_cache: dict[str, float] = {}
        #: Per source node: how many receive streams owe it an ACK, so
        #: the DATA fast path skips the piggyback scan when none does.
        self._acks_owed: dict[NodeAddress, int] = {}
        #: ``writable`` events parked per (destination node, channel).
        self._waiters: dict[tuple[NodeAddress, str], list[Event]] = {}
        network.register(address, self._on_datagram)

    def close(self) -> None:
        """Detach from the network (in-flight datagrams to us are lost).

        Every stream's due times are dropped (a closed endpoint injects
        no further datagrams) and every outstanding delivery receipt —
        queued behind a closed window or already in flight — fails with
        :class:`DeliveryTimeout`: once we stop listening, no
        acknowledgement can ever confirm them. Blocked window waiters
        (:meth:`writable`) fail with :class:`AddressError`, so a process
        parked in ``Outbox.send_flow`` is released promptly instead of
        hanging on a window that will never reopen.
        """
        if self.closed:
            return
        self.closed = True
        tr = self.kernel.tracer
        if tr is not None:
            tr.emit("ep", "close", node=self.address,
                    unacked=sum(len(s.unacked)
                                for s in self._send_streams.values()))
        self.network.unregister(self.address)
        for (node, channel), stream in self._send_streams.items():
            stream.abort(f"endpoint {self.address} closed with message on "
                         f"channel {channel!r} to {node} unacknowledged")
            for ev in self._waiters.pop((node, channel), ()):
                ev.fail(AddressError(
                    f"endpoint {self.address} closed while channel "
                    f"{channel!r} to {node} was blocked on its window"))
                ev.defused = True
        for stream in self._recv_streams.values():
            stream.ack_pending = stream.pinched = False
        self._acks_owed.clear()
        self._pinched.clear()

    # -- inbox registry ---------------------------------------------------

    def register_inbox(self, ref: int, deliver: DeliverFn,
                       name: str | None = None,
                       backlog: BacklogFn | None = None) -> None:
        """Register delivery for local inbox ``ref`` and optional ``name``.

        ``backlog`` reports the inbox's queued bytes; the receive window
        advertised to senders addressing this inbox subtracts it from
        ``recv_window``. Without it the inbox counts as always-empty.
        """
        if ref in self._inboxes:
            raise AddressError(f"inbox ref {ref} already registered on {self.address}")
        if name is not None and name in self._inboxes:
            raise AddressError(
                f"inbox name {name!r} already registered on {self.address}")
        for key in (ref,) if name is None else (ref, name):
            self._inboxes[key] = (deliver, InboxAddress(self.address, key))
            if backlog is not None:
                self._backlogs[key] = backlog

    def unregister_inbox(self, ref: int, name: str | None = None) -> None:
        for key in (ref, name):
            self._inboxes.pop(key, None)
            self._backlogs.pop(key, None)

    # -- sending ----------------------------------------------------------

    def send(self, dst: InboxAddress, payload: str, channel: str,
             timeout: float | None = None, *, delivery: str | None = None,
             skip_timeout: float | None = None) -> DeliveryReceipt | None:
        """Send ``payload`` to ``dst`` on channel ``channel``.

        ``delivery`` is the message's class (see
        :mod:`repro.net.delivery`): an outbox passes its own, and
        ``None`` means RELIABLE. There is no endpoint-wide default, so
        one endpoint's channels never inherit a class they did not
        choose. Reliable-class sends (RELIABLE and RELIABLE_SKIP)
        return a :class:`DeliveryReceipt`; UNRELIABLE sends return
        ``None`` (and reject ``timeout``, which cannot be honoured
        without acknowledgements). A closed endpoint rejects all sends.

        A reliable-class packet may be *queued* rather than transmitted
        when bytes-in-flight have reached ``min(cwnd, rwnd)``; ``send``
        itself never blocks. Cooperative senders gate on
        :meth:`writable` (or use ``Outbox.send_flow``) to keep their
        queue bounded. UNRELIABLE sends bypass the window entirely and
        always go straight out.
        """
        if self.closed:
            raise AddressError(f"endpoint {self.address} is closed")
        cls = RELIABLE if delivery is None else validate_delivery(delivery)
        # Frame-ceiling check, identical on every substrate: a payload
        # that cannot fit one frame even unbatched must fail *here*
        # (typed, at send time) rather than blow up in the UDP encoder
        # while sailing through the in-memory simulator.
        wire_len = utf8_len(payload)
        if cls == UNRELIABLE:
            if timeout is not None:
                raise ValueError("delivery timeout requires a reliable endpoint")
            frame_size = (frame_base_size(self.address, dst.node, channel)
                          + ref_wire_size(dst.ref) + wire_len
                          + DATA_FIXED_SIZE)
            if frame_size > MAX_FRAME_BYTES:
                raise payload_too_large(frame_size)
            self._unreliable_out.send(self.kernel.now, dst, channel, payload)
            return None
        hold = None
        if cls == RELIABLE_SKIP:
            hold = self.skip_timeout if skip_timeout is None else skip_timeout
            if hold <= 0:
                raise ValueError("skip_timeout must be > 0")
        key = (dst.node, channel)
        stream = self._send_streams.get(key)
        if stream is None:
            stream = self._send_streams[key] = ReliableSender(
                self, dst.node, channel, self._pick_rto(dst.node),
                float(self.cwnd_initial))
        receipt = DeliveryReceipt(self.kernel, dst)
        frame_size = (stream.frame_base + ref_wire_size(dst.ref) + wire_len
                      + DATA_FIXED_SIZE)
        if frame_size > MAX_FRAME_BYTES:
            # Failed before a sequence number is allocated, so the FIFO
            # stream is not holed by the rejected payload.
            tr = self.kernel.tracer
            if tr is not None:
                tr.emit("ep", "too_large", node=self.address, ch=channel,
                        size=frame_size)
            receipt._fail(payload_too_large(frame_size))
            return receipt
        # The receipt's clock reading is the send's ``now``.
        stream.send(receipt.sent_at, dst.ref, payload, wire_len, receipt,
                    timeout, hold)
        self._arm(stream)
        return receipt

    def writable(self, dst_node: NodeAddress, channel: str) -> Event:
        """An event firing when the channel accepts a new send.

        Fires immediately when nothing is queued behind a closed window
        (including when the stream does not exist yet, or the channel is
        broken — a subsequent ``send`` then fails fast rather than
        queueing). While sends are queued, the event fires when the
        queue drains. Fails with :class:`AddressError` if the endpoint
        closes first, so blocked senders are released promptly.
        """
        ev = self.kernel.event()
        if self.closed:
            ev.fail(AddressError(f"endpoint {self.address} is closed"))
            ev.defused = True
            return ev
        stream = self._send_streams.get((dst_node, channel))
        if stream is None or stream.broken or not stream.queued:
            ev.succeed(None)
        else:
            self._waiters.setdefault((dst_node, channel), []).append(ev)
        return ev

    def forget_broken(self, dst_node: NodeAddress, channel: str) -> None:
        """Drop the send stream of a channel its owner will never send
        on again, if it is broken: nothing is outstanding on it, and a
        late ACK for it finds no stream and is ignored. A healthy stream
        stays — it may still owe retransmissions."""
        stream = self._send_streams.get((dst_node, channel))
        if stream is not None and stream.broken:
            del self._send_streams[dst_node, channel]

    def _pick_rto(self, dst: NodeAddress) -> float:
        if self.rto_initial is not None:
            return self.rto_initial
        cached = self._rto_cache.get(dst.host)
        if cached is None:
            # A service need not offer a latency model; one that does is
            # trusted, and whatever it raises propagates.
            latency = getattr(self.network, "latency", None)
            mean = (0.05 if latency is None
                    else latency.mean_estimate(self.address.host, dst.host))
            cached = max(4.0 * mean, 0.02)
            self._rto_cache[dst.host] = cached
        return cached

    # -- what the stream machines ask of their host ---------------------------

    @property
    def tracer(self):
        return self.kernel.tracer

    def emit(self, dst: NodeAddress, header: dict, payload: str = "",
             parts: "tuple[str, ...] | None" = None) -> None:
        self.network.send(Datagram(self.address, dst, header, payload, parts))

    def route(self, to_ref: "int | str"
              ) -> "tuple[DeliverFn, InboxAddress] | None":
        route = self._inboxes.get(to_ref)
        if route is None:
            self.stats.no_such_inbox += 1
            tr = self.kernel.tracer
            if tr is not None:
                tr.emit("ep", "no_inbox", node=self.address, to=to_ref)
        return route

    def backlog(self, to_ref: "int | str | None") -> int:
        backlog_fn = self._backlogs.get(to_ref)
        return 0 if backlog_fn is None else backlog_fn()

    def ack_owed(self, node: NodeAddress, delta: int) -> None:
        owed = self._acks_owed.get(node, 0) + delta
        if owed > 0:
            self._acks_owed[node] = owed
        else:
            self._acks_owed.pop(node, None)

    def piggyback(self, dst_node: NodeAddress, budget: int,
                  now: float) -> list[dict]:
        """Fold the ACKs owed to ``dst_node`` into an outgoing DATA
        datagram (an ACK datagram saved per entry).

        ``budget`` caps the collected packs' wire size so the carrying
        frame stays under ``MAX_FRAME_BYTES``; an entry that does not
        fit stays owed (its delayed-ack wake — or the next outgoing
        frame — still flushes it). The ``_acks_owed`` index makes the
        common nothing-owed case O(1), and ``_recv_from`` bounds the
        rest by the channels from ``dst_node``, not by every receive
        stream of the node."""
        packs: list[dict] = []
        if not self._acks_owed.get(dst_node):
            return packs
        for stream in self._recv_from[dst_node]:
            if not stream.ack_pending:
                continue
            channel = stream.channel
            fields = stream.ack_fields()
            cost = pack_entry_wire_size(channel, fields)
            if cost > budget:
                continue
            budget -= cost
            packs.append({"ch": channel, **fields})
            self.stats.acks_piggybacked += 1
            stream.ack_leaves(now, fields, "piggyback")
        return packs

    def window_pinched(self, stream: ReliableReceiver,
                       pinched: bool) -> None:
        if pinched:
            self._pinched[stream.order] = stream
        else:
            del self._pinched[stream.order]

    def drained(self, stream: ReliableSender) -> None:
        for ev in self._waiters.pop((stream.peer, stream.channel), ()):
            ev.succeed(None)

    # -- the wake timer -------------------------------------------------------

    def _arm(self, half: "ReliableSender | ReliableReceiver") -> None:
        """Keep one live timer per stream half, at its ``wake_at``.

        The scheduler has no cancel, so a superseded timer still fires;
        it finds ``wake_armed`` no longer names its due time and does
        nothing. A timer armed earlier than ``wake_at`` is left alone:
        it wakes the half with nothing due and re-arms from there."""
        due = half.wake_at
        if due is None or (half.wake_armed is not None
                           and half.wake_armed <= due):
            return
        half.wake_armed = due

        def wake() -> None:
            if half.wake_armed != due or self.closed:
                return
            half.wake_armed = None
            # A timer may fire a clock tick early; the agenda still says
            # ``due``, so that is the time the half is told.
            half.on_wake(max(self.kernel.now, due))
            self._arm(half)

        self.kernel.call_later(max(0.0, due - self.kernel.now), wake)

    # -- receiving ----------------------------------------------------------

    def _receiver(self, src: NodeAddress, channel: str) -> ReliableReceiver:
        stream = self._recv_streams.get((src, channel))
        if stream is None:
            stream = self._recv_streams[src, channel] = ReliableReceiver(
                self, src, channel, len(self._recv_streams))
            self._recv_from.setdefault(src, []).append(stream)
        return stream

    def _on_datagram(self, datagram) -> None:
        header = datagram.header
        kind = header.get("kind")
        src = datagram.src
        now = self.kernel.now
        if kind == KIND_DATA:
            if header.get("cls") == UNRELIABLE:
                self._unreliable_in.on_data(now, src, header,
                                            datagram.payload)
                return
            for pack in header.get("pack", ()):
                self._on_ack(now, src, pack)
            stream = self._receiver(src, header["ch"])
            stream.on_data(now, header, datagram.payload,
                           datagram.parts_payloads)
            self._arm(stream)
        elif kind == KIND_ACK:
            self._on_ack(now, src, header)
        elif kind == KIND_PROBE:
            self._receiver(src, header["ch"]).on_probe(now)
        elif kind == KIND_SKIP:
            self._receiver(src, header["ch"]).on_skip(now, header["upto"])

    def _on_ack(self, now: float, src: NodeAddress, fields: dict) -> None:
        stream = self._send_streams.get((src, fields["ch"]))
        if stream is not None:
            stream.on_ack(now, fields)
            self._arm(stream)

    def inbox_drained(self, ref: "int | str",
                      name: "str | None" = None) -> None:
        """Called by an inbox when a message leaves its queue: freed
        receive budget may warrant a window update — an unsolicited ACK
        re-advertising the window, sent only when it matters (see
        :meth:`ReliableReceiver.window_update`), so fast-draining
        inboxes cost no extra ACK traffic. Only a pinched stream can
        have one, so the cost is independent of how many peers have ever
        sent here — and nil while no window is pinched."""
        if self.closed or not self._pinched:
            return
        targets = {ref} if name is None else {ref, name}
        now = self.kernel.now
        # Creation order; a snapshot, because an update that re-opens
        # the window takes its stream out of the index.
        for _, stream in sorted(self._pinched.items()):
            if stream.last_to in targets:
                stream.window_update(now)
