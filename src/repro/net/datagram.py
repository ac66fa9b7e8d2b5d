"""The unreliable datagram service (the simulated "UDP").

"The initial implementation uses UDP" — this module is that bottom
layer: best-effort, unordered, at-most-once-per-copy delivery of
datagrams between registered node addresses, with latency drawn from a
:class:`~repro.net.latency.LatencyModel` and faults injected by a
:class:`~repro.net.faults.FaultPlan`. Everything above it (the FIFO
ordering layer, inboxes, sessions) must cope with what this layer does,
exactly as the paper's layer copes with real UDP.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Any, Callable

from repro.errors import AddressError
from repro.net.address import NodeAddress
from repro.net.faults import FaultPlan
from repro.net.latency import ConstantLatency, LatencyModel
from repro.obs.metrics import Counters
from repro.sim.kernel import Kernel, SchedulerCore

#: Fixed per-datagram header overhead charged to the latency model, in
#: bytes (stands in for UDP/IP headers plus our layer's framing).
HEADER_OVERHEAD = 64


@dataclass(frozen=True, slots=True)
class Datagram:
    """One datagram on the wire.

    ``header`` carries the ordering layer's framing — ``DATA {kind, to,
    ch, seq, ts, pack?, parts?}`` or ``ACK {kind, ch, cum, ets, sack?,
    rwnd?}``; see ``docs/PROTOCOLS.md`` for the field glossary. ``payload`` is the serialized message string.
    ``size`` in bytes drives transmission delay in size-aware latency
    models.

    A batched DATA frame (``parts`` in the header) carries its payload
    strings as ``parts_payloads`` (``payload`` stays ``""``): the binary
    codec writes each string into the frame exactly once — no
    intermediate batch document on any substrate.
    """

    src: NodeAddress
    dst: NodeAddress
    header: dict[str, Any]
    payload: str
    parts_payloads: "tuple[str, ...] | None" = None

    @property
    def size(self) -> int:
        if self.parts_payloads is not None:
            return HEADER_OVERHEAD + sum(map(len, self.parts_payloads))
        return HEADER_OVERHEAD + len(self.payload)


class NetworkStats(Counters):
    """Counters kept by the datagram network (glossary:
    ``docs/OBSERVABILITY.md``)."""

    layer = "net"
    __slots__ = ("sent", "delivered", "dropped", "duplicated",
                 "undeliverable", "bytes_sent", "bytes_delivered",
                 "bad_frames")


# Down here because the codec builds Datagrams: wire.py imports the class
# above from this module, so it can only load once that exists.
from repro.net.wire import FrameError, decode_frame, encode_frame  # noqa: E402


#: A link's named random streams, in the order of its entry in
#: ``DatagramFrontEnd._links``.
_LINK_STREAMS = ("faults", "latency")


class _Unseeded:
    """Stands in for one of a link's named random streams until it draws.

    A constant latency or an empty fault plan never draws, and a
    ``Random`` costs 2.5 KiB, so an idle link should not hold one. The
    first method looked up here (``random``, ``uniform``, ``gauss``, ...)
    fetches the named stream, puts it in the link's entry in this
    stand-in's place, and answers from it: every later datagram on the
    link is handed the generator itself, with nothing in between.
    """

    __slots__ = ("_front", "_link", "_slot")

    def __init__(self, front: "DatagramFrontEnd",
                 link: tuple[NodeAddress, NodeAddress], slot: int) -> None:
        self._front = front
        self._link = link
        self._slot = slot

    def __getattr__(self, attr: str) -> Any:
        front, (src, dst), slot = self._front, self._link, self._slot
        stream = front.kernel.rng.get(f"net/{src}->{dst}/{_LINK_STREAMS[slot]}")
        front._links[self._link][slot] = stream
        return getattr(stream, attr)


class DatagramFrontEnd:
    """What every datagram substrate does around its carrier.

    Membership, the counters, the wire taps, the ``net`` trace events and
    the fault draw are the same whether a datagram then rides a kernel
    timer or a UDP socket: :meth:`_admit` on the way out,
    :meth:`_deliver_bytes` / :meth:`_deliver` on the way in.
    :class:`DatagramNetwork` and
    :class:`repro.runtime.aio.UdpDatagramService` add only the carrier.
    """

    def __init__(self, kernel: SchedulerCore,
                 faults: FaultPlan | None) -> None:
        self.kernel = kernel
        self.faults = faults if faults is not None else FaultPlan()
        self.stats = NetworkStats()
        self._handlers: dict[NodeAddress, Callable[[Datagram], None]] = {}
        #: (src, dst) -> ``[fault stream, latency stream, dst label]``:
        #: the trace's ``dst`` label is formatted once per link, and each
        #: stream is an :class:`_Unseeded` stand-in until its first draw.
        self._links: dict[tuple[NodeAddress, NodeAddress],
                          list[Any]] = {}
        #: Taps observing every datagram put on the wire (testing aid).
        self.wire_taps: list[Callable[[float, Datagram], None]] = []

    # -- membership -----------------------------------------------------

    def register(self, address: NodeAddress,
                 handler: Callable[[Datagram], None]) -> None:
        """Attach ``handler`` to ``address``. The address must be free."""
        if address in self._handlers:
            raise AddressError(f"address {address} is already registered")
        self._handlers[address] = handler

    def unregister(self, address: NodeAddress) -> None:
        self._handlers.pop(address, None)

    def is_registered(self, address: NodeAddress) -> bool:
        return address in self._handlers

    # -- on the way out ---------------------------------------------------

    def _admit(self, datagram: Datagram
               ) -> "tuple[list[float], Random | _Unseeded]":
        """Count, tap and trace one outgoing datagram and draw its fate.

        Returns the extra delay of each copy the fault plan lets through
        (none: dropped; several: duplicated) and the link's latency
        stream. Same plan, same named streams, same draws on every
        substrate, so loss-recovery scenarios translate verbatim. A
        stream is created at its first draw, not at the link's first
        datagram: it is seeded by its name, so the draws are the same.
        """
        self.stats.sent += 1
        self.stats.bytes_sent += datagram.size
        for tap in self.wire_taps:
            tap(self.kernel.now, datagram)
        link = (datagram.src, datagram.dst)
        entry = self._links.get(link)
        if entry is None:
            entry = self._links[link] = [_Unseeded(self, link, 0),
                                         _Unseeded(self, link, 1),
                                         str(datagram.dst)]
        fault_rng, latency_rng, dst = entry
        tr = self.kernel.tracer
        header = datagram.header
        if tr is not None:
            parts = header.get("parts")
            tr.emit("net", "send", node=datagram.src, dst=dst,
                    kind=header.get("kind"), ch=header.get("ch"),
                    seq=header.get("seq"), size=datagram.size,
                    **({"n": len(parts)} if parts else {}))
        extra_delays = self.faults.copies(fault_rng, datagram.src,
                                          datagram.dst, datagram)
        fate = None
        if not extra_delays:
            self.stats.dropped += 1
            fate = "drop"
        elif len(extra_delays) > 1:
            self.stats.duplicated += 1
            fate = "dup"
        if fate is not None and tr is not None:
            tr.emit("net", fate, node=datagram.src, dst=dst,
                    kind=header.get("kind"), ch=header.get("ch"),
                    seq=header.get("seq"))
        return extra_delays, latency_rng

    # -- on the way in ------------------------------------------------------

    def _deliver_bytes(self, data: bytes) -> None:
        """Decode one wire copy and deliver it; a bad frame is dropped
        with a counter and a ``net`` trace event, never raised."""
        try:
            datagram = decode_frame(data)
        except FrameError as exc:
            self.stats.bad_frames += 1
            tr = self.kernel.tracer
            if tr is not None:
                tr.emit("net", "bad_frame", size=len(data), err=str(exc))
            return
        self._deliver(datagram)

    def _deliver(self, datagram: Datagram) -> None:
        handler = self._handlers.get(datagram.dst)
        if handler is None:
            self._undeliverable(datagram)
            return
        self.stats.delivered += 1
        self.stats.bytes_delivered += datagram.size
        tr = self.kernel.tracer
        if tr is not None:
            header = datagram.header
            parts = header.get("parts")
            tr.emit("net", "deliver", node=datagram.dst,
                    src=str(datagram.src), kind=header.get("kind"),
                    ch=header.get("ch"), seq=header.get("seq"),
                    size=datagram.size,
                    **({"n": len(parts)} if parts else {}))
        handler(datagram)

    def _undeliverable(self, datagram: Datagram) -> None:
        """Nobody there: drop silently (as UDP does), counted and traced."""
        self.stats.undeliverable += 1
        tr = self.kernel.tracer
        if tr is not None:
            tr.emit("net", "undeliverable", node=datagram.dst,
                    src=str(datagram.src), kind=datagram.header.get("kind"))


class DatagramNetwork(DatagramFrontEnd):
    """Best-effort datagram delivery between registered nodes.

    One instance models the whole internetwork of a run. Nodes register
    a handler for their address; ``send`` applies the fault plan, draws a
    latency per surviving copy, and schedules handler invocation on the
    kernel. Sending to an unregistered address silently drops the
    datagram (as UDP does), counted in ``stats.undeliverable``.

    ``encoded=True`` (opt-in) round-trips every surviving datagram
    through the binary wire codec (:mod:`repro.net.wire`) at the same
    boundaries the real UDP substrate does — encode once at send, decode
    per delivered copy, bad frames dropped and counted — so a
    deterministic simulated run can prove sim/asyncio byte-parity (the
    golden trace corpus runs identically in both modes).
    """

    def __init__(self, kernel: Kernel, *,
                 latency: LatencyModel | None = None,
                 faults: FaultPlan | None = None,
                 encoded: bool = False) -> None:
        super().__init__(kernel, faults)
        self.latency = latency if latency is not None else ConstantLatency(0.05)
        self.encoded = encoded

    def send(self, datagram: Datagram) -> None:
        """Fire-and-forget transmission of one datagram."""
        extra_delays, lat_rng = self._admit(datagram)
        if not extra_delays:
            return
        if self.encoded:
            # Same boundary as the UDP substrate: one encode per send,
            # one decode per delivered copy.
            deliver, copy = self._deliver_bytes, encode_frame(datagram)
        else:
            deliver, copy = self._deliver, datagram
        for extra in extra_delays:
            delay = extra + self.latency.sample(
                lat_rng, datagram.src.host, datagram.dst.host, datagram.size)
            self.kernel.call_later(delay, lambda: deliver(copy))
