"""The real substrate: asyncio event loop + real UDP sockets.

The paper's layer ran over UDP on the real Internet between Caltech,
Rice, Tennessee and Australia. :class:`AsyncioSubstrate` is that
deployment mode for this reproduction: the same generator processes,
events, endpoints, mailboxes and dapplets run unmodified, but ``now`` is
wall-clock time, timers are asyncio timers, and every
:class:`~repro.net.datagram.Datagram` is encoded by
:mod:`repro.net.wire` and put on a real UDP socket.

Scheduling semantics are the kernel's, by construction: both inherit
:class:`~repro.sim.kernel.SchedulerCore`, so an event is *triggered*
(``succeed``/``fail``), then processed by the one ``_fire`` — here in a
loop callback — and an unhandled failed event aborts the run with
:class:`~repro.errors.ProcessCrashed`. Same-instant events (zero delay)
are FIFO, as on the kernel: they join a queue the substrate owns, which
the loop callback that filled it (a datagram arrival, a timer) drains in
scheduling order before returning, so a request–reply hop costs one loop
pass rather than one asyncio timer and one ``select()`` per event. A
drain yields to the loop after :data:`DRAIN_SLICE` seconds, so
``wall_timeout`` and ``until=<float>`` still fire under a zero-delay
livelock. What changes is only what must: time is real, so events with
a delay are asyncio timers and interleave with arrivals as the OS
delivers them, and quiescence is a heuristic (an idle grace window)
because real packets are invisible until they arrive.

:class:`UdpDatagramService` keeps a local route table from virtual node
addresses (``host:port`` in paper terms) to the real socket addresses
they are bound to. In-process nodes are routed automatically on
``register``; peers in other processes can be wired in with
:meth:`UdpDatagramService.add_route`. Counters, wire taps, ``net`` trace
events and fault injection (an optional
:class:`~repro.net.faults.FaultPlan`: same plan object, same named RNG
streams as the simulated network) are the shared
:class:`~repro.net.datagram.DatagramFrontEnd`, so loss-recovery
behaviour is testable on real sockets.
"""

from __future__ import annotations

import asyncio
import socket
import time
from collections import deque
from typing import Any, Callable

from repro.errors import SimulationError
from repro.net.address import NodeAddress
from repro.net.datagram import Datagram, DatagramFrontEnd
from repro.net.faults import FaultPlan
from repro.net.latency import ConstantLatency
from repro.net.wire import encode_frame
from repro.sim.events import Event
from repro.sim.kernel import SchedulerCore

#: Assumed one-way loopback delay; only used to size initial RTOs.
LOOPBACK_LATENCY_HINT = 0.005

#: Wall seconds one drain of the same-instant queue may run before it
#: yields to the loop (and to ``run``'s deadlines) and resumes next pass.
DRAIN_SLICE = 0.002

_monotonic = time.monotonic


class AsyncioSubstrate(SchedulerCore):
    """Wall-clock substrate over an asyncio event loop and UDP sockets.

    Events with a delay are asyncio timers; same-instant events run FIFO
    from the substrate's own queue, drained at the end of the loop
    callback that filled it — within a drain, in the kernel's order.
    Quiescence (``run()`` with no ``until``) is still a heuristic.

    Parameters
    ----------
    seed:
        Root seed for :attr:`rng` (application randomness and fault
        injection stay reproducible even though packet timing is not).
    bind_host:
        Real interface the per-node sockets bind to (default loopback).
    faults:
        Optional :class:`FaultPlan` applied to outgoing datagrams —
        deliberate loss/duplication/jitter for tests and demos.
    loop:
        An existing event loop to schedule on; a fresh one is created
        (and owned, i.e. closed by :meth:`close`) when omitted.
    """

    def __init__(self, seed: int = 0, *, bind_host: str = "127.0.0.1",
                 faults: FaultPlan | None = None,
                 loop: asyncio.AbstractEventLoop | None = None) -> None:
        super().__init__(seed)
        self._loop = loop if loop is not None else asyncio.new_event_loop()
        self._owns_loop = loop is None
        self._epoch = self._loop.time()
        self._pending = 0
        self._crash: BaseException | None = None
        self._run_future: asyncio.Future | None = None
        self._quiescing = False
        self._idle_grace = 0.05
        self.closed = False
        #: Armed timer handles, cancelled by :meth:`close` so a closed
        #: substrate never leaks timers into a caller-owned loop.
        self._handles: set[asyncio.TimerHandle] = set()
        #: Same-instant events in scheduling order, and the ``call_soon``
        #: that drains them when no draining callback is running.
        self._ready: deque[Event] = deque()
        self._drain_handle: asyncio.Handle | None = None
        self._draining = False
        #: The datagram half of the substrate.
        self.datagrams = UdpDatagramService(self, bind_host=bind_host,
                                            faults=faults)

    # -- clock -----------------------------------------------------------

    @property
    def now(self) -> float:
        """Seconds of wall-clock time since this substrate was created."""
        return self._loop.time() - self._epoch

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        return self._loop

    # -- scheduling ------------------------------------------------------

    def _enqueue(self, event: Event, delay: float) -> None:
        if self.closed:
            # Teardown race: layers above may still trigger events while
            # shutting down (e.g. Endpoint.close failing receipts after
            # the substrate was closed). The loop may already be gone;
            # dropping the schedule is correct — nothing runs a closed
            # substrate, and the events' values stay readable.
            return
        self._pending += 1
        tr = self.tracer
        if tr is not None:
            tr.emit("kernel", "schedule", at=self.now + delay,
                    kind=type(event).__name__)
        if delay <= 0:
            self._ready.append(event)
            if not self._draining and self._drain_handle is None:
                self._drain_handle = self._loop.call_soon(self._drain_soon)
            return
        handle: asyncio.TimerHandle | None = None

        def run() -> None:
            self._handles.discard(handle)
            # Behind any same-instant work still queued: it is older.
            self._ready.append(event)
            self._drain()

        handle = self._loop.call_later(delay, run)
        self._handles.add(handle)

    def _drain(self) -> None:
        """Process queued same-instant events in scheduling order — and
        any they trigger — until none is left, the running ``run()`` has
        its result, or :data:`DRAIN_SLICE` is spent; the rest resumes on
        the next loop pass."""
        ready, fut = self._ready, self._run_future
        process = self._process_event
        deadline = _monotonic() + DRAIN_SLICE
        self._draining = True
        try:
            while ready and not (fut is not None and fut.done()):
                process(ready.popleft())
                if _monotonic() > deadline:
                    break
        finally:
            self._draining = False
        if ready and self._drain_handle is None:
            self._drain_handle = self._loop.call_soon(self._drain_soon)

    def _drain_soon(self) -> None:
        self._drain_handle = None
        self._drain()

    # -- the loop --------------------------------------------------------

    def _process_event(self, event: Event) -> None:
        self._pending -= 1
        if self._crash is not None:
            return
        try:
            self._fire(event)
        except BaseException as exc:  # noqa: BLE001 - surfaced to run()
            self._report_crash(exc)
            return
        self._maybe_quiesce()

    def _report_crash(self, exc: BaseException) -> None:
        if self._crash is None:
            self._crash = exc
        fut = self._run_future
        if fut is not None and not fut.done():
            fut.set_exception(self._crash)

    def _maybe_quiesce(self) -> None:
        if not self._quiescing or self._pending > 0:
            return
        fut = self._run_future
        if fut is None or fut.done():
            return

        def check() -> None:
            if (self._quiescing and self._pending == 0
                    and fut is self._run_future and not fut.done()):
                fut.set_result(None)

        # Grace window: a datagram already in the OS buffer (invisible
        # to the scheduler) gets a chance to arrive and re-arm work.
        self._loop.call_later(self._idle_grace, check)

    def run(self, until: "float | Event | None" = None, *,
            wall_timeout: float | None = None,
            idle_grace: float = 0.05) -> Any:
        """Drive the event loop (kernel-compatible signature).

        ``until`` may be ``None`` (run until the scheduler has been idle
        for ``idle_grace`` seconds — a heuristic for quiescence, since
        in-flight real packets cannot be seen), a number (run until that
        many seconds since substrate creation), or an :class:`Event`
        (run until it fires, then return its value or raise its
        exception). ``wall_timeout`` bounds the whole call, failing it
        with :class:`SimulationError` on expiry so a lost packet or a
        wedged peer can never hang the caller forever.
        """
        if self._crash is not None:
            raise self._crash
        if self.closed:
            raise SimulationError("substrate is closed")
        loop = self._loop
        fut: asyncio.Future = loop.create_future()
        result_of_event = False
        target: Event | None = None
        deadline_handle = None

        if isinstance(until, Event):
            target = until
            result_of_event = True
            if target.processed:
                if target.ok:
                    return target.value
                target.defused = True
                raise target.value

            def _capture(ev: Event) -> None:
                ev.defused = True
                if not fut.done():
                    if ev.ok:
                        fut.set_result(ev.value)
                    else:
                        fut.set_exception(ev.value)

            target.callbacks.append(_capture)
        elif until is None:
            self._quiescing = True
            self._idle_grace = idle_grace
        else:
            deadline = float(until)
            if deadline < self.now:
                raise ValueError(
                    f"until={deadline} is in the past (now={self.now})")
            deadline_handle = loop.call_later(
                deadline - self.now,
                lambda: fut.done() or fut.set_result(None))

        timeout_handle = None
        if wall_timeout is not None:
            timeout_handle = loop.call_later(
                wall_timeout,
                lambda: fut.done() or fut.set_exception(SimulationError(
                    f"run() exceeded wall_timeout={wall_timeout}s at "
                    f"t={self.now:.6f}; {self.active_process_count} "
                    "process(es) still alive")))

        self._run_future = fut
        try:
            if until is None:
                self._maybe_quiesce()
            result = loop.run_until_complete(fut)
            return result if result_of_event else None
        finally:
            self._run_future = None
            self._quiescing = False
            if timeout_handle is not None:
                timeout_handle.cancel()
            if deadline_handle is not None:
                deadline_handle.cancel()
            if target is not None and not target.processed \
                    and target.callbacks is not None:
                # A timed-out wait must not leave the capture armed.
                target.callbacks[:] = [cb for cb in target.callbacks
                                       if cb is not _capture]

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Close every socket (and the loop, when owned). Idempotent."""
        if self.closed:
            return
        self.closed = True
        self.datagrams._close()
        # Disarm every outstanding timer: a closed substrate must not
        # keep firing retransmissions or delayed acks into a loop the
        # caller still owns.
        for handle in self._handles:
            handle.cancel()
        self._handles.clear()
        if self._drain_handle is not None:
            self._drain_handle.cancel()
            self._drain_handle = None
        self._ready.clear()
        self._pending = 0
        if self._owns_loop and not self._loop.is_closed():
            self._loop.close()

    def __enter__(self) -> "AsyncioSubstrate":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<AsyncioSubstrate t={self.now:.6f} pending={self._pending} "
                f"processes={len(self._processes)}>")


class UdpDatagramService(DatagramFrontEnd):
    """Real UDP datagram delivery between registered node addresses.

    Implements the same :class:`~repro.runtime.substrate.DatagramService`
    contract as the simulated :class:`~repro.net.datagram.DatagramNetwork`
    — best-effort, unordered, silent loss — around the same
    :class:`~repro.net.datagram.DatagramFrontEnd`; the carrier is a
    non-blocking UDP socket per registered node on ``bind_host``. Frames
    carry the virtual source/destination addresses (see
    :mod:`repro.net.wire`), so node identity is independent of the
    ephemeral port the OS assigns.
    """

    def __init__(self, substrate: AsyncioSubstrate, *,
                 bind_host: str = "127.0.0.1",
                 faults: FaultPlan | None = None) -> None:
        super().__init__(substrate, faults)
        self.substrate = substrate
        self.bind_host = bind_host
        #: RTO-sizing hint only — real packets move at real speed.
        self.latency = ConstantLatency(LOOPBACK_LATENCY_HINT)
        self._socks: dict[NodeAddress, socket.socket] = {}
        self._routes: dict[NodeAddress, tuple[str, int]] = {}
        self._tx_sock: socket.socket | None = None

    # -- membership -----------------------------------------------------

    def register(self, address: NodeAddress,
                 handler: Callable[[Datagram], None]) -> None:
        """Bind a real UDP socket for ``address`` and attach ``handler``."""
        super().register(address, handler)
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind((self.bind_host, 0))
        sock.setblocking(False)
        self._socks[address] = sock
        self._routes[address] = sock.getsockname()
        self.substrate.loop.add_reader(sock.fileno(), self._on_readable, sock)

    def unregister(self, address: NodeAddress) -> None:
        super().unregister(address)
        sock = self._socks.pop(address, None)
        self._routes.pop(address, None)
        if sock is not None:
            self.substrate.loop.remove_reader(sock.fileno())
            sock.close()

    def add_route(self, address: NodeAddress,
                  real_address: tuple[str, int]) -> None:
        """Route a *remote* virtual node to its real ``(host, port)``.

        In-process nodes are routed automatically; this wires up peers
        living in other processes or on other machines.
        """
        self._routes[address] = real_address

    def real_address(self, address: NodeAddress) -> tuple[str, int]:
        """The real socket address a registered node is bound to."""
        return self._routes[address]

    # -- sending --------------------------------------------------------

    def send(self, datagram: Datagram) -> None:
        """Fire-and-forget transmission of one datagram."""
        extra_delays, _ = self._admit(datagram)
        if not extra_delays:
            return
        # The route is looked up after the fault draw, where the
        # simulated network finds out nobody is there: a lost datagram to
        # nowhere counts as dropped on both.
        route = self._routes.get(datagram.dst)
        if route is None:
            self._undeliverable(datagram)
            return
        data = encode_frame(datagram)
        for extra in extra_delays:
            if extra <= 0:
                self._sendto(datagram.src, data, route)
            else:
                self.substrate.call_later(
                    extra, lambda: self._sendto(datagram.src, data, route))

    def _sendto(self, src: NodeAddress, data: bytes,
                route: tuple[str, int]) -> None:
        sock = self._socks.get(src)
        if sock is None:
            sock = self._shared_tx_sock()
        try:
            sock.sendto(data, route)
        except (BlockingIOError, OSError):
            self.stats.dropped += 1  # full buffer == congestion loss

    def _shared_tx_sock(self) -> socket.socket:
        if self._tx_sock is None:
            self._tx_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            self._tx_sock.setblocking(False)
        return self._tx_sock

    # -- receiving ------------------------------------------------------

    def _on_readable(self, sock: socket.socket) -> None:
        substrate = self.substrate
        recvfrom, deliver = sock.recvfrom, self._deliver_bytes
        # What the arrivals trigger runs below, in this same loop pass.
        substrate._draining = True
        while True:
            try:
                data, _peer = recvfrom(65536)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                break  # socket closed under us
            try:
                deliver(data)
            except BaseException as exc:  # noqa: BLE001 - kernel parity
                substrate._report_crash(exc)
                break
        substrate._drain()

    def _close(self) -> None:
        for address in list(self._socks):
            self.unregister(address)
        if self._tx_sock is not None:
            self._tx_sock.close()
            self._tx_sock = None
