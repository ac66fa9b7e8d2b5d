"""Inboxes.

The paper's inbox methods (§3.2):

* ``isEmpty()`` — :attr:`Inbox.is_empty`;
* ``awaitNonEmpty()`` — :meth:`Inbox.await_nonempty`, an event that
  fires as soon as the inbox holds a message;
* ``receive()`` — :meth:`Inbox.receive`, an event that fires with the
  message at the head of the inbox, removing it.

Each inbox has a global address (its dapplet's node address plus a local
integer reference) and optionally a string name ("a professor dapplet
may have inboxes called *students* and *grades*"); both forms address
the same queue.

Delivery hooks let services transform messages as they arrive — the
logical-clock service uses this to unwrap timestamps and advance the
receiver's clock (the global snapshot criterion) without the transport
knowing anything about clocks.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.errors import ReceiveTimeout, SerializationError
from repro.messages.message import Message
from repro.messages.serialize import loads
from repro.net.address import InboxAddress
from repro.net.endpoint import Endpoint
from repro.runtime.substrate import Scheduler
from repro.sim.events import Event

DeliveryHook = Callable[[Message], Message]

#: Byte charge for a locally injected message (``deliver_local`` with no
#: wire payload to measure): the per-datagram header overhead stands in.
LOCAL_MESSAGE_SIZE = 64


class Inbox:
    """A FIFO queue of received messages, globally addressable.

    The queue is one deque of ``(message, wire size, arrival instant)``
    entries: the sizes sum to :attr:`backlog_bytes` (the occupancy the
    endpoint's advertised receive window ``rwnd`` is derived from) and
    the instant gives each dequeue its own residence time, tracer or
    not. The deque is made at the first arrival: an inbox that never
    receives (most service inboxes of a plain dapplet) holds none.

    Pending receives wait in a plain list, served oldest first. It holds
    one entry per process parked on the inbox — one service loop, for
    nearly every inbox — and an empty or one-entry list costs a tenth of
    a deque.
    """

    def __init__(self, kernel: Scheduler, endpoint: Endpoint, ref: int,
                 name: str | None = None) -> None:
        self.kernel = kernel
        self.endpoint = endpoint
        self.ref = ref
        self.name = name
        self._entries: deque[tuple[Message, int, float]] | None = None
        self._takers: list[Event] = []
        self._drain_scheduled = False
        self.backlog_bytes = 0
        self._incoming_size: int | None = None
        self._nonempty_waiters: list[Event] = []
        #: Applied in order to every arriving message (may transform it).
        self.delivery_hooks: list[DeliveryHook] = []
        self.messages_received = 0
        #: Payloads that arrived but did not decode to a message; each is
        #: dropped (the transport has already acknowledged it).
        self.bad_payloads = 0
        self._closed = False
        endpoint.register_inbox(ref, self._deliver_wire, name=name,
                                backlog=lambda: self.backlog_bytes)

    # -- addressing ------------------------------------------------------

    @property
    def address(self) -> InboxAddress:
        """The global address using the integer local reference."""
        return InboxAddress(self.endpoint.address, self.ref)

    @property
    def named_address(self) -> InboxAddress:
        """The global address using the string name (requires a name)."""
        if self.name is None:
            raise ValueError(f"inbox {self.ref} has no string name")
        return InboxAddress(self.endpoint.address, self.name)

    # -- the paper's API ---------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """The paper's ``isEmpty()``."""
        return not self._entries

    def __len__(self) -> int:
        return len(self._entries) if self._entries else 0

    def await_nonempty(self) -> Event:
        """The paper's ``awaitNonEmpty()``: fires when a message is queued.

        Does not consume the message. If the inbox is already non-empty
        the event fires immediately (same instant).
        """
        ev = self.kernel.event()
        tr = self.kernel.tracer
        if tr is not None:
            tr.emit("mbox", "await", node=self.endpoint.address,
                    inbox=self.name or self.ref,
                    ready=bool(self._entries))
        if self._entries:
            ev.succeed(None)
        else:
            self._nonempty_waiters.append(ev)
        return ev

    def receive(self, timeout: float | None = None) -> Event:
        """The paper's ``receive()``: fires with the head message, consuming it.

        A receive finds the head message at once only when no earlier
        receive is still waiting; otherwise it queues behind them. With
        ``timeout``, fails with :class:`ReceiveTimeout` if nothing
        arrives in time; the expired receive withdraws itself first, so
        no message is taken for it and none is lost.
        """
        take = self.kernel.event()
        if self._entries and not self._takers:
            take.succeed(self._take())
        else:
            self._takers.append(take)
            self._schedule_drain()
        if timeout is None:
            return take
        outer = self.kernel.event()
        take.callbacks.append(lambda ev: outer.succeed(ev.value))

        def expire(_ev: Event) -> None:
            if not take.triggered:
                self._takers.remove(take)
                outer.fail(ReceiveTimeout(
                    f"no message on inbox {self.address} within {timeout}s",
                    timeout=timeout))

        self.kernel.timeout(timeout).callbacks.append(expire)
        return outer

    def peek(self) -> Message:
        """The head message without consuming it (raises if empty)."""
        if not self._entries:
            raise LookupError(f"inbox {self.address} is empty")
        return self._entries[0][0]

    def queued(self) -> list[Message]:
        """A copy of the currently queued messages, head first.

        Queued-but-unreceived messages are part of the *process* state
        (not the channel state) in snapshot terms; state functions that
        model "everything this dapplet has been delivered" need them.
        """
        return [entry[0] for entry in self._entries or ()]

    def transform_queued(self, fn: "Callable[[Message], Message | None]") -> None:
        """Rewrite messages already queued (dropping ``None`` results).

        Used by services that install delivery hooks after traffic may
        have arrived, to normalize messages the hooks did not see. A
        rewritten message keeps its place, size and arrival instant.
        """
        entries = self._entries
        if not entries:
            return
        self._entries = deque()
        self.backlog_bytes = 0
        for message, size, at in entries:
            replacement = fn(message)
            if replacement is not None:
                self._entries.append((replacement, size, at))
                self.backlog_bytes += size

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Unregister from the endpoint; queued messages stay readable."""
        if not self._closed:
            self._closed = True
            self.endpoint.unregister_inbox(self.ref, name=self.name)

    # -- delivery (called by the endpoint) --------------------------------

    def _deliver_wire(self, payload: str, _addr: InboxAddress) -> None:
        try:
            message = loads(payload)
        except SerializationError as exc:
            self.bad_payloads += 1
            tr = self.kernel.tracer
            if tr is not None:
                tr.emit("mbox", "bad_payload", node=self.endpoint.address,
                        inbox=self.name or self.ref, size=len(payload),
                        error=str(exc))
            return
        self._incoming_size = LOCAL_MESSAGE_SIZE + len(payload)
        try:
            self.deliver_local(message)
        finally:
            self._incoming_size = None

    def deliver_local(self, message: Message) -> None:
        """Inject an already-decoded message (same-process delivery path
        used by services and tests).

        A delivery hook may return ``None`` to swallow the message —
        services use this for protocol traffic (e.g. snapshot markers)
        that the application must not see.

        The message stays visible in the queue until a waiting receive
        takes it in a zero-delay drain, so observers that inspect the
        queue during a delivery cascade (snapshot state functions, say)
        never see it vanish into a not-yet-resumed process.
        """
        for hook in self.delivery_hooks:
            message = hook(message)
            if message is None:
                return
        self.messages_received += 1
        size = (self._incoming_size if self._incoming_size is not None
                else LOCAL_MESSAGE_SIZE)
        self.backlog_bytes += size
        tr = self.kernel.tracer
        if tr is not None:
            tr.emit("mbox", "enqueue", node=self.endpoint.address,
                    inbox=self.name or self.ref,
                    qlen=len(self) + 1,
                    msg=type(message).__name__)
        if self._entries is None:
            self._entries = deque()
        self._entries.append((message, size, self.kernel.now))
        self._schedule_drain()
        if self._nonempty_waiters:
            waiters, self._nonempty_waiters = self._nonempty_waiters, []
            for ev in waiters:
                ev.succeed(None)

    def _schedule_drain(self) -> None:
        if self._takers and self._entries and not self._drain_scheduled:
            self._drain_scheduled = True
            self.kernel.call_later(0.0, self._drain)

    def _drain(self) -> None:
        """Hand queued messages to waiting receives, oldest to oldest."""
        self._drain_scheduled = False
        while self._takers and self._entries:
            message = self._take()
            self._takers.pop(0).succeed(message)

    def _take(self) -> Message:
        message = self._entries[0][0]
        self._on_dequeue(message)
        return message

    def _on_dequeue(self, message: Message) -> None:
        """Consume ``message``, the head entry, at the instant a receive
        takes it; its wait is its own residence time in the queue."""
        _, size, at = self._entries.popleft()
        self.backlog_bytes -= size
        tr = self.kernel.tracer
        if tr is not None:
            tr.emit("mbox", "dequeue", node=self.endpoint.address,
                    inbox=self.name or self.ref, qlen=len(self._entries),
                    msg=type(message).__name__, wait=self.kernel.now - at)
        # Freed budget may reopen the advertised receive window.
        self.endpoint.inbox_drained(self.ref, self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or self.ref
        return f"<Inbox {self.endpoint.address}/{label} queued={len(self)}>"
