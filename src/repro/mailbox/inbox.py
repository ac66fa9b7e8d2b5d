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
from repro.sim.primitives import Store

DeliveryHook = Callable[[Message], Message]

#: Byte charge for a locally injected message (``deliver_local`` with no
#: wire payload to measure): the per-datagram header overhead stands in.
LOCAL_MESSAGE_SIZE = 64


class Inbox:
    """A FIFO queue of received messages, globally addressable."""

    def __init__(self, kernel: Scheduler, endpoint: Endpoint, ref: int,
                 name: str | None = None) -> None:
        self.kernel = kernel
        self.endpoint = endpoint
        self.ref = ref
        self.name = name
        self._store = Store(kernel)
        self._store.on_get = self._on_dequeue
        #: Enqueue instants of queued messages, head-aligned with the
        #: store; pairs enqueues with dequeues for the mailbox-wait
        #: histogram. Only fed while a tracer is attached.
        self._enqueued_at: deque[float] = deque()
        #: Wire sizes of queued messages, head-aligned with the store;
        #: their sum is :attr:`backlog_bytes`, the occupancy the
        #: endpoint's advertised receive window (``rwnd``) is derived
        #: from. Always fed, tracer or not.
        self._queued_sizes: deque[int] = deque()
        self.backlog_bytes = 0
        self._incoming_size: int | None = None
        self._last_dequeued_size = LOCAL_MESSAGE_SIZE
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
        return self._store.is_empty

    def __len__(self) -> int:
        return len(self._store)

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
                    ready=not self._store.is_empty)
        if not self._store.is_empty:
            ev.succeed(None)
        else:
            self._nonempty_waiters.append(ev)
        return ev

    def receive(self, timeout: float | None = None) -> Event:
        """The paper's ``receive()``: fires with the head message, consuming it.

        With ``timeout``, fails with :class:`ReceiveTimeout` if nothing
        arrives in time (the pending take is withdrawn, so no message is
        lost).
        """
        if timeout is None:
            return self._store.get()
        outer = self.kernel.event()
        get_ev = self._store.get()
        timer = self.kernel.timeout(timeout)

        def on_get(ev: Event) -> None:
            if outer.triggered:
                # Timed out in the same instant the message landed; put
                # it back at the head so the next receive sees it.
                if self.kernel.tracer is not None:
                    self._enqueued_at.appendleft(self.kernel.now)
                self._queued_sizes.appendleft(self._last_dequeued_size)
                self.backlog_bytes += self._last_dequeued_size
                self._store.put_front(ev.value)
            else:
                outer.succeed(ev.value)

        def on_timer(_ev: Event) -> None:
            if outer.triggered or get_ev.triggered:
                return
            self._store.cancel(get_ev)
            outer.fail(ReceiveTimeout(
                f"no message on inbox {self.address} within {timeout}s",
                timeout=timeout))

        get_ev.callbacks.append(on_get)
        timer.callbacks.append(on_timer)
        return outer

    def peek(self) -> Message:
        """The head message without consuming it (raises if empty)."""
        return self._store.peek()

    def queued(self) -> list[Message]:
        """A copy of the currently queued messages, head first.

        Queued-but-unreceived messages are part of the *process* state
        (not the channel state) in snapshot terms; state functions that
        model "everything this dapplet has been delivered" need them.
        """
        return list(self._store._items)

    def transform_queued(self, fn: "Callable[[Message], Message | None]") -> None:
        """Rewrite messages already queued (dropping ``None`` results).

        Used by services that install delivery hooks after traffic may
        have arrived, to normalize messages the hooks did not see.
        """
        items = list(self._store._items)
        times = list(self._enqueued_at)
        times += [self.kernel.now] * (len(items) - len(times))
        sizes = list(self._queued_sizes)
        sizes += [LOCAL_MESSAGE_SIZE] * (len(items) - len(sizes))
        self._store._items.clear()
        self._enqueued_at.clear()
        self._queued_sizes.clear()
        self.backlog_bytes = 0
        for item, t, size in zip(items, times, sizes):
            replacement = fn(item)
            if replacement is not None:
                self._store._items.append(replacement)
                self._enqueued_at.append(t)
                self._queued_sizes.append(size)
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
        """
        for hook in self.delivery_hooks:
            message = hook(message)
            if message is None:
                return
        self.messages_received += 1
        size = (self._incoming_size if self._incoming_size is not None
                else LOCAL_MESSAGE_SIZE)
        self._queued_sizes.append(size)
        self.backlog_bytes += size
        tr = self.kernel.tracer
        if tr is not None:
            self._enqueued_at.append(self.kernel.now)
            tr.emit("mbox", "enqueue", node=self.endpoint.address,
                    inbox=self.name or self.ref,
                    qlen=len(self._store) + 1,
                    msg=type(message).__name__)
        self._store.put(message)
        if self._nonempty_waiters:
            waiters, self._nonempty_waiters = self._nonempty_waiters, []
            for ev in waiters:
                ev.succeed(None)

    def _on_dequeue(self, message: Message) -> None:
        """Store observer: one message handed to a receiver."""
        enqueued = self._enqueued_at.popleft() if self._enqueued_at else None
        size = (self._queued_sizes.popleft() if self._queued_sizes
                else LOCAL_MESSAGE_SIZE)
        self.backlog_bytes = max(0, self.backlog_bytes - size)
        self._last_dequeued_size = size
        tr = self.kernel.tracer
        if tr is not None:
            tr.emit("mbox", "dequeue", node=self.endpoint.address,
                    inbox=self.name or self.ref, qlen=len(self._store),
                    msg=type(message).__name__,
                    wait=(None if enqueued is None
                          else self.kernel.now - enqueued))
        # Freed budget may reopen the advertised receive window.
        self.endpoint.inbox_drained(self.ref, self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or self.ref
        return f"<Inbox {self.endpoint.address}/{label} queued={len(self)}>"
