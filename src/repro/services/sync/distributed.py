"""Cross-dapplet synchronization constructs.

The extension the paper announces in §4.3: barriers, semaphores and
single-assignment variables "between threads in different dapplets in
different address spaces". Each construct is a named entity living on a
:class:`SyncHost` servlet; client handles on other dapplets speak the
message protocol of :mod:`repro.services.sync.messages`, correlating
replies by request id so one client may have several operations in
flight.

A construct's parameters (barrier parties, semaphore permits) are fixed
by the first message that names it; later messages with conflicting
parameters are answered with a protocol error, which client handles
surface as :class:`~repro.errors.SynchronizationError`.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any

from repro.errors import SingleAssignmentError, SynchronizationError
from repro.net.address import InboxAddress
from repro.services.sync import messages as ym
from repro.services.sync.local import (Barrier, BoundedChannel, Semaphore,
                                       SingleAssignment)
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.dapplet.dapplet import Dapplet

#: Well-known inbox name of the sync host servlet.
SYNC_INBOX = "_sync"


class SyncHost:
    """The servlet hosting named synchronization constructs.

    The constructs are the thread-level ones of
    :mod:`repro.services.sync.local`, each created by the first message
    that names it. A request is applied to its construct and answered
    when the event the construct returned fires, so replies leave in the
    order the construct releases its waiters.
    """

    def __init__(self, dapplet: "Dapplet", name: str = SYNC_INBOX) -> None:
        self.dapplet = dapplet
        self.inbox = dapplet.create_inbox(name=name)
        #: (class, name) -> the hosted construct.
        self._constructs: dict[tuple[type, str], Any] = {}
        self.server = dapplet.spawn(self._serve(), name="sync-host")

    @property
    def pointer(self) -> InboxAddress:
        return self.inbox.named_address

    def _serve(self):
        while True:
            msg = yield self.inbox.receive()
            handler = self._handlers.get(type(msg))
            if handler is not None:
                handler(self, msg)

    def _named(self, msg, cls, *params):
        """The ``cls`` construct ``msg`` names, built from ``params`` by
        the first message to name it; ``None``, the requester told why,
        if they are invalid."""
        key = (cls, msg.name)
        construct = self._constructs.get(key)
        if construct is None:
            try:
                construct = cls(self.dapplet.kernel, *params)
            except SynchronizationError as exc:
                self._refuse(msg, str(exc))
                return None
            self._constructs[key] = construct
        return construct

    def _refuse(self, msg, error: str) -> None:
        self.dapplet.post(msg.reply_to,
                          ym.SyncError(msg.req_id, msg.name, error))

    def _answer(self, msg, event: Event, reply) -> None:
        """Send ``reply(value)`` to the requester when ``event`` fires."""
        event.callbacks.append(
            lambda ev: self.dapplet.post(msg.reply_to, reply(ev.value)))

    def _on_barrier_arrive(self, msg: ym.BarrierArrive) -> None:
        barrier = self._named(msg, Barrier, msg.parties)
        if barrier is None:
            return
        if barrier.parties != msg.parties:
            self._refuse(msg, f"barrier {msg.name!r} has {barrier.parties} "
                              f"parties, not {msg.parties}")
            return
        self._answer(msg, barrier.arrive(), lambda generation:
                     ym.BarrierRelease(msg.req_id, msg.name, generation))

    def _on_sem_acquire(self, msg: ym.SemAcquire) -> None:
        sem = self._named(msg, Semaphore, msg.permits)
        if sem is not None:
            self._answer(msg, sem.acquire(),
                         lambda _: ym.SemGrant(msg.req_id, msg.name))

    def _on_sem_release(self, msg: ym.SemRelease) -> None:
        sem = self._constructs.get((Semaphore, msg.name))
        if sem is not None:  # releasing an unknown semaphore: drop
            sem.release()

    def _on_sa_set(self, msg: ym.SaSet) -> None:
        try:
            self._named(msg, SingleAssignment).set(msg.value)
        except SingleAssignmentError as exc:
            ack = ym.SaSetAck(msg.req_id, msg.name, ok=False, error=str(exc))
        else:
            ack = ym.SaSetAck(msg.req_id, msg.name, ok=True)
        self.dapplet.post(msg.reply_to, ack)

    def _on_sa_get(self, msg: ym.SaGet) -> None:
        self._answer(msg, self._named(msg, SingleAssignment).get(),
                     lambda value: ym.SaValue(msg.req_id, msg.name, value))

    def _channel(self, msg) -> "BoundedChannel | None":
        chan = self._named(msg, BoundedChannel, msg.capacity)
        if chan is not None and chan.capacity != msg.capacity:
            self._refuse(msg, f"channel {msg.name!r} has capacity "
                              f"{chan.capacity}, not {msg.capacity}")
            return None
        return chan

    def _on_ch_put(self, msg: ym.ChPut) -> None:
        chan = self._channel(msg)
        if chan is not None:
            self._answer(msg, chan.put(msg.value),
                         lambda _: ym.ChPutOk(msg.req_id, msg.name))

    def _on_ch_get(self, msg: ym.ChGet) -> None:
        chan = self._channel(msg)
        if chan is not None:
            self._answer(msg, chan.get(),
                         lambda item: ym.ChItem(msg.req_id, msg.name, item))

    _handlers = {ym.BarrierArrive: _on_barrier_arrive,
                 ym.SemAcquire: _on_sem_acquire,
                 ym.SemRelease: _on_sem_release,
                 ym.SaSet: _on_sa_set,
                 ym.SaGet: _on_sa_get,
                 ym.ChPut: _on_ch_put,
                 ym.ChGet: _on_ch_get}


class _Client:
    """Shared plumbing of the client handles: req-id correlation."""

    def __init__(self, dapplet: "Dapplet", host: InboxAddress,
                 name: str) -> None:
        self.dapplet = dapplet
        self.kernel = dapplet.kernel
        self.name = name
        self.inbox = dapplet.create_inbox()
        self.outbox = dapplet.create_outbox()
        self.outbox.add(host)
        self._req_ids = itertools.count(1)
        self._pending: dict[int, Event] = {}
        self.dispatcher = dapplet.spawn(
            self._dispatch(), name=f"sync:{name}")

    def _issue(self) -> tuple[int, Event]:
        req_id = next(self._req_ids)
        event = Event(self.kernel)
        self._pending[req_id] = event
        return req_id, event

    def _dispatch(self):
        while True:
            msg = yield self.inbox.receive()
            req_id = getattr(msg, "req_id", None)
            waiter = self._pending.pop(req_id, None)
            if waiter is None or waiter.triggered:
                continue
            if isinstance(msg, ym.SyncError):
                waiter.fail(SynchronizationError(msg.error))
            elif isinstance(msg, ym.SaSetAck):
                if msg.ok:
                    waiter.succeed(None)
                else:
                    waiter.fail(SingleAssignmentError(msg.error))
            elif isinstance(msg, ym.BarrierRelease):
                waiter.succeed(msg.generation)
            elif isinstance(msg, (ym.SaValue, ym.ChItem)):
                waiter.succeed(msg.value)
            else:
                waiter.succeed(None)


class DistributedBarrier(_Client):
    """A named barrier across dapplets."""

    def __init__(self, dapplet: "Dapplet", host: InboxAddress, name: str,
                 parties: int) -> None:
        super().__init__(dapplet, host, name)
        self.parties = parties

    def arrive(self) -> Event:
        """Blocks until all parties arrive; yields the generation."""
        req_id, event = self._issue()
        self.outbox.send(ym.BarrierArrive(
            req_id, self.name, self.parties, reply_to=self.inbox.address))
        return event


class DistributedSemaphore(_Client):
    """A named counting semaphore across dapplets."""

    def __init__(self, dapplet: "Dapplet", host: InboxAddress, name: str,
                 permits: int = 1) -> None:
        super().__init__(dapplet, host, name)
        self.permits = permits

    def acquire(self) -> Event:
        req_id, event = self._issue()
        self.outbox.send(ym.SemAcquire(
            req_id, self.name, self.permits, reply_to=self.inbox.address))
        return event

    def release(self) -> None:
        self.outbox.send(ym.SemRelease(self.name))


class DistributedChannel(_Client):
    """A named CSP-style bounded channel across dapplets.

    ``put`` blocks while the channel is full; ``get`` blocks while it
    is empty. Capacity 0 gives rendezvous semantics: a put completes
    only when matched by a get.
    """

    def __init__(self, dapplet: "Dapplet", host: InboxAddress, name: str,
                 capacity: int = 1) -> None:
        super().__init__(dapplet, host, name)
        self.capacity = capacity

    def put(self, value: Any) -> Event:
        req_id, event = self._issue()
        self.outbox.send(ym.ChPut(req_id, self.name, self.capacity,
                                  value=value,
                                  reply_to=self.inbox.address))
        return event

    def get(self) -> Event:
        req_id, event = self._issue()
        self.outbox.send(ym.ChGet(req_id, self.name, self.capacity,
                                  reply_to=self.inbox.address))
        return event


class DistributedSingleAssignment(_Client):
    """A named write-once variable across dapplets."""

    def set(self, value: Any) -> Event:
        """Write; fails with :class:`SingleAssignmentError` if already set."""
        req_id, event = self._issue()
        self.outbox.send(ym.SaSet(req_id, self.name, value=value,
                                  reply_to=self.inbox.address))
        return event

    def get(self) -> Event:
        """Read; blocks until some dapplet sets the variable."""
        req_id, event = self._issue()
        self.outbox.send(ym.SaGet(req_id, self.name,
                                  reply_to=self.inbox.address))
        return event
