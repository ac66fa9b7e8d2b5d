"""Cross-dapplet synchronization constructs.

The extension the paper announces in §4.3: barriers, semaphores and
single-assignment variables "between threads in different dapplets in
different address spaces". They are the thread-level constructs of
:mod:`repro.services.sync.local` behind a global pointer: a
:class:`SyncHost` exports one method per operation, a blocking operation
returns the construct's event (see :mod:`repro.rpc.remote`), and the
client handles on other dapplets are RPC proxies — so one client may
have several operations in flight, correlated by call id.

A construct's parameters (barrier parties, semaphore permits, channel
capacity) are fixed by the first call that names it; a later call with
conflicting parameters fails at the host, which client handles surface
as :class:`~repro.errors.SynchronizationError`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import SingleAssignmentError, SynchronizationError
from repro.net.address import InboxAddress
from repro.rpc.proxy import RemoteProxy
from repro.rpc.remote import export
from repro.services.sync.local import (Barrier, BoundedChannel, Semaphore,
                                       SingleAssignment)
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.dapplet.dapplet import Dapplet

#: Well-known inbox name of the sync host servlet.
SYNC_INBOX = "_sync"


class SyncHost:
    """The servlet hosting named synchronization constructs.

    It exports itself: its public methods are the seven remote
    operations, each applied to the named construct (created by the
    first call that names it) and returning that construct's event, so
    callers are answered in the order the construct releases its
    waiters. Everything else is private or not callable, hence not
    remotely invocable.
    """

    def __init__(self, dapplet: "Dapplet", name: str = SYNC_INBOX) -> None:
        self.dapplet = dapplet
        #: (class, name) -> the hosted construct.
        self._constructs: dict[tuple[type, str], Any] = {}
        self._remote = export(dapplet, self, name=name)

    @property
    def pointer(self) -> InboxAddress:
        return self._remote.pointer

    def _named(self, cls, name: str, *params):
        """The ``cls`` construct called ``name``, built from ``params``
        by the first call to name it (raises if they are invalid)."""
        key = (cls, name)
        if key not in self._constructs:
            self._constructs[key] = cls(self.dapplet.kernel, *params)
        return self._constructs[key]

    def barrier_arrive(self, name: str, parties: int) -> Event:
        barrier = self._named(Barrier, name, parties)
        if barrier.parties != parties:
            raise SynchronizationError(
                f"barrier {name!r} has {barrier.parties} parties, "
                f"not {parties}")
        return barrier.arrive()

    def sem_acquire(self, name: str, permits: int) -> Event:
        return self._named(Semaphore, name, permits).acquire()

    def sem_release(self, name: str) -> None:
        sem = self._constructs.get((Semaphore, name))
        if sem is not None:  # releasing an unknown semaphore: drop
            sem.release()

    def sa_set(self, name: str, value: Any) -> None:
        self._named(SingleAssignment, name).set(value)

    def sa_get(self, name: str) -> Event:
        return self._named(SingleAssignment, name).get()

    def _channel(self, name: str, capacity: int) -> BoundedChannel:
        chan = self._named(BoundedChannel, name, capacity)
        if chan.capacity != capacity:
            raise SynchronizationError(
                f"channel {name!r} has capacity {chan.capacity}, "
                f"not {capacity}")
        return chan

    def ch_put(self, name: str, capacity: int, value: Any) -> Event:
        return self._channel(name, capacity).put(value)

    def ch_get(self, name: str, capacity: int) -> Event:
        return self._channel(name, capacity).get()


#: Host-side failures the handles re-raise under their own type.
_ERRORS = {cls.__name__: cls
           for cls in (SynchronizationError, SingleAssignmentError)}


class _Handle:
    """Shared plumbing of the client handles: a proxy on the host."""

    def __init__(self, dapplet: "Dapplet", host: InboxAddress,
                 name: str) -> None:
        self.dapplet = dapplet
        self.name = name
        self.proxy = RemoteProxy(dapplet, host)

    def _call(self, method: str, *args: Any) -> Event:
        """Call ``method`` on this handle's construct; a misuse the host
        reported is re-raised under its own type, not as ``RpcError``."""
        result = self.dapplet.kernel.event()

        def settle(call: Event) -> None:
            if call.ok:
                result.succeed(call.value)
                return
            call.defused = True
            error = call.value
            cls = _ERRORS.get(error.remote_type)
            result.fail(error if cls is None else cls(error.remote_message))

        self.proxy.call(method, self.name, *args).callbacks.append(settle)
        return result


class DistributedBarrier(_Handle):
    """A named barrier across dapplets."""

    def __init__(self, dapplet: "Dapplet", host: InboxAddress, name: str,
                 parties: int) -> None:
        super().__init__(dapplet, host, name)
        self.parties = parties

    def arrive(self) -> Event:
        """Blocks until all parties arrive; yields the generation."""
        return self._call("barrier_arrive", self.parties)


class DistributedSemaphore(_Handle):
    """A named counting semaphore across dapplets."""

    def __init__(self, dapplet: "Dapplet", host: InboxAddress, name: str,
                 permits: int = 1) -> None:
        super().__init__(dapplet, host, name)
        #: Initial permit count, fixed by the first acquire to arrive.
        self.permits = permits

    def acquire(self) -> Event:
        return self._call("sem_acquire", self.permits)

    def release(self) -> None:
        self.proxy.invoke("sem_release", self.name)


class DistributedChannel(_Handle):
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
        return self._call("ch_put", self.capacity, value)

    def get(self) -> Event:
        return self._call("ch_get", self.capacity)


class DistributedSingleAssignment(_Handle):
    """A named write-once variable across dapplets."""

    def set(self, value: Any) -> Event:
        """Write; fails with :class:`SingleAssignmentError` if already set."""
        return self._call("sa_set", value)

    def get(self) -> Event:
        """Read; blocks until some dapplet sets the variable."""
        return self._call("sa_get")
