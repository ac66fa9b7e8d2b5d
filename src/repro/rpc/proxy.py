"""The caller side: invoking through a global pointer.

``invoke`` is the paper's asynchronous RPC — a message, nothing comes
back. ``call`` is the synchronous form, "implemented as pairwise
asynchronous RPCs": the ``Invoke`` carries a reply-to inbox and a call
id, and a dispatcher thread matches replies to waiting callers.

The return address belongs to the calling dapplet, not to a pointer.
Each dapplet that holds a :class:`RemoteProxy` has one
:class:`RpcClient`, made by its first proxy. The client owns one reply
inbox, one call-id counter, one pending table, one dispatcher process
and one deadline agenda. A proxy is only a ``(dapplet, pointer)``
handle, so an exporter answers each calling dapplet on one channel
however many proxies that dapplet holds.
"""

from __future__ import annotations

import itertools
import math
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Any

from repro.errors import RpcError, RpcTimeout
from repro.net.address import InboxAddress
from repro.rpc.messages import Invoke, Reply
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.dapplet.dapplet import Dapplet


class RemoteProxy:
    """A handle on a remote object: a calling dapplet and the object's
    global pointer. ``pointer`` may be reassigned; later calls go there."""

    def __init__(self, dapplet: "Dapplet", pointer: InboxAddress) -> None:
        self.dapplet = dapplet
        self.pointer = pointer
        self._client = dapplet._rpc_client or RpcClient(dapplet)

    def invoke(self, method: str, *args: Any, **kwargs: Any) -> None:
        """Asynchronous RPC: send and forget."""
        self._client.post(self.pointer, method, args, kwargs, None)

    def call(self, method: str, *args: Any, timeout: float | None = None,
             **kwargs: Any) -> Event:
        """Synchronous RPC: an event that fires with the return value.

        Yield it from a process. Fails with :class:`RpcError` if the
        callee raised (carrying the remote exception type, message and
        ``rpc_fields``), or :class:`RpcTimeout` if no reply arrives in
        ``timeout``.
        """
        return self._client.call(self.pointer, method, args, kwargs, timeout)


class RpcClient:
    """One dapplet's half of every synchronous call it makes.

    Timed calls sit on one agenda, a heap of ``(due, call_id, ...)``,
    with one wake armed at the earliest due still pending — the idiom of
    :meth:`~repro.net.endpoint.Endpoint._arm`. Answered calls stay on
    the heap until they reach its head, or until they outnumber the
    pending calls and the heap is rebuilt from those.
    """

    def __init__(self, dapplet: "Dapplet") -> None:
        self.dapplet = dapplet
        self.kernel = dapplet.kernel
        self.inbox = dapplet.create_inbox()
        self._call_ids = itertools.count(1)
        self._pending: dict[int, Event] = {}
        self._agenda: list[tuple] = []
        self._wake_at: float | None = None
        dapplet._rpc_client = self
        dapplet.spawn(self._dispatch(), name="rpc-client")

    def post(self, pointer: InboxAddress, method: str, args: tuple,
             kwargs: dict, reply_to: InboxAddress | None) -> int:
        """Send one ``Invoke``; returns its call id (0, off the wire,
        for a one-way invoke: nothing is matched to it)."""
        call_id = next(self._call_ids) if reply_to is not None else 0
        self.dapplet.post(pointer, Invoke(
            call_id=call_id, method=method, args=args, kwargs=kwargs,
            reply_to=reply_to, principal=self.dapplet.principal))
        return call_id

    def call(self, pointer: InboxAddress, method: str, args: tuple,
             kwargs: dict, timeout: float | None) -> Event:
        # Registered only once the Invoke has left: a send that raises
        # (un-encodable argument, stopped dapplet) leaves nothing pending.
        call_id = self.post(pointer, method, args, kwargs, self.inbox.address)
        result = self._pending[call_id] = self.kernel.event()
        if timeout is not None:
            heappush(self._agenda, (self.kernel.now + timeout, call_id,
                                    method, pointer, timeout))
            self._arm()
        return result

    def _arm(self) -> None:
        """Keep one wake armed at the earliest pending due.

        The scheduler has no cancel, so a superseded wake still fires;
        it finds ``_wake_at`` no longer names its due and does nothing."""
        agenda = self._agenda
        if len(agenda) > 2 * len(self._pending):
            agenda[:] = [e for e in agenda if e[1] in self._pending]
            heapify(agenda)
        while agenda and agenda[0][1] not in self._pending:
            heappop(agenda)  # answered
        if not agenda:
            return
        due = agenda[0][0]
        if self._wake_at is not None and self._wake_at <= due:
            return
        self._wake_at = due

        def wake() -> None:
            if self._wake_at != due:
                return
            if self.kernel.now < due:  # no delay from the arming instant
                self.kernel.call_later(_delay(self.kernel.now, due), wake)
                return
            self._wake_at = None
            # Same due: call order, as the heap breaks ties by call id.
            while agenda and agenda[0][0] <= due:
                _, call_id, method, pointer, timeout = heappop(agenda)
                waiter = self._pending.pop(call_id, None)
                if waiter is not None:
                    waiter.fail(RpcTimeout(
                        f"call {method!r} on {pointer} timed out "
                        f"after {timeout}s"))
            self._arm()

        self.kernel.call_later(_delay(self.kernel.now, due), wake)

    def _dispatch(self):
        while True:
            msg = yield self.inbox.receive()
            if not isinstance(msg, Reply):
                continue
            waiter = self._pending.pop(msg.call_id, None)
            if waiter is None:
                continue  # late reply after timeout: drop
            if msg.ok:
                waiter.succeed(msg.value)
            else:
                waiter.fail(RpcError(
                    f"remote call failed: {msg.error_type}: "
                    f"{msg.error_message}",
                    remote_type=msg.error_type,
                    remote_message=msg.error_message,
                    remote_fields=msg.value
                    if isinstance(msg.value, dict) else None))


def _delay(now: float, due: float) -> float:
    """The longest delay that lands a timer at or before ``due``: ``now +
    (due - now)`` can round one ulp off, and a call must fail at exactly
    its ``sent + timeout`` whichever instant its wake was armed from. When
    no delay from ``now`` lands on ``due`` itself, the wake lands just
    before it and re-arms; from there ``due - now`` is exact."""
    delay = max(0.0, due - now)
    while delay > 0.0 and now + delay > due:
        delay = math.nextafter(delay, 0.0)
    while now + delay < due and now + math.nextafter(delay, math.inf) <= due:
        delay = math.nextafter(delay, math.inf)
    return delay
