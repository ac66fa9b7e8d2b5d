"""The caller side: invoking through a global pointer.

``invoke`` is the paper's asynchronous RPC — a message, nothing comes
back. ``call`` is the synchronous form, "implemented as pairwise
asynchronous RPCs": the proxy attaches a reply-to inbox and a call id,
and a dispatcher thread matches replies to waiting callers.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any

from repro.errors import RpcError, RpcTimeout
from repro.net.address import InboxAddress
from repro.rpc.messages import Invoke, Reply
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.dapplet.dapplet import Dapplet


class RemoteProxy:
    """A handle on a remote object, given its global pointer."""

    def __init__(self, dapplet: "Dapplet", pointer: InboxAddress) -> None:
        self.dapplet = dapplet
        self.kernel = dapplet.kernel
        self.pointer = pointer
        self._reply_inbox = dapplet.create_inbox()
        self._call_ids = itertools.count(1)
        self._pending: dict[int, Event] = {}
        self.calls_sent = 0
        self._dispatcher = dapplet.spawn(self._dispatch(),
                                         name=f"rpc-proxy:{pointer}")

    def invoke(self, method: str, *args: Any, **kwargs: Any) -> None:
        """Asynchronous RPC: send and forget."""
        self.calls_sent += 1
        self.dapplet.post(self.pointer, Invoke(
            call_id=next(self._call_ids), method=method, args=args,
            kwargs=kwargs, reply_to=None, principal=self.dapplet.principal))

    def call(self, method: str, *args: Any, timeout: float | None = None,
             **kwargs: Any) -> Event:
        """Synchronous RPC: an event that fires with the return value.

        Yield it from a process. Fails with :class:`RpcError` if the
        callee raised (carrying the remote exception type and message),
        or :class:`RpcTimeout` if no reply arrives in ``timeout``.
        """
        call_id = next(self._call_ids)
        self.calls_sent += 1
        # Registered only once the Invoke has left: a send that raises
        # (un-encodable argument, stopped dapplet) leaves nothing pending.
        self.dapplet.post(self.pointer, Invoke(
            call_id=call_id, method=method, args=args, kwargs=kwargs,
            reply_to=self._reply_inbox.address,
            principal=self.dapplet.principal))
        result = self._pending[call_id] = self.kernel.event()
        if timeout is not None:
            def expire() -> None:
                pending = self._pending.pop(call_id, None)
                if pending is not None and not pending.triggered:
                    pending.fail(RpcTimeout(
                        f"call {method!r} on {self.pointer} timed out "
                        f"after {timeout}s"))
            self.kernel.call_later(timeout, expire)
        return result

    def _dispatch(self):
        while True:
            msg = yield self._reply_inbox.receive()
            if not isinstance(msg, Reply):
                continue
            waiter = self._pending.pop(msg.call_id, None)
            if waiter is None or waiter.triggered:
                continue  # late reply after timeout: drop
            if msg.ok:
                waiter.succeed(msg.value)
            else:
                waiter.fail(RpcError(
                    f"remote call failed: {msg.error_type}: "
                    f"{msg.error_message}",
                    remote_type=msg.error_type,
                    remote_message=msg.error_message))

    def close(self) -> None:
        """Stop dispatching; outstanding calls will time out."""
        self.dapplet.close_inbox(self._reply_inbox)
