"""The callee side: exporting an object behind an inbox.

Only public methods (no leading underscore) are invocable; on an
*owned* dapplet the calling principal must additionally hold an
``rpc.call:<method>`` capability grant (see :mod:`repro.registry`).
The server thread applies one invocation at a time, so exported objects
get the paper's monitor-like mutual exclusion for free within one
export. A callee exception is reported back to synchronous callers (and
counted but dropped for one-way invocations, matching fire-and-forget
semantics).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.net.address import InboxAddress
from repro.rpc.messages import Invoke, Reply

if TYPE_CHECKING:  # pragma: no cover
    from repro.dapplet.dapplet import Dapplet


class RemoteObject:
    """An object published behind an inbox; the inbox address is the
    paper's *global pointer* to it."""

    def __init__(self, dapplet: "Dapplet", obj: Any,
                 name: str | None = None) -> None:
        self.dapplet = dapplet
        self.obj = obj
        self.inbox = dapplet.create_inbox(name=name)
        self.invocations = 0
        self.errors = 0
        self.server = dapplet.spawn(self._serve(), name=f"export:{name or id(obj)}")

    @property
    def pointer(self) -> InboxAddress:
        """The global pointer callers hand to :class:`RemoteProxy`."""
        return self.inbox.named_address if self.inbox.name else self.inbox.address

    def _serve(self):
        while True:
            msg = yield self.inbox.receive()
            if not isinstance(msg, Invoke):
                continue  # stray message; global pointers ignore noise
            self.invocations += 1
            reply = self._apply(msg)
            if msg.reply_to is not None:
                self.dapplet.post(msg.reply_to, reply)

    def _apply(self, msg: Invoke) -> Reply:
        if msg.method.startswith("_"):
            self.errors += 1
            return Reply(msg.call_id, ok=False, error_type="PermissionError",
                         error_message=f"method {msg.method!r} is not public")
        owner = self.dapplet.owner
        if owner is not None:
            # Owned exporter: the calling principal needs a per-method
            # grant (audited as a reg allow/deny event either way).
            verb = f"rpc.call:{msg.method}"
            if not self.dapplet.world.registry.check(
                    msg.principal, self.dapplet.manifest_name, verb,
                    owner=owner.name, node=self.dapplet.address):
                self.errors += 1
                return Reply(
                    msg.call_id, ok=False, error_type="PermissionError",
                    error_message=f"capability:{verb} denied for "
                                  f"principal {msg.principal!r}")
        method = getattr(self.obj, msg.method, None)
        if method is None or not callable(method):
            self.errors += 1
            return Reply(msg.call_id, ok=False, error_type="AttributeError",
                         error_message=f"no remote method {msg.method!r}")
        try:
            value = method(*msg.args, **msg.kwargs)
        except Exception as exc:  # noqa: BLE001 - reported to the caller
            self.errors += 1
            return Reply(msg.call_id, ok=False,
                         error_type=type(exc).__name__,
                         error_message=str(exc))
        return Reply(msg.call_id, ok=True, value=value)

    def unexport(self) -> None:
        """Withdraw the object; the pointer dangles from then on."""
        self.dapplet.close_inbox(self.inbox)


def export(dapplet: "Dapplet", obj: Any, name: str | None = None) -> RemoteObject:
    """Publish ``obj`` on ``dapplet``; see :class:`RemoteObject`."""
    return RemoteObject(dapplet, obj, name=name)
