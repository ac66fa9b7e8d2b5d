"""The callee side: exporting an object behind an inbox.

Only public methods (no leading underscore) are invocable; on an
*owned* dapplet the calling principal must additionally hold an
``rpc.call:<method>`` capability grant (see :mod:`repro.registry`).
The server thread applies one invocation at a time, so exported objects
get the paper's monitor-like mutual exclusion for free within one
export. A callee exception is reported back to synchronous callers (and
counted but dropped for one-way invocations, matching fire-and-forget
semantics).

A method may *block* by returning an event: the serve loop moves on at
once and the caller is answered with the event's value — or its failure,
typed like any callee exception — when it fires. Methods still run one
at a time; only the waiting overlaps, so replies to blocked callers
leave in the order their events fire. The attributes an exception's
class names in ``rpc_fields`` travel in the error reply's ``value``.

An exported class that sets ``authorizes_callers = True`` checks its own
callers: no ``rpc.call:<method>`` gate applies, and each method is
handed the calling :class:`~repro.rpc.messages.Invoke` (its
``principal``, its ``reply_to``) before the call's own arguments.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any

from repro.errors import SerializationError
from repro.net.address import InboxAddress
from repro.rpc.messages import Invoke, Reply
from repro.sim.events import Event

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
        self._authorizes_callers = getattr(obj, "authorizes_callers", False)
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
            self._answer(msg, self._apply(msg))

    def _apply(self, msg: Invoke) -> "Reply | Event":
        if msg.method.startswith("_"):
            return self._refusal(msg, PermissionError(
                f"method {msg.method!r} is not public"))
        owner = self.dapplet.owner
        if owner is not None and not self._authorizes_callers:
            # Owned exporter: the calling principal needs a per-method
            # grant (audited as a reg allow/deny event either way).
            verb = f"rpc.call:{msg.method}"
            if not self.dapplet.world.registry.check(
                    msg.principal, self.dapplet.manifest_name, verb,
                    owner=owner.name, node=self.dapplet.address):
                return self._refusal(msg, PermissionError(
                    f"capability:{verb} denied for principal "
                    f"{msg.principal!r}"))
        method = getattr(self.obj, msg.method, None)
        if method is None or not callable(method):
            return self._refusal(msg, AttributeError(
                f"no remote method {msg.method!r}"))
        args = (msg, *msg.args) if self._authorizes_callers else msg.args
        try:
            value = method(*args, **msg.kwargs)
        except Exception as exc:  # noqa: BLE001 - reported to the caller
            return self._refusal(msg, exc)
        return value if isinstance(value, Event) \
            else Reply(msg.call_id, ok=True, value=value)

    def _refusal(self, msg: Invoke, exc: BaseException) -> Reply:
        """``exc`` as an error reply; ``value`` carries the attributes
        its class names in ``rpc_fields`` (``None``, off the wire, if
        none)."""
        self.errors += 1
        fields = {name: getattr(exc, name)
                  for name in getattr(exc, "rpc_fields", ())}
        return Reply(msg.call_id, ok=False, value=fields or None,
                     error_type=type(exc).__name__, error_message=str(exc))

    def _answer(self, msg: Invoke, outcome: "Reply | Event") -> None:
        """Send ``msg``'s reply: ``outcome`` — or, for a method that
        blocked, what the event it returned fires with, once it has."""
        if isinstance(outcome, Event):
            if not outcome.processed:
                outcome.callbacks.append(partial(self._answer, msg))
                return
            if outcome.ok:
                outcome = Reply(msg.call_id, ok=True, value=outcome.value)
            else:
                outcome.defused = True  # reported, not left to crash the run
                outcome = self._refusal(msg, outcome.value)
        # One-way invocations drop the outcome; so does an event that
        # fires after the exporter stopped (nothing can leave it).
        if msg.reply_to is None or self.dapplet.stopped:
            return
        try:
            self.dapplet.post(msg.reply_to, outcome)
        except SerializationError as exc:
            # The method returned something the wire cannot carry: the
            # caller is told, and the serve loop lives to take the next.
            self.dapplet.post(msg.reply_to, self._refusal(msg, exc))

    def unexport(self) -> None:
        """Withdraw the object; the pointer dangles from then on."""
        self.dapplet.close_inbox(self.inbox)


def export(dapplet: "Dapplet", obj: Any, name: str | None = None) -> RemoteObject:
    """Publish ``obj`` on ``dapplet``; see :class:`RemoteObject`."""
    return RemoteObject(dapplet, obj, name=name)
