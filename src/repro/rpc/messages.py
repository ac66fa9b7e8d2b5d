"""Wire messages of the RPC protocol."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.messages.message import Message, message_type
from repro.net.address import InboxAddress


@message_type("rpc.invoke")
@dataclass(frozen=True)
class Invoke(Message):
    """A method invocation. ``reply_to`` of ``None`` makes it one-way,
    with no ``call_id`` (keyword-only, to keep its place on the wire)."""

    call_id: int = field(default=0, kw_only=True)
    method: str
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    reply_to: "InboxAddress | None" = None
    #: Calling dapplet's owning principal ("" when unowned). Owned
    #: callees check ``rpc.call:<method>`` against it; the default
    #: keeps pre-registry frames serializing byte-identically.
    principal: str = ""


@message_type("rpc.reply")
@dataclass(frozen=True)
class Reply(Message):
    call_id: int
    ok: bool
    value: object = None
    error_type: str = ""
    error_message: str = ""
