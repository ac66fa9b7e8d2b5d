"""Outboxes.

The paper's outbox methods (§3.2):

* ``add(ipa)`` — :meth:`Outbox.add`: bind to an inbox address ("appends
  the specified inbox to the list *inboxes* if it is not already on the
  list"; idempotent by specification);
* ``delete(ipa)`` — :meth:`Outbox.delete`: unbind ("otherwise throws an
  exception");
* ``send(msg)`` — :meth:`Outbox.send`: "sends a copy of the object
  *msg* along each output channel connected to the outbox. If this
  message is not delivered within a specified time, an exception is
  raised";
* ``destination()`` — :meth:`Outbox.destinations`.

``add``/``delete`` are polymorphic exactly as the paper describes: an
inbox may be given by its integer-reference global address or by its
(dapplet address, string name) pair; the two forms denote distinct
channel bindings only if both are added (normally an application picks
one form).
"""

from __future__ import annotations

from typing import Callable

from repro.errors import BindingError
from repro.mailbox.channel import Channel, channel_key
from repro.mailbox.inbox import Inbox
from repro.messages.message import Message
from repro.messages.serialize import dumps
from repro.net.address import InboxAddress
from repro.net.delivery import RELIABLE, validate_delivery
from repro.net.endpoint import DeliveryReceipt, Endpoint
from repro.runtime.substrate import Scheduler
from repro.sim.events import AllOf, Event

SendHook = Callable[[Message], Message]


class SendResult:
    """The outcome of one ``send``: one receipt per bound channel.

    ``confirmed()`` builds an event that fires once every copy has been
    acknowledged (or, on RELIABLE_SKIP channels, abandoned at the skip
    timeout — check each receipt's ``is_skipped``), or fails with
    :class:`DeliveryTimeout` if any copy missed its deadline. On
    UNRELIABLE-class channels there are no receipts and ``confirmed()``
    fires immediately.
    """

    def __init__(self, kernel: Scheduler,
                 receipts: list[DeliveryReceipt]) -> None:
        self.kernel = kernel
        self.receipts = receipts

    def confirmed(self) -> Event:
        return AllOf(self.kernel, [r.confirmed for r in self.receipts])

    @property
    def copies(self) -> int:
        return len(self.receipts)


class Outbox:
    """A send port; owns one FIFO channel per bound inbox.

    ``delivery`` picks the delivery class of every channel of this
    outbox (see :mod:`repro.net.delivery`); ``None`` means RELIABLE.
    ``skip_timeout`` tunes the RELIABLE_SKIP abandon deadline
    for this outbox's channels (``None`` = the endpoint's).
    """

    def __init__(self, kernel: Scheduler, endpoint: Endpoint, ref: int, *,
                 delivery: str | None = None,
                 skip_timeout: float | None = None) -> None:
        self.kernel = kernel
        self.endpoint = endpoint
        self.ref = ref
        self.delivery = (RELIABLE if delivery is None
                         else validate_delivery(delivery))
        if skip_timeout is not None and skip_timeout <= 0:
            raise ValueError("skip_timeout must be > 0")
        self.skip_timeout = skip_timeout
        self._channels: dict[InboxAddress, Channel] = {}
        #: Applied in order to each copy before serialization (the
        #: logical-clock service stamps timestamps here).
        self.send_hooks: list[SendHook] = []
        self.messages_sent = 0

    # -- the paper's API ---------------------------------------------------

    def add(self, target: "InboxAddress | Inbox") -> None:
        """Bind this outbox to an inbox (idempotent, per the paper)."""
        address = self._resolve(target)
        if address in self._channels:
            return
        self._channels[address] = Channel(
            channel_key(self.endpoint.address, self.ref, address))

    def delete(self, target: "InboxAddress | Inbox") -> None:
        """Unbind; raises :class:`BindingError` if not bound (per the paper)."""
        address = self._resolve(target)
        if address not in self._channels:
            raise BindingError(
                f"outbox {self.endpoint.address}/o{self.ref} is not bound "
                f"to {address}")
        del self._channels[address]

    def destinations(self) -> tuple[InboxAddress, ...]:
        """The paper's ``destination()``: the bound inbox addresses."""
        return tuple(self._channels)

    def is_bound_to(self, target: "InboxAddress | Inbox") -> bool:
        return self._resolve(target) in self._channels

    def send(self, message: Message,
             timeout: float | None = None) -> SendResult:
        """Send a copy of ``message`` along every bound channel, each in
        its channel's delivery class (UNRELIABLE copies yield no
        receipts).

        The paper models this as append-to-outbox plus a layer that
        drains the queue to all channels; since the drain is immediate
        and per-channel FIFO is preserved by the transport, doing both
        in one call is observationally equivalent.

        With no bindings and no ``timeout``, sending is a legal fan-out
        of zero copies: the returned result has ``copies == 0`` and its
        ``confirmed()`` fires immediately (vacuous truth). Asking for a
        ``timeout`` on an unbound outbox raises :class:`BindingError`
        instead — there is no channel whose delivery could ever be
        confirmed or time out, and a silently instant "success" would
        mask a wiring bug (matching :meth:`send_confirmed`).
        """
        if timeout is not None and not self._channels:
            raise BindingError(
                f"outbox {self.endpoint.address}/o{self.ref} has no bindings")
        wire = dumps(self._apply_hooks(message))
        receipts: list[DeliveryReceipt] = []
        tr = self.kernel.tracer
        for address, chan in self._channels.items():
            if tr is not None:
                tr.emit("mbox", "send", node=self.endpoint.address,
                        ch=chan.key, outbox=self.ref,
                        msg=type(message).__name__, size=len(wire))
            receipt = self.endpoint.send(address, wire, chan.key,
                                         timeout=timeout,
                                         delivery=self.delivery,
                                         skip_timeout=self.skip_timeout)
            chan.copies_sent += 1
            chan.bytes_sent += len(wire)
            if receipt is not None:
                receipts.append(receipt)
        self.messages_sent += 1
        return SendResult(self.kernel, receipts)

    def writable(self) -> Event:
        """An event firing when every bound channel's send window accepts
        a new packet (immediately when nothing is queued — including
        with no bindings at all). Fails with
        :class:`~repro.errors.AddressError` if the endpoint closes while
        a channel is blocked, so waiters never hang on a window that
        cannot reopen."""
        events = [self.endpoint.writable(address.node, chan.key)
                  for address, chan in self._channels.items()]
        if not events:
            ev = self.kernel.event()
            ev.succeed(None)
            return ev
        if len(events) == 1:
            return events[0]
        return AllOf(self.kernel, events)

    def send_flow(self, message: Message, timeout: float | None = None):
        """Backpressure-respecting ``send``: a generator to delegate to
        from a process body::

            result = yield from outbox.send_flow(message)

        Blocks (in substrate time — virtual on the simulator, real on
        asyncio) while any bound channel's bytes-in-flight sit at
        ``min(cwnd, rwnd)``, then sends exactly like :meth:`send` and
        returns its :class:`SendResult`. This is what keeps a
        cooperative sender's retransmit queue bounded by the window
        instead of growing with everything ever sent. Raises
        :class:`~repro.errors.AddressError` if the endpoint is closed
        while blocked (see :meth:`Endpoint.writable`)."""
        yield self.writable()
        return self.send(message, timeout=timeout)

    def send_confirmed(self, message: Message, timeout: float) -> Event:
        """``send`` + the confirmation event, in one call.

        Yield this from a process to block until every copy is
        delivered; raises :class:`DeliveryTimeout` on expiry — the
        paper's exception-on-undelivered semantics in blocking form.
        """
        if not self._channels:
            raise BindingError(
                f"outbox {self.endpoint.address}/o{self.ref} has no bindings")
        if timeout is None:
            raise ValueError("send_confirmed requires a timeout")
        return self.send(message, timeout=timeout).confirmed()

    # -- helpers -----------------------------------------------------------

    def _apply_hooks(self, message: Message) -> Message:
        for hook in self.send_hooks:
            message = hook(message)
        return message

    @staticmethod
    def _resolve(target: "InboxAddress | Inbox") -> InboxAddress:
        if isinstance(target, Inbox):
            return target.address
        if isinstance(target, InboxAddress):
            return target
        raise TypeError(f"expected InboxAddress or Inbox, got {target!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Outbox {self.endpoint.address}/o{self.ref} "
                f"channels={len(self._channels)}>")
