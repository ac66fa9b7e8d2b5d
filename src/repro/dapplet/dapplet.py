"""The ``Dapplet`` base class.

A dapplet is a process with a global address that communicates only
through its ports (inboxes and outboxes). Application dapplets subclass
this, create ports, and react to sessions via the
``on_session_start``/``on_session_end`` hooks; "threads within a
dapplet" are processes started with :meth:`spawn`.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, Generator

from repro.dapplet.acl import AccessControlList
from repro.dapplet.state import PersistentState
from repro.errors import AddressError, DappletError, DeliveryTimeout
from repro.mailbox.channel import channel_key
from repro.mailbox.inbox import Inbox
from repro.mailbox.outbox import Outbox, SendResult
from repro.messages.message import Message
from repro.net.address import InboxAddress, NodeAddress
from repro.net.endpoint import Endpoint
from repro.obs.metrics import Counters
from repro.sim.process import Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.session.manager import SessionManager
    from repro.session.session import SessionContext
    from repro.world import World

PortHook = Callable[[object], None]


class Dapplet:
    """Base class for all dapplets.

    Instances are created through :meth:`repro.world.World.dapplet`,
    which allocates the address, registers the dapplet under its name
    in the world, and calls :meth:`setup`.
    """

    #: Directory kind tag; subclasses set this ("calendar", "secretary"...).
    kind: str = ""
    #: Owning :class:`~repro.registry.Principal`, stamped by
    #: ``World.dapplet(..., owner=...)``. ``None`` means unowned — no
    #: capability enforcement applies (the pre-registry behaviour).
    owner = None
    #: Manifest metadata for the DAppStore (see ``docs/REGISTRY.md``):
    #: a free-form schema tag, the RPC methods the dapplet exports, and
    #: the capability verbs a peer must hold to link a session (checked
    #: in addition to ``session.establish``). Subclasses override as
    #: class attributes; ``World.dapplet`` accepts per-instance
    #: ``requires=`` / ``schema=`` / ``exports=`` overrides.
    schema: str = ""
    exports: tuple = ()
    requires: tuple = ()

    def __init__(self, world: "World", address: NodeAddress,
                 name: str) -> None:
        self.world = world
        # The substrate's scheduler half, under its historical name: the
        # same object whether the world runs simulated or on asyncio.
        self.kernel = world.substrate
        self.address = address
        self.name = name
        self.endpoint = Endpoint(world.substrate, world.substrate.datagrams,
                                 address, **world.endpoint_options)
        #: Every component's counter group, added by the component.
        self.counters: list[Counters] = [self.endpoint.stats]
        self.acl = AccessControlList()
        # Worlds with a storage backend give every dapplet a durable,
        # journaled state namespaced by its (unique) name — so a
        # restarted dapplet recovers exactly what its predecessor
        # journaled (see World.restart_dapplet).
        backend = world.backend_for(name)
        if backend is not None:
            from repro.store.durable import DurableState
            durable = DurableState(backend, name=f"dapplet/{name}",
                                   substrate=world.substrate, node=address)
            self.counters.append(durable.stats)
            self.state = PersistentState(durable)
        else:
            self.state = PersistentState()
        self._inbox_refs = itertools.count()
        self._outbox_refs = itertools.count()
        self.inboxes: dict[int, Inbox] = {}
        self.outboxes: dict[int, Outbox] = {}
        self._named_inboxes: dict[str, Inbox] = {}
        #: Destination inbox -> the one-target outbox :meth:`post` uses.
        self._posts: dict[InboxAddress, Outbox] = {}
        #: The reply half of this dapplet's RPC calls, made by its first
        #: :class:`~repro.rpc.RemoteProxy`.
        self._rpc_client = None
        self._processes: list[Process] = []
        #: Called with every newly created Inbox/Outbox; services (e.g.
        #: logical clocks) use this to hook all of a dapplet's ports.
        self.port_hooks: list[PortHook] = []
        self._session_manager: "SessionManager | None" = None
        self._stopped = False
        # The message-passing layer provides every dapplet a logical
        # clock satisfying the global snapshot criterion (paper §4.2).
        from repro.services.clocks.lamport import LamportClock
        self.clock = LamportClock(self)
        # An attached tracer stamps this dapplet's events with its
        # Lamport clock (worlds attach tracers; see repro.obs).
        tracer = self.kernel.tracer
        if tracer is not None:
            tracer.register_clock(address, self.clock)
        self.setup()
        # Every dapplet listens for link requests from the moment it is
        # installed (the paper's model: dapplets are installed first,
        # sessions arrive later); the property creates the manager here
        # unless setup() already used it.
        self.sessions  # noqa: B018

    @property
    def manifest_name(self) -> str:
        """This dapplet's hierarchical DAppStore name.

        ``org/app/instance``: the owner's namespace, the dapplet's
        ``kind`` (``"app"`` when unset), and its world-unique name.
        Unowned dapplets use the ``"_"`` namespace.
        """
        namespace = self.owner.namespace if self.owner is not None else "_"
        return f"{namespace}/{self.kind or 'app'}/{self.name}"

    @property
    def principal(self) -> str:
        """The owning principal's name, stamped on every gated request
        this dapplet sends ("" when unowned — never gated)."""
        return self.owner.name if self.owner is not None else ""

    # -- subclass hooks ---------------------------------------------------

    def setup(self) -> None:
        """Create long-lived ports and state; called once at creation."""

    def main(self) -> "Generator | None":
        """Optional main behaviour; return a generator to run it.

        Started by :meth:`start`. Dapplets that only react to sessions
        do not need one.
        """
        return None

    def on_session_start(self, ctx: "SessionContext") -> "Generator | None":
        """Called when a session this dapplet joined becomes active.

        Returning a generator runs it as this member's session process.
        """
        return None

    def on_session_end(self, ctx: "SessionContext") -> None:
        """Called when a session terminates or this member leaves."""

    # -- ports --------------------------------------------------------------

    def create_inbox(self, name: str | None = None) -> Inbox:
        """A new inbox; optionally addressable by ``name``."""
        self._ensure_live()
        if name is not None and name in self._named_inboxes:
            raise DappletError(
                f"dapplet {self.name!r} already has an inbox named {name!r}")
        ref = next(self._inbox_refs)
        inbox = Inbox(self.kernel, self.endpoint, ref, name=name)
        self.inboxes[ref] = inbox
        if name is not None:
            self._named_inboxes[name] = inbox
        for hook in self.port_hooks:
            hook(inbox)
        return inbox

    def create_outbox(self, *, delivery: str | None = None,
                      skip_timeout: float | None = None) -> Outbox:
        """A new outbox (initially bound to nothing).

        ``delivery`` picks the delivery class of its channels (see
        :mod:`repro.net.delivery`); ``None`` means RELIABLE. A class is
        chosen here or per session binding, never endpoint-wide, so the
        channels :meth:`post` opens for RPC, session link-up and leases
        stay RELIABLE. ``skip_timeout`` tunes the RELIABLE_SKIP abandon
        deadline for this outbox's channels.
        """
        self._ensure_live()
        ref = next(self._outbox_refs)
        outbox = Outbox(self.kernel, self.endpoint, ref,
                        delivery=delivery, skip_timeout=skip_timeout)
        self.outboxes[ref] = outbox
        for hook in self.port_hooks:
            hook(outbox)
        return outbox

    def post(self, to: InboxAddress, message: Message) -> SendResult:
        """Send ``message`` to the inbox ``to`` — the paper's asynchronous
        RPC to a global pointer. Every servlet's requests and replies
        leave through here, so the rule below is stated once.

        The dapplet keeps one channel per destination inbox, created on
        the first post. A channel the transport has declared broken (a
        fault outlived its retry budget) is replaced, once, and the
        message resent on the fresh one, so traffic resumes when the
        network heals. Any other failure — a payload over the frame
        ceiling, say — says nothing about the channel, which stays.
        On a stopped dapplet it raises :class:`AddressError`, as a send
        on its closed endpoint does, whether or not a channel was open.
        Returns the :class:`SendResult` of the send that went out.
        """
        outbox = self._posts.get(to)
        if outbox is not None:
            sent = outbox.send(message)
            if not any(r.is_failed and isinstance(r.confirmed.value,
                                                  DeliveryTimeout)
                       for r in sent.receipts):
                return sent
            self.unpost(to)
        if self._stopped:
            raise AddressError(f"endpoint {self.address} is closed")
        outbox = self._posts[to] = self.create_outbox()
        outbox.add(to)
        return outbox.send(message)

    def unpost(self, to: InboxAddress) -> None:
        """Forget the channel :meth:`post` keeps to ``to`` (a later post
        opens a new one). Outbox refs are never reused, so the channel
        can never be sent on again: if the transport had given it up,
        the endpoint drops its stream too."""
        outbox = self._posts.pop(to, None)
        if outbox is not None:
            self.outboxes.pop(outbox.ref, None)
            self.endpoint.forget_broken(
                to.node, channel_key(self.address, outbox.ref, to))

    def inbox_named(self, name: str) -> Inbox:
        try:
            return self._named_inboxes[name]
        except KeyError:
            raise DappletError(
                f"dapplet {self.name!r} has no inbox named {name!r}") from None

    def close_inbox(self, inbox: Inbox) -> None:
        inbox.close()
        self.inboxes.pop(inbox.ref, None)
        if inbox.name is not None:
            self._named_inboxes.pop(inbox.name, None)

    # -- processes ("threads within a dapplet") ------------------------------

    def spawn(self, body: Generator, name: str | None = None) -> Process:
        """Start a process belonging to this dapplet."""
        self._ensure_live()
        process = self.kernel.process(
            body, name=f"{self.name}/{name or 'proc'}")
        self._processes.append(process)
        return process

    def start(self) -> "Process | None":
        """Start :meth:`main` if the subclass defines one."""
        body = self.main()
        if body is None:
            return None
        return self.spawn(body, name="main")

    # -- sessions -------------------------------------------------------------

    @property
    def sessions(self) -> "SessionManager":
        """This dapplet's session manager (created on first use)."""
        if self._session_manager is None:
            from repro.session.manager import SessionManager
            self._session_manager = SessionManager(self)
        return self._session_manager

    # -- lifecycle --------------------------------------------------------------

    @property
    def stopped(self) -> bool:
        return self._stopped

    def stop(self) -> None:
        """Detach from the network; live processes are left to drain."""
        if self._stopped:
            return
        self._stopped = True
        for inbox in list(self.inboxes.values()):
            inbox.close()
        self.endpoint.close()
        self.world._forget_dapplet(self)

    def _ensure_live(self) -> None:
        if self._stopped:
            raise DappletError(f"dapplet {self.name!r} is stopped")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r} @ {self.address}>"
