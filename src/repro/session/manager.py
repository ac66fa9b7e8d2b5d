"""The per-dapplet session manager servlet.

Every dapplet runs one: it exports a :class:`SessionFacet` on the
well-known ``_session`` inbox, and initiators call it (see
:mod:`repro.rpc`). ``prepare`` checks the access-control list, the
initiating principal's capability grants (on owned dapplets; see
:mod:`repro.registry`) and session interference, creates the member's
session inboxes, and returns their global addresses; ``commit`` builds
and binds the outboxes and hands the application its
:class:`SessionContext`; ``unlink`` / ``abort`` tear down.
``bind_add`` / ``bind_remove`` rewire channels when the session grows or
shrinks.

A prepared member whose initiator never commits or aborts is released
at the initiator's own deadline: ``prepare`` carries the time the
initiator has left, and the next facet call after ``receipt + timeout``
aborts the entry (presumed abort). No timer is armed per session, and a
committed session is never touched.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import TYPE_CHECKING

from repro.errors import BindingError, SessionError, SessionRejected
from repro.mailbox.inbox import Inbox
from repro.net.address import InboxAddress, NodeAddress
from repro.obs.metrics import Counters
from repro.rpc.remote import export
from repro.session.interference import regions_conflict
from repro.session.session import SessionContext
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.dapplet.dapplet import Dapplet
    from repro.rpc.messages import Invoke

#: Well-known name of the session-control inbox on every dapplet.
CONTROL_INBOX = "_session"


class SessionStats(Counters):
    """Link-up counters of one session manager (all monotonic)."""

    layer = "session"
    __slots__ = ("prepares", "accepts", "rejects_acl", "rejects_capability",
                 "rejects_interference", "queued", "commits", "unlinks",
                 "aborts")


@dataclass
class _Prepare:
    """One prepare call as received; a queued one waits in this form."""

    session_id: str
    app: str
    member: str
    initiator: NodeAddress
    principal: str
    inboxes: tuple
    regions: dict[str, str]
    queue: bool
    #: Receipt time plus the initiator's remaining timeout: never earlier
    #: than the moment the initiator gives up.
    deadline: float
    #: Fires with the ports once a queued prepare is admitted.
    admitted: Event | None = None


@dataclass
class _Entry:
    """One session this dapplet is (or is preparing to be) part of."""

    session_id: str
    app: str
    member: str
    regions: dict[str, str]
    deadline: float
    inboxes: dict[str, Inbox] = dc_field(default_factory=dict)
    ctx: SessionContext | None = None

    @property
    def active(self) -> bool:
        return self.ctx is not None and self.ctx.active

    def ports(self) -> dict[str, InboxAddress]:
        return {n: ib.named_address for n, ib in self.inboxes.items()}


class SessionFacet:
    """What a dapplet exports on ``_session``: the link-up protocol.

    The manager itself is not exported, so ``active_sessions()`` and
    ``stats`` cannot be invoked from the network. The facet checks its
    own callers (ACL, ``session.establish`` and the manifest's
    ``requires``), so no ``rpc.call:<method>`` gate applies and each
    method is handed the calling ``Invoke``. Every call first releases
    the prepares whose initiator has given up.
    """

    authorizes_callers = True

    def __init__(self, manager: "SessionManager") -> None:
        self._manager = manager

    def prepare(self, caller: "Invoke", session_id: str, app: str,
                member: str, inboxes, regions, queue: bool,
                timeout: float) -> "dict | Event":
        """Link ``member`` up: its session ports, or — ``queue`` and
        interference — an event firing with them once admitted. Raises
        :class:`SessionRejected` with the reason as its message."""
        manager = self._manager
        manager._release_expired()
        return manager._prepare(_Prepare(
            session_id, app, member, caller.reply_to.node, caller.principal,
            tuple(inboxes), dict(regions), queue,
            manager.kernel.now + timeout))

    def commit(self, caller: "Invoke", session_id: str, outboxes,
               params, deliveries) -> None:
        self._manager._release_expired()
        self._manager._commit(session_id, outboxes, params, deliveries)

    def abort(self, caller: "Invoke", session_id: str) -> None:
        self._manager._release_expired()
        self._manager._abort(session_id)

    def unlink(self, caller: "Invoke", session_id: str) -> None:
        """Answered for any session, known or not (a member that left
        answers its initiator's unlink itself)."""
        self._manager._release_expired()
        self._manager._unlink(session_id)

    def bind_add(self, caller: "Invoke", session_id: str, outbox: str,
                 targets, delivery: str) -> None:
        self._manager._release_expired()
        self._manager._bind_add(session_id, outbox, targets, delivery)

    def bind_remove(self, caller: "Invoke", session_id: str, outbox: str,
                    targets) -> None:
        self._manager._release_expired()
        self._manager._bind_remove(session_id, outbox, targets)


class SessionManager:
    """Speaks the session protocol on behalf of one dapplet."""

    def __init__(self, dapplet: "Dapplet") -> None:
        self.dapplet = dapplet
        self.kernel = dapplet.kernel
        self.stats = SessionStats()
        dapplet.counters.append(self.stats)
        self._entries: dict[str, _Entry] = {}
        #: Prepares held back by interference (queue=True), FIFO.
        self._admission_queue: list[_Prepare] = []
        self._remote = export(dapplet, SessionFacet(self), name=CONTROL_INBOX)
        self.inbox = self._remote.inbox

    # -- helpers ----------------------------------------------------------

    def active_sessions(self) -> list[str]:
        return sorted(sid for sid, e in self._entries.items() if e.active)

    def _blocked(self, req: _Prepare, ahead: list[_Prepare]) -> bool:
        """Does ``req`` conflict with an active entry, or with a queued
        prepare ``ahead`` of it? (FIFO fairness: a prepare never
        overtakes a conflicting one queued before it.)"""
        return any(regions_conflict(req.regions, other.regions)
                   for others in (self._entries.values(), ahead)
                   for other in others)

    def _admit_queued(self) -> None:
        """Admit queued prepares whose conflicts are gone.

        One pass, in arrival order: a candidate still waiting is
        ``ahead`` of every later one, and an admission only adds an
        active entry, which unblocks nothing.
        """
        earlier: list[_Prepare] = []
        for req in list(self._admission_queue):
            if self._blocked(req, earlier):
                earlier.append(req)
                continue
            self._admission_queue.remove(req)
            try:
                req.admitted.succeed(self._prepare(req, from_queue=True))
            except SessionRejected as exc:
                req.admitted.fail(exc)

    def _release_expired(self) -> None:
        """Presumed abort: drop queued prepares and abort prepared
        (uncommitted) entries whose initiator's deadline has passed."""
        now = self.kernel.now
        self._admission_queue = [q for q in self._admission_queue
                                 if q.deadline >= now]
        for sid in [sid for sid, e in self._entries.items()
                    if e.ctx is None and e.deadline < now]:
            self._abort(sid)
        self._admit_queued()

    def _denied_verb(self, principal: str) -> "str | None":
        """The first session-gate verb ``principal`` lacks, or ``None``.

        Checked against the world registry: ``session.establish``
        first, then each verb the dapplet's manifest ``requires``.
        Every check emits a ``reg`` allow/deny audit event.
        """
        dapplet = self.dapplet
        registry = dapplet.world.registry
        target = dapplet.manifest_name
        owner = dapplet.owner.name
        for verb in ("session.establish", *dapplet.requires):
            if not registry.check(principal, target, verb, owner=owner,
                                  node=dapplet.address):
                return verb
        return None

    def _reject(self, req: _Prepare, reason: str) -> SessionRejected:
        tr = self.kernel.tracer
        if tr is not None:
            tr.emit("session", "reject", node=self.dapplet.address,
                    sid=req.session_id, member=req.member, reason=reason)
        return SessionRejected(reason, participant=req.member, reason=reason)

    # -- protocol steps (reached through the facet) ----------------------------

    def _prepare(self, req: _Prepare, *,
                 from_queue: bool = False) -> "dict | Event":
        self.stats.prepares += 1
        existing = self._entries.get(req.session_id)
        if existing is not None:
            # Duplicate prepare (initiator retry): re-accept idempotently.
            self.stats.accepts += 1
            return existing.ports()
        if not self.dapplet.acl.allows(req.initiator):
            self.stats.rejects_acl += 1
            raise self._reject(req, "acl")
        if self.dapplet.owner is not None:
            # Owned dapplet: the initiating principal must hold
            # session.establish plus every manifest-required verb.
            denied = self._denied_verb(req.principal)
            if denied is not None:
                self.stats.rejects_capability += 1
                raise self._reject(req, f"capability:{denied}")
        if not from_queue:
            for queued in self._admission_queue:
                if queued.session_id == req.session_id:
                    return queued.admitted  # a retry changes nothing
        if self._blocked(req, [] if from_queue else self._admission_queue):
            if req.queue:
                # "Not scheduled concurrently": admit later, in arrival
                # order, once the conflicting sessions are gone.
                self.stats.queued += 1
                req.admitted = self.kernel.event()
                self._admission_queue.append(req)
                return req.admitted
            self.stats.rejects_interference += 1
            raise self._reject(req, "interference")

        entry = _Entry(session_id=req.session_id, app=req.app,
                       member=req.member, regions=req.regions,
                       deadline=req.deadline)
        for port_name in req.inboxes:
            entry.inboxes[port_name] = self.dapplet.create_inbox(
                name=f"{req.session_id}:{port_name}")
        self._entries[req.session_id] = entry
        self.stats.accepts += 1
        return entry.ports()

    def _commit(self, session_id: str, outboxes, params,
                deliveries) -> None:
        entry = self._entries.get(session_id)
        if entry is None:
            raise SessionError(f"no prepared session {session_id!r}")
        if entry.ctx is not None:
            return  # duplicate commit
        self.stats.commits += 1
        ctx = SessionContext(
            self.dapplet, session_id, entry.app, entry.member,
            params, dict(entry.inboxes), entry.regions)
        for name, targets in outboxes.items():
            outbox = self.dapplet.create_outbox(delivery=deliveries.get(name))
            for target in targets:
                outbox.add(target)
            ctx._outboxes[name] = outbox
        entry.ctx = ctx
        ctx.active = True
        tr = self.kernel.tracer
        if tr is not None:
            tr.emit("session", "join", node=self.dapplet.address,
                    sid=session_id, member=entry.member, app=entry.app)
        monitor = getattr(self.dapplet.world, "interference_monitor", None)
        if monitor is not None:
            monitor.activated(self.dapplet.name, session_id, entry.regions)
        body = self.dapplet.on_session_start(ctx)
        if body is not None:
            ctx.process = self.dapplet.spawn(body, name=f"session:{session_id}")

    def _abort(self, session_id: str) -> None:
        self._admission_queue = [q for q in self._admission_queue
                                 if q.session_id != session_id]
        entry = self._entries.pop(session_id, None)
        if entry is not None:
            self.stats.aborts += 1
            tr = self.kernel.tracer
            if tr is not None:
                tr.emit("session", "abort", node=self.dapplet.address,
                        sid=entry.session_id, member=entry.member)
            for inbox in entry.inboxes.values():
                self.dapplet.close_inbox(inbox)
        self._admit_queued()

    def _bind_add(self, session_id: str, name: str, targets,
                  delivery: str) -> None:
        entry = self._entries.get(session_id)
        if entry is None or entry.ctx is None:
            raise SessionError(f"no committed session {session_id!r}")
        ctx = entry.ctx
        outbox = ctx._outboxes.get(name)
        if outbox is None:
            outbox = ctx._outboxes[name] = self.dapplet.create_outbox(
                delivery=delivery or None)
        for target in targets:
            outbox.add(target)

    def _bind_remove(self, session_id: str, name: str, targets) -> None:
        entry = self._entries.get(session_id)
        if entry is None or entry.ctx is None:
            return
        outbox = entry.ctx._outboxes.get(name)
        if outbox is None:
            return
        for target in targets:
            try:
                outbox.delete(target)
            except BindingError:
                pass  # already gone; removal is idempotent

    # -- teardown ------------------------------------------------------------

    def _teardown(self, entry: _Entry) -> None:
        self.stats.unlinks += 1
        tr = self.kernel.tracer
        if tr is not None:
            tr.emit("session", "leave", node=self.dapplet.address,
                    sid=entry.session_id, member=entry.member)
        self._entries.pop(entry.session_id, None)
        ctx = entry.ctx
        for inbox in entry.inboxes.values():
            self.dapplet.close_inbox(inbox)
        if ctx is not None:
            # Session outboxes die with the session ("component dapplets
            # unlink themselves from each other").
            for outbox in ctx._outboxes.values():
                self.dapplet.outboxes.pop(outbox.ref, None)
        if ctx is not None and ctx.active:
            ctx.active = False
            monitor = getattr(self.dapplet.world, "interference_monitor", None)
            if monitor is not None:
                monitor.deactivated(self.dapplet.name, entry.session_id)
            self.dapplet.on_session_end(ctx)
        # Freed regions may unblock queued admissions.
        self._admit_queued()

    def _unlink(self, session_id: str) -> None:
        """End this member's part in ``session_id``, if it has one (also
        :meth:`SessionContext.leave`)."""
        entry = self._entries.get(session_id)
        if entry is not None:
            self._teardown(entry)
