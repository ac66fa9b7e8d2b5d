"""The per-dapplet session manager servlet.

Every dapplet runs one: a server process on the well-known ``_session``
inbox that speaks the link-up protocol. On ``Prepare`` it checks the
access-control list, the initiating principal's capability grants (on
owned dapplets; see :mod:`repro.registry`) and session interference,
creates the member's session inboxes, and replies with their
global addresses; on ``Commit`` it builds and binds the outboxes, hands
the application its :class:`SessionContext`, and reports ``Ready``; on
``Unlink``/``Abort`` it tears down. ``BindAdd``/``BindRemove`` rewire
channels when the session grows or shrinks.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import TYPE_CHECKING

from repro.errors import BindingError
from repro.mailbox.inbox import Inbox
from repro.net.address import InboxAddress
from repro.session import messages as sm
from repro.session.interference import regions_conflict
from repro.session.session import SessionContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.dapplet.dapplet import Dapplet

#: Well-known name of the session-control inbox on every dapplet.
CONTROL_INBOX = "_session"

#: How many ended-session reply addresses to remember for acknowledging
#: duplicate unlinks. Bounds state on long-lived dapplets; a duplicate
#: unlink for a session older than the newest TOMBSTONES is silently
#: dropped, which the initiator's terminate timeout already tolerates.
TOMBSTONES = 256


@dataclass
class SessionStats:
    prepares: int = 0
    accepts: int = 0
    rejects_acl: int = 0
    rejects_capability: int = 0
    rejects_interference: int = 0
    queued: int = 0
    commits: int = 0
    unlinks: int = 0
    aborts: int = 0


#: Historical name of :class:`SessionStats`, kept for compatibility.
ManagerStats = SessionStats


@dataclass
class _Entry:
    """One session this dapplet is (or is preparing to be) part of."""

    session_id: str
    app: str
    member: str
    regions: dict[str, str]
    reply_to: InboxAddress
    inboxes: dict[str, Inbox] = dc_field(default_factory=dict)
    ctx: SessionContext | None = None

    @property
    def active(self) -> bool:
        return self.ctx is not None and self.ctx.active


class SessionManager:
    """Speaks the session protocol on behalf of one dapplet."""

    def __init__(self, dapplet: "Dapplet") -> None:
        self.dapplet = dapplet
        self.kernel = dapplet.kernel
        self.stats = SessionStats()
        self._entries: dict[str, _Entry] = {}
        #: Prepares held back by interference (queue=True), FIFO.
        self._admission_queue: list[sm.Prepare] = []
        #: session id -> last known reply address (survives teardown so
        #: duplicate terminations still get acknowledged).
        self._reply_addresses: dict[str, InboxAddress] = {}
        self.inbox = dapplet.create_inbox(name=CONTROL_INBOX)
        self.server = dapplet.spawn(self._serve(), name="session-manager")

    # -- helpers ----------------------------------------------------------

    def active_sessions(self) -> list[str]:
        return sorted(sid for sid, e in self._entries.items() if e.active)

    def _interferes(self, regions: dict[str, str]) -> bool:
        return any(regions_conflict(regions, e.regions)
                   for e in self._entries.values())

    def _queued_ahead(self, msg: sm.Prepare) -> bool:
        """FIFO fairness for *fresh* arrivals: a prepare that conflicts
        with an already-queued one waits behind it rather than
        overtaking it. (Admissions from the queue itself never consult
        this — they are FIFO-selected by :meth:`_admit_queued`.)"""
        return any(regions_conflict(dict(msg.regions), dict(q.regions))
                   for q in self._admission_queue
                   if q.session_id != msg.session_id)

    def _admit_queued(self) -> None:
        """Admit queued prepares whose conflicts are gone.

        FIFO with no conflicting overtake: a candidate is admitted only
        if it conflicts neither with active entries nor with any
        *earlier* queued prepare.
        """
        progressed = True
        while progressed:
            progressed = False
            earlier: list[sm.Prepare] = []
            for msg in list(self._admission_queue):
                if msg.session_id in self._entries:
                    self._admission_queue.remove(msg)  # duplicate
                    progressed = True
                    break
                regions = dict(msg.regions)
                if not self._interferes(regions) and not any(
                        regions_conflict(regions, dict(e.regions))
                        for e in earlier):
                    self._admission_queue.remove(msg)
                    self._on_prepare(msg, from_queue=True)
                    progressed = True
                    break
                earlier.append(msg)

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

    # -- the server loop -----------------------------------------------------

    def _serve(self):
        handlers = {
            sm.Prepare: self._on_prepare,
            sm.Commit: self._on_commit,
            sm.Abort: self._on_abort,
            sm.Unlink: self._on_unlink,
            sm.BindAdd: self._on_bind_add,
            sm.BindRemove: self._on_bind_remove,
        }
        while True:
            msg = yield self.inbox.receive()
            handler = handlers.get(type(msg))
            if handler is not None:
                handler(msg)
            # Unknown control messages are ignored (forward compatibility).

    # -- protocol handlers -----------------------------------------------------

    def _on_prepare(self, msg: sm.Prepare, *, from_queue: bool = False) -> None:
        self.stats.prepares += 1
        existing = self._entries.get(msg.session_id)
        if existing is not None:
            # Duplicate prepare (initiator retry): re-accept idempotently.
            self.stats.accepts += 1
            self.dapplet.post(msg.reply_to, sm.Accept(
                msg.session_id, existing.member,
                {n: ib.named_address for n, ib in existing.inboxes.items()}))
            return
        tr = self.kernel.tracer
        if not self.dapplet.acl.allows(msg.initiator):
            self.stats.rejects_acl += 1
            if tr is not None:
                tr.emit("session", "reject", node=self.dapplet.address,
                        sid=msg.session_id, member=msg.member, reason="acl")
            self.dapplet.post(msg.reply_to, sm.Reject(
                msg.session_id, msg.member, reason="acl"))
            return
        if self.dapplet.owner is not None:
            # Owned dapplet: the initiating principal must hold
            # session.establish plus every manifest-required verb.
            denied = self._denied_verb(msg.principal)
            if denied is not None:
                self.stats.rejects_capability += 1
                reason = f"capability:{denied}"
                if tr is not None:
                    tr.emit("session", "reject", node=self.dapplet.address,
                            sid=msg.session_id, member=msg.member,
                            reason=reason)
                self.dapplet.post(msg.reply_to, sm.Reject(
                    msg.session_id, msg.member, reason=reason))
                return
        if not from_queue and any(q.session_id == msg.session_id
                                  for q in self._admission_queue):
            return  # already queued; a retry changes nothing
        regions = dict(msg.regions)
        if self._interferes(regions) or (not from_queue
                                         and self._queued_ahead(msg)):
            if msg.queue:
                # "Not scheduled concurrently": admit later, in arrival
                # order, once the conflicting sessions are gone.
                self.stats.queued += 1
                self._admission_queue.append(msg)
                return
            self.stats.rejects_interference += 1
            if tr is not None:
                tr.emit("session", "reject", node=self.dapplet.address,
                        sid=msg.session_id, member=msg.member,
                        reason="interference")
            self.dapplet.post(msg.reply_to, sm.Reject(
                msg.session_id, msg.member, reason="interference"))
            return

        entry = _Entry(session_id=msg.session_id, app=msg.app,
                       member=msg.member, regions=regions,
                       reply_to=msg.reply_to)
        for port_name in msg.inboxes:
            entry.inboxes[port_name] = self.dapplet.create_inbox(
                name=f"{msg.session_id}:{port_name}")
        self._entries[msg.session_id] = entry
        self._reply_addresses[msg.session_id] = msg.reply_to
        if len(self._reply_addresses) > TOMBSTONES:
            # Evict the oldest *ended* session's address (dicts iterate
            # in insertion order); live sessions are never evicted.
            for sid in self._reply_addresses:
                if sid not in self._entries:
                    del self._reply_addresses[sid]
                    break
        self.stats.accepts += 1
        self.dapplet.post(msg.reply_to, sm.Accept(
            msg.session_id, msg.member,
            {n: ib.named_address for n, ib in entry.inboxes.items()}))

    def _on_commit(self, msg: sm.Commit) -> None:
        entry = self._entries.get(msg.session_id)
        if entry is None:
            return  # committed after abort/teardown: drop
        if entry.ctx is not None:
            self.dapplet.post(entry.reply_to,
                              sm.Ready(msg.session_id, entry.member))
            return  # duplicate commit
        self.stats.commits += 1
        ctx = SessionContext(
            self.dapplet, msg.session_id, entry.app, entry.member,
            msg.params, dict(entry.inboxes), entry.regions)
        for name, targets in msg.outboxes.items():
            outbox = self.dapplet.create_outbox(
                delivery=msg.deliveries.get(name))
            for target in targets:
                outbox.add(target)
            ctx._outboxes[name] = outbox
        entry.ctx = ctx
        ctx.active = True
        tr = self.kernel.tracer
        if tr is not None:
            tr.emit("session", "join", node=self.dapplet.address,
                    sid=msg.session_id, member=entry.member, app=entry.app)
        monitor = getattr(self.dapplet.world, "interference_monitor", None)
        if monitor is not None:
            monitor.activated(self.dapplet.name, msg.session_id, entry.regions)
        self.dapplet.post(entry.reply_to,
                          sm.Ready(msg.session_id, entry.member))
        body = self.dapplet.on_session_start(ctx)
        if body is not None:
            ctx.process = self.dapplet.spawn(
                body, name=f"session:{msg.session_id}")

    def _on_abort(self, msg: sm.Abort) -> None:
        self._admission_queue = [q for q in self._admission_queue
                                 if q.session_id != msg.session_id]
        entry = self._entries.pop(msg.session_id, None)
        if entry is None:
            self._admit_queued()
            return
        self.stats.aborts += 1
        tr = self.kernel.tracer
        if tr is not None:
            tr.emit("session", "abort", node=self.dapplet.address,
                    sid=entry.session_id, member=entry.member)
        for inbox in entry.inboxes.values():
            self.dapplet.close_inbox(inbox)
        self.dapplet.unpost(entry.reply_to)
        self._admit_queued()

    def _on_unlink(self, msg: sm.Unlink) -> None:
        entry = self._entries.get(msg.session_id)
        reply_to = self._reply_addresses.get(msg.session_id)
        if reply_to is not None:
            # Ack first: teardown drops the cached reply outbox, and the
            # transmission is already handed to the endpoint by then.
            member = entry.member if entry is not None else msg.member
            self.dapplet.post(reply_to, sm.UnlinkAck(msg.session_id, member))
        if entry is not None:
            self._teardown(entry)

    def _on_bind_add(self, msg: sm.BindAdd) -> None:
        entry = self._entries.get(msg.session_id)
        if entry is None or entry.ctx is None:
            return
        outbox = entry.ctx._outboxes.get(msg.outbox)
        if outbox is None:
            outbox = self.dapplet.create_outbox(
                delivery=msg.delivery or None)
            entry.ctx._outboxes[msg.outbox] = outbox
        for target in msg.targets:
            outbox.add(target)
        self.dapplet.post(entry.reply_to, sm.BindAck(
            msg.session_id, entry.member, msg.outbox))

    def _on_bind_remove(self, msg: sm.BindRemove) -> None:
        entry = self._entries.get(msg.session_id)
        if entry is None or entry.ctx is None:
            return
        outbox = entry.ctx._outboxes.get(msg.outbox)
        if outbox is None:
            return
        for target in msg.targets:
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
        # The cached reply outbox is per-session (the initiator's control
        # inbox is); drop it so long-lived dapplets do not accumulate
        # one per past session. A late duplicate unlink transparently
        # recreates it via the tombstone in _reply_addresses.
        self.dapplet.unpost(entry.reply_to)
        # Freed regions may unblock queued admissions.
        self._admit_queued()

    def _member_leave(self, ctx: SessionContext, reason: str) -> None:
        """Called by :meth:`SessionContext.leave`."""
        entry = self._entries.get(ctx.session_id)
        if entry is None:
            return
        self.dapplet.post(entry.reply_to, sm.Leave(
            ctx.session_id, ctx.member, reason=reason))
        self._teardown(entry)
