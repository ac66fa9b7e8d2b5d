"""The initiator dapplet.

Figure 2 of the paper: "An initiator uses the invoker's address
directory to set up a session between existing dapplets." The initiator
resolves each member's node address from the directory, runs the
two-phase link-up (prepare/accept, then commit/ready), aborts cleanly if
any member rejects, and afterwards owns the session: it can grow it,
shrink it, and terminate it ("when a session terminates, component
dapplets unlink themselves from each other").

All protocol steps are generators: run them from a process, e.g.::

    def director():
        session = yield from initiator.establish(spec)
        ...
        yield from session.terminate()
"""

from __future__ import annotations

import itertools
from typing import Generator

from repro.dapplet.dapplet import Dapplet
from repro.errors import (ReceiveTimeout, ReproError, SessionError,
                          SessionRejected)
from repro.mailbox.inbox import Inbox
from repro.mailbox.outbox import Outbox
from repro.net.address import InboxAddress, NodeAddress
from repro.net.delivery import RELIABLE
from repro.session import messages as sm
from repro.session.manager import CONTROL_INBOX
from repro.session.session import Session
from repro.session.spec import Binding, MemberSpec, SessionSpec


class _Record:
    """Initiator-side state for one live session."""

    def __init__(self, control: Inbox) -> None:
        self.control = control
        self.member_outboxes: dict[str, Outbox] = {}
        self.member_addresses: dict[str, NodeAddress] = {}
        self.departed: set[str] = set()
        #: Control messages received while waiting for something else;
        #: later waits consult these before the inbox.
        self.strays: list = []


class Initiator(Dapplet):
    """A dapplet that sets up and administers sessions."""

    kind = "initiator"

    def setup(self) -> None:
        self._session_ids = itertools.count(1)
        self._records: dict[str, _Record] = {}
        #: Optional :class:`repro.discovery.Resolver`; when set, member
        #: names resolve through the replicated directory (with caching
        #: and failover) instead of the world's static dict.
        self.resolver = None

    def use_resolver(self, resolver) -> None:
        """Resolve member names through ``resolver`` from now on."""
        self.resolver = resolver

    def _resolve_address(self, mspec: MemberSpec) -> Generator:
        """One member's node address: explicit > resolver > static dict.

        A generator (the resolver may need a network round-trip). With a
        resolver attached, a dead participant surfaces as
        :class:`~repro.errors.LeaseExpired` — the caller should drop or
        replace that member rather than time out against silence.
        """
        if mspec.address is not None:
            return mspec.address
        if self.resolver is not None:
            return (yield from self.resolver.resolve(mspec.directory_name))
        return self.world.directory.lookup(mspec.directory_name)

    # -- establishment ------------------------------------------------------

    def establish(self, spec: SessionSpec, timeout: float = 30.0,
                  *, wait_for_regions: bool = False) -> Generator:
        """Run the link-up protocol; returns the :class:`Session`.

        Raises :class:`SessionRejected` if any member rejects (carrying
        the reason: the paper's ``"acl"`` or ``"interference"``, or
        ``"capability:<verb>"`` when an owned member's registry check
        denied the initiating principal), or
        :class:`SessionError` if replies time out. On failure every
        member that accepted receives an abort, so no dapplet is left
        half-linked.

        With ``wait_for_regions=True``, members *queue* an interfering
        prepare instead of rejecting it and accept once the conflicting
        sessions end (FIFO per member) — the scheduling reading of the
        paper's exclusion requirement. Pick ``timeout`` generously: the
        wait counts against it. Note the classic hazard of waiting
        instead of rejecting: two establishments queued at each other's
        members can deadlock; the timeout (followed by the automatic
        abort, which releases everything) is the recovery mechanism, so
        never wait without one.
        """
        spec.validate()
        spec = _copy_spec(spec)
        session_id = f"{self.name}#s{next(self._session_ids)}"
        control = self.create_inbox(name=f"_ctl:{session_id}")
        record = _Record(control)
        self._records[session_id] = record
        deadline = self.kernel.now + timeout

        # Resolve every member before preparing any: a dead or
        # unresolvable participant aborts the establishment up front,
        # with no dapplet left half-linked.
        try:
            for member, mspec in spec.members.items():
                record.member_addresses[member] = \
                    yield from self._resolve_address(mspec)
        except ReproError:
            self._dispose(session_id)
            raise

        # Phase 1: prepare. The control outboxes are this session's own,
        # not Dapplet.post channels: abort relies on per-channel FIFO
        # (a manager sees Prepare before Abort), and two sessions
        # sharing a post channel to a common member would have the
        # first to dispose unpost it, splitting the other's FIFO.
        for member, mspec in spec.members.items():
            address = record.member_addresses[member]
            outbox = self.create_outbox()
            outbox.add(InboxAddress(address, CONTROL_INBOX))
            record.member_outboxes[member] = outbox
            outbox.send(sm.Prepare(
                session_id=session_id, app=spec.app, member=member,
                initiator=self.address, reply_to=control.named_address,
                inboxes=mspec.inboxes, regions=dict(mspec.regions),
                queue=wait_for_regions, principal=self.principal))

        ports: dict[str, dict[str, InboxAddress]] = {}
        rejection: sm.Reject | None = None
        awaiting = set(spec.members)
        while awaiting and rejection is None:
            msg = yield from self._await_matching(
                record, deadline,
                lambda m: isinstance(m, (sm.Accept, sm.Reject))
                and m.member in awaiting)
            if msg is None:
                break  # timed out
            awaiting.discard(msg.member)
            if isinstance(msg, sm.Accept):
                ports[msg.member] = dict(msg.ports)
            else:
                rejection = msg

        if rejection is not None or awaiting:
            # Abort goes to every member, not just those that accepted:
            # a slow member may accept after we give up, and per-channel
            # FIFO guarantees its manager sees Prepare before Abort, so
            # the abort always cleans up. Aborting a rejector is a
            # no-op (it never created an entry).
            for member in spec.members:
                record.member_outboxes[member].send(
                    sm.Abort(session_id, member))
            self._dispose(session_id)
            if rejection is not None:
                raise SessionRejected(
                    f"member {rejection.member!r} rejected session "
                    f"{session_id!r}: {rejection.reason}",
                    participant=rejection.member, reason=rejection.reason)
            raise SessionError(
                f"session {session_id!r}: no reply from {sorted(awaiting)} "
                f"within {timeout}s")

        # Phase 2: commit with resolved bindings.
        for member in spec.members:
            outbox_map = _resolve_outboxes(spec, member, ports)
            record.member_outboxes[member].send(sm.Commit(
                session_id, member, outboxes=outbox_map,
                params=dict(spec.params),
                deliveries=_resolve_deliveries(spec, member)))

        awaiting = set(spec.members)
        while awaiting:
            msg = yield from self._await_matching(
                record, deadline,
                lambda m: isinstance(m, sm.Ready) and m.member in awaiting)
            if msg is None:
                # Members that accepted are active; unwind via unlink.
                for member in spec.members:
                    record.member_outboxes[member].send(
                        sm.Unlink(session_id, member))
                self._dispose(session_id)
                raise SessionError(
                    f"session {session_id!r}: not ready: {sorted(awaiting)}")
            awaiting.discard(msg.member)

        return Session(self, spec, session_id, ports)

    # -- growth ---------------------------------------------------------------

    def _grow(self, session: Session, mspec: MemberSpec,
              bindings: list[Binding], timeout: float) -> Generator:
        if session.terminated:
            raise SessionError(f"session {session.session_id!r} is terminated")
        if mspec.member in session.members:
            raise SessionError(
                f"member {mspec.member!r} is already in the session")
        for b in bindings:
            if mspec.member not in (b.src_member, b.dst_member):
                raise SessionError(
                    f"growth binding {b} does not involve {mspec.member!r}")
            other = b.dst_member if b.src_member == mspec.member else b.src_member
            if other not in session.members:
                raise SessionError(
                    f"growth binding {b} references unknown member {other!r}")

        record = self._records[session.session_id]
        deadline = self.kernel.now + timeout
        address = yield from self._resolve_address(mspec)
        outbox = self.create_outbox()
        outbox.add(InboxAddress(address, CONTROL_INBOX))
        record.member_outboxes[mspec.member] = outbox
        record.member_addresses[mspec.member] = address
        outbox.send(sm.Prepare(
            session_id=session.session_id, app=session.spec.app,
            member=mspec.member, initiator=self.address,
            reply_to=record.control.named_address,
            inboxes=mspec.inboxes, regions=dict(mspec.regions),
            principal=self.principal))

        msg = yield from self._await_matching(
            record, deadline,
            lambda m: isinstance(m, (sm.Accept, sm.Reject))
            and m.member == mspec.member)
        if msg is None:
            # A late accept must not leave the member prepared forever;
            # FIFO puts this abort after the prepare on its channel.
            outbox.send(sm.Abort(session.session_id, mspec.member))
            self._drop_member_outbox(record, mspec.member)
            raise SessionError(
                f"growth of {session.session_id!r}: no reply from "
                f"{mspec.member!r} within {timeout}s")
        if isinstance(msg, sm.Reject):
            self._drop_member_outbox(record, mspec.member)
            raise SessionRejected(
                f"member {mspec.member!r} rejected joining "
                f"{session.session_id!r}: {msg.reason}",
                participant=mspec.member, reason=msg.reason)
        accept = msg

        session.ports[mspec.member] = dict(accept.ports)
        session.spec.members[mspec.member] = mspec
        session.spec.bindings.extend(bindings)

        try:
            # Commit the new member's own outboxes.
            outbox_map = _resolve_outboxes(session.spec, mspec.member,
                                           session.ports, only=bindings)
            outbox.send(sm.Commit(session.session_id, mspec.member,
                                  outboxes=outbox_map,
                                  params=dict(session.spec.params),
                                  deliveries=_resolve_deliveries(
                                      session.spec, mspec.member,
                                      only=bindings)))

            # Rewire existing members toward the new one (acknowledged).
            toward_new = [b for b in bindings
                          if b.dst_member == mspec.member]
            yield from self._send_bind_adds(session, record, toward_new,
                                            deadline)

            msg = yield from self._await_matching(
                record, deadline,
                lambda m: isinstance(m, sm.Ready)
                and m.member == mspec.member)
            if msg is None:
                raise SessionError(
                    f"growth of {session.session_id!r}: {mspec.member!r} "
                    "never became ready")
        except SessionError:
            # Roll the half-grown member back out: unlink it, remove the
            # channels existing members added toward it, and restore the
            # session records.
            outbox.send(sm.Unlink(session.session_id, mspec.member))
            for b in bindings:
                if b.dst_member != mspec.member:
                    continue
                record.member_outboxes[b.src_member].send(sm.BindRemove(
                    session.session_id, b.src_member, b.outbox,
                    targets=(accept.ports[b.inbox],)))
            session.ports.pop(mspec.member, None)
            session.spec.members.pop(mspec.member, None)
            session.spec.bindings = [
                b for b in session.spec.bindings if b not in bindings]
            self._drop_member_outbox(record, mspec.member)
            raise
        session.members.add(mspec.member)
        return session

    def _drop_member_outbox(self, record: _Record, member: str) -> None:
        outbox = record.member_outboxes.pop(member, None)
        if outbox is not None:
            self.outboxes.pop(outbox.ref, None)

    def _add_bindings(self, session: Session, bindings: list[Binding],
                      timeout: float) -> Generator:
        """Add channels between *existing* members, waiting for acks.

        Used for dynamic rewiring, e.g. closing a ring after a member
        leaves. Destination inboxes must already exist in the session.
        """
        for b in bindings:
            for m in (b.src_member, b.dst_member):
                if m not in session.members:
                    raise SessionError(
                        f"binding {b} references non-member {m!r}")
            if b.inbox not in session.ports[b.dst_member]:
                raise SessionError(
                    f"binding {b}: member {b.dst_member!r} has no session "
                    f"inbox {b.inbox!r}")
        record = self._records[session.session_id]
        deadline = self.kernel.now + timeout
        yield from self._send_bind_adds(session, record, bindings, deadline)
        session.spec.bindings.extend(bindings)
        return session

    def _send_bind_adds(self, session: Session, record: _Record,
                        bindings: list[Binding],
                        deadline: float) -> Generator:
        additions: dict[str, dict[str, list[InboxAddress]]] = {}
        deliveries: dict[tuple[str, str], str] = {}
        for b in bindings:
            additions.setdefault(b.src_member, {}).setdefault(
                b.outbox, []).append(session.ports[b.dst_member][b.inbox])
            if b.delivery != RELIABLE:
                deliveries[(b.src_member, b.outbox)] = b.delivery
        awaiting: set[tuple[str, str]] = set()
        for member, outbox_targets in additions.items():
            for outbox_name, targets in outbox_targets.items():
                record.member_outboxes[member].send(sm.BindAdd(
                    session.session_id, member, outbox_name,
                    targets=tuple(targets),
                    delivery=deliveries.get((member, outbox_name), "")))
                awaiting.add((member, outbox_name))
        while awaiting:
            msg = yield from self._await_matching(
                record, deadline,
                lambda m: isinstance(m, sm.BindAck)
                and (m.member, m.outbox) in awaiting)
            if msg is None:
                raise SessionError(
                    f"session {session.session_id!r}: bind-adds "
                    f"unacknowledged: {sorted(awaiting)}")
            awaiting.discard((msg.member, msg.outbox))

    # -- shrinkage ---------------------------------------------------------------

    def _shrink(self, session: Session, member: str,
                timeout: float) -> Generator:
        if member not in session.members:
            raise SessionError(
                f"member {member!r} is not in session {session.session_id!r}")
        record = self._records[session.session_id]
        deadline = self.kernel.now + timeout

        # Remove channels pointing at the departing member.
        removals: dict[str, dict[str, list[InboxAddress]]] = {}
        for b in session.spec.bindings:
            if b.dst_member == member and b.src_member in session.members:
                removals.setdefault(b.src_member, {}).setdefault(
                    b.outbox, []).append(session.port(member, b.inbox))
        for src, outbox_targets in removals.items():
            for outbox_name, targets in outbox_targets.items():
                record.member_outboxes[src].send(sm.BindRemove(
                    session.session_id, src, outbox_name,
                    targets=tuple(targets)))

        record.member_outboxes[member].send(
            sm.Unlink(session.session_id, member))
        if member not in record.departed:
            # Tolerate a silent member: a None result just means it is
            # unlinked without confirmation.
            yield from self._await_matching(
                record, deadline,
                lambda m: isinstance(m, (sm.UnlinkAck, sm.Leave))
                and m.member == member)

        session.members.discard(member)
        session.ports.pop(member, None)
        session.spec.members.pop(member, None)
        session.spec.bindings = [
            b for b in session.spec.bindings
            if member not in (b.src_member, b.dst_member)]
        return session

    # -- termination ---------------------------------------------------------------

    def _terminate(self, session: Session, timeout: float) -> Generator:
        if session.terminated:
            return session
        record = self._records[session.session_id]
        deadline = self.kernel.now + timeout
        awaiting = set(session.members) - record.departed
        # Sorted, not set order: unlink order must not depend on string
        # hashing, or same-seed traces differ across interpreter runs.
        for member in sorted(awaiting):
            record.member_outboxes[member].send(
                sm.Unlink(session.session_id, member))
        while awaiting:
            msg = yield from self._await_matching(
                record, deadline,
                lambda m: isinstance(m, (sm.UnlinkAck, sm.Leave))
                and m.member in awaiting)
            if msg is None:
                break  # tolerate silent members; teardown proceeds
            awaiting.discard(msg.member)
        session.terminated = True
        self._dispose(session.session_id)
        return session

    # -- plumbing ---------------------------------------------------------------

    def _next_control(self, record: _Record,
                      deadline: float) -> Generator:
        """Receive the next control message before ``deadline``.

        Returns ``None`` on timeout. ``Leave`` notices are recorded on
        the session record as they pass through and handed to callers
        that care.
        """
        remaining = deadline - self.kernel.now
        if remaining <= 0:
            return None
        try:
            msg = yield record.control.receive(timeout=remaining)
        except ReceiveTimeout:
            return None
        if isinstance(msg, sm.Leave):
            record.departed.add(msg.member)
        return msg

    def _await_matching(self, record: _Record, deadline: float,
                        match) -> Generator:
        """The next control message satisfying ``match``.

        Consults messages earlier waits set aside, buffers non-matching
        arrivals for later waits, and returns ``None`` on timeout — so
        interleaved protocol exchanges (bind-acks vs. readies vs.
        unlink-acks) never consume each other's replies.
        """
        for i, msg in enumerate(record.strays):
            if match(msg):
                del record.strays[i]
                return msg
        while True:
            msg = yield from self._next_control(record, deadline)
            if msg is None:
                return None
            if match(msg):
                return msg
            record.strays.append(msg)

    def _dispose(self, session_id: str) -> None:
        record = self._records.pop(session_id, None)
        if record is not None:
            self.close_inbox(record.control)
            # Release the per-member control outboxes so a long-lived
            # initiator does not accumulate ports across sessions.
            for outbox in record.member_outboxes.values():
                self.outboxes.pop(outbox.ref, None)


def _copy_spec(spec: SessionSpec) -> SessionSpec:
    copy = SessionSpec(spec.app, params=spec.params)
    copy.members = dict(spec.members)
    copy.bindings = list(spec.bindings)
    return copy


def _resolve_outboxes(spec: SessionSpec, member: str,
                      ports: dict[str, dict[str, InboxAddress]],
                      only: list[Binding] | None = None,
                      ) -> dict[str, tuple[InboxAddress, ...]]:
    """Map a member's outbox names to the resolved target addresses."""
    result: dict[str, list[InboxAddress]] = {}
    bindings = only if only is not None else spec.bindings
    for b in bindings:
        if b.src_member != member:
            continue
        result.setdefault(b.outbox, []).append(ports[b.dst_member][b.inbox])
    return {name: tuple(targets) for name, targets in result.items()}


def _resolve_deliveries(spec: SessionSpec, member: str,
                        only: list[Binding] | None = None) -> dict[str, str]:
    """The member's non-default delivery classes, outbox name -> class.

    Only non-RELIABLE entries travel in the Commit (absent names default
    to RELIABLE), so pre-class sessions serialize byte-identically.
    """
    result: dict[str, str] = {}
    bindings = only if only is not None else spec.bindings
    for b in bindings:
        if b.src_member == member and b.delivery != RELIABLE:
            result[b.outbox] = b.delivery
    return result
