"""The initiator dapplet.

Figure 2 of the paper: "An initiator uses the invoker's address
directory to set up a session between existing dapplets." The initiator
resolves each member's node address (through the replicated directory
when one is hosted, else from the world's own dapplets), runs the
two-phase link-up (prepare, then commit), aborts cleanly if any member
rejects, and afterwards owns the session: it can grow it, shrink it, and
terminate it ("when a session terminates, component dapplets unlink
themselves from each other").

Every step is a call on the members' session facets
(:class:`~repro.session.manager.SessionFacet`), made through a
:class:`~repro.rpc.RemoteProxy` handle on the member node's facet. A
phase waits for all of its calls and stops at the first failure. An
``abort`` goes to the same facet, hence on the same channel, as the
``prepare`` it undoes, so per-channel FIFO delivers it second.

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
from repro.errors import (AddressError, DappletError, RpcError,
                          SessionError, SessionRejected)
from repro.net.address import InboxAddress, NodeAddress
from repro.net.delivery import RELIABLE
from repro.rpc.proxy import RemoteProxy
from repro.session.manager import CONTROL_INBOX
from repro.session.session import Session
from repro.session.spec import Binding, MemberSpec, SessionSpec
from repro.sim.events import Event


class Initiator(Dapplet):
    """A dapplet that sets up and administers sessions."""

    kind = "initiator"

    def setup(self) -> None:
        self._session_ids = itertools.count(1)
        #: Optional :class:`repro.discovery.Resolver`; when set, member
        #: names resolve through the replicated directory (with caching
        #: and failover) instead of the world's own dapplets.
        self.resolver = None

    def use_resolver(self, resolver) -> None:
        """Resolve member names through ``resolver`` from now on."""
        self.resolver = resolver

    def _resolve_address(self, mspec: MemberSpec) -> Generator:
        """One member's node address: explicit > resolver > the world's
        live dapplets.

        A generator (the resolver may need a network round-trip). With a
        resolver attached, a dead participant surfaces as
        :class:`~repro.errors.LeaseExpired` — the caller should drop or
        replace that member rather than time out against silence.
        Without one, a name the world does not have (never created, or
        stopped) raises :class:`~repro.errors.AddressError`.
        """
        if mspec.address is not None:
            return mspec.address
        if self.resolver is not None:
            return (yield from self.resolver.resolve(mspec.directory_name))
        try:
            return self.world.get(mspec.directory_name).address
        except DappletError:
            raise AddressError(
                f"no dapplet named {mspec.directory_name!r}") from None

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
        deadline = self.kernel.now + timeout

        # Resolve every member before preparing any: a dead or
        # unresolvable participant aborts the establishment up front,
        # with no dapplet left half-linked.
        addresses: dict[str, NodeAddress] = {}
        for member, mspec in spec.members.items():
            addresses[member] = yield from self._resolve_address(mspec)

        # Phase 1: prepare.
        prepares = {member: self._prepare(addresses[member], session_id,
                                          spec.app, mspec, wait_for_regions,
                                          deadline)
                    for member, mspec in spec.members.items()}
        error = yield from self._all(prepares)
        if error is not None:
            # Abort goes to every member, not just those that accepted:
            # a slow member may accept after we give up, and the abort
            # follows the prepare on the one channel to its node, so it
            # always cleans up. Aborting a rejector is a no-op.
            for member in spec.members:
                self._invoke(addresses[member], "abort", session_id)
            rejector = _rejector(prepares, error)
            if rejector is not None:
                raise SessionRejected(
                    f"member {rejector!r} rejected session {session_id!r}: "
                    f"{error.remote_message}",
                    participant=rejector, reason=error.remote_message)
            raise SessionError(
                f"session {session_id!r}: no reply from "
                f"{_unanswered(prepares)} within {timeout}s") from error
        ports = {member: call.value for member, call in prepares.items()}

        # Phase 2: commit with resolved bindings.
        commits = {member: self._commit(addresses[member], session_id,
                                        spec, member, ports, deadline)
                   for member in spec.members}
        error = yield from self._all(commits)
        if error is not None:
            # Members that committed are active; unwind via unlink.
            for member in spec.members:
                self._invoke(addresses[member], "unlink", session_id)
            raise SessionError(f"session {session_id!r}: not ready: "
                               f"{_unanswered(commits)}") from error

        return Session(self, spec, session_id, ports, addresses)

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

        sid, member = session.session_id, mspec.member
        deadline = self.kernel.now + timeout
        address = yield from self._resolve_address(mspec)
        try:
            ports = yield self._prepare(address, sid, session.spec.app, mspec,
                                        False, deadline)
        except RpcError as error:
            if error.remote_type == "SessionRejected":
                raise SessionRejected(
                    f"member {member!r} rejected joining {sid!r}: "
                    f"{error.remote_message}",
                    participant=member, reason=error.remote_message)
            # A late accept must not leave the member prepared forever;
            # the abort follows the prepare on its channel.
            self._invoke(address, "abort", sid)
            raise SessionError(
                f"growth of {sid!r}: no reply from {member!r} within "
                f"{timeout}s") from error

        ports = dict(ports)
        grown = {**session.ports, member: ports}
        toward_new = [b for b in bindings if b.dst_member == member]
        try:
            # Commit the new member's own outboxes, and rewire existing
            # members toward it (acknowledged).
            commit = self._commit(address, sid, session.spec, member,
                                  grown, deadline, only=bindings)
            binds = self._bind_adds(session, toward_new, grown, deadline)
            error = yield from self._all({**binds, member: commit})
            if error is not None:
                if _unanswered(binds):
                    raise _unbound(sid, binds) from error
                raise SessionError(f"growth of {sid!r}: {member!r} never "
                                   "became ready") from error
        except SessionError:
            # Roll the half-grown member back out: unlink it and remove
            # the channels existing members added toward it. The session
            # itself never listed it.
            self._invoke(address, "unlink", sid)
            for b in toward_new:
                self._invoke(session.addresses[b.src_member], "bind_remove",
                             sid, b.outbox, (ports[b.inbox],))
            raise
        session.addresses[member] = address
        session.ports[member] = ports
        session.spec.members[member] = mspec
        session.spec.bindings.extend(bindings)
        return session

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
        binds = self._bind_adds(session, bindings, session.ports,
                                self.kernel.now + timeout)
        error = yield from self._all(binds)
        if error is not None:
            raise _unbound(session.session_id, binds) from error
        session.spec.bindings.extend(bindings)
        return session

    def _bind_adds(self, session: Session, bindings: list[Binding],
                   ports: dict[str, dict[str, InboxAddress]],
                   deadline: float) -> dict[tuple[str, str], Event]:
        """One ``bind_add`` call per (member, outbox) ``bindings`` extend,
        targeting the session inboxes in ``ports``."""
        calls = {}
        for member in dict.fromkeys(b.src_member for b in bindings):
            outboxes, deliveries = _wiring(bindings, member, ports)
            for outbox, targets in outboxes.items():
                calls[(member, outbox)] = self._call(
                    session.addresses[member], deadline, "bind_add",
                    session.session_id, outbox, targets,
                    deliveries.get(outbox, ""))
        return calls

    # -- shrinkage ---------------------------------------------------------------

    def _shrink(self, session: Session, member: str,
                timeout: float) -> Generator:
        if member not in session.members:
            raise SessionError(
                f"member {member!r} is not in session {session.session_id!r}")
        sid = session.session_id
        addresses = session.addresses
        deadline = self.kernel.now + timeout

        # Remove channels pointing at the departing member.
        removals: dict[tuple[str, str], list[InboxAddress]] = {}
        for b in session.spec.bindings:
            if b.dst_member == member and b.src_member in session.members:
                removals.setdefault((b.src_member, b.outbox), []).append(
                    session.port(member, b.inbox))
        for (src, outbox), targets in removals.items():
            self._invoke(addresses[src], "bind_remove", sid, outbox,
                         tuple(targets))

        try:
            yield self._call(addresses.pop(member), deadline, "unlink", sid)
        except RpcError:
            pass  # a silent member is unlinked without confirmation

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
        addresses = session.addresses
        deadline = self.kernel.now + timeout
        # Sorted, not set order: unlink order must not depend on string
        # hashing, or same-seed traces differ across interpreter runs.
        # Silent members are tolerated; teardown proceeds.
        yield from self._all({
            member: self._call(addresses[member], deadline, "unlink",
                               session.session_id)
            for member in sorted(session.members)})
        session.terminated = True
        return session

    # -- plumbing ---------------------------------------------------------------

    def _invoke(self, address: NodeAddress, method: str, *args) -> None:
        """One-way call of ``method`` on the facet at ``address``."""
        RemoteProxy(self, InboxAddress(address, CONTROL_INBOX)).invoke(
            method, *args)

    def _call(self, address: NodeAddress, deadline: float, method: str,
              *args) -> Event:
        """Call ``method`` on the facet at ``address``; the call fails
        with :class:`~repro.errors.RpcTimeout` at ``deadline``."""
        return RemoteProxy(self, InboxAddress(address, CONTROL_INBOX)).call(
            method, *args, timeout=max(0.0, deadline - self.kernel.now))

    def _commit(self, address: NodeAddress, session_id: str,
                spec: SessionSpec, member: str, ports: dict,
                deadline: float, only: list[Binding] | None = None) -> Event:
        outboxes, deliveries = _wiring(
            spec.bindings if only is None else only, member, ports)
        return self._call(address, deadline, "commit", session_id, outboxes,
                          dict(spec.params), deliveries)

    def _prepare(self, address: NodeAddress, session_id: str, app: str,
                 mspec: MemberSpec, queue: bool, deadline: float) -> Event:
        # The member holds the prepare no longer than we wait for it.
        left = max(0.0, deadline - self.kernel.now)
        return self._call(address, deadline, "prepare", session_id, app,
                          mspec.member, mspec.inboxes, dict(mspec.regions),
                          queue, left)

    def _all(self, calls: dict) -> Generator:
        """Wait for every call in ``calls``. Returns ``None`` once all
        returned, else the first failure in time; ``all_of`` defuses
        the later ones."""
        try:
            yield self.kernel.all_of(calls.values())
        except RpcError as error:
            return error
        return None


def _rejector(calls: dict[str, Event], error: RpcError) -> "str | None":
    """The member whose call failed with ``error``, if it rejected."""
    if error.remote_type != "SessionRejected":
        return None
    return next(member for member, call in calls.items()
                if call.triggered and call.value is error)


def _unanswered(calls: dict) -> list:
    """The keys of ``calls`` that have not returned, sorted."""
    return sorted(key for key, call in calls.items()
                  if not (call.triggered and call.ok))


def _unbound(session_id: str, binds: dict) -> SessionError:
    return SessionError(f"session {session_id!r}: bind-adds "
                        f"unacknowledged: {_unanswered(binds)}")


def _copy_spec(spec: SessionSpec) -> SessionSpec:
    copy = SessionSpec(spec.app, params=spec.params)
    copy.members = dict(spec.members)
    copy.bindings = list(spec.bindings)
    return copy


def _wiring(bindings: list[Binding], member: str,
            ports: dict[str, dict[str, InboxAddress]],
            ) -> tuple[dict[str, tuple[InboxAddress, ...]], dict[str, str]]:
    """What ``member``'s outboxes bind to among ``bindings``: outbox name
    -> target addresses, and outbox name -> delivery class for the
    non-RELIABLE ones only (absent names default to RELIABLE, so
    pre-class sessions serialize byte-identically)."""
    targets: dict[str, list[InboxAddress]] = {}
    deliveries: dict[str, str] = {}
    for b in bindings:
        if b.src_member == member:
            targets.setdefault(b.outbox, []).append(
                ports[b.dst_member][b.inbox])
            if b.delivery != RELIABLE:
                deliveries[b.outbox] = b.delivery
    return {name: tuple(t) for name, t in targets.items()}, deliveries
