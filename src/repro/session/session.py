"""Session objects.

Two views of one session:

* :class:`SessionContext` — a *member's* view: the session ports this
  dapplet created, region views with the declared access modes, and the
  parameters the initiator committed. Handed to
  ``Dapplet.on_session_start``.
* :class:`Session` — the *initiator's* handle: membership, growth and
  shrinkage, and termination. Its mutating methods are generators; run
  them from a process with ``yield from``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, KeysView

from repro.dapplet.state import RegionView
from repro.errors import SessionError
from repro.mailbox.inbox import Inbox
from repro.mailbox.outbox import Outbox
from repro.net.address import InboxAddress, NodeAddress
from repro.session.spec import Binding, MemberSpec, SessionSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.dapplet.dapplet import Dapplet
    from repro.session.initiator import Initiator


class SessionContext:
    """One member's runtime view of an active session."""

    def __init__(self, dapplet: "Dapplet", session_id: str, app: str,
                 member: str, params: dict[str, Any],
                 inboxes: dict[str, Inbox],
                 regions: dict[str, str]) -> None:
        self.dapplet = dapplet
        self.session_id = session_id
        self.app = app
        self.member = member
        self.params = dict(params)
        self._inboxes = inboxes
        self._outboxes: dict[str, Outbox] = {}
        self._region_views = {
            name: RegionView(dapplet.state.region(name), mode)
            for name, mode in regions.items()}
        self.regions = dict(regions)
        self.active = False
        self.process = None  # the member's session process, if any

    # -- ports ----------------------------------------------------------

    def inbox(self, name: str) -> Inbox:
        """The session inbox declared as ``name`` in the spec."""
        try:
            return self._inboxes[name]
        except KeyError:
            raise SessionError(
                f"member {self.member!r} of session {self.session_id!r} "
                f"has no inbox {name!r}") from None

    def outbox(self, name: str) -> Outbox:
        """The session outbox ``name`` (exists once bindings use it)."""
        try:
            return self._outboxes[name]
        except KeyError:
            raise SessionError(
                f"member {self.member!r} of session {self.session_id!r} "
                f"has no outbox {name!r}") from None

    def inbox_names(self) -> list[str]:
        return sorted(self._inboxes)

    def outbox_names(self) -> list[str]:
        return sorted(self._outboxes)

    # -- state ------------------------------------------------------------

    def region(self, name: str) -> RegionView:
        """The member's view of a declared region (mode-enforced)."""
        try:
            return self._region_views[name]
        except KeyError:
            raise SessionError(
                f"session {self.session_id!r} did not declare access to "
                f"region {name!r} for member {self.member!r}") from None

    # -- membership ----------------------------------------------------------

    def leave(self, reason: str = "") -> None:
        """Unilaterally leave the session (the paper's shrinking).

        Tears down this member's ports immediately. The initiator learns
        of it when it next unlinks this member, which is answered for a
        session the member no longer has; orderly shrinkage (removing
        the channels that point here) is the initiator's job via
        :meth:`Session.remove_member`. ``reason`` is not sent.
        """
        self.dapplet.sessions._unlink(self.session_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "active" if self.active else "ended"
        return (f"<SessionContext {self.session_id!r} member={self.member!r} "
                f"{state}>")


class Session:
    """The initiator's handle on an established session."""

    def __init__(self, initiator: "Initiator", spec: SessionSpec,
                 session_id: str,
                 ports: dict[str, dict[str, InboxAddress]],
                 addresses: dict[str, NodeAddress]) -> None:
        self.initiator = initiator
        self.spec = spec
        self.session_id = session_id
        #: member -> {port name -> global inbox address}
        self.ports = ports
        #: member -> the node address its session facet answers on
        self.addresses = addresses
        self.terminated = False
        self.created_at = initiator.kernel.now

    @property
    def members(self) -> KeysView[str]:
        """The members' names: a live view of :attr:`ports`."""
        return self.ports.keys()

    # -- growth and shrinkage ------------------------------------------------

    def add_member(self, member_spec: MemberSpec,
                   bindings: list[Binding],
                   timeout: float = 30.0) -> Generator:
        """Grow the session by one member (generator; ``yield from`` it).

        ``bindings`` may connect the new member in either direction;
        channels from existing members are added by ``bind_add`` calls.
        """
        return self.initiator._grow(self, member_spec, bindings, timeout)

    def remove_member(self, member: str, timeout: float = 30.0) -> Generator:
        """Shrink the session: unlink ``member`` and remove channels to it."""
        return self.initiator._shrink(self, member, timeout)

    def add_bindings(self, bindings: list[Binding],
                     timeout: float = 30.0) -> Generator:
        """Add channels between existing members (generator; acked).

        Used to rewire a session dynamically — e.g. closing a ring
        around a departed member.
        """
        return self.initiator._add_bindings(self, bindings, timeout)

    def terminate(self, timeout: float = 30.0) -> Generator:
        """End the session: every member unlinks (generator)."""
        return self.initiator._terminate(self, timeout)

    def port(self, member: str, name: str) -> InboxAddress:
        """Global address of ``member``'s session inbox ``name``."""
        try:
            return self.ports[member][name]
        except KeyError:
            raise SessionError(
                f"session {self.session_id!r} has no port "
                f"{member!r}/{name!r}") from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "terminated" if self.terminated else "active"
        return (f"<Session {self.session_id!r} app={self.spec.app!r} "
                f"members={sorted(self.members)} {state}>")
