"""Session specifications.

A :class:`SessionSpec` is what the center director hands the initiator
in Figure 2: which dapplets participate (by directory name), which
session ports each creates, which persistent-state regions each member
needs (and in which mode), and how outboxes are wired to inboxes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dapplet.state import MODES
from repro.errors import SessionError
from repro.net.address import NodeAddress
from repro.net.delivery import DELIVERY_CLASSES, RELIABLE


@dataclass(frozen=True, slots=True)
class Binding:
    """One channel of the session: ``src_member.outbox -> dst_member.inbox``.

    ``delivery`` is the channel's delivery class (see
    :mod:`repro.net.delivery`); every binding on one outbox must agree.
    """

    src_member: str
    outbox: str
    dst_member: str
    inbox: str
    delivery: str = RELIABLE


@dataclass
class MemberSpec:
    """One participant.

    ``directory_name`` is resolved through the initiator's replicated
    directory, or else among the world's live dapplets, unless an
    explicit ``address`` is given.
    """

    member: str
    directory_name: str = ""
    address: NodeAddress | None = None
    inboxes: tuple[str, ...] = ()
    regions: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.directory_name:
            self.directory_name = self.member
        for region, mode in self.regions.items():
            if mode not in MODES:
                raise SessionError(
                    f"member {self.member!r}: region {region!r} mode must be "
                    f"one of {MODES}, got {mode!r}")


class SessionSpec:
    """The blueprint an initiator builds a session from."""

    def __init__(self, app: str, params: dict | None = None) -> None:
        self.app = app
        self.params = dict(params or {})
        self.members: dict[str, MemberSpec] = {}
        self.bindings: list[Binding] = []

    def add_member(self, member: str, *, directory_name: str = "",
                   address: NodeAddress | None = None,
                   inboxes: tuple[str, ...] | list[str] = (),
                   regions: dict[str, str] | None = None) -> MemberSpec:
        """Declare a participant and its session ports / state regions."""
        if member in self.members:
            raise SessionError(f"member {member!r} declared twice")
        spec = MemberSpec(member=member, directory_name=directory_name,
                          address=address, inboxes=tuple(inboxes),
                          regions=dict(regions or {}))
        self.members[member] = spec
        return spec

    def bind(self, src_member: str, outbox: str, dst_member: str,
             inbox: str, *, delivery: str = RELIABLE) -> None:
        """Add a channel from ``src_member``'s ``outbox`` to
        ``dst_member``'s ``inbox``. ``delivery`` picks the channel's
        delivery class (every binding on one outbox must agree)."""
        self.bindings.append(
            Binding(src_member, outbox, dst_member, inbox, delivery))

    # -- derived views ------------------------------------------------------

    def outboxes_of(self, member: str) -> dict[str, list[Binding]]:
        """The member's outbox names with the bindings on each."""
        out: dict[str, list[Binding]] = {}
        for b in self.bindings:
            if b.src_member == member:
                out.setdefault(b.outbox, []).append(b)
        return out

    def validate(self) -> None:
        """Check internal consistency; raises :class:`SessionError`."""
        if not self.members:
            raise SessionError("session spec has no members")
        outbox_delivery: dict[tuple[str, str], str] = {}
        for b in self.bindings:
            for side, m in (("source", b.src_member),
                            ("destination", b.dst_member)):
                if m not in self.members:
                    raise SessionError(
                        f"binding {b} references unknown {side} member {m!r}")
            if b.inbox not in self.members[b.dst_member].inboxes:
                raise SessionError(
                    f"binding {b} targets inbox {b.inbox!r} which member "
                    f"{b.dst_member!r} does not declare")
            if b.src_member == b.dst_member:
                raise SessionError(f"binding {b} is a self-loop")
            if b.delivery not in DELIVERY_CLASSES:
                raise SessionError(
                    f"binding {b} has unknown delivery class "
                    f"{b.delivery!r}; expected one of {DELIVERY_CLASSES}")
            key = (b.src_member, b.outbox)
            prior = outbox_delivery.setdefault(key, b.delivery)
            if prior != b.delivery:
                raise SessionError(
                    f"outbox {b.outbox!r} of member {b.src_member!r} is "
                    f"bound with conflicting delivery classes "
                    f"{prior!r} and {b.delivery!r}")
