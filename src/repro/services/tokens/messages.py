"""Wire messages among the token managers.

Agents call a manager's exported facet through RPC
(:class:`~repro.services.tokens.shard.ShardFacet`); the messages below
are what a ring of :class:`~repro.services.tokens.shard.TokenShard`
managers sends among themselves, on each manager's peer inbox. ``gid``
is a globally unique grant id minted by the shard coordinating a
request (``"<shard>/<n>"``).

Token counts travel as ``{color: n}`` dicts; ``n`` is a positive int or
the string ``"all"`` (the paper: "a specific positive number of tokens
of a given color can be requested, or the request can ask for all tokens
of a given color").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.messages.message import Message, message_type
from repro.net.address import InboxAddress


@message_type("tok.prepare")
@dataclass(frozen=True)
class Prepare(Message):
    """Reserve ``colors`` at their home shard for grant ``gid``.

    Queued at the home shard until satisfiable; answered with
    :class:`Prepared`. ``origin`` is the coordinating shard's ring name.
    ``timestamp``/``agent`` order queued prepares and pick deadlock
    victims.
    """

    gid: str
    agent: str
    colors: dict  # color -> int | "all"
    origin: str = ""
    timestamp: int = 0
    #: Requesting principal, forwarded so home shards account
    #: per-principal quota usage ("" = unowned, never quota'd).
    principal: str = ""


@message_type("tok.prepared")
@dataclass(frozen=True)
class Prepared(Message):
    """Home shard reserved ``colors`` (``"all"`` resolved) for ``gid``."""

    gid: str
    colors: dict


@message_type("tok.prepare_denied")
@dataclass(frozen=True)
class PrepareDenied(Message):
    """Home shard refused ``gid`` outright instead of queueing it: the
    requesting principal's per-colour quota would be exceeded. The
    coordinating shard aborts any already-prepared groups and fails the
    agent's request with :class:`~repro.errors.CapabilityDenied`."""

    gid: str
    reason: str = ""


@message_type("tok.commit")
@dataclass(frozen=True)
class Commit(Message):
    """Turn ``gid``'s reservation into holdings of ``agent``."""

    gid: str
    agent: str


@message_type("tok.abort")
@dataclass(frozen=True)
class Abort(Message):
    """Cancel ``gid``: drop its queued prepare or refund its reservation."""

    gid: str


@message_type("tok.release_apply")
@dataclass(frozen=True)
class ReleaseApply(Message):
    """Forwarded release: return ``agent``'s ``tokens`` to this home pool."""

    agent: str
    tokens: dict


@message_type("tok.transfer_apply")
@dataclass(frozen=True)
class TransferApply(Message):
    """Forwarded transfer of home colours from ``agent`` to ``to_agent``."""

    agent: str
    to_agent: str
    tokens: dict


@message_type("tok.agent_register")
@dataclass(frozen=True)
class AgentRegister(Message):
    """Record the pointer of ``agent``'s notice facet at the agent's
    home shard."""

    agent: str
    inbox: InboxAddress = None


@message_type("tok.forward_notice")
@dataclass(frozen=True)
class ForwardNotice(Message):
    """Route a transfer notice via ``to_agent``'s home shard."""

    to_agent: str
    from_agent: str
    tokens: dict


@message_type("tok.probe")
@dataclass(frozen=True)
class Probe(Message):
    """One edge-chasing deadlock probe (Chandy-Misra-Haas, AND model).

    The probe asks: is ``holder`` — who holds tokens the origin's
    blocked request needs — itself blocked, and does the wait chain lead
    back to ``origin_agent``? ``origin_key`` is the victim-priority
    tuple ``(timestamp, agent, gid)``; only the probe of the youngest
    waiter on a cycle survives, so exactly one victim is chosen.
    ``path`` is the agent chain walked so far.
    """

    origin_agent: str
    origin_gid: str
    origin_key: tuple = ()
    origin_coord: str = ""
    holder: str = ""
    path: tuple = ()


@message_type("tok.deadlock_found")
@dataclass(frozen=True)
class DeadlockFound(Message):
    """A probe closed a cycle; ``gid``'s coordinator must abort it."""

    gid: str
    cycle: tuple = ()
