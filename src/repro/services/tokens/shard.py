"""The token managers: a real *network*, at any size.

The paper: "A network of token-manager objects manages tokens shared by
all the dapplets in a session." This module is that network — a
consistent-hash ring (:mod:`~repro.services.tokens.ring`) of
:class:`TokenShard` managers, each the *home* of the colours (and
agents) that hash onto its arc, each keeping its accounting in one
:class:`~repro.services.tokens.ledger.Ledger`. There is one manager
class: :class:`TokenCoordinator` is a ring of one, hosted on any
dapplet, where every manager-to-manager message below is dispatched
inline and costs nothing.

Routing
    Any shard accepts any agent request (agents attach to the shard
    their own name hashes to) and routes each colour to its home
    manager, so adding shards spreads both request load and pool state.

Atomic multi-colour grants
    A request naming colours homed on several shards is split into one
    *group* per home shard and granted all-or-nothing: the coordinating
    shard sends :class:`~repro.services.tokens.messages.Prepare` to each
    home **sequentially in ring-name order** (a global acquisition order,
    so the protocol itself can never deadlock on its own reservations),
    each home reserves its group when its pool allows (queueing behind
    its grant policy otherwise), and once every group is reserved a
    :class:`~repro.services.tokens.messages.Commit` turns the
    reservations into holdings and the agent's call returns the grant.
    A deadlock aborts the exchange instead
    (:class:`~repro.services.tokens.messages.Abort` refunds every
    reservation), so a grant is never half-made.

Distributed deadlock detection
    Waits that span shards are invisible to any single manager, so
    detection is edge-chasing (Chandy-Misra-Haas, AND model):
    a shard with a blocked prepare launches
    :class:`~repro.services.tokens.messages.Probe` messages at the
    holders of the colours the waiter is missing; a shard finding the
    probed holder blocked in *its* queue extends the probe along that
    waiter's missing colours. A probe arriving back at its origin agent
    closed a wait cycle. Exactly one victim per cycle: a probe is only
    forwarded past waiters *older* than its origin (priority =
    ``(timestamp, agent, gid)``), and meeting a younger waiter kills the
    probe and launches that waiter's own — so only the youngest waiter
    on the cycle self-detects, and its coordinator aborts it with
    :class:`~repro.errors.DeadlockDetected`, whose ``cycle`` names each
    agent on the cycle once, the victim first. On a ring of one the
    whole chase runs inside the handler of the request that closed the
    cycle, so detection costs that request's round trip and no more.

Multi-tenancy (:mod:`repro.registry`)
    Requests from *owned* dapplets arrive stamped with their principal.
    The coordinating shard refuses a request whose principal lacks a
    ``token.request:<color>`` grant (before any 2PC traffic), and each
    home shard refuses a Prepare that would push the principal's
    reserved + held count of a quota'd colour past its grant — the
    coordinator aborts the half-made exchange and the agent's request
    fails with :class:`~repro.errors.CapabilityDenied`. Unstamped
    requests behave exactly as before the registry existed.

Conservation is *instantaneous*, not just quiescent: tokens move
between the ``pool``, ``reserved`` and ``holders`` columns of exactly
one home shard's ledger — no message ever carries a token in flight —
so :meth:`ShardedTokenService.check_conservation` may be called at any
point of any schedule.

Agents are oblivious: :class:`~repro.services.tokens.manager.TokenAgent`
(and therefore :class:`~repro.services.tokens.protocols.TokenMutex` and
:class:`~repro.services.tokens.protocols.ReadersWriterLock`) attach to
any manager of a ring of any size through the same facet
(:class:`ShardFacet`), called through :mod:`repro.rpc`; managers speak
the messages of :mod:`~repro.services.tokens.messages` among themselves
on a second, peer inbox.

Deploy via :meth:`repro.world.World.host_token_shards`, or resolve a
shard through the replicated directory with :func:`resolve_shard` when
the world hosts one (shard hosts are ordinary dapplets and enroll like
any other).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Mapping

from repro.dapplet.dapplet import Dapplet
from repro.errors import CapabilityDenied, DeadlockDetected, TokenError
from repro.net.address import InboxAddress, NodeAddress
from repro.obs.metrics import Counters
from repro.registry.registry import TOKEN_RESOURCE
from repro.rpc import RemoteProxy, export
from repro.services.tokens import messages as tm
from repro.services.tokens.ledger import Ledger, WaitQueue, priority
from repro.services.tokens.manager import AGENT_INBOX, TokenAgent
from repro.services.tokens.ring import ShardRing
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.discovery.resolver import Resolver
    from repro.rpc.messages import Invoke

#: Well-known inbox name of every token shard's facet; its peers send
#: to ``<name>:peer``.
SHARD_INBOX = "_tokshard"


class TokenShardHost(Dapplet):
    """The dapplet a :class:`TokenShard` servlet runs on."""

    kind = "token-shard"


@dataclass(slots=True)
class _Coordinated:
    """Coordinator-side record of one in-flight multi-shard grant."""

    gid: str
    agent: str
    timestamp: int
    principal: str
    granted: Event                                # answers the agent's call
    groups: list[tuple[str, dict]]
    t0: float
    idx: int = 0                                  # next group to prepare
    need: dict[str, int] = field(default_factory=dict)  # prepared counts


class TokenStats(Counters):
    """Counters of one token manager (all monotonic)."""

    layer = "tokens"
    __slots__ = ("grants", "deadlocks", "forwards", "denials", "probes_sent",
                 "probes_received")


class ShardFacet:
    """What a manager exports on its well-known inbox: the agent-facing
    operations. It gates its own callers (``token.request:<color>``
    grants and quotas, against the calling ``Invoke``'s principal), so
    no ``rpc.call:<method>`` gate applies."""

    authorizes_callers = True

    def __init__(self, shard: "TokenShard") -> None:
        self._shard = shard

    def request(self, caller: "Invoke", agent: str, tokens: dict,
                timestamp: int) -> Event:
        """An event firing with the granted ``{color: count}`` map, or
        failing with :class:`DeadlockDetected` or :class:`CapabilityDenied`;
        raises :class:`TokenError` for a colour no manager holds."""
        return self._shard._request(caller, agent, tokens, timestamp)

    def release(self, caller: "Invoke", agent: str, tokens: dict) -> None:
        self._shard._release(agent, tokens)

    def transfer(self, caller: "Invoke", agent: str, to_agent: str,
                 tokens: dict) -> None:
        self._shard._transfer(agent, to_agent, tokens)

    def totals(self, caller: "Invoke", agent: str) -> dict[str, int]:
        self._shard._learn_agent(agent, caller.reply_to)
        return dict(self._shard.global_totals)


class TokenShard:
    """One manager of the token network.

    Serves the agent-facing operations (request / release / transfer /
    totals) on its :class:`ShardFacet`, and the manager-to-manager
    protocol (prepare / commit / abort, forwarded release and transfer,
    probes) on its peer inbox. ``peers`` maps every ring name —
    including this shard's own — to the node its host dapplet runs on.
    The accounting lives in :attr:`ledger`; ``pool``, ``holders`` and
    ``totals`` are read-only views of it; blocked prepares wait in a
    :class:`~repro.services.tokens.ledger.WaitQueue` under ``policy``.
    """

    def __init__(self, dapplet: Dapplet, ring: ShardRing, shard_name: str,
                 peers: Mapping[str, NodeAddress],
                 initial: Mapping[str, int], *, policy: str = "fifo",
                 name: str = SHARD_INBOX) -> None:
        if set(peers) != set(ring.names):
            raise TokenError("peers must name every shard on the ring")
        self.dapplet = dapplet
        self.ring = ring
        self.name = shard_name
        self.peers = {n: a.inbox(f"{name}:peer") for n, a in peers.items()}
        #: The fixed world-wide totals (static: tokens are conserved).
        self.global_totals = dict(initial)
        #: pool / reserved / held for this shard's home colours only
        #: (each colour's count is validated at its home).
        self.ledger = Ledger({c: n for c, n in initial.items()
                              if ring.home(c) == shard_name}, name=shard_name)
        self._queue = WaitQueue(policy)
        self._coordinating: dict[str, _Coordinated] = {}
        #: agent -> its notice facet: authoritative for agents homed on
        #: this shard; for others, what this shard last pushed home.
        self._agents: dict[str, InboxAddress] = {}
        self._gids = itertools.count(1)
        self.stats = TokenStats()
        dapplet.counters.append(self.stats)
        self._remote = export(dapplet, ShardFacet(self), name=name)
        self.inbox = dapplet.create_inbox(name=f"{name}:peer")
        self._trace("shard", shard=shard_name, colors=len(self.totals),
                    ring=len(ring))
        self.server = dapplet.spawn(self._serve(), name=f"tokshard-{shard_name}")

    @property
    def pointer(self) -> InboxAddress:
        """Where agents connect: the facet's global pointer."""
        return self._remote.pointer

    @property
    def totals(self) -> dict[str, int]:
        return self.ledger.totals

    @property
    def pool(self) -> dict[str, int]:
        return self.ledger.pool

    @property
    def holders(self) -> dict[str, dict[str, int]]:
        return self.ledger.holders

    # -- invariants --------------------------------------------------------

    def check_conservation(self) -> None:
        """Assert pool + reserved + held == totals for every home colour
        (and the ledger's usage invariant with it)."""
        self.ledger.check()

    @property
    def quiescent(self) -> bool:
        return not (self._queue or self.ledger.reserved or self._coordinating)

    # -- server ------------------------------------------------------------

    def _serve(self):
        while True:
            msg = yield self.inbox.receive()
            self._handle(msg)

    def _handle(self, msg) -> None:
        handler = self._handlers.get(type(msg))
        if handler is not None:
            handler(self, msg)

    # -- plumbing ----------------------------------------------------------

    def _send_shard(self, shard_name: str, message) -> None:
        """Route a manager-to-manager message by ring name.

        A message to this shard itself is dispatched directly — the
        shard is single-threaded over its inbox, and every handler is
        synchronous, so inline dispatch preserves the exact semantics of
        a loopback hop without the latency.
        """
        if shard_name == self.name:
            self._handle(message)
            return
        self.stats.forwards += 1
        self._trace("forward", to=shard_name, kind=message.wire_name)
        self.dapplet.post(self.peers[shard_name], message)

    def _learn_agent(self, agent: str, reply_to: InboxAddress | None) -> None:
        """Note (agent, notice facet on the calling node), and push it
        to the agent's home shard if that is another one, once per
        facet: a restarted agent replaces its entry."""
        if not agent or reply_to is None:
            return
        pointer = reply_to.node.inbox(AGENT_INBOX)
        if self._agents.get(agent) == pointer:
            return
        self._agents[agent] = pointer
        home = self.ring.home(agent)
        if home != self.name:
            self._send_shard(home, tm.AgentRegister(agent, pointer))

    def _trace(self, event: str, **fields) -> None:
        tr = self.dapplet.kernel.tracer
        if tr is not None:
            tr.emit("tokens", event, node=self.dapplet.address, **fields)

    def _registry(self, principal: str):
        """The registry a request stamped ``principal`` is gated by;
        None for unstamped requests (the pre-registry world)."""
        world = getattr(self.dapplet, "world", None)
        return world.registry if principal and world is not None else None

    # -- the coordinator role (any shard, for requests it accepted) --------

    def _on_agent_register(self, msg: tm.AgentRegister) -> None:
        self._agents[msg.agent] = msg.inbox

    def _request(self, caller: "Invoke", agent: str, tokens: dict,
                 timestamp: int) -> Event:
        self._learn_agent(agent, caller.reply_to)
        for color in tokens:
            if color not in self.global_totals:
                raise TokenError(f"unknown colour {color!r}: no token "
                                 f"manager holds it")
        reason = self._capability_denial(caller.principal, tokens)
        if reason is not None:
            raise self._denial(agent, caller.principal, reason)
        gid = f"{self.name}/{next(self._gids)}"
        kernel = self.dapplet.kernel
        multi = self._coordinating[gid] = _Coordinated(
            gid, agent, timestamp, caller.principal, kernel.event(),
            self.ring.split(tokens), kernel.now)
        self._prepare_next(multi)
        return multi.granted

    def _denial(self, agent: str, principal: str,
                reason: str) -> CapabilityDenied:
        """Count and trace a refused request; the error it fails with."""
        self.stats.denials += 1
        self._trace("denied", agent=agent, principal=principal,
                    reason=reason)
        return CapabilityDenied(
            f"token request of {agent!r} denied: {reason}",
            principal=principal, verb=reason.removeprefix("capability:"),
            target="tokens")

    def _capability_denial(self, principal: str,
                           tokens: dict) -> str | None:
        """Coordinator-side capability gate (quota is the home shards').

        A stamped request needs a ``token.request:<color>`` grant for
        every colour it names. Checked before any 2PC traffic, so a
        denied request costs no cross-shard messages.
        """
        registry = self._registry(principal)
        if registry is None:
            return None
        for color in sorted(tokens):
            verb = f"token.request:{color}"
            if not registry.check(principal, TOKEN_RESOURCE, verb,
                                  node=self.dapplet.address):
                return f"capability:{verb}"
        return None

    def _prepare_next(self, multi: _Coordinated) -> None:
        shard, colors = multi.groups[multi.idx]
        self._send_shard(shard, tm.Prepare(
            gid=multi.gid, agent=multi.agent, colors=colors,
            origin=self.name, timestamp=multi.timestamp,
            principal=multi.principal))

    def _on_prepared(self, msg: tm.Prepared) -> None:
        multi = self._coordinating.get(msg.gid)
        if multi is None:
            # Raced a deadlock abort, which also reached this group's
            # home and refunded the reservation there.
            return
        multi.need.update(msg.colors)
        multi.idx += 1
        if multi.idx < len(multi.groups):
            self._prepare_next(multi)
            return
        del self._coordinating[multi.gid]
        for shard, _ in multi.groups:
            self._send_shard(shard, tm.Commit(multi.gid, multi.agent))
        self.stats.grants += 1
        self._trace("grant", agent=multi.agent,
                    tokens=dict(sorted(multi.need.items())),
                    route=self.dapplet.kernel.now - multi.t0,
                    hops=len(multi.groups))
        multi.granted.succeed(multi.need)

    def _on_prepare_denied(self, msg: tm.PrepareDenied) -> None:
        """A home shard refused a group on quota: fail the whole grant.

        Groups before ``idx`` hold reservations — refund them with
        aborts; the denying shard reserved nothing. The agent's request
        fails with :class:`CapabilityDenied`, exactly as if the
        coordinator had refused the request itself.
        """
        multi = self._coordinating.pop(msg.gid, None)
        if multi is None:
            return  # raced an abort: nothing left to refund here
        for shard, _ in multi.groups[:multi.idx]:
            self._send_shard(shard, tm.Abort(multi.gid))
        multi.granted.fail(self._denial(multi.agent, multi.principal,
                                        msg.reason))

    def _on_deadlock_found(self, msg: tm.DeadlockFound) -> None:
        multi = self._coordinating.pop(msg.gid, None)
        if multi is None:
            return  # stale probe result: already granted or aborted
        self.stats.deadlocks += 1
        for shard, _ in multi.groups[:multi.idx + 1]:
            self._send_shard(shard, tm.Abort(multi.gid))
        cycle = tuple(msg.cycle)
        self._trace("deadlock", agent=multi.agent, cycle=list(cycle))
        multi.granted.fail(DeadlockDetected(
            f"token request of {multi.agent!r} is deadlocked "
            f"(cycle: {' -> '.join(cycle)})", cycle=cycle))

    def _release(self, agent: str, tokens: dict) -> None:
        self._trace("release", agent=agent,
                    tokens=dict(sorted(tokens.items())))
        for shard, colors in self.ring.split(tokens):
            self._send_shard(shard, tm.ReleaseApply(agent, colors))

    def _transfer(self, agent: str, to_agent: str, tokens: dict) -> None:
        for shard, colors in self.ring.split(tokens):
            self._send_shard(shard, tm.TransferApply(agent, to_agent, colors))

    # -- the home-manager role (this shard's own colours) ------------------

    def _on_prepare(self, msg: tm.Prepare) -> None:
        reason = self._quota_denial(msg)
        if reason is not None:
            self.stats.denials += 1
            self._trace("quota_denied", agent=msg.agent,
                        principal=msg.principal, reason=reason)
            self._send_shard(msg.origin, tm.PrepareDenied(msg.gid, reason))
            return
        self._queue.add(msg)
        # A waiter left queued is a new edge of the wait-for graph.
        self._drain(grew=True)

    def _quota_denial(self, msg: tm.Prepare) -> str | None:
        """Would reserving this group exceed the principal's quota?

        Home shards own the ledgers, so the quota gate lives here, not
        at the coordinator: the ledger's ``usage`` counts this
        principal's reserved + held tokens of each home colour, and a
        group that would push any quota'd colour past its
        :meth:`~repro.registry.registry.Registry.quota_for` is refused
        outright (no queueing — a quota'd wait could never be granted
        by releases of *other* principals' tokens, so queueing would
        just hide the denial).
        """
        registry = self._registry(msg.principal)
        if registry is None:
            return None
        used = self.ledger.usage.get(msg.principal, {})
        need = self.ledger.resolve(msg.colors)
        for color in sorted(need):
            quota = registry.quota_for(msg.principal, TOKEN_RESOURCE,
                                       f"token.request:{color}")
            if quota is not None and used.get(color, 0) + need[color] > quota:
                return f"quota:{color}"
        return None

    def _drain(self, grew: bool = False) -> None:
        """Reserve what the wait queue's grant pass yields, then sweep
        probes once if waiters are left and the wait-for graph changed:
        new reservations are new holdings, and ``grew`` says a waiter
        was just added."""
        for entry in self._queue.drain(self.ledger):
            need = self.ledger.reserve(entry.gid, entry.agent,
                                       entry.principal, entry.colors)
            self._send_shard(entry.origin, tm.Prepared(entry.gid, need))
            grew = True
        if grew and self._queue:
            self._probe_sweep()

    def _on_commit(self, msg: tm.Commit) -> None:
        # An unknown gid was already aborted; its refund Abort is in flight.
        if self.ledger.commit(msg.gid) is not None:
            # A committed holding can close a wait cycle the reservation
            # already opened under a different gid ordering — re-probe.
            self._probe_sweep()

    def _on_abort(self, msg: tm.Abort) -> None:
        if self.ledger.abort(msg.gid) is None:
            self._queue.discard(msg.gid)
        # Refunded tokens, or (timestamp policy) a new head of the queue.
        self._drain()

    def _on_release_apply(self, msg: tm.ReleaseApply) -> None:
        self.ledger.release(msg.agent, msg.tokens)
        self._drain()

    def _on_transfer_apply(self, msg: tm.TransferApply) -> None:
        moved = self.ledger.transfer(msg.agent, msg.to_agent, msg.tokens)
        if not moved:
            return
        self._send_shard(self.ring.home(msg.to_agent), tm.ForwardNotice(
            msg.to_agent, msg.agent, moved))
        # Moved holdings can close a wait-for cycle.
        self._probe_sweep()

    def _on_forward_notice(self, msg: tm.ForwardNotice) -> None:
        target = self._agents.get(msg.to_agent)
        if target is not None:
            RemoteProxy(self.dapplet, target).invoke(
                "transferred", msg.from_agent, dict(msg.tokens))

    # -- edge-chasing deadlock detection -----------------------------------

    def _probe_sweep(self) -> None:
        for entry in self._queue:
            self._initiate_probes(entry)

    def _initiate_probes(self, entry: tm.Prepare) -> None:
        for holder in self.ledger.scarce_holders(entry.agent, entry.colors):
            self._broadcast_probe(tm.Probe(
                origin_agent=entry.agent, origin_gid=entry.gid,
                origin_key=priority(entry), origin_coord=entry.origin,
                holder=holder, path=(entry.agent,)))

    def _broadcast_probe(self, probe: tm.Probe) -> None:
        # Every shard sees the probe: the holder's own blocked prepare
        # can be queued anywhere on the ring.
        self.stats.probes_sent += len(self.ring.names)
        for shard in self.ring.names:
            self._send_shard(shard, probe)

    def _on_probe(self, msg: tm.Probe) -> None:
        self.stats.probes_received += 1
        matched = self._queue.of(msg.holder)
        if not matched:
            return
        self._trace("probe", origin=msg.origin_agent, holder=msg.holder,
                    hop=len(msg.path))
        path = tuple(msg.path) + (msg.holder,)
        for entry in matched:
            if priority(entry) > tuple(msg.origin_key):
                # The origin is not the youngest waiter on this chain:
                # kill its probe, launch the younger waiter's own.
                self._initiate_probes(entry)
                continue
            for holder in self.ledger.scarce_holders(entry.agent,
                                                     entry.colors):
                if holder == msg.origin_agent:
                    self._send_shard(msg.origin_coord,
                                     tm.DeadlockFound(msg.origin_gid, path))
                elif holder not in msg.path:
                    self._broadcast_probe(replace(msg, holder=holder,
                                                  path=path))

    _handlers = {
        tm.Prepare: _on_prepare,
        tm.Prepared: _on_prepared,
        tm.PrepareDenied: _on_prepare_denied,
        tm.Commit: _on_commit,
        tm.Abort: _on_abort,
        tm.ReleaseApply: _on_release_apply,
        tm.TransferApply: _on_transfer_apply,
        tm.AgentRegister: _on_agent_register,
        tm.ForwardNotice: _on_forward_notice,
        tm.Probe: _on_probe,
        tm.DeadlockFound: _on_deadlock_found,
    }


class TokenCoordinator(TokenShard):
    """The whole network on one dapplet: a ring of one manager.

    Host it on any dapplet::

        coordinator = TokenCoordinator(host, {"file-a": 1, "file-b": 3})

    ``initial`` fixes the total number of tokens of each colour for the
    lifetime of the system — the paper's conservation invariant,
    checkable at any instant with :meth:`check_conservation`.
    """

    def __init__(self, dapplet: Dapplet, initial: Mapping[str, int],
                 *, policy: str = "fifo", name: str = "_tokens") -> None:
        super().__init__(dapplet, ShardRing([name]), name,
                         {name: dapplet.address}, initial, policy=policy,
                         name=name)


class ShardedTokenService:
    """Facade over one deployed ring of :class:`TokenShard` managers.

    Build it with :meth:`repro.world.World.host_token_shards`; the
    service owns nothing — it is a view over the shard servlets with
    the cross-shard invariant checks the tests and benchmarks use.
    """

    def __init__(self, shards: list[TokenShard],
                 initial: Mapping[str, int]) -> None:
        if not shards:
            raise TokenError("a sharded token service needs >= 1 shard")
        self.shards = list(shards)
        self.ring = shards[0].ring
        self.by_name = {shard.name: shard for shard in shards}
        self.initial = dict(initial)

    def shard_for(self, key: str) -> TokenShard:
        """The home shard of ``key`` (a colour or an agent name)."""
        return self.by_name[self.ring.home(key)]

    def pointer_for(self, key: str) -> InboxAddress:
        """Where an agent named ``key`` should attach."""
        return self.shard_for(key).pointer

    def attach(self, dapplet: Dapplet) -> TokenAgent:
        """A :class:`TokenAgent` for ``dapplet``, attached to its home
        shard — the plain agent class, unchanged."""
        return TokenAgent(dapplet, self.pointer_for(dapplet.name))

    # -- cross-shard invariants -------------------------------------------

    def total_tokens(self) -> dict[str, int]:
        """Live accounting summed over every shard."""
        live: dict[str, int] = {}
        for shard in self.shards:
            for color, n in shard.ledger.live().items():
                live[color] = live.get(color, 0) + n
        return live

    def check_conservation(self) -> None:
        """The paper's invariant, network-wide and instantaneous:
        summed over shards, pool + reserved + held equals the initial
        grant for every colour."""
        for shard in self.shards:
            shard.check_conservation()
        live = self.total_tokens()
        for color, total in self.initial.items():
            if live.get(color, 0) != total:
                raise TokenError(
                    f"global conservation violated for colour {color!r}: "
                    f"live={live.get(color, 0)} initial={total}")

    @property
    def quiescent(self) -> bool:
        """No queued, reserved, or coordinating grant anywhere."""
        return all(shard.quiescent for shard in self.shards)

    def __getattr__(self, name: str) -> int:
        """A :class:`TokenStats` counter summed over the shards."""
        if name not in TokenStats.__slots__:
            raise AttributeError(name)
        return sum(getattr(shard.stats, name) for shard in self.shards)


def resolve_shard(resolver: "Resolver", ring: ShardRing, key: str):
    """Resolve the home shard of ``key`` through the directory.

    A generator (``yield from`` it): looks up the shard's *ring name*
    in the replicated directory — shard hosts enroll like any dapplet —
    and returns the :class:`InboxAddress` a
    :class:`~repro.services.tokens.manager.TokenAgent` can attach to.
    """
    node = yield from resolver.resolve(ring.home(key))
    return InboxAddress(node, SHARD_INBOX)
