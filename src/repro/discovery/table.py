"""The lease-replicated table: one mechanism, two catalogs.

The address directory (:mod:`repro.discovery`) and the DAppStore
(:mod:`repro.registry.store`) are the same thing with different rows: a
name -> record table held by a ring of replica dapplets, where every row
is a lease its owner must keep renewing (:mod:`repro.discovery.lease`).
This is the single implementation of that table — replica, owner-side
agent, client; ``docs/DISCOVERY.md`` describes the protocol. A catalog
subclasses each, supplying class attributes (inbox name, trace words,
facet and record type) and the hooks that build its rows.

Clients reach a replica the paper's way (§3.2): each replica exports a
:class:`LeaseFacet` behind its well-known inbox, and a client calls its
methods through one :class:`~repro.rpc.RemoteProxy`. Only replica to
replica anti-entropy is a message of its own, :class:`Gossip`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from functools import partial
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.dapplet.dapplet import Dapplet
from repro.discovery.lease import LeaseConfig, LeaseRecord, merge
from repro.errors import AddressError, LeaseDenied, RpcError, RpcTimeout
from repro.messages.message import Message, message_type
from repro.net.address import InboxAddress, NodeAddress
from repro.obs.metrics import Counters
from repro.rpc import RemoteProxy, export

if TYPE_CHECKING:  # pragma: no cover
    from repro.world import World


@message_type("lease.gossip")
@dataclass(frozen=True)
class Gossip(Message):
    """One anti-entropy exchange between two replicas of a catalog.

    ``entries`` is a tuple of wire-encoded rows
    (:meth:`~repro.discovery.lease.LeaseRecord.to_wire`): those the
    sender does not know the receiver to hold at their stamp. With
    ``want_reply`` the receiver answers with every row it holds that is
    strictly newer than (or absent from) what it knows the sender to
    hold, this push included — push-pull, so one round reconciles both
    directions.
    """

    origin: NodeAddress
    entries: tuple
    want_reply: bool


class ReplicaStats(Counters):
    """Protocol counters for one directory replica (all monotonic)."""

    layer = "directory"
    __slots__ = ("grants", "renewals", "denials", "unregisters", "expiries",
                 "lookups", "lookup_hits", "gossip_rounds", "gossip_merged",
                 "gossip_rejected")


class LeaseFacet:
    """What a replica exports: the table's requests, and nothing else.

    The replica dapplet itself is not exported, so its own public
    methods (``stop``, ``sweep``, ``set_peers``) cannot be invoked from
    the network. A refused claim or renewal raises
    :class:`~repro.errors.LeaseDenied`, which the caller sees as an
    :class:`~repro.errors.RpcError` with that ``remote_type`` and the
    reason as its message.
    """

    def __init__(self, replica: "LeaseReplica") -> None:
        self._replica = replica

    def claim(self, name: str, address: NodeAddress, row_fields,
              epoch_hint: int) -> int:
        """Grant ``name`` to ``address``; returns the lease's epoch."""
        return self._replica._claim(name, address, row_fields, epoch_hint)

    def renew(self, name: str, epoch: int) -> None:
        """Extend the lease ``name`` holds under ``epoch`` by one TTL."""
        self._replica._renew(name, epoch)

    def release(self, name: str, epoch: int) -> None:
        """Tombstone the lease now (callers ``invoke`` it, one-way)."""
        self._replica._release(name, epoch)

    def lookup(self, name: str) -> "tuple | None":
        """The live row for ``name`` (the catalog's tuple), or None."""
        return self._replica._lookup(name)


class LeaseReplica(Dapplet):
    """One replica of a lease-replicated table.

    Serves its :class:`LeaseFacet` on the catalog's well-known inbox,
    merges :class:`Gossip` on a second one, and runs two processes: a
    failure detector sweeping out leases whose TTL ran out, and a
    gossiper pushing to one peer per round the version-stamped rows
    that peer is not known to hold.

    A catalog sets ``inbox_name``, ``category`` and ``subject`` (trace
    category; field naming a row), ``words`` (trace event per grant /
    renew / denied / release / expire), ``process_prefix``,
    ``record_type``, ``facet``, ``error`` and ``noun`` (what its clients
    raise and call a replica); and defines ``_new_record(name, address,
    row_fields, epoch, expires_at)`` and ``_row(live_record, now)``;
    ``stats_type`` (a :class:`ReplicaStats` twin) names its counters'
    layer.
    """

    record_type = LeaseRecord
    facet = LeaseFacet
    stats_type = ReplicaStats

    def __init__(self, world: "World", address: NodeAddress, name: str,
                 *, config: LeaseConfig | None = None,
                 peers: Iterable[NodeAddress] = ()) -> None:
        # setup() runs inside Dapplet.__init__, so configuration must be
        # in place first.
        self.config = config or LeaseConfig()
        self._initial_peers = tuple(peers)
        super().__init__(world, address, name)

    def setup(self) -> None:
        #: name -> newest known record (live or tombstone).
        self.store: dict[str, LeaseRecord] = {}
        self.stats = self.stats_type()
        self.counters.append(self.stats)
        self._peer_ring: list[NodeAddress] = []
        #: peer -> {name: highest stamp the peer is known to hold}, fed
        #: only by what it sent us and by receipts of what we sent it.
        self._known: dict[NodeAddress, dict[str, tuple]] = {}
        #: peer -> {name: stamp} sent to it, receipt not yet settled.
        self._flying: dict[NodeAddress, dict[str, tuple]] = {}
        self._gossip_ix = 0
        self._gossiping = False
        export(self, self.facet(self), name=self.inbox_name)
        self.gossip_inbox = self.create_inbox(name=f"{self.inbox_name}:gossip")
        self.spawn(self._merge_loop(), name=f"{self.process_prefix}-merge")
        self.spawn(self._sweep_loop(), name=f"{self.process_prefix}-sweep")
        if self._initial_peers:
            self.set_peers(self._initial_peers)

    def set_peers(self, peers: Iterable[NodeAddress]) -> None:
        """Set the ring this replica gossips with (sorted, so the
        round-robin is deterministic); starts gossiping on first use."""
        self._peer_ring = sorted(set(peers))
        self._known = {p: self._known.get(p, {}) for p in self._peer_ring}
        self._flying = {p: self._flying.get(p, {}) for p in self._peer_ring}
        if self._peer_ring and not self._gossiping:
            self._gossiping = True
            self.spawn(self._gossip_loop(),
                       name=f"{self.process_prefix}-gossip")

    @property
    def peers(self) -> tuple[NodeAddress, ...]:
        return tuple(self._peer_ring)

    def live_records(self) -> list[LeaseRecord]:
        """The rows this replica would currently serve, sorted by name."""
        now = self.kernel.now
        return [r for _, r in sorted(self.store.items()) if r.live_at(now)]

    def _grant_fields(self, record: LeaseRecord) -> dict:
        """Extra fields of the grant trace event (a catalog hook)."""
        return {}

    # -- lease maintenance (reached through the facet) ----------------------

    def _claim(self, name: str, address: NodeAddress, row_fields,
               epoch_hint: int) -> int:
        now = self.kernel.now
        existing = self.store.get(name)
        if existing is not None and existing.live_at(now) \
                and existing.address != address:
            raise self._denial(name, "name-taken")
        epoch = max(existing.epoch if existing is not None else 0,
                    epoch_hint) + 1
        record = self._new_record(name, address, row_fields, epoch,
                                  now + self.config.ttl)
        self.store[name] = record
        self.stats.grants += 1
        self._trace_row("grant", name, epoch=epoch,
                        **self._grant_fields(record))
        return epoch

    def _renew(self, name: str, epoch: int) -> None:
        now = self.kernel.now
        existing = self.store.get(name)
        if existing is None:
            raise self._denial(name, "unknown")
        if not existing.alive or existing.epoch != epoch:
            raise self._denial(name, "stale-epoch")
        # Past its TTL but not yet swept: a lookup already answers
        # "absent", and a peer's tombstone would outrank this renewal.
        if not existing.live_at(now):
            raise self._denial(name, "expired")
        record = replace(existing, version=existing.version + 1,
                         expires_at=now + self.config.ttl)
        self.store[name] = record
        self.stats.renewals += 1
        self._trace_row("renew", name, epoch=record.epoch,
                        version=record.version)

    def _denial(self, name: str, reason: str) -> LeaseDenied:
        self.stats.denials += 1
        self._trace_row("denied", name, reason=reason)
        return LeaseDenied(reason)

    def _release(self, name: str, epoch: int) -> None:
        existing = self.store.get(name)
        if existing is None or not existing.alive \
                or existing.epoch != epoch:
            return
        self.store[name] = existing.expired(
            self.kernel.now, tombstone_ttl=self.config.tombstone_ttl)
        self.stats.unregisters += 1
        self._trace_row("release", name, epoch=epoch)

    def _lookup(self, name: str) -> "tuple | None":
        now = self.kernel.now
        record = self.store.get(name)
        self.stats.lookups += 1
        if record is None or not record.live_at(now):
            return None
        self.stats.lookup_hits += 1
        return self._row(record, now)

    # -- failure detector ---------------------------------------------------

    def _sweep_loop(self):
        while True:
            yield self.kernel.timeout(self.config.sweep_interval)
            if self.stopped:
                return
            self.sweep()

    def sweep(self) -> int:
        """Expire overdue leases; drop overdue tombstones. Returns the
        number of leases expired (the failure detector's detections)."""
        now = self.kernel.now
        expired = 0
        for name, record in list(self.store.items()):
            if record.alive and record.expires_at <= now:
                self.store[name] = record.expired(
                    now, tombstone_ttl=self.config.tombstone_ttl)
                self.stats.expiries += 1
                expired += 1
                self._trace_row("expire", name, epoch=record.epoch)
            elif record.forgotten_at(now):
                self._forget(name)
        return expired

    def _forget(self, name: str) -> None:
        """Drop a tombstone past its expiry, and every stamp of it that
        the peer maps hold."""
        del self.store[name]
        for stamps in (*self._known.values(), *self._flying.values()):
            stamps.pop(name, None)

    # -- anti-entropy gossip -------------------------------------------------

    def _gossip_loop(self):
        while True:
            yield self.kernel.timeout(self.config.gossip_interval)
            if self.stopped:
                return
            self._push()

    def _push(self) -> None:
        """One gossip round: push to the next peer of the ring."""
        if not self._peer_ring or not self.store:
            return
        peer = self._peer_ring[self._gossip_ix % len(self._peer_ring)]
        self._gossip_ix += 1
        self.stats.gossip_rounds += 1
        # Sent even when empty: the reply is how the peer's news comes
        # back, so the exchange schedule never depends on our news.
        self._send_gossip(peer, self._known[peer], True)

    def _merge_loop(self):
        while True:
            msg = yield self.gossip_inbox.receive()
            if isinstance(msg, Gossip):
                self._on_gossip(msg)

    def _send_gossip(self, peer: NodeAddress, known: dict,
                     want_reply: bool) -> None:
        """Send ``peer`` every row newer than ``known`` says it holds.

        A push repeats every row until a receipt confirms it. A reply
        skips the rows of earlier sends still unconfirmed: it follows
        them down the same FIFO channel, so it arrives after them or
        fails with them. It goes only if there is something in it."""
        now = self.kernel.now
        flying = self._flying.get(peer, {})
        skip = {} if want_reply else flying
        rows = [r for name, r in sorted(self.store.items())
                if r.stamp > known.get(name, ())
                and r.stamp > skip.get(name, ()) and not r.forgotten_at(now)]
        if not rows and not want_reply:
            return
        sent = self.post(peer.inbox(self.gossip_inbox.name), Gossip(
            self.address, tuple(r.to_wire(now) for r in rows), want_reply))
        if rows and peer in self._known:
            for r in rows:
                flying[r.name] = max(flying.get(r.name, ()), r.stamp)
            for receipt in sent.receipts:
                receipt.confirmed.callbacks.append(
                    partial(self._settled, peer, rows))

    def _settled(self, peer: NodeAddress, rows: list[LeaseRecord],
                 receipt_event) -> None:
        """A receipt for ``rows`` resolved: if delivered, ``peer`` holds
        at least their stamps."""
        known, flying = self._known.get(peer), self._flying.get(peer)
        if known is None:
            return
        for r in rows:
            if flying.get(r.name) == r.stamp:
                del flying[r.name]
            # A name swept out meanwhile stays out of the map.
            if receipt_event.ok and r.name in self.store \
                    and r.stamp > known.get(r.name, ()):
                known[r.name] = r.stamp

    def _on_gossip(self, msg: Gossip) -> None:
        now = self.kernel.now
        merged = dropped = 0
        # A ring peer's entries are evidence of what it holds; an origin
        # outside the ring gets a reply against this message alone.
        seen = self._known.get(msg.origin, {})
        for data in msg.entries:
            # Entries arrive from outside the program: one that does not
            # decode is dropped and counted, never raised into the loop.
            try:
                incoming = self.record_type.from_wire(data, now)
            except (KeyError, TypeError, ValueError, AddressError):
                dropped += 1
                continue
            if incoming.forgotten_at(now):
                continue  # lapsed in flight: as good as swept
            existing = self.store.get(incoming.name)
            if existing is not None and existing.forgotten_at(now):
                self._forget(incoming.name)  # ahead of the sweep
            seen[incoming.name] = incoming.stamp
            updated = merge(self.store.get(incoming.name), incoming)
            if updated is not None:
                self.store[incoming.name] = updated
                merged += 1
        self.stats.gossip_merged += merged
        if dropped:
            self.stats.gossip_rejected += dropped
            self._trace("gossip_reject", peer=str(msg.origin),
                        dropped=dropped)
        self._trace("gossip_sync", peer=str(msg.origin),
                    received=len(msg.entries), merged=merged)
        if msg.want_reply:
            self._send_gossip(msg.origin, seen, False)

    def _trace(self, event: str, **fields) -> None:
        tr = self.kernel.tracer
        if tr is not None:
            tr.emit(self.category, event, node=self.address, **fields)

    def _trace_row(self, word: str, name: str, **fields) -> None:
        self._trace(self.words[word], **{self.subject: name}, **fields)


class LeaseClient:
    """One dapplet's port onto a catalog's replica ring.

    Calls one replica's facet at a time through one
    :class:`~repro.rpc.RemoteProxy`, and rotates to the next replica on
    silence. ``replicas`` is held, not copied: the world hands every
    client its catalog's one address list and updates it when a replica
    restarts, and each call is pointed at the list's current entry.
    ``table`` is the catalog's replica class (inbox name, trace
    category, error type); ``role`` tags ``failover`` events.
    """

    table: type[LeaseReplica]
    role: str | None = None
    _trace_fields: dict = {}

    def __init__(self, dapplet: Dapplet, replicas: Sequence[NodeAddress],
                 *, config: LeaseConfig | None = None,
                 first: int = 0) -> None:
        if not replicas:
            raise self.table.error(
                f"{type(self).__name__} needs >= 1 {self.table.noun}")
        self.dapplet = dapplet
        self.kernel = dapplet.kernel
        self.config = config or LeaseConfig()
        self.replicas = replicas
        self.failovers = 0
        self._ix = first % len(self.replicas)
        self.proxy = RemoteProxy(dapplet, self._pointer())

    @property
    def replica(self) -> NodeAddress:
        """The replica requests currently go to."""
        return self.replicas[self._ix % len(self.replicas)]

    def _pointer(self) -> InboxAddress:
        return self.replica.inbox(self.table.inbox_name)

    def _call(self, method: str, *args):
        """Call the current replica; RpcTimeout after request_timeout."""
        self.proxy.pointer = self._pointer()
        return self.proxy.call(method, *args,
                               timeout=self.config.request_timeout)

    def _call_any(self, what: str, method: str, *args):
        """Call ``method`` on each replica in turn until one answers. A
        negative answer from a live replica is an answer; only when
        every replica stayed silent is the catalog's typed error
        raised."""
        for _ in self.replicas:
            try:
                return (yield self._call(method, *args))
            except RpcTimeout:
                self._failover()
            except AddressError:
                break
        raise self.table.error(
            f"could not {what}: no {self.table.noun} answered within "
            f"{self.config.request_timeout}s each "
            f"(tried {len(self.replicas)})")

    def _failover(self) -> None:
        self._ix += 1
        self.failovers += 1
        role = {"role": self.role} if self.role else {}
        self._trace("failover", **role, to=str(self.replica))

    def _trace(self, event: str, **fields) -> None:
        tr = self.kernel.tracer
        if tr is not None:
            tr.emit(self.table.category, event, node=self.dapplet.address,
                    **self._trace_fields, **fields)


class LeaseAgent(LeaseClient):
    """Keeps one name's lease alive: claim, heartbeat, fail over.

    On silence it re-claims at the next replica with a higher epoch
    hint, so the new lease supersedes the old one everywhere; when the
    owning dapplet stops or dies the heartbeats stop and the lease runs
    out. A catalog sets ``process_name`` and ``claimed_word`` (trace
    event of a granted claim), and defines ``_row_fields()`` (the
    catalog's columns of the claimed row).
    """

    def __init__(self, dapplet: Dapplet, replicas: Sequence[NodeAddress],
                 name: str, *, config: LeaseConfig | None = None) -> None:
        # Deterministic load spreading: same name -> same home replica,
        # independent of construction order or interpreter hashing.
        super().__init__(dapplet, replicas, config=config,
                         first=zlib.crc32(name.encode()))
        self.name = name
        self.epoch = 0
        self.renewals = 0
        self._done = False
        self._trace_fields = {self.table.subject: name}
        #: Fires (with the granting replica's address) after the first
        #: successful claim.
        self.claimed = self.kernel.event()
        self.process = dapplet.spawn(self._run(), name=self.process_name)

    def _release(self) -> None:
        """Tombstone the lease now instead of waiting out the TTL
        (fire-and-forget: safe right before ``stop()``)."""
        if self._done:
            return
        self._done = True
        if self.epoch and not self.dapplet.stopped:
            try:
                self.proxy.pointer = self._pointer()
                self.proxy.invoke("release", self.name, self.epoch)
            except AddressError:
                pass

    def _run(self):
        if (yield from self._claim()):
            yield from self._heartbeat()

    def _claim(self):
        """Acquire a lease, failing over between replicas until one
        grants it. Returns True on success, False if halted first."""
        while not self._halted():
            try:
                epoch = yield self._call("claim", self.name,
                                         self.dapplet.address,
                                         self._row_fields(), self.epoch)
            except AddressError:
                return False
            except RpcError as exc:
                if self._halted():
                    return False
                if isinstance(exc, RpcTimeout):
                    self._failover()
                elif exc.remote_message == "name-taken":
                    # A previous holder's lease is still live (typically
                    # our own, pre-failover or pre-restart, at a stale
                    # address). It stops being renewed, so it expires
                    # within one TTL: wait and retry.
                    yield self.kernel.timeout(self.config.renew_interval)
                continue
            if self._halted():
                return False
            self.epoch = epoch
            if not self.claimed.triggered:
                self.claimed.succeed(self.replica)
            self._trace(self.claimed_word, epoch=epoch)
            return True
        return False

    def _heartbeat(self):
        while True:
            yield self.kernel.timeout(self.config.renew_interval)
            if self._halted():
                return
            try:
                yield self._call("renew", self.name, self.epoch)
            except AddressError:
                return
            except RpcError as exc:
                if isinstance(exc, RpcTimeout) and not self._halted():
                    self._failover()
                # Denied (the replica lost, superseded or let lapse our
                # lease) or timed out: either way the fix is a fresh claim.
                if not (yield from self._claim()):
                    return
                continue
            if self._halted():
                return
            self.renewals += 1

    def _halted(self) -> bool:
        return self._done or self.dapplet.stopped
