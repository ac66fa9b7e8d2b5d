"""The lease-replicated table: one mechanism, two catalogs.

The address directory (:mod:`repro.discovery`) and the DAppStore
(:mod:`repro.registry.store`) are the same thing with different rows: a
name -> record table held by a ring of replica dapplets, where every row
is a lease its owner must keep renewing (:mod:`repro.discovery.lease`).
This is the single implementation of that table — replica, owner-side
agent, client; ``docs/DISCOVERY.md`` describes the protocol. A catalog
subclasses each, supplying class attributes (inbox name, trace words,
message classes, record type) and the hooks that build its rows.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.dapplet.dapplet import Dapplet
from repro.discovery.lease import LeaseConfig, LeaseRecord, merge
from repro.errors import AddressError, ReceiveTimeout
from repro.messages.message import Message
from repro.net.address import InboxAddress, NodeAddress

if TYPE_CHECKING:  # pragma: no cover
    from repro.world import World


@dataclass
class ReplicaStats:
    """Protocol counters for one replica (all monotonic)."""

    grants: int = 0
    renewals: int = 0
    denials: int = 0
    unregisters: int = 0
    expiries: int = 0
    lookups: int = 0
    lookup_hits: int = 0
    gossip_rounds: int = 0
    gossip_merged: int = 0
    gossip_rejected: int = 0

    def snapshot(self) -> dict[str, int]:
        return dict(vars(self))


class LeaseReplica(Dapplet):
    """One replica of a lease-replicated table.

    Three processes: a server on the catalog's well-known inbox, a
    failure detector sweeping out leases whose TTL ran out, and a
    gossiper pushing the version-stamped store to one peer per round.

    A catalog sets ``inbox_name``, ``category`` and ``subject`` (trace
    category; field naming a row), ``words`` (trace event per grant /
    renew / denied / release / expire), ``process_prefix``,
    ``record_type``, the ``Grant`` / ``Denied`` / ``Gossip`` messages,
    ``handlers`` (request class -> unbound handler), ``error`` and
    ``noun`` (what its clients raise and call a replica); and defines
    ``_new_record(msg, epoch, expires_at)`` and
    ``_lookup_reply(msg, live_record_or_None, now)``.
    """

    record_type = LeaseRecord

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
        self.stats = ReplicaStats()
        self._peer_ring: list[NodeAddress] = []
        self._gossip_ix = 0
        self._gossiping = False
        self.inbox = self.create_inbox(name=self.inbox_name)
        self.spawn(self._serve(), name=f"{self.process_prefix}-serve")
        self.spawn(self._sweep_loop(), name=f"{self.process_prefix}-sweep")
        if self._initial_peers:
            self.set_peers(self._initial_peers)

    def set_peers(self, peers: Iterable[NodeAddress]) -> None:
        """Set the ring this replica gossips with (sorted, so the
        round-robin is deterministic); starts gossiping on first use."""
        self._peer_ring = sorted(set(peers))
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

    def _serve(self):
        while True:
            msg = yield self.inbox.receive()
            handler = self.handlers.get(type(msg))
            if handler is not None:
                handler(self, msg)

    def _grant_fields(self, record: LeaseRecord) -> dict:
        """Extra fields of the grant trace event (a catalog hook)."""
        return {}

    # -- lease maintenance ------------------------------------------------

    def _on_claim(self, msg) -> None:
        now = self.kernel.now
        existing = self.store.get(msg.name)
        if existing is not None and existing.live_at(now) \
                and existing.address != msg.address:
            self._deny(msg, "name-taken")
            return
        epoch = max(existing.epoch if existing is not None else 0,
                    msg.epoch_hint) + 1
        record = self._new_record(msg, epoch, now + self.config.ttl)
        self.store[msg.name] = record
        self.stats.grants += 1
        self._trace_row("grant", msg.name, epoch=epoch,
                        **self._grant_fields(record))
        self.post(msg.reply_to, self.Grant(
            msg.req_id, msg.name, epoch, 0, self.config.ttl))

    def _on_renew(self, msg) -> None:
        existing = self.store.get(msg.name)
        if existing is None or not existing.alive \
                or existing.epoch != msg.epoch:
            self._deny(msg, "unknown" if existing is None else "stale-epoch")
            return
        record = replace(existing, version=existing.version + 1,
                         expires_at=self.kernel.now + self.config.ttl)
        self.store[msg.name] = record
        self.stats.renewals += 1
        self._trace_row("renew", msg.name, epoch=record.epoch,
                        version=record.version)
        self.post(msg.reply_to, self.Grant(
            msg.req_id, msg.name, record.epoch, record.version,
            self.config.ttl))

    def _deny(self, msg, reason: str) -> None:
        self.stats.denials += 1
        self._trace_row("denied", msg.name, reason=reason)
        self.post(msg.reply_to, self.Denied(msg.req_id, msg.name, reason))

    def _on_release(self, msg) -> None:
        existing = self.store.get(msg.name)
        if existing is None or not existing.alive \
                or existing.epoch != msg.epoch:
            return
        self.store[msg.name] = existing.expired(
            self.kernel.now, tombstone_ttl=self.config.tombstone_ttl)
        self.stats.unregisters += 1
        self._trace_row("release", msg.name, epoch=msg.epoch)

    def _on_lookup(self, msg) -> None:
        now = self.kernel.now
        record = self.store.get(msg.name)
        self.stats.lookups += 1
        if record is not None and record.live_at(now):
            self.stats.lookup_hits += 1
        else:
            record = None
        self.post(msg.reply_to, self._lookup_reply(msg, record, now))

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
            elif not record.alive and record.expires_at <= now:
                del self.store[name]
        return expired

    # -- anti-entropy gossip -------------------------------------------------

    def _gossip_loop(self):
        while True:
            yield self.kernel.timeout(self.config.gossip_interval)
            if self.stopped:
                return
            if not self._peer_ring or not self.store:
                continue
            peer = self._peer_ring[self._gossip_ix % len(self._peer_ring)]
            self._gossip_ix += 1
            now = self.kernel.now
            entries = tuple(r.to_wire(now)
                            for _, r in sorted(self.store.items()))
            self.stats.gossip_rounds += 1
            self.post(InboxAddress(peer, self.inbox_name),
                      self.Gossip(self.address, entries, True))

    def _on_gossip(self, msg) -> None:
        now = self.kernel.now
        merged = dropped = 0
        seen: dict[str, tuple[int, int, int]] = {}
        for data in msg.entries:
            # Entries arrive from outside the program: one that does not
            # decode is dropped and counted, never raised into _serve.
            try:
                incoming = self.record_type.from_wire(data, now)
            except (KeyError, TypeError, ValueError, AddressError):
                dropped += 1
                continue
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
            fresher = tuple(
                r.to_wire(now) for name, r in sorted(self.store.items())
                if name not in seen or r.stamp > seen[name])
            if fresher:
                self.post(InboxAddress(msg.origin, self.inbox_name),
                          self.Gossip(self.address, fresher, False))

    def _trace(self, event: str, **fields) -> None:
        tr = self.kernel.tracer
        if tr is not None:
            tr.emit(self.category, event, node=self.address, **fields)

    def _trace_row(self, word: str, name: str, **fields) -> None:
        self._trace(self.words[word], **{self.subject: name}, **fields)


class LeaseClient:
    """One dapplet's request/reply port onto a catalog's replica ring.

    Talks to one replica at a time and rotates to the next on silence.
    ``table`` is the catalog's replica class (inbox name, trace category,
    error type, message classes); ``role`` tags ``failover`` events.
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
        self.replicas = tuple(replicas)
        self.failovers = 0
        self._ix = first % len(self.replicas)
        self._req_ids = itertools.count(1)
        self.inbox = dapplet.create_inbox()

    @property
    def replica(self) -> NodeAddress:
        """The replica requests currently go to."""
        return self.replicas[self._ix % len(self.replicas)]

    def _query(self, request: Callable[[int], Message], reply_type,
               what: str):
        """Ask each replica in turn until one answers. A negative answer
        from a live replica is an answer; only when every replica stayed
        silent is the catalog's typed error raised."""
        for _ in self.replicas:
            try:
                reply = yield from self._ask(request, reply_type)
            except AddressError:
                break
            if reply is not None:
                return reply
            self._failover()
        raise self.table.error(
            f"could not {what}: no {self.table.noun} answered within "
            f"{self.config.request_timeout}s each "
            f"(tried {len(self.replicas)})")

    def _ask(self, request: Callable[[int], Message], reply_types):
        """One request to the current replica: the reply echoing its
        ``req_id``, or None on timeout. Raises :class:`AddressError` once
        the owning dapplet has stopped."""
        req_id = next(self._req_ids)
        self.dapplet.post(self._replica_inbox(), request(req_id))
        return (yield from self._await_reply(req_id, reply_types))

    def _await_reply(self, req_id: int, reply_types):
        deadline = self.kernel.now + self.config.request_timeout
        while True:
            remaining = deadline - self.kernel.now
            if remaining <= 0:
                return None
            try:
                msg = yield self.inbox.receive(timeout=remaining)
            except (ReceiveTimeout, AddressError):
                return None
            if isinstance(msg, reply_types) and msg.req_id == req_id:
                return msg
            # A stale reply from a replica we already failed away from.

    def _failover(self) -> None:
        self._ix += 1
        self.failovers += 1
        role = {"role": self.role} if self.role else {}
        self._trace("failover", **role, to=str(self.replica))

    def _replica_inbox(self) -> InboxAddress:
        return InboxAddress(self.replica, self.table.inbox_name)

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
    out. A catalog sets ``process_name``, ``claimed_word`` (trace event
    of a granted claim), the ``Renew`` / ``Release`` messages, and
    defines ``_claim_message(req_id)``.
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
        self._replies = (self.table.Grant, self.table.Denied)
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
                self.dapplet.post(self._replica_inbox(),
                                  self.Release(self.name, self.epoch))
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
                reply = yield from self._ask(self._claim_message,
                                             self._replies)
            except AddressError:
                return False
            if self._halted():
                return False
            if isinstance(reply, self.table.Grant):
                self.epoch = reply.epoch
                if not self.claimed.triggered:
                    self.claimed.succeed(self.replica)
                self._trace(self.claimed_word, epoch=reply.epoch)
                return True
            if reply is None:
                self._failover()
            elif reply.reason == "name-taken":
                # A previous holder's lease is still live (typically our
                # own, pre-failover or pre-restart, at a stale address).
                # It stops being renewed, so it expires within one TTL:
                # wait and retry.
                yield self.kernel.timeout(self.config.renew_interval)
        return False

    def _heartbeat(self):
        while True:
            yield self.kernel.timeout(self.config.renew_interval)
            if self._halted():
                return
            try:
                reply = yield from self._ask(
                    lambda req_id: self.Renew(req_id, self.name, self.epoch,
                                              self.inbox.address),
                    self._replies)
            except AddressError:
                return
            if self._halted():
                return
            if isinstance(reply, self.table.Grant):
                self.renewals += 1
                continue
            if reply is None:
                self._failover()
            # Denied (the replica lost or superseded our lease) or timed
            # out: either way the fix is a fresh claim.
            if not (yield from self._claim()):
                return

    def _halted(self) -> bool:
        return self._done or self.dapplet.stopped
