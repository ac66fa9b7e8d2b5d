"""Leases: the unit of truth in the replicated directory.

The paper punts on directory maintenance ("We do not address how this
directory is maintained in this paper"); this subsystem's answer is the
classic one — a registration is not a fact but a **lease**: a claim with
a time-to-live that the owning dapplet must keep renewing. A silent
dapplet's lease runs out and every replica's failure detector turns it
into a tombstone, so lookups stop returning the dead without anyone ever
announcing the death.

Each lease carries a **version stamp** ``(epoch, version)``:

* ``epoch`` increments on every (re-)registration — the granting replica
  picks ``max(known epoch, agent's hint) + 1``, so a dapplet that fails
  over to another replica supersedes its old lease everywhere once
  gossip spreads the new epoch;
* ``version`` increments on every renewal, expiry or unregistration
  within an epoch.

Anti-entropy gossip merges replicas' stores by last-writer-wins on the
stamp (:meth:`LeaseRecord.stamp`; a tombstone outranks a live record
with the same stamp, so a detected death is never un-detected by a tie).
Expiry deadlines travel as *remaining* TTL (:meth:`LeaseRecord.to_wire`)
rather than absolute times, so replicas never compare each other's
clocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.errors import DiscoveryError
from repro.net.address import NodeAddress


@dataclass(frozen=True, slots=True)
class LeaseConfig:
    """Timing knobs shared by replicas, agents and resolvers.

    All values are in substrate seconds (virtual on the simulator, real
    on asyncio). The defaults keep a comfortable margin between the
    lease TTL and the renewal heartbeat plus worst-case gossip lag, so a
    *live* dapplet is never spuriously expired by a replica that only
    hears about it second-hand.
    """

    #: Lifetime granted per registration or renewal.
    ttl: float = 4.0
    #: Heartbeat period of the owning dapplet's registration agent.
    renew_interval: float = 1.0
    #: Period of each replica's failure-detector sweep.
    sweep_interval: float = 0.5
    #: Period of anti-entropy gossip (one peer per round, round-robin).
    gossip_interval: float = 1.0
    #: How long an expired/unregistered entry is remembered as a
    #: tombstone (so gossip spreads the death instead of resurrecting
    #: the entry from a replica that has not noticed yet).
    tombstone_ttl: float = 30.0
    #: Resolver-side cache lifetime (further bounded by the remaining
    #: lease TTL the answering replica reports). 0 disables caching.
    cache_ttl: float = 1.0
    #: How long agents and resolvers wait for a replica's reply before
    #: failing over to the next replica.
    request_timeout: float = 1.0

    def __post_init__(self) -> None:
        for field in ("ttl", "sweep_interval", "gossip_interval",
                      "tombstone_ttl", "request_timeout"):
            if getattr(self, field) <= 0:
                raise DiscoveryError(f"LeaseConfig.{field} must be > 0")
        if not 0 < self.renew_interval < self.ttl:
            raise DiscoveryError(
                "LeaseConfig.renew_interval must be positive and smaller "
                f"than ttl ({self.renew_interval} vs {self.ttl})")
        if self.cache_ttl < 0:
            raise DiscoveryError("LeaseConfig.cache_ttl must be >= 0")

    def staleness_bound(self, replicas: int = 1) -> float:
        """Worst-case time a dead dapplet can still resolve.

        Its lease outlives the last renewal by ``ttl``; a replica that
        only hears of renewals via gossip lags a further gossip round
        per intermediate peer; the failure-detector sweep adds at most
        one period; and a resolver may serve the entry from cache for
        ``cache_ttl`` more. The E14 benchmark measures the real window
        against this bound.
        """
        return (self.ttl + max(0, replicas - 1) * self.gossip_interval
                + self.sweep_interval + self.cache_ttl)


@dataclass(frozen=True, slots=True)
class LeaseRecord:
    """One version-stamped directory row held by a replica.

    ``expires_at`` is *local* substrate time: the instant this replica's
    failure detector will declare the lease dead (or, for a tombstone,
    forget it entirely).
    """

    name: str
    address: NodeAddress
    kind: str
    epoch: int
    version: int
    alive: bool
    expires_at: float

    @property
    def stamp(self) -> tuple[int, int, int]:
        """Last-writer-wins ordering key.

        Higher epoch beats lower; within an epoch higher version beats
        lower; at an identical ``(epoch, version)`` a tombstone beats a
        live record — two replicas can expire the same lease at the same
        version independently, and a detected death must win ties.
        """
        return (self.epoch, self.version, 0 if self.alive else 1)

    def live_at(self, now: float) -> bool:
        return self.alive and self.expires_at > now

    def forgotten_at(self, now: float) -> bool:
        """A tombstone past its expiry: swept in effect, whether or not
        its replica's sweep has run yet."""
        return not self.alive and self.expires_at <= now

    def expired(self, now: float, *, tombstone_ttl: float) -> "LeaseRecord":
        """The tombstone this record becomes when its lease runs out."""
        return replace(self, version=self.version + 1, alive=False,
                       expires_at=now + tombstone_ttl)

    # -- wire form (inside gossip messages) -----------------------------

    def to_wire(self, now: float) -> dict:
        """Encode with a *relative* remaining TTL (clock-skew tolerant)."""
        return {"n": self.name, "a": str(self.address), "k": self.kind,
                "e": self.epoch, "v": self.version, "al": self.alive,
                "tl": self.expires_at - now}

    @classmethod
    def from_wire(cls, data: dict, now: float) -> "LeaseRecord":
        """Decode strictly: a malformed entry raises ``KeyError``,
        ``TypeError``, ``ValueError`` or ``AddressError``."""
        return cls(**wire_fields(data, now))


def wire_fields(data: dict, now: float) -> dict:
    """The :class:`LeaseRecord` constructor arguments in a wire entry.
    Entries come from outside the program, so nothing is let through
    that could poison a store: names are sorted, deadlines compared."""
    name, address, kind = data["n"], data["a"], data["k"]
    if not (isinstance(name, str) and isinstance(address, str)
            and isinstance(kind, str)):
        raise TypeError("lease entry name/address/kind must be strings")
    ttl_left = float(data["tl"])
    if not math.isfinite(ttl_left):
        raise ValueError("lease entry remaining TTL must be finite")
    return {"name": name, "address": NodeAddress.parse(address),
            "kind": kind, "epoch": int(data["e"]),
            "version": int(data["v"]), "alive": bool(data["al"]),
            "expires_at": now + ttl_left}


def merge(existing: "LeaseRecord | None",
          incoming: LeaseRecord) -> "LeaseRecord | None":
    """The record a replica should keep after seeing ``incoming``.

    Returns ``None`` when ``existing`` already covers it (no store
    write). Last-writer-wins on :attr:`LeaseRecord.stamp`; at equal
    stamps the later local expiry is kept, so gossip can only ever
    *extend* knowledge of a lease, never roll it back.
    """
    if existing is None or incoming.stamp > existing.stamp:
        return incoming
    if incoming.stamp == existing.stamp \
            and incoming.expires_at > existing.expires_at:
        return replace(existing, expires_at=incoming.expires_at)
    return None
