"""The client-side resolver: cached, failover-capable name lookup.

A :class:`Resolver` is the discovery subsystem's read path: a
:class:`~repro.discovery.table.LeaseClient` that asks a directory
replica to resolve a name and caches the answer for ``min(cache_ttl,
remaining lease TTL)`` — so a cached entry can never outlive the lease
it was derived from by more than ``cache_ttl``. A *negative* answer from
a live replica is authoritative: the name's lease has expired (or never
existed) and :meth:`resolve` raises :class:`~repro.errors.LeaseExpired`
so callers skip the dead participant instead of hanging on it.

``resolve`` is a generator — call it from a process body::

    address = yield from resolver.resolve("calendar-alice")
"""

from __future__ import annotations

from typing import Sequence

from repro.dapplet.dapplet import Dapplet
from repro.discovery.lease import LeaseConfig
from repro.discovery.replica import DirectoryReplica
from repro.discovery.table import LeaseClient
from repro.errors import DiscoveryError, LeaseExpired
from repro.net.address import NodeAddress
from repro.obs.metrics import Counters


class ResolverStats(Counters):
    """Counters for one resolver (all monotonic)."""

    layer = "resolver"
    __slots__ = ("hits", "misses", "resolves", "failures", "failovers")


class Resolver(LeaseClient):
    """Resolves names against the directory replicas, with caching."""

    table = DirectoryReplica
    role = "resolver"

    def __init__(self, dapplet: Dapplet, replicas: Sequence[NodeAddress],
                 *, config: LeaseConfig | None = None) -> None:
        super().__init__(dapplet, replicas, config=config)
        self.stats = ResolverStats()
        dapplet.counters.append(self.stats)
        #: name -> (address, kind, fresh_until)
        self._cache: dict[str, tuple[NodeAddress, str, float]] = {}

    def _failover(self) -> None:
        super()._failover()
        self.stats.failovers += 1

    def invalidate(self, name: str | None = None) -> None:
        """Drop one cached entry, or all of them."""
        if name is None:
            self._cache.clear()
        else:
            self._cache.pop(name, None)

    def resolve(self, name: str):
        """Resolve ``name`` to its registered :class:`NodeAddress`.

        A generator (``yield from`` it). Raises
        :class:`~repro.errors.LeaseExpired` when a replica answers that
        no live lease exists, or :class:`~repro.errors.DiscoveryError`
        when every replica failed to answer.
        """
        address, _ = yield from self.resolve_kind(name)
        return address

    def resolve_kind(self, name: str):
        """Like :meth:`resolve` but returns ``(address, kind)``."""
        t0 = self.kernel.now
        cached = self._cache.get(name)
        if cached is not None and cached[2] > t0:
            self.stats.hits += 1
            self._trace("cache_hit", lease=name)
            return cached[0], cached[1]
        self.stats.misses += 1
        self._trace("cache_miss", lease=name)
        try:
            row = yield from self._call_any(f"resolve {name!r}", "lookup",
                                            name)
            if row is None:
                self._trace("resolve_miss", lease=name)
                raise LeaseExpired(
                    f"no live lease for {name!r}: the dapplet is dead, "
                    "expired, or was never registered", name=name)
        except DiscoveryError:  # LeaseExpired included
            self.stats.failures += 1
            self._cache.pop(name, None)
            raise
        address, kind, ttl_left = row
        now = self.kernel.now
        fresh_until = now + min(self.config.cache_ttl, ttl_left)
        self._cache[name] = (address, kind, fresh_until)
        self.stats.resolves += 1
        self._trace("resolve", lease=name, rlat=now - t0)
        return address, kind
