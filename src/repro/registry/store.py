"""The DAppStore: a replicated catalog of dapplet manifests.

The second catalog on the lease-replicated table of
:mod:`repro.discovery.table` (mechanism: ``docs/DISCOVERY.md``). Rows
are :class:`~repro.registry.manifest.ManifestRecord` — a lease plus its
manifest — under hierarchical ``org/app/instance`` names, served on the
``_dappstore`` inbox and traced as ``reg``; what the catalog adds is
prefix listing, one more method on the exported facet.
:class:`PublishAgent` keeps one manifest's lease alive;
:class:`StoreClient` gives any dapplet lookup/list access.
"""

from __future__ import annotations

from typing import Sequence

from repro.dapplet.dapplet import Dapplet
from repro.discovery.lease import LeaseConfig
from repro.discovery.table import (LeaseAgent, LeaseClient, LeaseFacet,
                                   LeaseReplica, ReplicaStats)
from repro.errors import RegistryError
from repro.net.address import NodeAddress
from repro.obs.metrics import Counters
from repro.registry.manifest import Manifest, ManifestRecord

#: Well-known inbox name every store replica serves the protocol on.
DAPPSTORE_INBOX = "_dappstore"


class StoreFacet(LeaseFacet):
    """The DAppStore replica's exported face: the table's requests plus
    prefix listing."""

    def list(self, prefix: str) -> tuple:
        """Live store names under ``prefix``, sorted."""
        return tuple(self._replica.names(prefix))


class StoreStats(Counters):
    """Protocol counters for one DAppStore replica (all monotonic)."""

    layer = "dappstore"
    __slots__ = ReplicaStats.__slots__


class DAppStoreReplica(LeaseReplica):
    """One replica of the replicated manifest catalog."""

    kind = "dappstore"
    inbox_name = DAPPSTORE_INBOX
    category = "reg"
    subject = "manifest"
    words = {"grant": "manifest_grant", "renew": "manifest_renew",
             "denied": "manifest_denied", "release": "manifest_unpublish",
             "expire": "manifest_expire"}
    process_prefix = "store"
    error = RegistryError
    noun = "store replica"
    record_type = ManifestRecord
    facet = StoreFacet
    stats_type = StoreStats

    # -- views -----------------------------------------------------------

    def names(self, prefix: str = "") -> list[str]:
        """Live store names under ``prefix``, sorted."""
        return [r.name for r in self.live_records()
                if _under(prefix, r.name)]

    # -- what a store row is ---------------------------------------------

    def _new_record(self, name: str, address: NodeAddress, manifest: dict,
                    epoch: int, expires_at: float) -> ManifestRecord:
        # The row's ``kind`` column holds the owning principal.
        return ManifestRecord(
            name, address, str(manifest.get("owner", "")),
            epoch, 0, True, expires_at, manifest=dict(manifest))

    def _grant_fields(self, record: ManifestRecord) -> dict:
        return {"principal": record.kind}

    def _row(self, record: ManifestRecord,
             now: float) -> tuple[dict, float]:
        """A lookup's answer: the manifest and the lease's remaining
        TTL."""
        return dict(record.manifest), record.expires_at - now


def _under(prefix: str, name: str) -> bool:
    if not prefix:
        return True
    return name == prefix or name.startswith(prefix.rstrip("/") + "/")


class PublishAgent(LeaseAgent):
    """Keeps one dapplet's manifest lease alive in the DAppStore."""

    table = DAppStoreReplica
    process_name = "manifest-agent"
    claimed_word = "publish"

    def __init__(self, dapplet: Dapplet, replicas: Sequence[NodeAddress],
                 *, manifest: Manifest | None = None,
                 config: LeaseConfig | None = None) -> None:
        self.manifest = manifest or Manifest.for_dapplet(dapplet)
        super().__init__(dapplet, replicas, self.manifest.name,
                         config=config)
        #: Fires (with the granting replica's address) after the first
        #: successful publication.
        self.published = self.claimed

    def unpublish(self) -> None:
        """Tombstone the manifest now instead of waiting out the TTL."""
        self._release()

    def _row_fields(self) -> dict:
        return self.manifest.to_dict()


class StoreClient(LeaseClient):
    """Catalog queries (lookup/list) from any dapplet, with failover.

    Both are generators. ``None`` / ``()`` is a live replica's
    authoritative "nothing there"; when no replica answers at all they
    raise :class:`~repro.errors.RegistryError`.
    """

    table = DAppStoreReplica
    role = "client"

    def lookup(self, name: str):
        """Resolve ``name``; returns the :class:`Manifest` or ``None``.

        A generator — ``manifest = yield from client.lookup(name)``.
        """
        row = yield from self._call_any(f"look up {name!r}", "lookup", name)
        return None if row is None else Manifest.from_dict(row[0])

    def list(self, prefix: str = ""):
        """Live store names under ``prefix`` (sorted tuple)."""
        return (yield from self._call_any(f"list {prefix!r}", "list", prefix))
