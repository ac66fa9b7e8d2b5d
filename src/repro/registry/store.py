"""The DAppStore: a replicated catalog of dapplet manifests.

The second catalog on the lease-replicated table of
:mod:`repro.discovery.table` (mechanism: ``docs/DISCOVERY.md``). Rows
are :class:`~repro.registry.manifest.ManifestRecord` — a lease plus its
manifest — under hierarchical ``org/app/instance`` names, served on the
``_dappstore`` inbox and traced as ``reg``; what the catalog adds is
prefix listing. :class:`PublishAgent` keeps one manifest's lease alive;
:class:`StoreClient` gives any dapplet lookup/list access.
"""

from __future__ import annotations

from typing import Sequence

from repro.dapplet.dapplet import Dapplet
from repro.discovery.lease import LeaseConfig
from repro.discovery.table import LeaseAgent, LeaseClient, LeaseReplica
from repro.errors import RegistryError
from repro.net.address import NodeAddress
from repro.registry import messages as rm
from repro.registry.manifest import Manifest, ManifestRecord

#: Well-known inbox name every store replica serves the protocol on.
DAPPSTORE_INBOX = "_dappstore"


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
    Grant = rm.ManifestGrant
    Denied = rm.ManifestDenied
    Gossip = rm.StoreGossip

    # -- views -----------------------------------------------------------

    def live_manifests(self) -> dict[str, Manifest]:
        """The manifests this replica would currently serve, by name."""
        return {r.name: Manifest.from_dict(r.manifest)
                for r in self.live_records()}

    def names(self, prefix: str = "") -> list[str]:
        """Live store names under ``prefix``, sorted."""
        return [r.name for r in self.live_records()
                if _under(prefix, r.name)]

    # -- what a store row is ---------------------------------------------

    def _new_record(self, msg: rm.Publish, epoch: int,
                    expires_at: float) -> ManifestRecord:
        # The row's ``kind`` column holds the owning principal.
        return ManifestRecord(
            msg.name, msg.address, str(msg.manifest.get("owner", "")),
            epoch, 0, True, expires_at, manifest=dict(msg.manifest))

    def _grant_fields(self, record: ManifestRecord) -> dict:
        return {"principal": record.kind}

    def _lookup_reply(self, msg: rm.StoreLookup,
                      record: ManifestRecord | None,
                      now: float) -> rm.StoreReply:
        if record is None:
            return rm.StoreReply(msg.req_id, msg.name, False)
        return rm.StoreReply(msg.req_id, msg.name, True,
                             dict(record.manifest),
                             record.expires_at - now, record.epoch)

    def _on_list(self, msg: rm.StoreList) -> None:
        self.post(msg.reply_to, rm.StoreListReply(
            msg.req_id, msg.prefix, tuple(self.names(msg.prefix))))

    handlers = {rm.Publish: LeaseReplica._on_claim,
                rm.RenewManifest: LeaseReplica._on_renew,
                rm.Unpublish: LeaseReplica._on_release,
                rm.StoreLookup: LeaseReplica._on_lookup,
                rm.StoreList: _on_list,
                rm.StoreGossip: LeaseReplica._on_gossip}


def _under(prefix: str, name: str) -> bool:
    if not prefix:
        return True
    return name == prefix or name.startswith(prefix.rstrip("/") + "/")


class PublishAgent(LeaseAgent):
    """Keeps one dapplet's manifest lease alive in the DAppStore."""

    table = DAppStoreReplica
    process_name = "manifest-agent"
    claimed_word = "publish"
    Renew = rm.RenewManifest
    Release = rm.Unpublish

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

    def _claim_message(self, req_id: int) -> rm.Publish:
        return rm.Publish(req_id, self.name, self.dapplet.address,
                          self.manifest.to_dict(), self.inbox.address,
                          epoch_hint=self.epoch)


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
        reply = yield from self._query(
            lambda req_id: rm.StoreLookup(req_id, name, self.inbox.address),
            rm.StoreReply, f"look up {name!r}")
        return Manifest.from_dict(reply.manifest) if reply.found else None

    def list(self, prefix: str = ""):
        """Live store names under ``prefix`` (sorted tuple)."""
        reply = yield from self._query(
            lambda req_id: rm.StoreList(req_id, prefix, self.inbox.address),
            rm.StoreListReply, f"list {prefix!r}")
        return tuple(reply.names)
