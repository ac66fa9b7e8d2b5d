"""``repro.registry`` — principals, capabilities, and the DAppStore.

The multi-tenant layer over the dapplet stack: :class:`Principal`
identities own dapplets (``World.dapplet(..., owner=principal)``),
:class:`Capability` grants held in a world's :class:`Registry` gate
session establishment, per-method RPC dispatch and per-colour token
quotas, and the replicated :class:`DAppStoreReplica` catalogs dapplet
manifests under hierarchical ``org/app/instance`` names with TTL'd
manifest leases (a second catalog on the one lease-replicated table
of :mod:`repro.discovery.table`).

Every allow/deny decision emits a ``reg`` audit trace event with a
``reg.check`` latency histogram; see ``docs/REGISTRY.md``.
"""

from repro.registry.manifest import Manifest, ManifestRecord
from repro.registry.principal import (
    Capability,
    Principal,
    pattern_matches,
    verb_matches,
)
from repro.registry.registry import TOKEN_RESOURCE, Registry, RegistryStats
from repro.registry.store import (
    DAPPSTORE_INBOX,
    DAppStoreReplica,
    PublishAgent,
    StoreClient,
)

__all__ = [
    "Capability",
    "DAPPSTORE_INBOX",
    "DAppStoreReplica",
    "Manifest",
    "ManifestRecord",
    "Principal",
    "PublishAgent",
    "Registry",
    "RegistryStats",
    "StoreClient",
    "TOKEN_RESOURCE",
    "pattern_matches",
    "verb_matches",
]
