"""The two catalogs of the lease-replicated table, as test adapters.

The address directory and the DAppStore are record types on one table
(:mod:`repro.discovery.table`); suites that must hold for both take a
:class:`Catalog` and never name a catalog-specific class themselves.
"""

from dataclasses import dataclass
from typing import Any, Callable

from repro import DiscoveryError, LeaseExpired, RegistryError
from repro.discovery import DIRECTORY_INBOX, DirectoryReplica, RegistrationAgent
from repro.registry import (DAPPSTORE_INBOX, DAppStoreReplica, Manifest,
                            PublishAgent)


@dataclass(frozen=True)
class Catalog:
    """What a two-catalog test needs to know about one of them."""

    host: str                 # World method deploying the replicas
    client_for: str           # World method building a client
    agent_attr: str           # where World hangs a dapplet's agent
    claimed: str              # the agent's "first grant" event
    inbox: str
    table: type               # the catalog's replica class
    category: str
    unreachable: type         # the client's "every replica silent" error
    kind: str                 # the kind column of an alice-owned Worker row
    row: Callable[[Any], str]             # dapplet -> its row's name
    rival: Callable[..., Any]             # a second claim on the same row
    find: Callable[[Any, str], Any]       # uncached lookup; None if absent
    contents: Callable[[Any], dict]       # replica -> {row: (address, kind)}


def _resolve(resolver, name):
    resolver.invalidate()
    try:
        return (yield from resolver.resolve(name))
    except LeaseExpired:
        return None


DIRECTORY = Catalog(
    host="host_directory", client_for="resolver_for",
    agent_attr="lease_agent", claimed="registered",
    inbox=DIRECTORY_INBOX, table=DirectoryReplica, category="dir",
    unreachable=DiscoveryError, kind="worker",
    row=lambda d: d.name,
    rival=lambda host, addresses, cfg, row: RegistrationAgent(
        host, addresses, config=cfg, name=row),
    find=_resolve,
    contents=lambda replica: replica.live_entries())

DAPPSTORE = Catalog(
    host="host_dappstore", client_for="store_client_for",
    agent_attr="manifest_agent", claimed="published",
    inbox=DAPPSTORE_INBOX, table=DAppStoreReplica, category="reg",
    unreachable=RegistryError, kind="alice",     # a manifest row's kind
    row=lambda d: d.manifest_name,               # column holds its owner
    rival=lambda host, addresses, cfg, row: PublishAgent(
        host, addresses, config=cfg,
        manifest=Manifest(name=row, owner="eve", dapplet=host.name)),
    find=lambda client, name: client.lookup(name),
    contents=lambda replica: {r.name: (r.address, r.kind)
                              for r in replica.live_records()})
