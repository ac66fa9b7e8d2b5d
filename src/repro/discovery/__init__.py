"""Distributed discovery: replicated directory dapplets.

The paper's session model hinges on "a directory of addresses ... of
component dapplets" but explicitly leaves its maintenance open. This
subsystem is that answer, built *on top of* the dapplet/channel layer it
serves: the directory is a set of :class:`DirectoryReplica` dapplets;
registrations are leases renewed by a per-dapplet
:class:`RegistrationAgent`; replicas reconcile via anti-entropy gossip;
and clients resolve names through a caching, failover-capable
:class:`Resolver`. The mechanism underneath — :class:`LeaseReplica`,
:class:`LeaseAgent`, :class:`LeaseClient` in :mod:`repro.discovery.table`
— is shared with the DAppStore (:mod:`repro.registry.store`). See
``docs/DISCOVERY.md`` for the protocol.
"""

from repro.discovery.agent import RegistrationAgent
from repro.discovery.lease import LeaseConfig, LeaseRecord, merge
from repro.discovery.replica import DIRECTORY_INBOX, DirectoryReplica
from repro.discovery.resolver import Resolver, ResolverStats
from repro.discovery.table import (LeaseAgent, LeaseClient, LeaseReplica,
                                   ReplicaStats)

__all__ = [
    "DIRECTORY_INBOX",
    "DirectoryReplica",
    "LeaseAgent",
    "LeaseClient",
    "LeaseConfig",
    "LeaseRecord",
    "LeaseReplica",
    "RegistrationAgent",
    "ReplicaStats",
    "Resolver",
    "ResolverStats",
    "merge",
]
