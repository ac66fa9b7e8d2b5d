"""The registration agent: a dapplet's lease-keeping sidecar.

A :class:`RegistrationAgent` owns one dapplet's presence in the
replicated directory: the :class:`~repro.discovery.table.LeaseAgent`
for its name -> address row. When the dapplet stops — or dies silently
— the heartbeats stop and the lease runs out: the liveness story the
paper's static directory lacks.
"""

from __future__ import annotations

from typing import Sequence

from repro.dapplet.dapplet import Dapplet
from repro.discovery.lease import LeaseConfig
from repro.discovery.replica import DirectoryReplica
from repro.discovery.table import LeaseAgent
from repro.net.address import NodeAddress


class RegistrationAgent(LeaseAgent):
    """Keeps one dapplet's lease alive in the replicated directory."""

    table = DirectoryReplica
    role = "agent"
    process_name = "lease-agent"
    claimed_word = "register"

    def __init__(self, dapplet: Dapplet, replicas: Sequence[NodeAddress],
                 *, config: LeaseConfig | None = None,
                 kind: str | None = None, name: str | None = None) -> None:
        self.kind = dapplet.kind if kind is None else kind
        super().__init__(dapplet, replicas,
                         dapplet.name if name is None else name,
                         config=config)
        #: Fires (with the granting replica's address) after the first
        #: successful registration.
        self.registered = self.claimed

    def deregister(self) -> None:
        """Tombstone the lease now instead of waiting out the TTL
        (fire-and-forget: safe right before ``stop()``)."""
        self._release()

    def _row_fields(self) -> str:
        return self.kind
