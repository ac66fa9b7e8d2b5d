"""The directory replica dapplet.

The directory of Figure 2 as a replicated service: each
:class:`DirectoryReplica` is a :class:`~repro.discovery.table.
LeaseReplica` exporting the table's facet on its well-known
``_directory`` inbox, with plain name -> (address, kind)
:class:`~repro.discovery.lease.LeaseRecord` rows and ``dir`` trace
events (``docs/DISCOVERY.md``).
"""

from __future__ import annotations

from repro.discovery.lease import LeaseRecord
from repro.discovery.table import LeaseReplica
from repro.errors import DiscoveryError
from repro.net.address import NodeAddress

#: Well-known inbox name every replica serves the protocol on.
DIRECTORY_INBOX = "_directory"


class DirectoryReplica(LeaseReplica):
    """One replica of the distributed address directory."""

    kind = "directory"
    inbox_name = DIRECTORY_INBOX
    category = "dir"
    subject = "lease"
    words = {"grant": "lease_grant", "renew": "lease_renew",
             "denied": "lease_denied", "release": "unregister",
             "expire": "expire"}
    process_prefix = "dir"
    error = DiscoveryError
    noun = "directory replica"

    # -- views (used by tests and benchmarks) ----------------------------

    def live_entries(self) -> dict[str, tuple[NodeAddress, str]]:
        """The names this replica would currently resolve, with kinds."""
        return {r.name: (r.address, r.kind) for r in self.live_records()}

    def names(self, kind: str | None = None) -> list[str]:
        """Live names, optionally filtered by kind, sorted."""
        return [r.name for r in self.live_records()
                if kind is None or r.kind == kind]

    # -- what a directory row is -----------------------------------------

    def _new_record(self, name: str, address: NodeAddress, kind: str,
                    epoch: int, expires_at: float) -> LeaseRecord:
        return LeaseRecord(name, address, kind, epoch, 0, True, expires_at)

    def _row(self, record: LeaseRecord,
             now: float) -> tuple[NodeAddress, str, float]:
        """A lookup's answer: address, kind and the lease's remaining
        TTL (which bounds how long the caller may cache it)."""
        return record.address, record.kind, record.expires_at - now
