"""Dapplet manifests and their TTL'd store records.

A :class:`Manifest` is what a principal publishes about one dapplet:
who owns it, what schema its state speaks, which RPC methods it
exports, and which capability verbs a would-be peer must hold. The
DAppStore catalogs manifests under hierarchical ``org/app/instance``
names.

A :class:`ManifestRecord` is the replicated-store row: a
:class:`~repro.discovery.lease.LeaseRecord` (same ``(epoch, version,
tombstone)`` stamp, same relative-TTL wire form, merged by the same
last-writer-wins rule) extended with the manifest payload — the
DAppStore reuses the directory's entire lease/anti-entropy machinery
rather than inventing a second consistency story.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.discovery.lease import LeaseRecord, wire_fields

if TYPE_CHECKING:  # pragma: no cover
    from repro.dapplet.dapplet import Dapplet


@dataclass(frozen=True, slots=True)
class Manifest:
    """What the DAppStore knows about one published dapplet."""

    #: Hierarchical store name: ``org/app/instance``.
    name: str
    #: Owning principal's name.
    owner: str
    #: The dapplet's world-unique instance name (directory name).
    dapplet: str
    #: Free-form schema tag for the dapplet's state/messages.
    schema: str = ""
    #: RPC methods the dapplet exports (``rpc.call:<method>`` targets).
    methods: tuple[str, ...] = ()
    #: Capability verbs a peer must hold to link a session.
    requires: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "requires", tuple(self.requires))

    def to_dict(self) -> dict:
        return {"name": self.name, "owner": self.owner,
                "dapplet": self.dapplet, "schema": self.schema,
                "methods": list(self.methods),
                "requires": list(self.requires)}

    @classmethod
    def from_dict(cls, data: dict) -> "Manifest":
        return cls(name=data["name"], owner=data["owner"],
                   dapplet=data["dapplet"], schema=data.get("schema", ""),
                   methods=tuple(data.get("methods", ())),
                   requires=tuple(data.get("requires", ())))

    @classmethod
    def for_dapplet(cls, dapplet: "Dapplet") -> "Manifest":
        """The manifest a world auto-publishes for an owned dapplet."""
        owner = dapplet.owner
        if owner is None:
            raise ValueError(f"dapplet {dapplet.name!r} has no owner")
        return cls(name=dapplet.manifest_name, owner=owner.name,
                   dapplet=dapplet.name, schema=dapplet.schema,
                   methods=tuple(dapplet.exports),
                   requires=tuple(dapplet.requires))


@dataclass(frozen=True, slots=True)
class ManifestRecord(LeaseRecord):
    """One version-stamped DAppStore row (a lease + its manifest)."""

    manifest: dict = field(default_factory=dict)

    def to_wire(self, now: float) -> dict:
        # Explicit base call: ``dataclass(slots=True)`` rebuilds the
        # class, which breaks zero-argument ``super()``.
        data = LeaseRecord.to_wire(self, now)
        data["m"] = dict(self.manifest)
        return data

    @classmethod
    def from_wire(cls, data: dict, now: float) -> "ManifestRecord":
        return cls(**wire_fields(data, now),
                   manifest=dict(data.get("m", {})))
