"""repro — a reproduction of Chandy et al., "A World-Wide Distributed
System Using Java and the Internet" (HPDC 1996), in Python.

The package implements the paper's full design — dapplets, sessions,
inboxes/outboxes over FIFO channels, tokens, logical clocks, snapshots,
synchronization servlets and the application library — over a
deterministic simulated wide-area network (see DESIGN.md for the
substitution argument and the module inventory).

Quick start::

    from repro import World, Dapplet, Initiator, SessionSpec
    from repro.net import GeoLatency

    world = World(seed=1, latency=GeoLatency())
    ...dapplets, sessions...
    world.run()

The subpackages are importable directly for the full API:
``repro.sim``, ``repro.runtime``, ``repro.net``, ``repro.messages``, ``repro.mailbox``,
``repro.dapplet``, ``repro.session``, ``repro.rpc``, ``repro.services``,
``repro.patterns``, ``repro.apps``, ``repro.obs``, ``repro.registry``.
"""

from repro.dapplet.dapplet import Dapplet
from repro.dapplet.state import PersistentState
from repro.discovery import (
    DirectoryReplica,
    LeaseConfig,
    RegistrationAgent,
    Resolver,
)
from repro.errors import (
    BackendCrash,
    CapabilityDenied,
    DeadlockDetected,
    DeliveryTimeout,
    DiscoveryError,
    LeaseExpired,
    ReceiveTimeout,
    RegistryError,
    ReproError,
    RpcError,
    RpcTimeout,
    SessionError,
    SessionRejected,
    StoreError,
    TokenError,
)
from repro.mailbox.inbox import Inbox
from repro.mailbox.outbox import Outbox
from repro.messages.message import Message, message_type
from repro.net.address import InboxAddress, NodeAddress
from repro.obs import Tracer
from repro.registry import (
    Capability,
    DAppStoreReplica,
    Manifest,
    Principal,
    PublishAgent,
    Registry,
    StoreClient,
)
from repro.runtime import AsyncioSubstrate, SimSubstrate, Substrate
from repro.session.initiator import Initiator
from repro.session.session import Session, SessionContext
from repro.session.spec import Binding, MemberSpec, SessionSpec
from repro.store import (
    CrashPoint,
    DurableState,
    FileBackend,
    MemoryBackend,
    StorageBackend,
)
from repro.world import World

__version__ = "1.0.0"

__all__ = [
    "AsyncioSubstrate",
    "BackendCrash",
    "Binding",
    "Capability",
    "CapabilityDenied",
    "CrashPoint",
    "DAppStoreReplica",
    "Dapplet",
    "DeadlockDetected",
    "DeliveryTimeout",
    "DirectoryReplica",
    "DiscoveryError",
    "DurableState",
    "FileBackend",
    "Inbox",
    "InboxAddress",
    "Initiator",
    "LeaseConfig",
    "LeaseExpired",
    "Manifest",
    "MemberSpec",
    "MemoryBackend",
    "Message",
    "NodeAddress",
    "Outbox",
    "PersistentState",
    "Principal",
    "PublishAgent",
    "ReceiveTimeout",
    "RegistrationAgent",
    "Registry",
    "RegistryError",
    "ReproError",
    "Resolver",
    "RpcError",
    "RpcTimeout",
    "Session",
    "SessionContext",
    "SessionError",
    "SessionRejected",
    "SessionSpec",
    "SimSubstrate",
    "StorageBackend",
    "StoreClient",
    "StoreError",
    "Substrate",
    "TokenError",
    "Tracer",
    "World",
    "message_type",
    "__version__",
]
