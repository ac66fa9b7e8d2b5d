"""The per-machine resource manager (the paper's complementary approach).

§4 of the paper: "There are complementary ways of providing services to
dapplets. We can provide a collection of service objects that a designer
can include in a dapplet. In addition, we can have a **resource manager
process executing on each machine** that provides a rich collection of
services to dapplets executing on that machine. Our focus in this paper
is on the former approach."

This module implements the latter, as an extension: one
:class:`ResourceManager` dapplet per host, reachable behind a global
pointer at the well-known inbox ``_rm``, offering

* a host-local service registry (register / lookup / list),
* on-demand hosting of shared servlets — token pools
  (:class:`~repro.services.tokens.TokenCoordinator`, a one-manager
  token ring per pool, several to a machine) and
  synchronization hosts (:class:`~repro.services.sync.SyncHost`) —
  created once and shared by every requester.

Dapplets use :class:`ResourceManagerClient` (an RPC proxy with typed
helpers) to talk to the manager on their own machine — or any other; the
pointer is an ordinary inbox address.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.dapplet.dapplet import Dapplet
from repro.net.address import InboxAddress
from repro.rpc.proxy import RemoteProxy
from repro.rpc.remote import export
from repro.services.sync.distributed import SyncHost
from repro.services.tokens.manager import POLICIES
from repro.services.tokens.shard import TokenCoordinator
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.world import World

#: Well-known name of the manager's RPC inbox.
RM_INBOX = "_rm"


class _ManagerApi:
    """The RPC-facing surface. All values are wire-encodable."""

    def __init__(self, manager: "ResourceManager") -> None:
        self._manager = manager

    def list_services(self) -> dict:
        """All registered service names and their pointers."""
        return dict(self._manager.services)

    def lookup(self, name: str) -> "InboxAddress | None":
        """Pointer for ``name``, or ``None``."""
        return self._manager.services.get(name)

    def register(self, name: str, pointer: InboxAddress) -> bool:
        """Register a dapplet-provided service; False if the name is
        taken by a different pointer."""
        existing = self._manager.services.get(name)
        if existing is not None and existing != pointer:
            return False
        self._manager.services[name] = pointer
        return True

    def create_token_pool(self, name: str, initial: dict,
                          policy: str = "fifo") -> InboxAddress:
        """Get-or-create a token coordinator hosted by the manager.

        ``initial`` fixes the colour totals on first creation; later
        calls return the existing pool's pointer regardless of
        arguments (a shared resource has one owner).
        """
        existing = self._manager.services.get(f"tokens:{name}")
        if existing is not None:
            return existing
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}")
        coordinator = TokenCoordinator(
            self._manager, {str(c): int(n) for c, n in initial.items()},
            policy=policy, name=f"_tokens:{name}")
        self._manager.coordinators[name] = coordinator
        self._manager.services[f"tokens:{name}"] = coordinator.pointer
        return coordinator.pointer

    def create_sync_host(self, name: str) -> InboxAddress:
        """Get-or-create a synchronization host (barriers etc.)."""
        existing = self._manager.services.get(f"sync:{name}")
        if existing is not None:
            return existing
        host = SyncHost(self._manager, name=f"_sync:{name}")
        self._manager.sync_hosts[name] = host
        self._manager.services[f"sync:{name}"] = host.pointer
        return host.pointer


class ResourceManager(Dapplet):
    """One per machine; install with :func:`install_resource_manager`."""

    kind = "resource-manager"

    def setup(self) -> None:
        self.services: dict[str, InboxAddress] = {}
        self.coordinators: dict[str, TokenCoordinator] = {}
        self.sync_hosts: dict[str, SyncHost] = {}
        self.api = _ManagerApi(self)
        self.remote = export(self, self.api, name=RM_INBOX)

    @property
    def pointer(self) -> InboxAddress:
        return self.remote.pointer


def install_resource_manager(world: "World", host: str) -> ResourceManager:
    """Create the resource manager for ``host`` (once per machine)."""
    return world.dapplet(ResourceManager, host, f"rm@{host}")


def manager_pointer(host: str, port: int = 2000) -> InboxAddress:
    """Convention-based pointer to a host's manager (first port)."""
    from repro.net.address import NodeAddress
    return NodeAddress(host, port).inbox(RM_INBOX)


class ResourceManagerClient:
    """A dapplet's typed handle on a resource manager."""

    def __init__(self, dapplet: Dapplet, pointer: InboxAddress) -> None:
        self.dapplet = dapplet
        self.proxy = RemoteProxy(dapplet, pointer)

    def list_services(self, timeout: float | None = 30.0) -> Event:
        return self.proxy.call("list_services", timeout=timeout)

    def lookup(self, name: str, timeout: float | None = 30.0) -> Event:
        return self.proxy.call("lookup", name, timeout=timeout)

    def register(self, name: str, pointer: InboxAddress,
                 timeout: float | None = 30.0) -> Event:
        return self.proxy.call("register", name, pointer, timeout=timeout)

    def token_pool(self, name: str, initial: dict, policy: str = "fifo",
                   timeout: float | None = 30.0) -> Event:
        """Pointer to the named shared token pool (created on demand)."""
        return self.proxy.call("create_token_pool", name, initial, policy,
                               timeout=timeout)

    def sync_host(self, name: str,
                  timeout: float | None = 30.0) -> Event:
        """Pointer to the named shared sync host (created on demand)."""
        return self.proxy.call("create_sync_host", name, timeout=timeout)
