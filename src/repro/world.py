"""The ``World``: one internetwork of dapplets on a pluggable substrate.

A convenience facade that owns the substrate (scheduler + datagram
service), the name -> dapplet map, and port allocation — the pieces every
run needs. Everything it does can be assembled by hand from the lower
layers; the examples and benchmarks all start with::

    world = World(seed=1, latency=GeoLatency())
    alice = world.dapplet(CalendarDapplet, "caltech.edu", "alice")
    ...
    world.run()

By default the world runs on the deterministic virtual-time simulator
(:class:`repro.runtime.SimSubstrate`). Pass ``substrate=`` to run the
same dapplets on a different runtime — e.g.
:class:`repro.runtime.AsyncioSubstrate` for real UDP sockets::

    world = World(substrate=AsyncioSubstrate())
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Type, TypeVar

from repro.dapplet.dapplet import Dapplet
from repro.errors import DappletError
from repro.net.faults import FaultPlan
from repro.net.latency import LatencyModel
from repro.runtime import SimSubstrate, Substrate

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.address import NodeAddress
    from repro.sim.events import Event

D = TypeVar("D", bound=Dapplet)

#: First port handed out on each host.
BASE_PORT = 2000


class World:
    """A complete deployment on one substrate.

    Parameters
    ----------
    seed:
        Root seed for all randomness in the run (simulated substrate
        only).
    latency / faults:
        The simulated network's latency model and fault plan (see
        :mod:`repro.net`).
    endpoint_options:
        Keyword arguments applied to every dapplet's transport
        endpoint, checked when its first dapplet is built: any of
        :class:`~repro.net.Endpoint`'s ``skip_timeout``,
        ``rto_initial``, ``rto_max``, ``max_retries``,
        ``dup_ack_threshold``, ``ack_delay``, ``cwnd_initial``,
        ``recv_window`` and ``batch_bytes``. A delivery class is not
        among them: it is chosen per outbox or session binding.
    encoded:
        Round-trip every simulated datagram through the binary wire
        codec at the network boundary (byte-parity mode; simulated
        substrate only).
    substrate:
        An explicit runtime to deploy on; mutually exclusive with the
        simulator-configuration parameters above, which all configure
        the default :class:`~repro.runtime.SimSubstrate`.
    store:
        A :class:`~repro.store.StorageBackend` (shared by every
        dapplet, each under its own ``dapplet/<name>`` namespace) or a
        callable ``name -> backend`` factory (one backend per dapplet —
        what the crash tests use so an injected crash kills exactly one
        dapplet's store). With a store, every dapplet's
        ``PersistentState`` journals mutations through a
        :class:`~repro.store.DurableState`, and
        :meth:`restart_dapplet` can rebuild a crashed dapplet from its
        latest snapshot + WAL.
    tracer:
        An optional :class:`repro.obs.Tracer` recording structured
        events from every layer (see ``docs/OBSERVABILITY.md``). Works
        with either substrate; can also be attached later with
        :meth:`attach_tracer`.
    """

    def __init__(self, seed: int = 0, *,
                 latency: LatencyModel | None = None,
                 faults: FaultPlan | None = None,
                 endpoint_options: dict[str, Any] | None = None,
                 encoded: bool = False,
                 substrate: Substrate | None = None,
                 store: Any = None,
                 tracer: "Any | None" = None) -> None:
        if substrate is not None:
            if (seed != 0 or latency is not None or faults is not None
                    or encoded):
                raise ValueError(
                    "substrate= is mutually exclusive with the simulator "
                    "parameters (seed/latency/faults/encoded); "
                    "configure the substrate itself instead")
            self.substrate: Substrate = substrate
        else:
            self.substrate = SimSubstrate(
                seed=seed, latency=latency, faults=faults, encoded=encoded)
        self.endpoint_options = dict(endpoint_options or {})
        #: Optional :class:`repro.session.InterferenceMonitor`; when set,
        #: session managers report activations to it and the paper's
        #: exclusion requirement is asserted throughout the run.
        self.interference_monitor = None
        self.store = store
        self._registry = None
        #: Hosted catalog -> (replicas, their addresses, lease config);
        #: the key doubles as display name and, lower-cased, as the
        #: ``host_*`` suffix. Every agent and client of a catalog holds
        #: its address list itself, which restart_dapplet updates.
        self._hosted: dict[str, tuple[list[Dapplet], list[NodeAddress],
                                      Any]] = {
            "directory": ([], [], None), "DAppStore": ([], [], None)}
        self._backends: dict[str, Any] = {}
        self._next_port: dict[str, int] = {}
        self._dapplets: dict[str, Dapplet] = {}
        #: How each dapplet was built — (cls, host, kwargs) — so
        #: restart_dapplet can rebuild it after a crash.
        self._dapplet_specs: dict[str, tuple[Type[Dapplet], str,
                                             dict[str, Any]]] = {}
        #: ``"<layer>.<counter>"`` -> counts of every stopped dapplet.
        self._retired: dict[str, int] = {}
        if tracer is not None:
            self.attach_tracer(tracer)

    # -- observability -----------------------------------------------------

    @property
    def tracer(self):
        """The attached :class:`repro.obs.Tracer`, or ``None``."""
        return self.substrate.tracer

    def attach_tracer(self, tracer: Any) -> Any:
        """Attach ``tracer`` to the substrate and register every
        existing dapplet's logical clock with it (dapplets created later
        register themselves). Returns the tracer."""
        tracer.attach(self.substrate)
        for dapplet in self._dapplets.values():
            tracer.register_clock(dapplet.address, dapplet.clock)
        return tracer

    def metrics(self) -> dict[str, int]:
        """Every layer's counters summed over this world, under sorted
        ``"<layer>.<counter>"`` keys (``docs/OBSERVABILITY.md``). A
        stopped dapplet's counts stay in the totals: no entry ever falls."""
        totals = dict(self._retired)
        self.network.stats.add_to(totals)
        if self._registry is not None:
            self._registry.stats.add_to(totals)
        for dapplet in self._dapplets.values():
            for group in dapplet.counters:
                group.add_to(totals)
        return dict(sorted(totals.items()))

    def export_trace(self, path: Any) -> Any:
        """Export the attached tracer's JSONL trace to ``path``."""
        if self.substrate.tracer is None:
            raise ValueError("no tracer attached to this world")
        return self.substrate.tracer.export_jsonl(path)

    # -- substrate views ---------------------------------------------------

    @property
    def kernel(self) -> Substrate:
        """The scheduler half of the substrate (historical name)."""
        return self.substrate

    @property
    def network(self):
        """The datagram half of the substrate (historical name)."""
        return self.substrate.datagrams

    # -- construction -----------------------------------------------------

    def allocate_port(self, host: str) -> int:
        port = self._next_port.get(host, BASE_PORT)
        self._next_port[host] = port + 1
        return port

    def dapplet(self, cls: Type[D], host: str, name: str,
                **kwargs: Any) -> D:
        """Create a dapplet of ``cls`` on ``host`` and register it.

        ``name`` must be unique in this world; it becomes the dapplet's
        directory name. ``owner=`` stamps the dapplet with its owning
        :class:`~repro.registry.Principal` (registered in this world's
        :attr:`registry`), switching on capability enforcement at its
        session, RPC and token gates; ``requires=`` / ``schema=`` /
        ``exports=`` override the manifest class attributes
        per-instance. Remaining keyword arguments go to the subclass
        constructor; all of them (ownership included) are replayed by
        :meth:`restart_dapplet`.
        """
        if name in self._dapplets:
            raise DappletError(f"a dapplet named {name!r} already exists")
        spec_kwargs = dict(kwargs)
        owner = kwargs.pop("owner", None)
        requires = kwargs.pop("requires", None)
        schema = kwargs.pop("schema", None)
        exports = kwargs.pop("exports", None)
        from repro.net.address import NodeAddress
        address = NodeAddress(host, self.allocate_port(host))
        instance = cls(self, address, name, **kwargs)
        if owner is not None:
            instance.owner = self.registry.principal(
                str(owner), getattr(owner, "org", ""))
        if requires is not None:
            instance.requires = tuple(requires)
        if schema is not None:
            instance.schema = schema
        if exports is not None:
            instance.exports = tuple(exports)
        self._dapplets[name] = instance
        self._dapplet_specs[name] = (cls, host, spec_kwargs)
        if self._hosted["directory"][0]:
            self._enroll_new(instance)
        if self._hosted["DAppStore"][0]:
            self._publish_new(instance)
        return instance

    # -- multi-tenancy (repro.registry) -------------------------------------

    @property
    def registry(self):
        """This world's capability :class:`~repro.registry.Registry`
        (created on first use). Every enforcement point consults it;
        with no owners and no grants every check short-circuits to the
        pre-registry open behaviour."""
        if self._registry is None:
            from repro.registry import Registry
            self._registry = Registry(self.substrate)
        return self._registry

    def host_dappstore(self, hosts: "int | list[str]" = 3, *,
                       config: Any | None = None) -> list[Dapplet]:
        """Deploy N replicated DAppStore catalogs (see ``repro.registry``).

        ``hosts`` is either a replica count (each on its own synthetic
        ``storeN.example.org`` host) or an explicit list of host names.
        The replicas gossip manifests with each other; every *owned*
        dapplet, installed already or created afterwards, is published
        (given a lease-renewing :class:`~repro.registry.PublishAgent`).

        Call once, before :meth:`run`. Returns the replicas.
        """
        from repro.registry import DAppStoreReplica
        return self._host_replicas("DAppStore", DAppStoreReplica, hosts,
                                   "store", config, self._publish_new)

    @property
    def dappstore_replicas(self) -> list[Dapplet]:
        """The store replicas hosted by :meth:`host_dappstore`."""
        return list(self._hosted["DAppStore"][0])

    def dappstore_addresses(self) -> list["NodeAddress"]:
        """Node addresses of the hosted DAppStore replicas."""
        return list(self._hosted["DAppStore"][1])

    def publish(self, dapplet: Dapplet) -> Any:
        """Publish ``dapplet``'s manifest into the hosted DAppStore.

        Attaches a :class:`~repro.registry.PublishAgent` as
        ``dapplet.manifest_agent`` (idempotent) and returns it.
        """
        from repro.registry import PublishAgent
        return self._bind("DAppStore", PublishAgent, dapplet,
                          "manifest_agent")

    def store_client_for(self, dapplet: Dapplet) -> Any:
        """A :class:`~repro.registry.StoreClient` bound to ``dapplet``."""
        from repro.registry import StoreClient
        return self._bind("DAppStore", StoreClient, dapplet)

    def _publish_new(self, dapplet: Dapplet) -> None:
        if dapplet.owner is not None:  # store replicas are never owned
            self.publish(dapplet)

    # -- hosted catalogs (one lease-replicated table, two record types) -----

    def _host_replicas(self, catalog: str, cls: Type[Dapplet],
                       hosts: "int | list[str]", stem: str,
                       config: Any | None, adopt: Callable) -> list[Dapplet]:
        """Deploy one ``cls`` replica per host, named ``_<stem>N``, ring
        them together, and ``adopt`` every dapplet (new ones are adopted
        as :meth:`dapplet` creates them)."""
        from repro.discovery import LeaseConfig
        if self._hosted[catalog][0]:
            raise DappletError(f"this world already hosts a {catalog}")
        if isinstance(hosts, int):
            hosts = [f"{stem}{i}.example.org" for i in range(hosts)]
        if not hosts:
            raise DappletError(f"host_{catalog.lower()} needs >= 1 host")
        config = config or LeaseConfig()
        replicas = [self.dapplet(cls, host, f"_{stem}{i}", config=config)
                    for i, host in enumerate(hosts)]
        addresses = [r.address for r in replicas]
        _ring(replicas, addresses)
        self._hosted[catalog] = (replicas, addresses, config)
        for dapplet in self.dapplets():
            adopt(dapplet)
        return list(replicas)

    def _bind(self, catalog: str, cls: type, dapplet: Dapplet,
              attr: str | None = None) -> Any:
        """A ``cls`` agent or client of a hosted catalog for ``dapplet``;
        with ``attr``, created once and kept as ``dapplet.<attr>``. It
        is handed the catalog's own address list, not a copy, so it
        follows a restarted replica."""
        _, addresses, config = self._hosted[catalog]
        if not addresses:
            raise DappletError(f"no {catalog} hosted; "
                               f"call host_{catalog.lower()}()")
        bound = getattr(dapplet, attr, None) if attr else None
        if bound is None:
            bound = cls(dapplet, addresses, config=config)
            if attr:
                setattr(dapplet, attr, bound)
        return bound

    # -- durable state (repro.store) ----------------------------------------

    def backend_for(self, name: str) -> Any:
        """The storage backend for dapplet ``name``, or ``None``.

        With ``store=`` a backend instance, every dapplet shares it
        (namespacing keeps them apart); with a factory, one backend is
        created per dapplet name and *memoized*, so a restarted dapplet
        finds its predecessor's bytes.
        """
        if self.store is None:
            return None
        if not callable(self.store):
            return self.store
        backend = self._backends.get(name)
        if backend is None:
            backend = self._backends[name] = self.store(name)
        return backend

    def restart_dapplet(self, name: str, *,
                        from_checkpoint: int | None = None) -> Dapplet:
        """Rebuild dapplet ``name`` from its durable state.

        Stops the old instance if it is still around (crash semantics:
        in-memory state is gone), re-creates it exactly as it was first
        created — same class, host, and constructor arguments, a fresh
        port, to which its name now resolves (when a replicated
        directory is hosted, it is re-enrolled with a fresh lease) —
        and lets its ``PersistentState`` recover ``snapshot + valid WAL
        prefix`` from the world's store. Sessions the crash interrupted
        can then simply be re-established against the recovered state.
        A hosted directory or DAppStore replica takes its predecessor's
        place in its catalog's ring and address list, so every agent and
        client of the catalog calls it at its new port.

        With ``from_checkpoint=T``, the state is additionally rolled to
        the durable time-T checkpoint cut that a
        :class:`~repro.services.clocks.CheckpointService` saved (the
        paper's "restart from the global checkpoint at T"); the
        rollback itself is journaled, so the recovery point is durable
        too.
        """
        spec = self._dapplet_specs.get(name)
        if spec is None:
            raise DappletError(f"no dapplet named {name!r} was ever created")
        old = self._dapplets.get(name)
        if old is not None:
            old.stop()
        cls, host, kwargs = spec
        instance = self.dapplet(cls, host, name, **kwargs)
        for replicas, addresses, _ in self._hosted.values():
            names = [r.name for r in replicas]
            if name in names:   # a replica: take the old one's place
                i = names.index(name)
                replicas[i], addresses[i] = instance, instance.address
                _ring(replicas, addresses)
        if from_checkpoint is not None:
            durable = instance.state.durable
            if durable is None:
                raise DappletError(
                    f"dapplet {name!r} has no durable state to restart "
                    "from a checkpoint (give the world a store=)")
            cut = durable.load_object(f"ckpt@{from_checkpoint}")
            if cut is None:
                raise DappletError(
                    f"dapplet {name!r} has no durable checkpoint at "
                    f"T={from_checkpoint}")
            instance.state.restore(cut["state"])
        return instance

    # -- sharded tokens (repro.services.tokens.shard) ----------------------

    def host_token_shards(self, hosts: "int | list[str]",
                          initial: dict[str, int], *,
                          policy: str = "fifo") -> Any:
        """Deploy the paper's network of token managers, sharded.

        ``hosts`` is either a shard count (each on its own synthetic
        ``tokN.example.org`` host) or an explicit list of host names;
        one :class:`~repro.services.tokens.TokenShard` manager is
        installed per host, named ``_tokN``, and the colours of
        ``initial`` are spread over them by consistent hashing. Returns
        a :class:`~repro.services.tokens.ShardedTokenService`: call its
        ``attach(dapplet)`` for a plain
        :class:`~repro.services.tokens.TokenAgent` connected to the
        dapplet's home shard. With a hosted directory, shard hosts
        enroll like any dapplet, so agents may instead resolve a
        manager by ring position via
        :func:`~repro.services.tokens.resolve_shard`.
        """
        from repro.services.tokens.ring import ShardRing
        from repro.services.tokens.shard import (ShardedTokenService,
                                                 TokenShard, TokenShardHost)
        if isinstance(hosts, int):
            hosts = [f"tok{i}.example.org" for i in range(hosts)]
        if not hosts:
            raise DappletError("host_token_shards needs >= 1 host")
        names = [f"_tok{i}" for i in range(len(hosts))]
        ring = ShardRing(names)
        dapplets = {name: self.dapplet(TokenShardHost, host, name)
                    for name, host in zip(names, hosts)}
        peers = {name: d.address for name, d in dapplets.items()}
        shards = [TokenShard(dapplets[name], ring, name, peers, initial,
                             policy=policy)
                  for name in names]
        return ShardedTokenService(shards, initial)

    # -- replicated discovery (repro.discovery) ----------------------------

    def host_directory(self, hosts: "int | list[str]" = 3, *,
                       config: Any | None = None) -> list[Dapplet]:
        """Deploy N replicated directory dapplets (see ``repro.discovery``).

        ``hosts`` is either a replica count (each on its own synthetic
        ``dirN.example.org`` host) or an explicit list of host names.
        The replicas gossip with each other; every dapplet, installed
        already or created afterwards, is enrolled (given a
        lease-renewing :class:`~repro.discovery.RegistrationAgent`).
        Dapplets exposing ``use_resolver`` (initiators) get
        a :class:`~repro.discovery.Resolver` attached.

        Call once, before :meth:`run`. Returns the replicas.
        """
        from repro.discovery import DirectoryReplica
        return self._host_replicas("directory", DirectoryReplica, hosts,
                                   "dir", config, self._enroll_new)

    @property
    def directory_replicas(self) -> list[Dapplet]:
        """The directory replicas hosted by :meth:`host_directory`."""
        return list(self._hosted["directory"][0])

    def replica_addresses(self) -> list["NodeAddress"]:
        """Node addresses of the hosted directory replicas."""
        return list(self._hosted["directory"][1])

    def enroll(self, dapplet: Dapplet) -> Any:
        """Give ``dapplet`` a lease in the replicated directory.

        Attaches a :class:`~repro.discovery.RegistrationAgent` as
        ``dapplet.lease_agent`` (idempotent) and returns it.
        """
        from repro.discovery import RegistrationAgent
        return self._bind("directory", RegistrationAgent, dapplet,
                          "lease_agent")

    def resolver_for(self, dapplet: Dapplet) -> Any:
        """``dapplet``'s :class:`~repro.discovery.Resolver`, created on
        first use and kept as ``dapplet.resolver``."""
        from repro.discovery import Resolver
        return self._bind("directory", Resolver, dapplet, "resolver")

    def _enroll_new(self, dapplet: Dapplet) -> None:
        from repro.discovery import DirectoryReplica
        if isinstance(dapplet, DirectoryReplica):
            return
        self.enroll(dapplet)
        if hasattr(dapplet, "use_resolver"):
            dapplet.use_resolver(self.resolver_for(dapplet))

    def _forget_dapplet(self, dapplet: Dapplet) -> None:
        self._dapplets.pop(dapplet.name, None)
        for group in dapplet.counters:
            group.add_to(self._retired)

    def get(self, name: str) -> Dapplet:
        try:
            return self._dapplets[name]
        except KeyError:
            raise DappletError(f"no dapplet named {name!r}") from None

    def dapplets(self) -> list[Dapplet]:
        return [self._dapplets[n] for n in sorted(self._dapplets)]

    # -- running ------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.substrate.now

    def run(self, until: "float | Event | None" = None, **kwargs: Any) -> Any:
        """Run the world (see the substrate's ``run`` for semantics).

        Extra keyword arguments are forwarded to the substrate — e.g.
        ``wall_timeout=`` on :class:`~repro.runtime.AsyncioSubstrate`.
        """
        return self.substrate.run(until, **kwargs)

    def process(self, body, name: str | None = None):
        """Start a free-standing process (not owned by any dapplet)."""
        return self.substrate.process(body, name=name)

    def close(self) -> None:
        """Release the substrate's external resources (if any)."""
        self.substrate.close()


def _ring(replicas: list[Dapplet], addresses: list["NodeAddress"]) -> None:
    """Make every replica of a catalog gossip with every other."""
    for replica in replicas:
        replica.set_peers(a for a in addresses if a != replica.address)
