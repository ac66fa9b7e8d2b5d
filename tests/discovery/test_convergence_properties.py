"""Property tests: gossip convergence and bounded staleness.

Under random registration/kill schedules and a random replica-replica
partition window, once the system is quiescent:

* every surviving replica holds **identical** live directory contents
  (anti-entropy converged);
* every surviving worker resolves to its correct address;
* every killed worker's name raises :class:`~repro.errors.LeaseExpired`;
* no resolver ever returned a killed worker later than the config's
  :meth:`~repro.discovery.LeaseConfig.staleness_bound` after the kill
  (the lease TTL, plus gossip lag, plus one sweep, plus the cache).

* on every replica, a name's ``stamp`` never decreases, whatever mix of
  claims, renewals, sweeps and gossip merges wrote it.

The same schedules run against both catalogs of the lease-replicated
table — the address directory and the DAppStore — through the
:class:`~tests.discovery.catalogs.Catalog` adapter (what to host, what
a worker's row is called, how a probe asks for it).

Partition windows are kept shorter than the transport's retry budget so
reliable channels stall and recover rather than break — a broken channel
never heals, which is the transport's contract, not a discovery bug
(and the replica's send path rebinds if one does break).
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import AsyncioSubstrate, LeaseConfig, World
from repro.net import ConstantLatency, FaultPlan

from tests.discovery.catalogs import DAPPSTORE, DIRECTORY
from tests.discovery.conftest import Worker, drain, fast_config

N_REPLICAS = 3

#: Which of 4 workers die mid-run (at least one survives, so the
#: "survivors still resolve" half of the property is never vacuous).
kill_masks = st.lists(st.booleans(), min_size=4, max_size=4).filter(
    lambda m: not all(m))

#: A replica-replica partition window: (start, duration). Bounded well
#: under the transport's ~break threshold at rto_initial defaults.
partitions = st.one_of(
    st.none(),
    st.tuples(st.floats(min_value=0.5, max_value=1.5),
              st.floats(min_value=0.3, max_value=1.5)))


class StampLedger(dict):
    """A replica store that records every write lowering a name's stamp
    (violations are collected, not raised: raising inside a replica
    process would turn a property failure into a crash report)."""

    def __init__(self, replica, violations):
        super().__init__(replica.store)
        self._who = replica.name
        self._high = {}
        self._violations = violations

    def __setitem__(self, name, record):
        high = self._high.get(name)
        if high is not None and record.stamp < high:
            self._violations.append((self._who, name, high, record.stamp))
        else:
            self._high[name] = record.stamp
        super().__setitem__(name, record)


def host(world, catalog, cfg):
    """Deploy the catalog; returns (replicas, stamp violations so far)."""
    replicas = getattr(world, catalog.host)(N_REPLICAS, config=cfg)
    violations = []
    for replica in replicas:
        replica.store = StampLedger(replica, violations)
    return replicas, violations


def quiesce_and_check(catalog, replicas, cfg, workers, killed, probe_log,
                      violations):
    """Post-churn assertions shared by both substrates."""
    assert not violations, f"stamps went backwards: {violations}"
    live = [r for r in replicas if not r.stopped]
    assert live
    contents = [catalog.contents(r) for r in live]
    for other in contents[1:]:
        assert other == contents[0]
    for name, worker in workers.items():
        if name in killed:
            assert catalog.row(worker) not in contents[0]
        else:
            assert contents[0][catalog.row(worker)] == (worker.address,
                                                        catalog.kind)
    # Staleness: no successful resolve of a killed name later than the
    # bound after its kill instant.
    bound = cfg.staleness_bound(N_REPLICAS)
    for name, kill_t, resolve_t in probe_log:
        assert resolve_t - kill_t <= bound + 1e-6, (
            f"{name} still resolved {resolve_t - kill_t:.2f}s after its "
            f"kill; bound is {bound:.2f}s")


def churn_run(world, catalog, replicas, cfg, kill_mask, partition, *,
              step=0.2):
    """Drive the schedule; returns (workers, killed, probe_log, done)."""
    owner = world.registry.principal("alice", org="acme")
    workers = {f"w{i}": world.dapplet(Worker, f"h{i}.edu", f"w{i}",
                                      owner=owner)
               for i in range(len(kill_mask))}
    killed = {f"w{i}" for i, dead in enumerate(kill_mask) if dead}
    prober = world.dapplet(Worker, "probe.edu", "probe")
    client = getattr(world, catalog.client_for)(prober)
    probe_log = []
    kill_times = {}
    done = world.kernel.event()

    def director():
        yield world.kernel.timeout(2 * cfg.renew_interval)
        if partition is not None:
            start, duration = partition
            yield world.kernel.timeout(start)
            a, b = replicas[0].address, replicas[1].address
            world.network.faults.partition(a, b)
            yield world.kernel.timeout(duration)
            world.network.faults.heal(a, b)
        for name in sorted(killed):
            workers[name].stop()
            kill_times[name] = world.kernel.now
        # Probe killed names through the churn window: every success is
        # checked against the staleness bound afterwards.
        until = world.kernel.now + cfg.staleness_bound(N_REPLICAS) + 1.0
        while world.kernel.now < until:
            yield world.kernel.timeout(step)
            for name in sorted(killed):
                row = catalog.row(workers[name])
                if (yield from catalog.find(client, row)) is not None:
                    probe_log.append((name, kill_times[name],
                                      world.kernel.now))
        # A few extra gossip rounds so anti-entropy fully reconciles
        # whatever the partition delayed.
        yield world.kernel.timeout(4 * cfg.gossip_interval)
        done.succeed(None)

    world.process(director())
    return workers, killed, probe_log, done


def sim_schedules(test):
    return settings(max_examples=15, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])(
        given(seed=st.integers(min_value=0, max_value=2**31),
              kill_mask=kill_masks, partition=partitions)(test))


def asyncio_schedules(test):
    return settings(max_examples=3, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])(
        given(seed=st.integers(min_value=0, max_value=2**31),
              kill_mask=kill_masks)(test))


def converge_on_sim(catalog, seed, kill_mask, partition):
    cfg = fast_config()
    world = World(seed=seed, latency=ConstantLatency(0.01),
                  faults=FaultPlan())
    replicas, violations = host(world, catalog, cfg)
    workers, killed, probe_log, done = churn_run(
        world, catalog, replicas, cfg, kill_mask, partition)
    world.run(until=done)
    quiesce_and_check(catalog, replicas, cfg, workers, killed, probe_log,
                      violations)
    drain(world)


def converge_on_asyncio(catalog, seed, kill_mask):
    # Real sockets and wall-clock time: a tiny config so a full lease
    # lifecycle fits in a couple of seconds, few examples, no partition
    # (loopback UDP supplies its own timing noise).
    cfg = LeaseConfig(ttl=0.6, renew_interval=0.15, sweep_interval=0.1,
                      gossip_interval=0.15, cache_ttl=0.1,
                      request_timeout=0.4, tombstone_ttl=10.0)
    world = World(substrate=AsyncioSubstrate(seed=seed))
    try:
        replicas, violations = host(world, catalog, cfg)
        workers, killed, probe_log, done = churn_run(
            world, catalog, replicas, cfg, kill_mask, None, step=0.1)
        world.run(until=done, wall_timeout=60)
        quiesce_and_check(catalog, replicas, cfg, workers, killed,
                          probe_log, violations)
    finally:
        world.close()


@sim_schedules
def test_replicas_converge_after_churn_on_sim(seed, kill_mask, partition):
    converge_on_sim(DIRECTORY, seed, kill_mask, partition)


@sim_schedules
def test_dappstore_converges_after_churn_on_sim(seed, kill_mask, partition):
    converge_on_sim(DAPPSTORE, seed, kill_mask, partition)


@asyncio_schedules
def test_replicas_converge_after_churn_on_asyncio(seed, kill_mask):
    converge_on_asyncio(DIRECTORY, seed, kill_mask)


@asyncio_schedules
def test_dappstore_converges_after_churn_on_asyncio(seed, kill_mask):
    converge_on_asyncio(DAPPSTORE, seed, kill_mask)
