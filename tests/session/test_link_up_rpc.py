"""Session link-up as calls on the members' session facets: the
properties per-session control channels used to provide, and the
presumed abort that releases a member whose initiator died."""

import pytest

from repro.errors import ReproError, SessionError, SessionRejected
from repro.net import ConstantLatency, FaultPlan, PerLinkLatency
from repro.runtime import AsyncioSubstrate
from repro.session import Binding, Initiator, MemberSpec, SessionSpec
from repro.world import World

from tests.session.conftest import PassiveDapplet, pair_spec


def solo_spec(member="m"):
    spec = SessionSpec("solo")
    spec.add_member(member, regions={"cal": "rw"})
    return spec


def run(world, body, wall_timeout=30):
    process = world.process(body)
    if isinstance(world.substrate, AsyncioSubstrate):
        return world.run(until=process, wall_timeout=wall_timeout)
    return world.run(until=process)


# -- a dead initiator no longer pins a member's regions -------------------------


@pytest.mark.parametrize("kind,timeout,wait", [("sim", 30.0, 100.0),
                                               ("asyncio", 0.5, 1.0)])
def test_dead_initiator_releases_prepared_regions(kind, timeout, wait):
    """The initiator stops between prepare and commit (its accept is
    lost). Once its deadline has passed, the member aborts the prepared
    entry on the next call, so a second initiator's session on the same
    region is admitted."""
    faults = FaultPlan()
    world = (World(seed=5, latency=ConstantLatency(0.01), faults=faults)
             if kind == "sim"
             else World(substrate=AsyncioSubstrate(seed=5, faults=faults)))
    try:
        m = world.dapplet(PassiveDapplet, "m.edu", "m")
        i1 = world.dapplet(Initiator, "i1.edu", "i1")
        i2 = world.dapplet(Initiator, "i2.edu", "i2")
        faults.partition(m.address, i1.address, bidirectional=False)
        outcomes = []

        def doomed():
            try:
                yield from i1.establish(solo_spec(), timeout=timeout)
            except ReproError:
                pass  # it stopped; its abort cannot leave

        def director():
            world.process(doomed())
            yield world.kernel.timeout(0.03)
            i1.stop()
            yield world.kernel.timeout(wait)
            assert list(m.sessions._entries) == ["i1#s1"]  # lazy
            session = yield from i2.establish(solo_spec(), timeout=timeout)
            outcomes.append(sorted(m.sessions._entries))
            yield from session.terminate(timeout=timeout)

        run(world, director())
    finally:
        world.close()
    assert outcomes == [["i2#s1"]]
    assert m.sessions.stats.aborts == 1
    assert m.sessions.stats.rejects_interference == 0


def test_expired_queued_prepare_is_dropped_not_admitted():
    world = World(seed=6, latency=ConstantLatency(0.01))
    m = world.dapplet(PassiveDapplet, "m.edu", "m")
    holder = world.dapplet(Initiator, "h.edu", "holder")
    i1 = world.dapplet(Initiator, "i1.edu", "i1")
    i2 = world.dapplet(Initiator, "i2.edu", "i2")

    def doomed():
        try:
            yield from i1.establish(solo_spec(), timeout=2.0,
                                    wait_for_regions=True)
        except ReproError:
            pass

    def director():
        held = yield from holder.establish(solo_spec())
        world.process(doomed())
        yield world.kernel.timeout(0.03)
        i1.stop()  # queued at m, and will never abort
        yield world.kernel.timeout(5.0)
        yield from held.terminate()
        # The queued prepare expired: ending the holder admits nothing.
        assert m.sessions._entries == {}
        assert m.sessions._admission_queue == []
        session = yield from i2.establish(solo_spec())
        yield from session.terminate()

    run(world, director())
    assert m.sessions.stats.queued == 1
    assert m.sessions.stats.commits == 2


# -- abort never overtakes its prepare ---------------------------------------------


class LinkFaults(FaultPlan):
    """Faults on the one link between ``a`` and ``b``, a clean net elsewhere."""

    def __init__(self, a, b, **faults):
        super().__init__(**faults)
        self.link = {a, b}

    def copies(self, rng, src, dst, datagram=None):
        if {src, dst} == self.link:
            return super().copies(rng, src, dst, datagram)
        return [0.0]


@pytest.mark.parametrize("seed", range(8))
def test_abort_never_overtakes_its_prepare_under_reorder(seed):
    """b rejects at once; a is slow to accept and its link reorders and
    duplicates datagrams. The abort rides the prepare's channel, so a
    never keeps an orphan entry, and the late accept is dropped."""
    latency = PerLinkLatency(ConstantLatency(0.01))
    latency.set_link("init.edu", "slow.edu", ConstantLatency(0.5))
    world = World(seed=seed, latency=latency)
    initiator = world.dapplet(Initiator, "init.edu", "init")
    a = world.dapplet(PassiveDapplet, "slow.edu", "a")
    b = world.dapplet(PassiveDapplet, "rice.edu", "b")
    world.network.faults = LinkFaults(initiator.address, a.address,
                                      duplicate_prob=0.5,
                                      reorder_jitter=0.4)
    b.acl.deny(initiator.address)
    outcomes = []

    def director():
        try:
            yield from initiator.establish(
                pair_spec(regions_a={"cal": "rw"}), timeout=10.0)
        except SessionRejected as exc:
            outcomes.append(exc.reason)

    run(world, director())
    world.run()
    assert outcomes == ["acl"]
    assert a.sessions.stats.prepares == 1
    assert a.sessions.stats.aborts == 1
    assert a.sessions._entries == {}
    assert initiator._rpc_client._pending == {}


# -- no call left pending at quiescence ----------------------------------------------


def _stop_once_prepared(world, dapplet, session_id):
    """Stop ``dapplet`` right after it accepted ``session_id``."""
    def watch():
        while session_id not in dapplet.sessions._entries:
            yield world.kernel.timeout(0.001)
        dapplet.stop()
    world.process(watch())


def _success(world, initiator, a, b):
    session = yield from initiator.establish(pair_spec())
    yield from session.terminate()


def _reject(world, initiator, a, b):
    b.acl.deny(initiator.address)
    with pytest.raises(SessionRejected):
        yield from initiator.establish(pair_spec())


def _prepare_timeout(world, initiator, a, b):
    spec = pair_spec()
    spec.members["b"].address = b.address  # a stale address
    b.stop()
    with pytest.raises(SessionError, match="no reply"):
        yield from initiator.establish(spec, timeout=2.0)


def _not_ready_timeout(world, initiator, a, b):
    _stop_once_prepared(world, b, "init#s1")
    with pytest.raises(SessionError, match="not ready"):
        yield from initiator.establish(pair_spec(), timeout=2.0)


def _grow_rollback(world, initiator, a, b):
    c = world.dapplet(PassiveDapplet, "utk.edu", "c")
    session = yield from initiator.establish(pair_spec())
    _stop_once_prepared(world, c, session.session_id)
    with pytest.raises(SessionError, match="never became ready"):
        yield from session.add_member(
            MemberSpec("c", inboxes=("in",)),
            [Binding("a", "to_c", "c", "in")], timeout=2.0)
    assert session.members == {"a", "b"}
    yield from session.terminate()


def _terminate_dead_member(world, initiator, a, b):
    session = yield from initiator.establish(pair_spec())
    b.stop()
    yield from session.terminate(timeout=2.0)
    assert session.terminated


@pytest.mark.parametrize("path", [_success, _reject, _prepare_timeout,
                                  _not_ready_timeout, _grow_rollback,
                                  _terminate_dead_member],
                         ids=lambda path: path.__name__.lstrip("_"))
def test_no_call_is_left_pending_at_quiescence(world, initiator, path):
    a = world.dapplet(PassiveDapplet, "caltech.edu", "a")
    b = world.dapplet(PassiveDapplet, "rice.edu", "b")
    run(world, path(world, initiator, a, b))
    world.run()
    assert initiator._rpc_client._pending == {}
    assert initiator._rpc_client._agenda == []
    assert a.sessions._entries == {}
