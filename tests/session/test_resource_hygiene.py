"""Long-lived dapplets must not leak ports across many sessions."""

import gc
import weakref

from repro.session.manager import CONTROL_INBOX

from tests.session.conftest import PassiveDapplet, pair_spec


def test_ports_do_not_accumulate_across_sessions(world, initiator):
    a = world.dapplet(PassiveDapplet, "caltech.edu", "a")
    b = world.dapplet(PassiveDapplet, "rice.edu", "b")

    def run_one():
        session = yield from initiator.establish(pair_spec())
        yield from session.terminate()

    def counts():
        # Ports, and the transport's per-channel stream state under them:
        # link-up rides one channel per member facet, not per session.
        return (len(a.inboxes), len(a.outboxes),
                len(initiator.inboxes), len(initiator.outboxes),
                len(initiator.endpoint._send_streams),
                len(a.endpoint._recv_streams))

    def warmup_and_measure():
        # One full cycle to populate steady-state structures.
        yield from run_one()
        before = counts()
        for _ in range(5):
            yield from run_one()
        assert counts() == before, (before, counts())

    p = world.process(warmup_and_measure())
    world.run(until=p)
    world.run()


def test_manager_entries_do_not_accumulate(world, initiator):
    a = world.dapplet(PassiveDapplet, "caltech.edu", "a")
    b = world.dapplet(PassiveDapplet, "rice.edu", "b")

    ended = []

    def run_many():
        for _ in range(4):
            session = yield from initiator.establish(pair_spec())
            yield from session.terminate()
            ended.append(weakref.ref(session))

    p = world.process(run_many())
    world.run(until=p)
    world.run()
    assert a.sessions.active_sessions() == []
    assert len(a.sessions._entries) == 0
    # One reply channel per calling dapplet: bounded, not per session.
    assert list(a._posts) == [initiator._rpc_client.inbox.address]
    # Nothing, the initiator included, keeps an ended session alive.
    gc.collect()
    assert [ref() for ref in ended] == [None] * 4
    assert initiator._rpc_client._pending == {}
    # One channel to each member's _session facet.
    assert set(initiator._posts) == {a.address.inbox(CONTROL_INBOX),
                                     b.address.inbox(CONTROL_INBOX)}
