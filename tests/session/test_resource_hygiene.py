"""Long-lived dapplets must not leak ports across many sessions."""

from tests.session.conftest import PassiveDapplet, pair_spec


def test_ports_do_not_accumulate_across_sessions(world, initiator):
    a = world.dapplet(PassiveDapplet, "caltech.edu", "a")
    b = world.dapplet(PassiveDapplet, "rice.edu", "b")

    def run_one():
        session = yield from initiator.establish(pair_spec())
        yield from session.terminate()

    def warmup_and_measure():
        # One full cycle to populate steady-state structures.
        yield from run_one()
        counts = (len(a.inboxes), len(a.outboxes),
                  len(initiator.inboxes), len(initiator.outboxes))
        for _ in range(5):
            yield from run_one()
        after = (len(a.inboxes), len(a.outboxes),
                 len(initiator.inboxes), len(initiator.outboxes))
        assert after == counts, (counts, after)

    p = world.process(warmup_and_measure())
    world.run(until=p)
    world.run()


def test_manager_entries_do_not_accumulate(world, initiator):
    a = world.dapplet(PassiveDapplet, "caltech.edu", "a")
    b = world.dapplet(PassiveDapplet, "rice.edu", "b")

    def run_many():
        for _ in range(4):
            session = yield from initiator.establish(pair_spec())
            yield from session.terminate()

    p = world.process(run_many())
    world.run(until=p)
    world.run()
    assert a.sessions.active_sessions() == []
    assert len(a.sessions._entries) == 0
    assert len(a._posts) == 0
    assert len(initiator._records) == 0
