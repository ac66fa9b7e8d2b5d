"""AsyncioSubstrate teardown: World.close() must leak nothing.

After close, no asyncio task may remain, no armed timer may still be
able to fire into the loop, and no UDP socket may stay bound — whether
the substrate owns its loop or schedules on one the caller owns.
"""

import asyncio
import gc
import socket

from repro import AsyncioSubstrate, Tracer, World
from repro.net import NodeAddress
from repro.net.endpoint import Endpoint

A = NodeAddress("a.edu", 1000)
B = NodeAddress("b.edu", 1000)


def open_udp_sockets():
    gc.collect()
    return [obj for obj in gc.get_objects()
            if isinstance(obj, socket.socket)
            and obj.type == socket.SOCK_DGRAM and obj.fileno() >= 0]


def run_some_traffic(substrate):
    ea = Endpoint(substrate, substrate.datagrams, A, rto_initial=0.05)
    eb = Endpoint(substrate, substrate.datagrams, B, rto_initial=0.05)
    got = []
    eb.register_inbox(0, lambda p, a: got.append(p))
    receipts = [ea.send(B.inbox(0), f"m{i}", "ch") for i in range(5)]
    substrate.run(substrate.all_of([r.confirmed for r in receipts]),
                  wall_timeout=20)
    assert got == [f"m{i}" for i in range(5)]


def test_world_close_releases_tasks_timers_and_sockets():
    before = len(open_udp_sockets())
    world = World(substrate=AsyncioSubstrate())
    substrate = world.substrate
    run_some_traffic(substrate)
    # Traffic leaves armed timers behind (delayed acks, rto timers).
    world.close()

    assert substrate.closed
    assert substrate._handles == set()            # no armed timers
    assert substrate.datagrams._socks == {}       # no bound node sockets
    assert substrate.datagrams._tx_sock is None   # no shared tx socket
    assert substrate.loop.is_closed()             # owned loop released
    assert len(open_udp_sockets()) <= before      # nothing OS-level leaked


def test_close_on_caller_owned_loop_disarms_timers():
    """A closed substrate must never fire work into a loop it does not
    own — the caller may keep running that loop for years."""
    loop = asyncio.new_event_loop()
    try:
        substrate = AsyncioSubstrate(loop=loop)
        tracer = Tracer().attach(substrate)
        run_some_traffic(substrate)
        # Schedule far-future work, then close before it can fire.
        fired = []
        substrate.call_later(0.05, lambda: fired.append("boom"))
        assert substrate._handles
        # ...and same-instant work triggered just before the close.
        zero = substrate.event()
        zero.callbacks.append(lambda ev: fired.append("zero"))
        zero.succeed()
        substrate.close()
        assert not loop.is_closed()  # caller's loop untouched...

        events_at_close = len(tracer.events)
        loop.run_until_complete(asyncio.sleep(0.2))
        assert fired == []                            # ...but disarmed
        assert len(tracer.events) == events_at_close  # and silent
        assert asyncio.all_tasks(loop) == set()       # and no tasks left
    finally:
        loop.close()


def test_a_time_bounded_run_leaves_no_timer_behind():
    """``run(until=<float>)`` arms a deadline on the loop; a run that
    ends another way (here: its wall timeout) must disarm it."""
    import pytest

    from repro.errors import SimulationError

    loop = asyncio.new_event_loop()
    try:
        substrate = AsyncioSubstrate(loop=loop)
        with pytest.raises(SimulationError, match="wall_timeout"):
            substrate.run(until=30.0, wall_timeout=0.1)
        substrate.close()
        # BaseEventLoop keeps its timers in ``_scheduled``; cancelled
        # ones linger there until popped.
        live = [h for h in loop._scheduled if not h.cancelled()]
        assert live == []
    finally:
        loop.close()


def test_close_is_idempotent_and_stops_runs():
    import pytest

    from repro.errors import SimulationError

    substrate = AsyncioSubstrate()
    substrate.close()
    substrate.close()  # second close is a no-op
    with pytest.raises(SimulationError, match="closed"):
        substrate.run(wall_timeout=1)
