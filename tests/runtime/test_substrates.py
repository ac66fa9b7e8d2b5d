"""One transport test suite, two substrates.

The acceptance test for the substrate abstraction: the same FIFO-order
and loss-recovery scenarios run against the deterministic simulator and
against real UDP loopback sockets, driven through the identical
``Endpoint`` API. Only the substrate construction differs.
"""

import pytest

from repro.net.address import InboxAddress, NodeAddress
from repro.net.faults import FaultPlan
from repro.net.endpoint import Endpoint
from repro.runtime import (AsyncioSubstrate, DatagramService, Scheduler,
                           SimSubstrate, Substrate, UdpDatagramService)

A = NodeAddress("alice.host", 2000)
B = NodeAddress("bob.host", 2000)


def make_substrate(kind, *, faults=None):
    if kind == "sim":
        return SimSubstrate(seed=7, faults=faults)
    return AsyncioSubstrate(seed=7, faults=faults)


def run_until(substrate, event, wall_timeout):
    """Drive either substrate until ``event``; bound real runs in time."""
    if isinstance(substrate, AsyncioSubstrate):
        return substrate.run(event, wall_timeout=wall_timeout)
    return substrate.run(event)


@pytest.fixture(params=["sim", "asyncio"])
def kind(request):
    return request.param


def test_fifo_order_across_substrates(kind):
    substrate = make_substrate(kind)
    try:
        sender = Endpoint(substrate, substrate.datagrams, A)
        receiver = Endpoint(substrate, substrate.datagrams, B)
        got = []
        receiver.register_inbox(0, lambda payload, src: got.append(payload))

        receipts = [sender.send(InboxAddress(B, 0), f"msg-{i}", "ch")
                    for i in range(25)]
        run_until(substrate, substrate.all_of([r.confirmed
                                               for r in receipts]),
                  wall_timeout=20)
        assert got == [f"msg-{i}" for i in range(25)]
        assert sender.stats.data_sent >= 25
    finally:
        substrate.close()


def test_retransmission_recovers_loss_across_substrates(kind):
    substrate = make_substrate(kind, faults=FaultPlan(drop_prob=0.3))
    try:
        sender = Endpoint(substrate, substrate.datagrams, A,
                          rto_initial=0.05)
        receiver = Endpoint(substrate, substrate.datagrams, B,
                            rto_initial=0.05)
        got = []
        receiver.register_inbox(0, lambda payload, src: got.append(payload))

        receipts = [sender.send(InboxAddress(B, 0), f"m{i}", "ch")
                    for i in range(20)]
        run_until(substrate, substrate.all_of([r.confirmed
                                               for r in receipts]),
                  wall_timeout=30)
        assert got == [f"m{i}" for i in range(20)]
        # With 30% loss over 20 packets, recovery must have kicked in.
        assert sender.stats.data_retransmitted > 0
    finally:
        substrate.close()


def test_both_substrates_satisfy_the_protocols(kind):
    substrate = make_substrate(kind)
    try:
        assert isinstance(substrate, Scheduler)
        assert isinstance(substrate.datagrams, DatagramService)
        # Substrate itself is not runtime_checkable (non-method member);
        # shape-check the one structural addition instead.
        assert hasattr(substrate, "datagrams") and hasattr(substrate, "close")
    finally:
        substrate.close()


def test_asyncio_quiescence_and_wall_timeout():
    substrate = AsyncioSubstrate(seed=1)
    try:
        fired = []
        substrate.call_later(0.05, lambda: fired.append("a"))
        substrate.run(wall_timeout=10)  # quiescence: returns once idle
        assert fired == ["a"]

        from repro.errors import SimulationError
        hang = substrate.event()  # never fires
        with pytest.raises(SimulationError):
            substrate.run(hang, wall_timeout=0.2)
    finally:
        substrate.close()


def test_asyncio_crash_propagates_like_kernel():
    from repro.errors import ProcessCrashed

    substrate = AsyncioSubstrate(seed=1)
    try:
        def boom():
            yield substrate.timeout(0.01)
            raise RuntimeError("kaboom")

        substrate.process(boom())
        with pytest.raises(ProcessCrashed):
            substrate.run(wall_timeout=10)
    finally:
        substrate.close()


def test_udp_service_routes_by_virtual_address():
    substrate = AsyncioSubstrate(seed=1)
    try:
        service = substrate.datagrams
        assert isinstance(service, UdpDatagramService)
        seen = []
        service.register(A, seen.append)
        host, port = service.real_address(A)
        assert host == "127.0.0.1" and port > 0
        assert service.is_registered(A)
        service.unregister(A)
        assert not service.is_registered(A)
    finally:
        substrate.close()
