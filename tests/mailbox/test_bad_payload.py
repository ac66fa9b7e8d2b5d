"""A payload that does not decode is dropped and counted, not raised.

The transport acknowledges a payload before the inbox decodes it, so a
malformed one that raised would end the receiving world's run (the
simulator) or reach the substrate's crash report (asyncio) while the
sender believes it delivered. The inbox drops it, counts it in
``bad_payloads`` and emits ``mbox bad_payload``; the channel keeps
flowing.
"""

from repro.mailbox import Inbox, Outbox
from repro.messages import Text
from repro.net import ConstantLatency, NodeAddress
from repro.net.endpoint import Endpoint
from repro.obs import Tracer
from repro.runtime import AsyncioSubstrate, SimSubstrate

HUB = NodeAddress("hub.edu", 1000)
SRC = NodeAddress("src.edu", 1000)

JUNK = ["not json", '{"t":"sys.text","f":[]}', '{"$inbox":5}',
        '{"t":"sys.text","f":{"text":{"$bytes":"!!"}}}']


def wire_pair(substrate):
    rx = Endpoint(substrate, substrate.datagrams, HUB, rto_initial=0.1)
    tx = Endpoint(substrate, substrate.datagrams, SRC, rto_initial=0.1)
    inbox = Inbox(substrate, rx, 0)
    outbox = Outbox(substrate, tx, 0)
    outbox.add(inbox.address)
    return tx, inbox, outbox


def exchange(substrate, **run_options):
    tracer = Tracer().attach(substrate)
    tx, inbox, outbox = wire_pair(substrate)
    outbox.send(Text("before"))
    receipts = [tx.send(inbox.address, junk, "junk") for junk in JUNK]
    outbox.send(Text("after"))
    substrate.run(**run_options)
    return inbox, receipts, tracer


def check(inbox, receipts, tracer):
    assert [m.text for m in inbox.queued()] == ["before", "after"]
    assert inbox.bad_payloads == len(JUNK)
    assert inbox.messages_received == 2
    # The transport delivered (and acknowledged) every junk payload.
    assert all(r.is_confirmed for r in receipts)
    bad = [e for e in tracer.events if e.name == "bad_payload"]
    assert len(bad) == len(JUNK)
    assert all(e.fields["error"] and e.fields["inbox"] == 0 for e in bad)
    assert [e.fields["size"] for e in bad] == [len(j) for j in JUNK]


def test_malformed_payloads_are_dropped_counted_and_the_channel_flows():
    check(*exchange(SimSubstrate(seed=1, latency=ConstantLatency(0.005),
                                 encoded=True)))


def test_the_same_on_real_udp():
    substrate = AsyncioSubstrate(seed=1)
    try:
        check(*exchange(substrate, wall_timeout=5))
    finally:
        substrate.close()


def test_a_good_payload_after_junk_on_the_same_channel_is_delivered():
    """Junk and the good message share one channel (one FIFO stream)."""
    substrate = SimSubstrate(seed=2, latency=ConstantLatency(0.005))
    tx, inbox, _ = wire_pair(substrate)
    for payload in ("{", '{"t":"sys.text","f":{"text":"ok"}}'):
        tx.send(inbox.address, payload, "shared")
    substrate.run()
    assert [m.text for m in inbox.queued()] == ["ok"]
    assert inbox.bad_payloads == 1
