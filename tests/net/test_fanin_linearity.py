"""Cross-stream work per message is flat in the number of peers.

An inbox "may receive from arbitrarily many outboxes", and a token
shard or a directory replica is exactly that: one node every dapplet
talks to. The endpoint used to walk every receive stream it had ever
created each time one message left one inbox (``inbox_drained``) and
each time an ACK was owed on outgoing DATA (``piggyback``): ~N visits
per message at a hub with N peers, none of which ever sent a frame, and
nothing in the suite could see it. This counts, with no wall clock: the
receive-stream visits made on behalf of those two jobs must stay within
a small constant per delivered message — and the behavioural twin shows
the one stream that does need a window update still gets it.
"""

import pytest

from repro.mailbox import Inbox
from repro.messages import Text
from repro.messages.serialize import dumps
from repro.net import ConstantLatency, Endpoint, NodeAddress
from repro.net.stream import ReliableReceiver
from repro.net.wire import KIND_ACK
from repro.runtime import SimSubstrate

HUB = NodeAddress("hub.edu", 1000)
ROUNDS = 2


def source(i: int) -> NodeAddress:
    return NodeAddress(f"src{i}.edu", 1000)


class CountedStreams(dict):
    """The hub's receive-stream table, counting every stream a scan of it
    yields. (Lookups by key are not visits.)"""

    def __init__(self, visits: list[int]) -> None:
        super().__init__()
        self.visits = visits

    def _counted(self, it):
        for item in it:
            self.visits[0] += 1
            yield item

    def __iter__(self):
        return self._counted(super().__iter__())

    def values(self):
        return self._counted(super().values())

    def items(self):
        return self._counted(super().items())


@pytest.fixture
def visits(monkeypatch):
    """Counts calls of the two per-stream methods the cross-stream jobs
    end in (``ack_fields`` also counts the ACKs the streams send for
    themselves: at most one per delivered message)."""
    count = [0]
    for name in ("window_update", "ack_fields"):
        original = getattr(ReliableReceiver, name)

        def counted(self, *args, _original=original):
            count[0] += 1
            return _original(self, *args)

        monkeypatch.setattr(ReliableReceiver, name, counted)
    return count


@pytest.mark.parametrize("n", [50, 400])
def test_cross_stream_visits_per_message_do_not_grow_with_peers(n, visits):
    substrate = SimSubstrate(seed=7, latency=ConstantLatency(0.005))
    # A long ack delay so the second round's ACKs are still owed when the
    # hub replies: every reply then goes through the piggyback job.
    hub = Endpoint(substrate, substrate.datagrams, HUB, ack_delay=0.5)
    hub._recv_streams = CountedStreams(visits)
    inbox = Inbox(substrate, hub, 0)
    echoed: list[str] = []
    sources = []
    for i in range(n):
        ep = Endpoint(substrate, substrate.datagrams, source(i))
        ep.register_inbox(0, lambda payload, addr: echoed.append(payload))
        sources.append(ep)

    def echo():
        for _ in range(ROUNDS * n):
            message = yield inbox.receive()
            i = int(message.text)
            hub.send(source(i).inbox(0), message.text, channel=f"echo{i}")

    done = substrate.process(echo())
    # Staggered, so the inbox never backs up: a window that really is
    # pinched is visited on every dequeue until it recovers, by design.
    for round_ in range(ROUNDS):
        for i, ep in enumerate(sources):
            substrate.call_later(
                0.1 * round_ + 1e-4 * i,
                lambda ep=ep, i=i: ep.send(HUB.inbox(0), dumps(Text(str(i))),
                                           channel=f"up{i}"))
    substrate.run(done)
    substrate.run()

    delivered = ROUNDS * n
    assert inbox.messages_received == delivered
    assert sorted(echoed) == sorted(str(i) for i in range(n)
                                    for _ in range(ROUNDS))
    assert len(hub._recv_streams) == n
    # Both jobs ran: every message was dequeued, and the second round's
    # ACKs rode the replies.
    assert hub.stats.acks_piggybacked >= n
    assert visits[0] <= 3 * delivered, (
        f"{visits[0] / delivered:.1f} receive-stream visits per delivered "
        f"message at {n} peers")


def test_one_pinched_stream_among_400_gets_its_window_update(visits):
    n, window = 400, 300
    substrate = SimSubstrate(seed=7, latency=ConstantLatency(0.005))
    hub = Endpoint(substrate, substrate.datagrams, HUB, recv_window=window)
    hub._recv_streams = CountedStreams(visits)
    backlog = [0]
    got: list[str] = []
    hub.register_inbox(0, lambda payload, addr: got.append(payload),
                       backlog=lambda: backlog[0])
    sources = [Endpoint(substrate, substrate.datagrams, source(i))
               for i in range(n)]
    acks: list[tuple[NodeAddress, dict]] = []
    substrate.datagrams.wire_taps.append(
        lambda now, d: d.header.get("kind") == KIND_ACK and d.src == HUB
        and acks.append((d.dst, d.header)))

    # 399 peers are heard from while the inbox is empty: full windows.
    for i, ep in enumerate(sources[:-1]):
        ep.send(HUB.inbox(0), f"m{i}", channel=f"up{i}")
    substrate.run()
    assert all(h["rwnd"] == window for _, h in acks) and len(acks) == n - 1
    # The consumer stalls with the inbox full; the last peer is told 0.
    backlog[0] = window
    last = sources[-1]
    last.send(HUB.inbox(0), "last", channel="up-last")
    substrate.run(until=substrate.now + 0.05)
    assert acks[-1][0] == last.address and acks[-1][1]["rwnd"] == 0
    assert len(got) == n

    # The inbox drains: one window update, to the one pinched stream.
    del acks[:]
    visits[0] = 0
    backlog[0] = 0
    hub.inbox_drained(0)
    assert hub.stats.window_updates == 1
    assert [(dst, h["ch"], h["rwnd"]) for dst, h in acks] == [
        (last.address, "up-last", window)]
    # window_update + the ack_fields of the ACK it sent; 399 untouched.
    assert visits[0] == 2
    # Re-opened, so the next dequeue has nobody to visit.
    hub.inbox_drained(0)
    assert visits[0] == 2 and hub.stats.window_updates == 1
    substrate.run()
    assert last._send_streams[(HUB, "up-last")].rwnd == window
