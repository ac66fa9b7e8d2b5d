"""Stateful property test: an inbox behaves like a FIFO queue model.

Deliveries arrive locally (``deliver_local``) and over the wire (an
outbox on another endpoint, so each is charged its wire size); receives
come plain, blocking ahead of their message, and timed to expire (with
or without a delivery landing in the very instant of expiry); queued
messages are rewritten and dropped with ``transform_queued``. The kernel
is run to quiescence after every step.
"""

from collections import deque

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.errors import ReceiveTimeout
from repro.mailbox import Inbox, Outbox
from repro.mailbox.inbox import LOCAL_MESSAGE_SIZE
from repro.messages import Text
from repro.messages.serialize import dumps
from repro.net import ConstantLatency, DatagramNetwork, Endpoint, NodeAddress
from repro.sim import Kernel

A = NodeAddress("a.edu", 1000)
B = NodeAddress("b.edu", 1000)


class InboxModel(RuleBasedStateMachine):
    """Drives an inbox against a deque of ``(text, size)`` entries."""

    def __init__(self):
        super().__init__()
        self.kernel = Kernel(seed=0)
        net = DatagramNetwork(self.kernel, latency=ConstantLatency(0.01))
        self.inbox = Inbox(self.kernel, Endpoint(self.kernel, net, B), 0)
        self.outbox = Outbox(self.kernel, Endpoint(self.kernel, net, A), 0)
        self.outbox.add(self.inbox.address)
        self.model: deque[tuple[str, int]] = deque()
        self.consumed: list[str] = []
        self.expected: list[str] = []
        self.timeouts = 0
        self._counter = 0

    def _text(self, pad: int = 0) -> str:
        self._counter += 1
        return f"{self._counter}:" + "x" * pad

    def _deliver_local(self) -> None:
        text = self._text()
        self.inbox.deliver_local(Text(text))
        self.model.append((text, LOCAL_MESSAGE_SIZE))

    def _take(self, ev) -> None:
        ev.callbacks.append(lambda e: self.consumed.append(e.value.text))

    @rule(n=st.integers(min_value=1, max_value=4))
    def deliver_local(self, n):
        for _ in range(n):
            self._deliver_local()
        self.kernel.run()

    @rule(pad=st.integers(min_value=0, max_value=300))
    def deliver_over_the_wire(self, pad):
        text = self._text(pad)
        self.outbox.send(Text(text))
        self.model.append(
            (text, LOCAL_MESSAGE_SIZE + len(dumps(Text(text)))))
        self.kernel.run()

    @precondition(lambda self: self.model)
    @rule()
    def receive(self):
        self._take(self.inbox.receive())
        self.expected.append(self.model.popleft()[0])
        self.kernel.run()

    @rule()
    def receive_ahead_of_its_message(self):
        self._take(self.inbox.receive())
        self._deliver_local()
        # The waiting receive takes the OLDEST message.
        self.expected.append(self.model.popleft()[0])
        self.kernel.run()

    @precondition(lambda self: not self.model)
    @rule(timeout=st.sampled_from([0.0, 0.01, 1.0]),
          racer=st.booleans())
    def expiring_receive(self, timeout, racer):
        ev = self.inbox.receive(timeout=timeout)

        def expired(e):
            assert isinstance(e.value, ReceiveTimeout)
            e.defused = True
            self.timeouts += 1

        ev.callbacks.append(expired)
        if racer:
            # Lands in the instant of expiry: kept for the next receive.
            self.kernel.call_later(timeout, self._deliver_local)
        before = self.timeouts
        self.kernel.run()
        assert self.timeouts == before + 1

    @rule(mod=st.integers(min_value=2, max_value=4))
    def transform_queued(self, mod):
        def fn(message):
            serial = int(message.text.split(":", 1)[0])
            return None if serial % mod == 0 else Text(message.text + "'")

        self.inbox.transform_queued(fn)
        self.model = deque(
            (text + "'", size) for text, size in self.model
            if int(text.split(":", 1)[0]) % mod)

    @invariant()
    def consumption_is_fifo(self):
        assert self.consumed == self.expected

    @invariant()
    def queue_matches_model(self):
        assert [m.text for m in self.inbox.queued()] == \
            [text for text, _ in self.model]
        assert len(self.inbox) == len(self.model)
        assert self.inbox.is_empty == (not self.model)

    @invariant()
    def backlog_is_the_sum_of_queued_sizes(self):
        assert self.inbox.backlog_bytes == sum(size for _, size in self.model)


TestInboxModel = InboxModel.TestCase
TestInboxModel.settings = settings(max_examples=60,
                                   stateful_step_count=30,
                                   deadline=None)
