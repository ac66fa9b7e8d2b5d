"""A stateful model of delta gossip between three lease replicas.

Three real :class:`~repro.discovery.DirectoryReplica` objects are
driven by hand: claims, renewals, releases, sweeps, the passing of
time, gossip pushes, and the fate of every gossip message — delivered,
acknowledged, or lost with its channel. The replicas' own timers are set
beyond reach and their ``post`` is replaced by a model of the reliable
FIFO channel it sends on, so hypothesis picks every interleaving.

Two properties:

* **lower bound** — what a replica's map says a peer holds never
  exceeds what that peer has held. A peer that forgot a tombstone holds
  less than it once did; the sender cannot know, and need not;
* **convergence** — after everything in flight is settled and two quiet
  rounds (every replica pushes to both its peers, nothing else
  happens), every replica holding a name holds it at the same stamp,
  and a replica lacking it has forgotten it. A tombstone past its
  expiry counts as forgotten, swept or not.
"""

from collections import deque

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro import LeaseConfig, World
from repro.errors import DeliveryTimeout, LeaseDenied
from repro.mailbox.outbox import SendResult
from repro.net import ConstantLatency, NodeAddress
from repro.net.endpoint import DeliveryReceipt

NAMES = ("a", "b", "c", "d")
NEVER = 1e9

replica_ix = st.integers(min_value=0, max_value=2)
names = st.sampled_from(NAMES)


class Ledger(dict):
    """A replica store that remembers the highest stamp it ever held per
    name, and which names its sweep forgot (until they come back)."""

    def __init__(self):
        super().__init__()
        self.high: dict[str, tuple] = {}
        self.gone: set[str] = set()

    def __setitem__(self, name, record):
        self.high[name] = max(self.high.get(name, ()), record.stamp)
        self.gone.discard(name)
        super().__setitem__(name, record)

    def __delitem__(self, name):
        self.gone.add(name)
        super().__delitem__(name)


class Sent:
    """One gossip message on the model channel."""

    def __init__(self, kernel, to, message):
        self.message = message
        self.receipt = DeliveryReceipt(kernel, to)
        self.delivered = False


class GossipModel(RuleBasedStateMachine):

    def __init__(self):
        super().__init__()
        self.world = World(seed=0, latency=ConstantLatency(0.01))
        self.kernel = self.world.kernel
        self.cfg = LeaseConfig(ttl=1.0, renew_interval=0.25,
                               sweep_interval=NEVER, gossip_interval=NEVER,
                               tombstone_ttl=2.0)
        self.replicas = self.world.host_directory(3, config=self.cfg)
        self.by_address = {r.address: r for r in self.replicas}
        #: (sender, receiver) -> the channel's unacknowledged messages.
        self.channels: dict[tuple, deque[Sent]] = {}
        for r in self.replicas:
            r.store = Ledger()
            r.post = self._poster(r)
        #: Highest epoch granted per name.
        self.epochs: dict[str, int] = {}

    def _poster(self, replica):
        def post(to, message):
            sent = Sent(self.kernel, to, message)
            self.channels.setdefault((replica.address, to.node),
                                     deque()).append(sent)
            return SendResult(self.kernel, [sent.receipt])
        return post

    def _settle(self):
        """Run the receipt callbacks (no time passes)."""
        self.world.run(until=self.kernel.now)

    def _channel(self, ix):
        busy = sorted(k for k, q in self.channels.items() if q)
        return busy[ix % len(busy)] if busy else None

    # -- the table's own operations ------------------------------------------

    @rule(i=replica_ix, name=names, fresh=st.booleans())
    def claim(self, i, name, fresh):
        """An agent claims with the highest epoch it was granted as its
        hint; a ``fresh`` one (a new dapplet under an old name) with 0,
        which a replica that forgot the name grants at a low epoch."""
        epoch = self.replicas[i]._claim(
            name, NodeAddress(f"{name}.edu", 1), "worker",
            0 if fresh else self.epochs.get(name, 0))
        self.epochs[name] = max(self.epochs.get(name, 0), epoch)

    @rule(i=replica_ix, name=names)
    def renew(self, i, name):
        replica = self.replicas[i]
        record = replica.store.get(name)
        if record is not None:
            try:
                replica._renew(name, record.epoch)
            except LeaseDenied:
                pass

    @rule(i=replica_ix, name=names)
    def release(self, i, name):
        record = self.replicas[i].store.get(name)
        if record is not None:
            self.replicas[i]._release(name, record.epoch)

    @rule(i=replica_ix)
    def sweep(self, i):
        self.replicas[i].sweep()

    @rule(dt=st.sampled_from((0.1, 0.6, 1.5)))
    def tick(self, dt):
        self.world.run(until=self.kernel.now + dt)

    @rule(i=replica_ix)
    def push(self, i):
        self.replicas[i]._push()

    # -- the channel ---------------------------------------------------------

    @rule(ix=st.integers(min_value=0, max_value=5))
    def deliver(self, ix):
        """The oldest undelivered message of one channel arrives."""
        key = self._channel(ix)
        if key is None:
            return
        sent = next((s for s in self.channels[key] if not s.delivered), None)
        if sent is not None:
            sent.delivered = True
            self.by_address[key[1]]._on_gossip(sent.message)

    @rule(ix=st.integers(min_value=0, max_value=5))
    def acknowledge(self, ix):
        """The oldest delivered message of one channel is acknowledged."""
        key = self._channel(ix)
        if key is None or not self.channels[key][0].delivered:
            return
        self.channels[key].popleft().receipt._ack()
        self._settle()

    @rule(ix=st.integers(min_value=0, max_value=5))
    def lose_channel(self, ix):
        """A fault outlives the retry budget: every unacknowledged
        message of the channel fails, delivered or not."""
        key = self._channel(ix)
        if key is None:
            return
        while self.channels[key]:
            self.channels[key].popleft().receipt._fail(
                DeliveryTimeout("retry budget exhausted"))
        self._settle()

    def _drain(self):
        while any(self.channels.values()):
            for key, queue in sorted(self.channels.items()):
                while queue:
                    sent = queue.popleft()
                    if not sent.delivered:
                        self.by_address[key[1]]._on_gossip(sent.message)
                    sent.receipt._ack()
            self._settle()

    @rule()
    def two_quiet_rounds(self):
        self._drain()
        for _ in range(2):
            for r in self.replicas:
                r._push()
                self._drain()
        now = self.kernel.now
        held = {}
        for r in self.replicas:
            for name, record in r.store.items():
                if not record.forgotten_at(now):  # else swept in effect
                    held.setdefault(name, set()).add(record.stamp)
        for name, stamps in held.items():
            assert len(stamps) == 1, (name, stamps)
            for r in self.replicas:
                assert name in r.store or name in r.store.gone, name

    # -- the lower bound -----------------------------------------------------

    @invariant()
    def maps_never_exceed_what_the_peer_held(self):
        for r in self.replicas:
            for peer, known in r._known.items():
                high = self.by_address[peer].store.high
                for name, stamp in known.items():
                    assert stamp <= high[name], (r.name, peer, name, stamp)

    @invariant()
    def maps_name_only_rows_in_the_store(self):
        for r in self.replicas:
            for stamps in (*r._known.values(), *r._flying.values()):
                assert set(stamps) <= set(r.store)


TestGossipModel = GossipModel.TestCase
TestGossipModel.settings = settings(max_examples=200,
                                    stateful_step_count=50,
                                    deadline=None)


def test_a_peer_that_relearned_an_older_stamp_is_corrected():
    """The sequence the random search rarely reaches: its peers know a
    replica holds a tombstone, its own copy lapses first and it grants
    the name afresh at a lower stamp. Its push overwrites what its
    peers' maps say it holds, so their replies bring the tombstone,
    still unexpired there, back. (Had the maps kept the higher stamp,
    the stores would stay split.)"""
    model = GossipModel()
    model.claim(0, "a", False)
    model.two_quiet_rounds()
    model.tick(1.5)
    model.sweep(1)          # _dir1's tombstone expires at 3.5 ...
    model.tick(0.6)
    model.sweep(0)
    model.sweep(2)          # ... its peers' at 4.1
    for _ in range(2):      # both peers learn that _dir1 holds it
        model.push(1)
        model._drain()
    tombstone = model.replicas[0].store["a"].stamp
    model.tick(1.5)
    model.sweep(1)
    assert "a" not in model.replicas[1].store
    model.claim(1, "a", True)
    assert model.replicas[1].store["a"].stamp < tombstone
    model.two_quiet_rounds()
    assert [r.store["a"].stamp for r in model.replicas] == [tombstone] * 3


def test_a_lapsed_tombstone_does_not_outrank_a_fresh_claim():
    """A counterexample one random run found: ``_dir1`` still holds a
    tombstone past its expiry (its sweep has not run) when ``_dir2``
    grants the name afresh at a lower stamp. The lapsed tombstone is
    swept in effect, so it is neither sent nor kept against the claim,
    and two quiet rounds converge on the claim. (Gossiped on, it won at
    two replicas while the third kept the claim.)"""
    model = GossipModel()
    model.claim(1, "a", False)
    model.push(1)
    model.release(1, "a")
    model.two_quiet_rounds()
    model.push(0)
    model.tick(0.6)
    model.tick(1.5)
    model.sweep(0)
    model.sweep(2)
    model.claim(2, "a", True)
    claim = model.replicas[2].store["a"].stamp
    model.two_quiet_rounds()
    assert [r.store["a"].stamp for r in model.replicas] == [claim] * 3
