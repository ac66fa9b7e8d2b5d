"""A stateful model of delta gossip between three lease replicas.

Three real :class:`~repro.discovery.DirectoryReplica` objects are
driven by hand: claims, renewals, releases, sweeps, the passing of
time (alone, or with owners renewing and replicas sweeping through
it), gossip pushes (each carrying its sender's heartbeat vector), the
death of a home, a partition cutting one replica off and its heal, and
the fate of every gossip message — delivered, acknowledged, or lost
with its channel. The replicas' own timers are set
beyond reach and their ``post`` is replaced by a model of the reliable
FIFO channel it sends on, so hypothesis picks every interleaving.

Three properties:

* **lower bound** — what a replica's map says a peer holds never
  exceeds what that peer has held. A peer that forgot a tombstone, or
  the row of a home silent for ``ttl + tombstone_ttl``, holds less than
  it once did; the sender cannot know, and need not;
* **convergence** — after any partition heals, everything in flight is
  settled and two quiet rounds pass (every live replica pushes to both
  its peers, nothing else happens), every replica holding a name holds
  it at the same stamp, and a replica lacking it has forgotten it. A
  row its replica counts as forgotten (a lapsed tombstone, a
  long-silent home's row) counts as forgotten, swept or not. And a row
  live at its live home is held and served by every live replica,
  however long the peers went without hearing that home;
* **one writer of tombstones** — every tombstone was first written by
  the row's home: a replica never expires or releases a row homed
  elsewhere.
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
    name, and which names its sweep forgot (until they come back). The
    first store to hold a tombstone wrote it: ``tombs`` (shared by the
    three) records who that was."""

    def __init__(self, address, tombs):
        super().__init__()
        self.high: dict[str, tuple] = {}
        self.gone: set[str] = set()
        self._address = str(address)
        self._tombs = tombs

    def __setitem__(self, name, record):
        self.high[name] = max(self.high.get(name, ()), record.stamp)
        self.gone.discard(name)
        if not record.alive:
            writer = self._tombs.setdefault((name, record.stamp),
                                            self._address)
            assert writer == record.home, (name, record.stamp, writer)
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
        tombs = {}
        for r in self.replicas:
            r.store = Ledger(r.address, tombs)
            r.post = self._poster(r)
        #: Highest epoch granted per name.
        self.epochs: dict[str, int] = {}
        #: Replicas that died: they act no more, and what reaches them
        #: is lost.
        self.dead: set = set()
        #: The replica a partition cuts off: nothing it sends or is sent
        #: is delivered or acknowledged until the heal.
        self.cut: set = set()

    def _alive(self, i):
        return self.replicas[i].address not in self.dead

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
        if not self._alive(i):
            return
        epoch = self.replicas[i]._claim(
            name, NodeAddress(f"{name}.edu", 1), "worker",
            0 if fresh else self.epochs.get(name, 0))
        self.epochs[name] = max(self.epochs.get(name, 0), epoch)

    @rule(i=replica_ix, name=names)
    def renew(self, i, name):
        """Denied (and changing nothing) anywhere but at the home."""
        replica = self.replicas[i]
        record = replica.store.get(name)
        if record is not None and self._alive(i):
            try:
                replica._renew(name, record.epoch)
            except LeaseDenied:
                pass

    @rule(i=replica_ix, name=names)
    def release(self, i, name):
        record = self.replicas[i].store.get(name)
        if record is not None and self._alive(i):
            self.replicas[i]._release(name, record.epoch)

    @rule(i=replica_ix)
    def sweep(self, i):
        if self._alive(i):
            self.replicas[i].sweep()

    @rule(i=replica_ix)
    def kill(self, i):
        """A home dies (one at most: two stay to converge). Its rows
        lapse at its peers once they have not heard it for ``ttl``."""
        if not self.dead:
            self.dead.add(self.replicas[i].address)

    @rule(i=replica_ix)
    def partition(self, i):
        """One replica is cut off from both peers (its owners still
        reach it: claims, renewals and releases go on)."""
        self.cut = {self.replicas[i].address}

    @rule()
    def heal(self):
        self.cut = set()

    @rule(dt=st.sampled_from((0.1, 0.6, 1.5)))
    def tick(self, dt):
        self.world.run(until=self.kernel.now + dt)

    @rule(dt=st.sampled_from((1.5, 3.5)))
    def owners_renew_through(self, dt):
        """Time passes while every owner renews at its home and every
        replica sweeps, each every 0.5 s, and no gossip is exchanged, so
        peers can go ``ttl + tombstone_ttl`` without a home's heartbeat
        and forget its rows while they stay live there."""
        end = self.kernel.now + dt
        while self.kernel.now < end:
            self.tick(0.5)
            for i, replica in enumerate(self.replicas):
                for name, record in list(replica.store.items()):
                    if record.home == replica._me:
                        self.renew(i, name)
                self.sweep(i)

    @rule(i=replica_ix)
    def push(self, i):
        if self._alive(i):
            self.replicas[i]._push()

    # -- the channel ---------------------------------------------------------

    @rule(ix=st.integers(min_value=0, max_value=5))
    def deliver(self, ix):
        """The oldest undelivered message of one channel arrives."""
        key = self._channel(ix)
        if key is None:
            return
        sent = next((s for s in self.channels[key] if not s.delivered), None)
        # Nothing reaches a dead replica, so nothing sent to it is acked.
        if sent is not None and key[1] not in self.dead \
                and not self.cut & set(key):
            sent.delivered = True
            self.by_address[key[1]]._on_gossip(sent.message)

    @rule(ix=st.integers(min_value=0, max_value=5))
    def acknowledge(self, ix):
        """The oldest delivered message of one channel is acknowledged."""
        key = self._channel(ix)
        if key is None or not self.channels[key][0].delivered \
                or self.cut & set(key):
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
                    if key[1] in self.dead:
                        sent.receipt._fail(DeliveryTimeout("peer dead"))
                        continue
                    if not sent.delivered:
                        self.by_address[key[1]]._on_gossip(sent.message)
                    sent.receipt._ack()
            self._settle()

    @rule()
    def two_quiet_rounds(self):
        self.heal()
        self._drain()
        for _ in range(2):
            for i in range(len(self.replicas)):
                self.push(i)
                self._drain()
        now = self.kernel.now
        held = {}
        live = [r for r in self.replicas if r.address not in self.dead]
        for r in live:
            for name, record in r.store.items():
                if not r._forgotten(record, now):  # else swept in effect
                    held.setdefault(name, set()).add(record.stamp)
        for name, stamps in held.items():
            assert len(stamps) == 1, (name, stamps)
            for r in live:
                assert name in r.store or name in r.store.gone, name
        for home in live:
            for name, record in home.store.items():
                if record.home == home._me and home._live(record, now):
                    for r in live:
                        assert r.store[name].stamp == record.stamp, name
                        assert r._live(r.store[name], now), (r.name, name)

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
    replica holds a row, its own copy is forgotten first and it grants
    the name afresh at a lower stamp. Here the row's home ``_dir2`` dies,
    ``_dir0`` last heard it 0.6 s before ``_dir1`` did, so ``_dir0``
    forgets the row first, and its fresh grant sorts below the old row
    (same epoch and version, a lower home address). Its push overwrites
    what its peer's map says it holds, so the reply brings the old row,
    not yet forgotten there, back. (Had the map kept the higher stamp,
    the stores would stay split.)"""
    model = GossipModel()
    model.claim(2, "a", False)
    model.two_quiet_rounds()
    model.tick(1.5)
    model.push(2)           # _dir0 hears _dir2 at 1.5 ...
    model._drain()
    model.tick(0.6)
    model.push(2)           # ... _dir1 at 2.1
    model._drain()
    model.kill(2)
    old = model.replicas[1].store["a"].stamp
    d0, d1 = model.replicas[:2]
    assert d1._known[d0.address]["a"] == old
    model.tick(1.5)
    model.tick(0.6)
    model.tick(0.6)         # 4.8: forgotten at _dir0 (4.5), not _dir1 (5.1)
    model.sweep(0)
    assert "a" not in d0.store and "a" in d1.store
    model.claim(0, "a", True)
    assert d0.store["a"].stamp < old
    model.two_quiet_rounds()
    assert [r.store["a"].stamp for r in (d0, d1)] == [old] * 2


def test_a_home_unheard_past_forgetting_is_served_again():
    """The home renews its row while no gossip passes, so its peers go
    ``ttl + tombstone_ttl`` without its heartbeat and forget the row,
    while the home's maps still say they hold it (a renewal changes no
    stamp, so nothing else would resend it). Once gossip resumes, each
    side counts the other silent and sends every row, and two quiet
    rounds serve the row everywhere again."""
    model = GossipModel()
    model.claim(2, "a", False)
    model.two_quiet_rounds()
    d0, d1, d2 = model.replicas
    assert d2._known[d0.address]["a"] == d2.store["a"].stamp
    model.partition(2)
    for _ in range(6):
        model.tick(0.6)
        model.renew(2, "a")
        model.push(2)
    model.sweep(0)
    model.sweep(1)
    assert "a" not in d0.store and "a" not in d1.store
    model.two_quiet_rounds()
    assert all(r._live(r.store["a"], model.kernel.now) for r in model.replicas)


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
