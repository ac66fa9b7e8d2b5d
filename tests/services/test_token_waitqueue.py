"""Model test for the token managers' wait queue alone — no world, no
kernel.

:class:`~repro.services.tokens.ledger.WaitQueue` holds a home manager's
blocked prepares and applies its grant policy in one drain pass. Here it
runs against a real :class:`~repro.services.tokens.ledger.Ledger`, side
by side with :func:`reference_drain` — the two-branch drain the manager
used before the queue existed — over random prepares (``"all"`` counts
and tied timestamps included), releases, commits and aborts under both
policies. After every step:

* the queue grants the same entries, in the same order, as the
  reference, and keeps the same waiters in the same order;
* ``Ledger.check`` holds;
* no waiter is lost: under ``"fifo"`` no remaining waiter is coverable,
  under ``"timestamp"`` the priority head is not.
"""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TokenError
from repro.services.tokens.ledger import (ALL, POLICIES, Ledger, WaitQueue,
                                          priority)

TOTALS = {"x": 2, "y": 1}
AGENTS = ["a0", "a1", "a2", "a3"]


@dataclass(frozen=True)
class Waiter:
    gid: str
    agent: str
    timestamp: int
    colors: dict


def reference_drain(policy, queue: list, ledger: Ledger) -> list:
    """The manager's drain before :class:`WaitQueue`: a head-only loop
    for ``"timestamp"``, and for ``"fifo"`` arrival-order passes
    repeated until one reserves nothing. Reserves as it goes; returns
    the gids in grant order."""
    granted = []

    def take(entry):
        queue.remove(entry)
        ledger.reserve(entry.gid, entry.agent, "", entry.colors)
        granted.append(entry.gid)

    if policy == "timestamp":
        while queue:
            head = min(queue, key=priority)
            if not ledger.can_reserve(head.colors):
                break
            take(head)
    else:
        progressed = True
        while progressed:
            progressed = False
            for entry in list(queue):
                if ledger.can_reserve(entry.colors):
                    take(entry)
                    progressed = True
    return granted


def drain(queue: WaitQueue, ledger: Ledger) -> list:
    """Reserve what the queue yields, as the manager does."""
    granted = []
    for entry in queue.drain(ledger):
        ledger.reserve(entry.gid, entry.agent, "", entry.colors)
        granted.append(entry.gid)
    return granted


def columns(ledger: Ledger) -> tuple:
    return (ledger.pool, ledger.reserved, ledger.holders)


count = st.one_of(st.integers(min_value=1, max_value=2), st.just(ALL))
op = st.one_of(
    st.tuples(st.just("prepare"), st.sampled_from(AGENTS),
              st.dictionaries(st.sampled_from(sorted(TOTALS)), count,
                              min_size=1),
              st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("release"), st.integers(min_value=0, max_value=30),
              count),
    st.tuples(st.just("commit"), st.integers(min_value=0, max_value=30)),
    st.tuples(st.just("abort"), st.integers(min_value=0, max_value=30)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(op, min_size=4, max_size=40))
def test_one_pass_grants_what_the_two_branch_drain_granted(script):
    for policy in POLICIES:
        run_both(policy, script)


def run_both(policy: str, script: list) -> None:
    queue, ledger = WaitQueue(policy), Ledger(TOTALS)
    ref_queue, ref_ledger = [], Ledger(TOTALS)
    made = 0
    for name, *args in script:
        held = [(agent, color, n) for agent, counts in
                sorted(ledger.holders.items()) for color, n in counts.items()]
        if name == "prepare":
            agent, colors, timestamp = args
            entry = Waiter(f"s/{made}", agent, timestamp, colors)
            made += 1
            queue.add(entry)
            ref_queue.append(entry)
        elif name == "release" and held:
            pick, n = args
            agent, color, count = held[pick % len(held)]
            counts = {color: n if n == ALL else min(n, count)}
            ledger.release(agent, counts)
            ref_ledger.release(agent, counts)
        elif name == "commit" and ledger.reserved:
            gid = sorted(ledger.reserved)[args[0] % len(ledger.reserved)]
            ledger.commit(gid)
            ref_ledger.commit(gid)
        elif name == "abort" and (ledger.reserved or queue):
            gids = sorted(ledger.reserved) + [e.gid for e in queue]
            gid = gids[args[0] % len(gids)]
            if ledger.abort(gid) is None:
                queue.discard(gid)
                ref_queue[:] = [e for e in ref_queue if e.gid != gid]
            ref_ledger.abort(gid)
        assert drain(queue, ledger) == reference_drain(policy, ref_queue,
                                                       ref_ledger)
        assert [e.gid for e in queue] == [e.gid for e in ref_queue]
        assert columns(ledger) == columns(ref_ledger)
        ledger.check()
        waiting = list(queue)
        if policy == "fifo":
            assert not any(ledger.can_reserve(e.colors) for e in waiting)
        elif waiting:
            assert not ledger.can_reserve(min(waiting, key=priority).colors)


def test_fifo_lets_a_small_request_pass_a_blocked_large_one():
    ledger = Ledger({"x": 2})
    ledger.reserve("s/0", "a0", "", {"x": 1})
    queue = WaitQueue("fifo")
    queue.add(Waiter("s/1", "a1", 0, {"x": 2}))
    queue.add(Waiter("s/2", "a2", 1, {"x": 1}))
    assert drain(queue, ledger) == ["s/2"]
    assert [e.gid for e in queue] == ["s/1"]


def test_timestamp_serves_the_priority_head_and_stops_behind_it():
    ledger = Ledger({"x": 2})
    ledger.reserve("s/0", "a0", "", {"x": 1})
    queue = WaitQueue("timestamp")
    queue.add(Waiter("s/1", "a2", 5, {"x": 1}))
    queue.add(Waiter("s/2", "a1", 5, {"x": ALL}))   # tie: lower agent first
    queue.add(Waiter("s/3", "a3", 9, {"x": 1}))
    assert drain(queue, ledger) == []               # the head needs both
    ledger.abort("s/0")
    assert drain(queue, ledger) == ["s/2"]
    assert [e.gid for e in queue] == ["s/1", "s/3"]


def test_a_waiter_that_leaves_during_the_pass_is_passed_over():
    """A reservation can cause an abort (a deadlock found inline on a
    ring of one): the pass must not yield the aborted waiter."""
    ledger = Ledger({"x": 3})
    queue = WaitQueue("fifo")
    for i in range(3):
        queue.add(Waiter(f"s/{i}", f"a{i}", 0, {"x": 1}))
    granted = []
    for entry in queue.drain(ledger):
        ledger.reserve(entry.gid, entry.agent, "", entry.colors)
        granted.append(entry.gid)
        queue.discard("s/1")
    assert granted == ["s/0", "s/2"] and len(queue) == 0


def test_an_unknown_policy_is_rejected():
    with pytest.raises(TokenError):
        WaitQueue("lottery")


def test_of_lists_one_agents_waiters_in_arrival_order():
    queue = WaitQueue()
    for gid, agent in (("s/1", "a"), ("s/2", "b"), ("s/3", "a")):
        queue.add(Waiter(gid, agent, 0, {"x": 1}))
    assert [e.gid for e in queue.of("a")] == ["s/1", "s/3"]
    assert queue.of("c") == []
