"""Property tests for the token ledger alone — no world, no kernel.

:class:`~repro.services.tokens.ledger.Ledger` is the one place token
conservation is written down; every manager of every deployment keeps
its accounting in one. These tests drive it with arbitrary sequences of
valid *and* invalid operations and check, after every step:

* ``check()`` — ``pool + reserved + held == totals`` per colour and
  ``usage[principal]`` == what is reserved under, plus held by the
  agents of, that principal — against a model kept beside it;
* a rejected operation (``TokenError``) changed nothing;
* ``commit`` after ``abort`` and ``abort`` after ``commit`` are no-ops.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TokenError
from repro.services.tokens.ledger import ALL, Ledger

TOTALS = {"x": 3, "y": 2, "z": 0}
AGENTS = ["a0", "a1", "a2", "a3"]
PRINCIPALS = ["", "p", "q"]
GIDS = [f"s/{i}" for i in range(6)]

#: Mostly plausible counts, salted with everything a hostile or buggy
#: peer could put on the wire.
count = st.one_of(st.integers(min_value=-1, max_value=4), st.just(ALL),
                  st.sampled_from([True, 1.5, "many", None]))
colors = st.dictionaries(st.sampled_from(["x", "y", "z", "foreign"]), count,
                         max_size=3)
op = st.one_of(
    st.tuples(st.just("reserve"), st.sampled_from(GIDS),
              st.sampled_from(AGENTS), st.sampled_from(PRINCIPALS), colors),
    st.tuples(st.just("commit"), st.sampled_from(GIDS)),
    st.tuples(st.just("abort"), st.sampled_from(GIDS)),
    st.tuples(st.just("release"), st.sampled_from(AGENTS), colors),
    st.tuples(st.just("transfer"), st.sampled_from(AGENTS),
              st.sampled_from(AGENTS), colors),
)


def state(ledger):
    """A snapshot of every column (hand-copied: deepcopy is the slow
    part of a step)."""
    return (dict(ledger.pool),
            {g: (a, p, dict(c)) for g, (a, p, c) in ledger.reserved.items()},
            {a: dict(held) for a, held in ledger.holders.items()},
            dict(ledger.principal_of),
            {p: dict(used) for p, used in ledger.usage.items()},
            ledger.live())


def expected_usage(ledger):
    """Usage recomputed the slow way, straight from the definition."""
    usage = {}
    for _, principal, counts in ledger.reserved.values():
        for color, n in counts.items():
            usage[principal, color] = usage.get((principal, color), 0) + n
    for agent, held in ledger.holders.items():
        principal = ledger.principal_of.get(agent, "")
        for color, n in held.items():
            usage[principal, color] = usage.get((principal, color), 0) + n
    return {key: n for key, n in usage.items() if key[0] and n}


@settings(max_examples=100, deadline=None)
@given(st.lists(op, max_size=40))
def test_invariants_hold_and_rejections_change_nothing(script):
    ledger = Ledger(TOTALS, name="s")
    for name, *args in script:
        before = state(ledger)
        try:
            getattr(ledger, name)(*args)
        except TokenError:
            assert state(ledger) == before
        ledger.check()
        assert ledger.live() == TOTALS
        assert all(0 <= n <= TOTALS[c] for c, n in ledger.pool.items())
        assert {(p, c): n for p, usage in ledger.usage.items()
                for c, n in usage.items()} == expected_usage(ledger)


@settings(max_examples=60, deadline=None)
@given(st.lists(op, max_size=20), st.sampled_from(GIDS),
       st.sampled_from(["commit", "abort"]))
def test_commit_and_abort_settle_a_grant_exactly_once(script, gid, first):
    ledger = Ledger(TOTALS)
    for name, *args in script:
        try:
            getattr(ledger, name)(*args)
        except TokenError:
            pass
    getattr(ledger, first)(gid)       # settles the grant, if it was open
    settled = state(ledger)
    assert ledger.commit(gid) is None and ledger.abort(gid) is None
    assert state(ledger) == settled
    ledger.check()


def test_the_three_columns():
    ledger = Ledger({"x": 3, "y": 2})
    assert ledger.reserve("s/1", "a", "", {"x": 2, "y": ALL}) == \
        {"x": 2, "y": 2}
    assert ledger.pool == {"x": 1, "y": 0} and ledger.holders == {}
    assert not ledger.can_reserve({"y": 1}) and ledger.can_reserve({"x": 1})
    assert ledger.scarce_holders("b", {"y": 1, "x": 1}) == ["a"]  # reserved
    assert ledger.scarce_holders("a", {"y": 1}) == []             # not self
    assert ledger.commit("s/1") == {"x": 2, "y": 2}
    assert ledger.holders == {"a": {"x": 2, "y": 2}}
    assert ledger.scarce_holders("b", {"y": ALL}) == ["a"]        # held
    assert ledger.transfer("a", "b", {"x": 1, "y": ALL}) == {"x": 1, "y": 2}
    assert ledger.transfer("a", "b", {"y": ALL}) == {}    # all of nothing
    assert ledger.release("b", {"y": ALL}) == {"y": 2}
    assert ledger.holders == {"a": {"x": 1}, "b": {"x": 1}}
    assert ledger.live() == {"x": 3, "y": 2}
    ledger.check()


def test_rejections():
    with pytest.raises(TokenError):
        Ledger({"x": -1})
    with pytest.raises(TokenError):
        Ledger({"x": True})
    ledger = Ledger({"x": 1})
    ledger.reserve("s/1", "a", "", {"x": 1})
    for bad in ({"x": 1},            # pool short
                {"foreign": ALL},    # a colour homed elsewhere
                {"x": -1}):          # would mint a token
        with pytest.raises(TokenError):
            ledger.reserve("s/2", "b", "", bad)
    with pytest.raises(TokenError):
        ledger.reserve("s/1", "b", "", {"x": 0})  # gid reused
    with pytest.raises(TokenError):
        ledger.release("a", {"x": 1})  # reserved is not yet held
    ledger.commit("s/1")
    with pytest.raises(TokenError):
        ledger.transfer("a", "b", {"x": 2})
    ledger.check()


def test_usage_follows_the_agent_to_its_principal():
    """Quota usage is a function of who holds what *now*: tokens handed
    to an agent the ledger has not yet seen reserve count for that
    agent's principal from the moment it is known."""
    ledger = Ledger({"x": 4})
    ledger.reserve("s/1", "giver", "p", {"x": 3})
    assert ledger.usage == {"p": {"x": 3}}        # reserved already counts
    ledger.commit("s/1")
    ledger.transfer("giver", "taker", {"x": 2})   # taker: principal unknown
    assert ledger.usage == {"p": {"x": 1}}
    ledger.reserve("s/2", "taker", "q", {"x": 1})
    assert ledger.usage == {"p": {"x": 1}, "q": {"x": 3}}
    ledger.abort("s/2")
    ledger.transfer("giver", "taker", {"x": 1})   # now charged on arrival
    assert ledger.usage == {"q": {"x": 3}}
    ledger.release("taker", {"x": ALL})
    ledger.release("giver", {"x": ALL})
    assert ledger.usage == {} and ledger.pool == {"x": 4}
    ledger.check()
