"""Unit tests: the registry capability gate in the session manager.

Enforcement is opt-in per dapplet: only members stamped with an
``owner=`` principal consult the world registry on prepare. A denial
surfaces as ``SessionRejected(reason="capability:<verb>")`` carrying
the exact verb the initiating principal lacks, and bumps the member's
``SessionStats.rejects_capability`` counter.
"""

from repro.errors import SessionRejected

from tests.session.conftest import PassiveDapplet, pair_spec


def establish_outcome(world, initiator, spec=None):
    """Drive one establishment; returns ("ok", session) or the
    (participant, reason) of the rejection."""
    outcome = []

    def director():
        try:
            session = yield from initiator.establish(spec or pair_spec())
            outcome.append(("ok", session))
        except SessionRejected as exc:
            outcome.append((exc.participant, exc.reason))

    p = world.process(director())
    world.run(until=p)
    world.run()  # let any in-flight abort land
    return outcome[0]


def test_unowned_world_needs_no_grants(world, initiator):
    """With no owners anywhere the registry is never consulted."""
    a = world.dapplet(PassiveDapplet, "caltech.edu", "a")
    b = world.dapplet(PassiveDapplet, "rice.edu", "b")
    status, _ = establish_outcome(world, initiator)
    assert status == "ok"
    assert a.sessions.stats.rejects_capability == 0
    assert b.sessions.stats.rejects_capability == 0
    assert world.registry.stats.allows == world.registry.stats.denies == 0


def test_owned_member_rejects_ungrant_principal(world):
    """An owned member denies a principal holding no grant; the reason
    carries the denied verb and the counter ticks."""
    from repro.session import Initiator

    alice = world.registry.principal("alice", org="acme")
    mallory = world.registry.principal("mallory", org="evil")
    a = world.dapplet(PassiveDapplet, "caltech.edu", "a")
    b = world.dapplet(PassiveDapplet, "rice.edu", "b", owner=alice)
    init = world.dapplet(Initiator, "caltech.edu", "init", owner=mallory)

    participant, reason = establish_outcome(world, init)
    assert (participant, reason) == ("b", "capability:session.establish")
    assert b.sessions.stats.rejects_capability == 1
    assert b.sessions.stats.rejects_acl == 0
    # The unowned member accepted, then was aborted: nothing half-linked.
    assert a.sessions.active_sessions() == []
    assert a.sessions.stats.aborts == 1


def test_granted_principal_establishes(world):
    from repro.session import Initiator

    alice = world.registry.principal("alice", org="acme")
    bob = world.registry.principal("bob", org="acme")
    world.dapplet(PassiveDapplet, "caltech.edu", "a")
    b = world.dapplet(PassiveDapplet, "rice.edu", "b", owner=alice)
    init = world.dapplet(Initiator, "caltech.edu", "init", owner=bob)
    world.registry.grant(bob, "acme/**", ("session.establish",))

    status, session = establish_outcome(world, init)
    assert status == "ok"
    assert b.sessions.stats.rejects_capability == 0


def test_manifest_required_verb_lands_in_reason(world):
    """``requires=`` verbs are gated alongside session.establish, and
    the first missing one names the rejection."""
    from repro.session import Initiator

    alice = world.registry.principal("alice", org="acme")
    bob = world.registry.principal("bob", org="acme")
    world.dapplet(PassiveDapplet, "caltech.edu", "a")
    b = world.dapplet(PassiveDapplet, "rice.edu", "b", owner=alice,
                      requires=("rpc.call:read",))
    init = world.dapplet(Initiator, "caltech.edu", "init", owner=bob)
    world.registry.grant(bob, "acme/**", ("session.establish",))

    participant, reason = establish_outcome(world, init)
    assert (participant, reason) == ("b", "capability:rpc.call:read")
    assert b.sessions.stats.rejects_capability == 1

    world.registry.grant(bob, "acme/**", ("rpc.call:read",))
    status, _ = establish_outcome(world, init)
    assert status == "ok"
    assert b.sessions.stats.rejects_capability == 1  # unchanged


def test_owner_always_passes_own_dapplets(world):
    from repro.session import Initiator

    alice = world.registry.principal("alice", org="acme")
    world.dapplet(PassiveDapplet, "caltech.edu", "a")
    world.dapplet(PassiveDapplet, "rice.edu", "b", owner=alice,
                  requires=("rpc.call:admin",))
    init = world.dapplet(Initiator, "caltech.edu", "init", owner=alice)

    status, _ = establish_outcome(world, init)
    assert status == "ok"


def test_revocation_denies_the_next_establish(world):
    """Revoking clears the decision cache: the very next prepare is
    denied, and the denial is audited as a ``reg`` deny event."""
    from repro import Tracer
    from repro.session import Initiator

    tracer = world.attach_tracer(Tracer())
    alice = world.registry.principal("alice", org="acme")
    bob = world.registry.principal("bob", org="acme")
    world.dapplet(PassiveDapplet, "caltech.edu", "a")
    b = world.dapplet(PassiveDapplet, "rice.edu", "b", owner=alice)
    init = world.dapplet(Initiator, "caltech.edu", "init", owner=bob)
    world.registry.grant(bob, "acme/**", ("session.establish",))

    status, session = establish_outcome(world, init)
    assert status == "ok"

    def teardown():
        yield from session.terminate()

    world.run(until=world.process(teardown()))
    world.registry.revoke(bob)

    participant, reason = establish_outcome(world, init)
    assert (participant, reason) == ("b", "capability:session.establish")
    assert b.sessions.stats.rejects_capability == 1
    denies = [e for e in tracer.events
              if e.cat == "reg" and e.name == "deny"]
    assert denies and denies[-1].fields["principal"] == "bob"
    assert denies[-1].fields["verb"] == "session.establish"


def test_unowned_initiator_denied_at_owned_member(world):
    """An ownerless initiator stamps principal="" — owned members
    reject it (no anonymous access to owned dapplets)."""
    alice = world.registry.principal("alice", org="acme")
    from repro.session import Initiator

    world.dapplet(PassiveDapplet, "caltech.edu", "a")
    b = world.dapplet(PassiveDapplet, "rice.edu", "b", owner=alice)
    init = world.dapplet(Initiator, "caltech.edu", "init")

    participant, reason = establish_outcome(world, init)
    assert (participant, reason) == ("b", "capability:session.establish")
    assert b.sessions.stats.rejects_capability == 1
