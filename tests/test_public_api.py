"""Public API conformance: every re-export in ``repro.__init__`` stays
importable and ``__all__`` is complete and accurate."""

import inspect

import pytest

import repro
from repro.net import Endpoint


def test_all_names_resolve():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, (
            f"repro.__all__ lists {name!r} but it does not resolve")


def test_all_is_sorted_and_unique():
    public = [n for n in repro.__all__ if not n.startswith("_")]
    assert public == sorted(public)
    assert len(set(repro.__all__)) == len(repro.__all__)


def test_public_attributes_are_in_all():
    # Everything importable from the top level that is not a module or a
    # private name must be declared in __all__.
    import types
    exported = set(repro.__all__)
    for name, value in vars(repro).items():
        if name.startswith("_") or isinstance(value, types.ModuleType):
            continue
        assert name in exported, (
            f"repro.{name} is public but missing from __all__")


def test_headline_classes_present():
    for name in ("World", "Dapplet", "Inbox", "Outbox", "Substrate",
                 "SimSubstrate", "AsyncioSubstrate"):
        assert name in repro.__all__


def test_discovery_exports_present():
    for name in ("DirectoryReplica", "Resolver", "RegistrationAgent",
                 "LeaseConfig", "LeaseExpired", "DiscoveryError"):
        assert name in repro.__all__
    # The lease knobs clients tune must exist on the exported config.
    cfg = repro.LeaseConfig()
    for field in ("ttl", "renew_interval", "gossip_interval", "cache_ttl"):
        assert hasattr(cfg, field)
    assert cfg.staleness_bound(3) > cfg.ttl


def test_endpoint_speaks_one_protocol():
    """The transport's keyword set is pinned: a new protocol switch
    shows up as a diff here."""
    keywords = [p.name for p in
                inspect.signature(Endpoint.__init__).parameters.values()
                if p.kind is inspect.Parameter.KEYWORD_ONLY]
    assert keywords == ["skip_timeout", "rto_initial", "rto_max",
                        "max_retries", "dup_ack_threshold", "ack_delay",
                        "cwnd_initial", "recv_window", "batch_bytes"]


def test_world_rejects_a_removed_transport_switch():
    class Node(repro.Dapplet):
        kind = "node"

    world = repro.World(endpoint_options={"sack": False})
    with pytest.raises(TypeError):
        world.dapplet(Node, "a.edu", "a")
