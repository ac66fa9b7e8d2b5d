"""Layering enforcement: upper layers depend only on the substrate
interface, never on the concrete simulator classes.

The substrate refactor's whole point is that ``mailbox``, ``dapplet``,
``session`` and ``services`` run unchanged on any runtime. Importing
``repro.sim.kernel`` or ``repro.net.datagram`` from those packages would
silently re-couple them to the simulator, so this test greps the import
statements of every module in the restricted packages.

(The substrate-agnostic event/process machinery in ``repro.sim.events``
etc. and the endpoint in ``repro.net.endpoint`` remain fair game — they
run on every scheduler.)

A second scan keeps the deleted ``repro.net.transport`` facade (and the
``repro.net.rto`` state module it re-exported) from growing back:
nothing under ``src/`` may import either — the ordering layer is
``repro.net.stream`` (the machines) and ``repro.net.endpoint`` (their
host). The stream machines stay sans-I/O: they import no scheduler, no
datagram service, no mailbox and no tracer, and the endpoint arms
timers in exactly one place.

A third keeps the two catalogs' dependency one-way: ``repro.registry``
builds its DAppStore on ``repro.discovery.table``, so ``repro.discovery``
may import nothing from ``repro.registry``.

A fourth keeps the token ledger and ring plain data structures — the
conservation invariant is property-tested without a world, so
``repro.services.tokens.ledger`` and ``.ring`` may import nothing that
could send a message or read a clock.

A fifth holds the two substrates to one definition each of what they
share: the scheduler core (event constructors, process registry,
``_fire``) and the datagram front end (admit, deliver, membership) are
the *same function objects* on both — a re-copied method fails here —
while the methods the E20 span recorder patches by name stay defined in
their own class bodies, where it looks them up.

A sixth holds "one way out, one way to call": only code that owns real
ports opens an outbox (everything else writes to a pointer with
``Dapplet.post``), an id-keyed pending-call table exists in the RPC
proxy only, and ``services/sync``, the lease table, the session link-up
and the token agent have no message family of their own — they are
exported objects and their callers hold proxies.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent.parent / "src" / "repro"

#: Packages that must stay substrate-agnostic.
RESTRICTED = ("mailbox", "dapplet", "session", "services")

#: Modules that pin the code to the simulated runtime.
BANNED = ("repro.sim.kernel", "repro.net.datagram")


def _imported_modules(path: pathlib.Path) -> set[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    mods: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            mods.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            mods.add(node.module)
    return mods


def _restricted_files():
    for package in RESTRICTED:
        for path in sorted((SRC / package).rglob("*.py")):
            yield pytest.param(path, id=str(path.relative_to(SRC)))


@pytest.mark.parametrize("path", _restricted_files())
def test_no_direct_simulator_imports(path):
    offending = _imported_modules(path).intersection(BANNED)
    assert not offending, (
        f"{path.relative_to(SRC)} imports {sorted(offending)}; upper "
        "layers must depend on repro.runtime.substrate interfaces only")


def test_restriction_covers_something():
    # Guard against the scan silently matching zero files.
    assert sum(1 for _ in _restricted_files()) >= 10


def _all_src_files():
    for path in sorted(SRC.rglob("*.py")):
        yield pytest.param(path, id=str(path.relative_to(SRC)))


@pytest.mark.parametrize("path", _all_src_files())
def test_nothing_in_src_imports_the_transport_facade(path):
    offending = _imported_modules(path).intersection(
        ("repro.net.transport", "repro.net.rto"))
    assert not offending, (
        f"{path.relative_to(SRC)} imports {sorted(offending)}, which no "
        "longer exist; import repro.net.endpoint / repro.net.stream")


def test_stream_machines_are_sans_io():
    banned = ("repro.sim", "repro.runtime", "repro.net.datagram",
              "repro.mailbox", "repro.obs")
    path = SRC / "net" / "stream.py"
    offending = sorted(m for m in _imported_modules(path)
                       if m.startswith(banned))
    assert not offending, (
        f"net/stream.py imports {offending}; the machines take `now` as "
        "an argument and reach the world only through their host")
    assert "call_later" not in path.read_text()


def test_endpoint_arms_timers_in_one_place():
    tree = ast.parse((SRC / "net" / "endpoint.py").read_text())
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "call_later"]
    assert len(calls) == 1, "one wake timer per stream half, one call site"


def _discovery_files():
    for path in sorted((SRC / "discovery").rglob("*.py")):
        yield pytest.param(path, id=str(path.relative_to(SRC)))


@pytest.mark.parametrize("path", _discovery_files())
def test_discovery_imports_nothing_from_registry(path):
    offending = sorted(m for m in _imported_modules(path)
                       if m == "repro.registry"
                       or m.startswith("repro.registry."))
    assert not offending, (
        f"{path.relative_to(SRC)} imports {offending}; the DAppStore "
        "builds on repro.discovery.table, never the other way round")


@pytest.mark.parametrize("module", ["ledger", "ring"])
def test_token_ledger_and_ring_are_pure(module):
    stateful = ("repro.dapplet", "repro.mailbox", "repro.sim", "repro.net",
                "repro.runtime")
    path = SRC / "services" / "tokens" / f"{module}.py"
    offending = sorted(m for m in _imported_modules(path)
                       if m.startswith(stateful))
    assert not offending, (
        f"{path.relative_to(SRC)} imports {offending}; the ledger and the "
        "ring are pure — no dapplet, no kernel, no messages")


def test_the_two_schedulers_share_one_core():
    from repro.runtime import AsyncioSubstrate
    from repro.sim.kernel import Kernel
    for name in ("event", "timeout", "process", "any_of", "all_of",
                 "call_later", "_register_process", "_unregister_process",
                 "_fire"):
        assert getattr(AsyncioSubstrate, name) is getattr(Kernel, name), name


def test_the_two_datagram_services_share_one_front_end():
    from repro.net.datagram import DatagramNetwork
    from repro.runtime import UdpDatagramService
    for name in ("_admit", "_deliver", "_deliver_bytes", "_undeliverable",
                 "is_registered"):
        assert getattr(UdpDatagramService, name) \
            is getattr(DatagramNetwork, name), name
    # Shared through a common base, not by one serving as the other's
    # parent: E20 patches ``register`` on both, and a ``super()`` call
    # through a patched parent would span every handler twice.
    assert not issubclass(UdpDatagramService, DatagramNetwork)


def test_span_patch_targets_stay_in_their_own_class_bodies():
    import inspect

    from repro.mailbox import Inbox
    from repro.net.datagram import DatagramNetwork
    from repro.net.endpoint import Endpoint
    from repro.runtime import AsyncioSubstrate, UdpDatagramService
    from repro.sim.kernel import Kernel
    for cls, name in ((Kernel, "step"),
                      (AsyncioSubstrate, "_process_event"),
                      (DatagramNetwork, "send"),
                      (UdpDatagramService, "send"),
                      (UdpDatagramService, "_on_readable"),
                      (Inbox, "receive"),
                      (Inbox, "deliver_local"),
                      (Inbox, "_on_dequeue")):
        assert name in vars(cls), f"{cls.__name__}.{name}"

    def params(fn):
        return list(inspect.signature(fn).parameters)

    # The inbox-wait patch wraps these two with (self, message), and
    # every consumed message must reach the class's _on_dequeue.
    assert params(Inbox.deliver_local) == ["self", "message"]
    assert params(Inbox._on_dequeue) == ["self", "message"]
    # The inbox-deliver patch re-passes these by keyword.
    assert params(Endpoint.register_inbox) == [
        "self", "ref", "deliver", "name", "backlog"]


# -- one way out, one way to call ---------------------------------------------
#
# Every write to a global pointer leaves through ``Dapplet.post`` (which
# owns the "replace a channel the transport gave up" rule), and every
# request/reply correlation is the RPC's. Code that owns real ports —
# the dapplet itself, a member's session wiring, the termination ring —
# is the only code that may open an outbox.

PORT_OWNERS = {"dapplet/dapplet.py", "session/manager.py",
               "services/termination.py"}


def _calls_to(path: pathlib.Path, name: str) -> int:
    """How many calls in ``path`` are spelled ``name(...)`` or
    ``something.name(...)`` (decorator calls included)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) \
                else getattr(func, "id", None)
            count += called == name
    return count


def test_only_port_owners_open_outboxes():
    openers = {str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
               if _calls_to(path, "create_outbox")}
    assert openers == PORT_OWNERS, (
        "servlets and their clients write to a pointer with Dapplet.post; "
        f"unexpected create_outbox( in {sorted(openers - PORT_OWNERS)}")
    for client in ("rpc/proxy.py", "services/tokens/manager.py",
                   "services/sync/distributed.py", "discovery/table.py",
                   "session/initiator.py"):
        assert client not in openers
    # Failover is "advance the index": no rebind of a private outbox.
    assert _calls_to(SRC / "discovery" / "table.py", "delete") == 0


def test_pending_call_tables_exist_in_the_proxy_and_the_token_agent_only():
    """The token agent's table went with its protocol: the proxy's is
    the one left."""
    holders = sorted(str(path.relative_to(SRC))
                     for path in SRC.rglob("*.py")
                     if "_pending: dict[int, Event]" in path.read_text())
    assert holders == ["rpc/proxy.py"]


def test_sync_rides_rpc_and_adds_no_protocol_of_its_own():
    from repro.messages import registered_types
    import repro.services.sync  # noqa: F401 - the import is the subject
    assert not [tag for tag in registered_types() if tag.startswith("sync.")]
    for path in sorted((SRC / "services" / "sync").glob("*.py")):
        assert path.name != "messages.py"
        assert not _calls_to(path, "message_type"), path.name
        assert not _calls_to(path, "spawn"), path.name
        assert "itertools" not in _imported_modules(path), path.name
    # No generator means no serve loop and no dispatcher. By syntax tree:
    # local.py's docstring legitimately says "yield".
    tree = ast.parse(
        (SRC / "services" / "sync" / "distributed.py").read_text())
    assert not any(isinstance(node, (ast.Yield, ast.YieldFrom))
                   for node in ast.walk(tree))


def test_lease_table_rides_rpc_and_keeps_one_message_of_its_own():
    from repro.messages import registered_types
    import repro.discovery  # noqa: F401 - the imports are the subject
    import repro.registry  # noqa: F401
    tags = registered_types()
    assert not [t for t in tags if t.startswith(("dir.", "reg."))]
    assert [t for t in tags if t.startswith("lease.")] == ["lease.gossip"]
    for package in ("discovery", "registry"):
        for path in sorted((SRC / package).glob("*.py")):
            assert path.name != "messages.py", package
            # Call ids are the proxy's; the table correlates nothing.
            assert "req_id" not in path.read_text(), path.name
    assert "itertools" not in _imported_modules(SRC / "discovery" / "table.py")


def test_session_link_up_rides_rpc_and_adds_no_protocol_of_its_own():
    from repro.messages import registered_types
    import repro.session  # noqa: F401 - the import is the subject
    assert not [t for t in registered_types() if t.startswith("session.")]
    assert not (SRC / "session" / "messages.py").exists()
    # The initiator calls proxies: it opens no port and matches no reply.
    initiator = SRC / "session" / "initiator.py"
    assert not _calls_to(initiator, "create_inbox")
    assert not _calls_to(initiator, "create_outbox")
    assert not _calls_to(initiator, "receive")


def test_token_agent_rides_rpc_and_keeps_only_manager_messages():
    from repro.messages import registered_types
    import repro.services.tokens  # noqa: F401 - the import is the subject
    # Agents call a manager's facet; what is left is manager-to-manager.
    assert sorted(t for t in registered_types() if t.startswith("tok.")) \
        == ["tok.abort", "tok.agent_register", "tok.commit",
            "tok.deadlock_found", "tok.forward_notice", "tok.prepare",
            "tok.prepare_denied", "tok.prepared", "tok.probe",
            "tok.release_apply", "tok.transfer_apply"]
    # The agent holds a proxy: no port, no process, no correlation.
    manager = SRC / "services" / "tokens" / "manager.py"
    for call in ("spawn", "create_inbox", "receive"):
        assert not _calls_to(manager, call), call
    assert "req_id" not in manager.read_text()
    assert "itertools" not in _imported_modules(manager)


def test_rpc_span_targets_keep_the_shape_e20_patches():
    """E20 patches these methods by class and name, and attributes a
    process slice to the file its generator is defined in."""
    import inspect

    from repro.discovery.resolver import Resolver
    from repro.registry.store import StoreClient
    from repro.rpc import proxy, remote
    from repro.services.tokens.manager import TokenAgent
    from repro.session.initiator import Initiator
    for cls, name in ((proxy.RemoteProxy, "call"), (TokenAgent, "request"),
                      (TokenAgent, "release"), (Resolver, "resolve"),
                      (StoreClient, "lookup"), (Initiator, "establish"),
                      (Initiator, "_terminate")):
        assert name in vars(cls), f"{cls.__name__}.{name}"
    # Wrapped as generators: a span covers the whole protocol run.
    for name in ("establish", "_terminate"):
        assert inspect.isgeneratorfunction(vars(Initiator)[name]), name
    for module, cls, name in ((remote, remote.RemoteObject, "_serve"),
                              (proxy, proxy.RpcClient, "_dispatch")):
        loop = vars(cls)[name]
        assert inspect.isgeneratorfunction(loop)
        assert loop.__code__.co_filename == module.__file__
