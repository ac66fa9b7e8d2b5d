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
    from repro.net.datagram import DatagramNetwork
    from repro.runtime import AsyncioSubstrate, UdpDatagramService
    from repro.sim.kernel import Kernel
    for cls, name in ((Kernel, "step"),
                      (AsyncioSubstrate, "_process_event"),
                      (DatagramNetwork, "send"),
                      (UdpDatagramService, "send"),
                      (UdpDatagramService, "_on_readable")):
        assert name in vars(cls), f"{cls.__name__}.{name}"
