"""Exception hierarchy for the ``repro`` distributed-system layer.

The paper specifies several situations that must surface as exceptions
rather than silent failures:

* a message not delivered within a specified time (outbox ``send``),
* deleting an inbox address that is not bound (outbox ``delete``),
* releasing tokens the dapplet does not hold (token manager ``release``),
* a deadlock among token requests (token manager ``request``).

Every exception raised by this package derives from :class:`ReproError`
so applications can catch the whole family with one handler.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""

    #: Attributes sent along when an exported method raises this error;
    #: the caller's :class:`RpcError` has them as ``remote_fields``.
    rpc_fields: tuple[str, ...] = ()


class SimulationError(ReproError):
    """Base class for errors raised by the discrete-event kernel."""


class ProcessCrashed(SimulationError):
    """A simulated process terminated with an unhandled exception.

    The original exception is available as ``__cause__``.
    """


class InterruptError(SimulationError):
    """Raised inside a process when another process interrupts it.

    Mirrors the thread-interruption facility the paper's Java
    implementation inherits from ``java.lang.Thread``.
    """

    def __init__(self, cause: object = None) -> None:
        super().__init__(cause)
        self.cause = cause


class AddressError(ReproError):
    """An address is malformed, unknown, or already in use."""


class TransportError(ReproError):
    """Base class for transport-layer failures (framing, codec, channel).

    Separates wire/codec problems from :class:`AddressError` (which is
    about address *values*, not frames): :class:`repro.net.wire.FrameError`
    is a :class:`WireFormatError` only. Catch :class:`TransportError` (or
    :class:`WireFormatError`) for codec failures.
    """


class WireFormatError(TransportError):
    """A frame could not be encoded to or decoded from its wire bytes."""


class PayloadTooLarge(WireFormatError):
    """A single payload cannot fit one frame even unbatched.

    Raised (or carried by a failed delivery receipt) at *send* time on
    every substrate, so the simulated network and real UDP sockets agree
    on the frame-size ceiling instead of diverging at encode time.
    ``limit`` is the ceiling (:data:`repro.net.wire.MAX_FRAME_BYTES`),
    ``size`` the frame size the payload would have needed.
    """

    def __init__(self, message: str, *, size: int = 0,
                 limit: int = 0) -> None:
        super().__init__(message)
        self.size = size
        self.limit = limit


class SerializationError(ReproError):
    """A message could not be converted to or from its wire string."""


class StoreError(ReproError):
    """A durable-storage invariant was violated.

    Torn WAL tails are *not* errors (recovery tolerates them by
    construction); this covers genuine misuse or corruption — a snapshot
    object that is not one clean checksummed record, attaching two
    durable layers to one state, journaling through a crashed backend.
    """


class BackendCrash(StoreError):
    """An injected crash point fired inside a storage backend.

    Raised by :class:`repro.store.CrashPoint`-instrumented backends the
    moment the configured byte or record budget is exhausted; the write
    in flight is applied only up to the budget (a torn tail), and every
    later operation raises again until the backend's
    ``reset_crash()`` is called — modelling a host that died and was
    then restarted against the same disk. ``at_byte`` is the total
    durable byte count at which the crash fired.
    """

    def __init__(self, message: str, *, at_byte: int = 0) -> None:
        super().__init__(message)
        self.at_byte = at_byte


class DeliveryTimeout(ReproError):
    """A message was not delivered within the specified time.

    The paper: "if a message is not delivered within a specified time an
    exception is raised".
    """

    def __init__(self, message: str, *, destination: object = None,
                 timeout: float | None = None) -> None:
        super().__init__(message)
        self.destination = destination
        self.timeout = timeout


class ReceiveTimeout(ReproError):
    """A timed ``receive`` on an inbox expired before a message arrived."""

    def __init__(self, message: str, *, timeout: float | None = None) -> None:
        super().__init__(message)
        self.timeout = timeout


class BindingError(ReproError):
    """An outbox binding operation failed.

    The paper: ``delete(ipa)`` "removes the specified global address from
    the list inboxes if it is in the list and otherwise throws an
    exception".
    """


class DappletError(ReproError):
    """A dapplet lifecycle or configuration error."""


class SessionError(ReproError):
    """A session could not be established, grown, shrunk or terminated."""


class SessionRejected(SessionError):
    """A participant rejected a link request.

    Carries the participant and the machine-readable reason:
    ``"acl"`` — requester not on the access-control list, or
    ``"interference"`` — a concurrent session would interfere (the two
    rejection causes the paper enumerates), or
    ``"capability:<verb>"`` — the initiating principal lacks a registry
    grant for ``<verb>`` on an owned member (see :mod:`repro.registry`).
    """

    def __init__(self, message: str, *, participant: object = None,
                 reason: str = "") -> None:
        super().__init__(message)
        self.participant = participant
        self.reason = reason


class InterferenceError(SessionError):
    """Two sessions with conflicting state regions were scheduled together."""


class RpcError(ReproError):
    """A remote invocation failed at the callee; carries the remote
    reason, and the attributes its class names in ``rpc_fields``."""

    def __init__(self, message: str, *, remote_type: str = "",
                 remote_message: str = "",
                 remote_fields: dict | None = None) -> None:
        super().__init__(message)
        self.remote_type = remote_type
        self.remote_message = remote_message
        self.remote_fields = dict(remote_fields or {})


class RpcTimeout(RpcError):
    """A synchronous remote call did not return within its timeout."""


class TokenError(ReproError):
    """An invalid token operation (e.g. releasing tokens not held)."""


class DeadlockDetected(TokenError):
    """The token managers detected a deadlock among blocked requests.

    ``cycle`` names each dapplet on the detected wait-for cycle exactly
    once, in wait-for order: the victim (the requester this exception is
    raised in, the youngest waiter on the cycle) first, the dapplet that
    waits for the victim last. A request naming an unknown colour is not
    a deadlock: it fails with a plain :class:`TokenError`.
    """

    rpc_fields = ("cycle",)

    def __init__(self, message: str, *, cycle: tuple[str, ...] = ()) -> None:
        super().__init__(message)
        self.cycle = tuple(cycle)


class DiscoveryError(ReproError):
    """A discovery-subsystem configuration or protocol error."""


class LeaseExpired(DiscoveryError):
    """Resolution failed because the name has no live lease.

    Raised by :meth:`repro.discovery.Resolver.resolve` when a replica
    answers authoritatively that the name is unknown, expired, or
    unregistered. ``name`` is the name that failed to resolve.
    """

    def __init__(self, message: str, *, name: str = "") -> None:
        super().__init__(message)
        self.name = name


class LeaseDenied(ReproError):
    """A lease replica refused a claim or renewal.

    Raised inside a replica's exported facet, so callers see an
    :class:`RpcError` with ``remote_type == "LeaseDenied"``; the message
    is the reason: ``"name-taken"`` (a live lease at another address),
    ``"stale-epoch"`` (the renewal's epoch was superseded),
    ``"unknown"`` (no such row) or ``"expired"`` (the lease ran past
    its TTL before this renewal). The owning agent re-claims on any
    denial.
    """


class RegistryError(ReproError):
    """A registry-subsystem configuration or protocol error."""


class CapabilityDenied(RegistryError):
    """A capability check refused the requested action.

    ``principal`` is the requester, ``verb`` the denied verb (e.g.
    ``"rpc.call:read"`` or ``"token.request:gold"``), ``target`` the
    dapplet or resource the verb was checked against. The same denial
    surfaces as ``SessionRejected(reason="capability:<verb>")`` on the
    session path and as a ``PermissionError``-typed
    :class:`RpcError` on the RPC path; token requests raise this
    directly.
    """

    rpc_fields = ("principal", "verb", "target")

    def __init__(self, message: str, *, principal: str = "",
                 verb: str = "", target: str = "") -> None:
        super().__init__(message)
        self.principal = principal
        self.verb = verb
        self.target = target


class ClockError(ReproError):
    """A logical-clock or snapshot protocol error."""


class SynchronizationError(ReproError):
    """An intra- or inter-dapplet synchronization construct was misused."""


class SingleAssignmentError(SynchronizationError):
    """A single-assignment variable was written more than once."""
