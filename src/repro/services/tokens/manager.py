"""The agent side of the token-manager network.

"A network of token-manager objects manages tokens shared by all the
dapplets in a session. A token is either held by a dapplet or by the
network of token managers."

A :class:`TokenAgent` runs on each participating dapplet, tracking the
paper's ``holdsTokens`` locally, and talks to one manager of the
network — a :class:`~repro.services.tokens.shard.TokenShard` on a ring
of any size, one (:class:`~repro.services.tokens.TokenCoordinator`) or
many — over ordinary channels, so the service works across the
simulated WAN like any dapplet. This module also holds what both sides
agree on: the :data:`ALL` sentinel, the grant :data:`POLICIES` and
token-list validation.

Deadlock handling follows the paper exactly: sharing "avoids deadlock if
dapplets release all resources before next requesting resources"
(two-phase use — nothing to detect), "and detect[s] deadlock if it does
occur (if a dapplet holds on to some resources and then requests more)";
the detected request fails with :class:`~repro.errors.DeadlockDetected`.

Grant policies (applied by each manager to its own wait queue):

* ``"fifo"`` (default) — scan blocked requests in arrival order and
  grant every one that is now satisfiable. Simple, but a stream of
  small requests can starve a large one.
* ``"timestamp"`` — grant strictly in (timestamp, agent-id) order, the
  paper's §4.2 conflict-resolution rule: "Conflicts between two or more
  requests for a common indivisible resource are resolved in favor of
  the request with the earlier timestamp. Ties are broken in favor of
  the process with the lower id." No starvation if holders release in
  finite time; experiment E11 measures the fairness difference.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from repro.errors import CapabilityDenied, DeadlockDetected, TokenError
from repro.net.address import InboxAddress
from repro.services.tokens import messages as tm
from repro.services.tokens.ledger import ALL
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.dapplet.dapplet import Dapplet

POLICIES = ("fifo", "timestamp")


def _validate_tokens(tokens: dict) -> dict:
    if not tokens:
        raise TokenError("token list must name at least one colour")
    for color, n in tokens.items():
        if n == ALL:
            continue
        if not isinstance(n, int) or isinstance(n, bool) or n <= 0:
            raise TokenError(
                f"count for colour {color!r} must be a positive int or "
                f"'all', got {n!r}")
    return dict(tokens)


class TokenAgent:
    """The per-dapplet token manager.

    ``holds`` is the paper's ``holdsTokens`` data member. The paper's
    three operations map to :meth:`request` (an event to yield on),
    :meth:`release`, and :meth:`total_tokens` (an event).
    """

    def __init__(self, dapplet: "Dapplet", coordinator: InboxAddress) -> None:
        self.dapplet = dapplet
        self.kernel = dapplet.kernel
        self.name = dapplet.name
        self.holds: dict[str, int] = {}
        self._req_ids = itertools.count(1)
        self._pending: dict[int, Event] = {}
        self.coordinator = coordinator
        self.inbox = dapplet.create_inbox()
        self.transfers_received: list[tuple[str, dict[str, int]]] = []
        self.dispatcher = dapplet.spawn(self._dispatch(), name="token-agent")

    def request(self, tokens: dict) -> Event:
        """Block until the requested tokens are granted.

        Yields the granted ``{color: count}`` map (with ``"all"``
        resolved). Fails with :class:`DeadlockDetected` if the managers
        detect a deadlock involving this request, or with
        :class:`~repro.errors.CapabilityDenied` if the owning principal
        lacks a ``token.request:<color>`` grant or would exceed its
        quota (see :mod:`repro.registry`).
        """
        tokens = _validate_tokens(tokens)
        req_id = next(self._req_ids)
        event = self.kernel.event()
        self._pending[req_id] = event
        self.dapplet.post(self.coordinator, tm.Request(
            req_id=req_id, agent=self.name, tokens=tokens,
            reply_to=self.inbox.address, timestamp=self._timestamp(),
            principal=self.dapplet.principal))
        return event

    def release(self, tokens: dict) -> None:
        """Return tokens to the managers; raises if not held."""
        self.dapplet.post(self.coordinator, tm.Release(
            agent=self.name, tokens=self._debit(tokens, "release")))

    def transfer(self, to_agent: str, tokens: dict) -> None:
        """Hand held tokens directly to another dapplet's agent.

        (The paper: tokens "are communicated and shared among the
        processes of a system".)
        """
        self.dapplet.post(self.coordinator, tm.Transfer(
            agent=self.name, to_agent=to_agent,
            tokens=self._debit(tokens, "transfer")))

    def _debit(self, tokens: dict, verb: str) -> dict[str, int]:
        """Take ``tokens`` out of ``holds`` (``"all"`` = all held) and
        return the concrete counts; raises, changing nothing, if any
        colour is short."""
        resolved: dict[str, int] = {}
        for color, n in _validate_tokens(tokens).items():
            have = self.holds.get(color, 0)
            count = have if n == ALL else n
            if count > have:
                raise TokenError(
                    f"dapplet {self.name!r} holds {have} {color!r} tokens, "
                    f"cannot {verb} {count}")
            resolved[color] = count
        for color, count in resolved.items():
            if count == 0:
                continue
            self.holds[color] -= count
            if self.holds[color] == 0:
                del self.holds[color]
        return resolved

    def total_tokens(self) -> Event:
        """The paper's ``totalTokens()``: yields ``{color: total}``."""
        req_id = next(self._req_ids)
        event = self.kernel.event()
        self._pending[req_id] = event
        self.dapplet.post(self.coordinator, tm.TotalsQuery(
            req_id=req_id, agent=self.name, reply_to=self.inbox.address))
        return event

    def _timestamp(self) -> int:
        clock = getattr(self.dapplet, "clock", None)
        return clock.time if clock is not None else 0

    def _dispatch(self):
        while True:
            msg = yield self.inbox.receive()
            if isinstance(msg, tm.Grant):
                waiter = self._pending.pop(msg.req_id, None)
                for color, n in msg.tokens.items():
                    self.holds[color] = self.holds.get(color, 0) + n
                if waiter is not None:
                    waiter.succeed(dict(msg.tokens))
            elif isinstance(msg, tm.DeadlockNotice):
                waiter = self._pending.pop(msg.req_id, None)
                if waiter is not None:
                    waiter.fail(DeadlockDetected(
                        f"token request of {self.name!r} is deadlocked "
                        f"(cycle: {' -> '.join(msg.cycle) or 'unknown colour'})",
                        cycle=msg.cycle))
            elif isinstance(msg, tm.Denied):
                waiter = self._pending.pop(msg.req_id, None)
                if waiter is not None:
                    waiter.fail(CapabilityDenied(
                        f"token request of {self.name!r} denied: "
                        f"{msg.reason}",
                        principal=self.dapplet.principal,
                        verb=msg.reason.removeprefix("capability:"),
                        target="tokens"))
            elif isinstance(msg, tm.TransferNotice):
                for color, n in msg.tokens.items():
                    self.holds[color] = self.holds.get(color, 0) + n
                self.transfers_received.append((msg.from_agent,
                                                dict(msg.tokens)))
            elif isinstance(msg, tm.Totals):
                waiter = self._pending.pop(msg.req_id, None)
                if waiter is not None:
                    waiter.succeed(dict(msg.totals))
