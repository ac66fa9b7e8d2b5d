"""The agent side of the token-manager network.

"A network of token-manager objects manages tokens shared by all the
dapplets in a session. A token is either held by a dapplet or by the
network of token managers."

A :class:`TokenAgent` runs on each participating dapplet, tracking the
paper's ``holdsTokens`` locally, and calls one manager of the network —
a :class:`~repro.services.tokens.shard.TokenShard` on a ring of any
size, one (:class:`~repro.services.tokens.TokenCoordinator`) or many —
through the manager's exported facet (:mod:`repro.rpc`), so the service
works across the simulated WAN like any dapplet. Tokens another agent
transfers to this one arrive as one-way calls on the agent's own small
facet, exported on :data:`AGENT_INBOX`.

Deadlock handling follows the paper exactly: sharing "avoids deadlock if
dapplets release all resources before next requesting resources"
(two-phase use — nothing to detect), "and detect[s] deadlock if it does
occur (if a dapplet holds on to some resources and then requests more)";
the detected request fails with :class:`~repro.errors.DeadlockDetected`.

Each manager grants from a
:class:`~repro.services.tokens.ledger.WaitQueue` under its grant policy,
``"fifo"`` or ``"timestamp"`` (the paper's §4.2 rule).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

from repro.errors import CapabilityDenied, DeadlockDetected, TokenError
from repro.net.address import InboxAddress
from repro.rpc import RemoteProxy, export
from repro.services.tokens.ledger import ALL
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.dapplet.dapplet import Dapplet
    from repro.rpc.messages import Invoke

#: Well-known inbox name of an agent's notice facet on its dapplet.
AGENT_INBOX = "_tokagent"

#: The failures a manager raises, rebuilt at the agent with their fields.
_TYPED = {cls.__name__: cls
          for cls in (DeadlockDetected, CapabilityDenied, TokenError)}


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
    :meth:`release`, and :meth:`total_tokens` (an event). A dapplet runs
    at most one agent: its notice facet has a well-known name.
    """

    def __init__(self, dapplet: "Dapplet", coordinator: InboxAddress) -> None:
        self.dapplet = dapplet
        self.kernel = dapplet.kernel
        self.name = dapplet.name
        self.holds: dict[str, int] = {}
        self.transfers_received: list[tuple[str, dict[str, int]]] = []
        self._manager = RemoteProxy(dapplet, coordinator)
        export(dapplet, _Notices(self), name=AGENT_INBOX)

    def request(self, tokens: dict) -> Event:
        """Block until the requested tokens are granted.

        Yields the granted ``{color: count}`` map (with ``"all"``
        resolved). Fails with :class:`DeadlockDetected` if the managers
        detect a deadlock involving this request, with
        :class:`~repro.errors.CapabilityDenied` if the owning principal
        lacks a ``token.request:<color>`` grant or would exceed its
        quota (see :mod:`repro.registry`), or with :class:`TokenError`
        if a colour is unknown to the managers.
        """
        call = self._manager.call("request", self.name,
                                  _validate_tokens(tokens),
                                  self.dapplet.clock.time)
        granted = self.kernel.event()
        call.callbacks.append(partial(self._settle, granted))
        return granted

    def _settle(self, granted: Event, call: Event) -> None:
        """Credit a grant, or fail ``granted`` with the typed error."""
        call.defused = True
        if call.ok:
            self._credit(call.value)
            granted.succeed(call.value)
            return
        error = call.value
        typed = _TYPED.get(error.remote_type)
        granted.fail(error if typed is None else
                     typed(error.remote_message, **error.remote_fields))

    def release(self, tokens: dict) -> None:
        """Return tokens to the managers; raises if not held."""
        self._manager.invoke("release", self.name,
                             self._debit(tokens, "release"))

    def transfer(self, to_agent: str, tokens: dict) -> None:
        """Hand held tokens directly to another dapplet's agent.

        (The paper: tokens "are communicated and shared among the
        processes of a system".)
        """
        self._manager.invoke("transfer", self.name, to_agent,
                             self._debit(tokens, "transfer"))

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
        return self._manager.call("totals", self.name)

    def _credit(self, tokens: dict[str, int]) -> None:
        for color, n in tokens.items():
            self.holds[color] = self.holds.get(color, 0) + n


class _Notices:
    """What an agent exports on :data:`AGENT_INBOX`: the one-way notice,
    from its home manager, of tokens another agent transferred to it.
    It gates no caller (``authorizes_callers``, checking nothing)."""

    authorizes_callers = True

    def __init__(self, agent: TokenAgent) -> None:
        self._agent = agent

    def transferred(self, caller: "Invoke", from_agent: str,
                    tokens: dict) -> None:
        self._agent._credit(tokens)
        self._agent.transfers_received.append((from_agent, dict(tokens)))
