"""The capability registry: grant storage, cached checks, audit trail.

One :class:`Registry` per world holds every capability grant and
answers the single question every enforcement point asks::

    registry.check(principal, target, verb, owner=..., node=...)

The check is **cached**: grant evaluation walks the principal's grant
list once, then the ``(principal, target, verb, owner)`` decision is a
dictionary hit until the next :meth:`grant` or :meth:`revoke` clears
the cache — so the session-establish and RPC hot paths stay O(1) and a
revocation takes effect on the very next check.

Every decision — allow or deny, cached or not — emits a ``reg`` audit
trace event carrying the principal, verb, target and the check latency
(``clat``, folded into the ``reg.check`` histogram). On the simulated
substrate the latency is exactly ``0.0`` (virtual time does not advance
inside synchronous code), so audited traces stay byte-deterministic;
on asyncio it is the real wall-clock cost.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.errors import RegistryError
from repro.obs.metrics import Counters
from repro.registry.principal import Capability, Principal, verb_matches

#: The resource name token-quota verbs are checked against (the token
#: service is a shared facility, not an owned dapplet).
TOKEN_RESOURCE = "tokens"


class RegistryStats(Counters):
    """Monotonic counters over one registry's lifetime."""

    layer = "registry"
    __slots__ = ("allows", "denies", "cache_hits", "cache_misses", "grants",
                 "revokes")


class Registry:
    """Grant store + cached capability checks for one world."""

    def __init__(self, substrate: Any = None) -> None:
        self._substrate = substrate
        self._principals: dict[str, Principal] = {}
        self._grants: dict[str, list[Capability]] = {}
        #: (principal, target, verb, owner) -> decision; cleared on any
        #: grant/revoke so revocation is visible on the next check.
        self._cache: dict[tuple, bool] = {}
        #: Bumped on every grant/revoke (diagnostics; the cache clear is
        #: what actually invalidates decisions).
        self.epoch = 0
        self.stats = RegistryStats()

    # -- principals ------------------------------------------------------

    def principal(self, name: str, org: str = "") -> Principal:
        """The registered principal ``name`` (created on first use).

        Re-requesting an existing principal with a different ``org`` is
        an error — namespaces are part of the identity.
        """
        existing = self._principals.get(name)
        if existing is not None:
            if org and existing.org != org:
                raise RegistryError(
                    f"principal {name!r} already registered under org "
                    f"{existing.org!r}, not {org!r}")
            return existing
        principal = Principal(name, org)
        self._principals[name] = principal
        return principal

    def principals(self) -> tuple[Principal, ...]:
        return tuple(self._principals[n] for n in sorted(self._principals))

    # -- grants ----------------------------------------------------------

    def grant(self, principal: "Principal | str", dapplet_pattern: str,
              verbs: Iterable[str], *, quota: int | None = None) -> Capability:
        """Record a capability; returns the stored :class:`Capability`."""
        cap = Capability(str(principal), dapplet_pattern, tuple(verbs),
                         quota=quota)
        if not cap.verbs:
            raise RegistryError("a capability grant needs >= 1 verb")
        self._grants.setdefault(cap.principal, []).append(cap)
        self._invalidate()
        self.stats.grants += 1
        self._audit("grant", cap.principal, cap.dapplet_pattern,
                    ",".join(cap.verbs))
        return cap

    def revoke(self, principal: "Principal | str", *,
               dapplet_pattern: str | None = None,
               verb: str | None = None) -> int:
        """Delete grants of ``principal``; returns how many were dropped.

        With no filters every grant goes; ``dapplet_pattern`` keeps only
        grants on other patterns; ``verb`` drops grants covering that
        verb (pattern-matched, so revoking ``rpc.call:read`` removes an
        ``rpc.call:*`` grant too).
        """
        held = self._grants.get(str(principal), [])
        kept = [cap for cap in held
                if (dapplet_pattern is not None
                    and cap.dapplet_pattern != dapplet_pattern)
                or (verb is not None
                    and not any(verb_matches(g, verb) for g in cap.verbs))]
        if dapplet_pattern is None and verb is None:
            kept = []
        dropped = len(held) - len(kept)
        if dropped:
            self._grants[str(principal)] = kept
            self._invalidate()
            self.stats.revokes += dropped
            self._audit("revoke", str(principal),
                        dapplet_pattern or "*", verb or "*", dropped=dropped)
        return dropped

    def grants_for(self, principal: "Principal | str") -> tuple[Capability, ...]:
        return tuple(self._grants.get(str(principal), ()))

    # -- the enforcement-point query -------------------------------------

    def check(self, principal: str, target: str, verb: str, *,
              owner: str | None = None, node: Any = None) -> bool:
        """Whether ``principal`` may perform ``verb`` on ``target``.

        ``owner`` is the target's owning principal (owners always pass
        their own dapplets); ``node`` attributes the audit event to the
        enforcing dapplet's address. Decisions are cached until the next
        grant/revoke; every call emits a ``reg`` allow/deny audit event.
        """
        t0 = self._now()
        key = (principal, target, verb, owner)
        allowed = self._cache.get(key)
        if allowed is None:
            self.stats.cache_misses += 1
            allowed = self._evaluate(principal, target, verb, owner)
            self._cache[key] = allowed
            hit = 0
        else:
            self.stats.cache_hits += 1
            hit = 1
        if allowed:
            self.stats.allows += 1
        else:
            self.stats.denies += 1
        tracer = getattr(self._substrate, "tracer", None)
        if tracer is not None:
            tracer.emit("reg", "allow" if allowed else "deny", node=node,
                        principal=principal, verb=verb, target=target,
                        hit=hit, clat=self._now() - t0)
        return allowed

    def quota_for(self, principal: str, target: str, verb: str) -> int | None:
        """The token quota granted for ``verb`` on ``target``.

        The most permissive (largest) quota among matching grants wins;
        ``None`` means no matching grant bounds it (unlimited — but
        :meth:`check` still gates whether any request is allowed at all).
        """
        quotas = [cap.quota for cap in self._grants.get(principal, ())
                  if cap.quota is not None and cap.matches(target, verb)]
        return max(quotas) if quotas else None

    def _evaluate(self, principal: str, target: str, verb: str,
                  owner: str | None) -> bool:
        if owner is not None and principal == owner:
            return True
        return any(cap.matches(target, verb)
                   for cap in self._grants.get(principal, ()))

    # -- plumbing --------------------------------------------------------

    def _invalidate(self) -> None:
        self._cache.clear()
        self.epoch += 1

    def _now(self) -> float:
        return self._substrate.now if self._substrate is not None else 0.0

    def _audit(self, event: str, principal: str, pattern: str, verb: str,
               **fields: Any) -> None:
        tracer = getattr(self._substrate, "tracer", None)
        if tracer is not None:
            tracer.emit("reg", event, principal=principal, target=pattern,
                        verb=verb, **fields)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grants = sum(len(v) for v in self._grants.values())
        return (f"<Registry principals={len(self._principals)} "
                f"grants={grants} epoch={self.epoch}>")
