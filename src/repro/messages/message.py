"""The ``Message`` base class and its type registry.

A message type is a frozen dataclass decorated with
:func:`message_type`, which registers it under a wire name so the
receiving side can reconstruct "an instance of the sending object":

    >>> @message_type("calendar.propose")
    ... @dataclass(frozen=True)
    ... class Propose(Message):
    ...     slot: int
    ...     proposer: str

Field values must be wire-encodable: ``None``, ``bool``, ``int``,
``float``, ``str``, addresses (:class:`NodeAddress`,
:class:`InboxAddress`), nested messages, and lists/tuples/dicts of
those (dict keys must be strings). Tuples are normalized to tuples on
decode for hashability.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, TypeVar

from repro.errors import SerializationError

_REGISTRY: dict[str, type["Message"]] = {}

M = TypeVar("M", bound="Message")


class Message:
    """Base class of everything that travels between dapplets.

    Subclasses must be dataclasses registered with
    :func:`message_type`. The base class carries no fields; identity on
    the wire comes entirely from the registered type name plus the
    dataclass fields.
    """

    #: Wire name, set by :func:`message_type`.
    _wire_name: str = ""

    def to_fields(self) -> dict[str, Any]:
        """Shallow mapping of field name to (not yet encoded) value."""
        return {name: getattr(self, name)
                for name in field_names(type(self))}

    @classmethod
    def from_fields(cls: type[M], fields: dict[str, Any]) -> M:
        """Reconstruct an instance from decoded field values."""
        return cls(**fields)

    @property
    def wire_name(self) -> str:
        return self._wire_name


def field_names(cls: type[Message]) -> tuple[str, ...]:
    """The dataclass field names of ``cls``, derived once per class.

    Kept in the class's own ``__dict__`` (at :func:`message_type` time,
    else on first use), never inherited: a subclass that adds fields
    derives its own.
    """
    names = cls.__dict__.get("_field_names")
    if names is None:
        if not dataclasses.is_dataclass(cls):
            raise SerializationError(
                f"{cls.__name__} is not a dataclass message")
        names = tuple(f.name for f in dataclasses.fields(cls))
        cls._field_names = names
    return names


def message_type(name: str) -> Callable[[type[M]], type[M]]:
    """Class decorator registering a :class:`Message` dataclass.

    Names are global to the process; a collision (two different classes
    claiming one name) is an error, but re-registering the same class —
    which happens under test re-imports — is tolerated.
    """

    def register(cls: type[M]) -> type[M]:
        if not (isinstance(cls, type) and issubclass(cls, Message)):
            raise TypeError(f"{cls!r} must subclass Message")
        if not dataclasses.is_dataclass(cls):
            raise TypeError(
                f"{cls.__name__} must be a dataclass (apply @dataclass "
                "below @message_type)")
        existing = _REGISTRY.get(name)
        if existing is not None and (existing.__module__, existing.__qualname__) \
                != (cls.__module__, cls.__qualname__):
            raise SerializationError(
                f"message type name {name!r} already registered "
                f"by {existing.__qualname__}")
        cls._wire_name = name
        field_names(cls)
        _REGISTRY[name] = cls
        return cls

    return register


def lookup(name: str) -> type[Message]:
    """The class registered under ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SerializationError(f"unknown message type {name!r}") from None


def registered_types() -> dict[str, type[Message]]:
    """A copy of the registry (for introspection and docs)."""
    return dict(_REGISTRY)
