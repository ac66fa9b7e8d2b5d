"""The object <-> wire-string codec.

JSON, with tagged objects for the types that are not JSON-native:

* ``{"$node": "host:port"}`` — :class:`NodeAddress`
* ``{"$inbox": "host:port/ref"}`` — :class:`InboxAddress`
* ``{"$msg": [name, fields]}`` — a nested :class:`Message`
* ``{"$tuple": [...]}`` — a tuple (distinguished from list so
  hashable payloads survive the round trip)
* ``{"$bytes": "..."}`` — ``bytes`` (base64; ``bytearray`` and
  ``memoryview`` are accepted and come back as ``bytes``)

The top level is ``{"t": name, "f": fields}``. The value codec is also
exposed as :func:`encode_value`/:func:`decode_value` for layers that
persist application values rather than ship them — the durable state
journal (:mod:`repro.store`) uses it so anything a region can hold on
the wire can also be replayed from disk, and anything it cannot hold
fails *typed* (:class:`~repro.errors.SerializationError`) instead of
corrupting a log.

A default is part of the type, so a field holding its dataclass default
stays off the wire: same exact type and ``==`` (a ``default_factory``
compared with one instance built per class), and, for a default whose
``==`` is coarser than its wire form (a float, a non-empty container, a
message), the same wire text. The receiver's ``cls(**fields)`` fills it
back in, so a string that carries every field — an older frame, journal
or snapshot — still decodes to the same message. A class that overrides
``to_fields`` writes exactly what it returns.

One pass each way. :func:`dumps` writes the wire string straight into
one list of fragments from a plan built once per message class (its
constant key fragments and one field emitter), dispatching each value on
its exact type. Strings go through json's own escaper and numbers follow
json's ``repr`` / ``NaN`` / ``Infinity`` rules, so the bytes are those
of ``json.dumps(tree, separators=(",", ":"))`` on the tagged tree. A
subclass of a wire type (an ``IntEnum``, a namedtuple) is matched in the
fixed order of :data:`_LADDER`. :func:`loads` decodes inside json's
scanner: its ``object_hook`` turns each tagged object — a ``$`` key as
the sole key of its object — into its value as the scanner closes it,
children first. Input that is not the wire form of a registered message
raises :class:`~repro.errors.SerializationError`, the cause chained.
"""

from __future__ import annotations

import base64
import dataclasses
import json
from dataclasses import MISSING
from functools import partial
from math import isfinite
from typing import Any, Callable

from repro.errors import AddressError, SerializationError
from repro.messages.message import Message, field_names, lookup
from repro.net.address import InboxAddress, NodeAddress

Append = Callable[[str], None]
Emitter = Callable[[Any, Append], None]

#: json's string escaper (its C version when available).
_escape = json.encoder.encode_basestring_ascii


# -- encoding -----------------------------------------------------------------


def _float_text(value: float) -> str:
    if isfinite(value):
        return float.__repr__(value)
    return "NaN" if value != value else \
        "Infinity" if value > 0 else "-Infinity"


#: Exact scalar type -> its JSON text, as :class:`json.JSONEncoder`
#: writes it. These values are also their own :func:`encode_value` form.
_SCALARS: dict[type, Callable[[Any], str]] = {
    str: _escape,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _emit(value: Any, append: Append) -> None:
    text = _SCALARS.get(type(value))
    if text is not None:
        append(text(value))
    else:
        _EMITTERS.get(type(value), _emit_subclass)(value, append)


def _emit_node(value: NodeAddress, append: Append) -> None:
    append('{"$node":' + _escape(str(value)) + "}")


def _emit_inbox(value: InboxAddress, append: Append) -> None:
    append('{"$inbox":' + _escape(str(value)) + "}")


def _emit_bytes(value: Any, append: Append) -> None:
    append('{"$bytes":"' + base64.b64encode(bytes(value)).decode("ascii")
           + '"}')


def _emit_list(value: Any, append: Append) -> None:
    sep = "["
    for item in value:
        append(sep)
        sep = ","
        _emit(item, append)
    append("[]" if sep == "[" else "]")


def _emit_tuple(value: tuple, append: Append) -> None:
    append('{"$tuple":')
    _emit_list(value, append)
    append("}")


def _emit_members(mapping: dict, append: Append) -> None:
    """``"key":value`` pairs, comma-separated, keys checked."""
    sep = ""
    for key, item in mapping.items():
        if not isinstance(key, str):
            raise SerializationError(
                f"dict keys on the wire must be strings, got {key!r}")
        if key.startswith("$"):
            raise SerializationError(
                f"dict keys may not start with '$' (reserved): {key!r}")
        append(sep + _escape(key) + ":")
        sep = ","
        _emit(item, append)


def _emit_dict(value: dict, append: Append) -> None:
    append("{")
    _emit_members(value, append)
    append("}")


def _emit_message(value: Message, append: Append) -> None:
    _plan(type(value))[2](value, append)


#: Exact type -> emitter. Each message class joins on first use.
_EMITTERS: dict[type, Emitter] = {
    NodeAddress: _emit_node,
    InboxAddress: _emit_inbox,
    tuple: _emit_tuple,
    bytes: _emit_bytes,
    bytearray: _emit_bytes,
    memoryview: _emit_bytes,
    list: _emit_list,
    dict: _emit_dict,
    Message: _emit_message,
}

#: The order a type not in the tables is matched in; the matched type's
#: entry in :data:`_SCALARS` or :data:`_EMITTERS` writes it.
_LADDER: tuple[type, ...] = (
    int, float, str, NodeAddress, InboxAddress, Message, tuple,
    bytes, bytearray, memoryview, list, dict,
)


def _emit_subclass(value: Any, append: Append) -> None:
    for base in _LADDER:
        if isinstance(value, base):
            text = _SCALARS.get(base)
            if text is not None:
                return append(text(value))
            return _EMITTERS[base](value, append)
    raise SerializationError(
        f"value of type {type(value).__name__} is not wire-encodable: "
        f"{value!r}")


def _text(value: Any) -> str:
    """The wire text of ``value``."""
    out: list[str] = []
    _emit(value, out.append)
    return "".join(out)


def _default(f: dataclasses.Field) -> Any:
    """A field's default, one instance of a ``default_factory``, or
    ``MISSING`` for a field without one."""
    if f.default_factory is not MISSING:
        return f.default_factory()
    return f.default


#: Default types whose ``==`` at the same exact type implies the same
#: wire text; any other default (a float: ``-0.0 == 0.0``; a non-empty
#: container: ``[False] == [0]``) is also compared by its text.
_EXACT = frozenset({str, int, bool, type(None), bytes})
_EMPTY = frozenset({tuple, list, dict})

#: Registered message class -> (top-level head, fields emitter, nested
#: emitter). Unregistered classes (legal only nested) are planned per use.
_PLANS: dict[type, tuple[str, Emitter, Emitter]] = {}


def _plan(cls: type[Message]) -> tuple[str, Emitter, Emitter]:
    plan = _PLANS.get(cls)
    if plan is not None:
        return plan
    if cls.to_fields is Message.to_fields:
        names = field_names(cls)
        defaults = [_default(f) for f in dataclasses.fields(cls)]
        lead = next((i for i, d in enumerate(defaults) if d is not MISSING),
                    len(names))
        pairs = tuple((("," if i else "") + _escape(name) + ":", name)
                      for i, name in enumerate(names[:lead]))
        tail = tuple((_escape(name) + ":", name, default,
                      type(default) in _EXACT or
                      (type(default) in _EMPTY and not default))
                     for name, default in zip(names[lead:], defaults[lead:]))

        if not tail:
            def fields(message: Message, append: Append) -> None:
                for key, name in pairs:
                    append(key)
                    _emit(getattr(message, name), append)
        else:
            first = "," if pairs else ""

            def fields(message: Message, append: Append) -> None:
                for key, name in pairs:
                    append(key)
                    _emit(getattr(message, name), append)
                sep = first
                for key, name, default, exact in tail:
                    value = getattr(message, name)
                    if type(value) is type(default) and value == default \
                            and (exact or _text(value) == _text(default)):
                        continue
                    append(sep + key)
                    sep = ","
                    _emit(value, append)
    else:
        def fields(message: Message, append: Append) -> None:
            _emit_members(message.to_fields(), append)

    name = _escape(cls._wire_name)
    head = '{"$msg":[' + name + ",{"

    def nested(message: Message, append: Append) -> None:
        append(head)
        fields(message, append)
        append("}]}")

    plan = ('{"t":' + name + ',"f":{', fields, nested)
    if cls._wire_name:
        _PLANS[cls] = plan
        _EMITTERS[cls] = nested
    return plan


# -- decoding -----------------------------------------------------------------


def _msg(pair: list) -> Message:
    name, fields = pair
    if type(name) is not str or type(fields) is not dict:
        raise TypeError("expected [name, {fields}]")
    return _instantiate(name, fields)


#: Tag -> (JSON type of its value, decoder).
_TAGS: dict[str, tuple[type, Callable[[Any], Any]]] = {
    "$node": (str, NodeAddress.parse),
    "$inbox": (str, InboxAddress.parse),
    "$tuple": (list, tuple),
    "$bytes": (str, partial(base64.b64decode, validate=True)),
    "$msg": (list, _msg),
}


def _revive(obj: dict) -> Any:
    """The scanner's ``object_hook``: a tagged object becomes its value."""
    if len(obj) == 1:
        for key, value in obj.items():
            tag = _TAGS.get(key)
            if tag is not None and type(value) is tag[0]:
                try:
                    return tag[1](value)
                except (AddressError, TypeError, ValueError) as exc:
                    raise _bad_tag(key, value) from exc
            if key[:1] == "$":
                raise _bad_tag(key, value)
    return obj


def _bad_tag(key: str, value: Any) -> SerializationError:
    return SerializationError(f"malformed {key!r} tag: {value!r:.80}")


def _instantiate(name: str, fields: dict[str, Any]) -> Message:
    cls = lookup(name)
    try:
        return cls.from_fields(fields)
    except Exception as exc:  # a class's own checks, fed outside input
        raise SerializationError(
            f"cannot reconstruct {name!r} from fields {sorted(fields)}: {exc}"
        ) from exc


_decoder = json.JSONDecoder(object_hook=_revive)
_scan = _decoder.scan_once
_scan_plain = json.JSONDecoder().scan_once


def _parse(text: str) -> Any:
    """JSON ``text`` with its tagged objects decoded."""
    try:
        value, end = _scan(text, 0)
    except StopIteration:
        end = -1
    if end != len(text):
        # Whitespace around the value, data after it, or no value at all:
        # the full decoder accepts the first and reports the others.
        value = _decoder.decode(text)
    return value


# -- the API ------------------------------------------------------------------


def encode_value(value: Any) -> Any:
    """``value`` as JSON-dumpable data, tagged forms for the rest.

    Total over the wire-safe domain (None/bool/int/float/str, bytes,
    tuples, lists, string-keyed dicts, addresses, Messages — nested
    arbitrarily); anything else raises
    :class:`~repro.errors.SerializationError` without partial effects.
    """
    if type(value) in _SCALARS:
        return value
    return _scan_plain(_text(value), 0)[0]


def decode_value(data: Any) -> Any:
    """Invert :func:`encode_value` (after a ``json.loads`` round trip):
    the scanner's hook, applied children first."""
    if type(data) is list:
        return [decode_value(item) for item in data]
    if type(data) is dict:
        return _revive({key: decode_value(item)
                        for key, item in data.items()})
    return data


def dumps(message: Message) -> str:
    """Serialize ``message`` to its wire string."""
    plan = _PLANS.get(type(message))
    if plan is None:
        if not isinstance(message, Message):
            raise SerializationError(
                "can only send Message subclasses, got "
                f"{type(message).__name__}")
        if not message.wire_name:
            raise SerializationError(
                f"{type(message).__name__} is not registered; "
                "apply @message_type")
        plan = _plan(type(message))
    out = [plan[0]]
    plan[1](message, out.append)
    out.append("}}")
    return "".join(out)


def loads(wire: str) -> Message:
    """Reconstruct a message from its wire string."""
    try:
        obj = _parse(wire)
        name, fields = obj["t"], obj["f"]
        if type(name) is not str or type(fields) is not dict:
            raise TypeError("expected a string 't' and an object 'f'")
    except (KeyError, RecursionError, TypeError, ValueError) as exc:
        raise SerializationError(
            f"malformed wire string: {wire[:80]!r}") from exc
    return _instantiate(name, fields)
