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

What does not depend on the message is derived once, not per message:
the field names per class (:func:`~repro.messages.message.field_names`)
and the one compact JSON encoder. Values whose type is *exactly* a JSON
scalar are their own wire form and skip the generic walk in both
directions; everything else — containers, tagged forms, subclasses of
the scalar types — takes the one walk below.
"""

from __future__ import annotations

import base64
import json
from typing import Any

from repro.errors import SerializationError
from repro.messages.message import Message, lookup
from repro.net.address import InboxAddress, NodeAddress


#: Exact types that are their own wire form.
_SCALARS = frozenset({type(None), bool, int, float, str})

#: ``json.dumps(..., separators=(",", ":"))`` without a new encoder object
#: per message. It only ever sees the fresh tree ``_encode`` built, which
#: cannot contain a cycle, so the encoder's own cycle check is off.
_to_json = json.JSONEncoder(separators=(",", ":"),
                            check_circular=False).encode


def _encode(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, NodeAddress):
        return {"$node": str(value)}
    if isinstance(value, InboxAddress):
        return {"$inbox": str(value)}
    if isinstance(value, Message):
        return {"$msg": [value.wire_name, _encode_fields(value)]}
    if isinstance(value, tuple):
        return {"$tuple": [_encode(v) for v in value]}
    if isinstance(value, (bytes, bytearray, memoryview)):
        return {"$bytes": base64.b64encode(bytes(value)).decode("ascii")}
    if isinstance(value, list):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            if not isinstance(k, str):
                raise SerializationError(
                    f"dict keys on the wire must be strings, got {k!r}")
            if k.startswith("$"):
                raise SerializationError(
                    f"dict keys may not start with '$' (reserved): {k!r}")
            out[k] = _encode(v)
        return out
    raise SerializationError(
        f"value of type {type(value).__name__} is not wire-encodable: {value!r}")


def _decode(value: Any) -> Any:
    if isinstance(value, list):
        return [_decode(v) for v in value]
    if isinstance(value, dict):
        if "$node" in value:
            return NodeAddress.parse(value["$node"])
        if "$inbox" in value:
            return InboxAddress.parse(value["$inbox"])
        if "$tuple" in value:
            return tuple(_decode(v) for v in value["$tuple"])
        if "$bytes" in value:
            return base64.b64decode(value["$bytes"])
        if "$msg" in value:
            name, fields = value["$msg"]
            return _instantiate(name, fields)
        return {k: _decode(v) for k, v in value.items()}
    return value


def _encode_fields(message: Message) -> dict[str, Any]:
    return {k: v if type(v) in _SCALARS else _encode(v)
            for k, v in message.to_fields().items()}


def _instantiate(name: str, fields: dict[str, Any]) -> Message:
    cls = lookup(name)
    try:
        return cls.from_fields({k: v if type(v) in _SCALARS else _decode(v)
                                for k, v in fields.items()})
    except TypeError as exc:
        raise SerializationError(
            f"cannot reconstruct {name!r} from fields {sorted(fields)}: {exc}"
        ) from exc


def encode_value(value: Any) -> Any:
    """``value`` as JSON-dumpable data, tagged forms for the rest.

    Total over the wire-safe domain (None/bool/int/float/str, bytes,
    tuples, lists, string-keyed dicts, addresses, Messages — nested
    arbitrarily); anything else raises
    :class:`~repro.errors.SerializationError` without partial effects.
    """
    return value if type(value) in _SCALARS else _encode(value)


def decode_value(data: Any) -> Any:
    """Invert :func:`encode_value` (after a ``json.loads`` round trip)."""
    return data if type(data) in _SCALARS else _decode(data)


def dumps(message: Message) -> str:
    """Serialize ``message`` to its wire string."""
    if not isinstance(message, Message):
        raise SerializationError(
            f"can only send Message subclasses, got {type(message).__name__}")
    if not message.wire_name:
        raise SerializationError(
            f"{type(message).__name__} is not registered; apply @message_type")
    return _to_json({"t": message.wire_name, "f": _encode_fields(message)})


def loads(wire: str) -> Message:
    """Reconstruct a message from its wire string."""
    try:
        obj = json.loads(wire)
        name, fields = obj["t"], obj["f"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise SerializationError(f"malformed wire string: {wire[:80]!r}") from exc
    return _instantiate(name, fields)
