"""The planned codec against the generic walk it replaced.

``dumps``/``loads`` derive the field names once per class, share one
compact JSON encoder and let exact-type scalars skip the value walk.
None of that may move a byte: the wire string is the paper's API
("serialized to strings, reconstructed by type", §3). The reference here
is the old codec verbatim — ``dataclasses.fields`` per message,
``json.dumps(..., separators=...)`` per message, every value through the
``isinstance`` ladder — kept *in the test* as the oracle, taught the
one rule the codec added since: a field holding its default stays off
the wire. Its ``full=True`` form is the string written before that rule,
which must still decode.
"""

import base64
import dataclasses
import importlib
import json
import pkgutil
from dataclasses import MISSING, dataclass
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.errors import SerializationError
from repro.messages import (Blob, Message, Text, decode_value, dumps,
                            encode_value, loads, message_type,
                            registered_types)
from repro.messages.message import lookup
from repro.net import InboxAddress, NodeAddress
from tests.messages.test_serialize_properties import Payload, wire_values

# Every module that registers a message type.
for _module in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(_module.name)


# -- the oracle: the generic walk, as it was ----------------------------------


def oracle_encode(value: Any, full: bool = False) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, NodeAddress):
        return {"$node": str(value)}
    if isinstance(value, InboxAddress):
        return {"$inbox": str(value)}
    if isinstance(value, Message):
        return {"$msg": [value.wire_name, oracle_fields(value, full)]}
    if isinstance(value, tuple):
        return {"$tuple": [oracle_encode(v, full) for v in value]}
    if isinstance(value, (bytes, bytearray, memoryview)):
        return {"$bytes": base64.b64encode(bytes(value)).decode("ascii")}
    if isinstance(value, list):
        return [oracle_encode(v, full) for v in value]
    if isinstance(value, dict):
        return {k: oracle_encode(v, full) for k, v in value.items()}
    raise AssertionError(f"outside the grammar: {value!r}")


def oracle_default(f: dataclasses.Field) -> Any:
    if f.default_factory is not MISSING:
        return f.default_factory()
    return f.default


def oracle_fields(message: Message, full: bool = False) -> dict:
    """Each field's encoded value, leaving out (unless ``full``) every
    field whose value has its default's exact type, ``==`` and JSON."""
    out = {}
    for f in dataclasses.fields(message):
        value, default = getattr(message, f.name), oracle_default(f)
        encoded = oracle_encode(value, full)
        if not full and type(value) is type(default) and value == default \
                and json.dumps(encoded) == json.dumps(oracle_encode(default)):
            continue
        out[f.name] = encoded
    return out


def oracle_decode(value: Any) -> Any:
    if isinstance(value, list):
        return [oracle_decode(v) for v in value]
    if isinstance(value, dict):
        if "$node" in value:
            return NodeAddress.parse(value["$node"])
        if "$inbox" in value:
            return InboxAddress.parse(value["$inbox"])
        if "$tuple" in value:
            return tuple(oracle_decode(v) for v in value["$tuple"])
        if "$bytes" in value:
            return base64.b64decode(value["$bytes"])
        if "$msg" in value:
            name, fields = value["$msg"]
            return oracle_instantiate(name, fields)
        return {k: oracle_decode(v) for k, v in value.items()}
    return value


def oracle_instantiate(name: str, fields: dict) -> Message:
    return lookup(name)(**{k: oracle_decode(v) for k, v in fields.items()})


def oracle_dumps(message: Message, full: bool = False) -> str:
    return json.dumps({"t": message.wire_name,
                       "f": oracle_fields(message, full)},
                      separators=(",", ":"))


def oracle_loads(wire: str) -> Message:
    obj = json.loads(wire)
    return oracle_instantiate(obj["t"], obj["f"])


# -- strategies ---------------------------------------------------------------

#: The package's own types (not whatever other test modules registered
#: before this one was collected), so the test ids are stable.
TYPES = sorted((name, cls) for name, cls in registered_types().items()
               if cls.__module__.startswith("repro."))

values = st.one_of(wire_values, st.binary(max_size=12),
                   st.builds(Text, st.text(max_size=8)))


@st.composite
def messages(draw):
    """An instance of any registered type, its fields filled from the
    full value grammar (the codec is untyped: annotations are not
    consulted on either side) or, for a field that has one, its
    default."""
    _, cls = draw(st.sampled_from(TYPES))
    fields = {}
    for f in dataclasses.fields(cls):
        default = oracle_default(f)
        fields[f.name] = draw(values if default is MISSING else
                              st.just(default) | values)
    return cls(**fields)


#: One of everything the grammar distinguishes, scalars first.
SAMPLES = (None, True, False, 0, 1, -1, 2**53, 1.0, -0.0, 1e-7, 2.5e300,
           "", "x", 'é"\\ \x00', "$not-a-key",
           NodeAddress("caltech.edu", 2000),
           NodeAddress("caltech.edu", 2000).inbox("in"),
           (), (1, "a", None), [], [True, 1, 1.0, "1"], {},
           {"a": {"b": [(), {"c": None}]}}, b"", b"\x00\xff",
           Text("nested"), Blob({"deep": (Text("er"),)}))


def sweep(cls: type[Message]):
    """Each sample in every field of ``cls``, then the required fields
    alone, the rest left at their defaults."""
    names = [f.name for f in dataclasses.fields(cls)]
    for shift in range(len(SAMPLES)):
        yield cls(**{n: SAMPLES[(shift + i) % len(SAMPLES)]
                     for i, n in enumerate(names)})
    yield cls(**{f.name: SAMPLES[i] for i, f in
                 enumerate(dataclasses.fields(cls))
                 if oracle_default(f) is MISSING})


def check(message: Message) -> None:
    wire = dumps(message)
    assert wire == oracle_dumps(message)
    back = loads(wire)
    assert type(back) is type(message)
    assert back == message == oracle_loads(wire)
    assert dumps(back) == wire


# -- identity with the oracle -------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(messages())
def test_dumps_is_the_oracles_string_for_any_registered_type(message):
    check(message)


@pytest.mark.parametrize("name,cls", TYPES, ids=[n for n, _ in TYPES])
def test_every_registered_type_against_the_oracle(name, cls):
    """Deterministic sweep: each type, every sample in every field."""
    for message in sweep(cls):
        check(message)


@pytest.mark.parametrize("name,cls", TYPES, ids=[n for n, _ in TYPES])
def test_full_field_strings_still_decode(name, cls):
    """A frame, journal or snapshot written before defaults stayed off
    the wire carries every field; it decodes to the same message as the
    shorter string written now."""
    for message in sweep(cls):
        full = oracle_dumps(message, full=True)
        assert len(full) >= len(dumps(message))
        assert loads(full) == loads(dumps(message)) == message


@settings(max_examples=300, deadline=None)
@given(messages())
def test_elision_is_type_exact_for_any_registered_type(message):
    """Every field comes back with its type, and no field that is
    written holds its default at the same type (every registered
    default is a scalar or an empty container, whose ``==`` is exact)."""
    back = loads(dumps(message))
    assert back == message
    fields = dataclasses.fields(message)
    for f in fields:
        assert type(getattr(back, f.name)) is type(getattr(message, f.name))
    written = json.loads(dumps(message))["f"]
    for f in fields:
        if f.name in written:
            value, default = getattr(message, f.name), oracle_default(f)
            assert not (type(value) is type(default) and value == default)


@settings(max_examples=200, deadline=None)
@given(values)
def test_value_codec_is_the_oracles(value):
    """``encode_value``/``decode_value`` (the store's journal codec) ride
    the same fast path: same data out, same value back."""
    data = encode_value(value)
    assert data == oracle_encode(value)
    assert json.dumps(data) == json.dumps(oracle_encode(value))
    assert decode_value(json.loads(json.dumps(data))) == value


def test_bool_is_never_confused_with_int():
    wire = dumps(Payload(value=True, extras={"n": 1, "f": 1.0, "b": False}))
    assert wire == ('{"t":"proptest.payload","f":{"value":true,'
                    '"extras":{"n":1,"f":1.0,"b":false}}}')
    back = loads(wire)
    assert back.value is True
    assert type(back.extras["n"]) is int and type(back.extras["f"]) is float
    assert back.extras["b"] is False
    assert dumps(Payload(value=1)) == '{"t":"proptest.payload","f":' \
        '{"value":1}}'
    assert encode_value(True) is True and decode_value(True) is True

    # A default stays off the wire only at its own exact type.
    assert dumps(Defaults()) == '{"t":"oracle.defaults","f":{"nan":NaN}}'
    odd = Defaults(count=False, ratio=0, items=[], shape=Text(""),
                   nan=float("nan"), inner=Blob())
    wire = dumps(odd)
    assert wire == ('{"t":"oracle.defaults","f":{"count":false,"ratio":0,'
                    '"items":[],"nan":NaN,"inner":{"$msg":["sys.blob",{}]}}}')
    back = loads(wire)
    assert back.count is False and type(back.ratio) is int
    assert back.items == [] and back.inner == Blob() and back.nan != back.nan
    assert dumps(Defaults(count=0.0, ratio=-0.0, items=(0,),
                          shape=Text("s"))) == (
        '{"t":"oracle.defaults","f":{"count":0.0,"ratio":-0.0,'
        '"items":{"$tuple":[0]},"shape":{"$msg":["sys.text",{"text":"s"}]},'
        '"nan":NaN}}')
    # ``(False, 1) == (0, 1)``, but the wire tells them apart.
    assert loads(dumps(Defaults(pair=(False, 1)))).pair[0] is False
    assert dumps(Defaults(pair=(0, 1))) == dumps(Defaults())


@message_type("oracle.defaults")
@dataclass(frozen=True)
class Defaults(Message):
    """One default of each kind the elision rule tells apart."""

    count: int = 0
    ratio: float = 0.0
    items: tuple = ()
    pair: tuple = (0, 1)
    shape: Message = Text("")
    nan: float = float("nan")
    inner: object = None


def test_scalar_subclasses_take_the_generic_walk_to_the_same_string():
    """The fast path is on the exact type; a ``str``/``int`` subclass
    falls through to the walk, which passes it on as before."""
    import enum

    class Colour(enum.IntEnum):
        RED = 3

    class Tag(str):
        pass

    assert dumps(Payload(value=Colour.RED, extras={"t": Tag("x")})) == \
        '{"t":"proptest.payload","f":{"value":3,"extras":{"t":"x"}}}'


# -- failures keep their type and their text ----------------------------------


class Bare(Message):
    """A Message that is neither a dataclass nor registered."""


@dataclass(frozen=True)
class Unregistered(Message):
    x: int = 0


def test_failure_messages_are_unchanged():
    cases = [
        (lambda: dumps("nope"),
         "can only send Message subclasses, got str"),
        (lambda: dumps(Unregistered()),
         "Unregistered is not registered; apply @message_type"),
        (lambda: dumps(Bare()),
         "Bare is not registered; apply @message_type"),
        (lambda: Bare().to_fields(),
         "Bare is not a dataclass message"),
        (lambda: dumps(Payload(value=Bare())),
         "Bare is not a dataclass message"),
        (lambda: dumps(Payload(extras={"$x": 1})),
         "dict keys may not start with '$' (reserved): '$x'"),
        (lambda: dumps(Payload(value=[{"$node": "a:1"}])),
         "dict keys may not start with '$' (reserved): '$node'"),
        (lambda: dumps(Payload(extras={1: "x"})),
         "dict keys on the wire must be strings, got 1"),
        (lambda: dumps(Payload(value=object)),
         "value of type type is not wire-encodable: <class 'object'>"),
        (lambda: encode_value({2.5: None}),
         "dict keys on the wire must be strings, got 2.5"),
        (lambda: loads('{"t":"no.such.type","f":{}}'),
         "unknown message type 'no.such.type'"),
        (lambda: loads('{"t":"proptest.payload","f":{"value":'
                       '{"$msg":["no.such.type",{}]}}}'),
         "unknown message type 'no.such.type'"),
        (lambda: loads('{"t":"sys.text","f":{"text":"a","extra":1}}'),
         "cannot reconstruct 'sys.text' from fields ['extra', 'text']: "),
        (lambda: loads('{"t":"sys.text","f":{}}'),
         "cannot reconstruct 'sys.text' from fields []: "),
        (lambda: loads("not json"), "malformed wire string: 'not json'"),
        (lambda: loads('{"f":{}}'), "malformed wire string: '{\"f\":{}}'"),
    ]
    for attempt, text in cases:
        with pytest.raises(SerializationError) as err:
            attempt()
        assert str(err.value).startswith(text), (str(err.value), text)


# -- a class that shapes its own fields is still honoured ---------------------


@message_type("oracle.point")
@dataclass(frozen=True)
class Point(Message):
    """Travels as one ``"x,y"`` string instead of two fields."""

    x: int
    y: int

    def to_fields(self):
        return {"xy": f"{self.x},{self.y}", "tags": ("p", self.x)}

    @classmethod
    def from_fields(cls, fields):
        x, y = fields["xy"].split(",")
        assert fields["tags"] == ("p", int(x))
        return cls(int(x), int(y))


@message_type("oracle.point3")
@dataclass(frozen=True)
class Point3(Point):
    """Inherits the overrides; adds a field they do not carry."""

    z: int = 0


def test_overridden_to_fields_and_from_fields_are_honoured():
    wire = dumps(Point(3, -4))
    assert wire == ('{"t":"oracle.point","f":{"xy":"3,-4",'
                    '"tags":{"$tuple":["p",3]}}}')
    assert loads(wire) == Point(3, -4)
    nested = loads(dumps(Payload(value=[Point(1, 2)])))
    assert nested.value == [Point(1, 2)]
    assert loads(dumps(Point3(1, 2, 9))) == Point3(1, 2, 0)


def test_field_names_are_per_class_not_inherited():
    """A subclass that adds a field derives its own plan."""

    @message_type("oracle.base")
    @dataclass(frozen=True)
    class Base(Message):
        a: int = 1

    @dataclass(frozen=True)
    class Wider(Base):          # inherits the wire name, not the plan
        b: str = "b"

    assert dumps(Base(2)) == '{"t":"oracle.base","f":{"a":2}}'
    assert dumps(Wider(2, "c")) == '{"t":"oracle.base","f":{"a":2,"b":"c"}}'
    assert dumps(Wider(1, "c")) == '{"t":"oracle.base","f":{"b":"c"}}'
    assert dumps(Wider()) == dumps(Base()) == '{"t":"oracle.base","f":{}}'
    assert Wider(2, "c").to_fields() == {"a": 2, "b": "c"}
