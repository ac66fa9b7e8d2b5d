"""``loads`` is total.

A payload reaches ``loads`` after the transport has acknowledged it, so
whatever the bytes are, decoding must end in a message or a
:class:`SerializationError` — never an ``AttributeError`` from a list
where an object belongs, a ``binascii.Error`` from a corrupt tag, or an
``AddressError`` from a bad address.
"""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import AddressError, SerializationError
from repro.messages import Message, Text, dumps, loads
from tests.messages.test_serialize_properties import Payload

TAGS = ["$node", "$inbox", "$tuple", "$bytes", "$msg", "$other"]
NAMES = ["sys.text", "sys.blob", "proptest.payload", "rpc.invoke",
         "clk.stamped", "no.such.type"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=12),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=6), children,
                                        max_size=4)),
    max_leaves=16)

# Tagged objects of any shape, right or wrong, nested anywhere.
tagged = st.recursive(
    json_values,
    lambda children: (st.builds(lambda tag, v: {tag: v},
                                st.sampled_from(TAGS), children)
                      | st.builds(lambda name, f: {"$msg": [name, f]},
                                  st.sampled_from(NAMES), children)
                      | st.lists(children, max_size=3)),
    max_leaves=12)

# Envelopes that name a real type but carry any fields.
envelopes = st.builds(
    lambda name, fields: {"t": name, "f": fields},
    st.sampled_from(NAMES) | json_values,
    st.dictionaries(st.sampled_from(["text", "data", "value", "extras",
                                     "ts", "sender", "inner"]),
                    tagged, max_size=3) | tagged)


@settings(max_examples=300, deadline=None)
@given(st.one_of(json_values, tagged, envelopes).map(json.dumps)
       | st.text(max_size=40))
@example("not json")
@example('{"t":"sys.text","f":[]}')
@example('{"$inbox":5}')
@example('{"$msg":["sys.text"]}')
@example('{"t":[],"f":{}}')
@example('{"$bytes":"YQ"}')
@example('{"$node":"nohost"}')
@example('{"$bytes":"!!"}')
@example('{"t":"sys.blob","f":{"data":{"$inbox":5}}}')
@example('{"t":"sys.blob","f":{"data":{"$msg":["sys.text"]}}}')
@example('{"t":"sys.blob","f":{"data":{"$bytes":"YQ"}}}')
@example('{"t":"sys.blob","f":{"data":{"$node":"nohost"}}}')
@example('{"t":"sys.text","f":{"text":{"$inbox":"a:1/²"}}}')
@example('{"t":"sys.text","f":{"text":' + "1" * 5000 + "}}")
@example("[" * 100_000)
@example(' {"t":"sys.text","f":{"text":"padded"}} ')
def test_loads_returns_a_message_or_raises_serialization_error(wire):
    try:
        message = loads(wire)
    except SerializationError as exc:
        assert str(exc)
    else:
        assert isinstance(message, Message)


def in_payload(value: str) -> str:
    return '{"t":"proptest.payload","f":{"value":' + value + "}}"


@pytest.mark.parametrize("wire,cause", [
    ('{"t":"sys.text","f":[]}', TypeError),
    ('{"t":[],"f":{}}', TypeError),
    (in_payload('{"$msg":["sys.text"]}'), ValueError),
    (in_payload('{"$bytes":"YQ"}'), ValueError),
    (in_payload('{"$bytes":"!!"}'), ValueError),
    (in_payload('{"$node":"nohost"}'), AddressError),
    (in_payload('{"$inbox":5}'), None),
    (in_payload('{"$tuple":"ab"}'), None)])
def test_malformed_shapes_fail_typed_with_the_cause_chained(wire, cause):
    with pytest.raises(SerializationError) as err:
        loads(wire)
    if cause is None:   # a tag whose value has the wrong JSON type
        assert "tag" in str(err.value)
    else:
        assert isinstance(err.value.__cause__, cause)


def test_an_unknown_tag_fails_typed():
    with pytest.raises(SerializationError, match="malformed '\\$what' tag"):
        loads(in_payload('{"$what":1}'))


def test_bytes_tag_is_validated_but_encoder_output_is_not_affected():
    with pytest.raises(SerializationError):
        loads('{"t":"proptest.payload","f":{"value":{"$bytes":"!!"}}}')
    for raw in (b"", b"\x00", b"\xff\xfe", bytes(range(256))):
        assert loads(dumps(Payload(value=raw))).value == raw


def test_whitespace_around_the_wire_string_is_accepted():
    assert loads(' {"t":"sys.text","f":{"text":"x"}}\n') == Text("x")
