"""The payload schema table of ``b92sim.channel``: each read refuses a
payload with a field missing, an extra field or a mistyped field; the
table and the code agree on the kinds; and well-formed messages
round-trip."""
import ast
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from b92sim import errors
from b92sim.channel import PAYLOADS, MessagePipe, decode_frame, encode_frame, loopback_pair
from b92sim.errors import ProtocolDesyncError

from payloads import JSON_VALUES, SHAPE_IDS, SHAPES, broken, well_formed

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "b92sim"


def read(kind, payload):
    """``payload`` sent as ``kind`` and read back."""
    t_a, t_b = loopback_pair()
    MessagePipe(t_a, session_id=2).send(kind, payload)
    return MessagePipe(t_b, session_id=2).recv(kind)


@pytest.mark.parametrize("kind, fields", SHAPES, ids=SHAPE_IDS)
def test_a_read_refuses_a_missing_extra_or_mistyped_field(kind, fields):
    good = well_formed(fields)
    assert read(kind, good) == good
    unrefused = []
    for case, rewrite in broken(fields):
        try:
            read(kind, rewrite(good))
            unrefused.append(case)
        except ProtocolDesyncError:
            pass
    assert unrefused == []


@pytest.mark.parametrize("rewrite, message", [
    (lambda p: {k: v for k, v in p.items() if k != "reason"}, "reason None is not NoneType or str"),
    (lambda p: {**p, "ber": 0}, "ber 0 is not float"),
    (lambda p: {**p, "more": 1}, "more 1 is not bool"),
    (lambda p: {**p, "note": "x"}, "unexpected field 'note'"),
], ids=["missing", "int_for_float", "int_for_bool", "extra"])
def test_a_refused_field_is_named(rewrite, message):
    # a missing field reads as None, so a field that may be None is
    # refused for its absence too
    with pytest.raises(ProtocolDesyncError, match=message):
        read("Done", rewrite(well_formed(PAYLOADS["Done"])))


def test_decode_frame_refuses_a_fifth_field():
    obj = {"session_id": 5, "sequence": 1, "kind": "Hello", "payload": {}, "extra": [1, 2]}
    with pytest.raises(ProtocolDesyncError, match="malformed frame: unexpected field 'extra'"):
        decode_frame(json.dumps(obj).encode("utf-8"))


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"])
def test_a_number_that_json_lacks_is_refused_by_name(constant):
    # json reads the first three by default, and a literal beyond a double's
    # range as inf; RFC 8259 has no such numbers
    t_a, t_b = loopback_pair()
    for field, types in [("bias", "NoneType or int or float"), ("ber", "float")]:
        payload = json.dumps({**well_formed(PAYLOADS["Done"]), field: 0.25}).replace("0.25", constant)
        body = f'{{"session_id":2,"sequence":1,"kind":"Done","payload":{payload}}}'.encode("utf-8")
        t_a.send_frame(b"\0\0\0\0" + body)
        with pytest.raises(ProtocolDesyncError, match=f"^{field} {constant} is not {types}$"):
            MessagePipe(t_b, 2).recv("Done")
    in_header = body.replace(b'"sequence":1', b'"sequence":' + constant.encode("utf-8"))
    with pytest.raises(ProtocolDesyncError, match=f"^malformed frame: sequence {constant} is not int$"):
        decode_frame(in_header)


# ---------------------------------------------------------------------------
# the table and the code agree


def literal_kinds():
    """(sent, read): the literal kinds src/ passes to MessagePipe.send and
    to MessagePipe.recv."""
    sent, read_kinds = set(), set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name not in ("send", "recv"):
                continue
            args = [*node.args[:1], *(k.value for k in node.keywords
                                      if k.arg in ("kind", "expect_kind"))]
            kinds = {a.value for a in args if isinstance(a, ast.Constant) and isinstance(a.value, str)}
            (sent if name == "send" else read_kinds).update(kinds)
    return sent, read_kinds


def test_every_kind_in_the_code_has_a_schema_and_every_schema_is_sent():
    sent, read_kinds = literal_kinds()
    assert read_kinds <= set(PAYLOADS)
    assert sent == set(PAYLOADS)


# ---------------------------------------------------------------------------
# properties over payloads the table generates

VALUES = {
    int: st.integers(),
    float: st.floats(allow_nan=False, allow_infinity=False),  # the read refuses both
    str: st.text(max_size=20),
    bool: st.booleans(),
    type(None): st.none(),
}
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)
PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)


def payloads(fields):
    return st.fixed_dictionaries(
        {key: st.one_of(*(VALUES[t] for t in types)) for key, types in fields.items()}
    )


def shapes_with_payloads():
    return st.sampled_from(SHAPES).flatmap(
        lambda shape: st.tuples(st.just(shape), payloads(shape[1]))
    )


def through_a_pipe(kind, payload):
    """The payload framed, checked by decode_frame, and read by a pipe."""
    msg = {"session_id": 3, "sequence": 1, "kind": kind, "payload": payload}
    data = encode_frame(msg)
    assert decode_frame(data[4:]) == msg
    t_a, t_b = loopback_pair()
    t_a.send_frame(data)
    return MessagePipe(t_b, 3)


@PROPERTY
@given(shapes_with_payloads())
def test_a_well_formed_payload_round_trips(shape_and_payload):
    (kind, _), payload = shape_and_payload
    assert through_a_pipe(kind, payload).recv(kind) == payload


@st.composite
def broken_payloads(draw):
    (kind, fields), payload = draw(shapes_with_payloads())
    change = draw(st.sampled_from(["drop", "add", "retype"]))
    key = draw(st.sampled_from(sorted(fields)))
    if change == "drop":
        del payload[key]
    elif change == "add":
        payload[draw(st.text(max_size=8).filter(lambda k: k not in fields))] = draw(JSON)
    else:
        payload[key] = draw(JSON.filter(lambda v: type(v) not in fields[key]))
    return kind, payload


@PROPERTY
@given(broken_payloads())
def test_a_payload_with_one_field_dropped_added_or_retyped_is_refused(case):
    kind, payload = case
    with pytest.raises(ProtocolDesyncError):
        through_a_pipe(kind, payload).recv(kind)


FRAME_OBJECTS = st.fixed_dictionaries({
    "session_id": st.just(3), "sequence": st.just(1), "kind": st.sampled_from(list(PAYLOADS)),
    "payload": st.dictionaries(st.text(max_size=8), JSON, max_size=6),
})


@PROPERTY
@given(st.one_of(st.binary(max_size=64), st.one_of(JSON, FRAME_OBJECTS).map(json.dumps)),
       st.sampled_from(list(PAYLOADS)))
def test_no_frame_raises_outside_the_errors_module(body, kind):
    body = body if isinstance(body, bytes) else body.encode("utf-8")
    t_a, t_b = loopback_pair()
    t_a.send_frame(b"\0\0\0\0" + body)
    try:
        MessagePipe(t_b, 3).recv(kind)
    except Exception as exc:  # the property is about what escapes
        assert type(exc).__module__ == errors.__name__, repr(exc)


def test_json_values_cover_every_type_of_the_table():
    types = {t for _, fields in SHAPES for types in fields.values() for t in types}
    assert types <= {type(v) for v in JSON_VALUES}
