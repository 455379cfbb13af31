"""The payload layout table of ``b92sim.channel``: each read refuses a
payload a byte short or long, or with a value its field's codec does
not take; the table and the code agree on the kinds; well-formed
messages round-trip; each message has exactly one frame; and every
codec of the channel is an integer or bits that some field uses."""
import ast
import pathlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from b92sim import channel, errors
from b92sim.channel import (
    BITS,
    PAYLOADS,
    UINT,
    MessagePipe,
    decode_frame,
    encode_frame,
    loopback_pair,
)
from b92sim.errors import ChannelError, ProtocolDesyncError
from b92sim.protocol import EveStrategy, Mode, _evaluate_alarm

from payloads import (
    JSON_VALUES,
    SAMPLES,
    SHAPE_IDS,
    SHAPES,
    broken,
    field_at,
    frame,
    payload_bytes,
    put,
    reframed,
    same,
    well_formed,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "b92sim"


def read(kind, payload):
    """``payload`` sent as ``kind`` and read back."""
    t_a, t_b = loopback_pair()
    MessagePipe(t_a, session_id=2).send(kind, payload)
    return MessagePipe(t_b, session_id=2).recv(kind)


def read_bytes(kind, raw: bytes):
    """The payload bytes ``raw`` framed as a ``kind`` frame and read."""
    t_a, t_b = loopback_pair()
    t_a.send_frame(reframed(encode_frame(frame(kind, well_formed(PAYLOADS[kind]))), raw))
    return MessagePipe(t_b, session_id=2).recv(kind)


@pytest.mark.parametrize("kind, fields", SHAPES, ids=SHAPE_IDS)
def test_a_read_refuses_a_missing_extra_or_mistyped_field(kind, fields):
    # missing: a byte short; extra: a byte trailing; mistyped: a value
    # the field's codec does not take
    good = well_formed(fields)
    assert same(read(kind, good), good)
    unrefused = []
    cases = dict(broken(kind, good))
    for case, raw in cases.items():
        try:
            read_bytes(kind, raw)
            unrefused.append(case)
        except ProtocolDesyncError:
            pass
    assert unrefused == []
    # every field but an unsigned integer has a value its codec does not take
    assert all(any(case.startswith(f"{name}_") for case in cases)
               for name, codec in fields.items() if codec is not UINT)


def payload_with(kind, **put_at) -> bytes:
    """A well-formed ``kind`` payload with the bytes of ``put_at`` written at their fields."""
    raw = payload_bytes(kind, well_formed(PAYLOADS[kind]))
    for name, new in put_at.items():
        raw = put(raw, field_at(kind, name), new)
    return raw


ANSWER = payload_with("Answer")


@pytest.mark.parametrize("raw, message", [
    # the payload stops inside its last field
    (ANSWER[:11], "Answer of 11 bytes, fewer than the 12 of its fields"),
    # a double's eight bytes where the four of zeros go: the struct reads
    # the double's low half as the discard count 0, and the rest trails
    (ANSWER[:4] + struct.pack(">d", 8.0) + ANSWER[8:], "5 bytes trail the Answer payload"),
    (ANSWER + b"\x00", "1 bytes trail the Answer payload"),
], ids=["missing", "float_for_int", "extra"])
def test_a_refused_field_is_named(raw, message):
    with pytest.raises(ProtocolDesyncError, match=f"^malformed frame: {message}$"):
        read_bytes("Answer", raw)


def test_decode_frame_refuses_a_fifth_field():
    # bytes after a whole payload are a field no kind has
    data = encode_frame(frame("Done", {"reason": None}))
    assert decode_frame(data[4:])["payload"] == {"reason": None}
    with pytest.raises(ProtocolDesyncError, match="malformed frame: 2 bytes trail the Done"):
        decode_frame(data[4:] + b"\x01\x02")


def test_encode_refuses_a_payload_off_its_layout():
    # the writer sends no frame that the read would refuse or read
    # differently: a field missing or extra, a bool in a number field
    # (True is an int and a float to struct), or a value of no codec
    hello, answer = well_formed(PAYLOADS["Hello"]), well_formed(PAYLOADS["Answer"])
    for kind, payload, message in [
        ("Done", {}, "is not of the fields"),
        ("Done", {"reason": None, "note": 1}, "is not of the fields"),
        ("Hello", {**hello, "bits_per_block": True}, "Hello bits_per_block True is not of codec"),
        ("Answer", {**answer, "zeros": False}, "Answer zeros False is not of codec"),
        ("Hello", {**hello, "bits_per_block": "x"}, "Hello payload does not fit its layout"),
        ("Answer", {**answer, "zeros": 0.5}, "Answer payload does not fit its layout"),
        ("Answer", {**answer, "zeros": -1}, "Answer payload does not fit its layout"),
        ("Done", {"reason": "ber+sample"}, "Done reason 'ber\\+sample' is not of codec"),
    ]:
        with pytest.raises(ChannelError, match=message):
            encode_frame(frame(kind, payload))
    with pytest.raises(ChannelError, match="Gossip payload"):
        encode_frame(frame("Gossip", {}))


# ---------------------------------------------------------------------------
# the table and the code agree


def literal_kinds():
    """(sent, read): the literal kinds src/ passes to MessagePipe.send, its
    first argument, and to MessagePipe.recv, each of its arguments."""
    sent, read_kinds = set(), set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name not in ("send", "recv"):
                continue
            args = node.args[:1] if name == "send" else node.args
            kinds = {a.value for a in args if isinstance(a, ast.Constant) and isinstance(a.value, str)}
            (sent if name == "send" else read_kinds).update(kinds)
    return sent, read_kinds


def test_every_kind_in_the_code_has_a_schema_and_every_schema_is_sent():
    sent, read_kinds = literal_kinds()
    assert sent == read_kinds == set(PAYLOADS)


def test_the_enums_of_the_table_are_the_values_the_engines_send():
    assert PAYLOADS["Hello"]["mode"] == tuple(m.value for m in Mode)
    assert PAYLOADS["Hello"]["eve"] == tuple(e.value for e in EveStrategy)
    reasons = {_evaluate_alarm(disclosed, ber, bias)
               for disclosed in (0, 1) for ber in (0.0, 0.5) for bias in (None, 0.5, 0.9)}
    # and the sender's refusal of a Hello, appended so that the alarm's codes keep their bytes
    assert set(PAYLOADS["Done"]["reason"]) == reasons | {"config"}
    assert PAYLOADS["Done"]["reason"][-1] == "config"


def table_codecs():
    """The codecs that the fields of ``PAYLOADS`` use, enums aside."""
    return {codec for fields in PAYLOADS.values() for codec in fields.values()
            if type(codec) is not tuple}


def test_every_codec_is_an_integer_or_bits_that_some_field_uses():
    # a codec no field uses is dead code in the encoder and the reader
    defined = {value for name, value in vars(channel).items()
               if name.isupper() and isinstance(value, str)}
    assert defined == table_codecs() == {UINT, BITS}
    # the public discussion is positions, bits and counts: no layout
    # holds a floating-point format
    for kind, (_, layout, _) in channel._PLANS.items():
        assert not set(layout.format) & set("efd"), (kind, layout.format)
    # the test payloads and the generated values cover the table's codecs exactly
    assert set(SAMPLES) == set(VALUES) == table_codecs()


# ---------------------------------------------------------------------------
# properties over payloads the table generates

BIT_LISTS = st.lists(st.integers(0, 1), max_size=40).map(lambda b: np.array(b, np.uint8))
VALUES = {
    UINT: st.integers(0, 2**32 - 1),
    BITS: BIT_LISTS,
}
PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)


def values(codec):
    return st.sampled_from(codec) if type(codec) is tuple else VALUES[codec]


def payloads(fields):
    return st.fixed_dictionaries({key: values(codec) for key, codec in fields.items()})


def shapes_with_payloads():
    return st.sampled_from(SHAPES).flatmap(
        lambda shape: st.tuples(st.just(shape), payloads(shape[1]))
    )


def through_a_pipe(kind, payload):
    """The payload framed, checked by decode_frame, and read by a pipe."""
    msg = frame(kind, payload, session_id=3)
    data = encode_frame(msg)
    assert same(decode_frame(data[4:]), msg)
    t_a, t_b = loopback_pair()
    t_a.send_frame(data)
    return MessagePipe(t_b, 3)


@PROPERTY
@given(shapes_with_payloads())
def test_a_well_formed_payload_round_trips(shape_and_payload):
    (kind, _), payload = shape_and_payload
    assert same(through_a_pipe(kind, payload).recv(kind), payload)


@st.composite
def broken_payloads(draw):
    (kind, _), payload = draw(shapes_with_payloads())
    cases = dict(broken(kind, payload))
    return kind, cases[draw(st.sampled_from(sorted(cases)))]


@PROPERTY
@given(broken_payloads())
def test_a_payload_with_one_field_dropped_added_or_retyped_is_refused(case):
    kind, raw = case
    with pytest.raises(ProtocolDesyncError):
        read_bytes(kind, raw)


@st.composite
def frames(draw):
    """Frame bodies: arbitrary bytes, or a valid frame with a few bytes
    overwritten, cut off or appended."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    (kind, _), payload = draw(shapes_with_payloads())
    body = bytearray(encode_frame(frame(kind, payload, session_id=3))[4:])
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(body) - 1))
        body[at] = draw(st.integers(0, 255))
    cut = draw(st.integers(0, 2))
    return bytes(body[:len(body) - cut]) + draw(st.binary(max_size=2))


@PROPERTY
@given(frames())
def test_every_frame_the_read_accepts_is_the_encoding_of_its_message(body):
    # no two frames carry one message
    try:
        msg = decode_frame(body)
    except ProtocolDesyncError:
        return
    assert encode_frame(msg)[4:] == body


@PROPERTY
@given(frames(), st.sampled_from(list(PAYLOADS)))
def test_no_frame_raises_outside_the_errors_module(body, kind):
    t_a, t_b = loopback_pair()
    t_a.send_frame(struct.pack(">I", len(body)) + body)
    try:
        MessagePipe(t_b, 3).recv(kind)
    except Exception as exc:  # the property is about what escapes
        assert type(exc).__module__ == errors.__name__, repr(exc)


def test_json_values_cover_every_type_of_the_table():
    # every field of the table refuses one of these values at the writer,
    # and each refusal is a ChannelError that names the kind
    for kind, fields in SHAPES:
        for name in fields:
            refused = 0
            for value in JSON_VALUES:
                try:
                    encode_frame(frame(kind, {**well_formed(fields), name: value}))
                except ChannelError as exc:
                    assert kind in str(exc)
                    refused += 1
            assert refused, (kind, name)


# ---------------------------------------------------------------------------
# one refusal per fault class

BLOCK = {"results": np.ones(12, np.uint8), "sample": np.zeros(3, np.uint8),
         "parities": np.array([1], np.uint8)}


def block_bytes(**put_at) -> bytes:
    raw = payload_bytes("Block", BLOCK)
    for name, new in put_at.items():
        raw = put(raw, field_at("Block", name), new)
    return raw


def framed(kind, raw: bytes) -> bytes:
    """The payload bytes ``raw`` as the first ``kind`` frame of session 2."""
    return reframed(encode_frame(frame(kind, well_formed(PAYLOADS[kind]))), raw)


BLOCK_FRAME = encode_frame(frame("Block", BLOCK))


@pytest.mark.parametrize("data, message", [
    (BLOCK_FRAME[:-1], "bytes do not match their length prefix"),
    (BLOCK_FRAME[:-1] + b"\x80\x00", "bytes do not match their length prefix"),
    (put(BLOCK_FRAME, 12, b"\x07"), "unknown kind code 7"),
    (put(BLOCK_FRAME, 12, b"\x00"), "unknown kind code 0"),
    (put(BLOCK_FRAME, 4, struct.pack(">I", 9)), "session_id 9 does not match 2"),
    (put(BLOCK_FRAME, 8, struct.pack(">I", 2)), "sequence 2, expected 1"),
    (framed("Done", b"\x09"), "Done reason code 9 is out of range"),
    (framed("Block", block_bytes()[:-3] + b"\x11\x00\x80"),
     "Block results sets pad bits beyond bit 12"),
    (framed("Block", block_bytes(parities=struct.pack(">I", 9))),
     "Block parities of 9 bits runs past the 1 bytes left"),
    (framed("Block", block_bytes() + b"\x00"), "1 bytes trail the Block payload"),
], ids=["length", "length_long", "kind", "kind_zero", "session", "sequence",
        "enum", "pad", "count", "trailing"])
def test_each_fault_class_is_refused(data, message):
    # a payload is decoded before the pipe compares its kind with the one it expects
    t_a, t_b = loopback_pair()
    t_a.send_frame(data)
    with pytest.raises(ProtocolDesyncError, match=message):
        MessagePipe(t_b, session_id=2).recv("Block")
