"""Payloads and broken payload bytes built from the layout table of
``b92sim.channel``, for the tests that hand a read well-formed and
broken frames."""
import struct

import numpy as np

from b92sim.channel import BITS, PAYLOADS, UINT, encode_frame

# one value of each JSON type, to put where a field takes another
JSON_VALUES = (None, True, 7, 0.5, "x", [1], {"a": 1})

# (kind, fields) for every shape a read checks: one per kind
SHAPES = list(PAYLOADS.items())
SHAPE_IDS = list(PAYLOADS)

# bytes before a payload: the length prefix, session id, sequence and kind code
HEAD = 13


def fmt(codec) -> str:
    """The struct format of a codec's scalars."""
    return "B" if type(codec) is tuple else codec


# one value of each codec that is not an enum
SAMPLES = {UINT: 7, BITS: np.array([1, 0, 1], np.uint8)}


def sample(codec):
    """One value the codec takes."""
    return codec[-1] if type(codec) is tuple else SAMPLES[codec]


def well_formed(fields: dict) -> dict:
    """A payload holding each field with a value its codec takes."""
    return {key: sample(codec) for key, codec in fields.items()}


def frame(kind, payload, session_id=2, sequence=1):
    return {"session_id": session_id, "sequence": sequence, "kind": kind, "payload": payload}


def payload_bytes(kind, payload) -> bytes:
    return encode_frame(frame(kind, payload))[HEAD:]


def reframed(data: bytes, payload: bytes) -> bytes:
    """The frame ``data`` with its payload replaced by the bytes ``payload``."""
    return struct.pack(">I", HEAD - 4 + len(payload)) + data[4:HEAD] + payload


def same(a, b) -> bool:
    """Equality of payloads or messages, with bit lists compared as arrays."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(np.asarray(a, np.uint8), np.asarray(b, np.uint8))
    return type(a) is type(b) and a == b


def field_at(kind, name) -> int:
    """The offset of the field ``name`` in the struct of a ``kind`` payload."""
    at = 0
    for key, codec in PAYLOADS[kind].items():
        if key == name:
            return at
        at += struct.calcsize(">" + fmt(codec))
    raise KeyError(name)


def put(raw: bytes, at: int, new: bytes) -> bytes:
    return raw[:at] + new + raw[at + len(new):]


def broken(kind, payload):
    """(case, payload bytes) pairs: ``payload``, a ``kind`` payload,
    encoded and then given one fault that its layout does not take: a
    byte missing, a byte trailing, and for each field a value its codec
    does not take (an enum code out of range, a bit count past the
    bytes left, a set pad bit). An unsigned integer takes every value of
    its four bytes, so it has only the first two."""
    raw = payload_bytes(kind, payload)
    yield "short", raw[:-1]
    yield "trailing", raw + b"\0"
    fields = PAYLOADS[kind]
    data = struct.calcsize(">" + "".join(fmt(c) for c in fields.values()))
    for name, codec in fields.items():
        at = field_at(kind, name)
        if type(codec) is tuple:
            yield f"{name}_code", put(raw, at, bytes([len(codec)]))
        elif codec is BITS:
            n = len(payload[name])
            yield f"{name}_count", put(raw, at, struct.pack(">I", 8 * (len(raw) - data) + 1))
            if n % 8:
                last = data + (n + 7) // 8 - 1
                yield f"{name}_pad", put(raw, last, bytes([raw[last] | 1]))
            data += (n + 7) // 8
