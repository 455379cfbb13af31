"""Classical public channel: framing, transports, and the hex codec for bit lists.

Wire format: each frame is a 4-byte big-endian length prefix followed
by one UTF-8 JSON object with exactly the fields {session_id,
sequence, kind, payload}. That object is the message itself, and a
read returns its payload, which must hold exactly the fields that
``PAYLOADS`` declares for its kind. A field missing, extra or of another
type (NaN and Infinity, which JSON lacks, are of none, and so is a number
literal too large for a double, such as 1e999), in the frame or in the
payload, is refused. Each turn of a session is one message: a bit list
is one hex field (packed big-endian, ``bits_to_hex``), which the reader
decodes at the count it already knows (``hex_to_bits``). So no list is
split across frames, and ``MAX_FRAME_BYTES`` is the largest frame a
valid session sends: a Block of ``MAX_BITS_PER_BLOCK`` pulses that all
hit. The Hello carries ``WIRE_VERSION``.

The same framing runs over an in-process loopback (two deques, read
in turn by one thread) or a TCP socket, so everything the protocol
says on the wire is identical in both modes and can be inspected by
tests. Over TCP each frame leaves in one write with Nagle's algorithm
off (TCP_NODELAY), so a turn's last frame is not held back until the
peer's delayed ACK, and frames are not batched (``SocketTransport``
says why); an AF_UNIX socket pair, which has no such timer, is taken
as it is.
"""
from __future__ import annotations

import json
import math
import socket
import struct
import time
from collections import deque

import numpy as np

from .errors import ChannelError, ProtocolDesyncError

# pulses per block, checked before any is drawn: one Physical block with
# Eve at this size peaked at 266 MB resident (235 MB above the import)
MAX_BITS_PER_BLOCK = 4_000_000
# The largest frame a valid session sends: a Block of MAX_BITS_PER_BLOCK
# pulses that all hit, whose hit record and sample mask take n / 4 hex
# digits each and its parities, one per 8 sifted bits, n / 32; 1 KiB
# covers the frame's other fields. About 2.1 MB.
MAX_FRAME_BYTES = 2 * (MAX_BITS_PER_BLOCK // 4) + MAX_BITS_PER_BLOCK // 32 + 1024
_HEADER = struct.Struct(">I")
# the format of the frames and payloads below, which the Hello carries
WIRE_VERSION = 2


class _Constant(str):
    """NaN, Infinity or -Infinity, which json reads but JSON lacks, or a number
    literal that overflows a double: no field takes this type, so the field
    check refuses one by name (``ber NaN is not float``, ``ber 1e999 is not float``)."""

    __repr__ = str.__str__


def _finite_float(literal: str) -> float | _Constant:
    value = float(literal)
    return value if math.isfinite(value) else _Constant(literal)


# One encoder and decoder for every frame. The encoder has the settings
# of json.dumps(obj, separators=(",", ":")), so it writes the same bytes
# without building a new encoder per call.
_ENCODER = json.JSONEncoder(separators=(",", ":"))
_DECODER = json.JSONDecoder(parse_float=_finite_float, parse_constant=_Constant)
# the fields of a frame object and of each kind's payload, with the exact
# types a field's value may have; a str field named for a bit list is its hex
_FRAME_FIELDS = {"session_id": (int,), "sequence": (int,), "kind": (str,), "payload": (dict,)}
PAYLOADS = {
    "Hello": {"wire_version": (int,), "bits_per_block": (int,), "mode": (str,), "eve": (str,),
              "reconcile_block_size": (int,), "error_sample_fraction": (float,)},
    "HelloReply": {"ok": (bool,)},
    "Block": {"results": (str,), "sample": (str,), "parities": (str,), "block_size": (int,)},
    "Answer": {"values": (str,), "bias": (type(None), int, float), "discard": (str,)},
    "Done": {"more": (bool,), "ber": (float,), "bias": (type(None), int, float),
             "alarm": (bool,), "reason": (type(None), str)},
    "Ciphertext": {"bits": (str,), "chars": (int,)},
}


def bits_to_hex(bits: np.ndarray) -> str:
    """Pack a 0/1 array big-endian and render as hex."""
    arr = np.asarray(bits, dtype=np.uint8)
    return np.packbits(arr).tobytes().hex()


def hex_to_bits(s: str, n: int) -> np.ndarray:
    """Inverse of bits_to_hex for a known bit count; the hex must be exactly
    the 2 * ceil(n / 8) digits that bits_to_hex writes, pad bits zero."""
    try:
        raw = bytes.fromhex(s)
    except (TypeError, ValueError) as exc:
        raise ProtocolDesyncError(f"bits are not a hex string: {exc}") from exc
    want = (n + 7) // 8
    if len(raw) != want:
        raise ProtocolDesyncError(f"hex carries {len(raw)} bytes, expected {want} for {n} bits")
    if len(s) != 2 * want:
        raise ProtocolDesyncError(f"hex has {len(s)} characters, expected {2 * want} for {n} bits")
    if n % 8 and raw[-1] & (0xFF >> n % 8):
        raise ProtocolDesyncError(f"last byte {raw[-1]:#04x} sets pad bits beyond bit {n}")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[:n]


def _check_fields(obj: dict, fields: dict) -> dict:
    """``obj`` from a peer, holding exactly ``fields``, each value of one of
    its types exactly: ``int`` refuses ``True``, ``5.9`` and ``"5"``."""
    for key, types in fields.items():
        if key not in obj or type(obj[key]) not in types:
            raise ProtocolDesyncError(
                f"{key} {obj.get(key)!r} is not {' or '.join(t.__name__ for t in types)}"
            )
    if len(obj) != len(fields):
        raise ProtocolDesyncError(f"unexpected field {next(k for k in obj if k not in fields)!r}")
    return obj


def encode_frame(msg: dict) -> bytes:
    """The frame of an object with the fields session_id, sequence, kind, payload."""
    body = _ENCODER.encode(msg).encode("utf-8")
    if _HEADER.size + len(body) > MAX_FRAME_BYTES:
        raise ChannelError(f"frame of {len(body)} bytes exceeds the limit of {MAX_FRAME_BYTES}")
    return _HEADER.pack(len(body)) + body


def decode_frame(body: bytes) -> dict:
    """The object of a frame's bytes after the prefix: its four fields, each of its exact type."""
    try:
        msg = _DECODER.decode(body.decode("utf-8"))
        if type(msg) is not dict:
            raise ValueError(f"{type(msg).__name__} is not an object")
        _check_fields(msg, _FRAME_FIELDS)
    except (ValueError, ProtocolDesyncError) as exc:
        raise ProtocolDesyncError(f"malformed frame: {exc}") from exc
    return msg


class LoopbackTransport:
    """In-process transport over two deques, for both parties in one
    thread; sends and receives whole frames.

    It never waits: the single-thread driver only reads once the peer
    has had its turn, so a read with nothing queued is a protocol
    error and raises ProtocolDesyncError at once. ``close`` queues an
    end-of-stream mark; the peer's reads raise ChannelError from there on.
    """

    def __init__(self, inbox: deque, outbox: deque):
        self._inbox = inbox
        self._outbox = outbox

    def send_frame(self, data: bytes) -> None:
        self._outbox.append(data)

    def recv_frame(self) -> bytes:
        try:
            data = self._inbox.popleft()
        except IndexError:
            raise ProtocolDesyncError("loopback read with nothing queued") from None
        if data is None:
            self._inbox.appendleft(None)
            raise ChannelError("loopback peer closed the channel")
        return data

    def close(self) -> None:
        self._outbox.append(None)


def loopback_pair() -> tuple[LoopbackTransport, LoopbackTransport]:
    a_to_b: deque = deque()
    b_to_a: deque = deque()
    return (
        LoopbackTransport(inbox=b_to_a, outbox=a_to_b),
        LoopbackTransport(inbox=a_to_b, outbox=b_to_a),
    )


class SocketTransport:
    """Blocking transport for one peer connection over a stream socket.

    Each frame leaves in one ``sendall``. On a TCP socket Nagle's
    algorithm is off (TCP_NODELAY): with it on, a turn's last small frame
    waits for the peer's delayed ACK, about 40 ms a block. Sends are not
    batched until the next read either: batching was measured slower,
    because the receiver then no longer handles one block's ``Done`` while
    the sender computes the next, and it strands a last frame that no read
    or close follows. An AF_UNIX socket pair has no such timer and no TCP
    option, and is taken as it is.
    """

    def __init__(self, sock: socket.socket, timeout: float = 30.0):
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(timeout)
        self._sock = sock

    def send_frame(self, data: bytes) -> None:
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise ChannelError(f"send failed: {exc}") from exc

    def _recv_exact(self, n: int) -> bytes:
        chunks = []
        got = 0
        while got < n:
            try:
                part = self._sock.recv(n - got)
            except socket.timeout as exc:
                raise ChannelError("receive timed out") from exc
            except OSError as exc:
                raise ChannelError(f"receive failed: {exc}") from exc
            if not part:
                raise ChannelError("connection closed by peer")
            chunks.append(part)
            got += len(part)
        return b"".join(chunks)

    def recv_frame(self) -> bytes:
        header = self._recv_exact(_HEADER.size)
        (length,) = _HEADER.unpack(header)
        if _HEADER.size + length > MAX_FRAME_BYTES:
            raise ChannelError(f"peer announced oversized frame of {length} bytes")
        return header + self._recv_exact(length)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


class MessagePipe:
    """Typed message layer over a transport.

    Numbers outgoing frames 1, 2, 3, ... per session. A read accepts only
    the next number of the same session, of the kind the caller expects,
    with a payload of that kind's ``PAYLOADS`` entry, and returns it.
    """

    def __init__(self, transport, session_id: int):
        self._transport = transport
        self.session_id = session_id
        self._seq_out = 0
        self._seq_in = 0

    def send(self, kind: str, payload: dict) -> None:
        self._seq_out += 1
        msg = {"session_id": self.session_id, "sequence": self._seq_out, "kind": kind,
               "payload": payload}
        self._transport.send_frame(encode_frame(msg))

    def recv(self, expect_kind: str) -> dict:
        msg = decode_frame(self._transport.recv_frame()[_HEADER.size:])
        if msg["session_id"] != self.session_id:
            raise ProtocolDesyncError(
                f"session_id {msg['session_id']} does not match {self.session_id}"
            )
        if msg["sequence"] != self._seq_in + 1:
            raise ProtocolDesyncError(f"sequence {msg['sequence']}, expected {self._seq_in + 1}")
        self._seq_in += 1
        if msg["kind"] != expect_kind:
            raise ProtocolDesyncError(f"expected {expect_kind}, got {msg['kind']}")
        return _check_fields(msg["payload"], PAYLOADS[expect_kind])

    def close(self) -> None:
        self._transport.close()


def open_listener(host: str, port: int) -> socket.socket:
    """Bind and listen for a single peer; port 0 picks a free port."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        sock.bind((host, port))
        sock.listen(1)
    except OSError as exc:
        sock.close()
        raise ChannelError(f"cannot listen on {host}:{port}: {exc}") from exc
    return sock


def accept_one(listener: socket.socket, timeout: float = 30.0) -> socket.socket:
    listener.settimeout(timeout)
    try:
        conn, _addr = listener.accept()
    except (socket.timeout, OSError) as exc:
        raise ChannelError(f"accept failed: {exc}") from exc
    finally:
        listener.close()
    return conn


def connect_with_retry(host: str, port: int, deadline: float = 10.0) -> socket.socket:
    """Connect to a listener, retrying briefly while it comes up."""
    end = time.monotonic() + deadline
    last: Exception | None = None
    while time.monotonic() < end:
        try:
            return socket.create_connection((host, port), timeout=deadline)
        except OSError as exc:
            last = exc
            time.sleep(0.05)
    raise ChannelError(f"cannot connect to {host}:{port}: {last}")
