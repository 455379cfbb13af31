"""Classical public channel: framing, transports, and bit-list transfer.

Wire format: each frame is a 4-byte big-endian length prefix followed
by one UTF-8 JSON object with exactly the fields {session_id,
sequence, kind, payload}. That object is the message itself, and a
read returns its payload, which must hold exactly the fields that
``PAYLOADS`` declares for its kind. A field missing, extra or of another
type (NaN and Infinity, which JSON lacks, are of none, and so is a number
literal too large for a double, such as 1e999), in the frame or in the
payload, is refused. Frames never exceed 64 KiB, so long bit
lists are split across consecutive frames of the same kind carrying
{total, offset, bits} with the bits hex-encoded (packed big-endian).

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

MAX_FRAME_BYTES = 64 * 1024
_HEADER = struct.Struct(">I")
# payload bits per chunk; 100k bits -> 25 kB of hex, comfortably per-frame
CHUNK_BITS = 100_000


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
# types a field's value may have; a bit list's later chunks carry BIT_LIST alone
_FRAME_FIELDS = {"session_id": (int,), "sequence": (int,), "kind": (str,), "payload": (dict,)}
BIT_LIST = {"total": (int,), "offset": (int,), "bits": (str,)}
PAYLOADS = {
    "Hello": {"bits_per_block": (int,), "mode": (str,), "eve": (str,),
              "reconcile_block_size": (int,), "error_sample_fraction": (float,)},
    **dict.fromkeys(["Results", "ErrorCheckIndices", "DiscardList"], BIT_LIST),
    "ErrorCheckValues": {**BIT_LIST, "bias": (type(None), int, float)},
    "Parities": {**BIT_LIST, "block_size": (int,)},
    "Ciphertext": {**BIT_LIST, "chars": (int,)},
    "Done": {"more": (bool,), "ber": (float,), "bias": (type(None), int, float),
             "alarm": (bool,), "reason": (type(None), str)},
}
HELLO_REPLY = {"ok": (bool,)}  # the sender's answer to the receiver's Hello


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
        raise ChannelError(f"frame of {len(body)} bytes exceeds the 64 KiB limit")
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
    with a payload of ``fields`` (by default ``PAYLOADS[kind]``), and returns it.
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

    def recv(self, expect_kind: str, fields: dict | None = None) -> dict:
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
        return _check_fields(msg["payload"], PAYLOADS[expect_kind] if fields is None else fields)

    def close(self) -> None:
        self._transport.close()


def send_bit_frames(
    pipe: MessagePipe, kind: str, bits: np.ndarray, extra: dict | None = None
) -> None:
    """Ship a bit list as one or more frames of the same kind.

    Each frame carries {total, offset, bits}; any ``extra`` fields ride
    on the first frame only.
    """
    arr = np.asarray(bits, dtype=np.uint8)
    for offset in range(0, max(len(arr), 1), CHUNK_BITS):  # an empty list takes one frame
        payload = {"total": len(arr), "offset": offset,
                   "bits": bits_to_hex(arr[offset: offset + CHUNK_BITS])}
        if offset == 0 and extra:
            payload.update(extra)
        pipe.send(kind, payload)


def recv_bit_frames(pipe: MessagePipe, kind: str, max_total: int) -> tuple[np.ndarray, dict]:
    """Reassemble a bit list sent by send_bit_frames.

    ``max_total`` is the longest list the caller can accept; it is
    checked before anything is allocated. A larger total, a chunk that
    does not start where the last one ended, or bits that are not hex
    raise ProtocolDesyncError. Returns the bits and the first frame's
    payload (for extra fields).
    """
    head = payload = pipe.recv(expect_kind=kind)
    total = head["total"]
    if not 0 <= total <= max_total:
        raise ProtocolDesyncError(f"{kind} announces {total} bits, expected at most {max_total}")
    # a single chunk is returned as decoded; longer lists fill one array
    out = np.empty(total, dtype=np.uint8) if total > CHUNK_BITS else None
    received = 0
    while True:
        if (payload["offset"], payload["total"]) != (received, total):
            raise ProtocolDesyncError(
                f"{kind} chunk at offset {payload['offset']} of {payload['total']}, "
                f"expected offset {received} of {total}"
            )
        n = min(CHUNK_BITS, total - received)
        bits = hex_to_bits(payload["bits"], n)
        if out is None:
            return bits, head
        out[received: received + n] = bits
        received += n
        if received >= total:
            return out, head
        payload = pipe.recv(kind, BIT_LIST)


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
