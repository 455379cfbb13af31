"""Classical public channel: binary frames and the transports that carry them.

Wire format (``WIRE_VERSION`` 5, which the Hello carries). A frame is a
``>I`` length of the bytes after it; the ``>IIB`` session id, sequence
and kind code (the kind's place in ``PAYLOADS``, from 1); and the
payload: one ``struct`` of its fields in ``PAYLOADS`` order, followed
by the ``np.packbits`` bytes (big-endian, zero pad bits) of each bit
list. Every field is a count, a position or a bit: ``UINT`` is a
``>I``, a tuple (an enum) one of its values as the byte of its index,
and ``BITS`` a list of 0/1 bits as its four-byte count. So each message
has one frame, and a read refuses every other with ProtocolDesyncError:
a length prefix that is not the frame's, an unknown kind code, a
session or sequence that is not the next, a code byte out of range, a
set pad bit, a bit count beyond the bytes left, or a trailing byte.
Each turn is one message, and ``MAX_FRAME_BYTES`` is the largest frame
a valid session sends.

The same framing runs over an in-process loopback (two deques, read in
turn by one thread) or a TCP socket (``SocketTransport``), so the wire
is identical in both modes and tests can inspect it.
"""
from __future__ import annotations

import socket
import struct
import time
from collections import deque

import numpy as np

from .errors import ChannelError, ProtocolDesyncError

# pulses per block, checked before any is drawn: one Physical block with
# Eve at this size peaked at 266 MB resident (235 MB above the import)
MAX_BITS_PER_BLOCK = 4_000_000
# the format of the frames and payloads below, which the Hello carries
WIRE_VERSION = 5

# a codec that is not a tuple is its struct format; BITS, four bytes as >I, is a list's count
UINT, BITS = "I", "L"
PAYLOADS = {
    "Hello": {"wire_version": UINT, "bits_per_block": UINT, "mode": ("ideal", "physical"),
              "eve": ("none", "fixed")},
    "Block": {"results": BITS, "sample": BITS, "parities": BITS},
    "Answer": {"values": BITS, "zeros": UINT, "discard": BITS},
    # the alarm's reasons, then the sender's refusal of the Hello
    "Done": {"reason": (None, "sample", "ber", "bias", "sample+ber", "sample+bias", "ber+bias",
                        "sample+ber+bias", "config")},
    "Ciphertext": {"bits": BITS},
}
_LENGTH, _HEAD, _FRAME_HEAD = struct.Struct(">I"), struct.Struct(">IIB"), struct.Struct(">IIIB")
# kind -> (kind code, struct of the fields, (name, codec) of each field)
_PLANS = {k: (i, struct.Struct(">" + "".join("B" if type(c) is tuple else c for c in f.values())),
              tuple(f.items())) for i, (k, f) in enumerate(PAYLOADS.items(), start=1)}
_KINDS = (None, *PAYLOADS)
# a Block of n = MAX_BITS_PER_BLOCK pulses that all hit, no sample: hit record
# and sample mask n / 8 bytes each, parities (one per 8 bits) n / 64; 1.07 MB
MAX_FRAME_BYTES = (_LENGTH.size + _HEAD.size + _PLANS["Block"][1].size
                   + 2 * (MAX_BITS_PER_BLOCK // 8) + MAX_BITS_PER_BLOCK // 64)


def encode_frame(msg: dict) -> bytes:
    """The frame of a message {session_id, sequence, kind, payload}; ChannelError
    if a field is not of its codec (never a bool) or the frame is over the bound."""
    kind, payload, sid, seq = msg["kind"], msg["payload"], msg["session_id"], msg["sequence"]
    if kind not in _PLANS or payload.keys() != PAYLOADS[kind].keys():
        raise ChannelError(f"{kind} payload {sorted(payload)} is not of the fields of its kind")
    if type(sid) is not int or type(seq) is not int:
        raise ChannelError(f"session_id {sid!r} or sequence {seq!r} is not an int")
    code, layout, fields = _PLANS[kind]
    scalars, lists = [], []
    try:
        for name, codec in fields:
            value = payload[name]
            if type(value) is bool or type(codec) is tuple and value not in codec:
                raise ChannelError(f"{kind} {name} {value!r} is not of codec {codec!r}")
            if codec is BITS:
                lists.append(np.packbits(value).tobytes())
                value = len(value)
            elif type(codec) is tuple:
                value = codec.index(value)
            scalars.append(value)
        length = _HEAD.size + layout.size + sum(map(len, lists))
        head, body = _FRAME_HEAD.pack(length, sid, seq, code), layout.pack(*scalars)
    except (struct.error, TypeError, ValueError) as exc:
        raise ChannelError(f"{kind} payload does not fit its layout ({exc}): {payload!r}") from exc
    if _LENGTH.size + length > MAX_FRAME_BYTES:
        raise ChannelError(f"frame of {length} bytes exceeds the limit of {MAX_FRAME_BYTES}")
    return b"".join([head, body, *lists])


def _refuse(reason: str):
    raise ProtocolDesyncError(f"malformed frame: {reason}")


def decode_frame(body) -> dict:
    """The message of a frame's bytes after the length prefix; bit lists are uint8 arrays."""
    end = len(body)
    if end < _HEAD.size:
        _refuse(f"{end} bytes, fewer than the {_HEAD.size} of its head")
    session_id, sequence, code = _HEAD.unpack_from(body)
    if not 0 < code < len(_KINDS):
        _refuse(f"unknown kind code {code}")
    kind = _KINDS[code]
    _, layout, fields = _PLANS[kind]
    if end < (at := _HEAD.size + layout.size):
        _refuse(f"{kind} of {end - _HEAD.size} bytes, fewer than the {layout.size} of its fields")
    payload = {}
    for (name, codec), value in zip(fields, layout.unpack_from(body, _HEAD.size)):
        if codec is BITS:
            start, at = at, at + (value + 7) // 8
            if at > end:
                _refuse(f"{kind} {name} of {value} bits runs past the {end - start} bytes left")
            if value & 7 and body[at - 1] & (0xFF >> (value & 7)):
                _refuse(f"{kind} {name} sets pad bits beyond bit {value}")
            value = np.unpackbits(np.frombuffer(body, np.uint8, at - start, start), count=value)
        elif type(codec) is tuple:
            if value >= len(codec):
                _refuse(f"{kind} {name} code {value} is out of range")
            value = codec[value]
        payload[name] = value
    if at != end:
        _refuse(f"{end - at} bytes trail the {kind} payload")
    return {"session_id": session_id, "sequence": sequence, "kind": kind, "payload": payload}


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
    a_to_b, b_to_a = deque(), deque()
    return LoopbackTransport(b_to_a, a_to_b), LoopbackTransport(a_to_b, b_to_a)


class SocketTransport:
    """Blocking transport for one peer connection over a stream socket.

    Each frame leaves in one ``sendall``. On a TCP socket Nagle's
    algorithm is off (TCP_NODELAY): with it on, a turn's small frame
    waits for the peer's delayed ACK, about 40 ms a block. Sends are not
    batched: each turn of a session is one frame, but for the chat
    sender's last (its Done and Ciphertext), which no read follows. An
    AF_UNIX socket pair has no such timer and no TCP option, and is
    taken as it is.
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
        buf, got = bytearray(n), 0
        while got < n:
            try:
                part = self._sock.recv_into(memoryview(buf)[got:])
            except socket.timeout as exc:
                raise ChannelError("receive timed out") from exc
            except OSError as exc:
                raise ChannelError(f"receive failed: {exc}") from exc
            if not part:
                raise ChannelError("connection closed by peer")
            got += part
        return bytes(buf)

    def recv_frame(self) -> bytes:
        header = self._recv_exact(_LENGTH.size)
        (length,) = _LENGTH.unpack(header)
        if _LENGTH.size + length > MAX_FRAME_BYTES:
            raise ChannelError(f"peer announced oversized frame of {length} bytes")
        return header + self._recv_exact(length)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


class MessagePipe:
    """Typed message layer over a transport: numbers outgoing frames 1,
    2, 3, ... per session, and a read returns the payload of a frame of
    its length prefix, the next number of the same session and one of
    the kinds the caller allows. No two kinds have the same fields, so
    the payload's fields tell which kind it is."""

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

    def recv(self, *kinds: str) -> dict:
        frame = self._transport.recv_frame()
        if len(frame) < _LENGTH.size or _LENGTH.unpack_from(frame)[0] != len(frame) - _LENGTH.size:
            raise ProtocolDesyncError(f"malformed frame: {len(frame)} bytes do not match "
                                      "their length prefix")
        msg = decode_frame(frame[_LENGTH.size:])
        if msg["session_id"] != self.session_id:
            raise ProtocolDesyncError(f"session_id {msg['session_id']} does not match "
                                      f"{self.session_id}")
        if msg["sequence"] != self._seq_in + 1:
            raise ProtocolDesyncError(f"sequence {msg['sequence']}, expected {self._seq_in + 1}")
        self._seq_in += 1
        if msg["kind"] not in kinds:
            raise ProtocolDesyncError(f"expected {' or '.join(kinds)}, got {msg['kind']}")
        return msg["payload"]

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
