import json
import socket
import struct
import threading
import time

import numpy as np
import pytest

from b92sim.channel import (
    MAX_BITS_PER_BLOCK,
    MAX_FRAME_BYTES,
    MessagePipe,
    SocketTransport,
    accept_one,
    bits_to_hex,
    connect_with_retry,
    decode_frame,
    encode_frame,
    hex_to_bits,
    loopback_pair,
    open_listener,
)
from b92sim.errors import ChannelError, ProtocolDesyncError


def test_bits_hex_roundtrip():
    rng = np.random.default_rng(0)
    for n in (0, 1, 7, 8, 9, 1000):
        bits = rng.integers(0, 2, size=n, dtype=np.uint8)
        assert np.array_equal(hex_to_bits(bits_to_hex(bits), n), bits)


@pytest.mark.parametrize("s, n", [("ff", 4), ("f8", 4), ("01", 7), ("ff40", 9)])
def test_hex_to_bits_rejects_set_pad_bits(s, n):
    # bits_to_hex pads with zeros, so "ff" and "f0" must not both decode to 1111
    with pytest.raises(ProtocolDesyncError, match="pad bits"):
        hex_to_bits(s, n)


@pytest.mark.parametrize("s", ["f0 0f", " f00f", "f00f ", "f0\n0f"])
def test_hex_to_bits_refuses_whitespace(s):
    # bytes.fromhex skips whitespace, which bits_to_hex never writes
    assert hex_to_bits(s.replace(" ", "").replace("\n", ""), 16).sum() == 8
    with pytest.raises(ProtocolDesyncError, match="hex has 5 characters, expected 4 for 16 bits"):
        hex_to_bits(s, 16)


def frame(kind, payload, session_id, sequence):
    return {"session_id": session_id, "sequence": sequence, "kind": kind, "payload": payload}


# a receiver's Hello as the schema declares it
HELLO = {"wire_version": 2, "bits_per_block": 1024, "mode": "ideal", "eve": "none", "reconcile_block_size": 8,
         "error_sample_fraction": 0.25}


def test_frame_roundtrip():
    msg = frame(kind="Hello", payload={"x": 1}, session_id=7, sequence=3)
    data = encode_frame(msg)
    assert decode_frame(data[4:]) == msg


def test_frame_size_limit():
    big = "f" * (MAX_FRAME_BYTES * 2)
    msg = frame(kind="Block", payload={"results": big}, session_id=1, sequence=1)
    with pytest.raises(ChannelError):
        encode_frame(msg)


def test_unknown_kind_rejected():
    # a read refuses any kind but the one its step expects, known or not
    t_a, t_b = loopback_pair()
    MessagePipe(t_a, session_id=1).send("Gossip", {})
    with pytest.raises(ProtocolDesyncError, match="expected Hello, got Gossip"):
        MessagePipe(t_b, session_id=1).recv("Hello")


def test_malformed_frame():
    with pytest.raises(ProtocolDesyncError):
        decode_frame(b"not json at all")


GOOD_FRAME = frame("Hello", {}, session_id=5, sequence=1)


@pytest.mark.parametrize("obj", [
    [GOOD_FRAME], "Hello", 5, None,
    *({k: v for k, v in GOOD_FRAME.items() if k != field} for field in GOOD_FRAME),
    {**GOOD_FRAME, "kind": 3}, {**GOOD_FRAME, "kind": ["Hello"]}, {**GOOD_FRAME, "kind": None},
    {**GOOD_FRAME, "payload": []}, {**GOOD_FRAME, "payload": "x"}, {**GOOD_FRAME, "payload": None},
], ids=["list", "string", "number", "null",
        *(f"no_{field}" for field in GOOD_FRAME),
        "kind_int", "kind_list", "kind_null", "payload_list", "payload_string", "payload_null"])
def test_decode_frame_refuses_a_malformed_object(obj):
    with pytest.raises(ProtocolDesyncError, match="malformed frame"):
        decode_frame(json.dumps(obj).encode("utf-8"))


def test_pipe_sequence_and_session_checks():
    t_a, t_b = loopback_pair()
    a = MessagePipe(t_a, session_id=5)
    b = MessagePipe(t_b, session_id=5)
    a.send("Hello", HELLO)
    assert b.recv("Hello") == HELLO
    a.send("Done", {})
    with pytest.raises(ProtocolDesyncError):
        b.recv(expect_kind="Hello")

    # foreign session id
    t_a, t_b = loopback_pair()
    MessagePipe(t_a, session_id=1).send("Hello", {})
    with pytest.raises(ProtocolDesyncError):
        MessagePipe(t_b, session_id=2).recv("Hello")

    # replayed (non-increasing) sequence
    t_a, t_b = loopback_pair()
    data = encode_frame(frame("Hello", HELLO, session_id=3, sequence=1))
    t_a.send_frame(data)
    t_a.send_frame(data)
    b = MessagePipe(t_b, session_id=3)
    b.recv("Hello")
    with pytest.raises(ProtocolDesyncError, match="sequence 1, expected 2"):
        b.recv("Hello")

    # a skipped sequence number: a frame went missing in between
    for first in (2, 10**6):
        t_a, t_b = loopback_pair()
        t_a.send_frame(encode_frame(frame("Hello", {}, session_id=3, sequence=first)))
        with pytest.raises(ProtocolDesyncError, match=f"sequence {first}, expected 1"):
            MessagePipe(t_b, session_id=3).recv("Hello")


@pytest.mark.parametrize("field", ["session_id", "sequence"])
@pytest.mark.parametrize("value", ["5", 5.9, True], ids=["string", "float", "bool"])
def test_decode_frame_requires_integer_header_fields(field, value):
    obj = {"session_id": 5, "sequence": 1, "kind": "Hello", "payload": {}}
    obj[field] = value
    with pytest.raises(ProtocolDesyncError, match=f"{field} {value!r} is not int"):
        decode_frame(json.dumps(obj).encode("utf-8"))


def test_loopback_close_wakes_peer():
    t_a, t_b = loopback_pair()
    t_a.close()
    with pytest.raises(ChannelError):
        MessagePipe(t_b, session_id=1).recv("Hello")
    # frames queued before the close arrive first, and it stays closed
    t_a, t_b = loopback_pair()
    MessagePipe(t_a, session_id=1).send("Hello", HELLO)
    t_a.close()
    b = MessagePipe(t_b, session_id=1)
    assert b.recv("Hello") == HELLO
    for _ in range(2):
        with pytest.raises(ChannelError, match="closed"):
            b.recv("Hello")


def test_empty_loopback_read_raises_at_once():
    # both parties share one thread: a read before the peer has sent is
    # a missed turn, reported at once instead of waiting on a clock
    t_a, t_b = loopback_pair()
    t0 = time.perf_counter()
    with pytest.raises(ProtocolDesyncError, match="nothing queued"):
        t_b.recv_frame()
    assert time.perf_counter() - t0 < 0.5
    # the channel still works after the failed read, in both directions
    t_a.send_frame(b"x")
    assert t_b.recv_frame() == b"x"
    with pytest.raises(ProtocolDesyncError):
        t_a.recv_frame()


@pytest.mark.parametrize("n", [0, 5, 1024, 250_000])
def test_bit_frames_roundtrip(n):
    # a bit list is one hex field of one frame, read at the count the reader knows
    rng = np.random.default_rng(n + 1)
    bits = rng.integers(0, 2, size=n, dtype=np.uint8)
    t_a, t_b = loopback_pair()
    MessagePipe(t_a, session_id=9).send("Ciphertext", {"bits": bits_to_hex(bits), "chars": 0})
    got = MessagePipe(t_b, session_id=9).recv("Ciphertext")
    assert np.array_equal(hex_to_bits(got["bits"], n), bits)


def test_hex_to_bits_rejects_non_hex_bits():
    with pytest.raises(ProtocolDesyncError, match="not a hex string"):
        hex_to_bits("zz", 8)


def test_hex_to_bits_requires_exactly_the_bytes_of_its_count():
    # too few: 8 bits for a list of 16
    with pytest.raises(ProtocolDesyncError, match="hex carries 1 bytes, expected 2 for 16 bits"):
        hex_to_bits("ff", 16)
    # too many: trailing bytes that no bit of the list needs
    with pytest.raises(ProtocolDesyncError, match="hex carries 2 bytes, expected 1 for 8 bits"):
        hex_to_bits("ff00", 8)
    with pytest.raises(ProtocolDesyncError, match="hex carries 1 bytes, expected 0 for 0 bits"):
        hex_to_bits("00", 0)


def test_large_bit_lists_stay_under_frame_limit():
    # the largest frames a session sends: a Block of MAX_BITS_PER_BLOCK
    # pulses that all hit, with no sample, so a parity per 8 sifted bits,
    # and the Ciphertext of the longest chat message
    n = MAX_BITS_PER_BLOCK
    block = {"results": "ff" * (n // 8), "sample": "00" * (n // 8),
             "parities": "ff" * (n // 64), "block_size": 8}
    cipher = {"bits": "ff" * (n // 8), "chars": n // 8}
    sizes = []
    for kind, payload in (("Block", block), ("Ciphertext", cipher)):
        msg = frame(kind, payload, session_id=0x7FFFFFFF, sequence=10**12)
        data = encode_frame(msg)
        assert decode_frame(data[4:]) == msg
        sizes.append(len(data))
    assert sizes[1] < sizes[0] <= MAX_FRAME_BYTES
    # the bound leaves no more room than the frame's other fields need
    assert MAX_FRAME_BYTES - sizes[0] < 1024


def test_a_frame_at_the_bound_is_taken_and_one_byte_over_is_refused():
    # a Done whose reason fills the frame exactly; the socket read refuses
    # a length one byte over (test_socket_peer_announcing_an_oversized_frame_is_refused)
    msg = frame("Done", {"more": False, "ber": 0.0, "bias": None, "alarm": True, "reason": ""},
                session_id=1, sequence=1)
    msg["payload"]["reason"] = "x" * (MAX_FRAME_BYTES - len(encode_frame(msg)))
    fits = encode_frame(msg)
    assert len(fits) == MAX_FRAME_BYTES
    msg["payload"]["reason"] += "x"
    with pytest.raises(ChannelError, match=f"frame of {MAX_FRAME_BYTES - 3} bytes exceeds"):
        encode_frame(msg)
    a, b = socket.socketpair()
    writer = threading.Thread(target=a.sendall, args=(fits,))
    try:
        writer.start()
        assert SocketTransport(b, timeout=5.0).recv_frame() == fits
    finally:
        writer.join(timeout=5.0)
        a.close()
        b.close()
    assert not writer.is_alive()


def test_socket_transport_roundtrip():
    listener = open_listener("127.0.0.1", 0)
    port = listener.getsockname()[1]
    server_msg = {}

    def serve():
        conn = accept_one(listener, timeout=5.0)
        pipe = MessagePipe(SocketTransport(conn, timeout=5.0), session_id=4)
        server_msg["got"] = pipe.recv(expect_kind="Hello")
        pipe.send("HelloReply", {"ok": True})
        pipe.close()

    th = threading.Thread(target=serve)
    th.start()
    sock = connect_with_retry("127.0.0.1", port, deadline=5.0)
    pipe = MessagePipe(SocketTransport(sock, timeout=5.0), session_id=4)
    pipe.send("Hello", HELLO)
    reply = pipe.recv("HelloReply")
    pipe.close()
    th.join(timeout=5.0)
    assert server_msg["got"] == HELLO
    assert reply == {"ok": True}


def test_socket_transport_turns_nagle_off_on_tcp_only():
    # without TCP_NODELAY each turn's last frame waits for the peer's delayed ACK
    listener = open_listener("127.0.0.1", 0)
    client = connect_with_retry("127.0.0.1", listener.getsockname()[1], deadline=5.0)
    server = accept_one(listener, timeout=5.0)
    try:
        for sock in (client, server):
            SocketTransport(sock, timeout=5.0)
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
    finally:
        client.close()
        server.close()
    # an AF_UNIX pair has no TCP options and is taken as it is
    a, b = (SocketTransport(s, timeout=5.0) for s in socket.socketpair())
    try:
        data = encode_frame(frame("Hello", HELLO, session_id=4, sequence=1))
        a.send_frame(data)
        assert b.recv_frame() == data
    finally:
        a.close()
        b.close()


def test_socket_peer_disappearing_raises():
    listener = open_listener("127.0.0.1", 0)
    port = listener.getsockname()[1]

    def serve():
        conn = accept_one(listener, timeout=5.0)
        conn.close()  # vanish without a frame

    th = threading.Thread(target=serve)
    th.start()
    sock = connect_with_retry("127.0.0.1", port, deadline=5.0)
    pipe = MessagePipe(SocketTransport(sock, timeout=5.0), session_id=4)
    th.join(timeout=5.0)
    with pytest.raises(ChannelError):
        pipe.recv("Hello")
    pipe.close()


def test_socket_peer_announcing_an_oversized_frame_is_refused():
    # the length prefix alone is refused, before any body is read: here
    # the length of a frame one byte over the bound
    a, b = socket.socketpair()
    try:
        a.sendall(struct.pack(">I", MAX_FRAME_BYTES - 3))
        with pytest.raises(ChannelError, match=f"oversized frame of {MAX_FRAME_BYTES - 3} bytes"):
            SocketTransport(b, timeout=1.0).recv_frame()
    finally:
        a.close()
        b.close()


def test_connect_refused():
    # grab a port and close it again so nothing is listening there
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    with pytest.raises(ChannelError):
        connect_with_retry("127.0.0.1", port, deadline=0.3)
