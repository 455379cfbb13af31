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
    PAYLOADS,
    SocketTransport,
    accept_one,
    connect_with_retry,
    decode_frame,
    encode_frame,
    loopback_pair,
    open_listener,
)
from b92sim.errors import ChannelError, ProtocolDesyncError


def frame(kind, payload, session_id, sequence):
    return {"session_id": session_id, "sequence": sequence, "kind": kind, "payload": payload}


# a receiver's Hello as the layout table declares it
HELLO = {"wire_version": 5, "bits_per_block": 1024, "mode": "ideal", "eve": "none"}


def read_ciphertext(count: int, data: bytes):
    """A Ciphertext frame carrying ``count`` bits in the bytes ``data``, read by a pipe."""
    body = struct.pack(">IIBI", 9, 1, list(PAYLOADS).index("Ciphertext") + 1, count) + data
    t_a, t_b = loopback_pair()
    t_a.send_frame(struct.pack(">I", len(body)) + body)
    return MessagePipe(t_b, session_id=9).recv("Ciphertext")["bits"]


@pytest.mark.parametrize("s, n", [("ff", 4), ("f8", 4), ("01", 7), ("ff40", 9)])
def test_a_bit_list_with_set_pad_bits_is_refused(s, n):
    # the writer pads with zeros, so "ff" and "f0" must not both carry 1111
    with pytest.raises(ProtocolDesyncError, match=f"sets pad bits beyond bit {n}$"):
        read_ciphertext(n, bytes.fromhex(s))


def test_a_bit_list_needs_exactly_the_bytes_of_its_count():
    assert read_ciphertext(16, b"\xff\x00").tolist() == [1] * 8 + [0] * 8
    # too few: 8 bits for a list of 16
    with pytest.raises(ProtocolDesyncError, match="bits of 16 bits runs past the 1 bytes left"):
        read_ciphertext(16, b"\xff")
    # too many: trailing bytes that no bit of the list needs
    with pytest.raises(ProtocolDesyncError, match="1 bytes trail the Ciphertext payload"):
        read_ciphertext(8, b"\xff\x00")
    with pytest.raises(ProtocolDesyncError, match="1 bytes trail the Ciphertext payload"):
        read_ciphertext(0, b"\x00")


def test_frame_roundtrip():
    msg = frame(kind="Hello", payload=HELLO, session_id=7, sequence=3)
    data = encode_frame(msg)
    assert decode_frame(data[4:]) == msg


def test_frame_size_limit():
    big = np.ones(MAX_FRAME_BYTES * 8, np.uint8)
    msg = frame(kind="Ciphertext", payload={"bits": big}, session_id=1, sequence=1)
    with pytest.raises(ChannelError, match="exceeds the limit"):
        encode_frame(msg)


DONE = {"reason": None}


def test_unknown_kind_rejected():
    # a read refuses any kind but those its step allows, known or not;
    # no code is written for a kind outside the table
    with pytest.raises(ChannelError, match="Gossip payload"):
        MessagePipe(loopback_pair()[0], session_id=1).send("Gossip", {})
    t_a, t_b = loopback_pair()
    MessagePipe(t_a, session_id=1).send("Done", DONE)
    with pytest.raises(ProtocolDesyncError, match="expected Hello, got Done"):
        MessagePipe(t_b, session_id=1).recv("Hello")
    # a read that allows two kinds takes either, and refuses a third
    t_a, t_b = loopback_pair()
    a, b = MessagePipe(t_a, session_id=1), MessagePipe(t_b, session_id=1)
    for kind, payload in (("Done", DONE), ("Hello", HELLO),
                          ("Ciphertext", {"bits": np.zeros(8, np.uint8)})):
        a.send(kind, payload)
    assert b.recv("Block", "Done") == DONE
    assert b.recv("Hello", "Done") == HELLO
    with pytest.raises(ProtocolDesyncError, match="expected Block or Done, got Ciphertext"):
        b.recv("Block", "Done")
    t_a, t_b = loopback_pair()
    data = encode_frame(frame("Done", DONE, session_id=1, sequence=1))
    t_a.send_frame(data[:12] + bytes([len(PAYLOADS) + 1]) + data[13:])
    with pytest.raises(ProtocolDesyncError, match=f"unknown kind code {len(PAYLOADS) + 1}"):
        MessagePipe(t_b, session_id=1).recv("Hello")


def test_malformed_frame():
    with pytest.raises(ProtocolDesyncError):
        decode_frame(b"not json at all")


GOOD_FRAME = encode_frame(frame("Done", DONE, session_id=5, sequence=1))[4:]


@pytest.mark.parametrize("body", [
    # frames of the JSON wire of version 2
    b'[{"session_id":5,"sequence":1,"kind":"Hello","payload":{}}]', b'"Hello"', b"5", b"null",
    # a body that stops inside the head, or before the payload
    GOOD_FRAME[:2], GOOD_FRAME[:6], GOOD_FRAME[:8], GOOD_FRAME[:9],
    # kind codes outside the table
    GOOD_FRAME[:8] + bytes([len(PAYLOADS) + 1]) + GOOD_FRAME[9:],
    GOOD_FRAME[:8] + b"\xff" + GOOD_FRAME[9:], GOOD_FRAME[:8] + b"\x00" + GOOD_FRAME[9:],
    # payloads that are not a Done's one code byte, 0 to 8, or a Hello's 10 bytes
    GOOD_FRAME + b"\x01", GOOD_FRAME[:9] + b"x",
    GOOD_FRAME[:8] + bytes([list(PAYLOADS).index("Hello") + 1]) + bytes(16),
], ids=["list", "string", "number", "null",
        "no_session_id", "no_sequence", "no_kind", "no_payload",
        "kind_int", "kind_list", "kind_null", "payload_list", "payload_string", "payload_null"])
def test_decode_frame_refuses_a_malformed_object(body):
    assert decode_frame(GOOD_FRAME)["payload"] == DONE
    with pytest.raises(ProtocolDesyncError, match="malformed frame"):
        decode_frame(body)


def test_pipe_sequence_and_session_checks():
    t_a, t_b = loopback_pair()
    a = MessagePipe(t_a, session_id=5)
    b = MessagePipe(t_b, session_id=5)
    a.send("Hello", HELLO)
    assert b.recv("Hello") == HELLO
    a.send("Done", DONE)
    with pytest.raises(ProtocolDesyncError):
        b.recv("Hello")

    # foreign session id
    t_a, t_b = loopback_pair()
    MessagePipe(t_a, session_id=1).send("Hello", HELLO)
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
        t_a.send_frame(encode_frame(frame("Hello", HELLO, session_id=3, sequence=first)))
        with pytest.raises(ProtocolDesyncError, match=f"sequence {first}, expected 1"):
            MessagePipe(t_b, session_id=3).recv("Hello")


@pytest.mark.parametrize("field", ["session_id", "sequence"])
@pytest.mark.parametrize("value", ["5", 5.9, True], ids=["string", "float", "bool"])
def test_decode_frame_requires_integer_header_fields(field, value):
    # the head's session id and sequence are four-byte unsigned integers,
    # which the read gives as ints, so the writer refuses any other type
    obj = frame("Done", DONE, session_id=5, sequence=1)
    assert type(decode_frame(encode_frame(obj)[4:])[field]) is int
    obj[field] = value
    with pytest.raises(ChannelError, match=f"{field} {value!r}.* is not an int"):
        encode_frame(obj)


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


@pytest.mark.parametrize("n", [0, 5, 1024, 250_000, 1, 7, 8, 9, 1000])
def test_bit_frames_roundtrip(n):
    # a bit list is its count and its packed bytes in one frame
    rng = np.random.default_rng(n + 1)
    bits = rng.integers(0, 2, size=n, dtype=np.uint8)
    t_a, t_b = loopback_pair()
    MessagePipe(t_a, session_id=9).send("Ciphertext", {"bits": bits})
    got = MessagePipe(t_b, session_id=9).recv("Ciphertext")["bits"]
    assert got.dtype == np.uint8 and np.array_equal(got, bits)


def largest_block(extra_bits=0):
    """The largest frame a session sends: a Block of MAX_BITS_PER_BLOCK
    pulses that all hit, with no sample, so a parity per 8 sifted bits;
    ``extra_bits`` more in its hit record."""
    n = MAX_BITS_PER_BLOCK
    return frame("Block", {"results": np.ones(n + extra_bits, np.uint8),
                           "sample": np.zeros(n, np.uint8),
                           "parities": np.ones(n // 8, np.uint8)},
                 session_id=0x7FFFFFFF, sequence=2**32 - 1)


def test_large_bit_lists_stay_under_frame_limit():
    # the bound is exactly the largest Block; the Ciphertext of the
    # longest chat message is smaller
    cipher = frame("Ciphertext", {"bits": np.ones(MAX_BITS_PER_BLOCK, np.uint8)}, 1, 1)
    sizes = []
    for msg in (largest_block(), cipher):
        data = encode_frame(msg)
        decoded = decode_frame(data[4:])
        assert all(np.array_equal(decoded["payload"][k], v) for k, v in msg["payload"].items())
        sizes.append(len(data))
    assert sizes[1] < sizes[0] == MAX_FRAME_BYTES == 1_062_525


def test_a_frame_at_the_bound_is_taken_and_one_byte_over_is_refused():
    # the socket read refuses a length one byte over too
    # (test_socket_peer_announcing_an_oversized_frame_is_refused)
    fits = encode_frame(largest_block())
    assert len(fits) == MAX_FRAME_BYTES
    with pytest.raises(ChannelError, match=f"frame of {MAX_FRAME_BYTES - 3} bytes exceeds"):
        encode_frame(largest_block(extra_bits=8))
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
        server_msg["got"] = pipe.recv("Hello")
        pipe.send("Done", DONE)
        pipe.close()

    th = threading.Thread(target=serve)
    th.start()
    sock = connect_with_retry("127.0.0.1", port, deadline=5.0)
    pipe = MessagePipe(SocketTransport(sock, timeout=5.0), session_id=4)
    pipe.send("Hello", HELLO)
    reply = pipe.recv("Done")
    pipe.close()
    th.join(timeout=5.0)
    assert server_msg["got"] == HELLO
    assert reply == DONE


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
