import hashlib
import inspect
import math
import socket
import struct
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from b92sim.channel import (
    MAX_FRAME_BYTES,
    PAYLOADS,
    MessagePipe,
    SocketTransport,
    decode_frame,
    encode_frame,
    loopback_pair,
)
from b92sim.errors import (
    ChannelError,
    ConfigError,
    ModelValidityError,
    ProtocolDesyncError,
    SessionAbort,
)
from b92sim import hardware, protocol
from b92sim.cli import CHAT_EMPTY_BLOCKS, _chat_continue
from b92sim.hardware import (
    DetectorParams,
    DetectorState,
    FiberParams,
    HardwareProfile,
    InterferometerConfig,
    SourceParams,
    dark_probability,
    fiber_transmission,
    gate_block,
    gate_detector,
    with_fields,
)
from b92sim.protocol import (
    ALARM_BIAS_THRESHOLD,
    MAX_BITS_PER_BLOCK,
    RECONCILE_BLOCK_SIZE,
    AliceEngine,
    BobEngine,
    EveStrategy,
    Mode,
    PhysicsKernel,
    RoundLogs,
    SessionConfig,
    _sift,
    _split,
    alice_prepare,
    analytic_ber,
    apply_block_verdicts,
    ber_crossing_distance,
    block_parities,
    block_yield,
    bob_projector,
    generate_bits,
    predict_key_rate,
    run_session,
)
from b92sim.photonics import central_window
from b92sim.qstate import DOWN, P_LEFT, RIGHT, UP, inner, pass_probability

from oracles import (
    effective_hit_prob,
    eve_intercept,
    reconcile_block_parity,
    sample_photon_count,
    states_equal,
    thin_photons,
)
from payloads import broken, field_at, fmt, payload_bytes, put, reframed


def make_cfg(**kw):
    base = dict(seed_alice=11, seed_bob=22, seed_physics=33)
    base.update(kw)
    return SessionConfig(**base)


def noiseless_hw(**kw):
    params = dict(
        source=SourceParams(ideal_single_photon=True),
        fiber=FiberParams(length_km=0.0),
        detector=DetectorParams(efficiency=1.0, dark_rate=0.0),
        interferometer=InterferometerConfig(visibility=1.0),
    )
    params.update(kw)
    return HardwareProfile(**params)


# ---------------------------------------------------------------------------
# bit generation and state tables


def test_generate_bits_deterministic():
    a = generate_bits(1000, np.random.default_rng(4))
    b = generate_bits(1000, np.random.default_rng(4))
    c = generate_bits(1000, np.random.default_rng(5))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_generate_bits_fairness():
    bits = generate_bits(1024, np.random.default_rng(6))
    assert abs(np.mean(bits == 0) - 0.5) < 0.05


@pytest.mark.parametrize("n", [*range(1, 10), 1023, 1024, 1025, 65_536, 2_000_001])
@pytest.mark.parametrize("before", ["fresh", "uint8_draw", "choice"])
def test_generate_bits_equals_numpys_uint8_draw(n, before):
    # the premise of generate_bits: the same bits, the same dtype and the
    # same generator state after, also from half a 64-bit word buffered
    for seed in (0, 5, 102):
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (ours, numpys):
            if before == "uint8_draw":
                rng.integers(0, 2, size=3, dtype=np.uint8)
            elif before == "choice":
                rng.choice(1000, size=10, replace=False)
        if before != "fresh":
            assert ours.bit_generator.state["has_uint32"] == 1
        got = generate_bits(n, ours)
        want = numpys.integers(0, 2, size=n, dtype=np.uint8)
        assert got.dtype == want.dtype and got.shape == (n,)
        assert np.array_equal(got, want)
        assert ours.bit_generator.state == numpys.bit_generator.state


def test_generate_bits_rejects_zero():
    with pytest.raises(ValueError):
        generate_bits(0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        generate_bits(8, np.random.default_rng(0), blocks=0)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 1023, 1024, 1025])
@pytest.mark.parametrize("before", ["fresh", "choice"])
def test_generate_bits_of_a_pass_equal_one_call_a_block(n, before):
    # a pass's draw gives each block its own whole 32-bit words: where
    # n % 4 != 0 a block's last word has spare bytes, which a call of its
    # own drops, so the rows and the state after are those of k calls
    for seed in (0, 5):
        whole, single = np.random.default_rng(seed), np.random.default_rng(seed)
        if before == "choice":  # half a 64-bit word buffered
            for rng in (whole, single):
                rng.choice(1000, size=10, replace=False)
        got = generate_bits(n, whole, blocks=6)
        want = np.concatenate([generate_bits(n, single) for _ in range(6)])
        assert got.dtype == np.uint8 and got.shape == (6 * n,)
        assert np.array_equal(got, want)
        assert whole.bit_generator.state == single.bit_generator.state


def test_preparation_and_measurement_tables():
    assert states_equal(alice_prepare(0), UP)
    assert states_equal(alice_prepare(1), RIGHT)
    assert bob_projector(0) is P_LEFT
    assert abs(abs(inner(alice_prepare(0), alice_prepare(1))) - 1 / math.sqrt(2)) < 1e-12
    for b in (0, 1):
        assert pass_probability(alice_prepare(b), bob_projector(1 - b)) == pytest.approx(
            0.0, abs=1e-12
        )
        assert pass_probability(alice_prepare(b), bob_projector(b)) == pytest.approx(
            0.5, abs=1e-12
        )
    for table in (alice_prepare, bob_projector):
        with pytest.raises(ValueError, match="bit must be 0 or 1, got 2"):
            table(2)


def test_transmit_block_refuses_bit_blocks_of_unequal_length():
    kernel = PhysicsKernel(make_cfg(bits_per_block=8), np.random.default_rng(77))
    with pytest.raises(ProtocolDesyncError, match="bit blocks differ in length"):
        kernel.transmit_block(np.zeros(8, np.uint8), np.zeros(7, np.uint8))


# ---------------------------------------------------------------------------
# the eavesdropper


def test_eve_none_passthrough():
    rng = np.random.default_rng(0)
    guess, fwd = eve_intercept(RIGHT, EveStrategy.NONE, rng)
    assert guess is None
    assert fwd is RIGHT


def test_eve_on_up_state():
    rng = np.random.default_rng(1)
    for _ in range(100):
        guess, fwd = eve_intercept(UP, EveStrategy.FIXED_PROJECTION, rng)
        assert guess == 0
        assert states_equal(fwd, UP)


def test_eve_on_right_state():
    rng = np.random.default_rng(2)
    guesses = []
    for _ in range(20_000):
        guess, fwd = eve_intercept(RIGHT, EveStrategy.FIXED_PROJECTION, rng)
        guesses.append(guess)
        if guess == 1:
            assert states_equal(fwd, DOWN)
        else:
            assert states_equal(fwd, UP)
    assert np.mean(guesses) == pytest.approx(0.5, abs=0.01)


def test_eve_guess_statistics_over_random_stream():
    # exact values from enumerating the projection statistics:
    # 1-guesses arise only from the fail branch of the superposition
    # state, so they are always right and cover 1/4 of the pulses;
    # 0-guesses are right with probability (1/2)/(3/4) = 2/3, and the
    # overall record matches the sent bit 3/4 of the time.
    rng = np.random.default_rng(3)
    n = 100_000
    alice_bits = generate_bits(n, rng)
    guesses = np.empty(n, dtype=np.int8)
    for i, a in enumerate(alice_bits):
        guesses[i], _ = eve_intercept(alice_prepare(int(a)), EveStrategy.FIXED_PROJECTION, rng)
    ones = guesses == 1
    assert np.mean(ones) == pytest.approx(0.25, abs=0.01)
    assert np.all(alice_bits[ones] == 1)
    assert np.mean(alice_bits[~ones] == 0) == pytest.approx(2 / 3, abs=0.01)
    assert np.mean(alice_bits == guesses) == pytest.approx(0.75, abs=0.01)


# ---------------------------------------------------------------------------
# transmission through the physics kernel, on constant-bit blocks


def transmit(cfg, alice_bit, bob_bit, n, seed):
    """The round log of one block through a fresh kernel."""
    logs = RoundLogs()
    kernel = PhysicsKernel(cfg, np.random.default_rng(seed), logs)
    kernel.transmit_block(
        np.full(n, alice_bit, dtype=np.uint8), np.full(n, bob_bit, dtype=np.uint8)
    )
    return logs


def test_transmit_round_ideal_differing_bits_never_hit():
    cfg = make_cfg()
    assert not transmit(cfg, 0, 1, 2000, 7).hits.any()
    assert not transmit(cfg, 1, 0, 2000, 7).hits.any()


def test_transmit_round_ideal_same_bits_half():
    hits = transmit(make_cfg(), 0, 0, 20_000, 8).hits
    assert hits.mean() == pytest.approx(0.5, abs=0.015)


def test_transmit_round_post_fail_state_passes_zero_measurement_half():
    # after Eve's fail branch the forwarded down state meets the
    # receiver's 0-measurement: it passes half the time, against a
    # strict never without the eavesdropper
    out = transmit(make_cfg(eve=EveStrategy.FIXED_PROJECTION), 1, 0, 40_000, 9)
    fails = out.eve_guesses == 1
    assert fails.sum() > 15_000
    assert out.hits[fails].mean() == pytest.approx(0.5, abs=0.015)


def test_transmit_round_physical_noiseless():
    cfg = make_cfg(mode=Mode.PHYSICAL, hardware=noiseless_hw())
    assert transmit(cfg, 0, 0, 20_000, 10).hits.mean() == pytest.approx(0.125, abs=0.01)
    assert not transmit(cfg, 0, 1, 2000, 10).hits.any()


# ---------------------------------------------------------------------------
# sifting


def test_sift_four_bit_example():
    # the textbook walk-through: differing bits on rounds 1 and 4,
    # matching on 2 and 3, a single hit on round 3
    hits = np.array([0, 0, 1, 0], dtype=np.uint8)
    assert _sift(np.array([1, 0, 1, 0], dtype=np.uint8), hits).tolist() == [1]
    assert _sift(np.array([0, 0, 1, 1], dtype=np.uint8), hits).tolist() == [1]
    assert _sift(np.arange(4), hits).tolist() == [2]


def test_sift_no_hits():
    hits = np.zeros(2, dtype=np.uint8)
    assert len(_sift(np.array([1, 0], dtype=np.uint8), hits)) == 0
    assert len(_sift(np.array([0, 1], dtype=np.uint8), hits)) == 0


def test_sift_length_mismatch():
    # a Block message of the wrong kind is refused by the pipe
    # (test_channel.py::test_pipe_sequence_and_session_checks)
    with pytest.raises(ProtocolDesyncError):
        _sift(np.array([1, 0, 1], dtype=np.uint8), np.array([0, 0], dtype=np.uint8))


def test_compress_on_a_bool_mask_equals_indexing():
    # the premise of selecting with ``x.compress(m)``: on a bool mask of
    # x's length it picks what ``x[m]`` picks, in the same dtype; on a
    # shorter mask it truncates where indexing raises, so every
    # selection checks the mask's length itself
    rng = np.random.default_rng(8)
    for n in (0, 1, 7, 1024):
        x = generate_bits(n, rng) if n else np.zeros(0, np.uint8)
        for m in (rng.random(n) < 0.25, np.zeros(n, bool), np.ones(n, bool)):
            got = x.compress(m)
            assert got.dtype == x.dtype and np.array_equal(got, x[m])
    x, m = np.arange(5), np.ones(4, bool)
    assert x.compress(m).tolist() == [0, 1, 2, 3]
    with pytest.raises(IndexError):
        x[m]


@pytest.mark.parametrize("n", [1, 9, 1024])
def test_selections_refuse_a_mask_of_the_wrong_length(n):
    # one entry short or long: ProtocolDesyncError, not a silently
    # shorter key nor a bare IndexError
    rng = np.random.default_rng(n)
    key = generate_bits(n, rng)
    for m in (n - 1, n + 1):
        hits = generate_bits(m, rng) if m else np.zeros(0, np.uint8)
        with pytest.raises(ProtocolDesyncError, match="hit record"):
            _sift(key, hits)
        with pytest.raises(ProtocolDesyncError, match="error-check mask"):
            _split(key, np.ones(m, dtype=bool))
    n_blocks = math.ceil(n / 8)
    for m in (n_blocks - 1, n_blocks + 1):
        with pytest.raises(ProtocolDesyncError, match="verdicts"):
            apply_block_verdicts(key, np.zeros(m, np.uint8), [n])


# ---------------------------------------------------------------------------
# error estimation, bias, reconciliation


class RewritingTransport:
    """Replaces the payload of each frame of one kind sent through it:
    ``payload`` maps the decoded payload to a new one, or to the bytes
    of a payload the writer would not send."""

    def __init__(self, inner, kind, payload):
        self.inner = inner
        self.kind = kind
        self.payload = payload

    def send_frame(self, data):
        msg = decode_frame(data[4:])
        if msg["kind"] == self.kind:
            new = self.payload(msg["payload"])
            data = (reframed(data, new) if isinstance(new, bytes)
                    else encode_frame({**msg, "payload": new}))
        self.inner.send_frame(data)

    def recv_frame(self):
        return self.inner.recv_frame()

    def close(self):
        self.inner.close()


def zeros_transport(inner, logs, cfg, zeros_of):
    """The receiver's transport, with the zero count of each Answer
    replaced by ``zeros_of(sifted)``: ``sifted`` is the length of the
    pass's sifted key, the hits ``logs`` took since the last Answer."""
    seen = [0]

    def payload(p):
        hits = logs.hits
        sifted, seen[0] = int(np.count_nonzero(hits[seen[0]:])), len(hits)
        return {**p, "zeros": zeros_of(sifted)}
    return RewritingTransport(inner, "Answer", payload)


def test_a_zero_count_over_the_sifted_length_aborts():
    # the receiver's key is as long as the sender's, so one zero more
    # than the block sifted is a count no honest receiver sends
    cfg = make_cfg(bits_per_block=1024)
    s = len(run_session(cfg).sifted_key_alice)
    logs = RoundLogs()
    t_a, t_b = loopback_pair()
    with pytest.raises(SessionAbort, match=f"zeros {s + 1} exceed the {s} sifted bits") as info:
        run_session(cfg, channel=(t_a, zeros_transport(t_b, logs, cfg, lambda n: n + 1)),
                    logs=logs)
    assert isinstance(info.value.__cause__, ProtocolDesyncError)


@pytest.mark.parametrize("bias", [-0.1, 1.5])
def test_invalid_bias_on_error_check_values_aborts(bias):
    # the receiver's bias reaches the sender as bias times the sifted
    # length in zeros: one above 1 is a count over that length, one below
    # 0 the four bytes of a negative count, which read as a count over it
    cfg = make_cfg(bits_per_block=1024)
    s = len(run_session(cfg).sifted_key_alice)
    zeros = struct.pack(">i", math.floor(bias * s))
    t_a, t_b = loopback_pair()
    rewrite = RewritingTransport(t_b, "Answer", with_bytes("Answer", "zeros", zeros))
    with pytest.raises(SessionAbort, match=f"exceed the {s} sifted bits") as info:
        run_session(cfg, channel=(t_a, rewrite))
    assert isinstance(info.value.__cause__, ProtocolDesyncError)


def test_a_zero_count_of_every_sifted_bit_trips_the_bias_alarm():
    cfg = make_cfg(bits_per_block=1024)
    logs = RoundLogs()
    t_a, t_b = loopback_pair()
    rep = run_session(cfg, channel=(t_a, zeros_transport(t_b, logs, cfg, lambda n: n)),
                      n_blocks=3, logs=logs)
    assert rep.zero_bias == 1.0
    assert rep.alarm and rep.alarm_reason == "bias"


def test_no_answer_leaves_a_sifted_key_unjudged_on_bias():
    # the Answer's only word on the bias is a count the sender bounds by
    # its own sifted length: each count it takes is a bias in [0, 1] that
    # is judged, and none switches the check off
    cfg = make_cfg(bits_per_block=64)
    s = len(run_session(cfg).sifted_key_alice)
    assert s > 0
    for zeros in range(s + 1):
        t_a, t_b = loopback_pair()
        rewrite = RewritingTransport(t_b, "Answer", lambda p, z=zeros: {**p, "zeros": z})
        rep = run_session(cfg, channel=(t_a, rewrite))
        assert rep.zero_bias == zeros / s
        judged = "bias" in (rep.alarm_reason or "").split("+")
        assert judged == (abs(zeros / s - 0.5) > ALARM_BIAS_THRESHOLD), (zeros, s)


def with_bytes(kind, name, new: bytes):
    """A rewrite that writes ``new`` over the field ``name`` of a ``kind`` payload."""
    return lambda p: put(payload_bytes(kind, p), field_at(kind, name), new)


def double_in(kind, name):
    """A rewrite that writes the double 8.0, eight bytes, where the
    four-byte integer ``name`` goes: the payload grows by four bytes."""
    def rewrite(p):
        raw, at = payload_bytes(kind, p), field_at(kind, name)
        return raw[:at] + struct.pack(">d", 8.0) + raw[at + 4:]
    return rewrite


# the bytes a writer of other types would put in a field: an empty
# payload, the text "x" and a code past the table
@pytest.mark.parametrize("kind, payload, message", [
    ("Done", lambda p: b"", "malformed frame: Done of 0 bytes"),
    ("Done", lambda p: b"x", "Done reason code 120 is out of range"),
    ("Done", with_bytes("Done", "reason", b"\x09"), "reason code 9 is out of range"),
], ids=["done_list", "done_string", "reason"])
def test_mistyped_frame_to_the_receiver_aborts(kind, payload, message):
    t_a, t_b = loopback_pair()
    with pytest.raises(SessionAbort, match=message):
        run_session(make_cfg(bits_per_block=1024),
                    channel=(RewritingTransport(t_a, kind, payload), t_b))


def only_the(number, rewrite):
    """``rewrite`` for the ``number``-th payload it is given; the others pass unchanged."""
    seen = []

    def payload(p):
        seen.append(p)
        return rewrite(p) if len(seen) == number else p

    return payload


@pytest.mark.parametrize("n_blocks", [1, 3])
def test_a_session_leaves_no_frame_unread(n_blocks):
    # run_session finishes the receiver after the sender's last block,
    # so the Done that ends the session is read too
    t_a, t_b = loopback_pair()
    rep = run_session(make_cfg(bits_per_block=1024), channel=(t_a, t_b), n_blocks=n_blocks)
    assert rep.n_rounds == 1024 * n_blocks
    for t in (t_a, t_b):
        with pytest.raises(ProtocolDesyncError, match="nothing queued"):
            t.recv_frame()


class SendFailsTransport:
    """A transport whose sends fail, as on a channel the peer has closed."""

    def __init__(self, inner):
        self.inner = inner

    def send_frame(self, data):
        raise ChannelError("send failed: broken pipe")

    def recv_frame(self):
        return self.inner.recv_frame()

    def close(self):
        self.inner.close()


def test_a_refused_hello_gets_a_done_that_names_the_refusal():
    # the sender tells the receiver why it stops, and raises the mismatch
    # even where that Done cannot be sent
    cfg = make_cfg(bits_per_block=1024)
    for wrap in (lambda t: t, SendFailsTransport):
        t_a, t_b = loopback_pair()
        bob = BobEngine(replace(cfg, bits_per_block=512), MessagePipe(t_b, cfg.session_id()))
        steps = bob.steps()
        alice = AliceEngine(cfg, MessagePipe(wrap(t_a), cfg.session_id()),
                            lambda: next(steps, None))
        with pytest.raises(SessionAbort, match="^peer configuration mismatch: "):
            alice.run(lambda eng: False)
        if wrap is SendFailsTransport:
            continue
        with pytest.raises(SessionAbort, match="^the sender refused the Hello: configuration"):
            next(steps)
        assert bob.final is None and not bob.sifted_passes


def test_a_done_before_any_block_aborts(monkeypatch):
    # the receiver's read after its Hello takes a Block or a Done, and
    # every session runs a block: a sender that ends at once breaks the protocol
    def send_done(self, count):
        self.pipe.send("Done", {"reason": None})
        self.peer_step()

    monkeypatch.setattr(AliceEngine, "run_block", send_done)
    with pytest.raises(SessionAbort, match="Done before any Block") as info:
        run_session(make_cfg(bits_per_block=1024))
    assert isinstance(info.value.__cause__, ProtocolDesyncError)


def shortened(field):
    """A rewrite that drops the last 8 bits of the bit list ``field``."""
    return lambda p: {**p, field: p[field][:-8]}


def lengthened(field):
    """A rewrite that appends 8 zero bits to the bit list ``field``."""
    return lambda p: {**p, field: np.concatenate([p[field], np.zeros(8, np.uint8)])}


# the values or parities of a count the reader does not know from the test
WRONG_COUNT = r"(values|parities) of \d+ bits, expected \d+"


def hello_cases():
    """(row, id) for each field of the receiver's Hello with bytes of
    another type and with the field's bytes missing, and for a Hello
    with a trailing byte. Another type is a code past the table for an
    enum and a double's eight bytes for an integer, which takes every
    value of its own four."""
    for key, codec in PAYLOADS["Hello"].items():
        if type(codec) is tuple:
            wrong, message = with_bytes("Hello", key, bytes([len(codec)])), f"{key} code"
        else:
            wrong, message = double_in("Hello", key), "malformed frame: 4 bytes trail"
        size = struct.calcsize(">" + fmt(codec))

        def missing(p, key=key, size=size):
            raw, at = payload_bytes("Hello", p), field_at("Hello", key)
            return raw[:at] + raw[at + size:]

        yield ("bob", "Hello", wrong, message), f"hello_{key}_type"
        yield ("bob", "Hello", missing, "fewer than the 10 of its fields"), f"hello_{key}_missing"
    yield (("bob", "Hello", lambda p: payload_bytes("Hello", p) + b"\x00",
            "1 bytes trail the Hello payload"), "hello_extra")


HELLO_ROWS, HELLO_IDS = zip(*hello_cases())


@pytest.mark.parametrize("sender, kind, payload, message", [
    ("alice", "Block", shortened("results"), "hit record of 1016 entries against 1024 bits"),
    ("alice", "Block", lengthened("results"), "hit record of 1032 entries against 1024 bits"),
    ("alice", "Block", lambda p: {**p, "results": np.zeros(0, np.uint8)},
     "hit record of 0 entries against 1024 bits a block, at most 32768 a pass"),
    ("alice", "Block", lambda p: {**p, "results": np.zeros(33 * 1024, np.uint8)},
     "hit record of 33792 entries against 1024 bits a block, at most 32768 a pass"),
    # two whole blocks, which the sample mask of one does not fit
    ("alice", "Block", lambda p: {**p, "results": np.tile(p["results"], 2)},
     "error-check mask does not match the key length"),
    ("alice", "Block", shortened("sample"), "error-check mask does not match the key length"),
    ("alice", "Block", lengthened("sample"), "error-check mask does not match the key length"),
    ("bob", "Answer", shortened("values"), WRONG_COUNT),
    ("bob", "Answer", lengthened("values"), WRONG_COUNT),
    ("alice", "Block", shortened("parities"), WRONG_COUNT),
    ("alice", "Block", lengthened("parities"), WRONG_COUNT),
    # a parity list whose bytes are not the list its count says
    ("alice", "Block", with_bytes("Block", "parities", struct.pack(">I", 2**32 - 1)),
     "parities of 4294967295 bits runs past"),
    ("bob", "Answer", shortened("discard"), r"verdicts for \d+ blocks, key has \d+"),
    ("bob", "Answer", lengthened("discard"), r"verdicts for \d+ blocks, key has \d+"),
    ("bob", "Hello", lambda p: {**p, "wire_version": 1}, "peer configuration mismatch"),
    ("bob", "Hello", double_in("Hello", "bits_per_block"), "4 bytes trail the Hello payload"),
    ("bob", "Hello", double_in("Hello", "wire_version"), "4 bytes trail the Hello payload"),
    *HELLO_ROWS,
], ids=["results", "results_long", "results_empty", "results_past_a_pass", "results_two_blocks",
        "indices", "indices_long", "values", "values_long",
        "parities", "parities_long", "parities_not_hex",
        "discard", "discard_long", "hello_wire_version",
        "hello_bits_per_block_float", "hello_wire_version_float",
        *HELLO_IDS])
def test_inconsistent_frame_from_a_peer_aborts(sender, kind, payload, message):
    # each list is well formed on its own but does not fit the block it
    # belongs to; without its check the session would run on, or fail
    # with a bare numpy IndexError or ValueError
    t_a, t_b = loopback_pair()
    if sender == "alice":
        t_a = RewritingTransport(t_a, kind, payload)
    else:
        t_b = RewritingTransport(t_b, kind, payload)
    with pytest.raises(SessionAbort, match=message) as info:
        run_session(make_cfg(bits_per_block=1024), channel=(t_a, t_b))
    # a configuration verdict is the engine's own; every other check is a desync
    cause = SessionAbort if "configuration" in message else ProtocolDesyncError
    assert isinstance(info.value.__cause__, cause)


def test_an_answer_is_held_to_its_whole_pass():
    # three blocks run as passes of one and two: the second Answer must
    # count the zeros and give the verdicts of both of its blocks
    cfg = make_cfg(bits_per_block=1024)
    to_bob = []
    t_a, t_b = loopback_pair()
    alice, _ = run_in_process(cfg, full_passes(3), channel=(RecordingTransport(t_a, to_bob), t_b))
    sifted = len(alice.sifted_passes[1])
    segments = len(decode_frame(to_bob[1][4:])["payload"]["parities"])
    assert len(alice.sifted_passes[0]) < sifted
    for rewrite, message in (
        (lambda p: {**p, "zeros": sifted + 1}, f"zeros {sifted + 1} exceed the {sifted} sifted"),
        (lengthened("discard"), f"verdicts for {segments + 8} blocks, key has {segments}"),
        (shortened("discard"), f"verdicts for {segments - 8} blocks, key has {segments}"),
    ):
        t_a, t_b = loopback_pair()
        with pytest.raises(ProtocolDesyncError, match=message):
            run_in_process(cfg, full_passes(3),
                           channel=(t_a, RewritingTransport(t_b, "Answer", only_the(2, rewrite))))


# (sender, kind) for every message a session sends
SESSION_SHAPES = [
    *(("alice", kind) for kind in ("Block", "Done")),
    *(("bob", kind) for kind in ("Hello", "Answer")),
]


@pytest.mark.parametrize("sender, kind", SESSION_SHAPES,
                         ids=[f"{s}_{k}" for s, k in SESSION_SHAPES])
def test_a_message_off_its_schema_aborts_the_session(sender, kind):
    # each fault of ``broken``, written into the session's first frame of the kind
    seen = []
    t_a, t_b = loopback_pair()
    watch = RewritingTransport(t_a if sender == "alice" else t_b, kind,
                               lambda p: seen.append(p) or p)
    run_session(make_cfg(bits_per_block=1024),
                channel=(watch, t_b) if sender == "alice" else (t_a, watch))
    causes = {}
    for case in dict(broken(kind, seen[0])):
        rewrite = only_the(1, lambda p, case=case: dict(broken(kind, p))[case])
        t_a, t_b = loopback_pair()
        if sender == "alice":
            t_a = RewritingTransport(t_a, kind, rewrite)
        else:
            t_b = RewritingTransport(t_b, kind, rewrite)
        try:
            run_session(make_cfg(bits_per_block=1024), channel=(t_a, t_b))
            causes[case] = None
        except SessionAbort as exc:
            causes[case] = type(exc.__cause__)
    assert causes and set(causes.values()) == {ProtocolDesyncError}, causes


def with_pad_bits_set(p):
    """A Block of 1020 pulses whose hit record sets its 4 pad bits."""
    raw = bytearray(payload_bytes("Block", p))
    # the struct ends with the parities' count; the hit record's 128 bytes follow
    raw[field_at("Block", "parities") + 4 + 127] |= 0x0F
    return bytes(raw)


def test_results_with_set_pad_bits_abort():
    t_a, t_b = loopback_pair()
    with pytest.raises(SessionAbort, match="pad bits") as info:
        run_session(make_cfg(bits_per_block=1020),
                    channel=(RewritingTransport(t_a, "Block", with_pad_bits_set), t_b))
    assert isinstance(info.value.__cause__, ProtocolDesyncError)


def test_estimate_ber_identical_and_opposite():
    cfg = make_cfg(bits_per_block=4000, error_sample_fraction=0.5)
    rep = run_session(cfg)
    s = len(rep.sifted_key_alice)
    t = s - int(0.5 * s)
    assert rep.ber_estimate == 0.0
    assert len(rep.reconciled_key) == t - math.ceil(t / 8)
    # the sample's values, every one inverted; this block's hit record
    # gives their count, as it gives the receiver its sifted length
    logs = RoundLogs()

    def flipped_values(p):
        k = int(cfg.error_sample_fraction * np.count_nonzero(logs.hits))
        assert len(p["values"]) == k
        return {**p, "values": 1 - p["values"]}

    t_a, t_b = loopback_pair()
    inverting = RewritingTransport(t_b, "Answer", flipped_values)
    flipped = run_session(cfg, channel=(t_a, inverting), logs=logs)
    assert flipped.ber_estimate == 1.0
    assert flipped.alarm


def test_estimate_ber_removes_disclosed_positions():
    # the disclosed sample leaves the key: of s sifted bits, t remain,
    # and block-parity reconciliation pays one bit per block of 8
    rep = run_session(make_cfg(bits_per_block=4096))
    s = len(rep.sifted_key_alice)
    t = s - int(0.25 * s)
    assert np.array_equal(rep.sifted_key_alice, rep.sifted_key_bob)
    assert len(rep.reconciled_key) == t - math.ceil(t / 8)


def brute_force_block_parity(alice, bob, block_size):
    """Naive reference for the reconciliation rule, list by list."""
    alice = [int(x) for x in alice]
    bob = [int(x) for x in bob]
    out_a, out_b, dropped = [], [], 0
    for i in range(0, len(alice), block_size):
        blk_a = alice[i:i + block_size]
        blk_b = bob[i:i + block_size]
        if sum(blk_a) % 2 == sum(blk_b) % 2:
            out_a.extend(blk_a[:-1])
            out_b.extend(blk_b[:-1])
        else:
            dropped += 1
    return out_a, out_b, dropped


def test_reconcile_identical_keys():
    rng = np.random.default_rng(12)
    key = generate_bits(1024, rng)
    a2, b2, discarded, dropped = reconcile_block_parity(key, key.copy())
    assert len(a2) == 896  # each block of 8 pays one bit
    assert dropped == 0
    assert discarded == 128
    assert np.array_equal(a2, b2)


def test_reconcile_single_error_drops_block():
    rng = np.random.default_rng(13)
    key = generate_bits(64, rng)
    bob = key.copy()
    bob[19] ^= 1
    a2, b2, _, dropped = reconcile_block_parity(key, bob)
    assert dropped == 1
    assert len(a2) == 7 * 7
    assert np.array_equal(a2, b2)


def test_reconcile_trailing_partial_block():
    key = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1], dtype=np.uint8)
    a2, b2, discarded, dropped = reconcile_block_parity(key, key.copy())
    # full segment keeps 7 bits, the 1-bit tail pays its only bit
    assert a2.tolist() == [1, 0, 1, 1, 0, 0, 1]
    assert dropped == 0
    assert discarded == 2


def test_reconcile_matches_brute_force_oracle():
    rng = np.random.default_rng(14)
    alice = generate_bits(100_000, rng)
    flips = rng.random(100_000) < 0.01
    bob = alice ^ flips.astype(np.uint8)
    a2, b2, _, dropped = reconcile_block_parity(alice, bob)
    ref_a, ref_b, ref_dropped = brute_force_block_parity(alice, bob, 8)
    assert a2.tolist() == ref_a
    assert b2.tolist() == ref_b
    assert dropped == ref_dropped
    assert a2.dtype == b2.dtype == np.uint8
    for n in (20_000, 20_001, 20_003, 20_007):  # no tail, and tails of 1, 3 and 7 bits
        alice = generate_bits(n, rng)
        bob = alice ^ (rng.random(n) < 0.05).astype(np.uint8)
        assert_matches_oracle(alice, bob)


def assert_matches_oracle(alice, bob):
    """reconcile_block_parity and block_parities against the list-by-list
    reference; returns the number of dropped blocks."""
    block_size = RECONCILE_BLOCK_SIZE
    a2, b2, discarded, dropped = reconcile_block_parity(alice, bob)
    ref_a, ref_b, ref_dropped = brute_force_block_parity(alice, bob, block_size)
    assert a2.dtype == b2.dtype == np.uint8
    assert a2.tolist() == ref_a
    assert b2.tolist() == ref_b
    assert dropped == ref_dropped
    assert discarded == len(alice) - len(ref_a)
    parities = block_parities(alice, [len(alice)])
    assert parities.dtype == np.uint8
    blocks = [alice[i:i + block_size].tolist() for i in range(0, len(alice), block_size)]
    assert parities.tolist() == [sum(b) % 2 for b in blocks]
    return dropped


@pytest.mark.parametrize("segments", [2, 3, 7, 8, 9])
def test_reconcile_edge_cases_match_brute_force_oracle(segments):
    rng = np.random.default_rng(100 + segments)
    size = RECONCILE_BLOCK_SIZE
    # empty, one bit, an exact multiple, a trailing 1-bit segment, a
    # trailing segment one bit short
    for n in (0, 1, segments * size, segments * size + 1, (segments + 1) * size - 1):
        n_blocks = math.ceil(n / size)
        alice = rng.integers(0, 2, n, dtype=np.uint8)
        assert assert_matches_oracle(alice, alice.copy()) == 0
        bob = alice.copy()
        bob[::size] ^= 1  # one error in every segment
        assert assert_matches_oracle(alice, bob) == n_blocks
        bob = alice ^ (rng.random(n) < 0.2).astype(np.uint8)
        assert_matches_oracle(alice, bob)


@pytest.mark.parametrize("scale", [2, 3, 8])
def test_segments_of_a_pass_are_those_of_each_block_alone(scale):
    # with the blocks' lengths, parities and verdicts run over a pass's
    # key as over each block's key alone: segments start at each block's
    # start, and a block's trailing partial segment is its own; empty
    # blocks hold no segment. Blocks around ``scale`` bits are shorter
    # than a segment at 2 and 3, and fill one exactly at 8.
    rng = np.random.default_rng(scale)
    lengths = [0, 1, scale - 1, scale, scale + 1, 0, 17, 3 * scale, 0]
    blocks = [rng.integers(0, 2, m, dtype=np.uint8) for m in lengths]
    key = np.concatenate(blocks)
    parities = block_parities(key, lengths)
    alone = [block_parities(b, [len(b)]) for b in blocks]
    assert parities.dtype == np.uint8
    assert parities.tolist() == np.concatenate(alone).tolist()
    drop = rng.integers(0, 2, len(parities), dtype=np.uint8)
    cuts = np.cumsum([len(p) for p in alone])[:-1]
    want = [apply_block_verdicts(b, d, [len(b)]) for b, d in zip(blocks, np.split(drop, cuts))]
    got = apply_block_verdicts(key, drop, lengths)
    assert got.tolist() == np.concatenate(want).tolist()
    with pytest.raises(ProtocolDesyncError, match="verdicts for"):
        apply_block_verdicts(key, drop[1:], lengths)


def test_apply_block_verdicts_checks_the_verdict_count():
    key = np.ones(17, dtype=np.uint8)
    assert apply_block_verdicts(key, np.ones(3, np.uint8), [17]).dtype == np.uint8
    assert len(apply_block_verdicts(key, np.ones(3, np.uint8), [17])) == 0
    assert len(apply_block_verdicts(key, np.zeros(3, np.uint8), [17])) == 14
    for wrong in (2, 4):
        with pytest.raises(ProtocolDesyncError):
            apply_block_verdicts(key, np.zeros(wrong, np.uint8), [17])


@pytest.mark.parametrize("n", [4, 7, 8, 9, 1023, 1024])
def test_block_yield_is_what_an_all_hit_block_keeps(n):
    # every pulse hits and no segment is dropped: the sample takes its
    # fraction, and the verdicts keep the rest less a bit a segment; a
    # block that sifts fewer bits keeps no more
    fraction = make_cfg().error_sample_fraction
    sample, top = block_yield(n, fraction)
    assert sample == int(fraction * n) > 0
    kept = []
    for s in range(n + 1):
        rest = np.ones(s - int(fraction * s), np.uint8)
        segments = len(block_parities(rest, [len(rest)]))
        kept.append(len(apply_block_verdicts(rest, np.zeros(segments, np.uint8), [len(rest)])))
    assert top == kept[n] == max(kept)


LOG_DTYPES = {
    "alice_bits": np.uint8,
    "bob_bits": np.uint8,
    "photon_counts": np.int64,
    "eve_guesses": np.int8,
    "hits": np.uint8,
}


def test_round_logs_empty_columns():
    logs = RoundLogs()
    assert len(logs) == 0
    for name, dtype in LOG_DTYPES.items():
        col = getattr(logs, name)
        assert col.dtype == dtype and col.size == 0


def test_round_logs_columns_equal_the_concatenated_blocks(monkeypatch):
    # extend only appends: 1,000 blocks join nothing until a read, the
    # first read of a column joins its blocks once, and a second read
    # returns the kept array without joining again
    concatenate, joins = np.concatenate, []

    def counted(arrays, *args, **kwargs):
        joins.append(len(arrays))
        return concatenate(arrays, *args, **kwargs)

    rng = np.random.default_rng(15)  # seeding concatenates, so before the count
    monkeypatch.setattr(np, "concatenate", counted)
    logs = RoundLogs()
    blocks, rounds = [], 0
    for n in (5, 0, 11) + (3,) * 997:
        block = {
            "alice_bits": rng.integers(0, 2, n, dtype=np.uint8),
            "bob_bits": rng.integers(0, 2, n, dtype=np.uint8),
            "photon_counts": rng.poisson(0.5, n).astype(np.int64),
            "eve_guesses": rng.integers(-1, 2, n, dtype=np.int8),
            "hits": rng.integers(0, 2, n, dtype=np.uint8),
        }
        logs.extend(**block)
        blocks.append(block)
        rounds += n
        assert len(logs) == rounds
        if n == 5:
            assert np.array_equal(logs.hits, block["hits"])  # a read between extends
    assert joins == []
    for read, (name, dtype) in enumerate(LOG_DTYPES.items(), 1):
        col = getattr(logs, name)
        assert joins == [1000] * read
        assert col.dtype == dtype
        assert np.array_equal(col, concatenate([b[name] for b in blocks]))
        assert getattr(logs, name) is col and len(joins) == read


# ---------------------------------------------------------------------------
# sessions


def test_session_clean_ideal():
    cfg = make_cfg(bits_per_block=100_000)
    rep = run_session(cfg)
    assert rep.sifted_fraction == pytest.approx(0.25, abs=0.005)
    assert np.array_equal(rep.sifted_key_alice, rep.sifted_key_bob)
    assert rep.ber_estimate == 0.0
    assert not rep.alarm
    assert rep.zero_bias == pytest.approx(0.5, abs=0.02)
    assert len(rep.reconciled_key) <= len(rep.sifted_key_alice)


def test_session_never_pass_rule():
    # one million noiseless rounds: no differing-bit round may hit
    cfg = make_cfg(bits_per_block=1_000_000)
    logs = RoundLogs()
    run_session(cfg, logs=logs)
    differing = logs.alice_bits != logs.bob_bits
    assert int(logs.hits[differing].sum()) == 0


def test_session_physical_noiseless_keys_identical():
    cfg = make_cfg(mode=Mode.PHYSICAL, hardware=noiseless_hw(), bits_per_block=50_000)
    rep = run_session(cfg)
    assert np.array_equal(rep.sifted_key_alice, rep.sifted_key_bob)
    assert rep.ber_estimate == 0.0
    assert rep.sifted_fraction == pytest.approx(1 / 16, abs=0.005)


def sha256_of(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


# sha256 of the reconciled key and of the hit column of small
# sessions: the first three computed with the per-block loop
# reconciliation, the two memoryless Physical ones (one with Eve, one
# with multi-photon pulses) with the separate Ideal and Physical block
# bodies of the kernel. A change that moves the RNG stream or the
# post-processing fails here.
GOLDEN_SESSIONS = {
    "ideal": (
        SessionConfig(11, 12, 13, bits_per_block=4096), 3,
        "1751d75abb4550381d2b467202afcfb5f8892f1448772ff5fbcf8a45c3f47c8f",
        "336437bc8aa571b855fe92210ec46a2b727ab4ce02498fc14db9ad3c564055a1",
    ),
    "ideal_fixed_projection": (
        SessionConfig(21, 22, 23, bits_per_block=4096, eve=EveStrategy.FIXED_PROJECTION), 2,
        "0dd53b6f0016d54d02de05aed086075ba2d4fc439a3bada0ac6729da8b8abc18",
        "7b2382cb3c779833ebdef48bb30720e79e7a7e93d2dc94ea62f441161377f4f1",
    ),
    "physical_afterpulse": (
        SessionConfig(
            31, 32, 33, bits_per_block=16384, mode=Mode.PHYSICAL,
            hardware=HardwareProfile(detector=DetectorParams(afterpulse_prob0=0.05)),
        ), 3,
        "b750d0cebd8b988148beb20dd7a1e0411d117b8b068c4a48256fca1af0a9ac44",
        "e09a619e5775f9a28fa002e74cd3b4f141bf9358bf38bbb22a61a5349aab1426",
    ),
    "physical_fixed_projection": (
        SessionConfig(
            41, 42, 43, bits_per_block=65536, mode=Mode.PHYSICAL,
            eve=EveStrategy.FIXED_PROJECTION,
        ), 2,
        "7520be55ec7a9dd827f22627e797931b63a6d605b26db637f60ae882c5c070c1",
        "4cacb2853fca0ab7561dc7be00cb56c5fd81ac1457a3c52d15e0e4be628b2b09",
    ),
    "physical_multiphoton": (
        SessionConfig(
            51, 52, 53, bits_per_block=16384, mode=Mode.PHYSICAL,
            hardware=HardwareProfile(
                source=SourceParams(mean_photons=3.0), fiber=FiberParams(length_km=20.0)
            ),
        ), 2,
        "c4c3389c6671a3691768fec572817f47c95566690b1a198919362ad6d7ec40d3",
        "86090497652ac1882fc6a067fc9ad8861a870e21bcfcf7258366ec87761704bf",
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN_SESSIONS))
def test_golden_digests_of_key_and_hits(name):
    cfg, n_blocks, key_sha, hits_sha = GOLDEN_SESSIONS[name]
    logs = RoundLogs()
    rep = run_session(cfg, n_blocks=n_blocks, logs=logs)
    assert rep.reconciled_key.dtype == logs.hits.dtype == np.uint8
    assert len(logs) == n_blocks * cfg.bits_per_block
    assert sha256_of(rep.reconciled_key) == key_sha
    assert sha256_of(logs.hits) == hits_sha


# sha256 of all frames each party sends in the GOLDEN_SESSIONS, one
# stream per direction (each frame carries its length prefix), with the
# frame count: (sender to receiver, receiver to sender). Computed with
# the binary frames of wire version 6, where a pass of the sessions of
# three blocks holds two; the wire format must not move by one byte.
GOLDEN_FRAMES = {
    "ideal": (
        (3, "81a679b959df8db27d6c81115f19a6b15039247c552ac533e10ca0243485fa12"),
        (3, "5b6012c3f2016a0f45bc5d2a5675b37bea5680a2dc6402806f9c756ff1b500e0"),
    ),
    "ideal_fixed_projection": (
        (3, "5fc027168417260489b063dd62acb77969e4a134ee02bb8dae36fb9aa7e38193"),
        (3, "8bee679c48c6e5e2c4c74a5fa126a5787cb912d3ada51cc2f5f71b76dc804228"),
    ),
    "physical_afterpulse": (
        (3, "81583180bb79fdcaa2350399dd8e56835bd3b65db189c3c98cae1a61cd282adb"),
        (3, "83c04cf3bef7db0863359adacd3bfadb3d9f87f2e8060a84108acb1ace799634"),
    ),
    "physical_fixed_projection": (
        (3, "6688ec5b9e8519c572778ce5face0692e3ccb3fa7bc2d5e3173afdb02d0b1877"),
        (3, "24bc7ba88e5bb847f502c2efc20f486e97746bf98a1f80c17e73c426ff3c1cf2"),
    ),
    "physical_multiphoton": (
        (3, "87a03166f2e31dba7b472826865913a92c3f8e29561daab77e5acb408c1406b0"),
        (3, "375a81dcd9969130f7dd487d01463660b7e3e3e51075131e6ded954dd99f54c9"),
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN_SESSIONS))
def test_golden_digests_of_every_frame(name):
    cfg, n_blocks, _, _ = GOLDEN_SESSIONS[name]
    in_process = [], []
    t_a, t_b = loopback_pair()
    run_session(
        cfg,
        channel=(RecordingTransport(t_a, in_process[0]), RecordingTransport(t_b, in_process[1])),
        n_blocks=n_blocks,
    )
    # the threaded parties over a socket pair send the same bytes
    over_sockets = [], []
    run_two_process(cfg, n_blocks, record_to_bob=over_sockets[0], record_to_alice=over_sockets[1])
    for frames_by_direction in (in_process, over_sockets):
        for frames, (count, digest) in zip(frames_by_direction, GOLDEN_FRAMES[name]):
            assert len(frames) == count
            assert hashlib.sha256(b"".join(frames)).hexdigest() == digest


def test_session_deterministic():
    cfg = make_cfg(bits_per_block=20_000, eve=EveStrategy.FIXED_PROJECTION)
    logs1, logs2 = RoundLogs(), RoundLogs()
    r1 = run_session(cfg, logs=logs1)
    r2 = run_session(cfg, logs=logs2)
    assert np.array_equal(r1.sifted_key_alice, r2.sifted_key_alice)
    assert np.array_equal(r1.reconciled_key, r2.reconciled_key)
    assert r1.ber_estimate == r2.ber_estimate
    assert r1.zero_bias == r2.zero_bias
    assert np.array_equal(logs1.hits, logs2.hits)


def test_a_session_without_a_log_keeps_no_per_pulse_record():
    # 500 blocks of 1,024 Ideal pulses: what stays allocated once the
    # session has returned, its report included, is its keys, under a
    # byte a pulse, and not a round log of 12 bytes a pulse
    cfg = make_cfg()
    run_session(cfg)  # first-call imports and caches stay out of the count
    tracemalloc.start()
    try:
        rep = run_session(cfg, n_blocks=500)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.n_rounds == 500 * cfg.bits_per_block
    assert retained / rep.n_rounds < 4.0


def test_session_multi_block_accumulates():
    cfg = make_cfg(bits_per_block=4096)
    rep = run_session(cfg, n_blocks=3)
    assert rep.n_rounds == 3 * 4096
    assert rep.sifted_fraction == pytest.approx(0.25, abs=0.02)


def test_session_eve_statistics():
    cfg = make_cfg(
        bits_per_block=120_000,
        eve=EveStrategy.FIXED_PROJECTION,
        error_sample_fraction=0.5,
    )
    rep = run_session(cfg)
    # exact model values: sifted 3/8, errors 1/3 of sifted, receiver
    # zeros 2/3 (see the eavesdropper enumeration above)
    assert rep.sifted_fraction == pytest.approx(3 / 8, abs=0.01)
    assert rep.ber_estimate == pytest.approx(1 / 3, abs=0.01)
    assert rep.zero_bias == pytest.approx(2 / 3, abs=0.01)
    assert rep.alarm
    assert "ber" in rep.alarm_reason


def test_session_visibility_floor():
    hw = noiseless_hw(interferometer=InterferometerConfig(visibility=0.995))
    cfg = make_cfg(
        mode=Mode.PHYSICAL, hardware=hw, bits_per_block=400_000,
        error_sample_fraction=0.5, seed_physics=99,
    )
    rep = run_session(cfg)
    assert len(rep.sifted_key_alice) > 20_000
    assert rep.ber_estimate == pytest.approx(0.005, abs=0.002)
    assert not rep.alarm


def test_session_monte_carlo_rate_matches_prediction():
    hw = HardwareProfile(
        source=SourceParams(mean_photons=0.1, pulse_rate=10e3),
        fiber=FiberParams(length_km=10.0, attenuation_db_per_km=math.log10(4.0)),
        detector=DetectorParams(efficiency=0.2, dark_rate=0.0),
    )
    cfg = make_cfg(mode=Mode.PHYSICAL, hardware=hw, bits_per_block=2_000_000,
                   error_sample_fraction=0.0)
    rep = run_session(cfg)
    pred = predict_key_rate(cfg)
    n, p = cfg.bits_per_block, pred.bits_per_pulse
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(len(rep.sifted_key_alice) - n * p) < 3 * sigma


# ---------------------------------------------------------------------------
# message-level assertions and the secrecy firewall


ALLOWED_PAYLOAD_KEYS = {
    "Hello": {"wire_version", "bits_per_block", "mode", "eve"},
    "Block": {"results", "sample", "parities"},
    "Answer": {"values", "zeros", "discard"},
    "Done": {"reason"},
    "Ciphertext": {"bits"},
}


class RecordingTransport:
    def __init__(self, inner, log):
        self.inner = inner
        self.log = log

    def send_frame(self, data):
        self.log.append(data)
        self.inner.send_frame(data)

    def recv_frame(self):
        return self.inner.recv_frame()

    def close(self):
        self.inner.close()


class ReplayTransport:
    """Feeds back recorded frames; outgoing frames go nowhere."""

    def __init__(self, frames):
        self.frames = list(frames)

    def recv_frame(self):
        return self.frames.pop(0)

    def send_frame(self, data):
        pass

    def close(self):
        pass


def socket_pair(buffer=None, timeout=30.0):
    """Two connected SocketTransports, for parties in separate threads;
    ``buffer``, if given, sets each socket's send and receive buffer in
    bytes, and ``timeout`` bounds each send and receive in seconds."""
    s_a, s_b = socket.socketpair()
    if buffer is not None:
        for s in (s_a, s_b):
            s.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, buffer)
            s.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, buffer)
    return SocketTransport(s_a, timeout=timeout), SocketTransport(s_b, timeout=timeout)


def full_passes(n_blocks):
    """run_session's stop rule: as many of the blocks left as a pass holds."""
    return lambda eng: n_blocks - eng.blocks_done


def one_block_a_pass(n_blocks):
    """A stop rule that answers a bool, as the chat's does: one block a pass."""
    return lambda eng: eng.blocks_done < n_blocks


def chat_one_block_a_pass(needed):
    """The chat's stop rule asked after every block, as a bool: one
    block a pass, the reference that the chat's passes are held to."""
    empty = have = 0

    def more(eng):
        nonlocal empty, have
        have += len(eng.reconciled_passes[-1])
        empty = empty + 1 if eng.alarm and not len(eng.sifted_passes[-1]) else 0
        return empty < CHAT_EMPTY_BLOCKS and have < needed

    return more


def run_in_process(cfg, rule, channel=None, logs=None):
    """Both engines in one thread, as ``run_session`` runs them, with
    the sender's stop rule ``rule``; returns the two engines."""
    t_a, t_b = channel if channel is not None else loopback_pair()
    sid = cfg.session_id()
    bob = BobEngine(cfg, MessagePipe(t_b, sid))
    steps = bob.steps()
    alice = AliceEngine(cfg, MessagePipe(t_a, sid), lambda: next(steps, None), logs)
    alice.run(rule)
    for _ in steps:
        pass
    return alice, bob


def run_two_process(cfg, n_blocks=1, record_to_bob=None, record_to_alice=None, logs=None,
                    buffer=None, timeout=30.0, transcript=None, rule=full_passes):
    """Both engines in wire mode (sender owns the physics), each in its
    own thread over a socket pair, where every receive blocks; the
    sender's round log goes to ``logs``, if given. ``buffer`` and
    ``timeout`` go to ``socket_pair``; ``transcript``, if given, is a
    list that takes each party's frames as ``TranscriptTransport`` logs
    them. ``rule(n_blocks)`` is the sender's stop rule, by default
    ``run_session``'s."""
    t_a, t_b = socket_pair(buffer, timeout)
    if record_to_bob is not None:
        t_a = RecordingTransport(t_a, record_to_bob)
    if record_to_alice is not None:
        t_b = RecordingTransport(t_b, record_to_alice)
    if transcript is not None:
        t_a = TranscriptTransport(t_a, "alice", transcript)
        t_b = TranscriptTransport(t_b, "bob", transcript)
    sid = cfg.session_id()
    alice = AliceEngine(cfg, MessagePipe(t_a, sid), logs=logs)
    bob = BobEngine(cfg, MessagePipe(t_b, sid))
    failures = []

    def alice_main():
        try:
            alice.run(rule(n_blocks))
        except Exception as exc:
            failures.append(exc)
            t_a.close()

    th = threading.Thread(target=alice_main, daemon=True)
    th.start()
    try:
        bob.run()
    finally:
        th.join(timeout=30.0)
        t_a.close()
        t_b.close()
    assert not th.is_alive()
    assert not failures, failures
    return alice, bob


def afterpulsing_hw():
    # a Poisson source through a lossy fiber into a noiseless detector
    # whose afterpulses are strong but die out within a few gates, so
    # that hits on differing-bit rounds come from afterpulses alone
    return noiseless_hw(
        source=SourceParams(mean_photons=16.0),
        fiber=FiberParams(length_km=10.0, attenuation_db_per_km=math.log10(2.0)),
        detector=DetectorParams(efficiency=0.5, dark_rate=0.0,
                                afterpulse_prob0=0.2, afterpulse_tau=2e-4),
    )


def test_two_process_mode_equals_in_process():
    # the threaded helper, where each receive blocks, against the
    # one-thread run_session, across block boundaries and through the
    # afterpulsing detector's per-gate walk
    cases = [
        (make_cfg(bits_per_block=8192, eve=EveStrategy.FIXED_PROJECTION), 1),
        (make_cfg(bits_per_block=4096, eve=EveStrategy.FIXED_PROJECTION), 3),
        (make_cfg(mode=Mode.PHYSICAL, hardware=afterpulsing_hw(), bits_per_block=4096), 3),
    ]
    for cfg, n_blocks in cases:
        logs, wire_logs = RoundLogs(), RoundLogs()
        rep = run_session(cfg, n_blocks=n_blocks, logs=logs)
        alice, bob = run_two_process(cfg, n_blocks=n_blocks, logs=wire_logs)
        assert alice.blocks_done == n_blocks
        assert np.array_equal(alice.sifted_key(), rep.sifted_key_alice)
        assert np.array_equal(bob.sifted_key(), rep.sifted_key_bob)
        assert np.array_equal(alice.reconciled_key(), rep.reconciled_key)
        assert np.array_equal(wire_logs.hits, logs.hits)
        assert alice.ber == rep.ber_estimate
        assert alice.reconciled_total == len(rep.reconciled_key)


def stream_states(alice, bob):
    """The state of the sender's stream, its replica of the receiver's,
    the physics stream and the receiver's own."""
    return [rng.bit_generator.state for rng in
            (alice.rng, alice._bob_replica_rng, alice.kernel.rng, bob.rng)]


PASS_CASES = {
    "ideal": (make_cfg(), 70),
    "ideal_eve_fixed": (make_cfg(eve=EveStrategy.FIXED_PROJECTION), 40),
    "physical_afterpulse": (
        make_cfg(mode=Mode.PHYSICAL, hardware=afterpulsing_hw(), bits_per_block=2048), 40),
    "physical_eve_fixed": (
        make_cfg(mode=Mode.PHYSICAL, eve=EveStrategy.FIXED_PROJECTION, bits_per_block=4096,
                 hardware=HardwareProfile(source=SourceParams(mean_photons=3.0))), 20),
    "bits_1": (make_cfg(bits_per_block=1), 200),
    "bits_7": (make_cfg(bits_per_block=7), 300),
    "bits_1023": (make_cfg(bits_per_block=1023), 70),
}


@pytest.mark.parametrize("name", list(PASS_CASES))
def test_passes_of_many_blocks_equal_one_block_a_pass(name):
    # the same session run in full passes and with a one-block stop
    # rule: the same keys of both parties, the same verdict, the same
    # round log and the same end state of all four streams
    cfg, n_blocks = PASS_CASES[name]
    assert protocol.PASS_PULSES // cfg.bits_per_block > 1
    runs = []
    for rule in (full_passes, one_block_a_pass):
        logs = RoundLogs()
        runs.append((*run_in_process(cfg, rule(n_blocks), logs=logs), logs))
    (alice, bob, logs), (alice_1, bob_1, logs_1) = runs
    assert len(alice.sifted_passes) < len(alice_1.sifted_passes) == n_blocks
    assert alice.blocks_done == alice_1.blocks_done == n_blocks
    for get in (AliceEngine.sifted_key, AliceEngine.reconciled_key):
        for party, party_1 in ((alice, alice_1), (bob, bob_1)):
            assert np.array_equal(get(party), get(party_1))
    assert len(alice.sifted_key()) > 0  # a 1-bit block's segment pays its only bit
    assert (alice.ber, alice.bias, alice.alarm_reason) == (
        alice_1.ber, alice_1.bias, alice_1.alarm_reason)
    for column in LOG_DTYPES:
        assert np.array_equal(getattr(logs, column), getattr(logs_1, column)), column
    assert stream_states(alice, bob) == stream_states(alice_1, bob_1)
    assert alice.kernel.detector_state == alice_1.kernel.detector_state
    # and run_session's report is that of the full passes
    rep = run_session(cfg, n_blocks=n_blocks)
    assert np.array_equal(rep.reconciled_key, alice.reconciled_key())
    assert np.array_equal(rep.sifted_key_bob, bob.sifted_key())


CHAT_CASES = {  # a session and its message's characters
    "ideal_1800_chars": (make_cfg(), 1800),
    "physical_hi": (make_cfg(mode=Mode.PHYSICAL), 2),
    "ideal_eve_fixed": (make_cfg(eve=EveStrategy.FIXED_PROJECTION), 200),
    # the sample alarm stays up: passes of many blocks end on the empty-block stop
    "physical_60_km": (make_cfg(mode=Mode.PHYSICAL, bits_per_block=64, hardware=with_fields(
        HardwareProfile(), length_km=60.0, mean_photons=0.1)), 200),
    "bits_7": (make_cfg(bits_per_block=7), 20),
}


@pytest.mark.parametrize("name", list(CHAT_CASES))
def test_the_chat_runs_the_blocks_of_one_block_a_pass(name):
    # over 20 seed triples the chat's passes run the blocks that its
    # rule asked after every block runs: the same keys of both parties,
    # the same verdict and the same four tallies, in fewer exchanges
    cfg, chars = CHAT_CASES[name]
    top = block_yield(cfg.bits_per_block, cfg.error_sample_fraction)[1]
    runs = []
    for i in range(20):
        seeded = replace(cfg, seed_alice=100 + i, seed_bob=200 + i, seed_physics=300 + i)
        alice, bob = run_in_process(seeded, _chat_continue(8 * chars, top))
        alice_1, bob_1 = run_in_process(seeded, chat_one_block_a_pass(8 * chars))
        assert alice.blocks_done == alice_1.blocks_done == len(alice_1.sifted_passes)
        for get in (AliceEngine.sifted_key, AliceEngine.reconciled_key):
            for party, party_1 in ((alice, alice_1), (bob, bob_1)):
                assert np.array_equal(get(party), get(party_1))
        tallies = [(eng.alarm_reason, eng.sifted_total, eng.zeros_total, eng.disclosed_total,
                    eng.mismatch_total) for eng in (alice, alice_1)]
        assert tallies[0] == tallies[1]
        short = len(alice.reconciled_key()) < 8 * chars  # so it stopped on empty blocks
        runs.append((len(alice.reconciled_passes), alice.blocks_done, short))
    if name == "ideal_1800_chars":  # 86 blocks one a pass
        assert max(passes for passes, _, _ in runs) <= 16
    if name == "physical_60_km":
        assert any(passes < blocks and short for passes, blocks, short in runs)


def test_the_chat_rule_asks_only_for_blocks_it_would_run_one_at_a_time():
    # scripted blocks, not sessions, so that the alarm is also down over
    # 64 empty blocks in a row: each pass the rule asks for, the rule
    # asked after every block continues after each block of it but the
    # last, and stops after that one exactly when the pass's rule stops
    rng = np.random.default_rng(7)
    top = 5
    for _ in range(300):
        needed, p_empty, alarm, script = int(rng.integers(1, 300)), rng.random() ** 0.1, True, []
        for _ in range(600):  # (key bits after the sample, reconciled bits, alarm after it)
            if rng.random() < p_empty:  # a block that sifts nothing moves no tally
                script.append((0, 0, alarm))
            else:
                reconciled, alarm = int(rng.integers(0, top + 1)), bool(rng.integers(0, 2))
                script.append((reconciled + 1, reconciled, alarm))
        rule, rule_1 = _chat_continue(needed, top), chat_one_block_a_pass(needed)
        at, count, sender = 0, 1, None
        while count and at + count <= len(script):
            for i, block in enumerate(script[at:at + count]):
                more_1 = rule_1(ScriptedPass([block]))
                assert more_1 or i == count - 1
            sender = ScriptedPass(script[at:at + count], sender)
            at, count = at + count, rule(sender)
            assert bool(count) == more_1


class ScriptedPass:
    """What the chat's stop rules read of a sender after a pass of these
    scripted blocks, which follows the passes of ``before``, if given."""

    def __init__(self, blocks, before=None):
        kept = [kept for kept, _, _ in blocks]
        self.sifted_passes = [np.zeros(sum(kept), np.uint8)]
        self.reconciled_passes = [np.zeros(sum(r for _, r, _ in blocks), np.uint8)]
        self.reconciled_total = len(self.reconciled_passes[0])
        self.empty_run = 0
        if before is not None:
            self.reconciled_total += before.reconciled_total
            self.empty_run = before.empty_run
        for k in kept:  # blocks since the last one that sifted a bit
            self.empty_run = 0 if k else self.empty_run + 1
        self.alarm = blocks[-1][2]


def test_a_large_block_over_small_socket_buffers_does_not_stall():
    # a 2M-pulse Block is many times a 4 kB socket buffer: the receiver
    # reads the whole Block before it answers, so the two never write
    # at once, each waiting on the other until the transport times out
    cfg = make_cfg(bits_per_block=2_000_000)
    rep = run_session(cfg)
    alice, bob = run_two_process(cfg, buffer=4096, timeout=5.0)
    assert np.array_equal(alice.sifted_key(), rep.sifted_key_alice)
    assert np.array_equal(bob.sifted_key(), rep.sifted_key_bob)
    assert np.array_equal(alice.reconciled_key(), rep.reconciled_key)
    assert np.array_equal(bob.reconciled_key(), rep.reconciled_key)


class TranscriptTransport:
    """Appends (party, "send" or "recv", kind) for each frame to a shared list."""

    def __init__(self, inner, party, log):
        self.inner, self.party, self.log = inner, party, log

    def send_frame(self, data):
        self.log.append((self.party, "send", decode_frame(data[4:])["kind"]))
        self.inner.send_frame(data)

    def recv_frame(self):
        data = self.inner.recv_frame()
        self.log.append((self.party, "recv", decode_frame(data[4:])["kind"]))
        return data

    def close(self):
        self.inner.close()


def exchanges(passes):
    """The transcript of a session of these passes: two frames a pass,
    after the Hello, and one Done at the end."""
    expected = [("bob", "send", "Hello"), ("alice", "recv", "Hello")]
    for _ in passes:
        expected += [("alice", "send", "Block"), ("bob", "recv", "Block"),
                     ("bob", "send", "Answer"), ("alice", "recv", "Answer")]
    return expected + [("alice", "send", "Done"), ("bob", "recv", "Done")]


def test_each_pass_is_one_exchange(monkeypatch):
    # two frames a pass, the sender's Block and the receiver's Answer;
    # the first Block, of one block, accepts the Hello, each later pass
    # holds as many of the blocks left as PASS_PULSES allows, and one
    # Done ends the session
    log, steps, to_bob = [], [], []

    class CountingSender(AliceEngine):
        def __init__(self, cfg, pipe, peer_step, logs):
            super().__init__(cfg, pipe, lambda: (steps.append(None), peer_step()), logs)

    monkeypatch.setattr(protocol, "AliceEngine", CountingSender)
    t_a, t_b = loopback_pair()
    cfg = make_cfg(bits_per_block=1024)
    passes = [1, protocol.PASS_PULSES // 1024, 7]
    rep = run_session(cfg, n_blocks=sum(passes), channel=(
        TranscriptTransport(RecordingTransport(t_a, to_bob), "alice", log),
        TranscriptTransport(t_b, "bob", log)))
    assert rep.n_rounds == 1024 * sum(passes)
    assert log == exchanges(passes)
    assert len(steps) == 1 + len(passes)
    blocks = [decode_frame(raw[4:])["payload"]["results"] for raw in to_bob[:-1]]
    assert [len(results) for results in blocks] == [1024 * k for k in passes]
    assert not inspect.isgeneratorfunction(BobEngine.run_block)
    # a stop rule that answers a bool, as the chat's does, runs one block a pass
    log.clear()
    t_a, t_b = loopback_pair()
    run_in_process(cfg, one_block_a_pass(3), channel=(
        TranscriptTransport(t_a, "alice", log), TranscriptTransport(t_b, "bob", log)))
    assert log == exchanges([1, 1, 1])
    # over sockets each party runs in its own thread: the order of each
    # party's own sends and reads is the same
    for rule, passes in ((full_passes, [1, 2]), (one_block_a_pass, [1, 1, 1])):
        over_sockets = []
        run_two_process(cfg, n_blocks=3, transcript=over_sockets, rule=rule)
        for party in ("alice", "bob"):
            assert ([e for e in over_sockets if e[0] == party]
                    == [e for e in exchanges(passes) if e[0] == party])


def test_message_schema_and_results_content():
    cfg = make_cfg(bits_per_block=4096)
    to_bob, to_alice = [], []
    kernel_logs = RoundLogs()
    run_two_process(cfg, record_to_bob=to_bob, record_to_alice=to_alice, logs=kernel_logs)
    results_bits = None
    for raw in to_bob + to_alice:
        msg = decode_frame(raw[4:])
        assert set(msg["payload"]) <= ALLOWED_PAYLOAD_KEYS[msg["kind"]], msg["kind"]
        assert len(raw) <= MAX_FRAME_BYTES
        if msg["kind"] == "Block":
            results_bits = msg["payload"]["results"]
    # the hit record crosses the wire; nobody's bit values do
    assert results_bits is not None
    assert np.array_equal(results_bits, kernel_logs.hits)
    assert not np.array_equal(results_bits, kernel_logs.bob_bits)
    assert not np.array_equal(results_bits, kernel_logs.alice_bits)


@pytest.mark.parametrize("cfg", [
    make_cfg(bits_per_block=4096),
    make_cfg(mode=Mode.PHYSICAL, bits_per_block=16384,
             hardware=HardwareProfile(detector=DetectorParams(afterpulse_prob0=0.05))),
    make_cfg(bits_per_block=4096, eve=EveStrategy.FIXED_PROJECTION),
    make_cfg(mode=Mode.PHYSICAL, bits_per_block=16384, eve=EveStrategy.FIXED_PROJECTION,
             hardware=HardwareProfile(source=SourceParams(mean_photons=3.0))),
], ids=["ideal", "physical_afterpulse", "eve_fixed", "physical_eve_fixed"])
def test_a_round_log_touches_no_draw(cfg):
    # the same seeds with and without a log give the same keys and the
    # same frames, and leave the sender's, the receiver replica's, the
    # physics and the receiver's streams in the same state
    runs = []
    for logs in (None, RoundLogs()):
        frames = []
        alice, bob = run_two_process(cfg, n_blocks=3, record_to_bob=frames, logs=logs)
        runs.append((alice.reconciled_key(), bob.reconciled_key(), frames,
                     stream_states(alice, bob)))
    (key_a, key_b, frames, streams), logged = runs
    assert np.array_equal(key_a, logged[0]) and np.array_equal(key_b, logged[1])
    assert frames == logged[2] and streams == logged[3]
    sent = [decode_frame(raw[4:]) for raw in frames]
    hits = np.concatenate([msg["payload"]["results"] for msg in sent if msg["kind"] == "Block"])
    assert len(hits) == 3 * cfg.bits_per_block
    assert np.array_equal(hits, logs.hits)


def test_sequences_strictly_increase():
    cfg = make_cfg(bits_per_block=2048)
    to_bob, to_alice = [], []
    run_two_process(cfg, record_to_bob=to_bob, record_to_alice=to_alice)
    for stream in (to_bob, to_alice):
        seqs = [decode_frame(raw[4:])["sequence"] for raw in stream]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)


def test_firewall_bob_depends_only_on_his_seed_and_frames():
    # replaying the exact frame stream into a fresh receiver engine
    # reproduces his keys: his decisions are a function of his own
    # seed plus schema-level messages, nothing else
    cfg = make_cfg(bits_per_block=4096, eve=EveStrategy.FIXED_PROJECTION)
    to_bob = []
    _, bob = run_two_process(cfg, record_to_bob=to_bob)
    replay = BobEngine(cfg, MessagePipe(ReplayTransport(to_bob), cfg.session_id()))
    replay.run()
    assert np.array_equal(replay.sifted_key(), bob.sifted_key())
    assert np.array_equal(replay.reconciled_key(), bob.reconciled_key())


def test_firewall_alice_depends_only_on_her_seeds_and_frames():
    cfg = make_cfg(bits_per_block=4096)
    to_alice = []
    alice, _ = run_two_process(cfg, record_to_alice=to_alice)
    replay = AliceEngine(cfg, MessagePipe(ReplayTransport(to_alice), cfg.session_id()))
    replay.run(lambda eng: eng.blocks_done < 1)
    assert np.array_equal(replay.sifted_key(), alice.sifted_key())
    assert np.array_equal(replay.reconciled_key(), alice.reconciled_key())


def test_session_abort_on_channel_failure():
    class DyingTransport:
        def __init__(self, inner, budget):
            self.inner = inner
            self.budget = budget

        def send_frame(self, data):
            self.inner.send_frame(data)

        def recv_frame(self):
            if self.budget <= 0:
                from b92sim.errors import ChannelError

                raise ChannelError("link went down")
            self.budget -= 1
            return self.inner.recv_frame()

        def close(self):
            self.inner.close()

    # the sender reads the Hello, and the link goes down before the Answer
    t_a, t_b = loopback_pair()
    cfg = make_cfg(bits_per_block=512)
    with pytest.raises(SessionAbort, match="link went down"):
        run_session(cfg, channel=(DyingTransport(t_a, 1), t_b))


def test_hello_mismatch_aborts():
    cfg_a = make_cfg(bits_per_block=512)
    cfg_b = make_cfg(bits_per_block=1024)
    t_a, t_b = socket_pair()
    sid = cfg_a.session_id()
    alice = AliceEngine(cfg_a, MessagePipe(t_a, sid))
    bob = BobEngine(cfg_b, MessagePipe(t_b, sid))
    th = threading.Thread(target=lambda: bob_try(bob), daemon=True)

    def bob_try(b):
        try:
            b.run()
        except Exception:
            pass

    th.start()
    with pytest.raises(SessionAbort):
        alice.run(lambda eng: False)
    t_a.close()
    th.join(timeout=5.0)
    assert not th.is_alive()
    t_b.close()


# ---------------------------------------------------------------------------
# eavesdropper/loss ordering


def test_eve_before_or_after_loss_is_observationally_equivalent():
    # production order: Eve projects the logical pulse, then the fiber
    # thins photons. The alternative order (thin first, Eve measures
    # surviving pulses) must give the receiver identical hit statistics.
    mu, t, eta, n = 0.8, 0.5, 1.0, 200_000
    hw = HardwareProfile(
        source=SourceParams(mean_photons=mu),
        fiber=FiberParams(length_km=10.0, attenuation_db_per_km=math.log10(1 / t)),
        detector=DetectorParams(efficiency=eta, dark_rate=0.0),
    )
    cfg = make_cfg(mode=Mode.PHYSICAL, hardware=hw,
                   eve=EveStrategy.FIXED_PROJECTION, bits_per_block=n)
    logs = RoundLogs()
    rep = run_session(cfg, logs=logs)

    rng = np.random.default_rng(101)
    alice_bits = logs.alice_bits
    bob_bits = logs.bob_bits
    counts = rng.poisson(mu, size=n)
    survivors = rng.binomial(counts, t)
    eve_pass = rng.random(n) < np.where(alice_bits == 0, 1.0, 0.5)
    fwd = np.where(eve_pass, 0, 1)
    q = np.where(fwd == 0, np.where(bob_bits == 0, 0.5, 0.0),
                 np.where(bob_bits == 0, 0.5, 1.0))
    p_window = 0.125 * (1.0 + (2.0 * q - 1.0))
    p_hit = 1.0 - (1.0 - p_window * eta) ** survivors
    alt_hits = rng.random(n) < p_hit

    for a in (0, 1):
        for b in (0, 1):
            sel = (alice_bits == a) & (bob_bits == b)
            prod = logs.hits[sel].mean()
            alt = alt_hits[sel].mean()
            assert prod == pytest.approx(alt, abs=0.01), (a, b)


# ---------------------------------------------------------------------------
# analytic link budget


def test_predict_key_rate_reference_point():
    hw = HardwareProfile(
        source=SourceParams(mean_photons=0.1, pulse_rate=10e3),
        fiber=FiberParams(length_km=10.0, attenuation_db_per_km=math.log10(4.0)),
        detector=DetectorParams(efficiency=0.2),
    )
    cfg = make_cfg(mode=Mode.PHYSICAL, hardware=hw)
    pred = predict_key_rate(cfg)
    product = 0.1 * 0.25 * (1 / 16) * 0.2
    assert abs(pred.bits_per_pulse - product) < 1e-15
    assert pred.bits_per_pulse == pytest.approx(3.125e-4, abs=1e-15)
    assert pred.bits_per_second == pytest.approx(3.125, rel=1e-12)
    assert pred.factors["fiber_transmission"] == pytest.approx(0.25, abs=1e-15)


def test_predict_key_rate_ideal_source_times_ten():
    hw = HardwareProfile(
        source=SourceParams(mean_photons=0.1, pulse_rate=10e3),
        fiber=FiberParams(length_km=10.0, attenuation_db_per_km=math.log10(4.0)),
        detector=DetectorParams(efficiency=0.2),
    )
    cfg = make_cfg(mode=Mode.PHYSICAL, hardware=hw)
    ideal = replace(cfg, hardware=replace(hw, source=replace(hw.source,
                                                             ideal_single_photon=True)))
    assert predict_key_rate(ideal).bits_per_pulse == pytest.approx(
        10.0 * predict_key_rate(cfg).bits_per_pulse, rel=1e-15
    )


def test_predict_key_rate_bench_case():
    cfg = make_cfg(mode=Mode.PHYSICAL, hardware=noiseless_hw())
    assert predict_key_rate(cfg).bits_per_pulse == pytest.approx(1 / 16, abs=1e-15)


def test_predict_key_rate_requires_physical_mode():
    with pytest.raises(ConfigError):
        predict_key_rate(make_cfg(mode=Mode.IDEAL))


def test_analytic_ber_visibility_floor():
    # with the detector noise off, the bench error rate is set by the
    # fringe contrast alone: about (1-V)/(2-V), i.e. ~0.5% at V=0.995
    hw = HardwareProfile(
        detector=DetectorParams(dark_rate=0.0),
        interferometer=InterferometerConfig(visibility=0.995),
    )
    floor = analytic_ber(hw, 0.0)
    assert abs(floor - 0.005) < 5e-4
    assert floor == pytest.approx(0.005 / 1.005, rel=2e-3)


def test_analytic_ber_growth_with_distance():
    hw = HardwareProfile(interferometer=InterferometerConfig(visibility=0.995))
    distances = np.linspace(0, 200, 60)
    bers = [analytic_ber(hw, float(d)) for d in distances]
    assert all(b2 >= b1 - 1e-15 for b1, b2 in zip(bers, bers[1:]))
    assert bers[-1] > 0.4  # dark counts push it toward a coin flip


def test_analytic_ber_keeps_its_precision_far_down_the_fiber():
    # with no dark counts and a faint source the error rate stays at the
    # small-signal limit (1-V)/(2-V) however long the fiber; 1 - exp(-x)
    # lost that limit to cancellation once x fell to about 1e-12
    hw = HardwareProfile(
        source=SourceParams(mean_photons=0.001),
        detector=DetectorParams(efficiency=0.01, dark_rate=0.0),
        interferometer=InterferometerConfig(visibility=0.995),
    )
    limit = (1.0 - 0.995) / (2.0 - 0.995)
    for distance_km in (100.0, 150.0, 200.0):
        assert analytic_ber(hw, distance_km) == pytest.approx(limit, rel=1e-9), distance_km


def test_long_arm_loss_reaches_the_session():
    # an uneven long-arm loss costs fringe contrast: with ta^2 = 1/2 and
    # tb^2 = 1 the central window is (1/16)(ta^2 + tb^2 + 2 V ta tb cos(delta)),
    # so differing bits (cos = -1) hit about 2.7 % of the time and the
    # error rate climbs past the alarm threshold even at V = 1
    mu = 5.0
    hw = HardwareProfile(
        source=SourceParams(mean_photons=mu),
        detector=DetectorParams(efficiency=1.0, dark_rate=0.0),
        interferometer=InterferometerConfig(long_path_loss_a=0.5),
    )
    ta2, tb2 = 0.5, 1.0
    p_same = -math.expm1(-mu * (ta2 + tb2) / 16.0)
    p_diff = -math.expm1(-mu * (ta2 + tb2 - 2.0 * math.sqrt(ta2 * tb2)) / 16.0)
    ber = p_diff / (p_same + p_diff)
    assert analytic_ber(hw) == pytest.approx(ber, rel=1e-12)

    cfg = SessionConfig(seed_alice=11, seed_bob=12, seed_physics=13, bits_per_block=200_000,
                        mode=Mode.PHYSICAL, hardware=hw)
    logs = RoundLogs()
    report = run_session(cfg, n_blocks=2, logs=logs)
    agree = logs.alice_bits == logs.bob_bits
    for sel, p in ((agree, p_same), (~agree, p_diff)):
        n = int(sel.sum())
        rate = logs.hits[sel].mean()
        assert abs(rate - p) < 4.0 * math.sqrt(p * (1.0 - p) / n), (rate, p)
    n_sample = cfg.error_sample_fraction * len(report.sifted_key_alice)
    assert abs(report.ber_estimate - ber) < 3.0 * math.sqrt(ber * (1.0 - ber) / n_sample)
    assert report.alarm and report.alarm_reason == "ber"


def test_shared_fringe_law_equals_the_lossless_kernel_expression():
    # without long-arm loss the shared law gives the same doubles as the
    # kernel's former central-window expression, so the RNG stream and
    # every hit stay as they were
    q = np.array([0.0, 0.5, 1.0])
    visibilities = np.concatenate([np.linspace(0.0, 1.0, 2001),
                                   np.random.default_rng(5).random(1000)])
    for v in visibilities.tolist():
        old = 0.125 * (1.0 + v * (2.0 * q - 1.0))
        assert (central_window(InterferometerConfig(visibility=v), 2.0 * q - 1.0) == old).all(), v


def test_ber_crossing_distance():
    hw = HardwareProfile(interferometer=InterferometerConfig(visibility=0.995))
    floor = analytic_ber(hw, 0.0)
    for threshold in (0.02, 0.05, 0.25, 0.49):
        assert threshold > floor
        d = ber_crossing_distance(hw, threshold)
        assert d is not None and np.isfinite(d)
        assert analytic_ber(hw, d) >= threshold
        assert analytic_ber(hw, d * 0.99) < threshold
    # already over the threshold at the sender's door
    poor = HardwareProfile(interferometer=InterferometerConfig(visibility=0.5))
    assert analytic_ber(poor, 0.0) > 0.05
    assert ber_crossing_distance(poor, 0.05) == 0.0
    # without dark counts the error rate stays at its visibility floor
    # however long the fiber, so a threshold above it is never reached
    quiet = with_fields(hw, dark_rate=0.0)
    assert ber_crossing_distance(quiet, 0.05) is None
    assert ber_crossing_distance(quiet, 0.05, d_max=50.0) is None


def test_analytic_ber_ideal_source_closed_form():
    # one photon a pulse: the signal hit chances are t*eta*w, linear in
    # the window w, so without dark counts the error rate is
    # (1-V)/(2-V) at every length; dark counts then add d(1 - p)
    v = 0.99
    hw = HardwareProfile(source=SourceParams(ideal_single_photon=True, mean_photons=2.0),
                         interferometer=InterferometerConfig(visibility=v))
    for distance_km in (0.0, 25.0, 80.0):
        at = with_fields(hw, length_km=distance_km)
        signal = fiber_transmission(at.fiber) * at.detector.efficiency / 8.0
        d = dark_probability(at.detector)
        hit_same = signal + d * (1.0 - signal)
        hit_diff = signal * (1.0 - v) + d * (1.0 - signal * (1.0 - v))
        assert analytic_ber(hw, distance_km) == pytest.approx(
            hit_diff / (hit_same + hit_diff), rel=1e-12)
        quiet = with_fields(hw, dark_rate=0.0)
        assert analytic_ber(quiet, distance_km) == pytest.approx((1 - v) / (2 - v), rel=1e-12)


def test_analytic_ber_with_nothing_to_hit_is_zero():
    hw = HardwareProfile(detector=DetectorParams(efficiency=0.0, dark_rate=0.0))
    assert analytic_ber(hw, 0.0) == 0.0
    assert analytic_ber(hw, 50.0) == 0.0


def test_unknown_names_and_no_blocks_are_config_errors():
    with pytest.raises(ConfigError, match="n_blocks"):
        run_session(make_cfg(), n_blocks=0)
    with pytest.raises(ConfigError, match="unknown mode 'quantum'"):
        Mode.from_str("quantum")
    with pytest.raises(ConfigError, match="unknown eve strategy 'bogus'"):
        EveStrategy.from_str("bogus")
    assert Mode.from_str("PHYSICAL") is Mode.PHYSICAL
    assert EveStrategy.from_str("Fixed") is EveStrategy.FIXED_PROJECTION


@pytest.mark.parametrize("n_blocks", [2.5, "3", True, None])
def test_run_session_refuses_a_block_count_that_is_not_an_integer(n_blocks):
    # 2.5 would run 3 blocks, "3" fail as a bare TypeError, True run 1 block
    with pytest.raises(ConfigError, match="n_blocks must be an integer"):
        run_session(make_cfg(), n_blocks=n_blocks)


def test_session_that_sifts_nothing_has_no_bias_and_fails_closed():
    # a blind detector: no hits, so no sifted bits, no disclosed sample
    # and no zero fraction to report
    hw = HardwareProfile(detector=DetectorParams(efficiency=0.0, dark_rate=0.0))
    rep = run_session(make_cfg(mode=Mode.PHYSICAL, hardware=hw, bits_per_block=512), n_blocks=2)
    assert rep.n_rounds == 1024 and len(rep.sifted_key_alice) == 0
    assert len(rep.sifted_key_bob) == 0 and len(rep.reconciled_key) == 0
    assert math.isnan(rep.zero_bias)
    assert rep.alarm and rep.alarm_reason == "sample"


def test_session_config_validation():
    with pytest.raises(ConfigError):
        make_cfg(bits_per_block=0)
    with pytest.raises(ConfigError):
        make_cfg(error_sample_fraction=1.0)
    # bounded before any bit is drawn, so this allocates nothing
    with pytest.raises(ConfigError, match="bits_per_block must lie in"):
        make_cfg(bits_per_block=MAX_BITS_PER_BLOCK + 1)
    make_cfg(bits_per_block=MAX_BITS_PER_BLOCK)
    # the afterpulse trap caps usable gate rates
    hw = HardwareProfile(source=SourceParams(pulse_rate=1e6))
    with pytest.raises(ConfigError):
        make_cfg(mode=Mode.PHYSICAL, hardware=hw)


@pytest.mark.parametrize("field, value", [
    ("bits_per_block", 1024.0), ("bits_per_block", True), ("bits_per_block", "1024"),
    ("seed_alice", 1.5), ("seed_physics", np.bool_(True)), ("error_sample_fraction", "0.25"),
    ("error_sample_fraction", False), ("mode", "physical"), ("eve", "fixed"),
    ("hardware", None), ("seed_alice", -1),
])
def test_session_config_refuses_a_number_of_the_wrong_kind(field, value):
    # each would fail later as a bare TypeError or AttributeError, run 1-pulse
    # blocks for True, or skip the Physical-only checks for "physical"
    with pytest.raises(ConfigError, match=f"{field} must be"):
        make_cfg(**{field: value})


def test_session_config_stores_the_types_the_hello_carries():
    cfg = make_cfg(seed_alice=np.int64(11), bits_per_block=np.int64(1024), error_sample_fraction=0)
    assert type(cfg.seed_alice) is int and type(cfg.bits_per_block) is int
    assert type(cfg.error_sample_fraction) is float
    # an int 0 fraction reaches the peer as 0.0 and gives the key of 0.0
    key = run_session(cfg, n_blocks=2).reconciled_key
    assert np.array_equal(key, run_session(make_cfg(error_sample_fraction=0.0), n_blocks=2).reconciled_key)


def test_session_config_checks_the_dark_count_model():
    # a dark-count rate outside the linear model fails when the
    # configuration is built, before any block runs
    hw = HardwareProfile(detector=DetectorParams(dark_rate=1e9))
    with pytest.raises(ModelValidityError, match="dark_rate \\* gate_window"):
        make_cfg(mode=Mode.PHYSICAL, hardware=hw)
    make_cfg(mode=Mode.IDEAL, hardware=hw)  # Ideal mode has no detector


def test_afterpulse_path_in_session():
    det = DetectorParams(efficiency=1.0, dark_rate=0.0,
                         afterpulse_prob0=0.2, afterpulse_tau=3e-3)
    hw = noiseless_hw(detector=det)
    cfg = make_cfg(mode=Mode.PHYSICAL, hardware=hw, bits_per_block=20_000)
    logs = RoundLogs()
    rep = run_session(cfg, logs=logs)
    base = make_cfg(mode=Mode.PHYSICAL, hardware=noiseless_hw(), bits_per_block=20_000)
    rep_base = run_session(base)
    # trapped charge releases extra hits, some on differing-bit rounds
    assert rep.sifted_fraction > rep_base.sifted_fraction
    differing = logs.alice_bits != logs.bob_bits
    assert logs.hits[differing].sum() > 0


def test_afterpulse_walk_matches_per_pulse_reference():
    # the kernel's afterpulse path against a per-pulse loop over the
    # scalar thinning, interferometer and gate models, fed the session's
    # logged bits and photon counts; the detector's trapped charge runs
    # on across the block boundaries
    hw = afterpulsing_hw()
    cfg = make_cfg(mode=Mode.PHYSICAL, hardware=hw, bits_per_block=15_000)
    logs = RoundLogs()
    run_session(cfg, n_blocks=3, logs=logs)
    rng = np.random.default_rng(202)
    det = hw.detector
    transmission = fiber_transmission(hw.fiber)
    window = {(a, b): effective_hit_prob(a, b, hw.interferometer.visibility)
              for a in (0, 1) for b in (0, 1)}
    state, now = DetectorState(), 0.0
    ref = np.zeros(len(logs), dtype=bool)
    for i, (a, b, count) in enumerate(zip(logs.alice_bits, logs.bob_bits, logs.photon_counts)):
        k = thin_photons(int(count), transmission, rng)
        p_window = window[(int(a), int(b))]
        p_eff = (1.0 - (1.0 - p_window * det.efficiency) ** k) / det.efficiency
        now += 1.0 / hw.source.pulse_rate
        ref[i], state = gate_detector(k > 0, p_eff, det, state, now, rng)
    differing = logs.alice_bits != logs.bob_bits
    n = int(differing.sum())
    kernel_rate = logs.hits[differing].mean()
    ref_rate = ref[differing].mean()
    p = 0.5 * (kernel_rate + ref_rate)
    sigma = math.sqrt(2.0 * p * (1.0 - p) / n)
    assert ref_rate > 0.01  # afterpulses do show on differing-bit rounds
    assert abs(kernel_rate - ref_rate) < 4.0 * sigma, (kernel_rate, ref_rate, sigma)


def dense_stages(cfg, rng, alice_bits, bob_bits):
    """The Physical block's stages ahead of the detector, over every
    pulse: Poisson counts, Eve, binomial thinning of every pulse and
    the central window of every pulse. Returns (p_window, survivors)."""
    hw = cfg.hardware
    n = len(alice_bits)
    counts = (np.ones(n, dtype=np.int64) if hw.source.ideal_single_photon
              else rng.poisson(hw.source.mean_photons, size=n).astype(np.int64))
    if cfg.eve is EveStrategy.NONE:
        table, cell = protocol._PASS_TABLE, 2 * alice_bits + bob_bits
    else:
        guesses = (rng.random(n) >= protocol._EVE_PASS[alice_bits]).astype(np.int8)
        table, cell = protocol._FWD_PASS, 2 * guesses + bob_bits
    survivors = rng.binomial(counts, fiber_transmission(hw.fiber)).astype(np.int64)
    return central_window(hw.interferometer, 2.0 * table - 1.0)[cell], survivors


def dense_reference_block(cfg, rng, state, alice_bits, bob_bits, per_gate):
    """A Physical block over every pulse (``dense_stages``), then the
    detector: one ``gate_detector`` call a pulse (``per_gate``), or the
    memoryless hit law 1 - (1 - p_signal)(1 - p_dark) of every pulse on
    one ``rng.random(n)``. The reference the kernel's lit-pulse path
    must equal exactly; returns (hits, detector state)."""
    hw, det = cfg.hardware, cfg.hardware.detector
    p_window, survivors = dense_stages(cfg, rng, alice_bits, bob_bits)
    eta = det.efficiency
    if not per_gate:
        p_signal = 1.0 - (1.0 - p_window * eta) ** survivors
        p_hit = 1.0 - (1.0 - p_signal) * (1.0 - dark_probability(det))
        return (rng.random(len(survivors)) < p_hit).astype(np.uint8), state
    dt = 1.0 / hw.source.pulse_rate
    base = state.last_avalanche_time
    hits = np.zeros(len(survivors), dtype=np.uint8)
    for i, (p, k) in enumerate(zip(p_window, survivors)):
        if k > 0 and eta > 0.0:
            p_eff = (1.0 - (1.0 - p * eta) ** int(k)) / eta
        else:
            p_eff = 0.0
        hits[i], state = gate_detector(k > 0, p_eff, det, state, base + (i + 1) * dt, rng)
    return hits, state


def dense_ideal_block(cfg, rng, alice_bits, bob_bits):
    """An Ideal block by gathering the pass table per pulse: Eve's
    guesses first, then one uniform a pulse against table[2*sent + bob].
    The reference the kernel's per-value compares must equal exactly."""
    n = len(alice_bits)
    if cfg.eve is EveStrategy.NONE:
        table, sent = protocol._PASS_TABLE, alice_bits
    else:
        sent = (rng.random(n) >= protocol._EVE_PASS[alice_bits]).astype(np.int8)
        table = protocol._FWD_PASS
    return (rng.random(n) < table[2 * sent + bob_bits]).astype(np.uint8)


@pytest.mark.parametrize("eve", [EveStrategy.NONE, EveStrategy.FIXED_PROJECTION])
@pytest.mark.parametrize("n", [1, 7, 1024, 100_003])
def test_ideal_hits_equal_the_gathered_table_exactly(n, eve):
    cfg = make_cfg(eve=eve, bits_per_block=n)
    logs = RoundLogs()
    kernel = PhysicsKernel(cfg, np.random.default_rng(77), logs)
    # bits of a wider integer type give the same hits
    wide = PhysicsKernel(cfg, np.random.default_rng(77))
    ref = np.random.default_rng(77)
    bits = np.random.default_rng(n)
    for _ in range(3):
        a, b = generate_bits(n, bits), generate_bits(n, bits)
        got = kernel.transmit_block(a, b)
        assert got.dtype == np.uint8
        assert np.array_equal(got, dense_ideal_block(cfg, ref, a, b))
        assert kernel.rng.bit_generator.state == ref.bit_generator.state
        got_wide = wide.transmit_block(a.astype(np.int64), b.astype(np.int64))
        assert got_wide.dtype == np.uint8 and np.array_equal(got_wide, got)
    if n > 1000:
        assert 0 < logs.hits.sum() < len(logs)
        assert set(np.unique(logs.eve_guesses).tolist()) == (
            {-1} if eve is EveStrategy.NONE else {0, 1})


def test_kernel_stages_equal_the_scalar_references():
    # a Physical block with Eve, multi-photon pulses and afterpulsing
    # equals the scalar references run stage by stage on the same
    # stream: photon counts, Eve, fiber thinning, then one gate a pulse
    hw = HardwareProfile(
        source=SourceParams(mean_photons=3.0),
        fiber=FiberParams(length_km=20.0),
        detector=DetectorParams(afterpulse_prob0=0.05, dark_rate=1e6),
        interferometer=InterferometerConfig(visibility=0.97),
    )
    cfg = make_cfg(mode=Mode.PHYSICAL, eve=EveStrategy.FIXED_PROJECTION, hardware=hw)
    n = 4000
    bits = np.random.default_rng(5)
    alice_bits, bob_bits = generate_bits(n, bits), generate_bits(n, bits)
    logs = RoundLogs()
    kernel = PhysicsKernel(cfg, np.random.default_rng(77), logs)
    got_hits = kernel.transmit_block(alice_bits, bob_bits)

    rng = np.random.default_rng(77)
    counts = [sample_photon_count(hw.source, rng) for _ in range(n)]
    eve = [eve_intercept(alice_prepare(int(a)), EveStrategy.FIXED_PROJECTION, rng)
           for a in alice_bits]
    survivors = [thin_photons(k, fiber_transmission(hw.fiber), rng) for k in counts]
    det, v, dt = hw.detector, hw.interferometer.visibility, 1.0 / hw.source.pulse_rate
    state, hits = DetectorState(), []
    for i, ((_, forwarded), b, k) in enumerate(zip(eve, bob_bits, survivors)):
        q = pass_probability(forwarded, bob_projector(int(b)))
        p_window = 0.125 * (1.0 + v * (2.0 * q - 1.0))
        p_eff = (1.0 - (1.0 - p_window * det.efficiency) ** k) / det.efficiency if k else 0.0
        hit, state = gate_detector(k > 0, p_eff, det, state, (i + 1) * dt, rng)
        hits.append(int(hit))
    assert logs.photon_counts.tolist() == counts
    assert logs.eve_guesses.tolist() == [g if c else -1 for (g, _), c in zip(eve, counts)]
    assert got_hits.tolist() == hits == logs.hits.tolist()
    assert kernel.detector_state == state
    assert kernel.rng.bit_generator.state == rng.bit_generator.state
    assert sum(k > 1 for k in survivors) > 100 and 0 < sum(hits)


def bench_detector(**kw):
    return HardwareProfile(detector=DetectorParams(afterpulse_prob0=0.05, **kw))


@pytest.mark.parametrize(
    "hw, n_blocks, block, start",
    [
        (bench_detector(), 4, 65536, DetectorState()),
        (afterpulsing_hw(), 2, 5000, DetectorState()),
        (bench_detector(afterpulse_tau=0.0, dark_rate=5e7), 2, 20000, DetectorState()),
        (bench_detector(efficiency=0.0, dark_rate=5e7), 2, 20000, DetectorState()),
        # slower decay and frequent dark counts: the trap is charged at
        # the start of every block, and empties now and then in between
        (bench_detector(afterpulse_tau=3e-5, dark_rate=1e8), 3, 3000,
         DetectorState(trap_charge=0.5, last_avalanche_time=1.0)),
        # a trap that never decays: its hazard moves every verdict
        (bench_detector(afterpulse_tau=1e20), 2, 5000, DetectorState()),
        # a slow decay: the trap moves verdicts for many gates after a hit
        (HardwareProfile(detector=DetectorParams(afterpulse_prob0=0.5, afterpulse_tau=1e-3)),
         2, 5000, DetectorState()),
        # multi-photon pulses: the signal hazard of k > 1 photons
        (HardwareProfile(source=SourceParams(mean_photons=5.0),
                         detector=DetectorParams(afterpulse_prob0=0.05)), 2, 20000,
         DetectorState()),
    ],
    ids=["bench_profile", "afterpulsing_hw", "tau_0", "efficiency_0", "charged_start",
         "never_decays", "slow_decay", "multi_photon"],
)
def test_afterpulse_walk_equals_per_gate_loop_exactly(hw, n_blocks, block, start):
    cfg = make_cfg(mode=Mode.PHYSICAL, hardware=hw, bits_per_block=block)
    kernel = PhysicsKernel(cfg, np.random.default_rng(77))
    ref = np.random.default_rng(77)
    kernel.detector_state = state = start
    bits = np.random.default_rng(5)
    for _ in range(n_blocks):
        if start.trap_charge:  # every block starts with a charged trap
            assert state.trap_charge != 0.0
        a, b = generate_bits(block, bits), generate_bits(block, bits)
        got = kernel.transmit_block(a, b)
        want, state = dense_reference_block(cfg, ref, state, a, b, per_gate=True)
        assert np.array_equal(got, want)
        assert kernel.detector_state == state
        assert kernel.rng.bit_generator.state == ref.bit_generator.state
    assert want.sum() > 0


def test_afterpulse_walk_steps_at_most_two_gates_per_hit(monkeypatch):
    # on the benchmark profile the trap's hazard vanishes beside 1 one
    # gate after an avalanche, so the walk steps about one gate per hit
    steps = 0
    gate_step = hardware._gate_step

    def counted(*args):
        nonlocal steps
        steps += 1
        return gate_step(*args)

    monkeypatch.setattr(hardware, "_gate_step", counted)
    cfg = make_cfg(mode=Mode.PHYSICAL, hardware=bench_detector(), bits_per_block=65536)
    kernel = PhysicsKernel(cfg, np.random.default_rng(77))
    bits = np.random.default_rng(5)
    hits = 0
    for _ in range(4):
        a, b = generate_bits(65536, bits), generate_bits(65536, bits)
        hits += int(kernel.transmit_block(a, b).sum())
    assert hits > 100
    assert steps <= 2 * hits, (steps, hits)


class CountedDraws:
    """Stands in for a Generator and records, for each binomial call,
    the number of counts it thins and how many of them come out nonzero."""

    def __init__(self, rng):
        self.rng = rng
        self.binomial_calls = []

    def binomial(self, n, p):
        out = self.rng.binomial(n, p)
        self.binomial_calls.append((np.size(n), np.count_nonzero(out)))
        return out

    def __getattr__(self, name):
        return getattr(self.rng, name)


def test_kernel_thins_and_gates_only_the_pulses_that_carry_a_photon(monkeypatch):
    # on the benchmark profile about 90 % of pulses are empty; fiber
    # thinning must see only the non-empty ones, and the detector only
    # the hazards of the lit ones, not whole-block arrays
    handed = []

    def recording_gate_block(n, lit, p_signal, *args):
        handed.append((n, len(lit), len(p_signal)))
        return gate_block(n, lit, p_signal, *args)

    monkeypatch.setattr(protocol, "gate_block", recording_gate_block)
    cfg = make_cfg(mode=Mode.PHYSICAL, hardware=bench_detector(), bits_per_block=65536)
    draws = CountedDraws(np.random.default_rng(77))
    logs = RoundLogs()
    kernel = PhysicsKernel(cfg, draws, logs)
    bits = np.random.default_rng(5)
    for block in range(4):
        a, b = generate_bits(65536, bits), generate_bits(65536, bits)
        kernel.transmit_block(a, b)
        nonempty = np.count_nonzero(logs.photon_counts[block * 65536:])
        (thinned, survived), (n, n_lit, n_hazards) = draws.binomial_calls[block], handed[block]
        assert n == 65536 and 0 < nonempty < 0.2 * n
        assert thinned <= nonempty, (thinned, nonempty)
        assert n_lit <= survived and n_hazards <= survived, (n_lit, n_hazards, survived)
    assert len(draws.binomial_calls) == len(handed) == 4


def test_fiber_thinning_hit_rates_follow_the_closed_form():
    # mu = 1 over 50 km with dark counts in 1 of 2,000 gates: the hit
    # rate of each pulse is p + dark(1 - p), p = 1 - exp(-mu T eta w),
    # on agreeing bits (w = 1/8; dark counts about 2 in 5 hits) and on
    # differing bits (w = (1 - V)/8; dark counts most of the hits)
    hw = HardwareProfile(
        source=SourceParams(mean_photons=1.0),
        fiber=FiberParams(length_km=50.0),
        detector=DetectorParams(dark_rate=5e6),
        interferometer=InterferometerConfig(visibility=0.9),
    )
    det, v = hw.detector, hw.interferometer.visibility
    dark = dark_probability(det)
    mu_t_eta = hw.source.mean_photons * fiber_transmission(hw.fiber) * det.efficiency
    block, n_blocks = 65536, 8
    cfg = make_cfg(mode=Mode.PHYSICAL, hardware=hw, bits_per_block=block)
    logs = RoundLogs()
    kernel = PhysicsKernel(cfg, np.random.default_rng(91), logs)
    bits = np.random.default_rng(92)
    for _ in range(n_blocks):
        kernel.transmit_block(generate_bits(block, bits), generate_bits(block, bits))
    w = np.array([effective_hit_prob(a, b, v) for a in (0, 1) for b in (0, 1)])
    for agree in (True, False):
        rows = (logs.alice_bits == logs.bob_bits) == agree
        p = 1.0 - np.exp(-mu_t_eta * w[2 * logs.alice_bits[rows] + logs.bob_bits[rows]])
        expected = p + dark * (1.0 - p)
        sigma = math.sqrt(float((expected * (1.0 - expected)).sum()))
        got = int(logs.hits[rows].sum())
        assert abs(got - expected.sum()) < 4.0 * sigma, (agree, got, expected.sum(), sigma)


@pytest.mark.parametrize("mu", [0.1, 5.0])
def test_signal_hazards_equal_the_whole_block_law_exactly(monkeypatch, mu):
    # the hazards are formed on the lit pulses only; scattered back,
    # they equal 1 - (1 - p*eta)^k formed over the whole block, bit for bit
    seen = {}

    def recording_gate_block(n, lit, p_signal, *args):
        seen.update(n=n, lit=lit, p_signal=p_signal)
        return gate_block(n, lit, p_signal, *args)

    monkeypatch.setattr(protocol, "gate_block", recording_gate_block)
    hw = HardwareProfile(source=SourceParams(mean_photons=mu), fiber=FiberParams(length_km=5.0),
                         interferometer=InterferometerConfig(visibility=0.97))
    cfg = make_cfg(mode=Mode.PHYSICAL, hardware=hw)
    kernel = PhysicsKernel(cfg, np.random.default_rng(77))
    bits = np.random.default_rng(5)
    a, b = generate_bits(20_000, bits), generate_bits(20_000, bits)
    kernel.transmit_block(a, b)
    p_window, k = dense_stages(cfg, np.random.default_rng(77), a, b)
    whole = 1.0 - (1.0 - p_window * hw.detector.efficiency) ** k
    scattered = np.zeros(seen["n"])
    scattered[seen["lit"]] = seen["p_signal"]
    assert np.array_equal(scattered, whole)
    assert np.array_equal(seen["lit"], np.flatnonzero(k))
    assert 0 < np.count_nonzero(k) < len(k) and (k > 1).any()


@pytest.mark.parametrize("eve", [EveStrategy.NONE, EveStrategy.FIXED_PROJECTION])
@pytest.mark.parametrize("mu", [0.1, 1.0, 5.0])
def test_memoryless_detector_equals_the_inline_hit_law_exactly(mu, eve):
    hw = HardwareProfile(
        source=SourceParams(mean_photons=mu),
        fiber=FiberParams(length_km=5.0),
        detector=DetectorParams(dark_rate=5e7),  # a dark count in 1 of 200 gates
    )
    cfg = make_cfg(mode=Mode.PHYSICAL, eve=eve, hardware=hw, bits_per_block=20_000)
    kernel = PhysicsKernel(cfg, np.random.default_rng(77))
    ref = np.random.default_rng(77)
    bits = np.random.default_rng(5)
    for _ in range(3):
        a, b = generate_bits(20_000, bits), generate_bits(20_000, bits)
        got = kernel.transmit_block(a, b)
        want, state = dense_reference_block(cfg, ref, DetectorState(), a, b, per_gate=False)
        assert np.array_equal(got, want)
        assert kernel.detector_state == state == DetectorState()
        assert kernel.rng.bit_generator.state == ref.bit_generator.state
    assert want.sum() > 0
