"""B92 session engine.

One session block: both parties draw independent random bits, every
bit becomes one pulse on the quantum link (exact qubit in Ideal mode,
attenuated laser pulse through fiber and a gated detector in Physical
mode, optionally intercepted by an eavesdropper), the receiver's
hit/miss record crosses the public channel, both sides keep the hit
positions (sifting), a disclosed sample estimates the error rate, and
block parities reconcile the remainder.

A wire cannot carry a qubit, so a session has one shape: the sender's
side owns the physics. It rebuilds the receiver's bit stream from the
shared seed, simulates the whole quantum layer, and sends the hit
flags in each block's Block message; the receiver learns nothing
beyond what the message schema carries. The receiver opens with its
Hello, and the sender's first Block accepts it (or a Done "config"
refuses it). A block is one exchange of two frames: the sender's Block
carries the hit record, the error sample's mask and the parities, and
the receiver's Answer carries the sample's values, its block's count of
zeros and the discard list. The sender keeps every session tally. One
Done from the sender ends the session with the alarm's reason. The
sender calls an injected ``peer_step`` before each read, of the Hello
and of each block's Answer; the receiver's session is a generator that
yields before each read, which takes a Block or the Done.
``run_session`` drives both in one thread over a loopback channel;
``b92sim chat`` runs each in its own process over TCP, where every
receive blocks on the socket instead.

Each party's decisions depend only on its own bits plus schema-level
messages, and sessions are bit-for-bit reproducible from the
(alice, bob, physics) seed triple.
"""
from __future__ import annotations

import contextlib
import math
import numbers
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import qstate
from .channel import (
    MAX_BITS_PER_BLOCK,
    WIRE_VERSION,
    MessagePipe,
    loopback_pair,
)
from .errors import ChannelError, ConfigError, ProtocolDesyncError, SessionAbort
from .hardware import (
    DetectorState,
    HardwareProfile,
    dark_probability,
    fiber_transmission,
    gate_block,
    with_fields,
)
from .photonics import central_window
from .qstate import DOWN, P_DOWN, P_LEFT, P_UP, RIGHT, UP, StateVector, pass_probability


class Mode(Enum):
    IDEAL = "ideal"
    PHYSICAL = "physical"

    @classmethod
    def from_str(cls, s: str) -> "Mode":
        try:
            return cls(s.lower())
        except ValueError as exc:
            raise ConfigError(f"unknown mode {s!r}") from exc


class EveStrategy(Enum):
    """Eavesdropping tactics on the quantum link.

    FIXED_PROJECTION projects every pulse onto the spin-up state and
    resends the collapsed state (up on a pass, down on a fail). Over
    fair sender bits its exact statistics are: 1-guesses cover 1/4 of
    the pulses and are always right; P(sent 0 | guessed 0) = 2/3;
    overall guess accuracy 3/4. The receiver sifts 3/8 of the pulses,
    with error rate 1/3 and 2/3 of the sifted bits zero.
    Further strategies slot in here.
    """

    NONE = "none"
    FIXED_PROJECTION = "fixed"

    @classmethod
    def from_str(cls, s: str) -> "EveStrategy":
        try:
            return cls(s.lower())
        except ValueError as exc:
            raise ConfigError(f"unknown eve strategy {s!r}") from exc


# Protocol constants. The wire version fixes the reconciliation block
# size: the Hello carries the version, which the sender checks.
RECONCILE_BLOCK_SIZE = 8
ALARM_BER_THRESHOLD = 0.05
ALARM_BIAS_THRESHOLD = 0.05


def checked_seed(name: str, seed: int) -> int:
    """``seed``, if numpy's generators take it: they refuse a negative one."""
    if seed < 0:
        raise ConfigError(f"{name} must be >= 0, got {seed}")
    return seed


@dataclass(frozen=True)
class SessionConfig:
    seed_alice: int
    seed_bob: int
    seed_physics: int
    bits_per_block: int = 1024
    mode: Mode = Mode.IDEAL
    eve: EveStrategy = EveStrategy.NONE
    hardware: HardwareProfile = field(default_factory=HardwareProfile)
    error_sample_fraction: float = 0.25

    def __post_init__(self):
        # ints and the sample fraction's float: a numpy number is converted, a bool refused
        for name in ("seed_alice", "seed_bob", "seed_physics", "bits_per_block",
                     "error_sample_fraction"):
            kind = numbers.Real if name == "error_sample_fraction" else numbers.Integral
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigError(f"{name} must be {kind.__name__.lower()}, got {value!r}")
            object.__setattr__(self, name, float(value) if kind is numbers.Real else int(value))
        for name in ("seed_alice", "seed_bob", "seed_physics"):
            checked_seed(name, getattr(self, name))
        if not 0 < self.bits_per_block <= MAX_BITS_PER_BLOCK:
            raise ConfigError(
                f"bits_per_block must lie in [1, {MAX_BITS_PER_BLOCK}], got {self.bits_per_block}"
            )
        if not 0.0 <= self.error_sample_fraction < 1.0:
            raise ConfigError("error_sample_fraction must lie in [0, 1)")
        for name, kind in (("mode", Mode), ("eve", EveStrategy), ("hardware", HardwareProfile)):
            if not isinstance(value := getattr(self, name), kind):
                raise ConfigError(f"{name} must be {kind.__name__}, got {value!r}")
        if self.mode is Mode.PHYSICAL:
            src = self.hardware.source
            det = self.hardware.detector
            if src.pulse_rate > det.max_gate_rate:
                raise ConfigError(
                    f"pulse_rate {src.pulse_rate:g} Hz exceeds the detector's "
                    f"afterpulse-limited gate ceiling {det.max_gate_rate:g} Hz"
                )
            dark_probability(det)  # raises ModelValidityError before any block runs

    def session_id(self) -> int:
        return (
            self.seed_alice * 1000003 ^ self.seed_bob * 10007 ^ self.seed_physics
        ) & 0x7FFFFFFF


def _joined(blocks: list[np.ndarray], dtype=np.uint8) -> np.ndarray:
    """Per-block arrays as one; an empty list gives an empty ``dtype`` array."""
    return np.concatenate(blocks) if blocks else np.zeros(0, dtype)


# the round log's columns, in ``RoundLogs.extend``'s argument order
_LOG_DTYPES = {
    "alice_bits": np.uint8,
    "bob_bits": np.uint8,
    "photon_counts": np.int64,
    "eve_guesses": np.int8,
    "hits": np.uint8,
}


class RoundLogs:
    """Columnar per-round record; eve_guess is -1 where Eve saw nothing.

    The in-memory ``logs`` of ``run_session``: ``extend`` keeps each
    block's arrays without a copy, 12 bytes a pulse until the log is
    dropped. The first read of a column joins its blocks, one copy of
    the column, and keeps the result.
    """

    def __init__(self):
        self._blocks = {name: [] for name in _LOG_DTYPES}

    def _column(self, name: str) -> np.ndarray:
        blocks = self._blocks[name]
        if len(blocks) != 1:
            blocks[:] = [_joined(blocks, _LOG_DTYPES[name])]
        return blocks[0]

    alice_bits = property(lambda self: self._column("alice_bits"))
    bob_bits = property(lambda self: self._column("bob_bits"))
    photon_counts = property(lambda self: self._column("photon_counts"))
    eve_guesses = property(lambda self: self._column("eve_guesses"))
    hits = property(lambda self: self._column("hits"))

    def __len__(self) -> int:
        return sum(len(block) for block in self._blocks["hits"])

    def extend(self, alice_bits, bob_bits, photon_counts, eve_guesses, hits) -> None:
        for blocks, arr in zip(
            self._blocks.values(), (alice_bits, bob_bits, photon_counts, eve_guesses, hits)
        ):
            blocks.append(arr)


@dataclass
class SessionReport:
    sifted_key_alice: np.ndarray
    sifted_key_bob: np.ndarray
    sifted_fraction: float
    ber_estimate: float
    zero_bias: float
    reconciled_key: np.ndarray
    alarm: bool
    alarm_reason: str | None
    n_rounds: int


# ---------------------------------------------------------------------------
# elementary protocol operations


def generate_bits(n: int, rng: np.random.Generator) -> np.ndarray:
    """n independent fair bits from the given stream: the top bit of
    each byte of full-range 32-bit words, low byte first. That is what
    numpy's ``integers(0, 2, size=n, dtype=np.uint8)`` returns, from the
    same words and with the same generator state after
    (``test_generate_bits_equals_numpys_uint8_draw``)."""
    if n <= 0:
        raise ValueError("n must be positive")
    words = rng.integers(0, 1 << 32, size=(n + 3) // 4, dtype=np.uint32)
    bits = words.astype("<u4", copy=False).view(np.uint8)[:n]
    bits >>= 7  # in place: a new array for the result made a 2M-bit draw about twice as slow
    return bits


def alice_prepare(bit: int) -> StateVector:
    """Sender's state for a bit: 0 -> spin-z up, 1 -> spin-x up."""
    if bit == 0:
        return UP
    if bit == 1:
        return RIGHT
    raise ValueError(f"bit must be 0 or 1, got {bit!r}")


def bob_projector(bit: int) -> qstate.Projector:
    """Receiver's measurement for a bit: 0 -> P(left), 1 -> P(down)."""
    if bit == 0:
        return P_LEFT
    if bit == 1:
        return P_DOWN
    raise ValueError(f"bit must be 0 or 1, got {bit!r}")


# Born-rule tables, derived from the state algebra rather than typed in.
# The pass tables are flat: entry 2*sent + bob_bit.
_PASS_TABLE = np.array(
    [pass_probability(alice_prepare(a), bob_projector(b)) for a in (0, 1) for b in (0, 1)]
)
_EVE_PASS = np.array([pass_probability(alice_prepare(a), P_UP) for a in (0, 1)])
_FWD_STATES = (UP, DOWN)  # Eve forwards index 0 on pass, 1 on fail
_FWD_PASS = np.array(
    [pass_probability(s, bob_projector(b)) for s in _FWD_STATES for b in (0, 1)]
)


def _pass_cells(table: np.ndarray) -> tuple:
    """(value, cells) for each distinct nonzero entry of a pass table,
    ``cells`` a uint8 with bit c set where ``table[c] == value``."""
    values = table.tolist()  # not np.unique, whose first call imports numpy.ma
    return tuple(
        (v, np.uint8(sum(1 << c for c, t in enumerate(values) if t == v)))
        for v in dict.fromkeys(values) if v > 0.0
    )


_PASS_CELLS, _EVE_CELLS, _FWD_CELLS = map(_pass_cells, (_PASS_TABLE, _EVE_PASS, _FWD_PASS))


def _born_passes(u: np.ndarray, cell: np.ndarray, cells: tuple) -> np.ndarray:
    """``(u < table[cell])`` as uint8 0/1 for uniforms ``u`` in [0, 1)
    and integer ``cell``, without gathering the table: each distinct
    nonzero value is compared once and masked to its cells."""
    cell = cell.astype(np.uint8, copy=False)
    passes = np.zeros(len(u), dtype=np.uint8)
    for value, bits in cells:
        hit = np.right_shift(bits, cell)  # bit 0: the pulse's cell holds value
        hit &= (u < value).view(np.uint8)
        passes |= hit
    return passes


class PhysicsKernel:
    """Owns the physics RNG and simulates transmission blocks.

    Whole blocks are vectorized. A pulse's Born pass probability is
    set by its cell: the state on the link and the receiver's bit.
    Eve's measurement and the Ideal hit compare each pulse's uniform
    with the few distinct values of the pass table, each masked to its
    cells (``_born_passes``), rather than gathering a probability per
    pulse. In Physical mode, fiber thinning runs on the non-empty
    pulses only (numpy's binomial draws nothing for n = 0, so the
    stream is that of thinning every pulse), and the window and signal
    hazard, gathered per cell, on the lit ones, which hold a surviving
    photon. ``hardware.gate_block`` takes the block length,
    the lit indices and their hazards, and gives the same draws, hits
    and final detector state as one ``gate_detector`` call a pulse.

    A block's round record goes to ``logs`` (see ``run_session``) if
    one is given, and the detector state it leaves to ``detector_state``.
    """

    def __init__(self, cfg: SessionConfig, rng: np.random.Generator, logs=None):
        self.cfg = cfg
        self.rng = rng
        self.detector_state = DetectorState()
        self.logs = logs

    def transmit_block(self, alice_bits: np.ndarray, bob_bits: np.ndarray) -> np.ndarray:
        """One block through the quantum link; returns its hits (uint8 0/1).
        Draws run in this order: Poisson photon counts (Physical), the
        eavesdropper, fiber thinning, then the detector. Ideal mode is
        the lossless limit: one photon per pulse and one uniform per
        pulse, a hit where it falls below the pulse's pass probability."""
        if len(alice_bits) != len(bob_bits):
            raise ProtocolDesyncError("bit blocks differ in length")
        hw = self.cfg.hardware
        n = len(alice_bits)
        physical = self.cfg.mode is Mode.PHYSICAL
        if physical:
            counts = (np.ones(n, dtype=np.int64) if hw.source.ideal_single_photon
                      else self.rng.poisson(hw.source.mean_photons, size=n))
        # Born pass probability q of each pulse is table[2*sent + bob_bits],
        # sent being the index of the state on the link
        if self.cfg.eve is EveStrategy.NONE:
            table, cells, sent = _PASS_TABLE, _PASS_CELLS, alice_bits
        else:
            # Eve measures the logical signal ahead of fiber loss; her
            # statistics commute with per-photon survival. A fail is a
            # 1-guess, and the guess indexes the state she forwards.
            sent = _born_passes(self.rng.random(n), alice_bits, _EVE_CELLS) ^ 1
            table, cells = _FWD_PASS, _FWD_CELLS
        if not physical:
            hits = _born_passes(self.rng.random(n), 2 * sent + bob_bits, cells)
        else:
            nonempty = np.flatnonzero(counts)
            k = self.rng.binomial(counts[nonempty], fiber_transmission(hw.fiber))
            lit, k = nonempty[k > 0], k[k > 0]
            # the fringe phase of a pass probability q has cos(delta) = 2q - 1
            p_window = central_window(hw.interferometer, 2.0 * table - 1.0)[
                2 * sent[lit] + bob_bits[lit]]
            # signal hazard 1 - (1 - p*eta)^k of k surviving photons
            p_signal = 1.0 - (1.0 - p_window * hw.detector.efficiency) ** k
            hits, self.detector_state = gate_block(
                n, lit, p_signal, hw.detector, self.detector_state,
                1.0 / hw.source.pulse_rate, self.rng,
            )
        if self.logs is not None:
            # one photon a pulse in Ideal mode; no guess without Eve or from an empty pulse
            if self.cfg.eve is EveStrategy.NONE:
                guesses = np.full(n, -1, dtype=np.int8)
            else:
                guesses = sent.astype(np.int8)
                if physical:
                    guesses[counts == 0] = -1
            counts = counts if physical else np.ones(n, dtype=np.int64)
            self.logs.extend(alice_bits, bob_bits, counts, guesses, hits)
        return hits


# ---------------------------------------------------------------------------
# classical post-processing


# Selections below use the method ``x.compress(m)`` on a bool mask: on a
# 25 %-density mask of 2M entries it takes a fifth of the time of
# ``x[m]`` or of ``compress`` on a uint8 mask, and the method skips the
# call overhead of ``np.compress``. It silently truncates where the mask
# is shorter than ``x``, so every caller checks the length first.


def _sift(bits: np.ndarray, hits: np.ndarray) -> np.ndarray:
    if len(bits) != len(hits):
        raise ProtocolDesyncError(
            f"hit record of {len(hits)} entries against {len(bits)} bits"
        )
    return bits.compress(hits == 1)


def _split(key: np.ndarray, sample: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The disclosed sample and the rest of a key, for a bool mask."""
    if len(sample) != len(key):
        raise ProtocolDesyncError("error-check mask does not match the key length")
    return key.compress(sample), key.compress(~sample)


def block_parities(key: np.ndarray, block_size: int) -> np.ndarray:
    """Per-block parity bits; a trailing partial block counts too."""
    if block_size < 2:
        raise ValueError("block_size must be >= 2")
    key = np.asarray(key, dtype=np.uint8)
    return np.bitwise_xor.reduceat(key, np.arange(0, len(key), block_size)) & 1


def apply_block_verdicts(key: np.ndarray, drop_mask: np.ndarray, block_size: int) -> np.ndarray:
    """Drop flagged blocks whole; unflagged blocks lose their last bit
    (paying for the parity that went over the public channel)."""
    n = len(key)
    n_blocks = math.ceil(n / block_size)
    if len(drop_mask) != n_blocks:
        raise ProtocolDesyncError(f"verdicts for {len(drop_mask)} blocks, key has {n_blocks}")
    keep = np.repeat(np.asarray(drop_mask) == 0, block_size)[:n]
    keep[block_size - 1::block_size] = False
    keep[n - 1:] = False  # the last bit of a trailing partial block
    return np.asarray(key).compress(keep)


def reconcile_block_parity(
    alice_key: np.ndarray, bob_key: np.ndarray, block_size: int
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Block-parity error rejection over both keys at once.

    Blocks whose parities disagree are discarded entirely; agreeing
    blocks keep all but their last bit. Returns the two surviving keys
    plus (bits_discarded_per_key, blocks_dropped).
    """
    if len(alice_key) != len(bob_key):
        raise ProtocolDesyncError("keys differ in length")
    pa = block_parities(alice_key, block_size)
    pb = block_parities(bob_key, block_size)
    drop = (pa != pb).astype(np.uint8)
    a2 = apply_block_verdicts(alice_key, drop, block_size)
    b2 = apply_block_verdicts(bob_key, drop, block_size)
    return a2, b2, len(alice_key) - len(a2), int(drop.sum())


def _evaluate_alarm(disclosed: int, ber: float, bias: float | None) -> str | None:
    """The alarm's reasons, or None. With no disclosed sample the error
    rate is unknown, so the session fails closed with reason "sample"."""
    reasons = []
    if disclosed == 0:
        reasons.append("sample")
    if ber > ALARM_BER_THRESHOLD:
        reasons.append("ber")
    if bias is not None and abs(bias - 0.5) > ALARM_BIAS_THRESHOLD:
        reasons.append("bias")
    return "+".join(reasons) if reasons else None


# ---------------------------------------------------------------------------
# party engines


def _hello_payload(cfg: SessionConfig) -> dict:
    return {
        "wire_version": WIRE_VERSION,
        "bits_per_block": cfg.bits_per_block,
        "mode": cfg.mode.value,
        "eve": cfg.eve.value,
    }


class _Party:
    """What both parties keep: the configuration, the public channel,
    the party's own bit stream, and the per-block keys."""

    def __init__(self, cfg: SessionConfig, pipe: MessagePipe, seed: int):
        self.cfg = cfg
        self.pipe = pipe
        self.rng = np.random.default_rng(seed)
        self.sifted_blocks: list[np.ndarray] = []
        self.reconciled_blocks: list[np.ndarray] = []

    def sifted_key(self) -> np.ndarray:
        return _joined(self.sifted_blocks)

    def reconciled_key(self) -> np.ndarray:
        return _joined(self.reconciled_blocks)


class AliceEngine(_Party):
    """Sender-side state machine; it owns the physics.

    Each block it draws its bits, rebuilds the receiver's from the
    shared seed, runs both through the PhysicsKernel, and sends the
    hit flags, its sample's mask and its parities as one Block. Its
    running counts of sifted bits, the receiver's zeros (of a key as long
    as its own), disclosed bits and mismatches give ``ber``, ``bias``,
    ``alarm_reason`` and ``alarm``. ``peer_step`` is called before each
    read, where the sender waits for the receiver: its Hello and each
    block's Answer. ``run_session`` passes one that advances the
    receiver's ``steps()`` in the same thread; over TCP the receiver
    runs in its own process and the default does nothing. ``logs`` goes
    to the kernel.
    """

    def __init__(self, cfg: SessionConfig, pipe: MessagePipe, peer_step=lambda: None, logs=None):
        super().__init__(cfg, pipe, cfg.seed_alice)
        self.peer_step = peer_step
        self.kernel = PhysicsKernel(cfg, np.random.default_rng(cfg.seed_physics), logs)
        self._bob_replica_rng = np.random.default_rng(cfg.seed_bob)
        self.sifted_total = 0
        self.zeros_total = 0
        self.disclosed_total = 0
        self.mismatch_total = 0

    blocks_done = property(lambda self: len(self.reconciled_blocks))
    rounds_sent = property(lambda self: self.blocks_done * self.cfg.bits_per_block)
    # the session's verdict so far, which ``run``'s continue_fn sees
    ber = property(lambda self: self.mismatch_total / self.disclosed_total
                   if self.disclosed_total else 0.0)
    bias = property(lambda self: self.zeros_total / self.sifted_total
                    if self.sifted_total else None)
    alarm_reason = property(lambda self: _evaluate_alarm(self.disclosed_total, self.ber,
                                                         self.bias))
    alarm = property(lambda self: self.alarm_reason is not None)

    def run_block(self) -> None:
        cfg = self.cfg
        bits = generate_bits(cfg.bits_per_block, self.rng)
        bob_bits = generate_bits(cfg.bits_per_block, self._bob_replica_rng)
        hits = self.kernel.transmit_block(bits, bob_bits)
        key = _sift(bits, hits)
        self.sifted_blocks.append(key)

        k = int(cfg.error_sample_fraction * len(key))
        mask = np.zeros(len(key), dtype=bool)
        if k > 0:
            mask[self.rng.choice(len(key), size=k, replace=False)] = True
        mine, trimmed = _split(key, mask)
        parities = block_parities(trimmed, RECONCILE_BLOCK_SIZE)
        self.pipe.send("Block", {"results": hits, "sample": mask, "parities": parities})
        self.peer_step()
        answer = self.pipe.recv("Answer")
        values, zeros, drop = answer["values"], answer["zeros"], answer["discard"]
        if zeros > len(key):
            raise ProtocolDesyncError(f"zeros {zeros} exceed the {len(key)} sifted bits")
        if len(values) != k:
            raise ProtocolDesyncError(f"values of {len(values)} bits, expected {k}")
        self.reconciled_blocks.append(apply_block_verdicts(trimmed, drop, RECONCILE_BLOCK_SIZE))
        self.sifted_total += len(key)
        self.zeros_total += zeros
        self.disclosed_total += k
        self.mismatch_total += np.count_nonzero(mine != values)

    def run(self, continue_fn) -> "AliceEngine":
        """The whole session: the receiver's Hello, then blocks until
        ``continue_fn(self)`` is false, then the Done. A Hello unlike
        its own gets a Done with reason "config" before SessionAbort."""
        self.peer_step()
        hello = self.pipe.recv("Hello")
        if hello != (mine := _hello_payload(self.cfg)):
            with contextlib.suppress(ChannelError):  # the mismatch is the error to report
                self.pipe.send("Done", {"reason": "config"})
            raise SessionAbort(f"peer configuration mismatch: {hello} != {mine}")
        self.run_block()
        while continue_fn(self):
            self.run_block()
        self.pipe.send("Done", {"reason": self.alarm_reason})
        return self


class BobEngine(_Party):
    """Receiver-side state machine.

    It receives the hit record in each Block; its decisions read only
    this party's bits and the messages, and it keeps no session tally.
    ``steps()`` is the whole
    session as a generator that yields before each read, which waits on
    the sender. ``run_session`` advances it from the sender's
    ``peer_step`` in one thread; ``run`` (TCP) exhausts it, and each
    receive blocks on the socket. ``final`` is the Done that ended the
    session; a Done "config" raises SessionAbort.
    """

    def __init__(self, cfg: SessionConfig, pipe: MessagePipe):
        super().__init__(cfg, pipe, cfg.seed_bob)
        self.final: dict | None = None

    def run_block(self, block: dict) -> None:
        """One block: it answers the sender's Block, which ``steps()``
        has read, so neither party writes while the other does."""
        bits = generate_bits(self.cfg.bits_per_block, self.rng)
        # _sift, _split and apply_block_verdicts check the counts of the other lists
        key = _sift(bits, block["results"])
        self.sifted_blocks.append(key)

        sample, trimmed = _split(key, block["sample"] == 1)
        mine = block_parities(trimmed, RECONCILE_BLOCK_SIZE)
        if len(parities := block["parities"]) != len(mine):
            raise ProtocolDesyncError(f"parities of {len(parities)} bits, expected {len(mine)}")
        drop = (mine != parities).astype(np.uint8)
        zeros = len(key) - np.count_nonzero(key)
        self.pipe.send("Answer", {"values": sample, "zeros": zeros, "discard": drop})
        self.reconciled_blocks.append(apply_block_verdicts(trimmed, drop, RECONCILE_BLOCK_SIZE))

    def steps(self):
        """The whole session; yields before each read that waits on the
        sender. Each read takes a Block, or the Done once a Block has
        come."""
        self.pipe.send("Hello", _hello_payload(self.cfg))
        while True:
            yield
            msg = self.pipe.recv("Block", "Done")
            if "reason" in msg:  # the Done
                if msg["reason"] == "config":
                    raise SessionAbort("the sender refused the Hello: configuration mismatch")
                if not self.sifted_blocks:
                    raise ProtocolDesyncError("Done before any Block")
                self.final = msg
                return
            self.run_block(msg)

    def run(self) -> "BobEngine":
        for _ in self.steps():
            pass
        return self


def run_session(
    cfg: SessionConfig,
    channel: tuple | None = None,
    n_blocks: int = 1,
    logs=None,
) -> SessionReport:
    """Run a complete session in one thread and assemble its report.

    Both parties speak the wire protocol of ``b92sim chat``: the
    sender's ``peer_step`` advances the receiver's ``steps()`` before
    each of its reads, of the Hello and of each block's Answer,
    1 + n_blocks steps in all, and the receiver then runs to its end,
    reading the Done; the report's verdict is the sender's. ``channel``
    may supply a (alice_transport, bob_transport) pair so tests can
    watch the frames; by default a loopback pair is built. The round record goes
    to ``logs`` if given, and nowhere otherwise: any object whose
    ``extend(alice_bits, bob_bits, photon_counts, eve_guesses, hits)``
    is called once per block, with arrays it may keep. A failure of the
    channel or the protocol raises SessionAbort, chained to its cause;
    other errors, such as a ConfigError or a ModelValidityError from
    the physics, propagate unchanged.
    """
    if isinstance(n_blocks, bool) or not isinstance(n_blocks, numbers.Integral) or n_blocks < 1:
        raise ConfigError(f"n_blocks must be an integer >= 1, got {n_blocks!r}")
    t_a, t_b = channel if channel is not None else loopback_pair()
    sid = cfg.session_id()
    bob = BobEngine(cfg, MessagePipe(t_b, sid))
    bob_steps = bob.steps()
    alice = AliceEngine(cfg, MessagePipe(t_a, sid), lambda: next(bob_steps, None), logs)
    try:
        alice.run(lambda eng: eng.blocks_done < n_blocks)
        for _ in bob_steps:
            pass
    except (ChannelError, ProtocolDesyncError, SessionAbort) as exc:
        raise SessionAbort(f"session failed: {exc}") from exc

    sifted_a = alice.sifted_key()
    n_rounds = alice.rounds_sent
    bias = alice.bias
    return SessionReport(
        sifted_key_alice=sifted_a,
        sifted_key_bob=bob.sifted_key(),
        sifted_fraction=len(sifted_a) / n_rounds,
        ber_estimate=alice.ber,
        zero_bias=float("nan") if bias is None else bias,
        reconciled_key=alice.reconciled_key(),
        alarm=alice.alarm,
        alarm_reason=alice.alarm_reason,
        n_rounds=n_rounds,
    )


# ---------------------------------------------------------------------------
# analytic link budget


@dataclass(frozen=True)
class KeyRatePrediction:
    bits_per_pulse: float
    bits_per_second: float
    factors: dict


def predict_key_rate(cfg: SessionConfig) -> KeyRatePrediction:
    """Analytic sifted-key rate of the physical link.

    The product of four factors: the chance a pulse holds a photon
    (the attenuated-laser mean, read as the small-mean occupancy
    probability; exactly 1 for an ideal source), fiber transmission,
    the 1/16 protocol-and-multiplexing factor (1/4 intrinsic sifting
    times 1/4 for the central time window), and detector efficiency.
    """
    if cfg.mode is not Mode.PHYSICAL:
        raise ConfigError("key-rate prediction applies to Physical mode only")
    hw = cfg.hardware
    src = hw.source
    non_empty = 1.0 if src.ideal_single_photon else min(src.mean_photons, 1.0)
    transmission = fiber_transmission(hw.fiber)
    protocol_factor = 1.0 / 16.0
    efficiency = hw.detector.efficiency
    bpp = non_empty * transmission * protocol_factor * efficiency
    return KeyRatePrediction(
        bits_per_pulse=bpp,
        bits_per_second=bpp * src.pulse_rate,
        factors={
            "source_nonempty": non_empty,
            "fiber_transmission": transmission,
            "protocol_factor": protocol_factor,
            "detector_efficiency": efficiency,
        },
    )


def analytic_ber(hw: HardwareProfile, distance_km: float | None = None) -> float:
    """Expected sifted-key error rate of the physical link.

    Signal hits follow the central-window law (``central_window``;
    without long-arm loss 1/8 on agreeing bits and (1/8)(1-V) on
    differing bits); dark counts land on either kind of round alike,
    and only differing-bit hits are errors. As the fiber eats the
    signal the dark counts dominate and the error rate climbs toward
    1/2.
    """
    if distance_km is not None:
        hw = with_fields(hw, length_km=distance_km)
    t = fiber_transmission(hw.fiber)
    eta = hw.detector.efficiency
    # agreeing bits sit at cos(delta) = 0, differing bits at -1
    w_same = central_window(hw.interferometer, 0.0)
    w_diff = central_window(hw.interferometer, -1.0)
    src = hw.source
    if src.ideal_single_photon:
        p_same = t * eta * w_same
        p_diff = t * eta * w_diff
    else:
        mu = src.mean_photons
        p_same = -math.expm1(-mu * t * eta * w_same)
        p_diff = -math.expm1(-mu * t * eta * w_diff)
    # 1 - (1 - p)(1 - dark), without cancelling a tiny p against 1
    dark = dark_probability(hw.detector)
    hit_same = p_same + dark * (1.0 - p_same)
    hit_diff = p_diff + dark * (1.0 - p_diff)
    if hit_same + hit_diff == 0.0:
        return 0.0
    return hit_diff / (hit_same + hit_diff)


def ber_crossing_distance(
    hw: HardwareProfile, threshold: float, d_max: float = 10000.0
) -> float | None:
    """Shortest fiber length at which the analytic error rate reaches
    ``threshold``; None if it never does below ``d_max`` km."""
    if analytic_ber(hw, 0.0) >= threshold:
        return 0.0
    lo, hi = 0.0, 10.0
    while analytic_ber(hw, hi) < threshold:
        lo, hi = hi, hi * 2.0
        if hi > d_max:
            return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if analytic_ber(hw, mid) >= threshold:
            hi = mid
        else:
            lo = mid
    return hi
