"""Command-line harness.

Subcommands: ``session`` runs key-distribution blocks in-process and
prints the report, ``sweep`` tabulates the link budget over fiber
distance, ``histogram`` emits the time-of-arrival spectrum as CSV,
and ``chat`` runs two OS processes that distill a key over TCP and
exchange one one-time-pad encrypted ASCII message.

Exit codes: 0 success, 1 chat alarm, 2 configuration or file error, 3 transport
error or a peer's message that breaks the protocol.
All outputs are deterministic given explicit seeds.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import math
import os
import stat
import sys
import tempfile
from dataclasses import replace

import numpy as np

from .channel import (
    MAX_BITS_PER_BLOCK,
    MessagePipe,
    SocketTransport,
    accept_one,
    connect_with_retry,
    open_listener,
)
from .errors import (
    ChannelError,
    ConfigError,
    EncodingError,
    ModelValidityError,
    PadDepletedError,
    ProtocolDesyncError,
    SessionAbort,
)
from .hardware import HardwareProfile, fiber_transmission, load_profile, with_fields
from .otp import Message, ascii_decode, ascii_encode, decrypt, encrypt, pad_from_key
from .photonics import PhasePair, arrival_histogram
from .protocol import (
    ALARM_BER_THRESHOLD,
    AliceEngine,
    BobEngine,
    EveStrategy,
    Mode,
    SessionConfig,
    analytic_ber,
    checked_seed,
    predict_key_rate,
    run_session,
)


# hardware flag -> (profile field, unit of the flag's value); each flag
# defaults to None, so the profile's value (or the field's default) applies
_HARDWARE_FLAGS = {
    "distance_km": ("length_km", 1.0),
    "atten_db_km": ("attenuation_db_per_km", 1.0),
    "visibility": ("visibility", 1.0),
    "mu": ("mean_photons", 1.0),
    "efficiency": ("efficiency", 1.0),
    "dark_hz": ("dark_rate", 1.0),
    "gate_ps": ("gate_window", 1e-12),
    "delta_t_ns": ("delta_t", 1e-9),
    "pulse_width_ps": ("pulse_width", 1e-12),
    "loss_a": ("long_path_loss_a", 1.0),
    "loss_b": ("long_path_loss_b", 1.0),
}

# every flag of the CLI: destination -> argparse keywords
_FLAGS = {
    "mode": dict(choices=[m.value for m in Mode], default="ideal"),
    "eve": dict(choices=[e.value for e in EveStrategy], default="none"),
    "profile": dict(metavar="PATH", help="key=value hardware profile file"),
    **{flag: dict(type=float, help=f"sets {name}")
       for flag, (name, _) in _HARDWARE_FLAGS.items()},
    "blocks": dict(type=int, default=1),
    "bits_per_block": dict(type=int, default=1024),
    "seed_alice": dict(type=int, default=2),
    "seed_bob": dict(type=int, default=102),
    "seed_physics": dict(type=int, default=202),
    "out": dict(metavar="PATH", help="CSV output path"),
    "km_start": dict(type=float, default=0.0),
    "km_stop": dict(type=float, default=50.0),
    "km_step": dict(type=float, default=5.0),
    "pulses": dict(type=int, help="pulses to simulate (sweep: per Monte Carlo cross-check)"),
    "phi_a": dict(type=float, default=0.0),
    "phi_b": dict(type=float, default=0.0),
    "bin_ps": dict(type=float),
    "role": dict(choices=["alice", "bob"], required=True),
    "listen": dict(metavar="HOST:PORT"),
    "connect": dict(metavar="HOST:PORT"),
    "message": dict(help="text to send (alice); prompts if omitted"),
}

# rows of a sweep, checked before any is made: about 0.5 kB a row (its
# values and hardware record), so 10**5 rows take about 50 MB
MAX_SWEEP_ROWS = 10**5


def _hardware_from_args(args) -> HardwareProfile:
    hw = load_profile(args.profile) if args.profile else HardwareProfile()
    return with_fields(hw, **{
        name: getattr(args, flag) * scale
        for flag, (name, scale) in _HARDWARE_FLAGS.items()
        if getattr(args, flag, None) is not None
    })


def _session_config(args, mode=None, bits_per_block=None) -> SessionConfig:
    """The session the flags describe; ``sweep``, which takes neither
    ``--mode`` nor ``--bits-per-block``, passes both."""
    return SessionConfig(
        seed_alice=args.seed_alice,
        seed_bob=args.seed_bob,
        seed_physics=args.seed_physics,
        bits_per_block=args.bits_per_block if bits_per_block is None else bits_per_block,
        mode=Mode.from_str(args.mode) if mode is None else mode,
        eve=EveStrategy.from_str(args.eve),
        hardware=_hardware_from_args(args),
    )


@contextlib.contextmanager
def _open_out(args):
    """The ``--out`` file, opened for writing, or else stdout. Each
    command opens it before any work, so a bad path costs no pulse.
    A new or regular file is written to a temporary file beside it,
    which replaces it only when the command succeeds: a failed command
    leaves the path as it was. Anything else, such as /dev/null or a
    symlink like /dev/stdout, is written in place."""
    path = args.out
    if not path:
        yield sys.stdout
        return
    if os.path.lexists(path) and not stat.S_ISREG(os.lstat(path).st_mode):
        with open(path, "w", newline="") as out:
            yield out
        return
    try:
        fd, tmp = tempfile.mkstemp(prefix=f".{os.path.basename(path)}.", suffix=".tmp",
                                   dir=os.path.dirname(path) or ".")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w", newline="") as out:
            umask = os.umask(0o022)
            os.umask(umask)
            os.chmod(fd, 0o666 & ~umask)  # the mode open() gives a new file
            yield out
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


class _RoundCsv:
    """``session --out`` rows as csv.writer writes them, one write a block; the index runs on."""

    def __init__(self, out):
        self._out = out
        out.write("index,alice_bit,bob_bit,photon_count,eve_guess,hit\r\n")
        self._rows = 0

    def extend(self, alice_bits, bob_bits, photon_counts, eve_guesses, hits) -> None:
        start, self._rows = self._rows, self._rows + len(hits)
        self._out.write("".join([
            f"{i},{a},{b},{n},{'' if g < 0 else g},{h}\r\n" for i, a, b, n, g, h in zip(
                range(start, self._rows), alice_bits.tolist(), bob_bits.tolist(),
                photon_counts.tolist(), eve_guesses.tolist(), hits.tolist())]))


def _cmd_session(args) -> int:
    cfg = _session_config(args)
    with _open_out(args) as out:
        logs = _RoundCsv(out) if args.out else None
        report = run_session(cfg, n_blocks=args.blocks, logs=logs)
    rate_s = report.sifted_fraction * cfg.hardware.source.pulse_rate
    print(f"mode={cfg.mode.value} eve={cfg.eve.value} "
          f"blocks={args.blocks} bits_per_block={cfg.bits_per_block}")
    print(f"rounds:          {report.n_rounds}")
    print(f"sifted bits:     {len(report.sifted_key_alice)} "
          f"(fraction {report.sifted_fraction:.6f})")
    print(f"ber estimate:    {report.ber_estimate:.6f}")
    print(f"zero bias:       {report.zero_bias:.6f}")
    print(f"reconciled bits: {len(report.reconciled_key)}")
    print(f"key rate:        {report.sifted_fraction:.6f} bits/pulse "
          f"| {rate_s:.2f} bits/s")
    print(f"alarm:           {report.alarm_reason if report.alarm else 'no'}")
    if args.out:
        print(f"round log written to {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    if not all(map(math.isfinite, (args.km_start, args.km_stop, args.km_step))):
        raise ConfigError("--km-start, --km-stop and --km-step must be finite")
    if args.km_step <= 0:
        raise ConfigError("--km-step must be positive")
    if args.km_stop < args.km_start:
        raise ConfigError("sweep range is empty")
    n_rows = (args.km_stop - args.km_start) / args.km_step + 1
    if n_rows > MAX_SWEEP_ROWS:
        raise ConfigError(f"sweep of {n_rows:.6g} rows exceeds the limit of {MAX_SWEEP_ROWS}")
    cfg = _session_config(args, Mode.PHYSICAL, args.pulses)
    threshold = ALARM_BER_THRESHOLD
    rows = []  # distance, analytic key rate, analytic ber, hardware
    with _open_out(args) as out:
        w = csv.writer(out)
        w.writerow(["distance_km", "transmission", "key_rate_bits_per_pulse", "ber", "alarm"])
        for d in np.arange(args.km_start, args.km_stop + args.km_step / 2, args.km_step).tolist():
            hw = with_fields(cfg.hardware, length_km=d)
            rate = predict_key_rate(replace(cfg, hardware=hw)).bits_per_pulse
            ber = analytic_ber(hw)
            rows.append((d, rate, ber, hw))
            w.writerow([f"{d:.6g}", f"{fiber_transmission(hw.fiber):.10g}", f"{rate:.10g}",
                        f"{ber:.10g}", "true" if ber > threshold else "false"])
    if not args.out:
        return 0
    # Monte Carlo cross-check of the analytic rate, one block per distance
    for i, (d, rate, ber, hw) in enumerate(rows):
        mcfg = replace(cfg, hardware=hw, seed_physics=cfg.seed_physics + i,
                       error_sample_fraction=0.0)
        rep = run_session(mcfg)
        print(f"{d:g} km: analytic {rate:.4g} "
              f"bits/pulse, monte-carlo {rep.sifted_fraction:.4g} "
              f"({len(rep.sifted_key_alice)} hits in {args.pulses} pulses), "
              f"ber {ber:.4g}")
    crossing = next((d for d, _, ber, _ in rows if ber > threshold), None)
    if crossing is None:
        print(f"ber stays below the alarm threshold {threshold} out to {args.km_stop:g} km")
    else:
        print(f"ber crosses the alarm threshold {threshold} at {crossing:g} km")
    print(f"sweep written to {args.out}")
    return 0


def _cmd_histogram(args) -> int:
    hw = _hardware_from_args(args)
    itf = hw.interferometer
    phases = PhasePair(args.phi_a, args.phi_b)
    rng = np.random.default_rng(checked_seed("seed_physics", args.seed_physics))
    with _open_out(args) as out:
        hist = arrival_histogram(phases, itf, args.pulses, hw.source.mean_photons, rng,
                                 bin_width=None if args.bin_ps is None else args.bin_ps * 1e-12)
        hist.write_csv(out)
    if args.out:
        masses = hist.peak_masses(itf.delta_t)
        print(f"peak masses prompt/central/delayed: {masses[0]}/{masses[1]}/{masses[2]}")
        print(f"histogram written to {args.out}")
    return 0


def _parse_hostport(spec: str, lowest: int) -> tuple[str, int]:
    """HOST:PORT with the port in ASCII digits and in [lowest, 65535]:
    0 lets a listener pick a free port, while a connection needs a real
    one. ``isdigit`` also takes '²', which ``int`` refuses, and '٨٠',
    which it reads as 80."""
    host, _, port = spec.rpartition(":")
    if not host or not port.isdigit():
        raise ConfigError(f"expected HOST:PORT, got {spec!r}")
    if not port.isascii() or not lowest <= int(port) <= 65535:
        raise ConfigError(f"port {port} of {spec!r} is not an ASCII number in "
                          f"[{lowest}, 65535]")
    return host, int(port)


def _render_ciphertext(bits: np.ndarray) -> str:
    raw = np.packbits(bits).tobytes()
    chars = "".join(chr(b) if 32 <= b < 127 else "." for b in raw)
    return f"{raw.hex()} ({chars})"


# blocks in a row that sift no bit while the alarm is up, after which
# the chat sender stops: the key of such a link would never grow. A
# 1024-pulse block sifts nothing with a chance of about 0.27 at the
# defaults and 0.8 at 25 km; in-process chats out to 30 km never
# reached 64 such blocks in a row.
CHAT_EMPTY_BLOCKS = 64

# characters of a chat message: its Ciphertext, 8 bits a character, is
# one frame, which holds at most the bits of the largest block
MAX_CHAT_CHARS = MAX_BITS_PER_BLOCK // 8


def _chat_continue(needed: int):
    """The chat sender's continue function: run blocks until the
    reconciled key covers ``needed`` bits, but stop once the alarm has
    been up over CHAT_EMPTY_BLOCKS blocks in a row that sifted no bit.
    It runs once after each block, so it counts the key as it grows."""
    empty = have = 0

    def more(eng) -> bool:
        nonlocal empty, have
        have += len(eng.reconciled_blocks[-1])
        empty = empty + 1 if eng.alarm and not len(eng.sifted_blocks[-1]) else 0
        return empty < CHAT_EMPTY_BLOCKS and have < needed

    return more


def _cmd_chat(args) -> int:
    cfg = _session_config(args)
    if args.role == "alice":
        if not args.listen:
            raise ConfigError("--role alice requires --listen HOST:PORT")
        host, port = _parse_hostport(args.listen, 0)
        try:
            text = args.message if args.message is not None else input("message> ")
        except EOFError:  # end of input, as from /dev/null, is an empty message
            text = ""
        if not text:
            raise ConfigError("message is empty")
        if len(text) > MAX_CHAT_CHARS:
            raise ConfigError(f"message of {len(text)} characters exceeds the limit of "
                              f"{MAX_CHAT_CHARS}")
        plain = ascii_encode(text)
        needed = len(plain)
        listener = open_listener(host, port)
        print(f"listening on {host}:{listener.getsockname()[1]}", flush=True)
        pipe = MessagePipe(SocketTransport(accept_one(listener)), cfg.session_id())
        try:
            alice = AliceEngine(cfg, pipe)
            alice.run(_chat_continue(needed))
            if alice.alarm:
                print(f"alarm ({alice.alarm_reason}): key discarded, nothing sent")
                return 1
            pad = pad_from_key(alice.reconciled_key(), n_symbols=needed)
            cipher, _ = encrypt(plain, pad)
            pipe.send("Ciphertext", {"bits": cipher.symbols})
            print(f"blocks: {alice.blocks_done}  key bits: {len(alice.reconciled_key())} "
                  f"ber: {alice.ber:.4f}")
            print(f"ciphertext: {_render_ciphertext(cipher.symbols)}")
        finally:
            pipe.close()
        return 0
    if not args.connect:
        raise ConfigError("--role bob requires --connect HOST:PORT")
    host, port = _parse_hostport(args.connect, 1)
    pipe = MessagePipe(SocketTransport(connect_with_retry(host, port)), cfg.session_id())
    try:
        bob = BobEngine(cfg, pipe)
        reason = bob.run().final["reason"]
        if reason is not None:
            print(f"alarm ({reason}): key discarded")
            return 1
        bits = pipe.recv("Ciphertext")["bits"]
        key = bob.reconciled_key()
        if not len(bits) or len(bits) % 8 or len(bits) > len(key):
            raise ProtocolDesyncError(f"Ciphertext of {len(bits)} bits is not whole characters "
                                      f"within the key's {len(key)}")
        print(f"ciphertext: {_render_ciphertext(bits)}")
        plain, _ = decrypt(Message(bits, 2), pad_from_key(key, n_symbols=len(bits)))
        try:
            text = ascii_decode(plain)
        except EncodingError as exc:  # the peer's bits, not this party's input
            raise ProtocolDesyncError(f"decrypted Ciphertext: {exc}") from exc
        print(f"decrypted: {text}")
    finally:
        pipe.close()
    return 0


_LINK_FLAGS = ("profile", "distance_km", "atten_db_km", "visibility", "mu",
               "efficiency", "dark_hz", "gate_ps")
_SEED_FLAGS = ("seed_alice", "seed_bob", "seed_physics")

# subcommand -> (help, handler, the flags the handler reads, their defaults here)
_COMMANDS = {
    "session": ("run key-distribution blocks in-process", _cmd_session,
                ("mode", "eve", *_LINK_FLAGS, "blocks", "bits_per_block", *_SEED_FLAGS, "out"),
                {}),
    "sweep": ("link budget over fiber distance", _cmd_sweep,
              ("eve", *(f for f in _LINK_FLAGS if f != "distance_km"), *_SEED_FLAGS, "out",
               "km_start", "km_stop", "km_step", "pulses"),
              {"pulses": 200_000}),
    "histogram": ("time-of-arrival spectrum CSV", _cmd_histogram,
                  ("profile", "visibility", "mu", "delta_t_ns", "pulse_width_ps", "loss_a",
                   "loss_b", "seed_physics", "out", "phi_a", "phi_b", "pulses", "bin_ps"),
                  {"pulses": 100_000}),
    "chat": ("two-process encrypted message demo", _cmd_chat,
             ("mode", "eve", *_LINK_FLAGS, "bits_per_block", *_SEED_FLAGS,
              "role", "listen", "connect", "message"),
             {}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="b92sim",
        description="B92 quantum key distribution simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, flags, defaults) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument("--" + flag.replace("_", "-"), **_FLAGS[flag])
        p.set_defaults(func=handler, **defaults)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    # channel.py turns a socket's OSError into ChannelError, so an OSError is a file's
    except (ConfigError, ModelValidityError, EncodingError, PadDepletedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ChannelError, SessionAbort, ProtocolDesyncError) as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
