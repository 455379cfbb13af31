"""Command-line harness.

Subcommands: ``session`` runs key-distribution blocks in-process and
prints the report, ``sweep`` tabulates the link budget over fiber
distance, ``histogram`` emits the time-of-arrival spectrum as CSV,
and ``chat`` runs two OS processes that distill a key over TCP and
exchange one one-time-pad encrypted ASCII message.

Exit codes: 0 success, 2 configuration error, 3 transport error.
All outputs are deterministic given explicit seeds.
"""
from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import replace

import numpy as np

from .channel import (
    MessagePipe,
    SocketTransport,
    accept_one,
    connect_with_retry,
    open_listener,
    recv_bit_frames,
    send_bit_frames,
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
from .photonics import InterferometerConfig, PhasePair, arrival_histogram
from .protocol import (
    AliceEngine,
    BobEngine,
    EveStrategy,
    Mode,
    SessionConfig,
    analytic_ber,
    predict_key_rate,
    run_session,
)


# hardware flag -> (profile field, unit of the flag's value)
_HARDWARE_FLAGS = {
    "distance_km": ("length_km", 1.0),
    "atten_db_km": ("attenuation_db_per_km", 1.0),
    "visibility": ("visibility", 1.0),
    "mu": ("mean_photons", 1.0),
    "efficiency": ("efficiency", 1.0),
    "dark_hz": ("dark_rate", 1.0),
    "gate_ps": ("gate_window", 1e-12),
}


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=["ideal", "physical"], default="ideal")
    p.add_argument("--eve", choices=["none", "fixed"], default="none")
    p.add_argument("--profile", metavar="PATH", help="key=value hardware profile file")
    for flag, (name, _) in _HARDWARE_FLAGS.items():
        p.add_argument("--" + flag.replace("_", "-"), type=float, default=None,
                       help=f"sets {name}")
    p.add_argument("--blocks", type=int, default=1)
    p.add_argument("--bits-per-block", type=int, default=1024)
    p.add_argument("--seed-alice", type=int, default=2)
    p.add_argument("--seed-bob", type=int, default=102)
    p.add_argument("--seed-physics", type=int, default=202)
    p.add_argument("--out", metavar="PATH", help="CSV output path")


def _hardware_from_args(args) -> HardwareProfile:
    hw = load_profile(args.profile) if args.profile else HardwareProfile()
    return with_fields(hw, **{
        name: getattr(args, flag) * scale
        for flag, (name, scale) in _HARDWARE_FLAGS.items()
        if getattr(args, flag) is not None
    })


def _session_config(args) -> SessionConfig:
    return SessionConfig(
        seed_alice=args.seed_alice,
        seed_bob=args.seed_bob,
        seed_physics=args.seed_physics,
        bits_per_block=args.bits_per_block,
        mode=Mode.from_str(args.mode),
        eve=EveStrategy.from_str(args.eve),
        hardware=_hardware_from_args(args),
    )


def _cmd_session(args) -> int:
    cfg = _session_config(args)
    report = run_session(cfg, n_blocks=args.blocks)
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
        report.round_logs.write_csv(args.out)
        print(f"round log written to {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    if not all(map(math.isfinite, (args.km_start, args.km_stop, args.km_step))):
        raise ConfigError("--km-start, --km-stop and --km-step must be finite")
    if args.km_step <= 0:
        raise ConfigError("--km-step must be positive")
    if args.km_stop < args.km_start:
        raise ConfigError("sweep range is empty")
    cfg = _session_config(args)
    if cfg.mode is not Mode.PHYSICAL:
        cfg = replace(cfg, mode=Mode.PHYSICAL)
    distances = np.arange(args.km_start, args.km_stop + args.km_step / 2, args.km_step)
    rows = []
    for d in distances:
        hw = with_fields(cfg.hardware, length_km=float(d))
        dcfg = replace(cfg, hardware=hw)
        pred = predict_key_rate(dcfg)
        ber = analytic_ber(hw)
        rows.append({
            "distance_km": float(d),
            "transmission": fiber_transmission(hw.fiber),
            "key_rate_bits_per_pulse": pred.bits_per_pulse,
            "ber": ber,
            "alarm": ber > cfg.alarm_ber_threshold,
        })

    def write_rows(f):
        w = csv.writer(f)
        w.writerow(["distance_km", "transmission", "key_rate_bits_per_pulse", "ber", "alarm"])
        for r in rows:
            w.writerow([
                f"{r['distance_km']:.6g}",
                f"{r['transmission']:.10g}",
                f"{r['key_rate_bits_per_pulse']:.10g}",
                f"{r['ber']:.10g}",
                "true" if r["alarm"] else "false",
            ])

    if args.out:
        with open(args.out, "w", newline="") as f:
            write_rows(f)
        # Monte Carlo cross-check of the analytic rate, one block per distance
        for i, r in enumerate(rows):
            hw = with_fields(cfg.hardware, length_km=r["distance_km"])
            mcfg = replace(cfg, hardware=hw, bits_per_block=args.pulses,
                           seed_physics=cfg.seed_physics + i,
                           error_sample_fraction=0.0)
            rep = run_session(mcfg)
            print(f"{r['distance_km']:g} km: analytic {r['key_rate_bits_per_pulse']:.4g} "
                  f"bits/pulse, monte-carlo {rep.sifted_fraction:.4g} "
                  f"({len(rep.sifted_key_alice)} hits in {args.pulses} pulses), "
                  f"ber {r['ber']:.4g}")
        crossing = next((r["distance_km"] for r in rows if r["alarm"]), None)
        if crossing is None:
            print(f"ber stays below the alarm threshold "
                  f"{cfg.alarm_ber_threshold} out to {args.km_stop:g} km")
        else:
            print(f"ber crosses the alarm threshold {cfg.alarm_ber_threshold} "
                  f"at {crossing:g} km")
        print(f"sweep written to {args.out}")
    else:
        write_rows(sys.stdout)
    return 0


def _cmd_histogram(args) -> int:
    itf = InterferometerConfig(
        delta_t=args.delta_t_ns * 1e-9,
        pulse_width=args.pulse_width_ps * 1e-12,
        visibility=args.visibility if args.visibility is not None else 1.0,
        long_path_loss_a=args.loss_a,
        long_path_loss_b=args.loss_b,
    )
    phases = PhasePair(args.phi_a, args.phi_b)
    rng = np.random.default_rng(args.seed_physics)
    mu = args.mu if args.mu is not None else 0.1
    hist = arrival_histogram(phases, itf, args.pulses, mu, rng,
                             bin_width=None if args.bin_ps is None else args.bin_ps * 1e-12)
    hist.write_csv(args.out or sys.stdout)
    if args.out:
        masses = hist.peak_masses(itf.delta_t)
        print(f"peak masses prompt/central/delayed: {masses[0]}/{masses[1]}/{masses[2]}")
        print(f"histogram written to {args.out}")
    return 0


def _parse_hostport(spec: str) -> tuple[str, int]:
    host, _, port = spec.rpartition(":")
    if not host or not port.isdigit():
        raise ConfigError(f"expected HOST:PORT, got {spec!r}")
    return host, int(port)


def _render_ciphertext(bits: np.ndarray) -> str:
    raw = np.packbits(bits.astype(np.uint8)).tobytes()
    chars = "".join(chr(b) if 32 <= b < 127 else "." for b in raw)
    return f"{raw.hex()} ({chars})"


def _cmd_chat(args) -> int:
    cfg = _session_config(args)
    if args.role == "alice":
        if not args.listen:
            raise ConfigError("--role alice requires --listen HOST:PORT")
        host, port = _parse_hostport(args.listen)
        listener = open_listener(host, port)
        print(f"listening on {host}:{listener.getsockname()[1]}", flush=True)
        text = args.message if args.message is not None else input("message> ")
        if not text:
            raise ConfigError("message is empty")
        needed = 8 * len(text)
        pipe = MessagePipe(SocketTransport(accept_one(listener)), cfg.session_id())
        try:
            alice = AliceEngine(cfg, pipe)
            alice.run(lambda eng: sum(map(len, eng.reconciled_blocks)) < needed)
            if alice.alarm:
                print(f"alarm ({alice.alarm_reason}): key discarded, nothing sent")
                return 1
            pad = pad_from_key(alice.reconciled_key(), 2, n_symbols=needed)
            cipher, _ = encrypt(ascii_encode(text), pad)
            bits = cipher.symbols.astype(np.uint8)
            send_bit_frames(pipe, "Ciphertext", bits, extra={"chars": len(text)})
            print(f"blocks: {alice.blocks_done}  key bits: {len(alice.reconciled_key())} "
                  f"ber: {alice.ber:.4f}")
            print(f"ciphertext: {_render_ciphertext(bits)}")
        finally:
            pipe.close()
        return 0
    if not args.connect:
        raise ConfigError("--role bob requires --connect HOST:PORT")
    host, port = _parse_hostport(args.connect)
    pipe = MessagePipe(SocketTransport(connect_with_retry(host, port)), cfg.session_id())
    try:
        bob = BobEngine(cfg, pipe)
        bob.run()
        if bob.final and bob.final.get("alarm"):
            print(f"alarm ({bob.final.get('reason')}): key discarded")
            return 1
        bits, _head = recv_bit_frames(pipe, "Ciphertext", len(bob.reconciled_key()))
        print(f"ciphertext: {_render_ciphertext(bits)}")
        pad = pad_from_key(bob.reconciled_key(), 2, n_symbols=len(bits))
        plain, _ = decrypt(Message(bits.astype(np.int64), 2), pad)
        print(f"decrypted: {ascii_decode(plain)}")
    finally:
        pipe.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="b92sim",
        description="B92 quantum key distribution simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("session", help="run key-distribution blocks in-process")
    _add_common_flags(p)
    p.set_defaults(func=_cmd_session)

    p = sub.add_parser("sweep", help="link budget over fiber distance")
    _add_common_flags(p)
    p.add_argument("--km-start", type=float, default=0.0)
    p.add_argument("--km-stop", type=float, default=50.0)
    p.add_argument("--km-step", type=float, default=5.0)
    p.add_argument("--pulses", type=int, default=200_000,
                   help="pulses per Monte Carlo cross-check")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("histogram", help="time-of-arrival spectrum CSV")
    _add_common_flags(p)
    p.add_argument("--phi-a", type=float, default=0.0)
    p.add_argument("--phi-b", type=float, default=0.0)
    p.add_argument("--pulses", type=int, default=100_000)
    p.add_argument("--delta-t-ns", type=float, default=8.5)
    p.add_argument("--pulse-width-ps", type=float, default=300.0)
    p.add_argument("--loss-a", type=float, default=0.0)
    p.add_argument("--loss-b", type=float, default=0.0)
    p.add_argument("--bin-ps", type=float, default=None)
    p.set_defaults(func=_cmd_histogram)

    p = sub.add_parser("chat", help="two-process encrypted message demo")
    _add_common_flags(p)
    p.add_argument("--role", choices=["alice", "bob"], required=True)
    p.add_argument("--listen", metavar="HOST:PORT")
    p.add_argument("--connect", metavar="HOST:PORT")
    p.add_argument("--message", help="text to send (alice); prompts if omitted")
    p.set_defaults(func=_cmd_chat)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (ConfigError, ModelValidityError, EncodingError, PadDepletedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ChannelError, SessionAbort, ProtocolDesyncError) as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
