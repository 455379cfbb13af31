import argparse
import csv
import functools
import hashlib
import os
import socket
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from b92sim import channel, cli
from b92sim.channel import (
    MessagePipe, SocketTransport, accept_one, encode_frame, open_listener,
)
from b92sim.cli import (
    CHAT_EMPTY_BLOCKS, MAX_CHAT_CHARS, MAX_SWEEP_ROWS, _session_config, build_parser, main,
)
from b92sim.errors import SessionAbort
from b92sim.photonics import MAX_EXPECTED_PHOTONS, MAX_HISTOGRAM_BINS
from b92sim.protocol import MAX_BITS_PER_BLOCK, AliceEngine, RoundLogs, run_session


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_session_defaults(capsys):
    code, out, _ = run_cli(["session"], capsys)
    assert code == 0
    assert "sifted bits:" in out
    assert "alarm:           no" in out
    # ideal mode distills about a quarter of the rounds
    frac = float(out.split("fraction ")[1].split(")")[0])
    assert abs(frac - 0.25) < 0.05


def test_session_is_deterministic(capsys):
    argv = ["session", "--seed-alice", "7", "--seed-bob", "8", "--seed-physics", "9"]
    code1, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_session_eve_alarm(capsys):
    code, out, _ = run_cli(["session", "--eve", "fixed", "--bits-per-block", "8192"], capsys)
    assert code == 0
    assert "alarm:           ber" in out


def test_session_round_log_csv(tmp_path, capsys):
    out_path = tmp_path / "rounds.csv"
    code, _, _ = run_cli(
        ["session", "--bits-per-block", "256", "--out", str(out_path)], capsys
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "index,alice_bit,bob_bit,photon_count,eve_guess,hit"
    assert len(lines) == 257


def write_csv_row_by_row(logs, path):
    """Reference round-log writer, one writerow per round."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["index", "alice_bit", "bob_bit", "photon_count", "eve_guess", "hit"])
        for i in range(len(logs)):
            g = int(logs.eve_guesses[i])
            w.writerow([
                i,
                int(logs.alice_bits[i]),
                int(logs.bob_bits[i]),
                int(logs.photon_counts[i]),
                "" if g < 0 else g,
                int(logs.hits[i]),
            ])


@pytest.mark.parametrize("flags, eve_cells", [
    ([], {""}),
    (["--eve", "fixed"], {"0", "1"}),
    (["--mode", "physical", "--eve", "fixed", "--mu", "0.5"], {"", "0", "1"}),
])
def test_session_round_log_csv_bytes(tmp_path, capsys, flags, eve_cells):
    argv = ["session", "--bits-per-block", "2048", "--blocks", "2", *flags]
    code, _, _ = run_cli(argv + ["--out", str(tmp_path / "new.csv")], capsys)
    assert code == 0
    args = build_parser().parse_args(argv)
    logs = RoundLogs()
    run_session(_session_config(args), n_blocks=args.blocks, logs=logs)
    write_csv_row_by_row(logs, tmp_path / "ref.csv")
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "ref.csv").read_bytes()
    assert {line.split(",")[4] for line in new.decode().splitlines()[1:]} == eve_cells


def test_session_out_memory_does_not_grow_with_the_session(tmp_path, capsys):
    # the rows leave a block at a time: ten times the blocks, about the same peak
    def peak(blocks):
        tracemalloc.start()
        try:
            assert main(["session", "--blocks", str(blocks), "--out", str(tmp_path / "r.csv")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(8)  # warm-up: first-call caches and imports
    small, large = peak(8), peak(80)
    assert large - small < 1_000_000, (small, large)


def test_session_profile_file(tmp_path, capsys):
    prof = tmp_path / "hw.profile"
    prof.write_text("mean_photons = 0.05\nefficiency = 0.5\n")
    code, out, _ = run_cli(
        ["session", "--mode", "physical", "--profile", str(prof),
         "--bits-per-block", "4096"], capsys
    )
    assert code == 0


def one_error_line_naming(path, err):
    return err.startswith("error: ") and err.count("\n") == 1 and str(path) in err


@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
def test_unreadable_profile_exits_2(tmp_path, capsys, kind):
    prof = tmp_path / "hw.profile"
    if kind == "directory":
        prof.mkdir()
    elif kind == "not_utf8":
        prof.write_bytes(b"mean_photons = 0.05 # \xb5\n")
    code, out, err = run_cli(["session", "--profile", str(prof)], capsys)
    assert code == 2
    assert one_error_line_naming(prof, err), err
    assert "sifted bits" not in out


@pytest.mark.parametrize("argv", [
    ["session", "--bits-per-block", "64"],
    ["sweep", "--km-stop", "5", "--pulses", "1000"],
    ["histogram", "--pulses", "1000"],
])
def test_out_into_a_missing_directory_exits_2(tmp_path, capsys, monkeypatch, argv):
    calls = []
    monkeypatch.setattr(cli, "run_session", lambda *a, **k: calls.append("run_session"))
    monkeypatch.setattr(cli, "arrival_histogram", lambda *a, **k: calls.append("histogram"))
    path = tmp_path / "missing" / "out.csv"
    code, out, err = run_cli(argv + ["--out", str(path)], capsys)
    assert code == 2
    assert one_error_line_naming(path, err), err
    # the file is opened before any pulse is drawn, so no report was printed
    assert calls == []
    assert "sifted bits" not in out and "monte-carlo" not in out, out


@pytest.mark.parametrize("argv", [
    ["session", "--blocks", "0"],
    ["histogram", "--pulses", "0"],
])
def test_a_failed_command_leaves_no_out_file(tmp_path, capsys, argv):
    path = tmp_path / "out.csv"
    code, out, err = run_cli(argv + ["--out", str(path)], capsys)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == []


def _fail_on_the_second_block(tmp_path):
    """The round-log sink's ``extend``, raising OSError on the second
    block once the first block's rows are in the temporary file."""
    extend = cli._RoundCsv.extend
    blocks = 0

    def failing(sink, *columns):
        nonlocal blocks
        blocks += 1
        if blocks == 2:
            [tmp] = [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
            assert tmp.read_bytes().startswith(
                b"index,alice_bit,bob_bit,photon_count,eve_guess,hit\r\n0,")
            raise OSError("disk full")
        extend(sink, *columns)

    return failing


@pytest.mark.parametrize("fault", ["config", "write", "abort"])
def test_a_failed_session_keeps_the_old_out_file(tmp_path, capsys, monkeypatch, fault):
    path = tmp_path / "rounds.csv"
    path.write_bytes(b"old,bytes\r\n")
    argv = ["session", "--bits-per-block", "64", "--out", str(path)]
    if fault == "config":
        argv += ["--blocks", "0"]
    elif fault == "write":
        # blocks large enough that the first one's rows leave the write buffer
        argv += ["--blocks", "2", "--bits-per-block", "4096"]
        monkeypatch.setattr(cli._RoundCsv, "extend", _fail_on_the_second_block(tmp_path))
    else:
        def abort(*a, **k):
            raise SessionAbort("peer went away")
        monkeypatch.setattr(cli, "run_session", abort)
    code, _, _ = run_cli(argv, capsys)
    assert code == (3 if fault == "abort" else 2)
    assert path.read_bytes() == b"old,bytes\r\n"
    assert list(tmp_path.iterdir()) == [path]


def test_a_session_replaces_the_old_out_file(tmp_path, capsys):
    path = tmp_path / "rounds.csv"
    path.write_text("x" * 100_000)
    fresh = tmp_path / "fresh"
    fresh.write_text("")
    code, _, _ = run_cli(["session", "--bits-per-block", "64", "--out", str(path)], capsys)
    assert code == 0
    assert len(path.read_text().splitlines()) == 65
    # the mode open() gives a new file, not the temporary file's 0o600
    assert path.stat().st_mode == fresh.stat().st_mode
    assert sorted(tmp_path.iterdir()) == [fresh, path]


def test_out_through_a_symlink_writes_its_target(tmp_path, capsys):
    target = tmp_path / "hist.csv"
    target.write_text("old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    code, _, _ = run_cli(["histogram", "--pulses", "2000", "--out", str(link)], capsys)
    assert code == 0
    assert link.is_symlink()
    assert target.read_text().startswith("time_bin_seconds,counts\n")
    assert sorted(tmp_path.iterdir()) == [target, link]


def test_bad_flag_exits_2(capsys):
    assert main(["session", "--no-such-flag"]) == 2


def test_bad_config_exits_2(capsys):
    code, _, _ = run_cli(["session", "--visibility", "1.5"], capsys)
    assert code == 2
    code, _, _ = run_cli(["session", "--mu", "-1"], capsys)
    assert code == 2


@pytest.mark.parametrize("flag, value, field", [
    ("--mu", "nan", "mean_photons"),
    ("--mu", "inf", "mean_photons"),
    ("--distance-km", "nan", "length_km"),
    ("--distance-km", "inf", "length_km"),
    ("--atten-db-km", "inf", "attenuation_db_per_km"),
    ("--dark-hz", "nan", "dark_rate"),
    ("--gate-ps", "nan", "gate_window"),
])
def test_non_finite_flag_exits_2(capsys, flag, value, field):
    code, out, err = run_cli(["session", "--mode", "physical", flag, value], capsys)
    assert code == 2
    assert f"{field} must be finite" in err
    assert "sifted bits" not in out


# the default histogram's time span in ps: two window spacings of 8.5 ns
# plus four Gaussian sigmas of a 300 ps FWHM pulse on either side
DEFAULT_SPAN_PS = 2 * 8500.0 + 8 * 300.0 / 2.355

BAD_SWEEP_AND_HISTOGRAM_FLAGS = [
    (["sweep", "--km-step", "nan"], "must be finite"),
    (["sweep", "--km-start", "nan"], "must be finite"),
    (["sweep", "--km-stop", "inf"], "must be finite"),
    (["histogram", "--mu", "nan"], "mean_photons must be finite"),
    (["histogram", "--mu", "-1"], "mean_photons must be finite and >= 0"),
    (["histogram", "--phi-a", "nan"], "phi_a must be finite"),
    (["histogram", "--phi-b", "inf"], "phi_b must be finite"),
    (["histogram", "--bin-ps", "nan"], "bin_width must be finite"),
    (["histogram", "--bin-ps", "-1"], "bin_width must be finite and positive"),
    (["histogram", "--bin-ps", "0"], "bin_width must be finite and positive"),
    # flags that size an array are bounded before anything is allocated;
    # the first value of each pair is one numpy refuses, the second is just
    # over the bound, so that none of these allocates much
    (["histogram", "--bin-ps", "1e-9"], "bins exceed the limit"),
    (["histogram", "--bin-ps", repr(DEFAULT_SPAN_PS / (MAX_HISTOGRAM_BINS + 10))],
     "bins exceed the limit"),
    (["histogram", "--delta-t-ns", "1e12"], "bins exceed the limit"),
    (["histogram", "--delta-t-ns", repr(MAX_HISTOGRAM_BINS * 0.075 / 2)],
     "bins exceed the limit"),
    (["histogram", "--pulses", "10000000000000"], "expected photons exceed the limit"),
    (["histogram", "--mu", "1", "--pulses", str(MAX_EXPECTED_PHOTONS + 1)],
     "expected photons exceed the limit"),
    (["sweep", "--km-stop", "1e9", "--km-step", "1e-3"], "rows exceeds the limit"),
    (["sweep", "--km-stop", str(MAX_SWEEP_ROWS), "--km-step", "1"], "rows exceeds the limit"),
]


@pytest.mark.parametrize("argv, message", BAD_SWEEP_AND_HISTOGRAM_FLAGS,
                         ids=[" ".join(argv) for argv, _ in BAD_SWEEP_AND_HISTOGRAM_FLAGS])
def test_bad_sweep_and_histogram_flag_exits_2(capsys, argv, message):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert message in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["session", "--bits-per-block", "10000000000000"],
    ["chat", "--role", "bob", "--bits-per-block", "10000000000000"],
    ["sweep", "--pulses", "10000000000000", "--km-stop", "0", "--out", os.devnull],
], ids=["session", "chat", "sweep"])
def test_unbounded_block_size_exits_2(capsys, argv):
    # refused when the configuration is built, before any bit is drawn
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert f"bits_per_block must lie in [1, {MAX_BITS_PER_BLOCK}]" in err
    assert out == ""


BOB_AT_PORT_9 = ["chat", "--role", "bob", "--connect", "127.0.0.1:9"]
UNDRAWABLE_FLAGS = [
    (["session", "--seed-alice", "-1"], "seed_alice must be >= 0, got -1"),
    (["session", "--seed-bob", "-2"], "seed_bob must be >= 0, got -2"),
    (["histogram", "--seed-physics", "-3"], "seed_physics must be >= 0, got -3"),
    (["sweep", "--out", os.devnull, "--km-stop", "0", "--seed-physics", "-1"],
     "seed_physics must be >= 0, got -1"),
    (["chat", "--role", "alice", "--listen", "127.0.0.1:0", "--message", "hi",
      "--seed-alice", "-1"], "seed_alice must be >= 0, got -1"),
    ([*BOB_AT_PORT_9, "--seed-bob", "-1"], "seed_bob must be >= 0, got -1"),
    *(([*argv, "--mu", "1e19"], "mean_photons must be finite and >= 0, at most 1e+18")
      for argv in (["session", "--mode", "physical"], ["sweep"], ["histogram"], BOB_AT_PORT_9)),
]


@pytest.mark.parametrize("argv, message", UNDRAWABLE_FLAGS,
                         ids=[" ".join(argv[:1] + argv[-2:]) for argv, _ in UNDRAWABLE_FLAGS])
def test_a_seed_or_mean_numpy_cannot_draw_from_exits_2(capsys, argv, message):
    # refused with the configuration, before any socket, file or pulse:
    # numpy's generators take no negative seed, its Poisson sampler no
    # mean above about 9.2e18
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err, err
    assert out == ""


# flag, value, profile-file value of the same field, field, group, field value
HARDWARE_FLAGS = [
    ("--mu", "0.3", "0.05", "mean_photons", "source", 0.3),
    ("--distance-km", "12", "3", "length_km", "fiber", 12.0),
    ("--atten-db-km", "0.25", "0.2", "attenuation_db_per_km", "fiber", 0.25),
    ("--efficiency", "0.4", "0.5", "efficiency", "detector", 0.4),
    ("--dark-hz", "1000", "2000", "dark_rate", "detector", 1000.0),
    ("--gate-ps", "250", "5e-11", "gate_window", "detector", 250 * 1e-12),
    ("--visibility", "0.97", "0.9", "visibility", "interferometer", 0.97),
]


@pytest.mark.parametrize("flag, value, in_file, name, group, want", HARDWARE_FLAGS,
                         ids=[case[0] for case in HARDWARE_FLAGS])
def test_hardware_flag_sets_its_field_over_the_profile(tmp_path, flag, value, in_file,
                                                       name, group, want):
    def fields_of(argv):
        hw = _session_config(build_parser().parse_args(["session", *argv])).hardware
        return {(g, k): v for g, values in asdict(hw).items() for k, v in values.items()}

    prof = tmp_path / "hw.profile"
    prof.write_text(f"{name} = {in_file}\n")
    for base_argv in ([], ["--profile", str(prof)]):
        base = fields_of(base_argv)
        assert base[(group, name)] != want
        assert fields_of([*base_argv, flag, value]) == {**base, (group, name): want}


def test_non_finite_profile_value_exits_2(tmp_path, capsys):
    for line, field in (("mean_photons = nan", "mean_photons"),
                        ("dark_rate = inf", "dark_rate"),
                        ("pulse_width = nan", "pulse_width"),
                        ("delta_t = inf", "delta_t")):
        prof = tmp_path / "hw.profile"
        prof.write_text(line + "\n")
        code, _, err = run_cli(["session", "--mode", "physical", "--profile", str(prof)], capsys)
        assert code == 2, line
        assert f"{field} must be finite" in err


# a link that sifts nothing: the session must not report a clean channel
EMPTY_SAMPLE_FLAGS = ["--mode", "physical", "--mu", "0.0001", "--distance-km", "100",
                      "--bits-per-block", "64"]


def test_session_without_a_sample_raises_the_alarm(capsys):
    code, out, _ = run_cli(["session", *EMPTY_SAMPLE_FLAGS], capsys)
    assert code == 0
    assert "sifted bits:     0 " in out
    assert "alarm:           sample" in out


def chat_receiver_against_one_block(flags, capsys, then=lambda pipe, alice: None):
    """``chat --role bob`` against a sender thread that runs one block
    over TCP, calls ``then`` with its pipe and its engine and stops;
    returns the receiver's (exit code, stdout, stderr)."""
    cfg = _session_config(build_parser().parse_args(["chat", "--role", "alice", *flags]))
    listener = open_listener("127.0.0.1", 0)
    port = listener.getsockname()[1]
    failures = []

    def sender():
        try:
            pipe = MessagePipe(SocketTransport(accept_one(listener, timeout=10.0)),
                               cfg.session_id())
            try:
                then(pipe, AliceEngine(cfg, pipe).run(lambda eng: False))
            finally:
                pipe.close()
        except Exception as exc:
            failures.append(exc)

    th = threading.Thread(target=sender, daemon=True)
    th.start()
    result = run_cli(["chat", "--role", "bob", "--connect", f"127.0.0.1:{port}", *flags], capsys)
    th.join(timeout=10.0)
    assert not th.is_alive()
    assert not failures, failures
    return result


def test_chat_receiver_discards_a_key_without_a_sample(capsys):
    # the receiver must see the alarm's reason in Done and discard the key
    # instead of decrypting
    code, out, _ = chat_receiver_against_one_block(EMPTY_SAMPLE_FLAGS, capsys)
    assert code == 1
    assert "alarm (sample): key discarded" in out
    assert "decrypted" not in out


def test_chat_receiver_refuses_a_ciphertext_of_partial_characters(capsys):
    # 12 bits are not a whole number of 8-bit characters: the peer broke
    # the protocol, which is a transport error, not a configuration one
    def send_12_bits(pipe, alice):
        pipe.send("Ciphertext", {"bits": np.zeros(12, np.uint8)})

    code, out, err = chat_receiver_against_one_block([], capsys, then=send_12_bits)
    assert code == 3
    assert err.startswith("transport error: Ciphertext of 12 bits is not whole characters")
    assert "decrypted" not in out


def test_chat_receiver_refuses_an_empty_ciphertext(capsys):
    # the sender refuses an empty message, so a Ciphertext of no bits is
    # the peer's fault, not a message to print
    def send_no_bits(pipe, alice):
        pipe.send("Ciphertext", {"bits": np.zeros(0, np.uint8)})

    code, out, err = chat_receiver_against_one_block([], capsys, then=send_no_bits)
    assert code == 3
    assert err.startswith("transport error: Ciphertext of 0 bits is not whole characters")
    assert "decrypted" not in out


def test_chat_receiver_refuses_a_done_before_any_block(capsys, monkeypatch):
    # a sender that takes the Hello and ends the session at once: every
    # session runs a block, so the receiver refuses the Done
    monkeypatch.setattr(AliceEngine, "run_block", lambda self, count: None)
    code, out, err = chat_receiver_against_one_block([], capsys)
    assert code == 3
    assert err == "transport error: Done before any Block\n"
    assert out == ""


def test_chat_receiver_refuses_a_ciphertext_longer_than_its_key(capsys):
    def send_past_the_key(pipe, alice):
        chars = len(alice.reconciled_key()) // 8 + 1
        pipe.send("Ciphertext", {"bits": np.zeros(8 * chars, np.uint8)})

    code, out, err = chat_receiver_against_one_block([], capsys, then=send_past_the_key)
    assert code == 3
    assert err.startswith("transport error: Ciphertext of ") and "bits is not whole characters within the key's" in err
    assert "decrypted" not in out


def test_chat_receiver_refuses_a_decryption_that_is_not_ascii(capsys):
    # the peer's bits decrypt to the byte 0x80: the fault is the peer's,
    # so the receiver exits 3 as for any bad message, and prints no text
    def send_0x80(pipe, alice):
        cipher = alice.reconciled_key()[:8] ^ np.array([1, 0, 0, 0, 0, 0, 0, 0], np.uint8)
        pipe.send("Ciphertext", {"bits": cipher})

    code, out, err = chat_receiver_against_one_block([], capsys, then=send_0x80)
    assert code == 3
    assert err.startswith("transport error: decrypted Ciphertext: bits do not decode as ASCII")
    assert err.count("\n") == 1
    assert "ciphertext: " in out and "decrypted" not in out


def test_chat_receiver_refuses_a_decryption_with_control_characters(capsys):
    # ESC [ 2 J clears a terminal; the sender never encrypts it
    # (ascii_encode refuses it), so the receiver prints no text
    def send_escape(pipe, alice):
        plain = np.unpackbits(np.frombuffer(bytes.fromhex("1b5b324a"), np.uint8))
        pipe.send("Ciphertext", {"bits": alice.reconciled_key()[:32] ^ plain})

    code, out, err = chat_receiver_against_one_block([], capsys, then=send_escape)
    assert code == 3
    assert err == ("transport error: decrypted Ciphertext: character '\\x1b' is not 7-bit "
                   "printable\n")
    assert "ciphertext: 1b5b324a" not in out and "decrypted" not in out
    assert "\x1b" not in out + err


def send_ciphertext_bytes(pipe, payload: bytes):
    """``payload`` as the bytes of the pipe's next frame, a Ciphertext."""
    pipe._seq_out += 1
    head = encode_frame({"session_id": pipe.session_id, "sequence": pipe._seq_out,
                         "kind": "Ciphertext", "payload": {"bits": np.zeros(0, np.uint8)}})[4:13]
    pipe._transport.send_frame(len(head + payload).to_bytes(4, "big") + head + payload)


# the faults of the old text fields, in bytes: a count cut short, a
# trailing byte, and a count that the bytes do not hold
@pytest.mark.parametrize("payload, message", [
    (b"\x00\x00", "malformed frame: Ciphertext of 2 bytes, fewer than the 4 of its fields"),
    (b"\x00\x00\x00\x08\x00\x00", "malformed frame: 1 bytes trail the Ciphertext payload"),
    (b"\x00\x00\x00\x31\x00",
     "malformed frame: Ciphertext bits of 49 bits runs past the 1 bytes left"),
], ids=["no_chars", "extra_field", "chars_string"])
def test_chat_receiver_refuses_a_ciphertext_off_its_schema(payload, message, capsys):
    code, out, err = chat_receiver_against_one_block(
        [], capsys, then=lambda pipe, alice: send_ciphertext_bytes(pipe, payload))
    assert code == 3
    assert err == f"transport error: {message}\n"
    assert "decrypted" not in out


def test_chat_sender_at_end_of_input_exits_2(capsys, monkeypatch):
    # no --message and stdin at its end, as from /dev/null: an empty message
    def end_of_input(prompt):
        raise EOFError

    monkeypatch.setattr("builtins.input", end_of_input)
    code, _, err = run_cli(["chat", "--role", "alice", "--listen", "127.0.0.1:0"], capsys)
    assert code == 2
    assert err == "error: message is empty\n"


@pytest.mark.parametrize("message, error", [
    # its Ciphertext would not fit in a frame: without the check the
    # sender would run every block and then fail at the send
    ("x" * (MAX_CHAT_CHARS + 1),
     f"message of {MAX_CHAT_CHARS + 1} characters exceeds the limit of {MAX_CHAT_CHARS}"),
    ("caf\u00e9", "character '\u00e9' is not 7-bit printable"),
], ids=["too_long", "not_ascii"])
def test_chat_sender_refuses_a_message_before_it_listens(capsys, message, error):
    code, out, err = run_cli(["chat", "--role", "alice", "--listen", "127.0.0.1:0",
                              "--message", message], capsys)
    assert code == 2
    assert err == f"error: {error}\n"
    assert out == ""


def run_chat_processes(message, flags, timeout=20, alice_flags=()):
    """Both roles of ``b92sim chat`` as OS processes over 127.0.0.1,
    the sender with ``alice_flags`` too; returns (sender, receiver) as
    (exit code, stdout, stderr) triples."""
    chat = [sys.executable, "-m", "b92sim", "chat"]
    alice = subprocess.Popen(
        [*chat, "--role", "alice", "--listen", "127.0.0.1:0", "--message", message, *flags,
         *alice_flags],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        port = int(alice.stdout.readline().strip().rsplit(":", 1)[1])
        bob = subprocess.run(
            [*chat, "--role", "bob", "--connect", f"127.0.0.1:{port}", *flags],
            capture_output=True, text=True, timeout=timeout,
        )
        alice_out, alice_err = alice.communicate(timeout=timeout)
    finally:
        if alice.poll() is None:
            alice.kill()
            alice.communicate()
    return (alice.returncode, alice_out, alice_err), (bob.returncode, bob.stdout, bob.stderr)


def test_chat_on_a_link_that_sifts_nothing_stops_on_the_alarm():
    # the sender stops once the alarm has been up over CHAT_EMPTY_BLOCKS
    # blocks in a row that sifted no bit, and both parties report it
    (a_code, a_out, _), (b_code, b_out, _) = run_chat_processes("hi", EMPTY_SAMPLE_FLAGS,
                                                                timeout=10)
    assert a_code == b_code == 1
    assert "alarm (sample): key discarded, nothing sent" in a_out
    assert "alarm (sample): key discarded" in b_out
    assert "decrypted" not in b_out


def test_chat_receiver_learns_why_its_hello_was_refused():
    # the sender runs 512-pulse blocks, the receiver the default 1024:
    # the sender refuses the Hello with a Done before it closes, so the
    # receiver names the refusal rather than a closed connection
    (a_code, a_out, a_err), (b_code, b_out, b_err) = run_chat_processes(
        "hi", [], timeout=10, alice_flags=["--bits-per-block", "512"])
    assert a_code == b_code == 3
    assert a_err.startswith("transport error: peer configuration mismatch: ")
    assert b_err == "transport error: the sender refused the Hello: configuration mismatch\n"
    assert "ciphertext" not in a_out and b_out == ""


def blocks_and_passes(sender_out: str) -> tuple[int, int]:
    """The counts of the sender's ``blocks: N  passes: P  key bits: …`` line."""
    words = sender_out.split("blocks: ")[1].split()
    assert words[1] == "passes:"
    return int(words[0]), int(words[2])


def test_physical_chat_at_the_defaults_delivers_a_multi_block_message():
    # the key needs many blocks, and the sample alarm is up until one of
    # them sifts 4 bits; the empty-block stop must not end the chat
    (a_code, a_out, _), (b_code, b_out, _) = run_chat_processes("HELLO BOB",
                                                                ["--mode", "physical"])
    assert a_code == b_code == 0, (a_out, b_out)
    blocks, passes = blocks_and_passes(a_out)
    assert blocks > CHAT_EMPTY_BLOCKS
    assert passes <= blocks
    assert "decrypted: HELLO BOB" in b_out


def test_ideal_chat_of_1800_characters_runs_many_blocks_a_pass():
    # the 86 blocks that asking after every block runs, in at most 16
    # exchanges; the message still arrives
    message = "QKD " * 450
    (a_code, a_out, _), (b_code, b_out, _) = run_chat_processes(message, [])
    assert a_code == b_code == 0, (a_out, b_out)
    blocks, passes = blocks_and_passes(a_out)
    assert passes <= 16 and blocks > 80
    assert f"decrypted: {message}\n" in b_out


def test_model_validity_error_exits_2_with_its_cause(capsys):
    # the physics rejects the dark-count rate; that cause must reach the
    # user as a configuration error, not as a closed channel
    code, _, err = run_cli(["session", "--mode", "physical", "--dark-hz", "1e9"], capsys)
    assert code == 2
    assert "dark_rate * gate_window" in err


def test_sweep_csv(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        ["sweep", "--km-start", "0", "--km-stop", "40", "--km-step", "10",
         "--pulses", "20000", "--out", str(out_path)], capsys
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "distance_km,transmission,key_rate_bits_per_pulse,ber,alarm"
    assert len(lines) == 6
    rows = [line.split(",") for line in lines[1:]]
    transmissions = [float(r[1]) for r in rows]
    bers = [float(r[3]) for r in rows]
    assert all(b <= a for a, b in zip(transmissions, transmissions[1:]))
    assert all(b >= a for a, b in zip(bers, bers[1:]))
    assert "monte-carlo" in out


def test_sweep_to_stdout_is_pure_csv(capsys):
    code, out, _ = run_cli(
        ["sweep", "--km-start", "0", "--km-stop", "10", "--km-step", "5"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "distance_km,transmission,key_rate_bits_per_pulse,ber,alarm"
    assert len(lines) == 4


def test_sweep_rejects_empty_range(capsys):
    code, _, _ = run_cli(["sweep", "--km-start", "10", "--km-stop", "0"], capsys)
    assert code == 2
    code, _, _ = run_cli(["sweep", "--km-step", "0"], capsys)
    assert code == 2


def test_histogram_csv(tmp_path, capsys):
    out_path = tmp_path / "hist.csv"
    code, out, _ = run_cli(
        ["histogram", "--pulses", "20000", "--out", str(out_path)], capsys
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "time_bin_seconds,counts"
    assert "peak masses" in out


def test_histogram_stdout_matches_the_out_file(tmp_path, capsys):
    argv = ["histogram", "--pulses", "5000", "--bin-ps", "40"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    out_path = tmp_path / "hist.csv"
    code, _, _ = run_cli([*argv, "--out", str(out_path)], capsys)
    assert code == 0
    assert out.encode() == out_path.read_bytes()


def test_histogram_reads_the_profile(tmp_path, capsys):
    prof = tmp_path / "hw.profile"
    prof.write_text("visibility = 0.5\nmean_photons = 2\n")
    argv = ["histogram", "--pulses", "2000"]
    outs = [run_cli(argv + extra, capsys) for extra in
            ([], ["--profile", str(prof)], ["--visibility", "0.5", "--mu", "2"])]
    assert [code for code, _, _ in outs] == [0, 0, 0]
    default, from_profile, from_flags = (out for _, out, _ in outs)
    assert from_profile == from_flags
    assert from_profile != default


def test_default_histogram_output_is_unchanged(capsys):
    # sha256 of this stdout when the histogram's geometry and mean photon
    # number were flag defaults; the profile's defaults must give the same
    code, out, _ = run_cli(["histogram", "--pulses", "20000"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "641478b3501ee2515651c8993c4132d9bb4deebb949023888bcb3174c3a232f0")


LINK_FLAGS = {"--profile", "--distance-km", "--atten-db-km", "--visibility", "--mu",
              "--efficiency", "--dark-hz", "--gate-ps"}
SEED_FLAGS = {"--seed-alice", "--seed-bob", "--seed-physics"}

# each subcommand's exact options: the flags its handler reads, and no other
SUBCOMMAND_FLAGS = {
    "session": {"--mode", "--eve", *LINK_FLAGS, "--blocks", "--bits-per-block", *SEED_FLAGS,
                "--out"},
    "sweep": {"--eve", *(LINK_FLAGS - {"--distance-km"}), *SEED_FLAGS, "--out",
              "--km-start", "--km-stop", "--km-step", "--pulses"},
    "histogram": {"--profile", "--visibility", "--mu", "--delta-t-ns", "--pulse-width-ps",
                  "--loss-a", "--loss-b", "--seed-physics", "--out", "--phi-a", "--phi-b",
                  "--pulses", "--bin-ps"},
    "chat": {"--mode", "--eve", *LINK_FLAGS, "--bits-per-block", *SEED_FLAGS,
             "--role", "--listen", "--connect", "--message"},
}


def test_each_subcommand_takes_exactly_its_flags():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    got = {name: {opt for action in p._actions for opt in action.option_strings} - {"-h", "--help"}
           for name, p in subparsers.items()}
    assert got == SUBCOMMAND_FLAGS
    assert [len(got[n]) for n in ("session", "sweep", "histogram", "chat")] == [16, 16, 13, 18]


DROPPED_FLAGS = [
    (command, flag)
    for command, flags in (
        ("sweep", ["--mode", "--distance-km", "--blocks", "--bits-per-block"]),
        ("histogram", ["--mode", "--eve", "--distance-km", "--atten-db-km", "--efficiency",
                       "--dark-hz", "--gate-ps", "--blocks", "--bits-per-block",
                       "--seed-alice", "--seed-bob"]),
        ("chat", ["--blocks", "--out"]),
    )
    for flag in flags
]
FLAG_VALUES = {"--mode": "physical", "--eve": "fixed", "--out": "ignored.csv"}


@pytest.mark.parametrize("command, flag", DROPPED_FLAGS,
                         ids=[f"{c} {f}" for c, f in DROPPED_FLAGS])
def test_a_flag_the_subcommand_does_not_read_exits_2(capsys, command, flag):
    required = ["--role", "alice"] if command == "chat" else []
    code, out, err = run_cli([command, *required, flag, FLAG_VALUES.get(flag, "1")], capsys)
    assert code == 2
    assert f"unrecognized arguments: {flag}" in err
    assert out == ""


def test_chat_requires_endpoints(capsys):
    code, _, _ = run_cli(["chat", "--role", "alice", "--message", "HI"], capsys)
    assert code == 2
    code, _, _ = run_cli(["chat", "--role", "bob"], capsys)
    assert code == 2


@pytest.mark.parametrize("argv, expected", [
    (["--role", "alice", "--listen", "127.0.0.1:99999", "--message", "hi"], "port 99999 "),
    (["--role", "alice", "--listen", "127.0.0.1:65536", "--message", "hi"], "port 65536 "),
    (["--role", "bob", "--connect", "127.0.0.1:70000"], "port 70000 "),
    (["--role", "bob", "--connect", "127.0.0.1:0"], "port 0 "),
    # digits that str.isdigit takes but int refuses, or reads as 80
    (["--role", "bob", "--connect", "localhost:\u00b2"], "port \u00b2 "),
    (["--role", "bob", "--connect", "localhost:\u0668\u0660"], "port \u0668\u0660 "),
    # no port, or no host
    (["--role", "bob", "--connect", "localhost"], "expected HOST:PORT, got 'localhost'"),
    (["--role", "bob", "--connect", ":9"], "expected HOST:PORT, got ':9'"),
], ids=["alice_99999", "alice_65536", "bob_70000", "bob_0", "bob_superscript_2",
        "bob_arabic_indic_80", "bob_no_port", "bob_no_host"])
def test_chat_port_out_of_range_exits_2_before_any_socket(capsys, argv, expected):
    start = time.monotonic()
    code, out, err = run_cli(["chat", *argv], capsys)
    assert code == 2
    assert expected in err
    assert out == ""
    assert time.monotonic() - start < 0.5


@pytest.mark.parametrize("role", [
    ["--role", "alice", "--listen", "127.0.0.1:0", "--message", "hi"],
    ["--role", "bob", "--connect", "127.0.0.1:9"],
], ids=["alice", "bob"])
@pytest.mark.parametrize("bits", [1, 2, 3])
def test_chat_block_too_small_to_deliver_exits_2_before_any_socket(capsys, monkeypatch,
                                                                   role, bits):
    # a block of fewer than 4 pulses discloses no sample bit, so the
    # sample alarm never clears; at 1 pulse no block keeps a key bit and
    # the sender would never stop
    def no_socket(*args, **kwargs):
        raise AssertionError("opened a socket")

    for name in ("open_listener", "connect_with_retry"):
        monkeypatch.setattr(cli, name, no_socket)
    code, out, err = run_cli(["chat", *role, "--bits-per-block", str(bits)], capsys)
    assert code == 2
    assert err == (f"error: --bits-per-block {bits} is too small for a chat: a block of {bits} "
                   f"pulses discloses no error-sample bit, so the alarm would never clear\n")
    assert out == ""


def test_chat_connection_killed_mid_session_exits_3():
    # start a listener-side process, connect to it, then vanish without
    # ever speaking the protocol: the session must abort, not hang or
    # distill a partial key
    proc = subprocess.Popen(
        [sys.executable, "-m", "b92sim", "chat", "--role", "alice",
         "--listen", "127.0.0.1:0", "--message", "HI"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, bufsize=1,
    )
    try:
        line = proc.stdout.readline()
        assert line.startswith("listening on ")
        port = int(line.strip().rsplit(":", 1)[1])
        sock = socket.create_connection(("127.0.0.1", port), timeout=5)
        sock.close()
        out, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert proc.returncode == 3
    assert "transport error" in err
    assert "ciphertext" not in out


def test_chat_bob_refused_connection_exits_3(capsys, monkeypatch):
    # nothing listens on the port; a short deadline keeps the retries brief
    monkeypatch.setattr(
        cli, "connect_with_retry", functools.partial(channel.connect_with_retry, deadline=0.5)
    )
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    code, _, err = run_cli(
        ["chat", "--role", "bob", "--connect", f"127.0.0.1:{port}"], capsys
    )
    assert code == 3
    assert f"cannot connect to 127.0.0.1:{port}" in err
