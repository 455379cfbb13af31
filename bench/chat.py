"""One ``tcp_chat`` session: two ``b92sim chat`` processes on 127.0.0.1.

The sender listens on a free port; its first output line names the
port, and only then is the receiver started, so set-up never includes
a connect retry. Both processes are killed and reaped on every exit
path: success, failure, and timeout.
"""
from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent


class ChatFailure(Exception):
    """The session could not complete; ``procs`` are already reaped."""

    def __init__(self, message: str, procs: list):
        super().__init__(message)
        self.procs = procs


def read_line(proc: subprocess.Popen, deadline: float) -> str:
    """First line of ``proc``'s stdout, waiting until ``deadline`` at most.

    Reads the raw descriptor, so nothing sits in a Python-side buffer
    that a later ``communicate`` would miss."""
    fd = proc.stdout.fileno()
    buf = b""
    while not buf.endswith(b"\n"):
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            raise TimeoutError("no output line in time")
        part = os.read(fd, 4096)
        if not part:
            raise EOFError("process exited before printing a line")
        buf += part
    return buf.decode()


def _launch(root: Path, record: Path, trace: bool, index: int, cli_args: list[str]):
    cmd = [sys.executable, str(HERE / "chat_party.py"), str(record),
           "1" if trace else "0", str(index), "--", "chat", *cli_args]
    return subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def run_session(root: Path, out_dir: Path, wl: workloads.Workload, seed: int, index: int,
                trace: bool, timeout: float) -> dict:
    """Run one chat session and return its facts and timings."""
    seeds = workloads.session_seeds(wl.name, seed, index)
    message = workloads.chat_message(seed, index, wl.message_chars)
    common = ["--seed-alice", str(seeds[0]), "--seed-bob", str(seeds[1]),
              "--seed-physics", str(seeds[2]), "--bits-per-block", str(wl.bits_per_block)]
    records = {role: out_dir / f"chat-{role}.json" for role in ("alice", "bob")}
    for path in records.values():
        path.unlink(missing_ok=True)
    procs: list[subprocess.Popen] = []
    deadline = time.monotonic() + timeout
    try:
        t_spawn = time.monotonic()
        alice = _launch(root, records["alice"], trace, index,
                        ["--role", "alice", "--listen", "127.0.0.1:0", "--message", message, *common])
        procs.append(alice)
        try:
            line = read_line(alice, deadline)
        except (TimeoutError, EOFError) as exc:
            raise ChatFailure(f"sender did not start listening: {exc}", []) from None
        port = line.strip().rpartition(":")[2]
        if not port.isdigit():
            raise ChatFailure(f"unexpected sender output {line!r}", [])
        bob = _launch(root, records["bob"], trace, index,
                      ["--role", "bob", "--connect", f"127.0.0.1:{port}", *common])
        procs.append(bob)
        outputs = {}
        for role, proc in (("alice", alice), ("bob", bob)):
            try:
                out, err = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise ChatFailure(f"{role} did not finish within {timeout:g} s", []) from None
            outputs[role] = (proc.returncode, out.decode(), err.decode())
    except ChatFailure as exc:
        exc.procs = procs
        raise
    finally:
        _reap(procs)
    return _session_result(records, outputs, message, seeds, t_spawn)


def _reap(procs: list) -> None:
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        for stream in (proc.stdout, proc.stderr):
            if stream:
                stream.close()


def _session_result(records, outputs, message, seeds, t_spawn) -> dict:
    failures = []
    for role, (code, _out, err) in outputs.items():
        if code != 0:
            failures.append(f"{role} exited {code}: {err.strip()[-300:]}")
    if failures or not all(p.exists() for p in records.values()):
        return {"seeds": list(seeds), "failures": failures or ["a party left no record"]}
    rec = {role: json.loads(path.read_text()) for role, path in records.items()}
    a, b = rec["alice"], rec["bob"]
    decrypted = [ln[len("decrypted: "):] for ln in outputs["bob"][1].splitlines()
                 if ln.startswith("decrypted: ")]
    if decrypted != [message]:
        failures.append("receiver's decrypted text differs from the message")
    if a["reconciled_digest"] != b["reconciled_digest"]:
        failures.append("the parties' reconciled keys differ")
    facts = {k: a[k] for k in ("mode", "eve", "blocks", "bits_per_block", "n_rounds",
                               "sifted_bits", "ber", "alarm", "expected_sifted_fraction")}
    facts["sifted_equal"] = a["sifted_digest"] == b["sifted_digest"]
    failures += checks.check_facts(facts)
    t_connected = a["times"]["connected"]
    seconds = max(a["times"]["end"], b["times"]["end"]) - t_connected
    return {
        "seeds": list(seeds),
        "failures": failures,
        "setup_s": t_connected - t_spawn,
        "setup_calibration_s": a["calibration_s"] + b["calibration_s"],
        "seconds": seconds,
        "pulses": a["n_rounds"],
        "sifted_bits": a["sifted_bits"],
        "reconciled_bits": a["reconciled_bits"],
        "digest": a["reconciled_digest"],
        "peak_rss_mb": a["peak_rss_mb"] + b["peak_rss_mb"],
        "import_s": (a["import_s"] + b["import_s"]) / 2.0,
        "listen_to_connect_s": t_connected - a["times"]["listening"],
        "traces": [a["trace"], b["trace"]] if a["trace"] else None,
    }
