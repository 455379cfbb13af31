"""Workload definitions and the inputs derived from a workload seed.

Importing this module imports neither b92sim nor numpy, so the
orchestrator stays light; only ``import_b92sim`` and ``session_config``
touch b92sim, when called. The inputs are a pure function of the
workload name, the seed and the size ("full" or "tiny").
"""
from __future__ import annotations

import random
import string
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                # "inproc" (run_session) or "chat" (two processes over TCP)
    mode: str                # b92sim Mode value
    bits_per_block: int
    blocks: int              # blocks per in-process session
    afterpulse_prob0: float = 0.0
    message_chars: int = 0   # chat only: length of the one-time-pad message


# Sizes are what make each workload stress its own layer; BENCHMARK.json
# says why each workload is there.
# ideal_small_blocks uses 500 blocks a session: RoundLogs.extend is
# still the largest self time there, and a 25 s run holds about thirty
# sessions, which keeps their median steady. physical_afterpulse uses 4
# blocks, not 8: the per-gate walk is per pulse, so it dominates just as
# much, and a session of about half a second is short enough for the
# calibrations around it to see the host speed it ran at.
FULL = {
    "ideal_small_blocks": Workload(
        "ideal_small_blocks", "inproc", "ideal", 1024, 500),
    "ideal_large_block": Workload(
        "ideal_large_block", "inproc", "ideal", 2_000_000, 1),
    "physical_afterpulse": Workload(
        "physical_afterpulse", "inproc", "physical", 65536, 4, afterpulse_prob0=0.05),
    "tcp_chat": Workload(
        "tcp_chat", "chat", "ideal", 1024, 0, message_chars=1800),
}

TINY = {
    "ideal_small_blocks": Workload("ideal_small_blocks", "inproc", "ideal", 1024, 20),
    "ideal_large_block": Workload("ideal_large_block", "inproc", "ideal", 50_000, 1),
    "physical_afterpulse": Workload(
        "physical_afterpulse", "inproc", "physical", 8192, 4, afterpulse_prob0=0.05),
    "tcp_chat": Workload("tcp_chat", "chat", "ideal", 1024, 0, message_chars=40),
}

NAMES = tuple(FULL)


def get(name: str, tiny: bool = False) -> Workload:
    return (TINY if tiny else FULL)[name]


def session_seeds(workload: str, seed: int, index: int) -> tuple[int, int, int]:
    """Seed triple (alice, bob, physics) of session ``index`` of a run.

    The three seeds are distinct, so the parties' bit streams are
    independent (equal alice and bob seeds would double the sift rate).
    """
    rng = random.Random(f"{workload}:{seed}:{index}")
    seeds: list[int] = []
    while len(seeds) < 3:
        s = rng.randrange(1, 2**31)
        if s not in seeds:
            seeds.append(s)
    return seeds[0], seeds[1], seeds[2]


def chat_message(seed: int, index: int, n_chars: int) -> str:
    """Printable message of fixed length; starts with a letter so that the
    command line never reads it as a flag."""
    rng = random.Random(f"message:{seed}:{index}")
    body = string.ascii_letters + string.digits + " .,"
    return rng.choice(string.ascii_letters) + "".join(
        rng.choice(body) for _ in range(n_chars - 1)
    )


def import_b92sim(root, entry: str = "b92sim"):
    """Import b92sim's ``entry`` module from the checkout's ``src/``.

    Returns the seconds the import took. Refuses a b92sim found anywhere
    else, so the benchmark never measures an installed copy.
    """
    import importlib
    import sys
    import time
    from pathlib import Path

    src = (Path(root) / "src").resolve()
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    importlib.import_module(entry)
    import_s = time.perf_counter() - t0
    found = Path(sys.modules["b92sim"].__file__).resolve()
    if src not in found.parents:
        raise ImportError(f"b92sim imported from {found}, not from {src}")
    return import_s


def session_config(wl: Workload, seeds: tuple[int, int, int]):
    """The SessionConfig of one session (b92sim must be importable)."""
    from b92sim import HardwareProfile, SessionConfig
    from b92sim.hardware import DetectorParams
    from b92sim.protocol import Mode

    return SessionConfig(
        seed_alice=seeds[0],
        seed_bob=seeds[1],
        seed_physics=seeds[2],
        bits_per_block=wl.bits_per_block,
        mode=Mode.from_str(wl.mode),
        hardware=HardwareProfile(detector=DetectorParams(afterpulse_prob0=wl.afterpulse_prob0)),
    )
