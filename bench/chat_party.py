"""Launcher for one party of ``b92sim chat``.

    python3 bench/chat_party.py RECORD.json TRACE SESSION -- chat --role ...

Imports b92sim from the checkout, installs light hooks (and with
TRACE=1 the span tracer), then hands the remaining arguments to
``b92sim.cli.main``. The hooks only observe: they note when the
listener opened and when the connection came up, and keep the party's
engine so that its keys can be checked. After ``main`` returns, the
launcher notes the peak RSS, then times three ``calibrate`` passes (the
orchestrator scales the set-up time by the host speed they show), and
writes RECORD.json with the noted times (``time.monotonic``, the same
clock in every process on the host), the engine's facts, the peak RSS,
the calibrations and the exported trace; it exits with ``main``'s code.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    record_path, trace, session = argv[0], argv[1] == "1", int(argv[2])
    cli_args = argv[argv.index("--") + 1:]
    import_s = workloads.import_b92sim(ROOT, "b92sim.cli")

    import b92sim.cli as cli
    from b92sim import protocol

    import checks

    times: dict[str, float] = {}
    engines: list = []
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer(party=cli_args[cli_args.index("--role") + 1])
        tracer.session = session
        tracer.install()

    def mark(fn, key, start_trace=False):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            times[key] = time.monotonic()
            if start_trace and tracer:
                tracer.active = True
            return result
        return wrapper

    def keep_engine(run):
        def wrapper(self, *args, **kwargs):
            engines.append(self)
            return run(self, *args, **kwargs)
        return wrapper

    cli.open_listener = mark(cli.open_listener, "listening")
    cli.accept_one = mark(cli.accept_one, "connected", start_trace=True)
    cli.connect_with_retry = mark(cli.connect_with_retry, "connected", start_trace=True)
    for cls in (protocol.AliceEngine, protocol.BobEngine):
        cls.run = keep_engine(cls.run)

    code = cli.main(cli_args)
    times["end"] = time.monotonic()
    if tracer:
        tracer.active = False

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    from calibrate import calibrate

    record = {"code": code, "import_s": import_s, "times": times, "peak_rss_mb": peak_rss_mb,
              "calibration_s": [calibrate() for _ in range(3)],
              "trace": tracer.export() if tracer else None}
    if engines:
        eng = engines[0]
        record.update(
            sifted_digest=checks.key_digest(eng.sifted_key()),
            reconciled_digest=checks.key_digest(eng.reconciled_key()),
            reconciled_bits=len(eng.reconciled_key()),
        )
        if isinstance(eng, protocol.AliceEngine):
            record.update(
                mode=eng.cfg.mode.value, eve=eng.cfg.eve.value,
                blocks=eng.blocks_done, bits_per_block=eng.cfg.bits_per_block,
                n_rounds=eng.rounds_sent, sifted_bits=len(eng.sifted_key()),
                ber=eng.ber, alarm=eng.alarm,
                expected_sifted_fraction=checks.expected_sifted_fraction(eng.cfg),
            )
    Path(record_path).write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
