"""One in-process benchmark run in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE OUT.json [--tiny] [--probe]

Prints ``ready`` once b92sim is imported and the first session's
config is built; the orchestrator times that as set-up. It then times
three passes of ``calibrate`` for the host speed during set-up; with
``--probe`` it writes those and exits. Otherwise it pins itself to one
CPU and runs closed-loop sessions through ``run_session`` until
SECONDS of wall time have passed (each session waits for the previous
one; a session is only started if one more of the last one's length
still fits), checks each, and writes the sessions, the peak RSS and
(TRACE=1) the exported spans to OUT.json.

A session's ``seconds`` are its wall seconds, handoffs between the
parties' threads included. The process runs on one CPU because, on a
2-vCPU virtual machine, a handoff between threads on different CPUs
waits for the hypervisor to wake the other vCPU, which made the same
session take from one to five times as long from minute to minute.
One ``calibrate`` pass runs before the first session and one after
each, and each session records the two around it as
``calibration_s``, beside its wall seconds and its ``cpu_seconds``
(this process, all threads).
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, out = argv[:5]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    wl = workloads.get(name, tiny="--tiny" in argv)
    import_s = workloads.import_b92sim(ROOT)
    cfg = workloads.session_config(wl, workloads.session_seeds(name, seed, 0))
    print("ready", flush=True)
    from calibrate import calibrate

    setup_calibration = [calibrate() for _ in range(3)]
    if "--probe" in argv:
        Path(out).write_text(json.dumps({"setup_calibration_s": setup_calibration}))
        return 0
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    from dataclasses import replace

    from b92sim import run_session

    import checks

    expected = checks.expected_sifted_fraction(cfg)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    sessions = []
    before = calibrate()
    begin = time.perf_counter()
    index = 0
    while True:
        seeds = workloads.session_seeds(name, seed, index)
        cfg = replace(cfg, seed_alice=seeds[0], seed_bob=seeds[1], seed_physics=seeds[2])
        channel = tracer.loopback_pair() if tracer else None
        if tracer:
            tracer.session = index
            tracer.active = True
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            report = run_session(cfg, channel=channel, n_blocks=wl.blocks)
            error = None
        except Exception as exc:  # a failed session is counted, and the loop goes on
            report, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        cpu = time.process_time() - c0
        if tracer:
            tracer.active = False
        after = calibrate()
        rec = {"index": index, "seeds": seeds, "seconds": t1 - t0, "cpu_seconds": cpu,
               "calibration_s": [before, after]}
        before = after
        if report is None:
            rec["failures"] = [error]
        else:
            facts = checks.report_facts(report, cfg, wl.blocks, expected)
            rec.update(pulses=facts["n_rounds"], sifted_bits=facts["sifted_bits"],
                       reconciled_bits=facts["reconciled_bits"], digest=facts["digest"],
                       failures=checks.check_facts(facts))
        del report  # so that the next session's peak RSS does not include this one's
        sessions.append(rec)
        index += 1
        if t1 - begin + (t1 - t0) > seconds:
            break

    result = {
        "import_s": import_s,
        "setup_calibration_s": setup_calibration,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sessions": sessions,
        "trace": tracer.export() if tracer else None,
    }
    Path(out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
