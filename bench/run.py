"""b92sim benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Runs one workload (see workloads.py and BENCHMARK.json) closed loop for
S seconds from inputs derived from N, checks every session's output,
and prints as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the end-to-end ones of BENCHMARK.json, measured with
no wrappers installed; with ``--trace 1`` they are the per-layer ones,
from a run with the span tracer installed, next to an untraced run
of the same length for ``trace.overhead_ratio``.

Every run appends its full record (environment, per-session results,
determinism verdict) to ``.bench_out/results.jsonl`` in the checkout;
a traced run also writes ``.bench_out/<workload>-trace.json`` and the
span file ``.bench_out/<workload>-spans.jsonl``. ``--tiny`` shrinks
every workload for the benchmark's own tests.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import chat
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
# fresh interpreters started only to time set-up, besides the measured one
SETUP_PROBES = 5
# a run, set-up included, must end well inside three minutes
RUN_TIMEOUT_S = 150.0


def declared_metrics() -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"e2e": {m["name"]: m for m in spec["end_to_end"]},
            "layer": {m["name"]: m for m in spec["per_layer"]}}


def environment() -> dict:
    src = ROOT / "src"
    files = sorted(src.rglob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        h.update(str(f.relative_to(src)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = res.stdout.strip() or None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "commit": commit,
            "src_sha256": h.hexdigest(), "src_lines": lines}


# ---------------------------------------------------------------------------
# in-process workloads


def run_worker(args, seconds: float, trace: bool, probe: bool = False):
    """Start worker.py in a fresh interpreter; return (result, set-up seconds)."""
    out = OUT / "worker.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
           str(seconds), "1" if trace else "0", str(out)]
    cmd += ["--tiny"] * args.tiny + ["--probe"] * probe
    deadline = time.monotonic() + RUN_TIMEOUT_S
    ready = None
    with open(OUT / "worker.log", "ab") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=log)
        try:
            chat.read_line(proc, deadline)
            ready = time.monotonic() - t0
            proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        except (TimeoutError, EOFError, subprocess.TimeoutExpired):
            pass  # reported below from the exit code
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
    if proc.returncode != 0 or ready is None:
        raise RuntimeError(f"worker failed with code {proc.returncode}; see {OUT / 'worker.log'}")
    return json.loads(out.read_text()), ready


def inproc_run(args, seconds: float, trace: bool) -> dict:
    """Set-up and session times are at the reference speed (calibrate.py)."""
    import calibrate

    workers = [run_worker(args, 0, False, probe=True) for _ in range(SETUP_PROBES * (not trace))]
    res, ready = run_worker(args, seconds, trace)
    setups = [t * calibrate.speed_factor(r["setup_calibration_s"])
              for r, t in workers + [(res, ready)]]
    for s in res["sessions"]:
        s["speed_factor"] = calibrate.speed_factor(s["calibration_s"])
    return {"sessions": res["sessions"], "setups": setups,
            "peak_rss_mb": res["peak_rss_mb"], "import_s": res["import_s"],
            "listen_to_connect_s": 0.0, "traces": [res["trace"]] if trace else None}


# ---------------------------------------------------------------------------
# the two-process workload


def chat_run(args, wl, seconds: float, trace: bool) -> dict:
    """Set-up times are at the reference speed, from the calibrations
    that each party runs once its session is over (here they would add
    this process's memory to the parties' peak RSS, which a child
    inherits until it execs); session times are plain host seconds,
    because a chat session mostly waits on TCP timers, which do not
    follow the host's CPU speed."""
    import calibrate

    sessions = []
    begin = time.monotonic()
    while True:
        t0 = time.monotonic()
        index = len(sessions)
        try:
            s = chat.run_session(ROOT, OUT, wl, args.seed, index, trace, timeout=RUN_TIMEOUT_S / 2)
        except chat.ChatFailure as exc:
            s = {"seeds": None, "failures": [str(exc)]}
        s["index"] = index
        sessions.append(s)
        t1 = time.monotonic()
        if t1 - begin + (t1 - t0) > seconds:
            break
    ok = [s for s in sessions if "seconds" in s]
    traces = [t for s in ok for t in s.get("traces") or []]
    for s in sessions:
        s["speed_factor"] = 1.0
    return {"sessions": sessions,
            "setups": [s["setup_s"] * calibrate.speed_factor(s["setup_calibration_s"])
                       for s in ok],
            "peak_rss_mb": _median([s["peak_rss_mb"] for s in ok]),
            "import_s": _median([s["import_s"] for s in ok]),
            "listen_to_connect_s": _median([s["listen_to_connect_s"] for s in ok]),
            "traces": traces if trace else None}


# ---------------------------------------------------------------------------
# results


def _median(values):
    return statistics.median(values) if values else 0.0


def rates(sessions: list[dict]) -> tuple[float, float]:
    """Pulses per second, the median over the completed sessions after
    the first (a warm-up: cold caches and first allocations), with each
    session's wall seconds times its ``speed_factor``; and reconciled key
    bits per second: that rate times the run's reconciled bits per
    pulse, so the key yield is averaged over all of the run's pulses
    instead of per session."""
    done = [s for s in sessions if "pulses" in s]
    timed = [s for s in done if s["index"] > 0] or done
    pulses_per_s = _median([s["pulses"] / (s["seconds"] * s["speed_factor"]) for s in timed])
    pulses = sum(s["pulses"] for s in done)
    bits = sum(s["reconciled_bits"] for s in done)
    return pulses_per_s, pulses_per_s * bits / pulses if pulses else 0.0


def determinism(args, wl, sessions: list[dict], src_sha256: str) -> dict:
    """Compare session digests with earlier runs of the same workload
    definition and sources in this checkout (must be equal) and session
    0 with the committed reference (may move)."""
    path = OUT / "digests.json"
    db = json.loads(path.read_text()) if path.exists() else {}
    spec = hashlib.sha256(repr(wl).encode()).hexdigest()[:16]
    entry = db.setdefault(f"{args.workload}/{spec}/{args.seed}/{src_sha256}", {})
    mismatched = []
    for s in sessions:
        if "digest" not in s:
            continue
        old = entry.setdefault(str(s["index"]), s["digest"])
        if old != s["digest"]:
            mismatched.append(s["index"])
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(db, indent=1, sort_keys=True))
    os.replace(tmp, path)
    ref = None
    if not args.tiny:
        refs = json.loads((HERE / "reference_digests.json").read_text())
        ref = refs.get(args.workload, {}).get(str(args.seed))
    first = next((s["digest"] for s in sessions if s["index"] == 0 and "digest" in s), None)
    if ref is None or first is None:
        stream = "unreferenced"
    else:
        stream = "unchanged" if ref == first else "RNG stream moved"
    return {"digest_session0": first, "rng_stream": stream, "mismatched_sessions": mismatched}


def end_to_end(run: dict, attempted: int, failed: int) -> dict[str, float]:
    pulses_per_s, key_bits_per_s = rates(run["sessions"])
    return {"pulses_per_s": pulses_per_s,
            "key_bits_per_s": key_bits_per_s,
            "setup_s": _median(run["setups"]),
            "peak_rss_mb": run["peak_rss_mb"],
            "ok_ratio": (attempted - failed) / attempted}


def write_trace_outputs(args, trace: dict, layer: dict, env: dict) -> list:
    table = tracer.self_time_table(trace)
    selfs = tracer.self_times(trace["spans"])
    with open(OUT / f"{args.workload}-spans.jsonl", "w") as f:
        for r, s in zip(trace["spans"], selfs):
            f.write(json.dumps({"name": r[0], "party": r[1], "session": r[2], "block": r[3],
                                "start_ns": r[4], "end_ns": r[5], "parent": r[6],
                                "self_ns": s}) + "\n")
    predictions = json.loads((HERE / "predictions.json").read_text())
    (OUT / f"{args.workload}-trace.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "env": env,
        "per_layer": layer, "self_time_s": table, "aggregated": trace["hot"],
        "predictions": predictions,
    }, indent=1))
    return table


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small sizes, for the benchmark's tests")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "b92sim" / "__init__.py").is_file():
        print(f"error: no b92sim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    declared = declared_metrics()
    wl = workloads.get(args.workload, args.tiny)
    env = environment()

    def one_run(seconds, trace):
        if wl.kind == "chat":
            return chat_run(args, wl, seconds, trace)
        return inproc_run(args, seconds, trace)

    if args.trace:
        plain = one_run(args.seconds / 2, False)
        traced = one_run(args.seconds / 2, True)
        runs = [plain, traced]
    else:
        runs = [one_run(args.seconds, False)]
    sessions = [s for r in runs for s in r["sessions"]]
    attempted = len(sessions)
    failed = sum(1 for s in sessions if s["failures"])
    det = determinism(args, wl, sessions, env["src_sha256"])
    correct = failed == 0 and not det["mismatched_sessions"]

    if args.trace:
        trace = tracer.merge(traced["traces"])
        done = [s for s in traced["sessions"] if "pulses" in s]
        totals = {k: sum(s[k] for s in done) for k in ("pulses", "sifted_bits", "reconciled_bits")}
        untraced_rate = rates(plain["sessions"])[0]
        # set-up figures come from the untraced half, which installs no wrappers
        extra = {"cli.import_s": plain["import_s"],
                 "cli.listen_to_connect_s": plain["listen_to_connect_s"],
                 "trace.overhead_ratio": rates(traced["sessions"])[0] / untraced_rate
                 if untraced_rate else 0.0}
        values = tracer.layer_metrics(trace, totals, extra)
        kind = "layer"
        table = write_trace_outputs(args, trace, values, env)
        print("self time by span (s):")
        for name, secs in table[:8]:
            print(f"  {name:34s} {secs:.4f}")
    else:
        values = end_to_end(runs[0], attempted, failed)
        kind = "e2e"
    if set(values) != set(declared[kind]):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(declared[kind]))} "
                           "are not both computed and declared in BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": declared[kind][name]["unit"]}
               for name in declared[kind]}

    record = {"time": time.time(), "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny, "env": env,
              "correct": correct, "attempted": attempted, "failed": failed,
              "determinism": det, "metrics": metrics,
              "sessions": [{k: v for k, v in s.items() if k != "traces"} for s in sessions]}
    with open(OUT / "results.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    for s in sessions:
        for msg in s["failures"]:
            print(f"session {s['index']} failed: {msg}")
    print(f"env: {json.dumps(env)}")
    print(f"determinism: {json.dumps(det)}")
    factors = [s["speed_factor"] for s in sessions if "speed_factor" in s]
    print(f"host speed factor by which session seconds were scaled, median: {_median(factors):.4f}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
