"""Span tracer that observes b92sim from outside.

``Tracer.install`` replaces module and class attributes of b92sim with
timing wrappers; nothing under ``src/`` changes. A span records its
name, party, session, block, start, end and parent; spans stay in
memory, one list per thread, until ``export``. Functions called once
per pulse (``gate_detector``, anything in ``qstate`` or
``photonics``) are aggregated instead: calls and nanoseconds, with the
time also charged to the enclosing span so that its self time leaves
them out.

``layer_metrics`` turns exported traces into the per-layer metrics.
It is pure Python, so the orchestrator can merge the traces of two
processes without importing b92sim.
"""
from __future__ import annotations

import inspect
import math
import statistics
import sys
import threading
from collections import defaultdict
from time import perf_counter_ns

# span record fields
NAME, PARTY, SESSION, BLOCK, T0, T1, PARENT, HOT_NS = range(8)

WAIT_SPANS = ("channel.recv_wait",)


class _ThreadState:
    def __init__(self):
        self.stack: list[list] = []
        self.party: str | None = None
        self.block = -1
        self.spans: list[list] = []
        self.hot: dict[str, list] = {}
        self.counts: dict[str, int] = defaultdict(int)


class Tracer:
    def __init__(self, party: str | None = None):
        self.active = False
        self.session = 0
        self._default_party = party
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        # ns per aggregated call that the wrapper spends outside its own
        # timed window; set by install()
        self.hot_extra_ns = 0

    # -- per-thread state -------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            st.party = self._default_party
            self._local.st = st
            self._threads.append(st)
        return st

    # -- wrappers ---------------------------------------------------------

    def span(self, fn, name: str, enter=None, after=None):
        """Wrap ``fn`` in a span. ``enter(st, args)`` runs before the span
        opens; ``after(st, args, result)`` runs after it closes."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            st = tracer._state()
            if enter is not None:
                enter(st, args)
            parent = st.stack[-1] if st.stack else None
            rec = [name, st.party, tracer.session, st.block, 0, 0, parent, 0]
            st.spans.append(rec)
            st.stack.append(rec)
            rec[T0] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[T1] = perf_counter_ns()
                st.stack.pop()
            if after is not None:
                after(st, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def hot(self, fn, name: str):
        """Wrap ``fn`` in an aggregate counter (calls, ns). Kept lean: it
        runs once per pulse. Its own cost, estimated by ``_calibrate_hot``,
        is charged to the tracer and not to the calling span."""
        tracer, clock, local = self, perf_counter_ns, self._local

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t0 = clock()
            result = fn(*args, **kwargs)
            dt = clock() - t0
            st = getattr(local, "st", None) or tracer._state()
            agg = st.hot.get(name)
            if agg is None:
                agg = st.hot[name] = [0, 0]
            agg[0] += 1
            agg[1] += dt
            if st.stack:
                st.stack[-1][HOT_NS] += dt + tracer.hot_extra_ns
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _calibrate_hot(self, calls: int = 20000, repeats: int = 5) -> int:
        """The wrapper's own cost per aggregated call outside the window
        it times, beyond what a direct call costs, so that it is charged
        to the tracer and not to the calling span's self time. Smallest
        of a few repeats."""
        def noop():
            return None

        wrapped = self.hot(noop, "calibration")
        st = self._state()
        best = None
        for _ in range(repeats):
            t0 = perf_counter_ns()
            for _ in range(calls):
                noop()
            plain = perf_counter_ns() - t0
            st.hot.pop("calibration", None)
            self.active = True
            t0 = perf_counter_ns()
            for _ in range(calls):
                wrapped()
            total = perf_counter_ns() - t0
            self.active = False
            inside = st.hot["calibration"][1]
            extra = (total - inside - plain) // calls
            best = extra if best is None else min(best, extra)
        del st.hot["calibration"]
        return max(0, best)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics need."""
        self.hot_extra_ns = self._calibrate_hot()
        from b92sim import channel, hardware, otp, photonics, protocol, qstate

        mods = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "b92sim"]

        def replace_everywhere(fn, wrapped):
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, attr, wrapped)

        def on_method(cls, attr, name, **kw):
            setattr(cls, attr, self.span(getattr(cls, attr), name, **kw))

        def on_function(fn, name, **kw):
            replace_everywhere(fn, self.span(fn, name, **kw))

        def enter_run(party):
            def enter(st, args):
                st.party = party
                st.block = -1
            return enter

        def after_alice_run(st, args, engine):
            st.counts["protocol.disclosed_bits"] += engine.disclosed_total

        def enter_block(st, args):
            st.block += 1

        def after_verdicts(st, args, result):
            if st.party == "alice":
                st.counts["protocol.parity_blocks_dropped"] += int(args[1].sum())

        def after_otp(st, args, result):
            st.counts["otp.symbols"] += len(args[0])

        on_method(protocol.AliceEngine, "run", "protocol.run",
                  enter=enter_run("alice"), after=after_alice_run)
        on_method(protocol.BobEngine, "run", "protocol.run", enter=enter_run("bob"))
        for cls in (protocol.AliceEngine, protocol.BobEngine):
            on_method(cls, "run_block", "protocol.run_block", enter=enter_block)
            on_method(cls, "reconciled_key", "protocol.reconciled_key")
        on_method(protocol.PhysicsKernel, "transmit_block", "protocol.transmit_block")
        on_method(protocol.RoundLogs, "extend", "protocol.roundlogs_extend")
        on_function(protocol.generate_bits, "protocol.generate_bits")
        on_function(protocol._sift, "protocol.sift")
        on_function(protocol.block_parities, "protocol.block_parities")
        on_function(protocol.apply_block_verdicts, "protocol.apply_block_verdicts",
                    after=after_verdicts)

        on_method(channel.MessagePipe, "send", "channel.send")
        on_method(channel.MessagePipe, "recv", "channel.recv")
        on_function(channel.encode_frame, "channel.encode_frame")
        on_function(channel.decode_frame, "channel.decode_frame")
        self._wrap_transport(channel.SocketTransport)

        on_function(otp.pad_from_key, "otp.pad_from_key")
        on_function(otp.encrypt, "otp.encrypt", after=after_otp)
        on_function(otp.decrypt, "otp.decrypt", after=after_otp)

        gate = hardware.gate_detector
        replace_everywhere(gate, self.hot(gate, "hardware.gate_detector"))
        for mod in (qstate, photonics):
            counter = mod.__name__.split(".")[-1] + ".calls"
            for obj in list(vars(mod).values()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replace_everywhere(obj, self.hot(obj, counter))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, val in list(vars(obj).items()):
                        if inspect.isfunction(val):
                            setattr(obj, attr, self.hot(val, counter))

    def _wrap_transport(self, target) -> None:
        """Time receives as waits and count sent frames and bytes, on a
        transport class or on one transport instance."""
        send = target.send_frame
        tracer = self

        def send_frame(*args):
            if tracer.active:
                st = tracer._state()
                st.counts["channel.frames"] += 1
                st.counts["channel.bytes"] += len(args[-1])
            return send(*args)

        target.send_frame = send_frame
        target.recv_frame = self.span(target.recv_frame, "channel.recv_wait")

    def loopback_pair(self):
        """A traced in-process channel for ``run_session(channel=...)``."""
        from b92sim.channel import loopback_pair

        pair = loopback_pair()
        for transport in pair:
            self._wrap_transport(transport)
        return pair

    # -- output -----------------------------------------------------------

    def export(self) -> dict:
        """Spans with parent indices, aggregated hot calls, and counts."""
        index: dict[int, int] = {}
        spans = []
        for st in self._threads:
            for rec in st.spans:
                index[id(rec)] = len(spans)
                spans.append(rec)
        out = [
            [r[NAME], r[PARTY], r[SESSION], r[BLOCK], r[T0], r[T1],
             -1 if r[PARENT] is None else index[id(r[PARENT])], r[HOT_NS]]
            for r in spans
        ]
        hot: dict[str, list] = {}
        counts: dict[str, int] = defaultdict(int)
        for st in self._threads:
            _add_totals(hot, counts, st.hot, st.counts)
        return {"spans": out, "hot": hot, "counts": dict(counts),
                "hot_extra_ns": self.hot_extra_ns}


# ---------------------------------------------------------------------------
# metrics from exported traces


def _add_totals(hot: dict, counts: dict, more_hot: dict, more_counts: dict) -> None:
    for name, (calls, ns) in more_hot.items():
        agg = hot.setdefault(name, [0, 0])
        agg[0] += calls
        agg[1] += ns
    for name, n in more_counts.items():
        counts[name] += n


def merge(traces: list[dict]) -> dict:
    """Concatenate exported traces (one per process), fixing parent indices."""
    spans: list[list] = []
    hot: dict[str, list] = {}
    counts: dict[str, int] = defaultdict(int)
    wrapper_ns = 0
    for tr in traces:
        wrapper_ns += tr["hot_extra_ns"] * sum(calls for calls, _ns in tr["hot"].values())
        base = len(spans)
        for r in tr["spans"]:
            r = list(r)
            if r[PARENT] >= 0:
                r[PARENT] += base
            spans.append(r)
        _add_totals(hot, counts, tr["hot"], tr["counts"])
    return {"spans": spans, "hot": hot, "counts": dict(counts), "wrapper_ns": wrapper_ns}


def self_times(spans: list[list]) -> list[int]:
    """Duration minus the time covered by child spans and aggregated
    calls (including the aggregating wrappers' own cost)."""
    child = [0] * len(spans)
    for r in spans:
        if r[PARENT] >= 0:
            child[r[PARENT]] += r[T1] - r[T0]
    return [r[T1] - r[T0] - child[i] - r[HOT_NS] for i, r in enumerate(spans)]


def self_time_table(trace: dict) -> list[tuple[str, float]]:
    """Seconds of self time per span name and per aggregated counter,
    largest first. Waits on the channel are not work and are left out."""
    by_name: dict[str, float] = defaultdict(float)
    for r, s in zip(trace["spans"], self_times(trace["spans"])):
        if r[NAME] not in WAIT_SPANS:
            by_name[r[NAME]] += s / 1e9
    for name, (_calls, ns) in trace["hot"].items():
        by_name[name] += ns / 1e9
    by_name["tracer.hot_wrappers"] += trace["wrapper_ns"] / 1e9
    return sorted(by_name.items(), key=lambda kv: -kv[1])


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _block_cycles(spans: list[list]) -> dict[int, list[float]]:
    """Per session, the sender's block cycle times in ms: from the start
    of one run_block to the start of the next (the last one ends with
    the sender's run span), so per-block bookkeeping between blocks is
    included."""
    starts: dict[int, list[int]] = defaultdict(list)
    ends: dict[int, int] = {}
    for r in spans:
        if r[PARTY] != "alice":
            continue
        if r[NAME] == "protocol.run_block":
            starts[r[SESSION]].append(r[T0])
        elif r[NAME] == "protocol.run":
            ends[r[SESSION]] = r[T1]
    cycles = {}
    for session, s in starts.items():
        s = sorted(s)
        bounds = s + [ends.get(session, s[-1])]
        cycles[session] = [(b - a) / 1e6 for a, b in zip(bounds, bounds[1:])]
    return cycles


def layer_metrics(trace: dict, totals: dict, extra: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    ``totals`` holds pulses, sifted_bits and reconciled_bits of the traced
    sessions; ``extra`` holds cli.import_s, cli.listen_to_connect_s and
    trace.overhead_ratio, which are measured outside the spans.
    ``channel.recv_wait_ms.*`` are percentiles over (party, block) of the
    time that party spent waiting in receives during that block.
    """
    spans = trace["spans"]
    incl: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    incl_party: dict[tuple, int] = defaultdict(int)
    per_block_wait: dict[tuple, int] = defaultdict(int)
    for r in spans:
        d = r[T1] - r[T0]
        incl[r[NAME]] += d
        calls[r[NAME]] += 1
        incl_party[(r[NAME], r[PARTY])] += d
        if r[NAME] == "channel.recv_wait":
            per_block_wait[(r[PARTY], r[SESSION], r[BLOCK])] += d
    selfs = self_times(spans)
    run_block_self = sum(s for r, s in zip(spans, selfs) if r[NAME] == "protocol.run_block")
    waits = [ns / 1e6 for ns in per_block_wait.values()]
    cycles = _block_cycles(spans)
    all_cycles = [c for cs in cycles.values() for c in cs]
    late_over_early = []
    for cs in cycles.values():
        k = max(1, len(cs) // 10)
        late_over_early.append((sum(cs[-k:]) / k) / (sum(cs[:k]) / k))
    counts = trace["counts"]
    hot = trace["hot"]
    gate_calls, gate_ns = hot.get("hardware.gate_detector", [0, 0])
    pulses = totals["pulses"]
    sifted = totals["sifted_bits"]
    blocks = sum(len(cs) for cs in cycles.values())

    def s(name):
        return incl[name] / 1e9

    return {
        "protocol.roundlogs_extend.s": s("protocol.roundlogs_extend"),
        "protocol.block_ms.late_over_early": statistics.median(late_over_early) if late_over_early else 0.0,
        "protocol.block_parities.s": s("protocol.block_parities"),
        "protocol.apply_block_verdicts.s": s("protocol.apply_block_verdicts"),
        "protocol.transmit_block.s": s("protocol.transmit_block"),
        "protocol.transmit_block.ns_per_pulse": _ratio(incl["protocol.transmit_block"], pulses),
        "protocol.generate_bits.s": s("protocol.generate_bits"),
        "protocol.sift.s": s("protocol.sift"),
        "protocol.run_block.alice.s": incl_party[("protocol.run_block", "alice")] / 1e9,
        "protocol.run_block.bob.s": incl_party[("protocol.run_block", "bob")] / 1e9,
        "protocol.self.s": run_block_self / 1e9,
        "protocol.block_ms.p50": _pct(all_cycles, 0.5),
        "protocol.block_ms.p90": _pct(all_cycles, 0.9),
        "protocol.reconciled_key.calls": calls["protocol.reconciled_key"],
        "protocol.reconciled_key.s": s("protocol.reconciled_key"),
        "protocol.blocks": blocks,
        "protocol.pulses": pulses,
        "protocol.sifted_bits": sifted,
        "protocol.disclosed_bits": counts.get("protocol.disclosed_bits", 0),
        "protocol.reconciled_bits": totals["reconciled_bits"],
        "protocol.parity_blocks_dropped": counts.get("protocol.parity_blocks_dropped", 0),
        "protocol.sifted_per_pulse": _ratio(sifted, pulses),
        "protocol.reconciled_per_sifted": _ratio(totals["reconciled_bits"], sifted),
        "hardware.gate_detector.calls": gate_calls,
        "hardware.gate_detector.s": gate_ns / 1e9,
        "hardware.gate_detector.ns_per_call": _ratio(gate_ns, gate_calls),
        "hardware.gates_per_pulse": _ratio(gate_calls, pulses),
        "channel.frames": counts.get("channel.frames", 0),
        "channel.bytes": counts.get("channel.bytes", 0),
        "channel.frames_per_block": _ratio(counts.get("channel.frames", 0), blocks),
        "channel.bytes_per_pulse": _ratio(counts.get("channel.bytes", 0), pulses),
        "channel.encode_frame.s": s("channel.encode_frame"),
        "channel.decode_frame.s": s("channel.decode_frame"),
        "channel.send.s": s("channel.send"),
        "channel.recv_wait.alice.s": incl_party[("channel.recv_wait", "alice")] / 1e9,
        "channel.recv_wait.bob.s": incl_party[("channel.recv_wait", "bob")] / 1e9,
        "channel.recv_wait_ms.p50": _pct(waits, 0.5),
        "channel.recv_wait_ms.p99": _pct(waits, 0.99),
        "otp.pad_from_key.s": s("otp.pad_from_key"),
        "otp.encrypt.s": s("otp.encrypt"),
        "otp.decrypt.s": s("otp.decrypt"),
        "otp.symbols": counts.get("otp.symbols", 0),
        "cli.import_s": extra["cli.import_s"],
        "cli.listen_to_connect_s": extra["cli.listen_to_connect_s"],
        "qstate.calls": hot.get("qstate.calls", [0, 0])[0],
        "photonics.calls": hot.get("photonics.calls", [0, 0])[0],
        "trace.overhead_ratio": extra["trace.overhead_ratio"],
    }
