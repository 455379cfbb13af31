"""The benchmark's hooks into b92sim still find what they wrap.

``bench/tracer.py`` wraps module and class attributes by name, and
``bench/chat_party.py`` wraps ``b92sim.cli`` functions and the engines'
``run``; a rename in ``src/`` breaks them without failing any other test.
The check runs in a subprocess, because installing the tracer rewrites
b92sim's module attributes for the rest of the process.
"""
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = textwrap.dedent("""
    import sys
    sys.path[:0] = [{src!r}, {bench!r}]
    from tracer import Tracer
    from b92sim import cli, protocol
    from b92sim.protocol import SessionConfig, run_session

    tracer = Tracer()
    set_up = set()
    make_span = tracer.span

    def recording_span(fn, name, **kw):
        set_up.add(name)
        return make_span(fn, name, **kw)

    tracer.span = recording_span
    tracer.install()
    channel = tracer.loopback_pair()
    tracer.active = True
    cfg = SessionConfig(seed_alice=1, seed_bob=2, seed_physics=3, bits_per_block=512)
    # with a log, so that RoundLogs.extend, which the tracer wraps, runs
    run_session(cfg, channel=channel, n_blocks=2, logs=protocol.RoundLogs())
    tracer.active = False

    wanted = {{n for n in set_up if n.startswith(("protocol.", "channel."))}}
    exported = {{span[0] for span in tracer.export()["spans"]}}
    assert "protocol.transmit_block" in wanted and "channel.recv_wait" in wanted, wanted
    assert wanted <= exported, sorted(wanted - exported)
    # what bench/chat_party.py wraps
    for attr in ("open_listener", "accept_one", "connect_with_retry"):
        assert callable(getattr(cli, attr)), attr
    for engine in (protocol.AliceEngine, protocol.BobEngine):
        assert callable(engine.run), engine
    print("spans", len(wanted))
""")


def test_tracer_spans_and_chat_hooks_find_their_targets():
    script = SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "bench"))
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=120, cwd=ROOT)
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("spans ")
