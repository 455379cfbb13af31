"""Tests of the benchmark itself, at the tiny sizes.

    python3 -m pytest bench -q
"""
from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import chat
import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "bench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    res = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", trace, "--tiny")
    assert res.returncode == 0, res.stderr
    last = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in last["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in last["metrics"].values())


def test_output_check_rejects_a_flipped_sifted_bit():
    workloads.import_b92sim(ROOT)
    from b92sim import run_session

    wl = workloads.get("ideal_small_blocks", tiny=True)
    cfg = workloads.session_config(wl, workloads.session_seeds(wl.name, 5, 0))
    expected = checks.expected_sifted_fraction(cfg)
    assert expected == pytest.approx(0.25)
    report = run_session(cfg, n_blocks=2)
    assert checks.check_facts(checks.report_facts(report, cfg, 2, expected)) == []

    report.sifted_key_bob[7] ^= 1
    bad = checks.check_facts(checks.report_facts(report, cfg, 2, expected))
    assert bad == ["sifted keys differ in an ideal no-Eve session"]


def test_output_checks_reject_wrong_counts_and_fractions():
    good = {"mode": "physical", "eve": "none", "blocks": 2, "bits_per_block": 1000,
            "n_rounds": 2000, "sifted_bits": 500, "sifted_equal": False, "ber": 0.01,
            "alarm": True, "expected_sifted_fraction": 0.25}
    assert checks.check_facts(good) == []
    assert "n_rounds" in checks.check_facts(dict(good, n_rounds=1999))[0]
    assert "sigma" in checks.check_facts(dict(good, sifted_bits=700))[0]


def _assert_reaped(procs):
    for proc in procs:
        assert proc.returncode is not None
        with pytest.raises(ProcessLookupError):
            os.kill(proc.pid, 0)


def test_chat_reaps_the_sender_when_it_never_listens(tmp_path):
    wl = workloads.get("tcp_chat", tiny=True)
    with pytest.raises(chat.ChatFailure) as info:
        chat.run_session(ROOT, tmp_path, wl, seed=1, index=0, trace=False, timeout=0.05)
    procs = info.value.procs
    assert len(procs) == 1, "only the sender should have been started"
    _assert_reaped(procs)


def test_chat_kills_and_reaps_both_processes_when_a_session_hangs(tmp_path, monkeypatch):
    """The receiver is started but never connects, so the listening
    sender waits past the session's deadline; both are still running
    then and must be killed and reaped."""
    launched = []
    real_launch = chat._launch

    def launch(root, record, trace, index, cli_args):
        if "bob" in cli_args:
            proc = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(120)"],
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        else:
            proc = real_launch(root, record, trace, index, cli_args)
        launched.append(proc)
        return proc

    monkeypatch.setattr(chat, "_launch", launch)
    wl = workloads.get("tcp_chat", tiny=True)
    with pytest.raises(chat.ChatFailure, match="did not finish") as info:
        chat.run_session(ROOT, tmp_path, wl, seed=1, index=0, trace=False, timeout=8.0)
    procs = info.value.procs
    assert procs == launched and len(procs) == 2
    assert [p.returncode for p in procs] == [-signal.SIGKILL] * 2
    _assert_reaped(procs)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    res = _run(tmp_path, "--workload", "ideal_large_block", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert res.returncode != 0
    assert '"correct"' not in res.stdout


def test_self_time_subtracts_children_and_aggregated_calls():
    spans = [
        ["outer", "alice", 0, 0, 0, 100, -1, 0],
        ["inner", "alice", 0, 0, 10, 40, 0, 5],
        ["leaf", "alice", 0, 0, 50, 60, 0, 0],
    ]
    assert tracer.self_times(spans) == [60, 25, 10]


def test_rates_skip_the_warm_up_session_and_scale_by_the_host_speed():
    import run

    warm_up = {"index": 0, "pulses": 100, "seconds": 5.0, "reconciled_bits": 10,
               "speed_factor": 1.0}
    timed = [dict(warm_up, index=i, seconds=1.0) for i in (1, 2)]
    assert run.rates([warm_up, *timed]) == (100.0, 100.0 * 30 / 300)
    slow = [dict(s, seconds=2.0, speed_factor=0.5) for s in timed]
    assert run.rates([warm_up, *slow]) == (100.0, 100.0 * 30 / 300)
    assert run.rates([warm_up]) == (20.0, 2.0)
