"""Session 0 of the benchmark's workloads still yields the committed keys.

``bench/reference_digests.json`` holds the sha256 of session 0's
reconciled key for each workload and seed; a benchmark run reports
"RNG stream moved" when one differs. This test checks the in-process
workloads' digests without a benchmark run. ``bench/workloads.py`` and
``bench/checks.py`` are loaded by path, so ``bench/`` stays off
``sys.path``.
"""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from b92sim.protocol import run_session

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
checks = _load("checks")
REFERENCE = json.loads((BENCH / "reference_digests.json").read_text())

CASES = [("physical_afterpulse", seed) for seed in range(24)] + [
    (name, seed) for name in ("ideal_small_blocks", "ideal_large_block") for seed in (0, 1)
]


@pytest.mark.parametrize("name, seed", CASES, ids=[f"{n}-{s}" for n, s in CASES])
def test_session0_key_equals_the_reference_digest(name, seed):
    wl = workloads.get(name)
    cfg = workloads.session_config(wl, workloads.session_seeds(name, seed, 0))
    report = run_session(cfg, n_blocks=wl.blocks)
    assert checks.key_digest(report.reconciled_key) == REFERENCE[name][str(seed)]
