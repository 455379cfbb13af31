"""Rewrite reference_digests.json from the current sources.

    python3 bench/make_reference.py

For every workload and every seed in SEEDS (0 to 23), runs one
full-size session (``run.py --seconds 0``) and stores the sha256 of
session 0's reconciled key. ``run.py`` compares later runs
with this file and reports "RNG stream moved" when a digest differs.
Regenerate it only in a change that states the move in CHANGES.md.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
# the seeds that run.py looks up in reference_digests.json
SEEDS = range(24)


def main() -> int:
    refs: dict[str, dict[str, str]] = {}
    for name in workloads.NAMES:
        refs[name] = {}
        for seed in SEEDS:
            res = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", "0", "--trace", "0"],
                cwd=HERE.parent, capture_output=True, text=True, check=True)
            det = next(ln for ln in res.stdout.splitlines() if ln.startswith("determinism: "))
            refs[name][str(seed)] = json.loads(det.split(": ", 1)[1])["digest_session0"]
            print(name, seed, refs[name][str(seed)], flush=True)
    (HERE / "reference_digests.json").write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
