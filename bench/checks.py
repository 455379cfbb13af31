"""Output checks for one session, on plain facts.

``check_facts`` is pure Python so the orchestrator can judge a chat
session from the two parties' records; ``report_facts`` and
``expected_sifted_fraction`` turn b92sim objects into those facts and
import numpy and b92sim only when called.
"""
from __future__ import annotations

import hashlib
import math

# Each session is checked on its own, and one evaluation of the benchmark
# checks a few thousand sessions. At 4 sigma the binomial upper tail of
# the Physical workload's 329 expected hits is 4.9e-5 per session, enough
# to fail about one evaluation of a correct program in ten; at 5 sigma it
# is 7.2e-7.
SIGMAS = 5.0


def key_digest(key) -> str:
    """sha256 over the bit count and the packed bits of a key."""
    import numpy as np

    arr = np.asarray(key, dtype=np.uint8)
    h = hashlib.sha256(len(arr).to_bytes(8, "big"))
    h.update(np.packbits(arr).tobytes())
    return h.hexdigest()


def expected_sifted_fraction(cfg) -> float:
    """Analytic hit probability per pulse of a no-Eve session.

    Ideal mode: the Born-rule pass probabilities of the four bit pairs,
    averaged (1/4). Physical mode, per bit pair: the central-window
    probability (1/8)(1 + V(2q - 1)), Poisson photons thinned by the
    fiber, detector efficiency, and the dark count in the same gate:
    1 - exp(-mu T p_window eta) (1 - p_dark). Afterpulses are left out:
    their hazard one gate after an avalanche is p0 exp(-1/(rate tau)),
    about 1e-16 for the benchmark's profile.
    """
    from b92sim import protocol
    from b92sim.hardware import dark_probability, fiber_transmission
    from b92sim.qstate import pass_probability

    q = [
        pass_probability(protocol.alice_prepare(a), protocol.bob_projector(b))
        for a in (0, 1) for b in (0, 1)
    ]
    if cfg.mode is protocol.Mode.IDEAL:
        return sum(q) / 4.0
    hw = cfg.hardware
    src, det = hw.source, hw.detector
    t = fiber_transmission(hw.fiber)
    p_dark = dark_probability(det)
    total = 0.0
    for qi in q:
        p_window = 0.125 * (1.0 + hw.interferometer.visibility * (2.0 * qi - 1.0))
        x = p_window * det.efficiency
        if src.ideal_single_photon:
            no_signal = 1.0 - t * x
        else:
            no_signal = math.exp(-src.mean_photons * t * x)
        total += 1.0 - no_signal * (1.0 - p_dark)
    return total / 4.0


def report_facts(report, cfg, n_blocks: int, expected_fraction: float) -> dict:
    """Facts of an in-process session from its SessionReport."""
    import numpy as np

    return {
        "mode": cfg.mode.value,
        "eve": cfg.eve.value,
        "blocks": n_blocks,
        "bits_per_block": cfg.bits_per_block,
        "n_rounds": int(report.n_rounds),
        "sifted_bits": int(len(report.sifted_key_alice)),
        "sifted_equal": bool(np.array_equal(report.sifted_key_alice, report.sifted_key_bob)),
        "ber": float(report.ber_estimate),
        "alarm": bool(report.alarm),
        "reconciled_bits": int(len(report.reconciled_key)),
        "expected_sifted_fraction": expected_fraction,
        "digest": key_digest(report.reconciled_key),
    }


def check_facts(f: dict) -> list[str]:
    """Every failed output check of one session, as messages."""
    bad = []
    if f["n_rounds"] != f["blocks"] * f["bits_per_block"]:
        bad.append(f"n_rounds {f['n_rounds']} != {f['blocks']} blocks x {f['bits_per_block']} bits")
    if f["mode"] == "ideal" and f["eve"] == "none":
        if not f["sifted_equal"]:
            bad.append("sifted keys differ in an ideal no-Eve session")
        if f["ber"] != 0.0:
            bad.append(f"ber {f['ber']} != 0 in an ideal no-Eve session")
        if f["alarm"]:
            bad.append("alarm raised in an ideal no-Eve session")
    n = f["n_rounds"]
    p = f["expected_sifted_fraction"]
    if n > 0:
        sigma = math.sqrt(p * (1.0 - p) / n)
        got = f["sifted_bits"] / n
        if abs(got - p) > SIGMAS * sigma:
            bad.append(f"sifted fraction {got:.6g} is more than {SIGMAS:g} sigma "
                       f"from the expected {p:.6g} (sigma {sigma:.3g})")
    return bad
