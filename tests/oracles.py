"""Scalar references that the tests hold the vectorized engines to.

``PhysicsKernel`` draws a whole block at once; each function here takes
one pulse, one gate or one state at a time, on the same random stream
where a test compares draws. Each writes its law out rather than
calling the kernel's helpers, so a test that compares the two checks
the kernel independently.
"""
import math

import numpy as np

from b92sim.errors import ConfigError
from b92sim.hardware import DetectorParams, DetectorState, SourceParams
from b92sim.photonics import b92_phase
from b92sim.protocol import EveStrategy
from b92sim.qstate import ATOL, P_UP, StateVector, inner, measure


def sample_photon_count(src: SourceParams, rng: np.random.Generator) -> int:
    """Photons in one pulse: Poisson(mean) or exactly 1 for an ideal source."""
    if src.ideal_single_photon:
        return 1
    return int(rng.poisson(src.mean_photons))


def thin_photons(n: int, transmission: float, rng: np.random.Generator) -> int:
    """Binomial survival of n photons through a lossy element."""
    if not 0.0 <= transmission <= 1.0:
        raise ConfigError(f"transmission must lie in [0, 1], got {transmission}")
    if n == 0:
        return 0
    return int(rng.binomial(n, transmission))


def afterpulse_probability(d: DetectorParams, st: DetectorState, now: float) -> float:
    """Afterpulse hazard at gate time ``now``: p0 * charge * exp(-(now - last) / tau),
    0 for an empty trap or a detector without memory (tau = 0)."""
    if st.trap_charge == 0.0 or d.afterpulse_tau <= 0.0:
        return 0.0
    decay = math.exp(-(now - st.last_avalanche_time) / d.afterpulse_tau)
    return d.afterpulse_prob0 * st.trap_charge * decay


def effective_hit_prob(alice_bit: int, bob_bit: int, visibility: float) -> float:
    """Detector central-window probability for a bit pair of two lossless
    interferometers: (1/8)(1 + V cos(phi_a - phi_b)) at the parties' phase
    settings, so 1/8 when the bits agree and (1/8)(1 - V) when they differ."""
    delta = b92_phase("alice", alice_bit) - b92_phase("bob", bob_bit)
    return (1.0 + visibility * math.cos(delta)) / 8.0


def eve_intercept(
    state: StateVector, strategy: EveStrategy, rng: np.random.Generator
) -> tuple[int | None, StateVector]:
    """Apply the eavesdropper to one logical signal.

    FIXED_PROJECTION measures P(up): a pass is recorded as a guess of
    0 and forwards the up state, a fail as 1 and forwards down. The
    sender's 0-state always passes and the 1-state passes half the
    time, so a 1-guess (1/4 of fair bits) is always right, a 0-guess
    is right with probability (1/2)/(3/4) = 2/3, and the guess matches
    the sent bit 3/4 of the time. Downstream the receiver sifts 3/8
    of the pulses with error rate 1/3 and 2/3 zeros (see EveStrategy).
    """
    if strategy is EveStrategy.NONE:
        return None, state
    passed, collapsed = measure(state, P_UP, rng)
    return (0 if passed else 1), collapsed


def states_equal(a: StateVector, b: StateVector, atol: float = ATOL) -> bool:
    """Equality up to an unobservable global phase: |<a|b>| = 1."""
    return abs(abs(inner(a, b)) - 1.0) <= atol
