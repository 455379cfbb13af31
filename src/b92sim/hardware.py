"""Stochastic models of the physical layer.

Attenuated-laser source with Poisson photon statistics, fiber loss as
per-photon binomial thinning, and a gated Geiger-mode avalanche
photodiode with dark counts and an exponentially decaying afterpulse
hazard fed by trapped avalanche charge.

The detector is modelled one gate at a time (``gate_detector``) and one
run of gates at a time (``gate_block``), on a single step rule. The run
is event-driven: gates that hit whatever the trap holds are found for
the whole run at once, and only the gates whose verdict the trap's
hazard can still change are stepped one by one, so a run costs about
as much as its hits. A run takes the signal hazards of its lit gates
only, those a photon reaches; every other gate's trap-free verdict is
one compare against the dark-count threshold.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import ConfigError, ModelValidityError
from .photonics import InterferometerConfig


# numpy's Poisson sampler refuses a mean above int64's maximum less ten
# times its square root (about 9.2e18); a round bound below that
MAX_MEAN_PHOTONS = 1e18


@dataclass(frozen=True)
class SourceParams:
    """Pulsed light source. mean_photons is the Poisson mean per pulse;
    with ideal_single_photon every pulse carries exactly one photon."""

    mean_photons: float = 0.1
    pulse_rate: float = 10e3
    ideal_single_photon: bool = False

    def __post_init__(self):
        # chained comparisons are False for NaN, so these reject it too
        if not 0 <= self.mean_photons <= MAX_MEAN_PHOTONS:
            raise ConfigError(f"mean_photons must be finite and >= 0, at most "
                              f"{MAX_MEAN_PHOTONS:g}, got {self.mean_photons}")
        if not 0 < self.pulse_rate < math.inf:
            raise ConfigError(f"pulse_rate must be finite and positive, got {self.pulse_rate}")


@dataclass(frozen=True)
class FiberParams:
    length_km: float = 0.0
    attenuation_db_per_km: float = 0.3

    def __post_init__(self):
        for name in ("length_km", "attenuation_db_per_km"):
            v = getattr(self, name)
            if not 0 <= v < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class DetectorParams:
    """Gated single-photon detector.

    afterpulse_prob0 is the hazard immediately after an avalanche;
    it decays with time constant afterpulse_tau. max_gate_rate is the
    ceiling above which afterpulsing makes operation pointless.
    """

    efficiency: float = 0.2
    dark_rate: float = 50e3
    gate_window: float = 100e-12
    afterpulse_prob0: float = 0.0
    afterpulse_tau: float = 3e-6
    max_gate_rate: float = 100e3

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ConfigError("efficiency must lie in [0, 1]")
        if not 0.0 <= self.afterpulse_prob0 <= 1.0:
            raise ConfigError("afterpulse_prob0 must lie in [0, 1]")
        for name in ("dark_rate", "gate_window", "afterpulse_tau", "max_gate_rate"):
            v = getattr(self, name)
            if not 0 <= v < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class DetectorState:
    """Trapped-charge bookkeeping between gates.

    trap_charge is the residual charge as of ``last_avalanche_time``;
    it resets to 1 on every avalanche and decays exponentially between
    them, so the afterpulse hazard falls monotonically until the next
    hit.
    """

    trap_charge: float = 0.0
    last_avalanche_time: float = 0.0


@dataclass(frozen=True)
class HardwareProfile:
    """One bundle of everything the physical layer needs."""

    source: SourceParams = field(default_factory=SourceParams)
    fiber: FiberParams = field(default_factory=FiberParams)
    detector: DetectorParams = field(default_factory=DetectorParams)
    interferometer: InterferometerConfig = field(default_factory=InterferometerConfig)


def fiber_transmission(f: FiberParams) -> float:
    """Power transmission 10^(-attenuation * length / 10)."""
    return 10.0 ** (-f.attenuation_db_per_km * f.length_km / 10.0)


def dark_probability(d: DetectorParams) -> float:
    """Chance of a dark count within one gate window: rate * window.

    Only valid while the product is small; otherwise the linear model
    (no Poisson saturation, no dead time) no longer applies.
    """
    p = d.dark_rate * d.gate_window
    if p >= 0.1:
        raise ModelValidityError(
            f"dark_rate * gate_window = {p:.3g}; linear dark-count model "
            "requires the product to be well below 1"
        )
    return p


def _trap_decay(d: DetectorParams, charge: float, last: float, now: float) -> float:
    """Factor by which the trapped charge has decayed between ``last`` and
    ``now``; 0 for an empty trap or a detector without memory (tau = 0)."""
    if charge == 0.0 or d.afterpulse_tau <= 0.0:
        return 0.0
    return math.exp(-(now - last) / d.afterpulse_tau)


def _gate_step(
    p_signal: float, p_dark: float, d: DetectorParams,
    charge: float, last: float, now: float, u: float,
) -> tuple[bool, float, float]:
    """One gate at time ``now`` on the trap's (charge, clock), decided by
    the uniform draw ``u``; returns (hit, charge, clock) after the gate.

    The three hazards (signal, dark count, afterpulse) are physically
    independent, so the hit probability is 1 - product of their
    complements. A hit refills the trap and restarts the decay clock; a
    miss folds the elapsed decay into the stored charge, and an empty
    trap stays as it is.
    """
    decay = _trap_decay(d, charge, last, now)
    p_after = d.afterpulse_prob0 * charge * decay
    if u < 1.0 - (1.0 - p_signal) * (1.0 - p_dark) * (1.0 - p_after):
        return True, 1.0, now
    if charge == 0.0:
        return False, charge, last
    return False, charge * decay, now


def gate_detector(
    photon_arrives: bool,
    optical_prob: float,
    d: DetectorParams,
    st: DetectorState,
    now: float,
    rng: np.random.Generator,
) -> tuple[bool, DetectorState]:
    """One gated exposure of the detector; the signal hazard is
    optical_prob * efficiency when a photon arrives (see ``_gate_step``).
    A scalar reference that no session runs: the tests hold ``PhysicsKernel`` to
    one call a pulse. It stays out of tests/oracles.py while bench/tracer.py wraps it."""
    if now < st.last_avalanche_time:
        raise ValueError("gate time precedes the detector state's clock")
    p_signal = optical_prob * d.efficiency if photon_arrives else 0.0
    hit, charge, last = _gate_step(
        p_signal, dark_probability(d), d, st.trap_charge, st.last_avalanche_time, now,
        rng.random(),
    )
    return hit, DetectorState(trap_charge=charge, last_avalanche_time=last)


def gate_block(
    n: int, lit: np.ndarray, p_signal: np.ndarray,
    d: DetectorParams, st: DetectorState, dt: float, rng: np.random.Generator,
) -> tuple[np.ndarray, DetectorState]:
    """A run of ``n`` gates at times ``base + (i+1)*dt``, where ``base``
    is the clock of the incoming state ``st``. ``lit`` holds the sorted
    indices of the gates a photon reaches and ``p_signal`` their signal
    hazards; every other gate's signal hazard is 0.

    Every Physical block of ``PhysicsKernel`` takes this path. One
    ``rng.random(n)`` gives the doubles that n scalar draws would. A
    gate whose draw lies below 1 - (1 - p_signal)(1 - p_dark) hits
    whatever the trap holds, and while the trap is empty nothing else
    can hit, so those hits are marked for the whole run at once: one
    compare against the threshold at p_signal = 0 for every gate, then
    the lit gates again with their own hazards. Without afterpulsing
    (``afterpulse_prob0 == 0``) the trap can add no hit, so these are
    the run's hits and the state is returned as it came.

    With afterpulsing, the hits, final state and random draws are
    those of one ``gate_detector`` call per gate, but event-driven:
    from the incoming state and from each avalanche, gates are stepped
    one by one only while the afterpulse hazard p_after still moves
    1 - p_after off 1.0 in floating point, for the gate itself or, as
    a bound, for any later gate before the next hit (the charge a miss
    leaves times afterpulse_prob0). From there on each verdict is the
    trap-free one, so the walk jumps to the next trap-free hit: at
    10 kHz and tau = 3 us that is one stepped gate a hit. After the
    last hit, the remaining gates, all misses, are stepped on their
    draws until the charge is 0 or the run ends (about 22 gates at
    10 kHz and tau = 3 us), which gives the exact final state.
    """
    p_dark = dark_probability(d)
    u = rng.random(n)
    # 1 - (1 - 0)(1 - p_dark), the double the law gives at p_signal = 0
    hits = u < 1.0 - (1.0 - p_dark)
    hits[lit] = u[lit] < 1.0 - (1.0 - p_signal) * (1.0 - p_dark)
    hits = hits.view(np.uint8)
    if d.afterpulse_prob0 == 0.0:
        return hits, st
    trap_free_hits = np.flatnonzero(hits).tolist()
    base = st.last_avalanche_time
    charge, last = st.trap_charge, base
    p0 = d.afterpulse_prob0

    def step(i: int) -> None:
        # one gate on the trap, with its signal hazard looked up in the lit arrays
        nonlocal charge, last
        j = int(lit.searchsorted(i))
        p = float(p_signal[j]) if j < len(lit) and lit[j] == i else 0.0
        hits[i], charge, last = _gate_step(
            p, p_dark, d, charge, last, base + (i + 1) * dt, float(u[i])
        )

    i = 0
    while i < n:
        decay = _trap_decay(d, charge, last, base + (i + 1) * dt)
        # this gate's hazard, and the charge a miss leaves, which
        # bounds the hazard of every later gate up to the next hit
        if 1.0 - p0 * charge * decay == 1.0 and 1.0 - p0 * (charge * decay) == 1.0:
            j = bisect.bisect_left(trap_free_hits, i)
            if j < len(trap_free_hits):
                i = trap_free_hits[j]
                charge, last = 1.0, base + (i + 1) * dt
                i += 1
                continue
            # no hit is left in the run: stepping its misses decays the trap
            if charge == 0.0:
                break
        step(i)
        i += 1
    return hits, DetectorState(trap_charge=charge, last_avalanche_time=last)


# parameter group of each profile field
_PROFILE_KEYS = {
    f.name: group
    for group, cls in (
        ("source", SourceParams),
        ("fiber", FiberParams),
        ("detector", DetectorParams),
        ("interferometer", InterferometerConfig),
    )
    for f in fields(cls)
}


def with_fields(hw: HardwareProfile, **values) -> HardwareProfile:
    """``hw`` with the named fields of its parameter groups replaced.

    Each touched group is rebuilt once, in the order source, fiber,
    detector, interferometer, so its checks run on the merged values.
    """
    groups: dict[str, dict] = {g: {} for g in dict.fromkeys(_PROFILE_KEYS.values())}
    for key, value in values.items():
        if key not in _PROFILE_KEYS:
            raise ConfigError(f"unknown profile key {key!r}")
        groups[_PROFILE_KEYS[key]][key] = value
    return replace(hw, **{g: replace(getattr(hw, g), **kv) for g, kv in groups.items() if kv})


_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}


def _parse_value(key: str, raw: str):
    if key == "ideal_single_photon":
        word = raw.strip().lower()
        if word in _TRUE_WORDS:
            return True
        if word in _FALSE_WORDS:
            return False
        raise ConfigError(f"cannot parse boolean {key}={raw!r}")
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key}={raw!r} as a number") from exc


def load_profile(path) -> HardwareProfile:
    """Read a flat key=value profile file of UTF-8 text.

    Keys are the field names of the four parameter groups (units as
    declared there); '#' starts a comment; an unknown key, or one set
    twice, is an error.
    """
    values, seen = {}, {}
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    for lineno, line in enumerate(text.split("\n"), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _PROFILE_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown profile key {key!r}")
        if key in seen:
            raise ConfigError(
                f"{path}:{lineno}: profile key {key!r} is set again (first on line {seen[key]})"
            )
        seen[key] = lineno
        values[key] = _parse_value(key, raw)
    return with_fields(HardwareProfile(), **values)
