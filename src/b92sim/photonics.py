"""Interferometric layer of the B92 link.

Covers the lossless beamsplitter relation, the phase settings each
party applies for its bit values, the simple Mach-Zehnder detection
law, and the time-multiplexed double-interferometer geometry that
puts both interfering paths on one fiber. In that geometry a photon
can reach either of the receiver's output ports in three arrival
windows (prompt = short-short, central = short-long + long-short,
delayed = long-long), and only the central window interferes.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PhasePair:
    """Sender/receiver modulator phases, stored reduced into [0, 2pi)."""

    phi_a: float
    phi_b: float

    def __post_init__(self):
        for name in ("phi_a", "phi_b"):
            phi = float(getattr(self, name))
            if not math.isfinite(phi):
                raise ConfigError(f"{name} must be finite, got {phi}")
            object.__setattr__(self, name, phi % TWO_PI)

    @property
    def delta(self) -> float:
        return self.phi_a - self.phi_b


@dataclass(frozen=True)
class InterferometerConfig:
    """Geometry and imperfections of the two matched interferometers.

    delta_t is the long/short path time difference; it must exceed the
    pulse width so the three arrival windows do not overlap. Losses
    apply to the long arm of each interferometer (where the modulators
    sit) as intensity fractions in [0, 1].
    """

    delta_t: float = 8.5e-9
    visibility: float = 1.0
    long_path_loss_a: float = 0.0
    long_path_loss_b: float = 0.0
    pulse_width: float = 300e-12

    def __post_init__(self):
        # chained comparisons are False for NaN, so these reject it too
        if not 0 < self.pulse_width < math.inf:
            raise ConfigError(f"pulse_width must be finite and positive, got {self.pulse_width}")
        if not self.pulse_width < self.delta_t < math.inf:
            raise ConfigError(
                f"delta_t must be finite and exceed pulse_width (windows overlap), "
                f"got {self.delta_t}"
            )
        for name in ("visibility", "long_path_loss_a", "long_path_loss_b"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {v}")


@dataclass(frozen=True)
class WindowDistribution:
    """Arrival probabilities per (output port, time window).

    Port 3 carries the detector; port 4 is the complementary output.
    ``alice_side_exit`` is the probability the photon left through the
    sender's unused output port and never reached the receiver.
    In the lossless case everything sums to 1; with long-arm losses
    the deficit is the light absorbed in the modulators.
    """

    port3_prompt: float
    port3_central: float
    port3_delayed: float
    port4_prompt: float
    port4_central: float
    port4_delayed: float
    alice_side_exit: float

    @property
    def detector_central(self) -> float:
        return self.port3_central

    def total(self) -> float:
        return (
            self.port3_prompt + self.port3_central + self.port3_delayed
            + self.port4_prompt + self.port4_central + self.port4_delayed
            + self.alice_side_exit
        )


def beamsplitter(amp1: complex, amp2: complex, phi: float = 0.0) -> tuple[complex, complex]:
    """Lossless 50/50 beamsplitter with an adjustable phase on output 2.

    out1 = (amp1 + i*amp2)/sqrt(2); out2 = e^{i*phi} (amp2 + i*amp1)/sqrt(2).
    The i factors are the reflection phase; the map is unitary.
    """
    s = 1.0 / math.sqrt(2.0)
    out1 = s * (amp1 + 1j * amp2)
    out2 = s * np.exp(1j * phi) * (amp2 + 1j * amp1)
    return complex(out1), complex(out2)


_ALICE_PHASES = (0.0, math.pi / 2.0)
_BOB_PHASES = (3.0 * math.pi / 2.0, math.pi)


def b92_phase(party: str, bit: int) -> float:
    """Modulator phase a party applies for a bit value.

    Alice uses 0 / pi/2 for her 0 / 1; Bob uses 3pi/2 / pi for his.
    """
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    if party == "alice":
        return _ALICE_PHASES[bit]
    if party == "bob":
        return _BOB_PHASES[bit]
    raise ValueError(f"party must be 'alice' or 'bob', got {party!r}")


def mz_detect_prob(phases: PhasePair) -> float:
    """Detection probability of the simple two-beamsplitter chain:
    cos^2((phi_a - phi_b)/2)."""
    return math.cos(phases.delta / 2.0) ** 2


def central_window(cfg: InterferometerConfig, cos_delta):
    """Detector-port central-window probability at fringe phase delta:
    (1/16)(ta^2 + tb^2 + 2 V ta tb cos(delta)).

    The short-long and long-short paths each pass four couplers, with
    amplitude transmissions ta = sqrt(1 - long_path_loss_a) and
    tb = sqrt(1 - long_path_loss_b) in the long arms, and interfere with
    contrast V = ``visibility``. ``cos_delta`` is a float or an array;
    the complementary port has the same law at -cos(delta).
    """
    ta = math.sqrt(1.0 - cfg.long_path_loss_a)
    tb = math.sqrt(1.0 - cfg.long_path_loss_b)
    return (ta * ta + tb * tb + 2.0 * cfg.visibility * ta * tb * cos_delta) / 16.0


def tm_window_distribution(phases: PhasePair, cfg: InterferometerConfig) -> WindowDistribution:
    """Window probabilities of the time-multiplexed interferometer pair.

    Each specific path passes four couplers, so each non-interfering
    path lands with intensity 1/16, scaled by (1 - loss) for each long
    arm it traversed; the central window interferes (``central_window``).
    """
    ta = math.sqrt(1.0 - cfg.long_path_loss_a)
    tb = math.sqrt(1.0 - cfg.long_path_loss_b)
    c = math.cos(phases.delta)
    base = 1.0 / 16.0
    return WindowDistribution(
        port3_prompt=base,
        port3_central=central_window(cfg, c),
        port3_delayed=base * ta * ta * tb * tb,
        port4_prompt=base,
        port4_central=central_window(cfg, -c),
        port4_delayed=base * ta * ta * tb * tb,
        alice_side_exit=0.25 * (1.0 + ta * ta),
    )


# Size bounds of ``arrival_histogram``, checked before it allocates:
# about 33 bytes a bin (edges, centers, counts), so 10**6 bins take about
# 33 MB; about 7 bytes an expected photon (the arrival times of the photons
# that reach the detector windows), so 10**7 expected photons take about 70 MB.
MAX_HISTOGRAM_BINS = 10**6
MAX_EXPECTED_PHOTONS = 10**7


@dataclass(frozen=True)
class ArrivalHistogram:
    """Binned time-of-arrival counts at the detector port."""

    bin_centers: np.ndarray
    counts: np.ndarray

    def peak_masses(self, delta_t: float) -> tuple[int, int, int]:
        """Counts within +-delta_t/2 of each window center (0, dt, 2dt)."""
        masses = []
        for center in (0.0, delta_t, 2.0 * delta_t):
            sel = np.abs(self.bin_centers - center) < delta_t / 2.0
            masses.append(int(self.counts[sel].sum()))
        return tuple(masses)

    def write_csv(self, out) -> None:
        """Write the counts as CSV to ``out``, an open text stream."""
        w = csv.writer(out)
        w.writerow(["time_bin_seconds", "counts"])
        for t, c in zip(self.bin_centers, self.counts):
            w.writerow([f"{t:.12e}", int(c)])


def arrival_histogram(
    phases: PhasePair,
    cfg: InterferometerConfig,
    n_pulses: int,
    mean_photons: float,
    rng: np.random.Generator,
    bin_width: float | None = None,
) -> ArrivalHistogram:
    """Monte Carlo time-of-arrival spectrum at the detector port.

    Photons per pulse are Poisson(mean_photons); each photon lands in
    the prompt/central/delayed window with the distribution's port-3
    probabilities (or is lost), jittered by a Gaussian whose FWHM is
    the pulse width.
    """
    if n_pulses <= 0:
        raise ConfigError("n_pulses must be positive")
    if bin_width is None:
        bin_width = cfg.pulse_width / 4.0
    # chained comparisons are False for NaN, so these reject it too
    if not 0 <= mean_photons < math.inf:
        raise ConfigError(f"mean_photons must be finite and >= 0, got {mean_photons}")
    if not 0 < bin_width < math.inf:
        raise ConfigError(f"bin_width must be finite and positive, got {bin_width}")
    sigma = cfg.pulse_width / 2.355  # FWHM -> Gaussian sigma
    lo = -4.0 * sigma
    hi = 2.0 * cfg.delta_t + 4.0 * sigma
    n_bins = (hi - lo) / bin_width
    if n_bins > MAX_HISTOGRAM_BINS:
        raise ConfigError(f"{n_bins:.4g} bins exceed the limit of {MAX_HISTOGRAM_BINS}; "
                          f"widen the bins or shorten delta_t")
    expected = mean_photons * n_pulses
    if expected > MAX_EXPECTED_PHOTONS:
        raise ConfigError(f"{expected:.4g} expected photons exceed the limit of "
                          f"{MAX_EXPECTED_PHOTONS}; lower the pulses or mean_photons")
    dist = tm_window_distribution(phases, cfg)
    probs = np.array([dist.port3_prompt, dist.port3_central, dist.port3_delayed])
    lost = 1.0 - probs.sum()
    n_photons = int(rng.poisson(mean_photons * n_pulses))
    window_counts = rng.multinomial(n_photons, np.append(probs, lost))[:3]
    centers = np.array([0.0, cfg.delta_t, 2.0 * cfg.delta_t])
    times = np.concatenate([
        c + rng.normal(0.0, sigma, size=k) for c, k in zip(centers, window_counts)
    ])
    edges = np.arange(lo, hi + bin_width, bin_width)
    counts, edges = np.histogram(times, bins=edges)
    return ArrivalHistogram(bin_centers=(edges[:-1] + edges[1:]) / 2.0, counts=counts)
