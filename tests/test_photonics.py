import math

import numpy as np
import pytest

from b92sim.errors import ConfigError
from b92sim.photonics import (
    InterferometerConfig,
    PhasePair,
    arrival_histogram,
    b92_phase,
    beamsplitter,
    effective_hit_prob,
    mz_detect_prob,
    tm_window_distribution,
)

BIT_PAIRS = [(0, 0), (0, 1), (1, 0), (1, 1)]


def b92_pair(a, b):
    return PhasePair(b92_phase("alice", a), b92_phase("bob", b))


def test_phase_pair_reduced_mod_2pi():
    p = PhasePair(2.5 * math.pi, -0.5 * math.pi)
    assert 0 <= p.phi_a < 2 * math.pi
    assert 0 <= p.phi_b < 2 * math.pi
    assert p.phi_a == pytest.approx(0.5 * math.pi)
    assert p.phi_b == pytest.approx(1.5 * math.pi)


def test_beamsplitter_single_photon_split():
    out1, out2 = beamsplitter(1.0, 0.0, 0.0)
    assert out1 == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert out2 == pytest.approx(1j / math.sqrt(2), abs=1e-15)
    for phi in (0.0, 0.4, 2.0, 5.5):
        o1, o2 = beamsplitter(1.0, 0.0, phi)
        assert abs(o1) ** 2 == pytest.approx(0.5, abs=1e-12)
        assert abs(o2) ** 2 == pytest.approx(0.5, abs=1e-12)


def test_beamsplitter_unitarity_random():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        phi = rng.uniform(0, 2 * math.pi)
        o1, o2 = beamsplitter(v[0], v[1], phi)
        assert abs(o1) ** 2 + abs(o2) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_two_beamsplitters_compose_to_detection_law():
    # sender splits a single photon with phase phi_a on her second
    # output, the receiver adds phi_b to her first output and
    # recombines; the detector-port intensity must follow
    # cos^2((phi_a - phi_b)/2)
    rng = np.random.default_rng(9)
    for _ in range(200):
        phi_a = rng.uniform(0, 2 * math.pi)
        phi_b = rng.uniform(0, 2 * math.pi)
        a1, a2 = beamsplitter(1.0, 0.0, phi_a)
        _, detector = beamsplitter(np.exp(1j * phi_b) * a1, a2, 0.0)
        want = mz_detect_prob(PhasePair(phi_a, phi_b))
        assert abs(detector) ** 2 == pytest.approx(want, abs=1e-12)


def test_b92_phase_table():
    assert b92_phase("alice", 0) == 0.0
    assert b92_phase("alice", 1) == pytest.approx(math.pi / 2)
    assert b92_phase("bob", 0) == pytest.approx(3 * math.pi / 2)
    assert b92_phase("bob", 1) == pytest.approx(math.pi)
    with pytest.raises(ValueError):
        b92_phase("carol", 0)
    with pytest.raises(ValueError):
        b92_phase("alice", 2)


def test_mz_detect_prob_values():
    assert mz_detect_prob(PhasePair(1.3, 1.3)) == pytest.approx(1.0, abs=1e-12)
    assert mz_detect_prob(PhasePair(0, 3 * math.pi / 2)) == pytest.approx(0.5, abs=1e-12)
    assert mz_detect_prob(PhasePair(math.pi / 2, 3 * math.pi / 2)) == pytest.approx(
        0.0, abs=1e-12
    )


def test_mz_reproduces_pass_table():
    for a, b in BIT_PAIRS:
        expected = 0.5 if a == b else 0.0
        assert mz_detect_prob(b92_pair(a, b)) == pytest.approx(expected, abs=1e-12)


def test_window_distribution_lossless_values():
    cfg = InterferometerConfig()
    d = tm_window_distribution(PhasePair(0.7, 0.7), cfg)
    assert d.detector_central == pytest.approx(0.25, abs=1e-12)
    assert d.port3_prompt == pytest.approx(1 / 16, abs=1e-15)
    assert d.port3_delayed == pytest.approx(1 / 16, abs=1e-15)
    assert d.port4_central == pytest.approx(0.0, abs=1e-12)
    assert d.alice_side_exit == pytest.approx(0.5, abs=1e-15)
    d2 = tm_window_distribution(PhasePair(0, 3 * math.pi / 2), cfg)
    assert d2.detector_central == pytest.approx(1 / 8, abs=1e-12)


def test_window_distribution_conserves_probability():
    rng = np.random.default_rng(11)
    cfg = InterferometerConfig()
    for _ in range(1000):
        p = PhasePair(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
        assert tm_window_distribution(p, cfg).total() == pytest.approx(1.0, abs=1e-12)


def test_window_distribution_equals_quarter_of_mz():
    cfg = InterferometerConfig()
    for a, b in BIT_PAIRS:
        pair = b92_pair(a, b)
        central = tm_window_distribution(pair, cfg).detector_central
        assert central == pytest.approx(mz_detect_prob(pair) / 4.0, abs=1e-12)


def test_window_distribution_with_losses():
    cfg = InterferometerConfig(long_path_loss_a=0.3, long_path_loss_b=0.3)
    d = tm_window_distribution(PhasePair(0, 0), cfg)
    assert d.port3_prompt == pytest.approx(1 / 16, abs=1e-15)
    # both long arms attenuated: delayed peak drops by (1-loss)^2
    assert d.port3_delayed == pytest.approx(0.49 / 16, abs=1e-12)
    assert d.total() < 1.0


def test_central_probability_monotone_in_visibility():
    cfg_values = np.linspace(0, 1, 21)
    for delta in (0.0, 0.5, 1.2):  # cos(delta) > 0
        pair = PhasePair(delta, 0.0)
        probs = [
            tm_window_distribution(pair, InterferometerConfig(visibility=v)).detector_central
            for v in cfg_values
        ]
        assert all(b >= a - 1e-15 for a, b in zip(probs, probs[1:]))


def test_effective_hit_prob():
    assert effective_hit_prob(0, 0, 1.0) == pytest.approx(0.125, abs=1e-12)
    assert effective_hit_prob(1, 1, 1.0) == pytest.approx(0.125, abs=1e-12)
    assert effective_hit_prob(0, 1, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert effective_hit_prob(0, 1, 0.995) == pytest.approx(6.25e-4, abs=1e-12)
    assert effective_hit_prob(1, 0, 0.995) == pytest.approx(6.25e-4, abs=1e-12)


def test_interferometer_config_validation():
    with pytest.raises(ConfigError):
        InterferometerConfig(delta_t=100e-12, pulse_width=300e-12)
    with pytest.raises(ConfigError):
        InterferometerConfig(visibility=1.2)
    with pytest.raises(ConfigError):
        InterferometerConfig(long_path_loss_a=-0.1)


def test_arrival_histogram_balanced_phases():
    cfg = InterferometerConfig()
    rng = np.random.default_rng(21)
    hist = arrival_histogram(PhasePair(0, 0), cfg, 100_000, 1.0, rng)
    prompt, central, delayed = hist.peak_masses(cfg.delta_t)
    assert central / prompt == pytest.approx(4.0, rel=0.1)
    assert central / delayed == pytest.approx(4.0, rel=0.1)


def test_arrival_histogram_interference_null():
    cfg = InterferometerConfig()
    rng = np.random.default_rng(22)
    hist = arrival_histogram(PhasePair(math.pi, 0), cfg, 50_000, 1.0, rng)
    prompt, central, delayed = hist.peak_masses(cfg.delta_t)
    assert central < 0.02 * prompt
    assert prompt == pytest.approx(delayed, rel=0.1)


def test_arrival_histogram_loss_asymmetry():
    cfg = InterferometerConfig(long_path_loss_a=0.3, long_path_loss_b=0.3)
    rng = np.random.default_rng(23)
    hist = arrival_histogram(PhasePair(0, 0), cfg, 100_000, 1.0, rng)
    prompt, _, delayed = hist.peak_masses(cfg.delta_t)
    assert delayed < prompt
    assert delayed / prompt == pytest.approx(0.49, rel=0.15)


def test_arrival_histogram_csv(tmp_path):
    cfg = InterferometerConfig()
    rng = np.random.default_rng(24)
    hist = arrival_histogram(PhasePair(0, 0), cfg, 1000, 0.5, rng)
    out = tmp_path / "hist.csv"
    with open(out, "w", newline="") as f:
        hist.write_csv(f)
    lines = out.read_text().splitlines()
    assert lines[0] == "time_bin_seconds,counts"
    assert len(lines) == len(hist.bin_centers) + 1
