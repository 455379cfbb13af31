import math
import re

import numpy as np
import pytest
from scipy import stats

from b92sim.errors import ConfigError, ModelValidityError
from b92sim.hardware import (
    MAX_MEAN_PHOTONS,
    DetectorParams,
    DetectorState,
    FiberParams,
    HardwareProfile,
    SourceParams,
    dark_probability,
    fiber_transmission,
    gate_block,
    gate_detector,
    load_profile,
    with_fields,
)

from oracles import afterpulse_probability, sample_photon_count, thin_photons


def test_empty_source():
    rng = np.random.default_rng(0)
    src = SourceParams(mean_photons=0.0)
    assert all(sample_photon_count(src, rng) == 0 for _ in range(100))


def test_ideal_source_always_one():
    rng = np.random.default_rng(0)
    src = SourceParams(mean_photons=0.3, ideal_single_photon=True)
    assert all(sample_photon_count(src, rng) == 1 for _ in range(100))


def test_attenuated_source_poisson_pmf():
    rng = np.random.default_rng(12)
    mu = 0.1
    counts = rng.poisson(mu, size=1_000_000)
    p0 = np.mean(counts == 0)
    p1 = np.mean(counts == 1)
    p2 = np.mean(counts >= 2)
    assert p0 == pytest.approx(math.exp(-mu), abs=0.002)          # ~90% empty
    assert p1 == pytest.approx(mu * math.exp(-mu), abs=0.002)     # ~9% single
    assert p2 == pytest.approx(1 - (1 + mu) * math.exp(-mu), abs=0.002)
    assert p2 < 0.01                                              # <1% multi-photon


def test_fiber_transmission():
    assert fiber_transmission(FiberParams(length_km=0.0)) == 1.0
    t1 = fiber_transmission(FiberParams(length_km=10.0, attenuation_db_per_km=0.3))
    t2 = fiber_transmission(FiberParams(length_km=1.0, attenuation_db_per_km=3.0))
    assert t1 == pytest.approx(10 ** -0.3, abs=1e-15)
    assert t1 == pytest.approx(0.5012, abs=1e-4)
    assert t1 == t2


def test_thin_photons_limits():
    rng = np.random.default_rng(1)
    for n in (0, 1, 5, 100):
        assert thin_photons(n, 1.0, rng) == n
        assert thin_photons(n, 0.0, rng) == 0
    with pytest.raises(ConfigError):
        thin_photons(5, 1.5, rng)


def test_thin_photons_survival_rate():
    rng = np.random.default_rng(2)
    survived = sum(thin_photons(1, 0.5, rng) for _ in range(100_000))
    assert survived / 100_000 == pytest.approx(0.5, abs=0.01)


def test_thin_never_creates_photons():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        n = int(rng.integers(0, 20))
        assert thin_photons(n, float(rng.uniform(0, 1)), rng) <= n


def test_binomial_draws_nothing_for_an_empty_pulse():
    # the premise of thinning only the non-empty pulses: numpy's
    # binomial returns 0 for n = 0 without consuming a draw
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    assert rng.binomial(0, 0.3) == 0
    assert not rng.binomial(np.zeros(1000, dtype=np.int64), 0.7).any()
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 0.7, 1.0])
def test_thinning_the_non_empty_pulses_equals_thinning_every_pulse(p):
    # scattered back, the sparse draw has the dense draw's values and
    # leaves the stream where the dense draw does, on counts with zeros
    # and on both sides of numpy's n*min(p, 1-p) = 30 switch from
    # inversion to BTPE
    gen = np.random.default_rng(4)
    counts = np.where(gen.random(5000) < 0.6, 0, gen.integers(1, 400, 5000))
    if 0.0 < p < 1.0:
        mean = counts * min(p, 1.0 - p)
        assert (mean > 30).any() and ((0 < mean) & (mean <= 30)).any()
    dense, sparse = np.random.default_rng(5), np.random.default_rng(5)
    want = dense.binomial(counts, p)
    nonempty = np.flatnonzero(counts)
    got = np.zeros_like(want)
    got[nonempty] = sparse.binomial(counts[nonempty], p)
    assert np.array_equal(got, want)
    assert sparse.bit_generator.state == dense.bit_generator.state


def test_source_then_loss_is_poisson():
    # thinning a Poisson source is again Poisson at the scaled mean
    rng = np.random.default_rng(4)
    mu, t = 0.2, 0.5
    counts = rng.binomial(rng.poisson(mu, size=1_000_000), t)
    kmax = counts.max()
    observed = np.bincount(counts, minlength=kmax + 1).astype(float)
    expected = stats.poisson.pmf(np.arange(kmax + 1), mu * t) * counts.size
    # merge the tail so every expected cell is well populated
    cut = int(np.argmax(np.cumsum(expected) > counts.size - 5)) or kmax
    obs = np.append(observed[:cut], observed[cut:].sum())
    exp = np.append(expected[:cut], expected[cut:].sum())
    p = stats.chisquare(obs, exp * obs.sum() / exp.sum()).pvalue
    assert p > 0.01


def test_dark_probability_values():
    assert dark_probability(DetectorParams(dark_rate=50e3, gate_window=100e-12)) == 5e-6
    assert dark_probability(DetectorParams(dark_rate=0.0, gate_window=1e-9)) == 0.0
    assert dark_probability(
        DetectorParams(dark_rate=50e3, gate_window=200e-12)
    ) == pytest.approx(1e-5, rel=1e-12)
    with pytest.raises(ModelValidityError):
        dark_probability(DetectorParams(dark_rate=1e9, gate_window=1e-9))


def test_gate_detector_all_hazards_off():
    rng = np.random.default_rng(5)
    d = DetectorParams(efficiency=0.2, dark_rate=0.0, afterpulse_prob0=0.0)
    st = DetectorState()
    for i in range(1000):
        hit, st = gate_detector(False, 0.0, d, st, (i + 1) * 1e-4, rng)
        assert not hit


def test_gate_detector_efficiency():
    rng = np.random.default_rng(6)
    d = DetectorParams(efficiency=0.2, dark_rate=0.0)
    st = DetectorState()
    hits = 0
    for i in range(100_000):
        hit, st = gate_detector(True, 1.0, d, st, (i + 1) * 1e-4, rng)
        hits += hit
    assert hits / 100_000 == pytest.approx(0.2, abs=0.01)


def test_gate_detector_afterpulse_hazard():
    rng = np.random.default_rng(7)
    d = DetectorParams(
        efficiency=0.2, dark_rate=0.0, afterpulse_prob0=0.1, afterpulse_tau=2e-6
    )
    # hazard one time constant after an avalanche: 0.1 * e^{-1}
    hits = 0
    n = 100_000
    for _ in range(n):
        st = DetectorState(trap_charge=1.0, last_avalanche_time=0.0)
        hit, _ = gate_detector(False, 0.0, d, st, 2e-6, rng)
        hits += hit
    assert hits / n == pytest.approx(0.1 * math.exp(-1), abs=0.002)


def test_afterpulse_hazard_strictly_decreases():
    d = DetectorParams(afterpulse_prob0=0.1, afterpulse_tau=2e-6)
    st = DetectorState(trap_charge=1.0, last_avalanche_time=0.0)
    hazards = [afterpulse_probability(d, st, t) for t in np.linspace(1e-7, 2e-5, 40)]
    assert all(b < a for a, b in zip(hazards, hazards[1:]))


def test_afterpulse_decay_folds_through_misses():
    # folding decay into the stored charge at every miss leaves the
    # hazard on the same exponential as measuring from the avalanche
    rng = np.random.default_rng(8)
    d = DetectorParams(
        efficiency=0.0, dark_rate=0.0, afterpulse_prob0=0.05, afterpulse_tau=2e-6
    )
    st = DetectorState(trap_charge=1.0, last_avalanche_time=0.0)
    times = [0.5e-6, 1.0e-6, 1.5e-6, 2.0e-6]
    for t in times:
        direct = 0.05 * math.exp(-t / 2e-6)
        assert afterpulse_probability(d, st, t) == pytest.approx(direct, rel=1e-12)
        _, st = gate_detector(False, 0.0, d, st, t, rng)


# no gate of the run is reached by a photon
NONE_LIT = np.zeros(0, dtype=np.intp)


def test_gate_block_first_afterpulse_follows_the_hazard():
    # with no signal and no dark counts, the first hit of a run that
    # starts on a full trap is an afterpulse: it lands on gate j with
    # probability h_j * prod_{i<j} (1 - h_i), h_j the hazard at (j+1)*dt
    d = DetectorParams(dark_rate=0.0, afterpulse_prob0=0.5, afterpulse_tau=3e-6)
    st, dt, n_gates, trials = DetectorState(1.0, 0.0), 1e-6, 6, 20_000
    rng = np.random.default_rng(12)
    counts = np.zeros(n_gates + 1)  # the last cell counts runs with no hit
    for _ in range(trials):
        hits, _ = gate_block(n_gates, NONE_LIT, np.zeros(0), d, st, dt, rng)
        counts[np.argmax(hits) if hits.any() else n_gates] += 1
    hazards = [afterpulse_probability(d, st, (j + 1) * dt) for j in range(n_gates)]
    assert hazards == pytest.approx([0.5 * math.exp(-(j + 1) / 3) for j in range(n_gates)])
    survive = np.cumprod([1.0] + [1.0 - h for h in hazards])
    expected = np.append(np.array(hazards) * survive[:-1], survive[-1])
    z = (counts - trials * expected) / np.sqrt(trials * expected * (1.0 - expected))
    assert np.all(np.abs(z) < 4.0), z


class FixedDraws:
    """Stands in for a Generator and hands out the given uniform draws."""

    def __init__(self, u):
        self.u = list(u)

    def random(self, n=None):
        if n is None:
            return self.u.pop(0)
        drawn, self.u = self.u[:n], self.u[n:]
        return np.array(drawn)


def test_gate_block_steps_the_trap_while_its_hazard_can_move_a_verdict():
    # no signal and no dark counts, so a draw of 0.0 hits exactly when
    # the afterpulse hazard moves 1 - hazard off 1.0. With the decay
    # e^-1 a gate from a full trap at 0.5, gate 29 (hazard ~5e-14) hits
    # on such a draw, and gate 75, 46 gates after it (hazard ~5e-21),
    # does not
    d = DetectorParams(dark_rate=0.0, afterpulse_prob0=0.5, afterpulse_tau=1e-6)
    st, dt, n = DetectorState(1.0, 0.0), 1e-6, 80
    u = np.full(n, 0.5)
    u[29] = u[75] = 0.0
    hits, got = gate_block(n, NONE_LIT, np.zeros(0), d, st, dt, FixedDraws(u))
    draws, ref, want = FixedDraws(u), st, []
    for i in range(n):
        hit, ref = gate_detector(False, 0.0, d, ref, (i + 1) * dt, draws)
        want.append(int(hit))
    assert np.flatnonzero(hits).tolist() == np.flatnonzero(want).tolist() == [29]
    assert got == ref
    assert 0.0 < got.trap_charge < 1e-20


def test_gate_block_verdicts_sit_on_the_per_gate_law_to_the_last_bit():
    # draws on each gate's threshold and one ulp below it: the compare
    # for the unlit gates and for the lit ones must use the per-gate
    # law's own doubles, and 1 - (1 - 0)(1 - p_dark) is not p_dark
    d = DetectorParams(efficiency=1.0)
    p_dark, dt = dark_probability(d), 1e-4
    assert 1.0 - (1.0 - p_dark) != p_dark
    lit, p_signal = np.array([2, 3]), np.array([0.3, 0.3])
    signal = np.zeros(4)
    signal[lit] = p_signal
    threshold = 1.0 - (1.0 - signal) * (1.0 - p_dark)
    u = np.where([False, True, False, True], np.nextafter(threshold, 0.0), threshold)
    hits, _ = gate_block(4, lit, p_signal, d, DetectorState(), dt, FixedDraws(u))
    draws, st, want = FixedDraws(u), DetectorState(), []
    for i in range(4):
        hit, st = gate_detector(signal[i] > 0, signal[i], d, st, (i + 1) * dt, draws)
        want.append(int(hit))
    assert hits.tolist() == want == [0, 1, 0, 1]


def test_gate_detector_hit_resets_trap():
    rng = np.random.default_rng(9)
    d = DetectorParams(efficiency=1.0, dark_rate=0.0, afterpulse_prob0=0.1)
    hit, st = gate_detector(True, 1.0, d, DetectorState(), 1e-4, rng)
    assert hit
    assert st.trap_charge == 1.0
    assert st.last_avalanche_time == 1e-4


def test_gate_detector_time_precondition():
    rng = np.random.default_rng(10)
    d = DetectorParams()
    st = DetectorState(trap_charge=1.0, last_avalanche_time=1.0)
    with pytest.raises(ValueError):
        gate_detector(False, 0.0, d, st, 0.5, rng)


def test_ideal_source_hit_rate_is_optical_times_efficiency():
    rng = np.random.default_rng(11)
    d = DetectorParams(efficiency=0.35, dark_rate=0.0)
    st = DetectorState()
    hits = 0
    n = 100_000
    for i in range(n):
        hit, st = gate_detector(True, 0.4, d, st, (i + 1) * 1e-4, rng)
        hits += hit
    assert hits / n == pytest.approx(0.4 * 0.35, abs=0.01)


def test_param_validation():
    with pytest.raises(ConfigError):
        SourceParams(mean_photons=-0.1)
    with pytest.raises(ConfigError):
        FiberParams(length_km=-1)
    with pytest.raises(ConfigError):
        DetectorParams(efficiency=1.5)


@pytest.mark.parametrize("group, field, value", [
    (SourceParams, "pulse_rate", 0.0),
    (SourceParams, "pulse_rate", math.inf),
    (SourceParams, "pulse_rate", math.nan),
    (DetectorParams, "afterpulse_prob0", -0.1),
    (DetectorParams, "afterpulse_prob0", 1.5),
], ids=["pulse_rate_0", "pulse_rate_inf", "pulse_rate_nan", "afterpulse_prob0_below_0",
        "afterpulse_prob0_above_1"])
def test_params_refuse_a_value_out_of_range(group, field, value):
    # chained comparisons are False for NaN, so NaN is refused too
    with pytest.raises(ConfigError, match=f"^{field} must"):
        group(**{field: value})


def test_mean_photons_stays_where_numpy_can_draw_it(tmp_path):
    # numpy's Poisson sampler refuses a mean above about 9.2e18, which
    # a session would meet only at its first Physical block
    src = SourceParams(mean_photons=MAX_MEAN_PHOTONS)
    assert np.random.default_rng(1).poisson(src.mean_photons) > 0
    with pytest.raises(ConfigError, match="mean_photons must be finite and >= 0, at most 1e"):
        SourceParams(mean_photons=1e19)
    path = tmp_path / "bright.profile"
    path.write_text("mean_photons = 9.3e18\n")
    with pytest.raises(ConfigError, match="mean_photons"):
        load_profile(path)


def test_load_profile(tmp_path):
    path = tmp_path / "hw.profile"
    path.write_text(
        """
# bench setup
mean_photons = 0.07
pulse_rate = 10000
ideal_single_photon = false
length_km = 1.0
attenuation_db_per_km = 0.3
efficiency = 0.25
dark_rate = 20000   # cooled
gate_window = 1e-10
visibility = 0.995
delta_t = 8.5e-9
"""
    )
    hw = load_profile(path)
    assert hw.source.mean_photons == 0.07
    assert hw.source.ideal_single_photon is False
    assert hw.fiber.length_km == 1.0
    assert hw.detector.efficiency == 0.25
    assert hw.detector.dark_rate == 20000
    assert hw.interferometer.visibility == 0.995
    # unspecified keys keep their defaults
    assert hw.detector.afterpulse_tau == HardwareProfile().detector.afterpulse_tau


def test_load_profile_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.profile"
    path.write_text("mean_photons = 0.05\nwavelength_nm = 1300\n")
    with pytest.raises(ConfigError, match=re.escape(f"{path}:2: unknown profile key")):
        load_profile(path)


def test_load_profile_rejects_a_key_set_twice(tmp_path):
    path = tmp_path / "twice.profile"
    path.write_text("mean_photons = 0.1\nlength_km = 2\n\nmean_photons = 0.5\n")
    with pytest.raises(ConfigError, match=re.escape(
            f"{path}:4: profile key 'mean_photons' is set again (first on line 1)")):
        load_profile(path)


def test_with_fields_routes_each_field_to_its_group():
    hw = with_fields(HardwareProfile(), mean_photons=0.2, length_km=4.0, dark_rate=10.0)
    assert (hw.source.mean_photons, hw.fiber.length_km, hw.detector.dark_rate) == (0.2, 4.0, 10.0)
    assert hw.interferometer == HardwareProfile().interferometer
    # a group is rebuilt once, so its cross-field check sees both values:
    # a 9 ns pulse fits a 10 ns delay, though not the default 8.5 ns one
    wide = with_fields(hw, pulse_width=9e-9, delta_t=10e-9)
    assert (wide.interferometer.pulse_width, wide.interferometer.delta_t) == (9e-9, 10e-9)
    with pytest.raises(ConfigError, match="unknown profile key 'wavelength_nm'"):
        with_fields(hw, wavelength_nm=1300.0)


@pytest.mark.parametrize("line, message", [
    ("mean_photons 0.1", ":2: expected key=value, got 'mean_photons 0.1'"),
    ("length_km = two", "cannot parse length_km='two' as a number"),
])
def test_load_profile_rejects_a_malformed_line(tmp_path, line, message):
    path = tmp_path / "malformed.profile"
    path.write_text(f"# bench setup\n{line}\n")
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_profile(path)


def test_load_profile_rejects_bad_bool(tmp_path):
    path = tmp_path / "bad2.profile"
    path.write_text("ideal_single_photon = maybe\n")
    with pytest.raises(ConfigError):
        load_profile(path)


def test_hardware_profile_defaults():
    hw = HardwareProfile()
    assert hw.source.mean_photons == 0.1
    assert hw.detector.efficiency == 0.2
    assert hw.detector.dark_rate == 50e3
    assert hw.interferometer.delta_t == 8.5e-9
