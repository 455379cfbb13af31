"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line (run with -s to watch them stream)."""
import math
import socket
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from b92sim.hardware import (
    DetectorParams,
    FiberParams,
    HardwareProfile,
    InterferometerConfig,
    SourceParams,
    dark_probability,
    fiber_transmission,
)
from b92sim.otp import Message, Pad, encrypt, decrypt
from b92sim.errors import PadDepletedError
from b92sim.photonics import (
    PhasePair,
    arrival_histogram,
    b92_phase,
    beamsplitter,
    mz_detect_prob,
    tm_window_distribution,
)
from b92sim.protocol import (
    EveStrategy,
    Mode,
    RoundLogs,
    SessionConfig,
    alice_prepare,
    analytic_ber,
    ber_crossing_distance,
    bob_projector,
    generate_bits,
    predict_key_rate,
    run_session,
)
from b92sim.qstate import (
    DOWN,
    P_DOWN,
    P_LEFT,
    P_UP,
    RIGHT,
    UP,
    basis_states,
    measure,
    pass_probability,
)

from oracles import reconcile_block_parity

BIT_PAIRS = [(0, 0), (0, 1), (1, 0), (1, 1)]


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}")
    return ok


def section8_hardware(**kw) -> HardwareProfile:
    """The reference long-haul operating point: tenth-photon pulses,
    a factor-four fiber loss over 10 km, a 20% detector."""
    params = dict(
        source=SourceParams(mean_photons=0.1, pulse_rate=10e3),
        fiber=FiberParams(length_km=10.0, attenuation_db_per_km=math.log10(4.0)),
        detector=DetectorParams(efficiency=0.2, dark_rate=0.0),
        interferometer=InterferometerConfig(visibility=1.0),
    )
    params.update(kw)
    return HardwareProfile(**params)


def test_c01_born_rule_table():
    up, down, right, left = basis_states()
    cells = {
        ("up", "P_down"): (up, P_DOWN, 0.0),
        ("right", "P_down"): (right, P_DOWN, 0.5),
        ("up", "P_left"): (up, P_LEFT, 0.5),
        ("right", "P_left"): (right, P_LEFT, 0.0),
    }
    rng = np.random.default_rng(2024)
    n = 100_000
    ok = True
    details = []
    for (sname, pname), (state, proj, expected) in cells.items():
        freq = sum(measure(state, proj, rng)[0] for _ in range(n)) / n
        good = abs(freq - expected) <= 0.01
        ok &= good
        details.append(f"{sname}/{pname}={freq:.4f} (want {expected})")
    assert report(1, ok, "pass-probability table: " + ", ".join(details))


def test_c02_sifted_fraction():
    cfg = SessionConfig(seed_alice=31, seed_bob=41, seed_physics=59,
                        bits_per_block=100_000)
    rep = run_session(cfg)
    frac_ok = abs(rep.sifted_fraction - 0.25) <= 0.005
    keys_ok = np.array_equal(rep.sifted_key_alice, rep.sifted_key_bob)
    assert report(
        2, frac_ok and keys_ok,
        f"sifted fraction {rep.sifted_fraction:.4f} (want 0.25 +- 0.005), "
        f"keys identical: {keys_ok}",
    )


def fixed_projection_statistics() -> dict[str, float]:
    """Exact statistics of the fixed-projection eavesdropper, by
    enumeration over the state algebra.

    The sender prepares a fair bit a as alice_prepare(a). The
    eavesdropper measures P_UP: a pass is guess 0 and forwards UP, a
    fail is guess 1 and forwards DOWN. The receiver measures
    bob_projector(b) for a fair bit b; a pass keeps b as a sifted bit.
    """
    guessed = {0: 0.0, 1: 0.0}
    guessed_right = {0: 0.0, 1: 0.0}
    sifted = errors = 0.0
    for a in (0, 1):
        p_pass = pass_probability(alice_prepare(a), P_UP)
        for guess, p_guess, forwarded in ((0, p_pass, UP), (1, 1.0 - p_pass, DOWN)):
            joint = 0.5 * p_guess
            guessed[guess] += joint
            guessed_right[guess] += joint * (guess == a)
            for b in (0, 1):
                hit = 0.5 * joint * pass_probability(forwarded, bob_projector(b))
                sifted += hit
                errors += hit * (b != a)
    return {
        "one_cover": guessed[1],
        "one_correct": guessed_right[1] / guessed[1],
        "zero_correct": guessed_right[0] / guessed[0],
        "overall_correct": guessed_right[0] + guessed_right[1],
        "ber": errors / sifted,
    }


def test_c03_eavesdropper_signature():
    # The enumeration gives: 1-guesses cover 1/4 of the pulses and are
    # always right (only the sender's 1-state can fail P_UP); 0-guesses
    # cover the other 3/4 and hold every 0-bit (1/2) plus the 1-bits
    # that passed (1/4), so P(sent 0 | guessed 0) = (1/2)/(3/4) = 2/3,
    # and the guess record matches the sent bit 3/4 of the time. The
    # forwarded UP/DOWN states sift 3/8 of the pulses, 1/8 of them in
    # error: BER (1/8)/(3/8) = 1/3, far above the alarm threshold.
    exact = fixed_projection_statistics()
    cfg = SessionConfig(
        seed_alice=61, seed_bob=71, seed_physics=83, bits_per_block=120_000,
        eve=EveStrategy.FIXED_PROJECTION, error_sample_fraction=0.5,
    )
    logs = RoundLogs()
    rep = run_session(cfg, logs=logs)
    ones = logs.eve_guesses == 1
    zeros = logs.eve_guesses == 0
    one_cover = float(np.mean(ones))
    one_correct = float(np.mean(logs.alice_bits[ones] == 1))
    zero_correct = float(np.mean(logs.alice_bits[zeros] == 0))
    overall = float(np.mean(logs.alice_bits == logs.eve_guesses))
    n_sifted = len(rep.sifted_key_bob)
    sigma = math.sqrt(0.25 / n_sifted)
    checks = {
        f"ber {exact['ber']:.4f} +- 0.01": abs(rep.ber_estimate - exact["ber"]) <= 0.01,
        "1-guesses 100% correct": one_correct == exact["one_correct"],
        f"1-guesses cover {exact['one_cover']:.4f} +- 0.01":
            abs(one_cover - exact["one_cover"]) <= 0.01,
        f"0-guesses {exact['zero_correct']:.4f} +- 0.01 correct":
            abs(zero_correct - exact["zero_correct"]) <= 0.01,
        f"all guesses {exact['overall_correct']:.4f} +- 0.01 correct":
            abs(overall - exact["overall_correct"]) <= 0.01,
        "bias > 0.5 + 3 sigma": rep.zero_bias - 0.5 > 3 * sigma,
        "alarm fires": rep.alarm,
    }
    failures = [name for name, good in checks.items() if not good]
    detail = (
        f"ber={rep.ber_estimate:.4f}, 1-cover={one_cover:.4f}, "
        f"1-correct={one_correct:.4f}, 0-correct={zero_correct:.4f}, "
        f"overall-correct={overall:.4f}, bias={rep.zero_bias:.4f}, "
        f"alarm={rep.alarm}"
    )
    report(3, not failures, detail)
    assert not failures, f"unmet sub-criteria: {failures}; measured: {detail}"


def test_c04_interferometer_equivalence():
    ok = True
    details = []
    cfg = InterferometerConfig(visibility=1.0)
    for a, b in BIT_PAIRS:
        pair = PhasePair(b92_phase("alice", a), b92_phase("bob", b))
        mz = mz_detect_prob(pair)
        central = tm_window_distribution(pair, cfg).detector_central
        expected = 0.5 if a == b else 0.0
        ok &= abs(mz - expected) <= 1e-12
        ok &= abs(central - mz / 4.0) <= 1e-12
        details.append(f"({a},{b}): mz={mz:.3f} central={central:.5f}")
    assert report(4, ok, "phase law == pass table, window == law/4: " + "; ".join(details))


def test_c05_visibility_ber():
    hw = HardwareProfile(
        source=SourceParams(ideal_single_photon=True),
        fiber=FiberParams(length_km=0.0),
        detector=DetectorParams(efficiency=1.0, dark_rate=0.0),
        interferometer=InterferometerConfig(visibility=0.995),
    )
    cfg = SessionConfig(seed_alice=5, seed_bob=15, seed_physics=99,
                        mode=Mode.PHYSICAL, hardware=hw,
                        bits_per_block=640_000, error_sample_fraction=0.5)
    rep = run_session(cfg)
    n_sifted = len(rep.sifted_key_alice)
    ok = n_sifted >= 20_000 and abs(rep.ber_estimate - 0.005) <= 0.002
    assert report(
        5, ok,
        f"visibility 0.995 -> ber {rep.ber_estimate:.5f} (want 0.005 +- 0.002) "
        f"over {n_sifted} sifted bits",
    )


def test_c06_key_rate_factorization():
    hw = section8_hardware()
    cfg = SessionConfig(seed_alice=3, seed_bob=13, seed_physics=23,
                        mode=Mode.PHYSICAL, hardware=hw,
                        bits_per_block=2_000_000, error_sample_fraction=0.0)
    pred = predict_key_rate(cfg)
    f = pred.factors
    product = (f["source_nonempty"] * f["fiber_transmission"]
               * f["protocol_factor"] * f["detector_efficiency"])
    exact_ok = (abs(pred.bits_per_pulse - product) < 1e-15
                and abs(pred.bits_per_pulse - 3.125e-4) < 1e-15)

    ideal_cfg = replace(cfg, hardware=replace(
        hw, source=replace(hw.source, ideal_single_photon=True)))
    ratio = predict_key_rate(ideal_cfg).bits_per_pulse / pred.bits_per_pulse
    ten_ok = abs(ratio - 10.0) < 1e-12

    rep = run_session(cfg)
    n, p = cfg.bits_per_block, pred.bits_per_pulse
    sigma = math.sqrt(n * p * (1 - p))
    mc_ok = abs(len(rep.sifted_key_alice) - n * p) <= 3 * sigma
    assert report(
        6, exact_ok and ten_ok and mc_ok,
        f"predicted {pred.bits_per_pulse:.6e} bits/pulse (=1/{1/pred.bits_per_pulse:.0f}), "
        f"monte-carlo {len(rep.sifted_key_alice)} hits vs {n * p:.0f} +- {3 * sigma:.0f}, "
        f"ideal-source ratio {ratio:.3f}",
    )


def test_c07_dark_count_arithmetic():
    p = dark_probability(DetectorParams(dark_rate=50e3, gate_window=100e-12))
    ok = p == 5e-6
    assert report(7, ok, f"50 kHz x 100 ps -> {p!r} (want exactly 5e-06)")


def test_c08_distance_sweep_property():
    hw = HardwareProfile(interferometer=InterferometerConfig(visibility=0.995))
    bers = [analytic_ber(hw, float(d)) for d in np.arange(0.0, 120.0, 2.0)]
    monotone = all(b2 >= b1 - 1e-15 for b1, b2 in zip(bers, bers[1:]))
    floor = bers[0]
    crossings_ok = all(
        ber_crossing_distance(hw, th) is not None
        for th in (floor + 0.01, 0.1, 0.25, 0.4, 0.49)
    )
    ratios = []
    for d in (0.0, 5.0, 25.0):
        t1 = fiber_transmission(FiberParams(d, 0.3))
        t2 = fiber_transmission(FiberParams(d + 10.0, 0.3))
        ratios.append(t2 / t1)
    halving_ok = all(abs(r - 10 ** -0.3) <= 1e-12 for r in ratios)
    # 3 dB per 10 km is a factor 2 in round numbers
    approx_half = all(abs(r - 0.5) < 2e-3 for r in ratios)
    ok = monotone and crossings_ok and halving_ok and approx_half
    assert report(
        8, ok,
        f"ber monotone: {monotone}, thresholds all crossed: {crossings_ok}, "
        f"10 km ratio {ratios[0]:.6f} == 10^-0.3 within 1e-12: {halving_ok}",
    )


def test_c09_histogram_shape():
    cfg = InterferometerConfig()  # 8.5 ns path difference, 300 ps pulses
    rng = np.random.default_rng(404)

    # three peaks in the right places
    hist = arrival_histogram(PhasePair(0, 0), cfg, 100_000, 1.0, rng)
    peaks_ok = True
    for center in (0.0, 8.5e-9, 17.0e-9):
        window = np.abs(hist.bin_centers - center) < cfg.delta_t / 2
        top = hist.bin_centers[window][np.argmax(hist.counts[window])]
        peaks_ok &= abs(top - center) < cfg.pulse_width

    # central mass follows the interference law over 8 phase settings
    deltas = np.arange(8) * (2 * math.pi / 8)
    measured = []
    model = []
    n_pulses, mu = 100_000, 1.0
    for d in deltas:
        h = arrival_histogram(PhasePair(float(d), 0.0), cfg, n_pulses, mu, rng)
        _, central, _ = h.peak_masses(cfg.delta_t)
        measured.append(central / (n_pulses * mu))
        model.append((1 + math.cos(d)) / 8)
    measured = np.array(measured)
    model = np.array(model)
    ss_res = float(np.sum((measured - model) ** 2))
    ss_tot = float(np.sum((measured - measured.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    fringe_ok = r2 > 0.99

    lossy = InterferometerConfig(long_path_loss_a=0.3, long_path_loss_b=0.3)
    h = arrival_histogram(PhasePair(0, 0), lossy, 100_000, 1.0, rng)
    prompt, _, delayed = h.peak_masses(lossy.delta_t)
    loss_ok = delayed < prompt and abs(delayed / prompt - 0.49) < 0.07

    ok = peaks_ok and fringe_ok and loss_ok
    assert report(
        9, ok,
        f"peaks at 0/8.5/17 ns: {peaks_ok}, fringe R^2 = {r2:.5f}, "
        f"lossy delayed/prompt = {delayed / prompt:.3f} (want ~0.49)",
    )


def test_c10_probability_conservation():
    rng = np.random.default_rng(505)
    cfg = InterferometerConfig()
    sums_ok = True
    for _ in range(1000):
        pair = PhasePair(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
        sums_ok &= abs(tm_window_distribution(pair, cfg).total() - 1.0) <= 1e-12
    unitary_ok = True
    for _ in range(1000):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        o1, o2 = beamsplitter(v[0], v[1], rng.uniform(0, 2 * math.pi))
        unitary_ok &= abs(abs(o1) ** 2 + abs(o2) ** 2 - 1.0) <= 1e-12
    assert report(
        10, sums_ok and unitary_ok,
        f"window sums == 1: {sums_ok}, beamsplitter unitary: {unitary_ok} "
        "(1000 random draws each)",
    )


def test_c11_one_time_pad():
    rng = np.random.default_rng(606)
    round_ok = True
    for base in (2, 10, 26, 256):
        msg = Message(rng.integers(0, base, size=500), base)
        key = rng.integers(0, base, size=500)
        c, _ = encrypt(msg, Pad(key, base))
        p, _ = decrypt(c, Pad(key, base))
        round_ok &= bool(np.array_equal(p.symbols, msg.symbols))

    plain = Message(rng.integers(0, 26, size=16), 26)
    symbols = []
    for _ in range(10_000):
        c, _ = encrypt(plain, Pad(rng.integers(0, 26, size=16), 26))
        symbols.append(c.symbols)
    pvalue = stats.chisquare(np.bincount(np.concatenate(symbols), minlength=26)).pvalue
    uniform_ok = pvalue > 0.01

    pad = Pad(rng.integers(0, 2, size=8), 2)
    encrypt(Message(np.zeros(8, dtype=int), 2), pad)
    try:
        encrypt(Message(np.zeros(1, dtype=int), 2), pad)
        reuse_blocked = False
    except PadDepletedError:
        reuse_blocked = True
    assert report(
        11, round_ok and uniform_ok and reuse_blocked,
        f"roundtrip bases 2/10/26/256: {round_ok}, ciphertext chi^2 p={pvalue:.3f}, "
        f"pad reuse blocked: {reuse_blocked}",
    )


def test_c12_reconciliation_oracle():
    from test_protocol import brute_force_block_parity

    rng = np.random.default_rng(707)
    alice = generate_bits(100_000, rng)
    bob = alice ^ (rng.random(100_000) < 0.01).astype(np.uint8)
    a2, b2, _, dropped = reconcile_block_parity(alice, bob)
    ref_a, ref_b, ref_dropped = brute_force_block_parity(alice, bob, 8)
    ok = (a2.tolist() == ref_a and b2.tolist() == ref_b and dropped == ref_dropped)
    assert report(
        12, ok,
        f"block-parity output identical to brute force on 100k bits at 1% "
        f"error rate ({dropped} blocks dropped)",
    )


CHAT_MESSAGE = "QUANTUM CHANNELS CARRY NO CLONES"  # 32 characters


def test_c13_end_to_end_determinism(tmp_path):
    argv = [sys.executable, "-m", "b92sim", "session",
            "--seed-alice", "3", "--seed-bob", "5", "--seed-physics", "7",
            "--bits-per-block", "4096"]
    r1 = subprocess.run(argv + ["--out", str(tmp_path / "a.csv")],
                        capture_output=True, timeout=120)
    r2 = subprocess.run(argv + ["--out", str(tmp_path / "b.csv")],
                        capture_output=True, timeout=120)
    same_stdout = r1.stdout.replace(b"a.csv", b"") == r2.stdout.replace(b"b.csv", b"")
    same_csv = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    repro_ok = r1.returncode == 0 and same_stdout and same_csv

    assert len(CHAT_MESSAGE) == 32
    seeds = ["--seed-alice", "17", "--seed-bob", "19", "--seed-physics", "29"]
    alice = subprocess.Popen(
        [sys.executable, "-m", "b92sim", "chat", "--role", "alice",
         "--listen", "127.0.0.1:0", "--message", CHAT_MESSAGE] + seeds,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, bufsize=1,
    )
    try:
        port = int(alice.stdout.readline().strip().rsplit(":", 1)[1])
        bob = subprocess.run(
            [sys.executable, "-m", "b92sim", "chat", "--role", "bob",
             "--connect", f"127.0.0.1:{port}"] + seeds,
            capture_output=True, text=True, timeout=120,
        )
        alice_out, alice_err = alice.communicate(timeout=120)
    finally:
        if alice.poll() is None:
            alice.kill()
    chat_ok = (
        alice.returncode == 0
        and bob.returncode == 0
        and f"decrypted: {CHAT_MESSAGE}" in bob.stdout
    )
    cipher_alice = next((l for l in alice_out.splitlines()
                         if l.startswith("ciphertext:")), "")
    cipher_bob = next((l for l in bob.stdout.splitlines()
                       if l.startswith("ciphertext:")), "")
    cipher_ok = cipher_alice == cipher_bob != "" and CHAT_MESSAGE not in cipher_alice
    assert report(
        13, repro_ok and chat_ok and cipher_ok,
        f"byte-identical reports: {repro_ok}; 32-char message round-tripped "
        f"across two processes: {chat_ok}; ciphertext matches on both ends "
        f"and differs from plaintext: {cipher_ok}",
    )
