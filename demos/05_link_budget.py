"""Key rate and error rate over fiber distance.

Prints the factor decomposition of the sifted-key rate at the
reference operating point, then walks the link out in distance: the
rate falls with fiber loss while the fixed dark-count floor drags the
error rate toward a coin flip, which bounds the useful range.
"""
import math
from dataclasses import replace

from b92sim.hardware import (
    DetectorParams,
    FiberParams,
    HardwareProfile,
    InterferometerConfig,
    SourceParams,
    fiber_transmission,
)
from b92sim.protocol import (
    ALARM_BER_THRESHOLD,
    Mode,
    SessionConfig,
    analytic_ber,
    ber_crossing_distance,
    predict_key_rate,
    run_session,
)

hw = HardwareProfile(
    source=SourceParams(mean_photons=0.1, pulse_rate=10e3),
    fiber=FiberParams(length_km=10.0, attenuation_db_per_km=math.log10(4.0)),
    detector=DetectorParams(efficiency=0.2, dark_rate=50e3, gate_window=100e-12),
    interferometer=InterferometerConfig(visibility=0.995),
)
cfg = SessionConfig(seed_alice=1, seed_bob=2, seed_physics=3,
                    mode=Mode.PHYSICAL, hardware=hw)

pred = predict_key_rate(cfg)
print("sifted-key rate decomposition at 10 km:")
for name, value in pred.factors.items():
    print(f"  {name:22} {value:.4f}")
print(f"  {'bits/pulse':22} {pred.bits_per_pulse:.3e}"
      f"  (about 1/{1 / pred.bits_per_pulse:.0f} of the pulse rate)")
print(f"  {'bits/second':22} {pred.bits_per_second:.3f}")

print(f"\n{'km':>4} {'transmission':>13} {'bits/pulse':>12} {'ber':>9} "
      f"{'mc bits/pulse':>14}")
for d in (0, 10, 20, 30, 40, 50):
    hw_d = replace(hw, fiber=replace(hw.fiber, length_km=float(d)))
    cfg_d = replace(cfg, hardware=hw_d, bits_per_block=300_000,
                    error_sample_fraction=0.0, seed_physics=3 + d)
    rep = run_session(cfg_d)
    pred_d = predict_key_rate(cfg_d)
    print(f"{d:>4} {fiber_transmission(hw_d.fiber):>13.5f} "
          f"{pred_d.bits_per_pulse:>12.3e} {analytic_ber(hw_d):>9.4f} "
          f"{rep.sifted_fraction:>14.3e}")

crossing = ber_crossing_distance(hw, ALARM_BER_THRESHOLD)
print(f"\nthe error rate crosses the {ALARM_BER_THRESHOLD} alarm level at "
      f"{crossing:.1f} km of this fiber; beyond that the key cannot be trusted.")
