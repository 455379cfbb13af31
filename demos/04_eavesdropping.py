"""What an intercept-resend eavesdropper gains, and what it costs her.

The fixed-projection tactic tests every pulse against the spin-up
state and forwards the collapsed result. It identifies the sender's
1-bits with certainty, but the collapsed states it forwards light up
rounds that could never fire, and the receiver's statistics give the
game away three times over: error rate, zero bias, and extra hits.
Her guesses come from the tapped session's per-round record, which a
session keeps only in a log its caller hands in.
"""
import math

import numpy as np

from b92sim.protocol import EveStrategy, RoundLogs, SessionConfig, run_session

clean = SessionConfig(seed_alice=61, seed_bob=71, seed_physics=83, bits_per_block=100_000)
tapped = SessionConfig(
    seed_alice=61, seed_bob=71, seed_physics=83, bits_per_block=100_000,
    eve=EveStrategy.FIXED_PROJECTION, error_sample_fraction=0.5,
)

r0 = run_session(clean)
logs = RoundLogs()
r1 = run_session(tapped, logs=logs)
ones = logs.eve_guesses == 1
zeros = logs.eve_guesses == 0

print("what the eavesdropper learns:")
print(f"  '1' records: {ones.mean():.3f} of pulses, "
      f"{(logs.alice_bits[ones] == 1).mean():.3f} correct (the fail branch is certain)")
print(f"  '0' records: {zeros.mean():.3f} of pulses, "
      f"{(logs.alice_bits[zeros] == 0).mean():.3f} correct (2/3: half the 1-bits leak in)")
print(f"  overall accuracy {(logs.alice_bits == logs.eve_guesses).mean():.3f}")

print("\nwhat the legitimate parties see:")
print(f"  {'':24}{'clean':>10}{'tapped':>10}")
print(f"  {'sifted fraction':24}{r0.sifted_fraction:>10.4f}{r1.sifted_fraction:>10.4f}")
print(f"  {'error rate':24}{r0.ber_estimate:>10.4f}{r1.ber_estimate:>10.4f}")
print(f"  {'receiver zero bias':24}{r0.zero_bias:>10.4f}{r1.zero_bias:>10.4f}")
print(f"  {'alarm':24}{str(r0.alarm):>10}{str(r1.alarm):>10}")

n = len(r1.sifted_key_bob)
sigma = math.sqrt(0.25 / n)
print(f"\nthe bias alone sits {(r1.zero_bias - 0.5) / sigma:.0f} standard errors above 1/2;")
print("the session alarm trips on both the error rate and the bias, so the")
print("key material is discarded and the tap bought nothing usable.")

errors = (r1.sifted_key_alice != r1.sifted_key_bob)
print(f"\nexact model values: errors/sifted = {errors.mean():.4f} (1/3),")
print("because every differing-bit hit is an error and the forwarded")
print("collapsed states make those rounds fire half the time.")
