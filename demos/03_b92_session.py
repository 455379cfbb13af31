"""A complete key-distribution session, step by step.

Runs one small ideal-mode block and prints what each stage of the
protocol did: the raw bit streams, the hit record, sifting, error
estimation, and block-parity reconciliation. The per-round record is
kept only because this script hands the session a log to fill.
"""
import numpy as np

from b92sim.protocol import RoundLogs, SessionConfig, run_session

cfg = SessionConfig(seed_alice=2, seed_bob=102, seed_physics=202, bits_per_block=32)
logs = RoundLogs()
rep = run_session(cfg, logs=logs)

print("round:     " + " ".join(f"{i:2d}" for i in range(len(logs))))
print("sender:    " + " ".join(f"{b:2d}" for b in logs.alice_bits))
print("receiver:  " + " ".join(f"{b:2d}" for b in logs.bob_bits))
print("hit:       " + " ".join(" Y" if h else " ." for h in logs.hits))
same = logs.alice_bits == logs.bob_bits
print("same bit:  " + " ".join(" =" if s else "  " for s in same))
print()
print("hits can only land on rounds where the bits agree; about half")
print("of those pass, so roughly a quarter of all rounds survive.")
print()
kept = np.nonzero(logs.hits)[0]
print(f"sifted key positions: {kept.tolist()}")
print(f"sender key:   {rep.sifted_key_alice.tolist()}")
print(f"receiver key: {rep.sifted_key_bob.tolist()}")
print()

big = SessionConfig(seed_alice=2, seed_bob=102, seed_physics=202, bits_per_block=20_000)
rep = run_session(big)
print(f"a {big.bits_per_block}-round block:")
print(f"  sifted fraction    {rep.sifted_fraction:.4f}  (ideal: 0.25)")
print(f"  error estimate     {rep.ber_estimate:.4f}  "
      f"(from a disclosed sample, removed from the key)")
print(f"  receiver zero bias {rep.zero_bias:.4f}")
print(f"  reconciled length  {len(rep.reconciled_key)} bits "
      f"(block parity costs one bit per clean block)")
print(f"  alarm              {rep.alarm_reason if rep.alarm else 'none'}")
print(f"  keys identical     {np.array_equal(rep.sifted_key_alice, rep.sifted_key_bob)}")
