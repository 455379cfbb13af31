"""End to end: distill key blocks until a message can be sealed.

Runs 1024-bit session blocks until the reconciled key covers the
message, builds one-time pads on both sides, encrypts on the sender,
and decrypts on the receiver. The pad enforces single use, so trying
to reuse it afterwards fails loudly.
"""
import numpy as np

from b92sim.errors import PadDepletedError
from b92sim.otp import Message, ascii_decode, ascii_encode, decrypt, encrypt, pad_from_key
from b92sim.protocol import SessionConfig, run_session

text = "NO CLONING MEANS NO COPYING"
needed = 8 * len(text)
print(f"message: {text!r} -> {needed} key bits needed")

cfg = SessionConfig(seed_alice=9, seed_bob=19, seed_physics=29)
blocks = 0
while True:
    blocks += 1
    rep = run_session(cfg, n_blocks=blocks)
    print(f"  after block {blocks}: {len(rep.reconciled_key)} reconciled bits")
    if len(rep.reconciled_key) >= needed:
        break

if rep.alarm:
    raise SystemExit(f"alarm ({rep.alarm_reason}): would not use this key")

sender_pad = pad_from_key(rep.reconciled_key, n_symbols=needed)
receiver_pad = pad_from_key(rep.reconciled_key, n_symbols=needed)

plain = ascii_encode(text)
cipher, _ = encrypt(plain, sender_pad)
raw = np.packbits(cipher.symbols.astype(np.uint8)).tobytes()
shown = "".join(chr(b) if 32 <= b < 127 else "." for b in raw)
print(f"\nciphertext bytes: {raw.hex()}")
print(f"as characters:    {shown}")

recovered, _ = decrypt(Message(cipher.symbols, 2), receiver_pad)
print(f"decrypted:        {ascii_decode(recovered)!r}")

try:
    encrypt(ascii_encode("X" * (len(sender_pad) // 8 + 1)), sender_pad)
except PadDepletedError as exc:
    print(f"\npad reuse refused, as it must be: {exc}")
