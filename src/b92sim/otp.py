"""One-time-pad encryption in an arbitrary modulus.

A Pad is a strictly single-use key stream: every encryption or
decryption advances an internal cursor, consumed symbols can never be
addressed again, and running past the end raises instead of wrapping.
Messages are sequences of integers below a common base (2 for bits,
10 for digits, 26 for letters A..Z, 256 for bytes).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EncodingError, PadDepletedError


@dataclass(frozen=True)
class Message:
    """Plaintext or ciphertext: integer symbols below ``base``."""

    symbols: np.ndarray
    base: int

    def __post_init__(self):
        if self.base < 2:
            raise ValueError("base must be >= 2")
        arr = np.asarray(self.symbols, dtype=np.int64)
        if arr.size and (arr.min() < 0 or arr.max() >= self.base):
            raise ValueError(f"symbols must lie in [0, {self.base})")
        object.__setattr__(self, "symbols", arr)

    def __len__(self) -> int:
        return int(self.symbols.size)


class Pad:
    """Single-use key material with an explicit consumption cursor."""

    def __init__(self, symbols, base: int):
        self._symbols = Message(symbols, base).symbols
        self.base = base
        self._consumed = 0

    @property
    def consumed(self) -> int:
        return self._consumed

    def __len__(self) -> int:
        return int(self._symbols.size)

    def remaining(self) -> int:
        return len(self) - self._consumed

    def _take(self, n: int) -> np.ndarray:
        if n > self.remaining():
            raise PadDepletedError(
                f"pad has {self.remaining()} unconsumed symbols, {n} required"
            )
        out = self._symbols[self._consumed: self._consumed + n]
        self._consumed += n
        return out


def _shift(m: Message, pad: Pad, sign: int) -> tuple[Message, Pad]:
    """m_i + sign * k_i mod base, consuming len(m) pad symbols."""
    if m.base != pad.base:
        raise ValueError(f"message base {m.base} != pad base {pad.base}")
    return Message((m.symbols + sign * pad._take(len(m))) % m.base, m.base), pad


def encrypt(p: Message, pad: Pad) -> tuple[Message, Pad]:
    """c_i = (p_i + k_i) mod base, consuming len(p) pad symbols."""
    return _shift(p, pad, 1)


def decrypt(c: Message, pad: Pad) -> tuple[Message, Pad]:
    """p_i = (c_i - k_i) mod base; inverse of encrypt at the same cursor."""
    return _shift(c, pad, -1)


def ascii_encode(text: str) -> Message:
    """7-bit printable text -> base-2 message, 8 bits per character,
    most-significant bit first."""
    for ch in text:
        if ord(ch) >= 128 or not (ch.isprintable() or ch in "\t\n\r"):
            raise EncodingError(f"character {ch!r} is not 7-bit printable")
    raw = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    return Message(np.unpackbits(raw).astype(np.int64), 2)


def ascii_decode(m: Message) -> str:
    """Inverse of ascii_encode; it refuses the text ascii_encode refuses."""
    if m.base != 2:
        raise EncodingError(f"expected a base-2 message, got base {m.base}")
    if len(m) % 8:
        raise EncodingError(f"bit count {len(m)} is not a multiple of 8")
    raw = np.packbits(m.symbols.astype(np.uint8)).tobytes()
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        raise EncodingError(f"bits do not decode as ASCII: {exc}") from exc
    ascii_encode(text)
    return text


def pad_from_key(bits, n_symbols: int | None = None) -> Pad:
    """A base-2 pad of uniform key bits, one symbol a bit. With
    ``n_symbols`` set, it holds the first ``n_symbols`` bits, and fewer
    bits than that raise PadDepletedError."""
    symbols = np.asarray(bits, dtype=np.uint8)
    if n_symbols is not None:
        if len(symbols) < n_symbols:
            raise PadDepletedError(
                f"key has {len(symbols)} bits, {n_symbols} required"
            )
        symbols = symbols[:n_symbols]
    return Pad(symbols, 2)
