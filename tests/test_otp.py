import numpy as np
import pytest
from scipy import stats

from b92sim.errors import EncodingError, PadDepletedError
from b92sim.otp import (
    Message,
    Pad,
    ascii_decode,
    ascii_encode,
    decrypt,
    encrypt,
    pad_from_key,
)

LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def letters_msg(text: str) -> Message:
    return Message([LETTERS.index(c) for c in text], 26)


def test_zero_key_is_identity():
    pad = Pad(np.zeros(5, dtype=int), 26)
    c, _ = encrypt(letters_msg("HELLO"), pad)
    assert "".join(LETTERS[s] for s in c.symbols) == "HELLO"


def test_bit_addition():
    c, _ = encrypt(Message([1], 2), Pad([1], 2))
    assert c.symbols.tolist() == [0]


def test_letter_shift():
    c, _ = encrypt(Message([0], 26), Pad([3], 26))
    assert c.symbols.tolist() == [3]  # 'A' + 3 -> 'D'


def test_modular_subtraction():
    p, _ = decrypt(Message([0], 26), Pad([3], 26))
    assert p.symbols.tolist() == [23]


@pytest.mark.parametrize("base", [2, 10, 26, 256])
def test_roundtrip_all_bases(base):
    rng = np.random.default_rng(base)
    msg = Message(rng.integers(0, base, size=1000), base)
    key = rng.integers(0, base, size=1000)
    c, _ = encrypt(msg, Pad(key, base))
    p, _ = decrypt(c, Pad(key, base))
    assert np.array_equal(p.symbols, msg.symbols)
    assert not np.array_equal(c.symbols, msg.symbols)  # astronomically unlikely


def test_mismatched_bases_rejected():
    with pytest.raises(ValueError):
        encrypt(Message([1], 2), Pad([3], 26))


def test_symbol_range_checked():
    with pytest.raises(ValueError):
        Message([26], 26)
    with pytest.raises(ValueError):
        Pad([-1], 26)


def test_message_refuses_a_base_below_2():
    with pytest.raises(ValueError, match="base must be >= 2"):
        Message([0], 1)


@pytest.mark.parametrize("msg, message", [
    (Message([7, 4, 11, 11, 14], 26), "expected a base-2 message, got base 26"),
    (Message([0, 1] * 6, 2), "bit count 12 is not a multiple of 8"),
], ids=["base_26", "12_bits"])
def test_ascii_decode_refuses_what_is_not_whole_bytes_of_bits(msg, message):
    with pytest.raises(EncodingError, match=message):
        ascii_decode(msg)


def test_pad_single_use():
    pad = Pad(np.arange(10) % 26, 26)
    encrypt(letters_msg("HELLO"), pad)
    assert pad.consumed == 5
    encrypt(letters_msg("WORLD"), pad)
    assert pad.consumed == 10
    # nothing left: a third use must fail rather than rewind
    with pytest.raises(PadDepletedError):
        encrypt(letters_msg("A"), pad)


def test_pad_never_exposes_consumed_symbols():
    pad = Pad([1, 2, 3, 4], 26)
    c1, _ = encrypt(letters_msg("AA"), pad)
    c2, _ = encrypt(letters_msg("AA"), pad)
    # same plaintext, later pad region: different symbols were consumed
    assert c1.symbols.tolist() == [1, 2]
    assert c2.symbols.tolist() == [3, 4]
    with pytest.raises(AttributeError):
        pad.consumed = 0  # cursor cannot be rewound


def test_synchronized_pads_decrypt():
    rng = np.random.default_rng(5)
    key = rng.integers(0, 2, size=64)
    alice_pad = Pad(key, 2)
    bob_pad = Pad(key, 2)
    m1 = Message(rng.integers(0, 2, size=24), 2)
    m2 = Message(rng.integers(0, 2, size=40), 2)
    c1, _ = encrypt(m1, alice_pad)
    c2, _ = encrypt(m2, alice_pad)
    p1, _ = decrypt(c1, bob_pad)
    p2, _ = decrypt(c2, bob_pad)
    assert np.array_equal(p1.symbols, m1.symbols)
    assert np.array_equal(p2.symbols, m2.symbols)


def test_ascii_encode_single_char():
    m = ascii_encode("A")
    assert m.symbols.tolist() == [0, 1, 0, 0, 0, 0, 0, 1]


def test_ascii_roundtrip():
    rng = np.random.default_rng(6)
    chars = [chr(c) for c in range(32, 127)]
    for _ in range(20):
        s = "".join(rng.choice(chars, size=int(rng.integers(1, 50))))
        assert ascii_decode(ascii_encode(s)) == s
    assert len(ascii_encode("")) == 0


def test_ascii_rejects_non_encodable():
    with pytest.raises(EncodingError):
        ascii_encode("café")
    with pytest.raises(EncodingError):
        ascii_encode("\x07")


def bytes_msg(raw: bytes) -> Message:
    return Message(np.unpackbits(np.frombuffer(raw, np.uint8)), 2)


def test_ascii_decode_refuses_a_terminal_escape():
    # ESC [ 2 J clears a terminal
    with pytest.raises(EncodingError, match=r"character '\\x1b' is not 7-bit printable"):
        ascii_decode(bytes_msg(bytes.fromhex("1b5b324a")))


def test_ascii_decode_refuses_exactly_what_ascii_encode_refuses():
    for code in range(128):
        text = f"a{chr(code)}b"
        try:
            encoded = ascii_encode(text)
        except EncodingError:
            with pytest.raises(EncodingError):
                ascii_decode(bytes_msg(text.encode("ascii")))
        else:
            assert ascii_decode(encoded) == text
    with pytest.raises(EncodingError, match="do not decode as ASCII"):
        ascii_decode(bytes_msg(b"\x80"))


def test_pad_from_key_base2():
    bits = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
    pad = pad_from_key(bits)
    assert len(pad) == 8 and pad.base == 2
    c, _ = encrypt(Message(np.zeros(8, dtype=int), 2), pad)
    assert np.array_equal(c.symbols, bits)


def test_pad_from_key_shortfall():
    bits = np.ones(20, dtype=np.uint8)
    with pytest.raises(PadDepletedError):
        pad_from_key(bits, n_symbols=21)
    pad = pad_from_key(bits, n_symbols=16)
    assert len(pad) == 16


def test_ciphertext_uniformity_proxy():
    # fixed plaintext under fresh random pads: every ciphertext symbol
    # should be as likely as any other
    rng = np.random.default_rng(8)
    plain = letters_msg("ATTACKATDAWN")
    all_symbols = []
    for _ in range(10_000):
        pad = Pad(rng.integers(0, 26, size=len(plain)), 26)
        c, _ = encrypt(plain, pad)
        all_symbols.append(c.symbols)
    counts = np.bincount(np.concatenate(all_symbols), minlength=26)
    assert stats.chisquare(counts).pvalue > 0.01
