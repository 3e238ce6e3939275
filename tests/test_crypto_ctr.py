"""Counter-mode engine and the fast ciphers."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import (AES128, BlockCipher, CounterModeEngine, NullCipher,
                          XorShiftCipher, make_cipher, xor_bytes)
from repro.crypto.cipher import _splitmix64
from repro.errors import CipherError

KEY = b"silent-shredder!"


def make_iv(value: int) -> bytes:
    """A 16-byte IV whose final padding byte is zero."""
    return (value << 8).to_bytes(16, "big")


class TestXorBytes:
    def test_basic(self):
        assert xor_bytes(b"\x0f\xf0", b"\xff\xff") == b"\xf0\x0f"

    def test_identity(self):
        data = bytes(range(64))
        assert xor_bytes(data, bytes(64)) == data

    def test_self_inverse(self):
        a, b = bytes(range(32)), bytes(range(100, 132))
        assert xor_bytes(xor_bytes(a, b), b) == a

    def test_length_mismatch(self):
        with pytest.raises(CipherError):
            xor_bytes(b"ab", b"abc")

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 130).flatmap(
        lambda n: st.tuples(st.binary(min_size=n, max_size=n),
                            st.binary(min_size=n, max_size=n))))
    def test_matches_bytewise_reference(self, operands):
        a, b = operands
        assert xor_bytes(a, b) == bytes(x ^ y for x, y in zip(a, b))


class TestXorShiftCipher:
    def test_deterministic(self):
        cipher = XorShiftCipher(b"k" * 16)
        block = bytes(range(16))
        assert cipher.encrypt_block(block) == cipher.encrypt_block(block)

    def test_key_sensitivity(self):
        block = bytes(range(16))
        assert XorShiftCipher(b"a" * 16).encrypt_block(block) != \
            XorShiftCipher(b"b" * 16).encrypt_block(block)

    def test_diffusion(self):
        cipher = XorShiftCipher(b"k" * 16)
        base = cipher.encrypt_block(bytes(16))
        flipped = cipher.encrypt_block(bytes([1] + [0] * 15))
        differing = sum(bin(x ^ y).count("1") for x, y in zip(base, flipped))
        assert differing >= 32

    def test_decrypt_unsupported(self):
        with pytest.raises(CipherError):
            XorShiftCipher(b"k" * 16).decrypt_block(bytes(16))

    def test_bad_key(self):
        with pytest.raises(CipherError):
            XorShiftCipher(b"short")

    # (key, block, ciphertext) known answers for the keystream.
    KNOWN_ANSWERS = [
        (KEY, bytes(16), "bc0f481a8fc4b2b75d53dc9dabf0c75c"),
        (KEY, bytes(range(16)), "017ec9927e68f4fc59c3efe31a9b256e"),
        (KEY, b"\xff" * 16, "80ce65d7edae66404f6e4c10c0903713"),
        (KEY, bytes(15) + b"\x03", "69f219eb0740e8d5d50b7e72524a88e9"),
        (bytes(16), bytes(16), "f555a3a48912ce59f0295094e921406f"),
        (bytes(16), b"\xff" * 16, "37fa17a3ef38c04c28681ddf62fb1af6"),
        (bytes(range(16)), bytes(range(16)),
         "94f9288ffba22890a53e075858bc1d9a"),
        (bytes(range(16)), bytes(15) + b"\x03",
         "286eb88a64d8c20c729a7bcfac3a67e3"),
    ]

    @pytest.mark.parametrize("key,block,expected", KNOWN_ANSWERS)
    def test_known_answers(self, key, block, expected):
        assert XorShiftCipher(key).encrypt_block(block).hex() == expected

    @settings(max_examples=100, deadline=None)
    @given(st.binary(min_size=16, max_size=16),
           st.binary(min_size=16, max_size=16))
    def test_matches_splitmix64_reference(self, key, block):
        k0, k1 = struct.unpack("<QQ", key)
        k0, k1 = _splitmix64(k0), _splitmix64(k1 ^ 0xA5A5A5A5A5A5A5A5)
        v0, v1 = struct.unpack("<QQ", block)
        a, b = _splitmix64(v0 ^ k0), _splitmix64(v1 ^ k1)
        expected = struct.pack(
            "<QQ", _splitmix64(a ^ (b >> 1) ^ k1),
            _splitmix64(b ^ (a << 1 & (1 << 64) - 1) ^ k0))
        assert XorShiftCipher(key).encrypt_block(block) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.binary(min_size=16, max_size=16),
           st.binary(min_size=15, max_size=15), st.integers(1, 4))
    def test_segments_match_default_loop(self, key, prefix, count):
        cipher = XorShiftCipher(key)
        assert cipher.encrypt_segments(prefix, count) == \
            BlockCipher.encrypt_segments(cipher, prefix, count)

    @pytest.mark.parametrize("prefix,count", [
        (bytes(14), 4), (bytes(16), 4), (bytes(15), 257), (bytes(15), -1)],
        ids=["short-prefix", "long-prefix", "too-many", "negative"])
    def test_segments_reject_bad_shape(self, prefix, count):
        with pytest.raises(CipherError):
            XorShiftCipher(KEY).encrypt_segments(prefix, count)


class TestMakeCipher:
    @pytest.mark.parametrize("name,cls", [
        ("aes", AES128), ("xorshift", XorShiftCipher), ("null", NullCipher)])
    def test_factory(self, name, cls):
        assert isinstance(make_cipher(name, b"0" * 16), cls)

    def test_unknown(self):
        with pytest.raises(CipherError):
            make_cipher("rot13", b"0" * 16)


class TestCounterModeEngine:
    @pytest.fixture
    def engine(self):
        return CounterModeEngine(XorShiftCipher(b"silent-shredder!"), 64)

    def test_roundtrip(self, engine):
        data = bytes(range(64))
        iv = make_iv(42)
        assert engine.decrypt(engine.encrypt(data, iv), iv) == data

    def test_different_iv_garbles(self, engine):
        data = bytes(range(64))
        ciphertext = engine.encrypt(data, make_iv(1))
        wrong = engine.decrypt(ciphertext, make_iv(2))
        assert wrong != data

    def test_pad_segments_differ(self, engine):
        pad = engine.pad_for_iv(make_iv(7))
        segments = [pad[i:i + 16] for i in range(0, 64, 16)]
        assert len(set(segments)) == 4

    def test_same_iv_same_pad(self, engine):
        assert engine.pad_for_iv(make_iv(3)) == engine.pad_for_iv(make_iv(3))

    def test_pad_counter_increments(self, engine):
        before = engine.pads_generated
        engine.pad_for_iv(make_iv(9))
        assert engine.pads_generated == before + 1

    def test_nonzero_padding_rejected(self, engine):
        bad_iv = bytes(15) + b"\x01"
        with pytest.raises(CipherError):
            engine.pad_for_iv(bad_iv)

    def test_wrong_block_size(self, engine):
        with pytest.raises(CipherError):
            engine.encrypt(bytes(32), make_iv(1))

    def test_aes_engine_roundtrip(self):
        engine = CounterModeEngine(AES128(b"silent-shredder!"), 64)
        data = bytes((i * 37) % 256 for i in range(64))
        iv = make_iv(123456)
        ciphertext = engine.encrypt(data, iv)
        assert ciphertext != data
        assert engine.decrypt(ciphertext, iv) == data

    def test_block_size_must_divide(self):
        with pytest.raises(CipherError):
            CounterModeEngine(XorShiftCipher(b"k" * 16), block_size=40)

    def test_wrong_iv_length_rejected(self, engine):
        with pytest.raises(CipherError):
            engine.pad_for_iv(bytes(15))

    def test_rejected_iv_generates_no_pad(self, engine):
        for bad_iv in (bytes(17), bytes(15) + b"\x01"):
            with pytest.raises(CipherError):
                engine.pad_for_iv(bad_iv)
        assert engine.pads_generated == 0

    def test_pads_for_ivs_counts_each_pad(self, engine):
        ivs = [make_iv(i) for i in range(5)]
        assert engine.pads_for_ivs(ivs) == [engine.pad_for_iv(iv)
                                            for iv in ivs]
        assert engine.pads_generated == 10


class TestPadKnownAnswers:
    """Whole 64-byte pads as known answers, one per cipher."""

    def test_xorshift_pad(self):
        engine = CounterModeEngine(XorShiftCipher(KEY), 64)
        assert engine.pad_for_iv(make_iv(123456)).hex() == (
            "9e6c2ddb1325a7b2f0a2842078f1676a5e2745b4106ad43cab76354586c93f76"
            "1f7ed001e5c307c0ac3bef3124f9f7eff05dcc901f6f10f5e841ce8cc869a98d")

    def test_aes_pads(self):
        engine = CounterModeEngine(AES128(KEY), 64)
        assert engine.pad_for_iv(make_iv(123456)).hex() == (
            "eccbbb7f99828d9c3eebb7ac7461369b5d7d1a3977cbd9fd255ab37bc692ae6c"
            "fb4879cf62e4567925e68296102d0776db9fad4d202be25c8dfa304e493c5fd6")
        assert engine.pad_for_iv(bytes(range(1, 16)) + b"\x00").hex() == (
            "3dcf92cf7187c2e39bb0131bcaedda8ee469f3f7b4bddbe90f10fbedbf2bd248"
            "4180c2703910f0b8c76e64a3387be649d38f4c21b1b17a7677a245a4f3ef1dac")

    @given(st.binary(min_size=15, max_size=15))
    def test_null_pad_is_the_stamped_ivs(self, prefix):
        engine = CounterModeEngine(NullCipher(), 64)
        assert engine.pad_for_iv(prefix + b"\x00") == b"".join(
            prefix + bytes((segment,)) for segment in range(4))
