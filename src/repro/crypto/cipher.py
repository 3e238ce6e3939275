"""Block-cipher interface and the fast keyed diffusion cipher.

Counter-mode encryption only requires a keyed pseudorandom permutation of
the IV to generate pads. For large timing simulations we substitute real
AES with :class:`XorShiftCipher`, a splitmix64-based keyed permutation.
It is emphatically **not** cryptographically secure, but it has the two
properties the simulation relies on:

* determinism under a key (same IV -> same pad), and
* diffusion (flipping one IV bit scrambles the whole pad),

which is exactly what the Silent Shredder correctness argument uses
(decrypting with a changed IV yields an uncorrelated block). DESIGN.md
documents this substitution; security tests run against real AES.
"""

from __future__ import annotations

import abc
import struct

from ..errors import CipherError

_MASK64 = (1 << 64) - 1
# splitmix64 constants: the golden-ratio increment and the two multipliers.
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_unpack_lanes = struct.Struct("<QQ").unpack
_pack_lanes = struct.Struct("<QQ").pack


class BlockCipher(abc.ABC):
    """A 16-byte-block keyed permutation used for pad generation."""

    block_size: int = 16
    name: str = "abstract"

    @abc.abstractmethod
    def encrypt_block(self, plaintext: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""

    @abc.abstractmethod
    def decrypt_block(self, ciphertext: bytes) -> bytes:
        """Decrypt exactly one 16-byte block."""

    def encrypt_segments(self, prefix: bytes, count: int) -> bytes:
        """Encrypt ``prefix + bytes((i,))`` for ``i < count``, concatenated.

        The counter-mode engine's whole-pad call: ``prefix`` is an IV
        without its last byte, and the segment index fills that byte.
        Ciphers that can share work between segments override this.
        """
        return b"".join(self.encrypt_block(prefix + bytes((i,)))
                        for i in range(count))


def _splitmix64(value: int) -> int:
    """One splitmix64 finalization round: a strong 64-bit mixer.

    :class:`XorShiftCipher` inlines these rounds on its pad path; this
    function is the reference they must match.
    """
    value = (value + _GOLDEN) & _MASK64
    value = ((value ^ (value >> 30)) * _MIX1) & _MASK64
    value = ((value ^ (value >> 27)) * _MIX2) & _MASK64
    return value ^ (value >> 31)


class XorShiftCipher(BlockCipher):
    """Fast keyed diffusion permutation over 16-byte blocks.

    Pads are produced as two mixed 64-bit lanes seeded by the key and the
    IV halves, with cross-lane mixing so every IV bit affects every output
    bit. ``decrypt_block`` is unsupported (counter mode never inverts the
    cipher: both directions XOR with a freshly generated pad).
    """

    name = "xorshift"

    def __init__(self, key: bytes) -> None:
        if len(key) != 16:
            raise CipherError(f"XorShiftCipher needs a 16-byte key, got {len(key)}")
        k0, k1 = struct.unpack("<QQ", key)
        self._k0 = _splitmix64(k0)
        self._k1 = _splitmix64(k1 ^ 0xA5A5A5A5A5A5A5A5)

    # Both encryption paths inline the splitmix64 rounds (the reference
    # is _splitmix64): a = mix(v0 ^ k0), b = mix(v1 ^ k1), then the
    # cross-lane outputs mix(a ^ (b >> 1) ^ k1) and mix(b ^ (a << 1) ^ k0),
    # so each output lane depends on both input lanes.

    def encrypt_block(self, plaintext: bytes) -> bytes:
        if len(plaintext) != 16:
            raise CipherError("block must be exactly 16 bytes")
        v0, v1 = _unpack_lanes(plaintext)
        k0 = self._k0
        k1 = self._k1
        z = ((v0 ^ k0) + _GOLDEN) & _MASK64
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        a = z ^ (z >> 31)
        z = ((v1 ^ k1) + _GOLDEN) & _MASK64
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        b = z ^ (z >> 31)
        z = ((a ^ (b >> 1) ^ k1) + _GOLDEN) & _MASK64
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        out0 = z ^ (z >> 31)
        z = ((b ^ (a << 1 & _MASK64) ^ k0) + _GOLDEN) & _MASK64
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return _pack_lanes(out0, z ^ (z >> 31))

    def encrypt_segments(self, prefix: bytes, count: int) -> bytes:
        if len(prefix) != 15 or not 0 <= count <= 256:
            raise CipherError("segments need a 15-byte prefix and at most "
                              "256 segments")
        # The segment index is the block's last byte, i.e. the top byte
        # of lane v1, so lane a is computed once for the whole pad.
        v0, v1 = _unpack_lanes(prefix + b"\x00")
        k0 = self._k0
        k1 = self._k1
        z = ((v0 ^ k0) + _GOLDEN) & _MASK64
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        a = z ^ (z >> 31)
        a_k1 = a ^ k1
        a_k0 = (a << 1 & _MASK64) ^ k0
        lanes = []
        for segment in range(count):
            z = (((v1 | segment << 56) ^ k1) + _GOLDEN) & _MASK64
            z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
            z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
            b = z ^ (z >> 31)
            z = ((a_k1 ^ (b >> 1)) + _GOLDEN) & _MASK64
            z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
            z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
            lanes.append(z ^ (z >> 31))
            z = ((b ^ a_k0) + _GOLDEN) & _MASK64
            z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
            z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
            lanes.append(z ^ (z >> 31))
        return struct.pack(f"<{2 * count}Q", *lanes)

    def decrypt_block(self, ciphertext: bytes) -> bytes:
        raise CipherError("XorShiftCipher is pad-generation-only (counter mode)")


class NullCipher(BlockCipher):
    """Identity cipher: pads are the IV itself. Only for plumbing tests."""

    name = "null"

    def __init__(self, key: bytes = b"\x00" * 16) -> None:
        if len(key) != 16:
            raise CipherError("NullCipher still requires a 16-byte key")

    def encrypt_block(self, plaintext: bytes) -> bytes:
        if len(plaintext) != 16:
            raise CipherError("block must be exactly 16 bytes")
        return plaintext

    def decrypt_block(self, ciphertext: bytes) -> bytes:
        if len(ciphertext) != 16:
            raise CipherError("block must be exactly 16 bytes")
        return ciphertext


def make_cipher(name: str, key: bytes) -> BlockCipher:
    """Instantiate a cipher by configuration name.

    ``"aes"`` -> real AES-128, ``"xorshift"`` -> fast diffusion cipher,
    ``"null"`` -> identity (tests only).
    """
    if name == "aes":
        from .aes import AES128
        return AES128(key)
    if name == "xorshift":
        return XorShiftCipher(key)
    if name == "null":
        return NullCipher(key)
    raise CipherError(f"unknown cipher {name!r}")
