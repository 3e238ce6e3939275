"""NVM and DRAM device models: remanence, wear, DCW/FNW, energy."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DRAMConfig, NVMConfig
from repro.errors import AddressError, AlignmentError, EnduranceExceededError
from repro.mem import DRAMDevice, NVMDevice
from repro.mem import nvm as nvm_module


def nvm(write_scheme="fnw", functional=True, endurance=10_000_000, **kw):
    config = NVMConfig(capacity_bytes=1 << 20, endurance_writes=endurance)
    return NVMDevice(config, functional=functional,
                     write_scheme=write_scheme, **kw)


class TestBasicStorage:
    def test_unwritten_reads_zero(self):
        assert nvm().read_block(0) == bytes(64)

    def test_write_read_roundtrip(self):
        device = nvm()
        device.write_block(128, bytes(range(64)))
        assert device.read_block(128) == bytes(range(64))

    def test_peek_poke_bypass_stats(self):
        device = nvm()
        device.poke(0, b"\x01" * 64)
        assert device.peek(0) == b"\x01" * 64
        assert device.stats.reads == 0
        assert device.stats.writes == 0

    def test_misaligned_rejected(self):
        with pytest.raises(AlignmentError):
            nvm().read_block(3)

    def test_out_of_range_rejected(self):
        with pytest.raises(AddressError):
            nvm().read_block(1 << 20)

    def test_wrong_payload_size(self):
        with pytest.raises(AddressError):
            nvm().write_block(0, b"short")


class TestRemanence:
    def test_nvm_retains_after_power_cycle(self):
        device = nvm()
        device.write_block(0, b"\x42" * 64)
        device.power_cycle()
        assert device.peek(0) == b"\x42" * 64, \
            "NVM data remanence: contents survive power-off"

    def test_dram_loses_after_power_cycle(self):
        device = DRAMDevice(DRAMConfig(capacity_bytes=1 << 20))
        device.write_block(0, b"\x42" * 64)
        device.power_cycle()
        assert device.peek(0) == bytes(64), "DRAM is volatile"


class TestWear:
    def test_wear_counted_per_line(self):
        device = nvm()
        for _ in range(5):
            device.write_block(0, bytes(64))
        device.write_block(64, bytes(64))
        assert device.wear[0] == 5
        assert device.wear[64] == 1
        assert device.max_wear() == 5

    def test_endurance_exceeded_raises_when_enabled(self):
        device = nvm(endurance=3, fail_on_endurance=True)
        for _ in range(3):
            device.write_block(0, bytes(64))
        with pytest.raises(EnduranceExceededError):
            device.write_block(0, bytes(64))

    def test_endurance_recorded_when_not_raising(self):
        device = nvm(endurance=2)
        for _ in range(4):
            device.write_block(0, bytes(64))
        assert device.worn_out_lines == 1

    def test_lifetime_fraction(self):
        device = nvm(endurance=10)
        for _ in range(5):
            device.write_block(0, bytes(64))
        assert device.lifetime_fraction_used() == pytest.approx(0.5)

    def test_wear_spread_even(self):
        device = nvm()
        for line in range(8):
            device.write_block(line * 64, bytes(64))
        assert device.wear_spread() == pytest.approx(1.0)


class TestWriteSchemes:
    def test_naive_programs_all_bits(self):
        device = nvm(write_scheme="naive")
        bits = device.write_block(0, bytes(64))
        assert bits == 64 * 8

    def test_dcw_skips_unchanged_bits(self):
        device = nvm(write_scheme="dcw")
        device.write_block(0, bytes(64))
        bits = device.write_block(0, bytes(64))     # identical rewrite
        assert bits == 0

    def test_dcw_counts_flipped_bits(self):
        device = nvm(write_scheme="dcw")
        device.write_block(0, bytes(64))
        bits = device.write_block(0, b"\x01" + bytes(63))
        assert bits == 1

    def test_fnw_never_worse_than_half_plus_flips(self):
        device = nvm(write_scheme="fnw")
        device.write_block(0, bytes(64))
        # All-ones write: DCW would flip 512 bits; FNW flips the flip
        # bits instead and programs at most half + flip bits.
        bits = device.write_block(0, b"\xff" * 64)
        assert bits <= 64 * 8 // 2 + 16

    def test_fnw_roundtrip_with_flip_state(self):
        device = nvm(write_scheme="fnw")
        device.write_block(0, b"\xff" * 64)
        device.write_block(0, bytes(range(64)))
        assert device.read_block(0) == bytes(range(64))

    def test_timing_mode_estimates(self):
        device = nvm(write_scheme="fnw", functional=False)
        bits = device.write_block(0, None)
        assert 0 < bits <= 64 * 8

    def test_encrypted_data_defeats_dcw(self):
        """Diffusion flips ~half the bits, so DCW saves little —
        the observation motivating Silent Shredder (Young et al.)."""
        from repro.crypto import CounterModeEngine, XorShiftCipher
        engine = CounterModeEngine(XorShiftCipher(b"k" * 16), 64)
        device = nvm(write_scheme="dcw")
        plaintext = bytes(64)
        iv1 = (1 << 8).to_bytes(16, "big")
        iv2 = (2 << 8).to_bytes(16, "big")
        device.write_block(0, engine.encrypt(plaintext, iv1))
        bits = device.write_block(0, engine.encrypt(plaintext, iv2))
        assert bits > 64 * 8 // 4, \
            "same plaintext re-encrypted flips a large share of bits"


def reference_programmed_bits(scheme, old, new, flip_state):
    """Reference bit count, one word and two popcounts at a time:
    returns (bits programmed, new flip state)."""
    if scheme == "naive":
        return 64 * 8, flip_state
    old_int = int.from_bytes(old, "little")
    new_int = int.from_bytes(new, "little")
    if scheme == "dcw":
        return bin(old_int ^ new_int).count("1"), flip_state
    mask = (1 << 32) - 1
    flips = 0
    new_flip_state = 0
    for w in range(16):
        shift = w * 32
        old_word = (old_int >> shift) & mask
        stored = old_word ^ (mask if (flip_state >> w) & 1 else 0)
        new_word = (new_int >> shift) & mask
        direct = bin(stored ^ new_word).count("1")
        flipped = bin(stored ^ (new_word ^ mask)).count("1")
        if flipped + 1 < direct:
            flips += flipped + 1
            new_flip_state |= 1 << w
        else:
            flips += direct
    return flips, new_flip_state


line_payloads = st.one_of(
    st.binary(min_size=64, max_size=64),
    st.sampled_from([bytes(64), b"\xff" * 64, b"\x0f" * 64,
                     b"\xff\xff\x00\x00" * 16]),
    # Words with popcounts around the 16/17 flip threshold.
    st.lists(st.sampled_from([0x0000FFFF, 0x0001FFFF, 0xFFFF0000,
                              0x7FFF8000, 0xFFFFFFFF, 0]),
             min_size=16, max_size=16).map(
        lambda words: b"".join(w.to_bytes(4, "little") for w in words)))


class TestFlipNWriteEquivalence:
    """The one-popcount FNW count against the per-word reference, with
    the flip state evolving over a sequence of writes to one line."""

    @pytest.mark.parametrize("popcount", ["native", "fallback"])
    @pytest.mark.parametrize("scheme", ["fnw", "dcw", "naive"])
    @settings(max_examples=60, deadline=None)
    @given(st.lists(line_payloads, min_size=1, max_size=12))
    def test_sequence_matches_reference(self, scheme, popcount, payloads):
        with pytest.MonkeyPatch.context() as patch:
            if popcount == "fallback":
                patch.setattr(nvm_module, "_popcount",
                              nvm_module._popcount_fallback)
            device = nvm(write_scheme=scheme)
            old, flip_state = bytes(64), 0
            for payload in payloads:
                expected, flip_state = reference_programmed_bits(
                    scheme, old, payload, flip_state)
                assert device.write_block(128, payload) == expected
                assert device._flip_state.get(128, 0) == flip_state
                old = payload
        assert device.read_block(128) == payloads[-1]


class TestEnergy:
    def test_write_energy_exceeds_read(self):
        device = nvm()
        device.read_block(0)
        device.write_block(0, bytes(64))
        assert device.stats.write_energy_pj > device.stats.read_energy_pj

    def test_energy_accumulates(self):
        device = nvm()
        for i in range(10):
            device.read_block(i * 64)
        assert device.stats.read_energy_pj == pytest.approx(
            10 * device.read_energy_pj)

    def test_dram_refresh_energy(self):
        device = DRAMDevice(DRAMConfig())
        assert device.refresh_energy_pj(1000.0) > 0
