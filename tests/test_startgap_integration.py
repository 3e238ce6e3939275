"""Start-Gap wear levelling integrated under the secure controller."""

from dataclasses import replace

import pytest

from repro.config import fast_config
from repro.core import SilentShredderController


def make_controller(*, start_gap: bool, interval: int = 10,
                    region_lines: int = 16):
    config = fast_config()
    config = replace(config, nvm=replace(config.nvm, start_gap=start_gap,
                                         start_gap_interval=interval,
                                         start_gap_region_lines=region_lines))
    return SilentShredderController(config)


class TestFunctionalWithLevelling:
    def test_roundtrip_through_many_moves(self):
        controller = make_controller(start_gap=True, interval=3)
        for i in range(60):
            controller.store_block(0, bytes([i]) * 64)
        assert controller.fetch_block(0).data == bytes([59]) * 64

    def test_multiple_blocks_stay_separate(self):
        controller = make_controller(start_gap=True, interval=2)
        payloads = {i * 64: bytes([i + 1]) * 64 for i in range(8)}
        for address, payload in payloads.items():
            controller.store_block(address, payload)
        for _ in range(30):
            controller.store_block(0, b"\xEE" * 64)
        for address, payload in payloads.items():
            if address == 0:
                continue
            assert controller.fetch_block(address).data == payload

    def test_shred_still_works_with_levelling(self):
        controller = make_controller(start_gap=True, interval=3)
        controller.store_block(0, b"\x77" * 64)
        for _ in range(20):
            controller.store_block(64, b"\x88" * 64)
        controller.shred_page(0)
        assert controller.fetch_block(0).zero_filled
        assert controller.fetch_block(0).data == bytes(64)

    def test_counters_roundtrip_through_levelling(self):
        """The counter region is wear-levelled too; flushed counters
        must still load correctly."""
        controller = make_controller(start_gap=True, interval=4)
        controller.store_block(0, b"\x42" * 64)
        for _ in range(25):
            controller.store_block(128, b"\x43" * 64)
        controller.flush_counters()
        controller.counter_cache.invalidate(0)
        assert controller.fetch_block(0).data == b"\x42" * 64


class TestWearDistribution:
    def test_levelling_bounds_hot_line_wear(self):
        """A pathological single-line hot spot: Start-Gap caps the
        worst physical line's wear at roughly interval writes before
        rotation spreads it."""
        writes = 400
        with_gap = make_controller(start_gap=True, interval=4)
        without = make_controller(start_gap=False)
        for controller in (with_gap, without):
            for i in range(writes):
                controller.store_block(0, bytes([i % 256]) * 64)
        assert with_gap.device.max_wear() < without.device.max_wear() / 2

    def test_lifetime_extended(self):
        with_gap = make_controller(start_gap=True, interval=4)
        without = make_controller(start_gap=False)
        for controller in (with_gap, without):
            for i in range(300):
                controller.store_block(0, bytes([i % 256]) * 64)
        assert with_gap.device.lifetime_fraction_used() < \
            without.device.lifetime_fraction_used()


class TestMoveKeepsFlipBits:
    """A gap move migrates the physical cells: data and FNW flip bits."""

    def test_moved_line_rewrites_like_in_place(self):
        controller = make_controller(start_gap=True)
        device = controller.device
        device.write_block(0, b"\xff" * 64)     # every flip bit set
        controller.mem.wear_leveler.move_hook(0, 64)
        assert device.peek(64 * 64) == b"\xff" * 64
        moved = device.write_block(64 * 64, b"\xff" * 64)
        in_place = device.write_block(0, b"\xff" * 64)
        assert moved == in_place == 16

    def test_absent_source_leaves_destination_absent(self):
        controller = make_controller(start_gap=True)
        device = controller.device
        device.write_block(64 * 64, b"\xff" * 64)
        controller.mem.wear_leveler.move_hook(0, 64)
        assert device.peek(64 * 64) == bytes(64)
        assert 64 * 64 not in device._lines
        # The destination's flip bits went with its data: a fresh
        # line's direct write, no flip bits to undo.
        assert device.write_block(64 * 64, b"\x01" * 64) == 64

    def test_levelling_does_not_change_programmed_bits(self):
        """Moves carry flip state, so the logical write sequence costs
        the same cells with and without Start-Gap."""
        bits = []
        for start_gap in (False, True):
            controller = make_controller(start_gap=start_gap, interval=3)
            for i in range(200):
                controller.store_block((i % 20) * 64,
                                       bytes([(i * 37) % 256]) * 64)
            bits.append(controller.device.stats.bits_written)
        assert bits[0] == bits[1]
