"""Golden functional run: the encrypted datapath end to end.

A small Silent Shredder system runs a synthetic stream with payloads
and shreds through the counter-mode engine and the Flip-N-Write NVM.
The report digest, the stored ciphertext and the programmed-bit count
are pinned, so any change to pad generation, block XOR or the FNW
count that is not byte-identical fails here.
"""

import hashlib
import json

import pytest

from repro.config import fast_config
from repro.sim import AccessBatch, System

REPORT_SHA256 = \
    "5ec12c414ccd5d8181340eea2b1d2b9d471a5a0621b6e93274bcada39553f120"
LINES_SHA256 = \
    "d2f8d3911630ba9f30ac4c6ffc09106997540387d31d3f441dd98a37157f0348"
BITS_WRITTEN = 168657


@pytest.fixture(scope="module")
def golden_system():
    config = fast_config()
    system = System(config, shredder=True)
    batch = AccessBatch.synthetic(
        2000, num_pages=64, page_size=config.kernel.page_size,
        block_size=config.block_size, read_fraction=0.6,
        shred_fraction=0.02, seed=2016)
    system.access_engine().run(batch)
    return system


def test_stream_exercises_the_functional_path(golden_system):
    device = golden_system.machine.controller.device
    assert golden_system.config.functional
    assert device.write_scheme == "fnw"
    report = golden_system.report()
    assert report.shreds > 0 and report.zero_fill_reads > 0
    assert golden_system.machine.controller.engine.pads_generated > 0


def test_report_digest(golden_system):
    payload = json.dumps(golden_system.report().to_dict(), sort_keys=True,
                         separators=(",", ":"))
    assert hashlib.sha256(payload.encode("utf-8")).hexdigest() == \
        REPORT_SHA256


def test_stored_lines_digest(golden_system):
    lines = golden_system.machine.controller.device._lines
    digest = hashlib.sha256()
    for address in sorted(lines):
        digest.update(address.to_bytes(8, "little"))
        digest.update(lines[address])
    assert digest.hexdigest() == LINES_SHA256


def test_bits_written(golden_system):
    device = golden_system.machine.controller.device
    assert device.stats.bits_written == BITS_WRITTEN
