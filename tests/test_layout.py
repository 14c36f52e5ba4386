"""Tests for volume layout computation, formatting, and the Fig. 1
renderer, plus the ascii chart helper."""

import pytest

from repro.core import (
    ExtentFreeList,
    InodeTable,
    VolumeLayout,
    format_volume,
    render_layout,
)
from repro.bench import MeasurementTable, ascii_chart
from repro.disk import VirtualDisk
from repro.errors import BadRequestError
from repro.sim import Environment
from repro.units import KB, MB

from conftest import SMALL_DISK


def make_disk(env):
    return VirtualDisk(env, SMALL_DISK, name="d")


def test_layout_partitions_disk(env):
    disk = make_disk(env)
    layout = VolumeLayout.for_disk(disk, inode_count=256)
    # 256 inodes x 16 bytes = 4 KB = 8 blocks of 512.
    assert layout.inode_table_blocks == 8
    assert layout.data_start == 8
    assert layout.data_blocks == disk.total_blocks - 8
    assert layout.inode_table_start == 0


def test_layout_descriptor_round_trip(env):
    disk = make_disk(env)
    layout = VolumeLayout.for_disk(disk, inode_count=256)
    desc = layout.descriptor
    assert desc.block_size == 512
    assert desc.control_size == layout.inode_table_blocks
    assert desc.data_size == layout.data_blocks


def test_layout_rejects_oversized_inode_table(env):
    disk = make_disk(env)
    with pytest.raises(BadRequestError):
        VolumeLayout.for_disk(disk, inode_count=10_000_000)


def test_blocks_for_rounds_up(env):
    disk = make_disk(env)
    layout = VolumeLayout.for_disk(disk, inode_count=256)
    assert layout.blocks_for(0) == 0
    assert layout.blocks_for(1) == 1
    assert layout.blocks_for(512) == 1
    assert layout.blocks_for(513) == 2


def test_format_volume_writes_decodable_table(env):
    disk = make_disk(env)
    table = format_volume(disk, inode_count=256)
    raw = disk.read_raw(0, table.table_blocks)
    decoded = InodeTable.decode(raw, disk.block_size)
    assert decoded.live_count == 0
    assert decoded.free_count == 255
    assert decoded.descriptor == table.descriptor


def test_render_layout_empty_volume(env):
    disk = make_disk(env)
    table = format_volume(disk, inode_count=256)
    freelist = ExtentFreeList(8, disk.total_blocks - 8)
    art = render_layout(table, freelist)
    assert "Disk Descriptor" in art
    assert "free" in art
    # A box: every line same width.
    widths = {len(line) for line in art.splitlines()}
    assert len(widths) == 1


def test_render_layout_truncates_long_listings(env):
    disk = make_disk(env)
    table = format_volume(disk, inode_count=256)
    freelist = ExtentFreeList(8, disk.total_blocks - 8)
    for i in range(40):
        start = freelist.allocate(2)
        table.allocate(secret=i + 1, start_block=start, size=1024)
    art = render_layout(table, freelist, max_rows=10)
    assert "more inodes" in art
    assert "more segments" in art


def test_ascii_chart_scales_and_labels():
    table = MeasurementTable(title="T", columns=["READ"])
    table.record(1 * KB, "READ", 0.01)       # 100 KB/s
    table.record(1 * MB, "READ", 2.0)        # 512 KB/s
    chart = ascii_chart({"series": table}, {"series": "READ"})
    lines = chart.splitlines()
    assert any("1 Kbytes" in line for line in lines)
    assert any("1 Mbyte" in line for line in lines)
    bars = [line for line in lines if "#" in line]
    assert len(bars) == 2
    # The 512 KB/s bar is the full width; the 100 KB/s one shorter.
    assert max(line.count("#") for line in bars) == 56
    assert min(line.count("#") for line in bars) < 14


def test_ascii_chart_empty():
    table = MeasurementTable(title="T", columns=["READ"])
    assert "(no data)" in ascii_chart({"s": table}, {"s": "READ"})
