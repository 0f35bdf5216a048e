"""Unit tests for the DRAM/Avalon timing model."""

import numpy as np
import pytest

from repro.ir.types import BOOL, FLOAT32, vector
from repro.sim.config import DramConfig, SimConfig
from repro.sim.interp import _elem_bytes
from repro.sim.memory import (
    BASE_LATENCY, ROW_MISS_PENALTY, ExternalMemory, PortSet,
)


def make_memory(**kwargs) -> ExternalMemory:
    return ExternalMemory(DramConfig(**kwargs))


class TestAllocation:
    def test_buffers_get_distinct_ranges(self):
        memory = make_memory()
        a = memory.allocate("a", np.zeros(1024, dtype=np.float32))
        b = memory.allocate("b", np.zeros(1024, dtype=np.float32))
        assert a.base_addr != b.base_addr
        assert abs(a.base_addr - b.base_addr) >= 4096

    def test_lookup(self):
        memory = make_memory()
        memory.allocate("x", np.zeros(4, dtype=np.float32))
        assert memory.buffer("x").name == "x"


class TestTiming:
    def test_latency_floor(self):
        memory = make_memory()
        done = memory.access_time(0, 0x1000_0000, 4, False)
        assert done >= BASE_LATENCY + 1

    def test_row_hit_cheaper_than_miss(self):
        memory = make_memory()
        first = memory.access_time(0, 0x1000_0000, 4, False)
        # same row again, arriving just after
        second = memory.access_time(first, 0x1000_0010, 4, False)
        assert (second - first) < first  # no second activation

    def test_row_misses_counted(self):
        memory = make_memory(row_bytes=256)
        memory.access_time(0, 0x1000_0000, 4, False)
        memory.access_time(0, 0x1000_0000 + 256 * 64, 4, False)
        assert memory.row_misses == 2

    @pytest.mark.parametrize("row_bytes, misses", [(256, 2), (2048, 1)])
    def test_row_bytes_sets_the_open_row_span(self, row_bytes, misses):
        """1 KiB apart is another bank on 256 B rows (the scaled
        default), but the same open row on the D5005's 2 KiB rows."""

        memory = make_memory(row_bytes=row_bytes)
        memory.access_time(0, 0x1000_0000, 4, False)
        memory.access_time(0, 0x1000_0000 + 1024, 4, False)
        assert memory.row_misses == misses

    def test_same_bank_serializes(self):
        cfg = dict(row_bytes=256, banks_per_channel=2, channels=1,
                   interleave_bytes=256)
        memory = make_memory(**cfg)
        stride = 256 * 2  # same bank, next row
        t1 = memory.access_time(0, 0x1000_0000, 4, False)
        t2 = memory.access_time(0, 0x1000_0000 + stride, 4, False)
        assert t2 > t1

    def test_different_banks_overlap_activation(self):
        memory = make_memory(row_bytes=256, banks_per_channel=16,
                             channels=1, interleave_bytes=1 << 30)
        times = [memory.access_time(0, 0x1000_0000 + i * 256, 4, False)
                 for i in range(4)]
        # bank activations overlap: spacing is transfer-bound, much smaller
        # than a full activation each
        spacings = np.diff(times)
        assert all(s <= ROW_MISS_PENALTY for s in spacings)

    def test_channels_parallel(self):
        one = make_memory(channels=1)
        four = make_memory(channels=4)
        end_one = end_four = 0
        for i in range(16):
            addr = 0x1000_0000 + i * one.config.interleave_bytes
            end_one = max(end_one, one.access_time(0, addr, 64, False))
            end_four = max(end_four, four.access_time(0, addr, 64, False))
        assert end_four < end_one

    def test_wide_request_occupies_longer(self):
        memory = make_memory()
        t1 = memory.access_time(0, 0x1000_0000, 64, False)
        t2 = memory.access_time(t1, 0x1000_0000, 1024, False)
        assert (t2 - t1) > 4

    def test_statistics(self):
        memory = make_memory()
        memory.access_time(0, 0x1000_0000, 64, False)
        memory.access_time(0, 0x1000_0000, 16, True)
        assert memory.bytes_read == 64
        assert memory.bytes_written == 16
        assert memory.requests == 2

    def test_quiesce_after_traffic(self):
        memory = make_memory()
        done = memory.access_time(0, 0x1000_0000, 64, False)
        assert memory.quiesce_time() >= done - 0  # drained at/after completion


class TestPortSet:
    def test_in_order_completion(self):
        memory = make_memory()
        ports = PortSet(memory, SimConfig(), threads=2)
        # a slow (row miss) then fast (row hit) request: the second may
        # not complete before the first
        c1 = ports.request(0, 0, 0x1000_0000, 4, False)
        c2 = ports.request(0, 1, 0x1000_0004, 4, False)
        assert c2 >= c1

    def test_outstanding_limit_backpressure(self):
        memory = make_memory()
        sim = SimConfig(port_outstanding=2)
        ports = PortSet(memory, sim, threads=1)
        completions = [ports.request(0, 0, 0x1000_0000 + 8192 * i, 4, False)
                       for i in range(8)]
        # all issued at t=0 but the port only keeps 2 in flight: the later
        # completions are pushed out
        assert completions[-1] > completions[1]

    def test_threads_have_separate_ports(self):
        memory = make_memory()
        ports = PortSet(memory, SimConfig(), threads=2)
        c0 = ports.request(0, 0, 0x1000_0000, 4, False)
        # thread 1's port is not serialized behind thread 0's completions
        c1 = ports.request(1, 0, 0x2000_0000, 4, False)
        assert c1 <= c0 + ROW_MISS_PENALTY + BASE_LATENCY

    def test_read_write_ports_independent(self):
        memory = make_memory()
        ports = PortSet(memory, SimConfig(port_outstanding=1), threads=1)
        ports.request(0, 0, 0x1000_0000, 4, False)
        write_done = ports.request(0, 0, 0x1000_2000, 4, True)
        # the write port has its own outstanding budget
        assert write_done > 0


class TestElementBytes:
    """Bytes per element of a memory op, as the fast path sizes its DRAM
    requests."""

    def test_scalar(self):
        assert _elem_bytes(FLOAT32) == 4
        assert _elem_bytes(BOOL) == 1

    def test_vector_is_per_element(self):
        assert _elem_bytes(vector(FLOAT32, 4)) == 4
