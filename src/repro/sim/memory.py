"""External memory (DDR4 + Avalon) timing model and functional storage.

Timing and function are deliberately joined in one place:
:class:`ExternalMemory` owns the numpy buffers that back the OpenMP
``map`` clauses *and* the channel/bank timing state, so a load both
returns data and books controller occupancy.

The timing model (per :class:`~repro.sim.config.DramConfig`):

* requests are address-interleaved over ``channels``; each channel
  serves requests first-come-first-served (``busy_until`` per channel);
* each request occupies its channel for ``request_overhead`` plus one
  cycle per ``width_bytes`` moved, plus ``row_miss_penalty`` when it
  does not hit the bank's open row — which is what makes strided scalar
  accesses (the naive GEMM's column reads) so much slower than the
  vectorized / blocked versions' sequential bursts (§V-C, Fig. 7);
* data returns ``base_latency`` cycles after service completes;
* each hardware thread has one Avalon read port and one write port
  (§IV-B.2c); a port keeps at most ``port_outstanding`` requests in
  flight and responses return in order.

Bandwidth actually delivered is tracked per request for the profiling
unit's memory-throughput counters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ir.types import ScalarType, Type, VectorType
from .config import DramConfig, SimConfig

__all__ = ["Buffer", "ExternalMemory", "PortSet"]


@dataclass
class Buffer:
    """One mapped device buffer."""

    name: str
    data: np.ndarray
    base_addr: int
    elem_bytes: int


class ExternalMemory:
    """Functional + timing model of the board's DRAM."""

    def __init__(self, config: DramConfig):
        self.config = config
        self.buffers: dict[str, Buffer] = {}
        self._next_base = 0x1000_0000
        self._bus_busy = [0] * config.channels
        #: open row id / ready time per bank, flat-indexed
        #: ``channel * banks_per_channel + bank`` (rows are never
        #: negative, so -1 means "no row open")
        nbanks = config.channels * config.banks_per_channel
        self._bank_row = [-1] * nbanks
        self._bank_ready = [0] * nbanks
        #: aggregate statistics
        self.bytes_read = 0
        self.bytes_written = 0
        self.requests = 0
        self.row_misses = 0
        #: cycles requests spent queued behind busy banks / the channel
        #: data bus (excludes the row-activation penalty itself)
        self.arbitration_wait_cycles = 0

    # ------------------------------------------------------------------
    # allocation / host access
    # ------------------------------------------------------------------
    def allocate(self, name: str, data: np.ndarray) -> Buffer:
        """Map a host array into device memory (the ``map(to:...)`` copy)."""

        elem_bytes = data.dtype.itemsize
        size = data.size * elem_bytes
        base = self._next_base
        # buffers start channel-aligned, 4 KiB apart
        self._next_base += (size + 0xFFF) & ~0xFFF
        buffer = Buffer(name, data, base, elem_bytes)
        self.buffers[name] = buffer
        return buffer

    def buffer(self, name: str) -> Buffer:
        return self.buffers[name]

    # ------------------------------------------------------------------
    # timing
    # ------------------------------------------------------------------
    def access_time(self, at: int, addr: int, nbytes: int,
                    is_write: bool) -> int:
        """Book a request arriving at cycle ``at``; returns data-ready cycle.

        Banks and the channel data bus are modeled separately: a row
        miss occupies only the *bank* (activations to different banks
        overlap), while the transfer occupies the channel's data bus.
        Strided streams that spread over many banks therefore sustain
        near-full bus throughput, but same-bank conflicts serialize at
        the row-cycle rate — the behaviour that separates the GEMM
        versions' achieved bandwidth (Fig. 7).
        """

        cfg = self.config
        channel = (addr // cfg.interleave_bytes) % cfg.channels
        bank = (addr // cfg.row_bytes) % cfg.banks_per_channel
        row = addr // (cfg.row_bytes * cfg.banks_per_channel * cfg.channels)

        transfer = cfg.request_overhead + max(1, -(-nbytes // cfg.width_bytes))
        bi = channel * cfg.banks_per_channel + bank
        start = max(at, self._bank_ready[bi])
        penalty = 0
        if self._bank_row[bi] != row:
            penalty = cfg.row_miss_penalty
            start += penalty  # activate: occupies the bank only
            self.row_misses += 1
        start = max(start, self._bus_busy[channel])
        self.arbitration_wait_cycles += start - at - penalty
        self._bus_busy[channel] = start + transfer
        self._bank_row[bi] = row
        self._bank_ready[bi] = start + transfer
        self.requests += 1
        if is_write:
            self.bytes_written += nbytes
        else:
            self.bytes_read += nbytes
        return start + transfer + cfg.base_latency

    def quiesce_time(self) -> int:
        """Cycle at which all booked traffic has drained."""

        return max(self._bus_busy) + self.config.base_latency


class PortSet:
    """Per-thread Avalon master ports (one read + one write, §IV-B.2c)."""

    def __init__(self, memory: ExternalMemory, sim: SimConfig, threads: int):
        self.memory = memory
        self.outstanding_limit = sim.port_outstanding
        # ring of recent completion times per (thread, is_write)
        self._history: dict[tuple[int, bool], list[int]] = {
            (t, w): [] for t in range(threads) for w in (False, True)}
        self._last_completion: dict[tuple[int, bool], int] = {}

    def request(self, thread: int, at: int, addr: int, nbytes: int,
                is_write: bool) -> int:
        """Issue via the thread's port; returns the completion cycle."""

        key = (thread, is_write)
        history = self._history[key]
        if len(history) >= self.outstanding_limit:
            # wait until the oldest in-flight request retires
            at = max(at, history[0])
            del history[:1]
        completion = self.memory.access_time(at, addr, nbytes, is_write)
        # in-order responses per port
        completion = max(completion, self._last_completion.get(key, 0))
        self._last_completion[key] = completion
        history.append(completion)
        return completion


def element_bytes(ty: Type) -> int:
    """Byte size of one element moved by a load/store of type ``ty``."""

    if isinstance(ty, VectorType):
        return ty.elem.bits() // 8
    if isinstance(ty, ScalarType):
        return max(1, ty.bits() // 8)
    raise TypeError(f"not a data type: {ty}")
