"""Simulation configuration: the modeled board (Fig. 1 of the paper).

Defaults approximate the paper's platform — an Intel D5005 PAC
(Stratix 10 SX) with four DDR4 banks behind an Avalon interconnect,
running the generated accelerator at ~140-150 MHz.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DramConfig", "PIPELINE_WINDOW", "SimConfig"]

#: per-thread iterations allowed in flight in a pipelined loop: memory
#: responses later than the scheduled latency only stall the pipeline
#: once this window is full.  The Nymble execution model suspends a
#: stalling thread almost immediately and relies on *thread
#: reordering* to keep the datapath busy (§III-B); larger windows would
#: model HLS flows with deeper stage buffering.
PIPELINE_WINDOW = 2


@dataclass(frozen=True)
class DramConfig:
    """External-memory geometry: channels, banks and rows.

    The timing constants (bus width, latencies, row-miss penalty) live
    in :mod:`repro.sim.memory`.
    """

    #: address-interleaved channels (the D5005 has four DDR4 banks)
    channels: int = 4
    #: channel interleave granularity in bytes
    interleave_bytes: int = 256
    #: open-row (page) size per bank.  Scaled to the default benchmark
    #: problem sizes so a row holds one matrix row (DIM=64 floats): this
    #: preserves the access-pattern classes of the paper's DIM=512 runs
    #: on 2 KiB rows (sequential = row hits, column-strided = misses).
    row_bytes: int = 256
    #: banks per channel with independent open rows
    banks_per_channel: int = 16


@dataclass(frozen=True)
class SimConfig:
    """Full simulation parameters."""

    #: accelerator clock in MHz (used to convert cycles to seconds;
    #: normally taken from the compiled design's Fmax estimate)
    clock_mhz: float = 140.0
    #: maximum outstanding requests per per-thread Avalon port
    port_outstanding: int = 8
    #: cycles between the host starting successive hardware threads —
    #: the software overhead the π case study exposes (§V-D); the default
    #: is calibrated so the iteration sweep reproduces the paper's
    #: thread-start staggering.  Set to 0 for back-to-back starts.
    thread_start_interval: int = 2000
    #: iterations simulated per chunk in pipelined leaf loops (arbitration
    #: between threads is exact within ±1 chunk)
    loop_chunk: int = 32
    #: extra cycles for kernel start (context load) per launch
    launch_overhead: int = 200
    #: pipelined-loop execution strategy: ``"auto"`` runs every loop
    #: with a plan through the codegen'd nest driver (numpy value kernel
    #: + generated timing generator) and the rest on the scalar
    #: interpreter; ``"reference"`` forces the scalar oracle everywhere.
    #: Both produce bit-identical cycles, traces, stalls, DRAM counters
    #: and attribution tables.
    exec_mode: str = "auto"
    #: cycle accounting: attribute every non-useful cycle of every
    #: thread to a cause (II limit, BRAM port conflict, DRAM latency /
    #: arbitration / row miss, sync wait, drain, control), per schedule
    #: region.  Off by default; when off the simulation takes the exact
    #: code paths it always did and produces byte-identical traces.
    attribution: bool = False
