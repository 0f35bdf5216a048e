"""Post-P&R resource and timing model (registers, ALMs, Fmax).

The paper evaluates its profiling infrastructure by comparing post-
place-and-route resource counts on a Stratix 10 with and without the
profiling unit (§V-B).  Without the vendor tools we model resources
analytically:

* **operators** — per-opcode register/ALM costs from
  :data:`repro.ir.ops.OP_INFO` (vector operators replicate per lane);
* **pipeline registers** — one flip-flop per live value bit per stage it
  crosses (``Segment.live_bits``);
* **thread-reordering context** — stages containing VLOs must hold the
  context of *all* hardware threads (§III-B), charged as
  ``context_bits * num_threads`` plus a hardware-thread-scheduler per
  reordering stage;
* **infrastructure** — Avalon masters (one read + one write per thread),
  the preloader, the hardware semaphore and the slave interface (Fig. 1);
* **profiling unit** — state recorder, trace buffer, flush FSM and one
  aggregating counter per event kind with two inputs per source
  (§IV-B.2), sized from the schedule's source counts.

Fmax is modeled as a base frequency degraded by routing pressure
(growing with ALM count), with the profiling unit's snooping taps adding
a small extra penalty — calibrated to the paper's reported bands
(≤8 MHz @140 MHz for the GEMM study, 1 MHz @148 MHz for π).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..ir.graph import Operation
from ..ir.ops import Opcode
from ..ir.types import ScalarType, VectorType
from ..profiling.config import COUNTER_WIDTH, EventKind, ProfilingConfig
from .schedule import KernelSchedule, Segment

__all__ = ["AreaBreakdown", "AreaReport", "estimate_areas"]


# -- infrastructure constants (ALMs / registers), Stratix-10-flavoured ----
_AVALON_MASTER = (1480, 3450)      # per thread, read + write port pair
_PRELOADER = (2300, 3400)
_SEMAPHORE = (420, 520)
_SLAVE_INTERFACE = (1500, 2300)
_CONTROLLER_PER_STAGE = (30, 55)   # stage-enable logic
_HTS_PER_REORDER_STAGE = (170, 280)  # hardware thread scheduler slice
_LOCAL_MEM_GLUE = (75, 105)        # per local array (BRAM itself excluded)
#: control/valid/bypass overhead multiplier on datapath pipeline registers
_PIPELINE_REG_FACTOR = 1.8

# -- profiling unit constants ------------------------------------------------
_STATE_RECORDER_BASE = (52, 90)
_TRACE_BUFFER = (96, 140)          # flush FSM + address generator
_COUNTER_BASE = (36, 70)           # one aggregating counter (64-bit)
_COUNTER_PER_SOURCE = (14, 21)     # two-input aggregation per source


@dataclass(frozen=True)
class AreaBreakdown:
    """Registers/ALMs split by origin."""

    operator_registers: int = 0
    operator_alms: int = 0
    pipeline_registers: int = 0
    context_registers: int = 0
    infra_registers: int = 0
    infra_alms: int = 0
    profiling_registers: int = 0
    profiling_alms: int = 0

    @property
    def registers(self) -> int:
        return (self.operator_registers + self.pipeline_registers
                + self.context_registers + self.infra_registers
                + self.profiling_registers)

    @property
    def alms(self) -> int:
        return self.operator_alms + self.infra_alms + self.profiling_alms

    def to_dict(self) -> dict:
        from dataclasses import asdict
        return asdict(self)


@dataclass(frozen=True)
class AreaReport:
    """Full resource/timing estimate for one compiled accelerator."""

    breakdown: AreaBreakdown
    fmax_mhz: float

    @property
    def registers(self) -> int:
        return self.breakdown.registers

    @property
    def alms(self) -> int:
        return self.breakdown.alms

    def to_dict(self) -> dict:
        """JSON-ready form (used by ``repro.explore`` candidate records)."""

        return {
            "registers": self.registers,
            "alms": self.alms,
            "fmax_mhz": self.fmax_mhz,
            "breakdown": self.breakdown.to_dict(),
        }

    def overhead_vs(self, baseline: "AreaReport") -> dict[str, float]:
        """Relative overhead of ``self`` against a profiling-free baseline."""

        return {
            "registers_pct": 100.0 * (self.registers - baseline.registers)
                             / baseline.registers,
            "alms_pct": 100.0 * (self.alms - baseline.alms) / baseline.alms,
            "fmax_delta_mhz": baseline.fmax_mhz - self.fmax_mhz,
        }


def _op_area(op: Operation) -> tuple[int, int]:
    """(registers, alms) of one operator instance."""

    info = op.info
    regs, alms = info.registers, info.alms
    if info.int_registers is not None and _integer_op(op):
        regs, alms = info.int_registers, info.int_alms or alms
    lanes = 1
    ty = op.result.type if op.result is not None else None
    if ty is None and op.operands:
        ty = op.operands[-1].type
    if isinstance(ty, VectorType):
        lanes = ty.lanes
    return regs * lanes, alms * lanes


def _integer_op(op: Operation) -> bool:
    for operand in op.operands:
        ty = operand.type
        if isinstance(ty, VectorType):
            ty = ty.elem
        if not isinstance(ty, ScalarType) or ty.is_float:
            return False
    return bool(op.operands)


def estimate_areas(schedule: KernelSchedule, profiling: ProfilingConfig
                   ) -> tuple[AreaReport, AreaReport]:
    """Estimate post-P&R resources for the scheduled kernel.

    Returns ``(area, baseline)``: the design with the profiling unit
    ``profiling`` describes, and the same design without one.  The
    operator, pipeline-register and infrastructure sums do not depend
    on profiling, so they are computed once and shared by both.
    """

    kernel = schedule.kernel
    threads = kernel.num_threads

    op_regs = op_alms = 0
    n_local_arrays = 0
    for op in kernel.walk():
        if op.opcode is Opcode.ALLOC_LOCAL:
            n_local_arrays += 1
        regs, alms = _op_area(op)
        op_regs += regs
        op_alms += alms

    pipeline_regs = 0
    context_regs = 0
    for segment in schedule.body.walk_segments():
        pipeline_regs += int(segment.live_bits * _PIPELINE_REG_FACTOR)
        context_regs += segment.context_bits * threads

    total_stages = schedule.total_stages
    reorder_stages = schedule.reordering_stages
    infra_alms = (_SLAVE_INTERFACE[0] + _PRELOADER[0] + _SEMAPHORE[0]
                  + threads * _AVALON_MASTER[0]
                  + total_stages * _CONTROLLER_PER_STAGE[0]
                  + reorder_stages * _HTS_PER_REORDER_STAGE[0]
                  + n_local_arrays * _LOCAL_MEM_GLUE[0])
    infra_regs = (_SLAVE_INTERFACE[1] + _PRELOADER[1] + _SEMAPHORE[1]
                  + threads * _AVALON_MASTER[1]
                  + total_stages * _CONTROLLER_PER_STAGE[1]
                  + reorder_stages * _HTS_PER_REORDER_STAGE[1]
                  + n_local_arrays * _LOCAL_MEM_GLUE[1])

    base = AreaBreakdown(
        operator_registers=op_regs,
        operator_alms=op_alms,
        pipeline_registers=pipeline_regs,
        context_registers=context_regs,
        infra_registers=infra_regs,
        infra_alms=infra_alms,
    )
    baseline = AreaReport(base, _fmax(base))
    if not profiling.enabled:
        return baseline, baseline
    prof_alms, prof_regs = _profiling_area(schedule, profiling)
    full = replace(base, profiling_registers=prof_regs,
                   profiling_alms=prof_alms)
    return AreaReport(full, _fmax(full)), baseline


def _profiling_area(schedule: KernelSchedule,
                    config: ProfilingConfig) -> tuple[int, int]:
    """(alms, registers) of the profiling unit (§IV-B)."""

    kernel = schedule.kernel
    threads = kernel.num_threads
    alms = regs = 0

    if config.record_states:
        alms += _STATE_RECORDER_BASE[0]
        # 2-bit state register per thread + 32-bit clock + change detector
        regs += _STATE_RECORDER_BASE[1] + config.state_record_bits(threads)

    if config.events or config.record_states:
        alms += _TRACE_BUFFER[0]
        # line-assembly register (the buffer body itself lives in BRAM)
        regs += _TRACE_BUFFER[1] + config.buffer_width

    segments = list(schedule.body.walk_segments())
    for event in config.events:
        sources = _event_sources(event, schedule, segments, threads)
        alms += _COUNTER_BASE[0] + sources * _COUNTER_PER_SOURCE[0]
        regs += (_COUNTER_BASE[1] + COUNTER_WIDTH
                 + sources * _COUNTER_PER_SOURCE[1])
    return alms, regs


def _event_sources(event: EventKind, schedule: KernelSchedule,
                   segments: list[Segment], threads: int) -> int:
    """How many hardware taps feed one event counter (two inputs each)."""

    if event is EventKind.STALLS:
        # one tap per stage that can stall (§IV-B.2a)
        return max(1, schedule.reordering_stages)
    if event is EventKind.FLOPS:
        # one tap per compute stage with FP activity (§IV-B.2b)
        return max(1, sum(1 for s in segments if s.flops))
    if event is EventKind.INTOPS:
        return max(1, sum(1 for s in segments if s.intops))
    # memory counters sit in the central Avalon interface: one tap per
    # thread port (§IV-B.2c chooses this spot to reduce footprint)
    return threads


#: Fmax of a design with no routing pressure
_BASE_FMAX_MHZ = 152.0


def _fmax(breakdown: AreaBreakdown) -> float:
    """Routing-pressure timing model.

    Larger designs close timing at lower frequencies.  The profiling
    unit's snooping taps are high-fanout nets whose *relative* weight in
    the design determines the extra penalty: small accelerators suffer
    most (calibrated to the paper's bands — up to 8 MHz for the GEMM
    study's smallest version, ~1 MHz for large designs like π, §V-B).
    """

    alms = breakdown.alms
    regs = breakdown.registers
    pressure = (alms / 9000.0) + (regs / 75000.0)
    fmax = _BASE_FMAX_MHZ - pressure
    if breakdown.profiling_alms and alms:
        share = breakdown.profiling_alms / alms
        fmax -= min(8.0, 5500.0 * share * share)
    return round(fmax, 1)
