"""Operation set of the repro HLS IR.

The opcode catalogue is what mini-C lowers to, and nothing more: the
paper's kernels (Figs. 3-5 and 10) need integer and floating-point
arithmetic, comparisons, short-vector operations, memory accesses into
the two memory spaces, OpenMP synchronization (critical sections,
barriers), thread intrinsics and structured control flow (counted
loops, conditionals).  An opcode no mini-C program can produce has no
place here: every lowering in the code generators would have to carry
it untested.

Each opcode carries a :class:`OpInfo` record with its *scheduling
characteristics*:

``latency``
    The minimum pipeline latency (in cycles) the static scheduler assumes.
    For variable-latency operations (VLOs, §III-B of the paper) this is
    the *expected minimum delay*; the simulator may take longer, at which
    point the surrounding stage stalls.
``is_vlo``
    Whether the operation has statically unknown delay (external memory
    accesses, inner loops, critical-section entry).
``flops`` / ``intops``
    How many floating-point / integer operations one execution of the
    opcode contributes to the compute-performance event counters
    (§IV-B.2b).  The profiling unit multiplies these by vector lanes.
``registers`` / ``alms``
    Area cost of one hardware instance in the post-P&R resource model
    (registers and Adaptive Logic Modules; the paper reports overhead in
    exactly these units for a Stratix 10, §V-B).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["Opcode", "OpInfo", "OP_INFO", "op_info"]


class Opcode(enum.Enum):
    # --- constants and intrinsics -------------------------------------
    CONST = "const"
    THREAD_ID = "thread_id"
    NUM_THREADS = "num_threads"

    # --- integer / float arithmetic (elementwise over vectors) --------
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    REM = "rem"
    NEG = "neg"

    # --- bitwise / logical --------------------------------------------
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOT = "not"
    SHL = "shl"
    SHR = "shr"

    # --- comparisons (produce BOOL) ------------------------------------
    EQ = "eq"
    NE = "ne"
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"

    # --- conversions and data movement ----------------------------------
    CAST = "cast"
    SELECT = "select"
    BROADCAST = "broadcast"
    EXTRACT = "extract"
    INSERT = "insert"

    # --- mutable registers (loop-carried accumulators etc.) -------------
    DECL_VAR = "decl_var"
    READ_VAR = "read_var"
    WRITE_VAR = "write_var"

    # --- memory ----------------------------------------------------------
    ALLOC_LOCAL = "alloc_local"
    LOAD = "load"
    STORE = "store"
    #: preloader DMA: bulk copy external -> local memory (Fig. 1)
    PRELOAD = "preload"

    # --- synchronization (OpenMP constructs) -----------------------------
    CRITICAL = "critical"
    BARRIER = "barrier"

    # --- structured control flow ------------------------------------------
    FOR = "for"
    IF = "if"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class OpInfo:
    """Static scheduling / area / profiling characteristics of an opcode."""

    latency: int
    is_vlo: bool = False
    flops: int = 0
    intops: int = 0
    registers: int = 0
    alms: int = 0
    has_region: bool = False  # structured op containing a nested block
    int_latency: int | None = None  # latency override for integer operands
    int_registers: int | None = None
    int_alms: int | None = None


# Latency/area figures are modeled after single-precision operator cores on
# an Intel Stratix 10 at ~150 MHz (DSP-based float add/mul, ALM-based integer
# arithmetic).  Absolute values matter less than their relative magnitudes;
# the profiling-overhead experiments (§V-B) are expressed as percentages.
_F = dict(flops=1)
_I = dict(intops=1)

OP_INFO: dict[Opcode, OpInfo] = {
    Opcode.CONST: OpInfo(latency=0),
    Opcode.THREAD_ID: OpInfo(latency=0),
    Opcode.NUM_THREADS: OpInfo(latency=0),
    Opcode.ADD: OpInfo(latency=3, registers=96, alms=64, int_latency=1,
                       int_registers=32, int_alms=16, **_F),
    Opcode.SUB: OpInfo(latency=3, registers=96, alms=64, int_latency=1,
                       int_registers=32, int_alms=16, **_F),
    Opcode.MUL: OpInfo(latency=4, registers=128, alms=72, int_latency=3,
                       int_registers=64, int_alms=24, **_F),
    Opcode.DIV: OpInfo(latency=14, registers=420, alms=300, int_latency=18,
                       int_registers=380, int_alms=260, **_F),
    Opcode.REM: OpInfo(latency=18, registers=380, alms=260, **_I),
    Opcode.NEG: OpInfo(latency=1, registers=32, alms=16, **_F),
    Opcode.AND: OpInfo(latency=1, registers=32, alms=16, **_I),
    Opcode.OR: OpInfo(latency=1, registers=32, alms=16, **_I),
    Opcode.XOR: OpInfo(latency=1, registers=32, alms=16, **_I),
    Opcode.NOT: OpInfo(latency=1, registers=32, alms=16, **_I),
    Opcode.SHL: OpInfo(latency=1, registers=32, alms=20, **_I),
    Opcode.SHR: OpInfo(latency=1, registers=32, alms=20, **_I),
    Opcode.EQ: OpInfo(latency=1, registers=33, alms=17, **_I),
    Opcode.NE: OpInfo(latency=1, registers=33, alms=17, **_I),
    Opcode.LT: OpInfo(latency=1, registers=33, alms=17, **_I),
    Opcode.LE: OpInfo(latency=1, registers=33, alms=17, **_I),
    Opcode.GT: OpInfo(latency=1, registers=33, alms=17, **_I),
    Opcode.GE: OpInfo(latency=1, registers=33, alms=17, **_I),
    Opcode.CAST: OpInfo(latency=2, registers=48, alms=30),
    Opcode.SELECT: OpInfo(latency=1, registers=33, alms=17),
    Opcode.BROADCAST: OpInfo(latency=0, registers=0, alms=4),
    Opcode.EXTRACT: OpInfo(latency=0, registers=0, alms=8),
    Opcode.INSERT: OpInfo(latency=0, registers=0, alms=8),
    Opcode.DECL_VAR: OpInfo(latency=0, registers=0, alms=0),
    Opcode.READ_VAR: OpInfo(latency=0),
    Opcode.WRITE_VAR: OpInfo(latency=0, registers=32, alms=2),
    Opcode.ALLOC_LOCAL: OpInfo(latency=0),
    # External DRAM loads are the canonical VLO: scheduled with the
    # expected minimum delay, stalled past it (§III-B).  The numbers here
    # are the *scheduled* minimum; actual delay comes from the DRAM model.
    Opcode.LOAD: OpInfo(latency=2, is_vlo=True, registers=110, alms=70),
    Opcode.STORE: OpInfo(latency=1, is_vlo=True, registers=90, alms=60),
    Opcode.PRELOAD: OpInfo(latency=16, is_vlo=True, registers=40, alms=30),
    Opcode.CRITICAL: OpInfo(latency=2, is_vlo=True, registers=64, alms=48,
                            has_region=True),
    Opcode.BARRIER: OpInfo(latency=2, is_vlo=True, registers=48, alms=32),
    # Nested loops are embedded as single VLO nodes in the surrounding
    # dataflow graph (§III-B); the outer graph pauses while they run.
    Opcode.FOR: OpInfo(latency=1, is_vlo=True, registers=96, alms=64,
                       has_region=True),
    Opcode.IF: OpInfo(latency=1, is_vlo=True, registers=48, alms=32,
                      has_region=True),
}


def op_info(opcode: Opcode) -> OpInfo:
    """Look up the :class:`OpInfo` for ``opcode``."""

    return OP_INFO[opcode]
