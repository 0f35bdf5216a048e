"""Cycle-level execution of a compiled accelerator.

Executes a :class:`~repro.hls.compiler.Accelerator` on the board model:

* every hardware thread is a discrete-event process walking the
  kernel's :class:`~repro.hls.schedule.BodySchedule` one way:
  ``run_body`` hands each item of a sequential block to ``run_item``,
  the only place that switches on item type, and runs any other block
  through ``_run_dataflow``;
* items of a non-sequential block run *dataflow-style*: an item starts
  once the items it depends on have finished, so independent items (the
  double-buffered GEMM's prefetch and compute nests) genuinely overlap;
* pipelined leaf loops issue iterations into the loop's shared
  datapath every ``ii`` cycles (one datapath instance shared by all
  threads, the Nymble-MT model), same-thread iterations keep ``rec_ii``
  spacing, and external-memory responses that arrive after the
  scheduled minimum latency *stall* that thread's pipeline — counted as
  stall events (§IV-B.2a).  Here that is the scalar reference, one
  iteration at a time in ``loop_chunk`` chunks; with ``exec_mode="auto"``
  a loop with a plan, alone or as the leaf of a flattenable nest, runs
  through :mod:`repro.sim.fastpath`'s codegen'd driver instead;
* critical sections run through the hardware semaphore with
  Spinning/Critical state recording (Fig. 2);
* the profiling unit's periodic counter flushes book real writes to the
  DRAM model, perturbing execution the same way the hardware's tracing
  does (§V-B measures exactly this).

The launch mimics the paper's host runtime: thread contexts are started
by software one after another (``thread_start_interval``), which is the
effect the π case study visualizes (Figs. 11-13).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Union

import numpy as np

from .. import telemetry
from ..frontend.pragmas import eval_int_expr
from ..hls.compiler import Accelerator
from ..hls.schedule import (
    BarrierNode, BodySchedule, CriticalNode, IfNode, Item, LoopNode, Segment,
)
from ..ir.graph import Kernel, Param
from ..ir.ops import Opcode
from ..ir.types import PointerType, ScalarType
from ..profiling.attribution import (
    REGION_CONTROL, REGION_JOIN, REGION_LAUNCH, REGION_OTHER, REGION_SYNC,
    AttributionTable, loop_region, segment_region,
)
from ..profiling.config import EventKind, ThreadState
from ..profiling.recorder import ProfilingRecorder, RunTrace
from .config import PIPELINE_WINDOW, DramConfig, SimConfig
from .engine import Engine, Subrun, Event
from .fastpath import NestPlan, build_nest_plan, prepare_nest
from .interp import (
    CompiledSegment, KernelFunctionalContext, ThreadMemView, compile_segment,
)
from .memory import ROW_MISS_PENALTY, ExternalMemory, PortSet
from .sync import Barrier, HardwareSemaphore

__all__ = ["SimResult", "Simulation", "simulate"]

_PROFILING_BUFFER_ADDR = 0x7F00_0000

#: stop runaway simulations after this many cycles
MAX_CYCLES = 4_000_000_000


@dataclass
class SimResult:
    """Outcome of one accelerator launch."""

    cycles: int
    clock_mhz: float
    trace: RunTrace
    buffers: dict[str, np.ndarray]
    #: aggregate stall cycles per thread
    stalls: list[int]
    dram_bytes_read: int
    dram_bytes_written: int
    dram_requests: int
    dram_row_misses: int

    @property
    def attribution(self) -> Optional[AttributionTable]:
        """Per-(region, thread) cycle accounting of the trace
        (``SimConfig.attribution``; ``None`` when it was off)."""

        return self.trace.attribution

    @property
    def seconds(self) -> float:
        return self.cycles / (self.clock_mhz * 1e6)

    def total_events(self, kind: EventKind) -> float:
        series = self.trace.events.get(kind)
        return float(series.sum()) if series is not None else 0.0

    @property
    def gflops(self) -> float:
        """Achieved floating-point rate over the whole run (GFLOP/s)."""

        seconds = self.seconds
        return self.total_events(EventKind.FLOPS) / 1e9 / seconds if seconds else 0.0

    def bandwidth_gbs(self) -> float:
        """Average external-memory bandwidth of the application (GB/s)."""

        seconds = self.seconds
        moved = (self.total_events(EventKind.MEM_READ_BYTES)
                 + self.total_events(EventKind.MEM_WRITE_BYTES))
        return moved / 1e9 / seconds if seconds else 0.0


class _LoopState:
    """Shared-datapath issue accounting for one pipelined loop.

    A leaky-bucket rate limiter rather than a high-water cursor: the
    datapath accepts one iteration per ``ii`` cycles *on aggregate*, but
    idle slots between one thread's recurrence-spaced issues remain
    usable by other threads (the C-slow interleaving of §III-B).  The
    epoch resets after long idle gaps so past idleness doesn't bank
    burst credit.
    """

    __slots__ = ("first", "count")
    _GAP = 4096

    def __init__(self) -> None:
        self.first = -1
        self.count = 0

    def book(self, at: int, cost: int) -> int:
        if self.first < 0 or at > self.first + self.count * cost + self._GAP:
            self.first = at
            self.count = 1
            return at
        earliest = self.first + self.count * cost
        issue = at if at > earliest else earliest
        self.count += 1
        return issue


def _schedule_regions(body: BodySchedule) -> dict[int, str]:
    """Region key -> label for every loop and segment of a schedule."""

    regions: dict[int, str] = {}
    for loop in body.walk_loops():
        key = loop_region(loop.uid)
        name = loop.op.attrs.get("name", "?")
        kind = "pipelined" if loop.pipelined else "sequential"
        regions[key] = f"for {name} [{kind} L{loop.uid}]" \
            if loop.uid >= 0 else "(other)"
    for segment in body.walk_segments():
        key = segment_region(segment.uid)
        regions[key] = f"segment S{segment.uid}" \
            if segment.uid >= 0 else "(other)"
    return regions


class _RecorderAcct:
    """Accounting sink that deposits straight into the recorder.

    ``bins`` is the thread's attribution row array in the recorder; the
    nest drivers write the sums of each sampling window they keep open
    into it directly.
    """

    __slots__ = ("recorder", "tid", "bins")

    def __init__(self, recorder: ProfilingRecorder, tid: int):
        self.recorder = recorder
        self.tid = tid
        self.bins = recorder._attr_bins[tid]

    def deposit(self, start: int, end: int, region: int, amounts) -> None:
        self.recorder.attr_deposit(start, end, self.tid, region, amounts)


class _BufferAcct:
    """Accounting sink that collects deposits for later replay.

    Dataflow bodies overlap their items on one hardware thread, so each
    item records into its own buffer; once the region completes, only
    the critical-path chain is replayed into the real sink (the
    overlapped remainder was hidden and consumed no wall time).
    """

    __slots__ = ("entries",)

    def __init__(self):
        self.entries: list[tuple[int, int, int, tuple]] = []

    def deposit(self, start: int, end: int, region: int, amounts) -> None:
        self.entries.append((start, end, region, amounts))


class Simulation:
    """Executable simulation of one accelerator."""

    def __init__(self, accelerator: Accelerator,
                 config: Optional[SimConfig] = None):
        self.acc = accelerator
        self.config = config or SimConfig()
        if self.config.exec_mode not in ("auto", "reference"):
            raise ValueError(
                f"unknown exec_mode {self.config.exec_mode!r}: expected "
                f"'auto' or 'reference'")
        self.kernel: Kernel = accelerator.kernel
        self._compiled: dict[int, CompiledSegment] = {}
        self._nest_plans: dict[int, Optional[NestPlan]] = {}
        self._external_uses = self._compute_external_uses()

    # ------------------------------------------------------------------
    def _compute_external_uses(self) -> set[int]:
        """Value ids used outside the segment that defines them."""

        defining: dict[int, int] = {}
        for segment in self.acc.schedule.body.walk_segments():
            for op in segment.ops:
                if op.result is not None:
                    defining[op.result.id] = segment.uid
        external: set[int] = set()
        for segment in self.acc.schedule.body.walk_segments():
            for op in segment.ops:
                for operand in op.operands:
                    home = defining.get(operand.id)
                    if home is not None and home != segment.uid:
                        external.add(operand.id)
        # operands of structured ops (loop bounds, if conditions)
        for op in self.kernel.walk():
            if op.opcode in (Opcode.FOR, Opcode.IF):
                for operand in op.operands:
                    if operand.id in defining:
                        external.add(operand.id)
        return external

    def _get_compiled(self, segment: Segment) -> CompiledSegment:
        cs = self._compiled.get(segment.uid)
        if cs is None:
            cs = compile_segment(segment, self._external_uses, self.kernel)
            self._compiled[segment.uid] = cs
        return cs

    def _get_nest_plan(self, item: LoopNode) -> Optional[NestPlan]:
        """Nest-driver plan for a loop (None: run the scalar reference).

        A pipelined loop is planned as a depth-0 nest, a sequential loop
        as a flattened nest around its pipelined leaf.
        """

        if item.uid < 0:  # hand-built schedule: no stable cache key
            return None
        if item.uid not in self._nest_plans:
            self._nest_plans[item.uid] = build_nest_plan(
                item, self.acc.schedule, self._external_uses, self.config,
                self._get_compiled)
        return self._nest_plans[item.uid]

    # ------------------------------------------------------------------
    def run(self, args: Mapping[str, Union[np.ndarray, int, float]],
            clock_mhz: Optional[float] = None) -> SimResult:
        """Launch the kernel with ``args`` (one entry per kernel parameter).

        Pointer parameters take numpy arrays (modified in place for
        ``from``/``tofrom`` maps); scalars take numbers.  ``clock_mhz``
        defaults to the compiled design's estimated Fmax.
        """

        with telemetry.span("sim", category="sim",
                            kernel=self.kernel.name):
            return self._run(args, clock_mhz)

    def _run(self, args: Mapping[str, Union[np.ndarray, int, float]],
             clock_mhz: Optional[float]) -> SimResult:
        wall_start = time.perf_counter()
        engine = Engine()
        memory = ExternalMemory(DramConfig())
        threads = self.kernel.num_threads
        ports = PortSet(memory, self.config, threads)
        semaphore = HardwareSemaphore(engine)
        barrier = Barrier(engine, threads)
        profiling = self.acc.options.profiling
        attribution = self.config.attribution
        recorder = ProfilingRecorder(profiling, threads,
                                     attribution=attribution)
        if attribution:
            recorder.attribution.regions.update(
                _schedule_regions(self.acc.schedule.body))

        buffers, scalar_env = self._bind_args(args, memory)

        stalls = [0] * threads
        done_events: list[Event] = []
        contexts: list[KernelFunctionalContext] = []
        runtime = _Runtime(self, engine, memory, ports, semaphore, barrier,
                           recorder, buffers, stalls)

        for tid in range(threads):
            mem_view = ThreadMemView({name: buf.data
                                      for name, buf in buffers.items()})
            ctx = KernelFunctionalContext(tid, threads, mem_view)
            ctx.values.update(scalar_env)
            contexts.append(ctx)
            start_at = (self.config.launch_overhead
                        + tid * self.config.thread_start_interval)
            process = engine.spawn(runtime.thread_main(tid, ctx),
                                   name=f"thread{tid}", at=start_at)
            done_events.append(process.done)

        if profiling.enabled:
            engine.spawn(runtime.flush_ticker(done_events),
                         name="profiling-flush")

        engine.run(until=MAX_CYCLES)
        # the run ends when the last thread retires and its traffic drains —
        # not when the profiling flush ticker happens to take its last tick
        end = max(runtime.finish_time, memory.quiesce_time())
        if attribution:
            # a finished thread waits for the run (and its own memory
            # traffic) to drain: SYNC_WAIT in the pseudo "join" region
            for tid, finish in enumerate(runtime.finish_times):
                if 0 <= finish < end:
                    recorder.attr_deposit(
                        finish, end, tid, REGION_JOIN,
                        (0, 0, 0, 0, 0, 0, end - finish, 0, 0))
        trace = recorder.finalize(end)
        self._record_telemetry(runtime, end, wall_start)
        return SimResult(
            cycles=end,
            clock_mhz=clock_mhz if clock_mhz is not None
            else self.acc.area.fmax_mhz,
            trace=trace,
            buffers={name: buf.data for name, buf in buffers.items()},
            stalls=stalls,
            dram_bytes_read=memory.bytes_read,
            dram_bytes_written=memory.bytes_written,
            dram_requests=memory.requests,
            dram_row_misses=memory.row_misses,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _record_telemetry(runtime: "_Runtime", end: int,
                          wall_start: float) -> None:
        """Report engine/DRAM/fast-path counters into the telemetry.

        Pure observation of counters the models already keep — the
        simulated cycle counts are bit-identical with telemetry on or
        off.
        """

        if not telemetry.telemetry_enabled():
            return
        engine, memory = runtime.engine, runtime.memory
        stats = engine.stats()
        telemetry.add("sim.events_fired", stats["events_fired"])
        telemetry.add("sim.processes_spawned", stats["processes_spawned"])
        telemetry.max_gauge("sim.heap_peak", stats["heap_peak"])
        telemetry.add("sim.cycles", end)
        elapsed = time.perf_counter() - wall_start
        if elapsed > 0:
            telemetry.set_gauge("sim.cycles_per_sec", end / elapsed)
        telemetry.add("sim.dram.requests", memory.requests)
        telemetry.add("sim.dram.row_misses", memory.row_misses)
        telemetry.add("sim.dram.bytes_read", memory.bytes_read)
        telemetry.add("sim.dram.bytes_written", memory.bytes_written)
        telemetry.add("sim.dram.arbitration_wait_cycles",
                      memory.arbitration_wait_cycles)
        telemetry.add("sim.fastpath.batches", runtime.fp_batches)
        telemetry.add("sim.fastpath.iters_vectorized", runtime.fp_iters)
        telemetry.add("sim.fastpath.fallbacks", runtime.fp_fallbacks)
        telemetry.add("sim.fastpath.nests_flattened", runtime.nests_flattened)
        telemetry.add("sim.fastpath.entries_batched", runtime.entries_batched)
        telemetry.add("sim.fastpath.nest_fallbacks", runtime.nest_fallbacks)

    # ------------------------------------------------------------------
    def _bind_args(self, args: Mapping[str, Any], memory: ExternalMemory):
        buffers = {}
        scalar_env: dict[int, Any] = {}
        scalars: dict[str, int] = {}
        for param in self.kernel.params:
            if not isinstance(param.type, PointerType):
                if param.name not in args:
                    raise KeyError(f"missing scalar argument {param.name!r}")
                value = args[param.name]
                scalar_env[param.value.id] = (
                    float(value) if param.type.is_float else int(value))
                if isinstance(param.type, ScalarType) and param.type.is_integer:
                    scalars[param.name] = int(value)
        for param in self.kernel.params:
            if isinstance(param.type, PointerType):
                if param.name not in args:
                    raise KeyError(f"missing buffer argument {param.name!r}")
                array = args[param.name]
                if not isinstance(array, np.ndarray):
                    raise TypeError(f"buffer {param.name!r} must be a numpy "
                                    f"array, got {type(array).__name__}")
                expected = self._map_length(param, scalars)
                if expected is not None and array.size < expected:
                    raise ValueError(
                        f"buffer {param.name!r} has {array.size} elements but "
                        f"the map clause transfers {expected}")
                buffers[param.name] = memory.allocate(param.name, array)
        return buffers, scalar_env

    def _map_length(self, param: Param, scalars: Mapping[str, int]):
        size = param.map_size
        if size is None:
            return None
        if isinstance(size, int):
            return size
        try:
            return eval_int_expr(str(size), scalars)
        except Exception:
            return None


class _Runtime:
    """Execution state shared by all thread processes of one run."""

    def __init__(self, sim: Simulation, engine: Engine,
                 memory: ExternalMemory, ports: PortSet,
                 semaphore: HardwareSemaphore, barrier: Barrier,
                 recorder: ProfilingRecorder, buffers, stalls: list[int]):
        self.sim = sim
        self.engine = engine
        self.memory = memory
        self.ports = ports
        self.semaphore = semaphore
        self.barrier = barrier
        self.recorder = recorder
        self.buffers = buffers
        self.stalls = stalls
        self.loop_states: dict[int, _LoopState] = {}
        #: local-memory conflict group id -> port cursor (BRAM port sharing)
        self.group_states: dict[int, _LoopState] = {}
        #: cycle at which the last hardware thread finished
        self.finish_time = 0
        #: per-thread finish cycle (-1 while running), for join accounting
        self.finish_times = [-1] * len(stalls)
        self.attribution = sim.config.attribution
        self.fast_enabled = sim.config.exec_mode != "reference"
        #: fast-path accounting (sim.fastpath.* telemetry)
        self.fp_batches = 0
        self.fp_iters = 0
        self.fp_fallbacks = 0
        #: cross-entry nest batching (sim.fastpath.nests_* telemetry)
        self.nests_flattened = 0
        self.entries_batched = 0
        self.nest_fallbacks = 0

    # ------------------------------------------------------------------
    def thread_main(self, tid: int, ctx: KernelFunctionalContext):
        acct = None
        if self.attribution:
            acct = _RecorderAcct(self.recorder, tid)
            start = self.engine.now
            if start > 0:
                # the host starts thread contexts one after another:
                # pre-start idle is CONTROL in the "launch" pseudo-region
                self.recorder.attr_deposit(0, start, tid, REGION_LAUNCH,
                                           (0, 0, 0, 0, 0, 0, 0, 0, start))
        self.recorder.set_state(self.engine.now, tid, ThreadState.RUNNING)
        yield from self.run_body(self.sim.acc.schedule.body, tid, ctx, acct)
        self.recorder.set_state(self.engine.now, tid, ThreadState.IDLE)
        self.finish_times[tid] = self.engine.now
        if self.engine.now > self.finish_time:
            self.finish_time = self.engine.now

    # ------------------------------------------------------------------
    def run_body(self, body: BodySchedule, tid: int,
                 ctx: KernelFunctionalContext, acct=None):
        if body.sequential:
            for item in body.items:
                yield from self.run_item(item, tid, ctx, acct)
        else:
            yield from self._run_dataflow(body, tid, ctx, acct)

    def _run_dataflow(self, body: BodySchedule, tid: int,
                      ctx: KernelFunctionalContext, acct):
        """Dataflow execution: one process per item, started on its deps.

        With cycle accounting, items overlap on one hardware thread, so
        each item buffers its deposits; once the region completes, the
        chain of items that determined the region's end (walking
        dependences whose finish time equals the successor's start) is
        replayed into ``acct`` — it tiles the region's span exactly,
        while overlapped work off the chain was hidden and consumed no
        wall time.
        """

        items, deps = body.items, body.deps
        n = len(items)
        events = [Event(f"item{i}") for i in range(n)]
        starts = [0] * n
        ends = [0] * n
        buffers: list[Optional[_BufferAcct]] = [None] * n

        def item_proc(index: int):
            for dep in deps[index]:
                yield events[dep]
            buffer = _BufferAcct() if acct is not None else None
            starts[index] = self.engine.now
            yield from self.run_item(items[index], tid, ctx, buffer)
            ends[index] = self.engine.now
            buffers[index] = buffer
            events[index].set(self.engine)

        region_start = self.engine.now
        for index in range(n):
            self.engine.spawn(item_proc(index), name=f"t{tid}-item{index}")
        for event in events:
            yield event
        if acct is None:
            return
        # walk the critical path back from the last-finishing item
        last = 0
        for index in range(1, n):
            if ends[index] > ends[last]:
                last = index
        chain = []
        index = last
        while True:
            chain.append(index)
            start = starts[index]
            if start <= region_start:
                break
            pred = None
            for dep in deps[index]:
                if ends[dep] == start:
                    pred = dep
                    break
            if pred is None:  # pragma: no cover - defensive
                acct.deposit(region_start, start, REGION_OTHER,
                             (0, 0, 0, 0, 0, 0, 0, 0, start - region_start))
                break
            index = pred
        for index in reversed(chain):
            for start, end, region, amounts in buffers[index].entries:
                acct.deposit(start, end, region, amounts)

    # ------------------------------------------------------------------
    def run_item(self, item: Item, tid: int, ctx: KernelFunctionalContext,
                 acct=None):
        if isinstance(item, Segment):
            yield from self.run_segment(item, tid, ctx, acct)
        elif isinstance(item, LoopNode):
            if item.pipelined:
                yield from self.run_pipelined_loop(item, tid, ctx, acct)
            else:
                yield from self.run_sequential_loop(item, tid, ctx, acct)
        elif isinstance(item, IfNode):
            cond = ctx.values[item.op.operands[0].id]
            if acct is not None:
                now = self.engine.now
                acct.deposit(now, now + 1, REGION_CONTROL,
                             (0, 0, 0, 0, 0, 0, 0, 0, 1))
            yield 1
            if cond:
                yield from self.run_body(item.branches[0], tid, ctx, acct)
            elif len(item.branches) > 1:
                yield from self.run_body(item.branches[1], tid, ctx, acct)
        elif isinstance(item, CriticalNode):
            recorder, engine = self.recorder, self.engine
            recorder.set_state(engine.now, tid, ThreadState.SPINNING)
            acquire_start = engine.now
            yield from self.semaphore.acquire(item.lock, tid)
            if acct is not None and engine.now > acquire_start:
                acct.deposit(acquire_start, engine.now, REGION_SYNC,
                             (0, 0, 0, 0, 0, 0,
                              engine.now - acquire_start, 0, 0))
            recorder.set_state(engine.now, tid, ThreadState.CRITICAL)
            yield from self.run_body(item.body, tid, ctx, acct)
            self.semaphore.release(item.lock, tid)
            recorder.set_state(engine.now, tid, ThreadState.RUNNING)
        elif isinstance(item, BarrierNode):
            wait_start = self.engine.now
            yield from self.barrier.wait(tid)
            if acct is not None and self.engine.now > wait_start:
                acct.deposit(wait_start, self.engine.now, REGION_SYNC,
                             (0, 0, 0, 0, 0, 0,
                              self.engine.now - wait_start, 0, 0))
        else:  # pragma: no cover - exhaustive
            raise AssertionError(item)

    # ------------------------------------------------------------------
    def _call_segment(self, compiled: CompiledSegment,
                      ctx: KernelFunctionalContext):
        values = ctx.values
        args = [values[vid] for vid in compiled.inputs]
        outs = compiled.fn(ctx, ctx.vars, ctx.mem, *args)
        for vid, value in zip(compiled.outputs, outs):
            values[vid] = value

    def _issue_mem(self, segment: Segment, tid: int,
                   mem_trace, issue: int) -> tuple[int, int, int]:
        """Book the segment's external accesses.

        Returns ``(extra, penalty, arb)``: the extra stall cycles of the
        latest read response, and the row-activation penalty and
        arbitration wait of the request that *binds* ``extra`` (first
        maximum), read off the DRAM model's counters around each
        request.  Callers without attribution use ``extra`` alone.
        """

        extra = 0
        bind_penalty = 0
        bind_arb = 0
        buffers = self.buffers
        memory = self.memory
        for memop, (index, nbytes, is_write, name) in zip(segment.mem_ops,
                                                          mem_trace):
            buf = buffers[name]
            addr = buf.base_addr + index * buf.elem_bytes
            misses0 = memory.row_misses
            arb0 = memory.arbitration_wait_cycles
            completion = self.ports.request(tid, issue + memop.start, addr,
                                            nbytes, is_write)
            if is_write:
                # posted write: the pipeline proceeds once the request is on
                # the bus; ordering is the interconnect's responsibility
                continue
            lateness = completion - (issue + memop.start + memop.sched_latency)
            if lateness > extra:
                extra = lateness
                bind_penalty = (memory.row_misses - misses0) * ROW_MISS_PENALTY
                bind_arb = memory.arbitration_wait_cycles - arb0
        return extra, bind_penalty, bind_arb

    @staticmethod
    def _peel(amount: int, penalty: int, arb: int) -> tuple[int, int, int]:
        """Split ``amount`` stall cycles into (row, arb, latency) parts.

        Deterministic priority peel against the binding request's
        row-activation penalty and arbitration wait; whatever neither
        explains is base latency / transfer / queueing.
        """

        row = penalty if penalty < amount else amount
        rest = amount - row
        arb_part = arb if arb < rest else rest
        return row, arb_part, rest - arb_part

    def run_segment(self, segment: Segment, tid: int,
                    ctx: KernelFunctionalContext, acct=None):
        compiled = self.sim._get_compiled(segment)
        mem = ctx.mem
        mem.trace.clear()
        self._call_segment(compiled, ctx)
        now = self.engine.now
        extra, penalty, arb = self._issue_mem(segment, tid, mem.trace, now)
        duration = segment.depth + extra
        end = now + duration
        rbytes = wbytes = 0
        for _, nbytes, is_write, _name in mem.trace:
            if is_write:
                wbytes += nbytes
            else:
                rbytes += nbytes
        self.recorder.add_many(now, end, tid, (
            (EventKind.FLOPS, segment.flops),
            (EventKind.INTOPS, segment.intops),
            (EventKind.MEM_READ_BYTES, rbytes),
            (EventKind.MEM_WRITE_BYTES, wbytes),
            (EventKind.STALLS, extra)))
        if acct is not None:
            row, arb_part, latency = self._peel(extra, penalty, arb)
            acct.deposit(now, end, segment_region(segment.uid),
                         (segment.depth, 0, 0, latency, arb_part, row,
                          0, 0, 0))
        if extra:
            self.stalls[tid] += extra
        yield duration

    # ------------------------------------------------------------------
    def _nest_driver(self, item: LoopNode, tid: int,
                     ctx: KernelFunctionalContext, acct):
        """The generated driver for this dispatch of ``item``, or None.

        None means the loop has no plan or its value kernel fell back;
        the caller then runs the scalar reference.
        """

        nplan = self.sim._get_nest_plan(item)
        if nplan is None:
            return None
        state = self.loop_states.setdefault(id(nplan.pipe), _LoopState())
        group = None
        if nplan.group_id is not None:
            group = self.group_states.setdefault(nplan.group_id,
                                                 _LoopState())
        return prepare_nest(self, nplan, tid, ctx, state, group, acct)

    def run_sequential_loop(self, item: LoopNode, tid: int,
                            ctx: KernelFunctionalContext, acct=None):
        if self.fast_enabled:
            gen = self._nest_driver(item, tid, ctx, acct)
            if gen is not None:
                # Subrun instead of `yield from`: the driver resumes ~6x
                # per entry, and the engine steps it directly rather
                # than walking this delegation chain
                yield Subrun(gen)
                return
        op = item.op
        lower = ctx.values[op.operands[0].id]
        upper = ctx.values[op.operands[1].id]
        step = ctx.values[op.operands[2].id]
        iv_id = op.defined[0].id
        values = ctx.values
        loop_start = self.engine.now
        trips = 0
        for iv in range(lower, upper, step):
            values[iv_id] = iv
            trips += 1
            yield 1  # loop-control bubble between iterations
            yield from self.run_body(item.body, tid, ctx, acct)
        if acct is not None and trips:
            # the per-trip control bubbles, batched into one deposit
            # smeared over the loop's span (the table is exact; binned
            # placement is visualization only)
            acct.deposit(loop_start, self.engine.now, loop_region(item.uid),
                         (0, 0, 0, 0, 0, 0, 0, 0, trips))

    def run_pipelined_loop(self, item: LoopNode, tid: int,
                           ctx: KernelFunctionalContext, acct=None):
        op = item.op
        lower = ctx.values[op.operands[0].id]
        upper = ctx.values[op.operands[1].id]
        step = ctx.values[op.operands[2].id]
        if upper <= lower:
            return
        trips = len(range(lower, upper, step))
        if not item.body.items:
            if acct is not None:
                now = self.engine.now
                acct.deposit(now, now + trips * item.ii + item.depth,
                             loop_region(item.uid),
                             (trips * item.ii, 0, 0, 0, 0, 0, 0,
                              item.depth, 0))
            yield trips * item.ii + item.depth
            return
        if self.fast_enabled:
            gen = self._nest_driver(item, tid, ctx, acct)
            if gen is not None:
                yield Subrun(gen)
                return

        # the scalar reference: one iteration at a time, in chunks of
        # ``loop_chunk`` trips between re-synchronizations
        segment = item.body.items[0]
        assert isinstance(segment, Segment)
        compiled = self.sim._get_compiled(segment)
        state = self.loop_states.setdefault(id(item), _LoopState())
        schedule = self.sim.acc.schedule
        group_id = schedule.local_groups.get(segment.uid)
        group = None
        group_cost = 0
        if group_id is not None:
            group = self.group_states.setdefault(group_id, _LoopState())
            group_cost = max(1, schedule.local_costs.get(segment.uid, 1))
        iv_id = op.defined[0].id
        chunk = max(1, self.sim.config.loop_chunk)
        ii, rec_ii, depth = item.ii, item.rec_ii, item.depth
        recorder = self.recorder
        mem = ctx.mem

        attr = acct is not None
        region = loop_region(item.uid) if attr else 0
        # per in-flight iteration, the (row, arb, latency) split of its
        # late-response ``extra``, mirroring ``inflight`` one-for-one so
        # backpressure and the drain tail peel into the same DRAM causes
        parts: deque[tuple[int, int, int]] = deque()
        last_parts = (0, 0, 0)

        cursor = self.engine.now  # this thread's next possible issue
        last_retire = cursor
        # retire times of in-flight iterations
        inflight: deque[int] = deque()
        iv = lower
        remaining = trips
        while remaining > 0:
            batch = min(chunk, remaining)
            chunk_start = cursor
            if self.fast_enabled:
                self.fp_fallbacks += 1
            chunk_flops = 0
            chunk_intops = 0
            chunk_rbytes = 0
            chunk_wbytes = 0
            chunk_stall = 0
            c_ii = c_port = c_row = c_arb = c_lat = 0
            for _ in range(batch):
                issue = state.book(cursor, ii)
                if attr:
                    c_ii += issue - cursor
                if group is not None:
                    booked = group.book(issue, group_cost)
                    c_port += booked - issue
                    issue = booked
                if len(inflight) >= PIPELINE_WINDOW:
                    # stage buffers full: a late memory response now
                    # stalls this thread's pipeline (backpressure)
                    oldest = inflight.popleft()
                    oldest_parts = parts.popleft() if attr else None
                    if oldest - depth > issue:
                        bp = oldest - depth - issue
                        chunk_stall += bp
                        issue = oldest - depth
                        if attr:
                            row, arb_part, latency = self._peel(
                                bp, oldest_parts[0], oldest_parts[1])
                            c_row += row
                            c_arb += arb_part
                            c_lat += latency
                ctx.values[iv_id] = iv
                mem.trace.clear()
                self._call_segment(compiled, ctx)
                extra = 0
                iter_parts = (0, 0, 0)
                if segment.mem_ops:
                    extra, penalty, arb = self._issue_mem(
                        segment, tid, mem.trace, issue)
                    if attr and extra:
                        iter_parts = self._peel(extra, penalty, arb)
                    for _, nbytes, is_write, _name in mem.trace:
                        if is_write:
                            chunk_wbytes += nbytes
                        else:
                            chunk_rbytes += nbytes
                retire = issue + depth + extra
                inflight.append(retire)
                if attr:
                    parts.append(iter_parts)
                cursor = issue + rec_ii
                # a late response suspends the consuming stage for
                # `extra` cycles (§IV-B.2a) even when reordering hides
                # it globally
                chunk_stall += extra
                chunk_flops += segment.flops
                chunk_intops += segment.intops
                if retire > last_retire:
                    last_retire = retire
                    last_parts = iter_parts
                iv += step
            remaining -= batch
            recorder.add_many(chunk_start, last_retire, tid, (
                (EventKind.FLOPS, chunk_flops),
                (EventKind.INTOPS, chunk_intops),
                (EventKind.MEM_READ_BYTES, chunk_rbytes),
                (EventKind.MEM_WRITE_BYTES, chunk_wbytes),
                (EventKind.STALLS, chunk_stall)))
            if attr:
                # the chunk's wall-clock advance (cursor - chunk_start)
                # decomposes exactly: rec_ii per trip is useful issue
                # spacing, the rest is what delayed each issue
                acct.deposit(chunk_start, last_retire, region,
                             (batch * rec_ii, c_ii, c_port, c_lat, c_arb,
                              c_row, 0, 0, 0))
            if chunk_stall:
                self.stalls[tid] += chunk_stall
            # re-synchronize with the other thread processes
            advance = cursor - self.engine.now
            if advance > 0:
                yield advance
                cursor = self.engine.now
        tail = last_retire - self.engine.now
        if tail > 0:
            if attr:
                # pipeline drain after the last issue; whatever exceeds
                # the drain depth is the binding iteration's late
                # memory response, peeled into its stored DRAM parts
                drain = depth - rec_ii
                if drain < 0:
                    drain = 0
                elif drain > tail:
                    drain = tail
                row, arb_part, latency = self._peel(
                    tail - drain, last_parts[0], last_parts[1])
                acct.deposit(self.engine.now, last_retire, region,
                             (0, 0, 0, latency, arb_part, row, 0, drain, 0))
            yield tail

    # ------------------------------------------------------------------
    def flush_ticker(self, done_events: list[Event]):
        """Periodic event-counter flush to external memory (§IV-B)."""

        period = self.recorder.config.sampling_period
        while True:
            yield period
            if all(event.triggered for event in done_events):
                # the accelerator is idle: the final flush happens during
                # context read-back and does not extend the measured run
                return
            bits = self.recorder.flush()
            if bits:
                nbytes = max(1, bits // 8)
                self.memory.access_time(self.engine.now,
                                        _PROFILING_BUFFER_ADDR, nbytes, True)


def simulate(accelerator: Accelerator,
             args: Mapping[str, Union[np.ndarray, int, float]],
             config: Optional[SimConfig] = None,
             clock_mhz: Optional[float] = None) -> SimResult:
    """One-call helper: build a :class:`Simulation` and run it."""

    return Simulation(accelerator, config).run(args, clock_mhz=clock_mhz)
