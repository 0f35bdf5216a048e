"""Static scheduling of kernels into pipelined stages (the Nymble model).

The scheduler turns each block of the IR into a :class:`BodySchedule`:

* consecutive simple operations form :class:`Segment` items, scheduled
  ASAP into pipeline stages assuming the *minimum* delay of every
  variable-latency operation (§III-B: "At synthesis time, the scheduler
  assumes the expected minimum delay for VLOs");
* nested loops, conditionals and critical sections become structured
  items embedded as single variable-latency nodes;
* a dependence DAG over the items is computed from value uses, register
  (variable) access order, and the memory disambiguation of
  :mod:`repro.hls.depanalysis` — items without a path between them may
  execute concurrently (this is what overlaps the double-buffered GEMM's
  prefetch with its compute, Fig. 9);
* loops whose body is a single segment are *pipelined leaves*: they get
  an initiation interval (II) from operator/port contention and from
  loop-carried register recurrences.

Stage classification follows §III-B: stages containing VLOs become
*reordering stages* (their thread contexts must be buffered for all
threads, which the area model charges for); stages between them form
static regions.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Optional, Union

from ..ir.graph import Block, Kernel, Operation
from ..ir.ops import Opcode
from ..ir.types import MemorySpace, PointerType, ScalarType, Type, VectorType
from .depanalysis import (Access, AccessMap, collect_accesses, conflicts,
                          may_share_storage)

__all__ = [
    "ScheduledOp", "MemOp", "Segment", "LoopNode",
    "IfNode", "CriticalNode", "BarrierNode", "Item", "BodySchedule",
    "KernelSchedule", "schedule_kernel",
]


# latency assumptions used at synthesis time
#: scheduled (minimum) latency of an external-memory read
EXT_READ_LATENCY = 8
#: scheduled (minimum) latency of an external-memory write (posted)
EXT_WRITE_LATENCY = 2
#: BRAM access latencies (fixed; local accesses are not VLOs)
BRAM_READ_LATENCY = 2
BRAM_WRITE_LATENCY = 1
#: scheduled (minimum) latency of acquiring an uncontended semaphore
CRITICAL_LATENCY = 4
#: access slots per local memory per cycle = ports * banks.  The
#: values are calibrated so the blocked GEMM's compute throughput
#: sits in the paper's measured band relative to the naive version.
BRAM_PORTS = 1
#: cyclic banking factor applied to local arrays (HLS array partitioning)
BRAM_BANKS = 1
#: external read/write ports per hardware thread (§IV-B.2c: all memory
#: operations multiplex to one Avalon read and one write port per thread)
EXT_READ_PORTS = 1
EXT_WRITE_PORTS = 1


# ----------------------------------------------------------------------
# scheduled items
# ----------------------------------------------------------------------
@dataclass
class ScheduledOp:
    op: Operation
    start: int
    latency: int

    @property
    def end(self) -> int:
        return self.start + self.latency


@dataclass
class MemOp:
    """An external-memory access inside a segment, for the simulator."""

    op: Operation
    start: int          # stage offset within the segment
    sched_latency: int  # latency the static schedule assumed
    is_write: bool
    bytes: int


@dataclass
class Segment:
    """A straight-line group of ops scheduled into pipeline stages."""

    sched_ops: list[ScheduledOp]
    #: stable index in walk_segments() order, assigned once the whole
    #: kernel is scheduled; keys local_groups/local_costs so the
    #: mapping survives pickling (id() does not)
    uid: int = -1
    depth: int = 0
    flops: int = 0
    intops: int = 0
    mem_ops: list[MemOp] = field(default_factory=list)
    bram_reads: int = 0
    bram_writes: int = 0
    #: FF bit-cycles of pipeline registers (for the area model)
    live_bits: int = 0
    #: bits of thread context crossing VLO stages (reordering storage)
    context_bits: int = 0
    #: stages that contain at least one VLO
    vlo_stages: int = 0

    @property
    def ops(self) -> list[Operation]:
        return [s.op for s in self.sched_ops]


@dataclass
class LoopNode:
    """A scheduled loop.

    ``ii`` is the *hardware* initiation interval (operator/port
    contention): the loop datapath accepts one new iteration — from any
    thread — every ``ii`` cycles.  ``rec_ii`` is the *per-thread*
    recurrence interval: iterations of the *same* thread must be at
    least ``rec_ii`` cycles apart (loop-carried register dependences).
    Interleaving threads hides recurrences, the C-slow effect of §III-B.
    """

    op: Operation
    body: "BodySchedule"
    pipelined: bool
    ii: int = 1
    rec_ii: int = 1
    depth: int = 1
    #: stable index in walk_loops() order (like :attr:`Segment.uid`);
    #: keys per-simulation caches so they survive pickle round-trips
    uid: int = -1


@dataclass
class IfNode:
    op: Operation
    branches: list["BodySchedule"]


@dataclass
class CriticalNode:
    op: Operation
    lock: int
    body: "BodySchedule"


@dataclass
class BarrierNode:
    op: Operation


Item = Union[Segment, LoopNode, IfNode, CriticalNode, BarrierNode]


@dataclass
class BodySchedule:
    """A scheduled block: items plus their dependence DAG.

    ``deps[i]`` lists the indices of items that must complete before
    item ``i`` may start.  Items with no path between them may run
    concurrently (dataflow execution).
    """

    items: list[Item] = field(default_factory=list)
    deps: list[list[int]] = field(default_factory=list)

    @property
    def sequential(self) -> bool:
        """Whether every item depends on the one before it.

        Such a block runs its items one after another; any other block
        runs dataflow-style, overlapping independent items.
        """

        return all(index - 1 in dep_list
                   for index, dep_list in enumerate(self.deps) if index > 0)

    def walk_segments(self):
        for item in self.items:
            if isinstance(item, Segment):
                yield item
            elif isinstance(item, LoopNode):
                yield from item.body.walk_segments()
            elif isinstance(item, IfNode):
                for branch in item.branches:
                    yield from branch.walk_segments()
            elif isinstance(item, CriticalNode):
                yield from item.body.walk_segments()

    def walk_loops(self):
        for item in self.items:
            if isinstance(item, LoopNode):
                yield item
                yield from item.body.walk_loops()
            elif isinstance(item, IfNode):
                for branch in item.branches:
                    yield from branch.walk_loops()
            elif isinstance(item, CriticalNode):
                yield from item.body.walk_loops()


@dataclass
class KernelSchedule:
    kernel: Kernel
    body: BodySchedule
    accesses: AccessMap
    #: segment.uid -> local-memory conflict group id.  Segments whose
    #: local-array accesses may touch the same BRAM words share the
    #: memory's ports and therefore serialize globally; segments proven
    #: disjoint (ping-pong buffers) get distinct groups and may overlap.
    local_groups: dict[int, int] = field(default_factory=dict)
    #: segment.uid -> port-cycles one iteration occupies on its group
    local_costs: dict[int, int] = field(default_factory=dict)

    # -- aggregate statistics (for reports and the area model) ---------
    @property
    def total_stages(self) -> int:
        return sum(max(1, seg.depth) for seg in self.body.walk_segments())

    @property
    def reordering_stages(self) -> int:
        return sum(seg.vlo_stages for seg in self.body.walk_segments())


def schedule_kernel(kernel: Kernel) -> KernelSchedule:
    """Compute the static schedule for ``kernel``."""

    from .. import telemetry

    with telemetry.span("hls.schedule.depanalysis", category="hls"):
        accesses = collect_accesses(kernel)
    scheduler = _Scheduler(kernel, accesses)
    with telemetry.span("hls.schedule.pipeline", category="hls"):
        body, _ = scheduler.schedule_block(kernel.body)
    schedule = KernelSchedule(kernel, body, accesses)
    with telemetry.span("hls.schedule.local_groups", category="hls"):
        _assign_local_groups(schedule)
    return schedule


def _assign_local_groups(schedule: KernelSchedule) -> None:
    """Partition segments into local-memory conflict groups.

    All segments touching local (BRAM) arrays start in singleton groups;
    groups are merged whenever two segments' local access sets *may*
    overlap per the dependence analysis.  Double-buffered code whose
    ping-pong halves are proven disjoint stays in separate groups, which
    is what lets its prefetch overlap its compute at runtime (Fig. 9),
    while a plain blocked kernel's load and compute phases share one
    group and serialize on the BRAM ports (Fig. 8).
    """

    segments = list(schedule.body.walk_segments())
    for index, segment in enumerate(segments):
        segment.uid = index
    for index, loop in enumerate(schedule.body.walk_loops()):
        loop.uid = index
    local_accesses: list[list[Access]] = []
    for segment in segments:
        acc = []
        counts: dict[int, int] = {}
        for sched in segment.sched_ops:
            op = sched.op
            if op.opcode in (Opcode.LOAD, Opcode.STORE, Opcode.PRELOAD):
                base = op.operands[0]
                if isinstance(base.type, PointerType) \
                        and base.type.space is MemorySpace.LOCAL:
                    for access in schedule.accesses.get(id(op), ()):
                        if access.base == base.id:
                            acc.append(access)
                    counts[base.id] = counts.get(base.id, 0) + 1
        local_accesses.append(acc)
        cost = 0
        for count in counts.values():
            cost = max(cost, -(-count // (BRAM_PORTS * BRAM_BANKS)))
        schedule.local_costs[segment.uid] = cost

    parent = list(range(len(segments)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(segments)):
        if not local_accesses[i]:
            continue
        for j in range(i + 1, len(segments)):
            if not local_accesses[j]:
                continue
            if may_share_storage(local_accesses[i], local_accesses[j]):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    for index, segment in enumerate(segments):
        if local_accesses[index]:
            schedule.local_groups[segment.uid] = find(index)


_STRUCTURED = {Opcode.FOR, Opcode.IF, Opcode.CRITICAL, Opcode.BARRIER}


class _Summary:
    """What an item's ops (nested regions included) define and touch.

    Value ids defined and used, register (variable) ids read and
    written, critical-section locks and memory accesses: the facts the
    item dependence DAG compares.  Built once per item, bottom-up: a
    segment's in the pass that schedules it, a structured item's from
    its own op and its body's summary.
    """

    __slots__ = ("defined", "used", "vars_read", "vars_written", "locks",
                 "accesses")

    def __init__(self) -> None:
        self.defined: set[int] = set()
        self.used: set[int] = set()
        self.vars_read: set[int] = set()
        self.vars_written: set[int] = set()
        self.locks: set[int] = set()
        self.accesses: list[Access] = []

    def add_structured(self, op: Operation) -> None:
        """Add a structured ``op`` itself (its regions are summarised
        already): the values it defines and uses, and a critical
        section's lock."""

        if op.result is not None:
            self.defined.add(op.result.id)
        for value in op.defined:
            self.defined.add(value.id)
        for operand in op.operands:
            self.used.add(operand.id)
        if op.opcode is Opcode.CRITICAL:
            self.locks.add(op.attrs.get("lock", 0))

    def merge(self, other: "_Summary") -> None:
        self.defined |= other.defined
        self.used |= other.used
        self.vars_read |= other.vars_read
        self.vars_written |= other.vars_written
        self.locks |= other.locks
        self.accesses += other.accesses


class _Scheduler:
    def __init__(self, kernel: Kernel, accesses: AccessMap):
        self.kernel = kernel
        self.accesses = accesses

    # ------------------------------------------------------------------
    def schedule_block(self, block: Block) -> tuple[BodySchedule, _Summary]:
        """The block's schedule, and the summary of all its ops."""

        items: list[Item] = []
        summaries: list[_Summary] = []
        run: list[Operation] = []
        for op in block.ops:
            if op.opcode in _STRUCTURED:
                if run:
                    self._add_segment(run, items, summaries)
                    run = []
                item, summary = self._schedule_structured(op)
                summary.add_structured(op)
                items.append(item)
                summaries.append(summary)
            else:
                run.append(op)
        if run:
            self._add_segment(run, items, summaries)
        body = BodySchedule(items, _item_deps(items, summaries))
        if not summaries:
            return body, _Summary()
        for summary in summaries[1:]:
            summaries[0].merge(summary)
        return body, summaries[0]

    def _add_segment(self, ops: list[Operation], items: list[Item],
                     summaries: list[_Summary]) -> None:
        segment, summary = self._schedule_segment(ops)
        items.append(segment)
        summaries.append(summary)

    def _schedule_structured(self, op: Operation) -> tuple[Item, _Summary]:
        """The item for ``op`` and the summary of its regions' ops."""

        if op.opcode is Opcode.FOR:
            return self._schedule_loop(op)
        if op.opcode is Opcode.IF:
            branches = [self.schedule_block(r) for r in op.regions]
            summary = branches[0][1]
            for _, other in branches[1:]:
                summary.merge(other)
            return IfNode(op, [body for body, _ in branches]), summary
        if op.opcode is Opcode.CRITICAL:
            body, summary = self.schedule_block(op.regions[0])
            return CriticalNode(op, op.attrs.get("lock", 0), body), summary
        if op.opcode is Opcode.BARRIER:
            return BarrierNode(op), _Summary()
        raise AssertionError(op.opcode)

    # ------------------------------------------------------------------
    # loops
    # ------------------------------------------------------------------
    def _schedule_loop(self, op: Operation) -> tuple[LoopNode, _Summary]:
        body_block = op.regions[0]
        leaf = all(inner.opcode not in _STRUCTURED for inner in body_block.ops)
        body, summary = self.schedule_block(body_block)
        if not leaf:
            return LoopNode(op, body, pipelined=False), summary
        assert len(body.items) <= 1
        if not body.items:
            return LoopNode(op, body, pipelined=True, ii=1, depth=1), summary
        segment = body.items[0]
        assert isinstance(segment, Segment)
        ii = self._resource_ii(segment)
        rec_ii = self._recurrence_ii(segment)
        return LoopNode(op, body, pipelined=True, ii=ii, rec_ii=rec_ii,
                        depth=max(1, segment.depth)), summary

    def _resource_ii(self, segment: Segment) -> int:
        ext_reads = sum(1 for m in segment.mem_ops if not m.is_write)
        ext_writes = sum(1 for m in segment.mem_ops if m.is_write)
        ii = max(
            1,
            math.ceil(ext_reads / EXT_READ_PORTS),
            math.ceil(ext_writes / EXT_WRITE_PORTS),
        )
        # Local-memory port contention, per array (cyclic banking assumed).
        per_array: dict[int, int] = {}
        for sched in segment.sched_ops:
            if sched.op.opcode in (Opcode.LOAD, Opcode.STORE):
                base = sched.op.operands[0]
                if isinstance(base.type, PointerType) \
                        and base.type.space is MemorySpace.LOCAL:
                    per_array[base.id] = per_array.get(base.id, 0) + 1
        for count in per_array.values():
            ii = max(ii, math.ceil(count / (BRAM_PORTS * BRAM_BANKS)))
        return ii

    def _recurrence_ii(self, segment: Segment) -> int:
        """Longest dependence path from an upward-exposed variable read to a
        write of the same variable (cycle length of the loop-carried
        recurrence; the distance is always 1 iteration)."""

        sched_ops = segment.sched_ops
        first_touch: dict[int, Opcode] = {}
        for sched in sched_ops:
            code = sched.op.opcode
            if code is Opcode.READ_VAR or code is Opcode.WRITE_VAR:
                first_touch.setdefault(sched.op.operands[0].id, code)
        carried = {var_id for var_id, code in first_touch.items()
                   if code is Opcode.READ_VAR}
        if not carried:
            return 1

        # One longest-path DP for all carried vars, in program order:
        # reach[k] maps each var with a path from one of its reads to op
        # k's start to the cycles of the longest such path.
        ii = 1
        producer_of: dict[int, int] = {}  # value id -> op index
        reach: list[dict[int, int]] = []
        for index, sched in enumerate(sched_ops):
            op = sched.op
            here: dict[int, int] = {}
            for operand in op.operands:
                pred = producer_of.get(operand.id)
                if pred is None or not reach[pred]:
                    continue
                latency = sched_ops[pred].latency
                for var_id, cycles in reach[pred].items():
                    if here.get(var_id, -1) < cycles + latency:
                        here[var_id] = cycles + latency
            code = op.opcode
            if code is Opcode.READ_VAR or code is Opcode.WRITE_VAR:
                var_id = op.operands[0].id
                if code is Opcode.READ_VAR:
                    if var_id in carried:
                        here[var_id] = 0
                elif var_id in here:
                    ii = max(ii, here[var_id] + sched.latency)
            reach.append(here)
            if op.result is not None:
                producer_of[op.result.id] = index
        return ii

    # ------------------------------------------------------------------
    # segments
    # ------------------------------------------------------------------
    def op_latency(self, op: Operation) -> int:
        info = op.info
        if op.opcode is Opcode.LOAD:
            base = op.operands[0]
            assert isinstance(base.type, PointerType)
            if base.type.space is MemorySpace.LOCAL:
                return BRAM_READ_LATENCY
            return EXT_READ_LATENCY
        if op.opcode is Opcode.STORE:
            base = op.operands[0]
            assert isinstance(base.type, PointerType)
            if base.type.space is MemorySpace.LOCAL:
                return BRAM_WRITE_LATENCY
            return EXT_WRITE_LATENCY
        if op.opcode is Opcode.CRITICAL:
            return CRITICAL_LATENCY
        if info.int_latency is not None and _all_integer(op):
            return info.int_latency
        return info.latency

    def _schedule_segment(self, ops: list[Operation]) -> tuple[Segment, _Summary]:
        """Schedule a run of simple ops, in one pass over them.

        Each op starts ASAP: after its operands' producers finish, after
        earlier register accesses it must not overtake, and after earlier
        accesses to the same memory unless provably disjoint.  The same
        pass tallies the segment's figures and the ops' summary.
        """

        accesses_of = self.accesses
        segment = Segment([])
        sched_ops = segment.sched_ops
        summary = _Summary()
        defined, used = summary.defined, summary.used
        #: value id -> cycle its producer's result is ready
        ready_at: dict[int, int] = {}
        #: var id -> cycle the last write to it completes
        written_at: dict[int, int] = {}
        #: var id -> cycle a write may follow every earlier access
        touched_at: dict[int, int] = {}
        #: base id -> (op, finish cycle) of each earlier memory op
        mem_order: dict[int, list[tuple[Operation, int]]] = {}
        last_use: dict[int, int] = {}  # value id -> start of its last use
        vlo_stage_set: set[int] = set()
        depth = 0

        for op in ops:
            latency = self.op_latency(op)
            ready = 0
            for operand in op.operands:
                at = ready_at.get(operand.id)
                if at is not None and at > ready:
                    ready = at
            code = op.opcode
            # register access ordering (RAW/WAR/WAW)
            if code is Opcode.READ_VAR:
                var_id = op.operands[0].id
                ready = max(ready, written_at.get(var_id, 0))
                touched_at[var_id] = max(touched_at.get(var_id, 0), ready)
                summary.vars_read.add(var_id)
            elif code is Opcode.WRITE_VAR:
                var_id = op.operands[0].id
                ready = max(ready, touched_at.get(var_id, 0))
                written_at[var_id] = max(written_at.get(var_id, 0),
                                         ready + latency)
                touched_at[var_id] = max(touched_at.get(var_id, 0),
                                         ready + latency)
                summary.vars_written.add(var_id)
            # memory ordering on the same base unless provably disjoint
            elif code is Opcode.LOAD or code is Opcode.STORE \
                    or code is Opcode.PRELOAD:
                bases = [op.operands[0].id]
                if code is Opcode.PRELOAD:
                    bases.append(op.operands[2].id)
                accesses = accesses_of.get(id(op), ())
                for base_id in bases:
                    for prior, finish in mem_order.get(base_id, ()):
                        if finish <= ready:
                            continue
                        prior_accesses = accesses_of.get(id(prior), ())
                        if accesses and prior_accesses and not any(
                                (a.is_write or p.is_write) and a.base == p.base
                                and a.overlaps(p)
                                for a in accesses for p in prior_accesses):
                            continue
                        ready = finish
                # ready is final now: later ops see this one's finish
                for base_id in bases:
                    mem_order.setdefault(base_id, []).append(
                        (op, ready + latency))
                summary.accesses.extend(accesses)
            sched_ops.append(ScheduledOp(op, ready, latency))

            if ready + latency > depth:
                depth = ready + latency
            if op.result is not None:
                ready_at[op.result.id] = ready + latency
                defined.add(op.result.id)
            for value in op.defined:
                defined.add(value.id)
            for operand in op.operands:
                used.add(operand.id)
                last = last_use.get(operand.id)
                if last is None or last < ready:
                    last_use[operand.id] = ready
            info = code.info
            if info.flops or info.intops:
                ty = _value_type(op)
                lanes = ty.lanes if isinstance(ty, VectorType) else 1
                if info.flops and ty is not None and ty.is_float:
                    segment.flops += info.flops * lanes
                else:
                    segment.intops += max(info.flops, info.intops) * lanes
            if code is Opcode.LOAD or code is Opcode.STORE:
                base = op.operands[0]
                assert isinstance(base.type, PointerType)
                is_write = code is Opcode.STORE
                if base.type.space is MemorySpace.EXTERNAL:
                    segment.mem_ops.append(MemOp(op, ready, latency, is_write,
                                                 _access_bytes(op)))
                    vlo_stage_set.add(ready)
                elif is_write:
                    segment.bram_writes += 1
                else:
                    segment.bram_reads += 1
            elif code is Opcode.PRELOAD:
                # the preloader issues one DMA burst (read from external);
                # actual byte counts come from the functional trace
                segment.mem_ops.append(MemOp(op, ready, latency, False, 0))
                segment.bram_writes += 1
                vlo_stage_set.add(ready)
            elif info.is_vlo:
                vlo_stage_set.add(ready)

        segment.depth = max(depth, 1)
        segment.vlo_stages = len(vlo_stage_set)
        # pipeline register estimate: value bits held from producing stage
        # to last consuming stage
        vlo_stages = sorted(vlo_stage_set)
        live_bits = 0
        context_bits = 0
        for sched in sched_ops:
            result = sched.op.result
            if result is None:
                continue
            last = last_use.get(result.id)
            if last is None:
                continue
            end = sched.start + sched.latency
            bits = max(1, result.type.bits())
            live_bits += bits * max(1, last - end)
            # a VLO stage in [end, last): the value crosses it
            first = bisect.bisect_left(vlo_stages, end)
            if first < len(vlo_stages) and vlo_stages[first] < last:
                context_bits += bits
        segment.live_bits = live_bits
        segment.context_bits = context_bits
        return segment, summary


def _item_deps(items: list[Item], summaries: list[_Summary]) -> list[list[int]]:
    """The item dependence DAG: ``deps[j]`` lists each earlier item that
    item ``j`` must wait for.

    A barrier orders everything; otherwise an item waits for an earlier
    one whose values it uses, whose registers it reads or writes out of
    order, whose lock it shares, or whose memory accesses may conflict
    with its own.
    """

    barrier = [isinstance(item, BarrierNode) for item in items]
    deps: list[list[int]] = [[] for _ in items]
    for j, later in enumerate(summaries):
        for i in range(j):
            early = summaries[i]
            if barrier[i] or barrier[j] \
                    or not later.used.isdisjoint(early.defined) \
                    or not early.vars_written.isdisjoint(later.vars_read) \
                    or not early.vars_written.isdisjoint(later.vars_written) \
                    or not early.vars_read.isdisjoint(later.vars_written) \
                    or not early.locks.isdisjoint(later.locks) \
                    or conflicts(early.accesses, later.accesses):
                deps[j].append(i)
    return deps


def _value_type(op: Operation) -> Optional[Type]:
    """The type an op computes in: its result's, else its last operand's."""

    if op.result is not None:
        return op.result.type
    return op.operands[-1].type if op.operands else None


def _all_integer(op: Operation) -> bool:
    for operand in op.operands:
        ty = operand.type
        if isinstance(ty, VectorType):
            ty = ty.elem
        if not (isinstance(ty, ScalarType) and (ty.is_integer or ty.name == "i1")):
            return False
    return bool(op.operands)


def _access_bytes(op: Operation) -> int:
    if op.opcode is Opcode.LOAD:
        assert op.result is not None
        return max(1, op.result.type.bits() // 8)
    return max(1, op.operands[2].type.bits() // 8)
