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

import math
from dataclasses import dataclass, field
from typing import Optional, Union

from ..ir.graph import Block, Kernel, Operation
from ..ir.ops import Opcode
from ..ir.types import MemorySpace, PointerType, ScalarType, Type, VectorType
from .depanalysis import (Access, AccessMap, collect_accesses, conflicts,
                          may_share_storage)

__all__ = [
    "ScheduleOptions", "ScheduledOp", "MemOp", "Segment", "LoopNode",
    "IfNode", "CriticalNode", "BarrierNode", "Item", "BodySchedule",
    "KernelSchedule", "schedule_kernel",
]


@dataclass(frozen=True)
class ScheduleOptions:
    """Latency assumptions used at synthesis time."""

    #: scheduled (minimum) latency of an external-memory read
    ext_read_latency: int = 8
    #: scheduled (minimum) latency of an external-memory write (posted)
    ext_write_latency: int = 2
    #: BRAM access latencies (fixed; local accesses are not VLOs)
    bram_read_latency: int = 2
    bram_write_latency: int = 1
    #: scheduled (minimum) latency of acquiring an uncontended semaphore
    critical_latency: int = 4
    #: access slots per local memory per cycle = ports * banks.  The
    #: defaults are calibrated so the blocked GEMM's compute throughput
    #: sits in the paper's measured band relative to the naive version.
    bram_ports: int = 1
    #: cyclic banking factor applied to local arrays (HLS array partitioning)
    bram_banks: int = 1
    #: external read/write ports per hardware thread (§IV-B.2c: all memory
    #: operations multiplex to one Avalon read and one write port per thread)
    ext_read_ports: int = 1
    ext_write_ports: int = 1


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
    options: ScheduleOptions
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

    @property
    def pipelined_loops(self) -> list[LoopNode]:
        return [loop for loop in self.body.walk_loops() if loop.pipelined]


def schedule_kernel(kernel: Kernel,
                    options: Optional[ScheduleOptions] = None) -> KernelSchedule:
    """Compute the static schedule for ``kernel``."""

    from .. import telemetry

    options = options or ScheduleOptions()
    with telemetry.span("hls.schedule.depanalysis", category="hls"):
        accesses = collect_accesses(kernel)
    scheduler = _Scheduler(kernel, accesses, options)
    with telemetry.span("hls.schedule.pipeline", category="hls"):
        body = scheduler.schedule_block(kernel.body)
    schedule = KernelSchedule(kernel, body, accesses, options)
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

    opts = schedule.options
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
        ports = max(1, opts.bram_ports * max(1, opts.bram_banks))
        cost = 0
        for count in counts.values():
            cost = max(cost, -(-count // ports))
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


class _Scheduler:
    def __init__(self, kernel: Kernel, accesses: AccessMap,
                 options: ScheduleOptions):
        self.kernel = kernel
        self.accesses = accesses
        self.options = options

    # ------------------------------------------------------------------
    def schedule_block(self, block: Block) -> BodySchedule:
        items: list[Item] = []
        run: list[Operation] = []
        for op in block.ops:
            if op.opcode in _STRUCTURED:
                if run:
                    items.append(self._schedule_segment(run))
                    run = []
                items.append(self._schedule_structured(op))
            else:
                run.append(op)
        if run:
            items.append(self._schedule_segment(run))
        deps = self._item_deps(items)
        return BodySchedule(items, deps)

    def _schedule_structured(self, op: Operation) -> Item:
        if op.opcode is Opcode.FOR:
            return self._schedule_loop(op)
        if op.opcode is Opcode.IF:
            return IfNode(op, [self.schedule_block(r) for r in op.regions])
        if op.opcode is Opcode.CRITICAL:
            return CriticalNode(op, op.attrs.get("lock", 0),
                                self.schedule_block(op.regions[0]))
        if op.opcode is Opcode.BARRIER:
            return BarrierNode(op)
        raise AssertionError(op.opcode)

    # ------------------------------------------------------------------
    # loops
    # ------------------------------------------------------------------
    def _schedule_loop(self, op: Operation) -> LoopNode:
        body_block = op.regions[0]
        leaf = all(inner.opcode not in _STRUCTURED for inner in body_block.ops)
        body = self.schedule_block(body_block)
        if not leaf:
            return LoopNode(op, body, pipelined=False)
        assert len(body.items) <= 1
        if not body.items:
            return LoopNode(op, body, pipelined=True, ii=1, depth=1)
        segment = body.items[0]
        assert isinstance(segment, Segment)
        ii = self._resource_ii(segment)
        rec_ii = self._recurrence_ii(segment)
        return LoopNode(op, body, pipelined=True, ii=ii, rec_ii=rec_ii,
                        depth=max(1, segment.depth))

    def _resource_ii(self, segment: Segment) -> int:
        opts = self.options
        ext_reads = sum(1 for m in segment.mem_ops if not m.is_write)
        ext_writes = sum(1 for m in segment.mem_ops if m.is_write)
        ii = max(
            1,
            math.ceil(ext_reads / opts.ext_read_ports),
            math.ceil(ext_writes / opts.ext_write_ports),
        )
        # Local-memory port contention, per array (cyclic banking assumed).
        per_array: dict[int, int] = {}
        for sched in segment.sched_ops:
            if sched.op.opcode in (Opcode.LOAD, Opcode.STORE):
                base = sched.op.operands[0]
                if isinstance(base.type, PointerType) \
                        and base.type.space is MemorySpace.LOCAL:
                    per_array[base.id] = per_array.get(base.id, 0) + 1
        ports = opts.bram_ports * max(1, opts.bram_banks)
        for count in per_array.values():
            ii = max(ii, math.ceil(count / ports))
        return ii

    def _recurrence_ii(self, segment: Segment) -> int:
        """Longest dependence path from an upward-exposed variable read to a
        write of the same variable (cycle length of the loop-carried
        recurrence; the distance is always 1 iteration)."""

        first_touch: dict[int, Opcode] = {}
        for sched in segment.sched_ops:
            code = sched.op.opcode
            if code in (Opcode.READ_VAR, Opcode.WRITE_VAR):
                first_touch.setdefault(sched.op.operands[0].id, code)
        carried = {var_id for var_id, code in first_touch.items()
                   if code is Opcode.READ_VAR}
        if not carried:
            return 1

        ii = 1
        producers: dict[int, ScheduledOp] = {}
        for sched in segment.sched_ops:
            if sched.op.result is not None:
                producers[sched.op.result.id] = sched
        for var_id in carried:
            # longest-path DP from every read of this var, in program order
            dist: dict[int, int] = {}  # id(op) -> path cycles up to op start
            for sched in segment.sched_ops:
                op = sched.op
                if op.opcode is Opcode.READ_VAR and op.operands[0].id == var_id:
                    dist[id(op)] = 0
                    continue
                best = None
                for operand in op.operands:
                    producer = producers.get(operand.id)
                    if producer is not None and id(producer.op) in dist:
                        cand = dist[id(producer.op)] + producer.latency
                        best = cand if best is None else max(best, cand)
                if best is not None:
                    dist[id(op)] = best
                if op.opcode is Opcode.WRITE_VAR and op.operands[0].id == var_id \
                        and id(op) in dist:
                    ii = max(ii, dist[id(op)] + sched.latency)
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
                return self.options.bram_read_latency
            return self.options.ext_read_latency
        if op.opcode is Opcode.STORE:
            base = op.operands[0]
            assert isinstance(base.type, PointerType)
            if base.type.space is MemorySpace.LOCAL:
                return self.options.bram_write_latency
            return self.options.ext_write_latency
        if op.opcode is Opcode.CRITICAL:
            return self.options.critical_latency
        if info.int_latency is not None and _all_integer(op):
            return info.int_latency
        return info.latency

    def _schedule_segment(self, ops: list[Operation]) -> Segment:
        starts: dict[int, int] = {}  # id(op) -> start cycle
        by_value: dict[int, Operation] = {}
        last_var_touch: dict[int, list[Operation]] = {}
        mem_order: dict[int, list[Operation]] = {}  # base id -> prior mem ops
        sched_ops: list[ScheduledOp] = []

        for op in ops:
            ready = 0
            for operand in op.operands:
                producer = by_value.get(operand.id)
                if producer is not None:
                    ready = max(ready, starts[id(producer)]
                                + self.op_latency(producer))
            # register access ordering (RAW/WAR/WAW)
            if op.opcode in (Opcode.READ_VAR, Opcode.WRITE_VAR):
                var_id = op.operands[0].id
                for prior in last_var_touch.get(var_id, []):
                    if op.opcode is Opcode.READ_VAR \
                            and prior.opcode is Opcode.READ_VAR:
                        continue
                    extra = self.op_latency(prior) if \
                        prior.opcode is Opcode.WRITE_VAR else 0
                    ready = max(ready, starts[id(prior)] + extra)
                last_var_touch.setdefault(var_id, []).append(op)
            # memory ordering on the same base unless provably disjoint
            if op.opcode in (Opcode.LOAD, Opcode.STORE, Opcode.PRELOAD):
                bases = [op.operands[0].id]
                if op.opcode is Opcode.PRELOAD:
                    bases.append(op.operands[2].id)
                accesses = self.accesses.get(id(op), ())
                for base_id in bases:
                    for prior in mem_order.get(base_id, []):
                        prior_accesses = self.accesses.get(id(prior), ())
                        if accesses and prior_accesses and not any(
                                (a.is_write or p.is_write) and a.base == p.base
                                and a.overlaps(p)
                                for a in accesses for p in prior_accesses):
                            continue
                        ready = max(ready, starts[id(prior)]
                                    + self.op_latency(prior))
                    mem_order.setdefault(base_id, []).append(op)

            starts[id(op)] = ready
            if op.result is not None:
                by_value[op.result.id] = op
            sched_ops.append(ScheduledOp(op, ready, self.op_latency(op)))

        return self._finalize_segment(sched_ops)

    def _finalize_segment(self, sched_ops: list[ScheduledOp]) -> Segment:
        segment = Segment(sched_ops)
        depth = 0
        vlo_stage_set: set[int] = set()
        uses: dict[int, int] = {}  # value id -> last use start
        for sched in sched_ops:
            depth = max(depth, sched.end)
            for operand in sched.op.operands:
                uses[operand.id] = max(uses.get(operand.id, 0), sched.start)
            op = sched.op
            info = op.info
            lanes = _lanes_of(op)
            if info.flops and _is_float(op):
                segment.flops += info.flops * lanes
            elif info.flops or info.intops:
                segment.intops += max(info.flops, info.intops) * lanes
            if op.opcode in (Opcode.LOAD, Opcode.STORE):
                base = op.operands[0]
                assert isinstance(base.type, PointerType)
                is_write = op.opcode is Opcode.STORE
                if base.type.space is MemorySpace.EXTERNAL:
                    nbytes = _access_bytes(op)
                    segment.mem_ops.append(MemOp(op, sched.start, sched.latency,
                                                 is_write, nbytes))
                    vlo_stage_set.add(sched.start)
                else:
                    if is_write:
                        segment.bram_writes += 1
                    else:
                        segment.bram_reads += 1
            elif op.opcode is Opcode.PRELOAD:
                # the preloader issues one DMA burst (read from external);
                # actual byte counts come from the functional trace
                segment.mem_ops.append(MemOp(op, sched.start, sched.latency,
                                             False, 0))
                segment.bram_writes += 1
                vlo_stage_set.add(sched.start)
            elif op.is_vlo:
                vlo_stage_set.add(sched.start)
        segment.depth = max(depth, 1)
        segment.vlo_stages = len(vlo_stage_set)
        # pipeline register estimate: value bits held from producing stage
        # to last consuming stage
        live_bits = 0
        context_bits = 0
        for sched in sched_ops:
            result = sched.op.result
            if result is None:
                continue
            last_use = uses.get(result.id)
            if last_use is None:
                continue
            lifetime = max(0, last_use - sched.end)
            bits = max(1, result.type.bits())
            live_bits += bits * max(1, lifetime)
            if any(sched.end <= stage < last_use for stage in vlo_stage_set):
                context_bits += bits
        segment.live_bits = live_bits
        segment.context_bits = context_bits
        return segment

    # ------------------------------------------------------------------
    # item-level dependence DAG
    # ------------------------------------------------------------------
    def _item_deps(self, items: list[Item]) -> list[list[int]]:
        n = len(items)
        defined: list[set[int]] = []
        used: list[set[int]] = []
        vars_read: list[set[int]] = []
        vars_written: list[set[int]] = []
        accesses: list[list[Access]] = []
        locks: list[set[int]] = []

        for item in items:
            d: set[int] = set()
            u: set[int] = set()
            vr: set[int] = set()
            vw: set[int] = set()
            acc: list[Access] = []
            lk: set[int] = set()
            for op in _item_ops(item):
                for inner in op.walk():
                    if inner.result is not None:
                        d.add(inner.result.id)
                    for value in inner.defined:
                        d.add(value.id)
                    for operand in inner.operands:
                        u.add(operand.id)
                    if inner.opcode is Opcode.READ_VAR:
                        vr.add(inner.operands[0].id)
                    elif inner.opcode is Opcode.WRITE_VAR:
                        vw.add(inner.operands[0].id)
                    elif inner.opcode is Opcode.CRITICAL:
                        lk.add(inner.attrs.get("lock", 0))
                    acc.extend(self.accesses.get(id(inner), ()))
            defined.append(d)
            used.append(u)
            vars_read.append(vr)
            vars_written.append(vw)
            accesses.append(acc)
            locks.append(lk)

        deps: list[list[int]] = [[] for _ in range(n)]
        for j in range(n):
            for i in range(j):
                if isinstance(items[i], BarrierNode) or \
                        isinstance(items[j], BarrierNode):
                    deps[j].append(i)
                    continue
                if used[j] & defined[i]:
                    deps[j].append(i)
                    continue
                if (vars_written[i] & (vars_read[j] | vars_written[j])) or \
                        (vars_read[i] & vars_written[j]):
                    deps[j].append(i)
                    continue
                if locks[i] & locks[j]:
                    deps[j].append(i)
                    continue
                if conflicts(accesses[i], accesses[j]):
                    deps[j].append(i)
                    continue
        return deps


def _item_ops(item: Item) -> list[Operation]:
    if isinstance(item, Segment):
        return item.ops
    return [item.op]


def _lanes_of(op: Operation) -> int:
    ty: Optional[Type] = None
    if op.result is not None:
        ty = op.result.type
    elif op.operands:
        ty = op.operands[-1].type
    return ty.lanes if isinstance(ty, VectorType) else 1


def _is_float(op: Operation) -> bool:
    ty = op.result.type if op.result is not None else (
        op.operands[-1].type if op.operands else None)
    return bool(ty is not None and ty.is_float)


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
