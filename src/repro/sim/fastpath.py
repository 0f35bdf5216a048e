"""The fast path for pipelined loops: one codegen'd driver per loop nest.

The scalar reference in :mod:`repro.sim.executor` walks a pipelined
loop one iteration at a time: functional evaluation through the
compiled segment, then leaky-bucket issue booking, window backpressure
and per-access DRAM booking.  This module runs a pipelined loop — alone,
or as the leaf of a nest of sequential loops — in two halves:

* the *value kernel*: the functional work of every ``entries x trips``
  iteration runs as one :func:`compile_segment_vectorized` numpy call
  (entry boundaries become reset points of the accumulator scan), which
  also yields the external-access element indices the timing model
  needs;
* the *driver*: one codegen'd generator walks the nest's control
  skeleton — loop bubbles, leading segments, the per-entry pipelined
  recurrence, trailing segments and critical sections — with the exact
  yield sequence and mutation order of the reference executor.

Between the two halves, each pipelined memory op keeps only its element
indices, as one int32 column (int64 when an index reaches 2**31).  The
driver turns them into DRAM bank/row/channel lists one *slab* at a time:
whole chunks, at most ``max(SLAB_TRIPS, chunk)`` trips, fetched where a
chunk starts past the current slab.  A nest therefore holds 4–8 bytes
per memory-op trip plus the lists of one slab, not Python ints for every
trip.

A lone pipelined loop is a depth-0 nest: no sequential levels, one
entry.  Profiling deposits are rows logged in deposit order at the
reference deposit points, interleaved with concurrently-running loops
(double buffering) exactly as in the reference, and binned in log order
at finalize; cycle-accounting deposits are made eagerly at the same
points, a single-window one added by the driver itself into the table
cell and the thread's attribution row array, the rest through the
accounting sink.  A loop without a plan, or whose value kernel raises
:class:`~repro.sim.interp.VectorFallback` (always before any functional
side effect), runs on the scalar reference, so both exec modes produce
bit-identical cycles, traces, stalls, DRAM counters and attribution
tables.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ..hls.schedule import CriticalNode, LoopNode, Segment
from ..ir.ops import Opcode
from ..ir.types import MemorySpace
from ..profiling.attribution import (
    N_SLOTS, REGION_SYNC, loop_region, segment_region,
)
from ..profiling.config import ThreadState
from .engine import Event
from .interp import (
    VectorFallback, VectorizeError, VectorizedSegment, _elem_bytes, _lanes,
    compile_segment_vectorized,
)

__all__ = ["NestPlan", "build_nest_plan", "prepare_nest"]

#: pipelined trips per address slab: the driver holds the bank/row/channel
#: lists of at most ``max(SLAB_TRIPS, chunk)`` trips at a time
SLAB_TRIPS = 4096


_IOTA = np.arange(64, dtype=np.int64)


def _index_column(idx: np.ndarray) -> np.ndarray:
    """``idx`` as int32 when every index fits (below 2**31), else int64."""

    if idx.size and (idx.max() >= 2 ** 31 or idx.min() < -2 ** 31):
        return idx.astype(np.int64, copy=False)
    return idx.astype(np.int32)


def _iota(n: int) -> np.ndarray:
    """A read-only ``arange(n)`` served from a grow-only cache."""

    global _IOTA
    if n > _IOTA.shape[0]:
        _IOTA = np.arange(n, dtype=np.int64)
    return _IOTA[:n]


#: value-producing opcodes whose result is entry-invariant when all
#: operands are (used to prove loop bounds and kernel inputs constant
#: across entries)
_PURE_OPS = frozenset((
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.REM, Opcode.NEG,
    Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.NOT, Opcode.SHL, Opcode.SHR,
    Opcode.EQ, Opcode.NE, Opcode.LT, Opcode.LE, Opcode.GT, Opcode.GE,
    Opcode.CAST, Opcode.SELECT,
))


@dataclass
class _Trail:
    """One trailing item of a nest level: a segment, optionally locked."""

    segment: Segment
    compiled: object
    lock: object            # CriticalNode lock id, or None
    level: int
    #: per compiled input: ('s', snapshot slot) or ('l', live value id)
    argsrc: tuple
    #: value ids captured per entry, in snapshot-slot order
    snap_ids: tuple
    #: var restores before the call: (vid, 'fin', entry-var index) or
    #: (vid, 'sv', snapshot var slot)
    restores: tuple
    #: var ids captured per entry (appended after snap_ids in the tuple)
    snap_var_ids: tuple
    #: per external access: (start, sched_latency, nbytes, is_write, name)
    mems: tuple


@dataclass
class NestLevel:
    """One sequential loop of a flattenable nest."""

    iv_id: int
    uid: int
    bounds: tuple           # (lower, upper, step) value ids
    #: (segment, compiled segment) per leading segment
    leading: tuple
    #: indices into NestPlan.trails
    trailing: tuple


@dataclass
class NestPlan:
    """Everything needed to run a sequential x pipelined nest batched.

    A lone pipelined loop is the depth-0 case: ``levels`` is empty and
    every dispatch is one entry.
    """

    levels: tuple
    pipe: LoopNode
    pipe_bounds: tuple      # (lower, upper, step) value ids
    p_iv: int
    pseg: Segment
    vseg: VectorizedSegment
    #: per external access of the pipelined segment, in segment order:
    #: (stage offset, stage offset + scheduled latency, bytes moved,
    #: is_write, buffer name)
    mem: list
    group_id: object
    group_cost: int
    trails: tuple
    #: (vid, is_entry_input) per vseg input, in call order
    input_plan: tuple
    entry_vars: tuple
    entry_var_float: tuple
    chunk: int
    window: int
    dram: object
    uid: int
    #: the compiled timing generator; set on the plan's first dispatch
    #: by :func:`prepare_nest`
    driver: object = None


def _var_touches(seg: Segment):
    """(first touch kind, written ids, read ids) of a segment's vars."""

    first: dict[int, str] = {}
    written: set[int] = set()
    reads: set[int] = set()
    for op in seg.ops:
        code = op.opcode
        if code is Opcode.DECL_VAR:
            first.setdefault(op.attrs["var"].id, "w")
            written.add(op.attrs["var"].id)
        elif code is Opcode.READ_VAR:
            first.setdefault(op.operands[0].id, "r")
            reads.add(op.operands[0].id)
        elif code is Opcode.WRITE_VAR:
            first.setdefault(op.operands[0].id, "w")
            written.add(op.operands[0].id)
    return first, written, reads


def _base_key(base):
    if base.type.space is MemorySpace.LOCAL:
        return ("loc", base.id)
    return ("ext", base.name)


def _seg_bases(seg: Segment):
    """(loaded, stored) base keys of a segment, local and external."""

    loads: set = set()
    stores: set = set()
    for op in seg.ops:
        if op.opcode is Opcode.LOAD:
            loads.add(_base_key(op.operands[0]))
        elif op.opcode is Opcode.STORE:
            stores.add(_base_key(op.operands[0]))
    return loads, stores


def _memop_bytes(memop):
    op = memop.op
    base = op.operands[0]
    if op.opcode is Opcode.LOAD:
        return _lanes(op.result.type) * _elem_bytes(base.type.elem)
    return _lanes(op.operands[2].type) * _elem_bytes(base.type.elem)


def build_nest_plan(item: LoopNode, schedule, external_uses: set[int],
                    config, get_compiled):
    """Analyze a loop as a flattenable nest (None if not).

    A pipelined ``item`` is a depth-0 nest: the checks below reduce to
    "single-segment body, vectorizable segment".  For a sequential
    ``item`` the flattenability criteria are (checked statically;
    anything outside them keeps the reference per-entry path, whose
    pipelined leaf is again a depth-0 nest):

    * every level is a sequential loop whose body is leading mem-free
      segments, exactly one inner loop, then trailing segments (plain
      or critical-wrapped); the innermost loop is pipelined with a
      single-segment body;
    * all inner loop bounds are entry-invariant (constants, values from
      outside the nest, or pure functions of invariant leading values);
    * vars written by the pipelined segment are invisible mid-nest
      except accumulators reset by the innermost leading segment
      (first-touch write), whose per-entry finals feed the trailing
      segments; leading segments never read what the pipelined or
      trailing segments write;
    * no memory base is written on one side of an entry boundary and
      read or re-written on the other (pipelined stores vs trailing
      accesses and vice versa).
    """

    levels_raw = []
    node = item
    pipe = item if item.pipelined else None
    while pipe is None:
        if node.uid < 0:
            return None
        items = node.body.items
        if not items or not node.body.sequential:
            return None
        pos = 0
        leading = []
        while pos < len(items) and isinstance(items[pos], Segment):
            seg = items[pos]
            if seg.uid < 0 or seg.mem_ops:
                return None
            if any(op.opcode in (Opcode.ALLOC_LOCAL, Opcode.PRELOAD)
                   for op in seg.ops):
                return None
            leading.append(seg)
            pos += 1
        if pos >= len(items) or not isinstance(items[pos], LoopNode):
            return None
        inner = items[pos]
        trail_units = []
        for it in items[pos + 1:]:
            if isinstance(it, Segment):
                if it.uid < 0:
                    return None
                trail_units.append((it, None))
            elif isinstance(it, CriticalNode):
                sub = it.body.items
                if len(sub) != 1 or not isinstance(sub[0], Segment) or \
                        sub[0].uid < 0:
                    return None
                trail_units.append((sub[0], it.lock))
            else:
                return None
        levels_raw.append((node, leading, trail_units))
        if inner.pipelined:
            pipe = inner
        node = inner
    if pipe.uid < 0 or len(pipe.body.items) != 1:
        return None
    pseg = pipe.body.items[0]
    if not isinstance(pseg, Segment) or pseg.uid < 0:
        return None

    k = len(levels_raw)
    level_ivs = [lv[0].op.defined[0].id for lv in levels_raw]
    iv_set = set(level_ivs)
    p_iv = pipe.op.defined[0].id
    lead_segs = [seg for lv in levels_raw for seg in lv[1]]
    trail_segs = [unit[0] for lv in levels_raw for unit in lv[2]]
    if any(op.opcode is Opcode.PRELOAD
           for seg in trail_segs for op in seg.ops):
        return None

    # -- var dataflow across the nest's three phases -------------------
    touches = {seg.uid: _var_touches(seg) for seg in lead_segs + trail_segs}
    lead_vw: dict[int, list[Segment]] = {}
    lead_vr: set[int] = set()
    for seg in lead_segs:
        _first, written, reads = touches[seg.uid]
        for vid in written:
            lead_vw.setdefault(vid, []).append(seg)
        lead_vr |= reads
    p_first, p_vw, p_vr = _var_touches(pseg)
    trail_vw: set[int] = set()
    for seg in trail_segs:
        trail_vw |= touches[seg.uid][1]
    # a leading segment re-runs per entry during the pre-pass, before
    # the pipelined/trailing work of earlier entries: it must not read
    # anything those write.  The pipelined mega-call reads vars once,
    # so nothing it consumes may change under trailing's feet either.
    if lead_vr & (p_vw | trail_vw):
        return None
    if p_vr & trail_vw:
        return None

    p_kind = {vid: ("invariant" if vid not in p_vw
                    else "carried" if touch == "r" else "local")
              for vid, touch in p_first.items()}
    if any(kind == "invariant" and vid in lead_vw
           for vid, kind in p_kind.items()):
        return None  # per-entry varying var read as a mega-time scalar
    entry_vars = tuple(sorted(
        vid for vid, kind in p_kind.items()
        if kind == "carried" and vid in lead_vw))
    innermost_leads = {id(seg) for seg in levels_raw[-1][1]} \
        if levels_raw else set()
    for vid in entry_vars:
        writers = lead_vw[vid]
        # reset exactly once per innermost entry, by a first-touch
        # write (the seed must not depend on the previous entry)
        if len(writers) != 1 or id(writers[0]) not in innermost_leads:
            return None
        wseg = writers[0]
        if touches[wseg.uid][0].get(vid) != "w":
            return None
        for seg in lead_segs:
            if seg is not wseg and (vid in touches[seg.uid][1]
                                    or vid in touches[seg.uid][2]):
                return None

    # -- value-level invariance ----------------------------------------
    lead_def: dict[int, object] = {}
    lead_def_level: dict[int, int] = {}
    for li, (_node, leads, _t) in enumerate(levels_raw):
        for seg in leads:
            for op in seg.ops:
                if op.result is not None:
                    lead_def[op.result.id] = op
                    lead_def_level[op.result.id] = li
    p_def = {op.result.id for op in pseg.ops if op.result is not None}
    trail_def: set[int] = set()
    for seg in trail_segs:
        for op in seg.ops:
            if op.result is not None:
                trail_def.add(op.result.id)
    nest_vw = set(lead_vw) | p_vw | trail_vw

    inv_memo: dict[int, bool] = {}

    def inv(vid: int) -> bool:
        hit = inv_memo.get(vid)
        if hit is not None:
            return hit
        inv_memo[vid] = False  # cycle guard
        if vid in iv_set or vid == p_iv or vid in p_def or vid in trail_def:
            result = False
        else:
            op = lead_def.get(vid)
            if op is None:
                result = True  # defined before the nest: one value
            elif op.opcode in (Opcode.CONST, Opcode.THREAD_ID,
                               Opcode.NUM_THREADS):
                result = True
            elif op.opcode is Opcode.READ_VAR:
                result = op.operands[0].id not in nest_vw
            elif op.opcode in _PURE_OPS:
                result = all(inv(operand.id) for operand in op.operands)
            else:
                result = False
        inv_memo[vid] = result
        return result

    # inner bounds must be invariant AND defined by the time the loop
    # is first entered (a shallower level's leading, or pre-nest)
    for li, (lnode, _l, _t) in enumerate(levels_raw):
        if li == 0:
            continue  # resolved at dispatch, like the reference
        for operand in lnode.op.operands[:3]:
            if not inv(operand.id):
                return None
            home = lead_def_level.get(operand.id)
            if home is not None and home >= li:
                return None
    for operand in pipe.op.operands[:3]:
        if not inv(operand.id):
            return None

    # -- memory-base hazards across entry boundaries -------------------
    p_loads, p_stores = _seg_bases(pseg)
    t_loads: set = set()
    t_stores: set = set()
    for seg in trail_segs:
        loads, stores = _seg_bases(seg)
        t_loads |= loads
        t_stores |= stores
    if p_stores & (t_loads | t_stores):
        return None
    if p_loads & t_stores:
        return None
    # leading segments re-run ahead of everything in the pre-pass: they
    # must be pure (local stores would land before earlier entries'
    # pipelined/trailing work) and must not read what the later phases
    # write
    l_loads: set = set()
    for seg in lead_segs:
        loads, stores = _seg_bases(seg)
        if stores:
            return None
        l_loads |= loads
    if l_loads & (p_stores | t_stores):
        return None

    # -- compile the pipelined segment's value kernel -----------------
    entry_inputs = iv_set | {vid for vid in lead_def if not inv(vid)}
    try:
        vseg = compile_segment_vectorized(pseg, external_uses, p_iv,
                                          entry_inputs=entry_inputs,
                                          entry_vars=entry_vars)
    except VectorizeError:
        return None
    if any(vid in trail_def for vid in vseg.inputs):
        return None  # cross-entry value feed from trailing
    input_plan = tuple((vid, vid in entry_inputs) for vid in vseg.inputs)
    ev_float = []
    for vid in entry_vars:
        for op in pseg.ops:
            if op.opcode is Opcode.READ_VAR and op.operands[0].id == vid:
                ev_float.append(bool(op.result.type.is_float))
                break
        else:  # pragma: no cover - classified carried, so a read exists
            return None

    mem = [(memop.start, memop.start + memop.sched_latency,
            _memop_bytes(memop), memop.is_write, memop.op.operands[0].name)
           for memop in pseg.mem_ops]

    # -- leading / trailing compilation --------------------------------
    trails: list[_Trail] = []
    levels: list[NestLevel] = []
    for li, (lnode, leads, tunits) in enumerate(levels_raw):
        deeper = set(level_ivs[li + 1:]) | {p_iv}
        lead_list = []
        for seg in leads:
            compiled = get_compiled(seg)
            if any(vid in p_def or vid in trail_def or vid in deeper
                   for vid in compiled.inputs):
                return None  # pre-pass would read a stale value
            lead_list.append((seg, compiled))
        t_idx = []
        for seg, lock in tunits:
            compiled = get_compiled(seg)
            argsrc = []
            snap_ids: list[int] = []
            for vid in compiled.inputs:
                if vid in p_def or vid == p_iv:
                    return None  # per-entry pipelined value, not replayable
                if vid in trail_def:
                    argsrc.append(("l", vid))
                elif vid in lead_def or vid in iv_set:
                    argsrc.append(("s", len(snap_ids)))
                    snap_ids.append(vid)
                else:
                    argsrc.append(("l", vid))
            restores = []
            snap_var_ids: list[int] = []
            for vid in sorted(touches[seg.uid][2]):
                if vid in entry_vars:
                    restores.append((vid, "fin", entry_vars.index(vid)))
                elif vid in p_vw:
                    return None  # covered above for most shapes; be safe
                elif vid in lead_vw:
                    restores.append((vid, "sv", len(snap_var_ids)))
                    snap_var_ids.append(vid)
            mems = []
            for memop in seg.mem_ops:
                mems.append((memop.start, memop.sched_latency,
                             _memop_bytes(memop), memop.is_write,
                             memop.op.operands[0].name))
            t_idx.append(len(trails))
            trails.append(_Trail(seg, compiled, lock, li, tuple(argsrc),
                                 tuple(snap_ids), tuple(restores),
                                 tuple(snap_var_ids), tuple(mems)))
        levels.append(NestLevel(
            iv_id=lnode.op.defined[0].id, uid=lnode.uid,
            bounds=tuple(operand.id for operand in lnode.op.operands[:3]),
            leading=tuple(lead_list), trailing=tuple(t_idx)))

    group_id = schedule.local_groups.get(pseg.uid)
    group_cost = max(1, schedule.local_costs.get(pseg.uid, 1)) \
        if group_id is not None else 0
    chunk = max(1, config.loop_chunk)
    window = max(1, config.pipeline_window)
    return NestPlan(
        levels=tuple(levels), pipe=pipe,
        pipe_bounds=tuple(operand.id for operand in pipe.op.operands[:3]),
        p_iv=p_iv, pseg=pseg, vseg=vseg, mem=mem,
        group_id=group_id, group_cost=group_cost,
        trails=tuple(trails), input_plan=input_plan, entry_vars=entry_vars,
        entry_var_float=tuple(ev_float), chunk=chunk, window=window,
        dram=config.dram, uid=item.uid)


def _compile_nest_driver(nplan: NestPlan, limit, grant, events, attr):
    """exec-compile the whole-nest timing generator of ``nplan``.

    The generated function replays the reference executor's exact
    control skeleton for one nest dispatch — per-trip loop bubbles,
    leading-segment deposits, the per-entry pipelined recurrence over
    slabs of bank/row/channel lists, conditional advance/tail yields, and
    trailing segments with the full critical-section protocol — with
    every schedule constant folded in as a literal.  It mutates the
    same shared state (leaky buckets, port histories, DRAM banks/bus,
    semaphore) in the same order at the same simulated times as the
    reference, changes thread states through the recorder's
    ``set_state``, and appends one profiling row to the recorder's log
    at each reference deposit point, so the log keeps the reference
    deposit order even against concurrently-running loops.  With
    ``events`` false (no counters configured) it logs nothing.

    Each pipelined entry runs one body: its trip count ``T`` is a
    runtime argument, issued in chunks of ``chunk`` trips, so one driver
    serves every dispatch of the plan.  A body without external accesses
    or a BRAM port group issues all but each chunk's first trip in
    closed form.  The pipelined accesses' bank/row/channel lists come
    from ``slab(lo, hi)`` for nest trips ``[lo, hi)``: at a chunk start
    that runs past the current slab, the driver fetches the next one,
    ending at the last chunk boundary within ``span`` trips, so slabs
    tile the nest and ``p`` counts trips within the slab (the slab base
    ``_sb`` is added back once at exit).  The outstanding-request
    ``limit`` is folded in as a literal.  All per-request protocol state
    that is private to this thread — the Avalon port in-flight windows and
    in-order completion clamps, and the semaphore acquisition counters
    — is hoisted into locals for the whole nest and written back once;
    DRAM bank/bus bookings and the FIFO lock handshake are inlined so
    no foreign Python frame is entered between yields.

    With ``attr`` the driver also makes the reference's cycle-accounting
    deposits, over the same ``[start, end)`` ranges with the same
    amounts.  A deposit inside one sampling window whose row the sink's
    ``bins`` array (the recorder's row array of this thread) already
    holds is added inline into that row and the region's table cell,
    which is looked up once per dispatch; window-crossing deposits, row
    growth and sinks without ``bins`` (a dataflow body's buffer) go
    through ``acct.deposit``.  The deposits are: per chunk the useful
    ``batch*rec_ii`` plus the II, BRAM-port and backpressure
    (row/arb/latency peel) shares; the drain tail; one loop-bubble
    deposit per sequential-loop invocation; leading and trailing
    segments with the binding read's peel; and SYNC_WAIT for contended
    critical acquires.  The per-trip
    ``(row, arb, latency)`` split of each late response rides in a
    ``parts`` deque mirroring the in-flight window, exactly as in the
    reference.
    """

    levels, trails, pipe, pseg, mem = (nplan.levels, nplan.trails,
                                       nplan.pipe, nplan.pseg, nplan.mem)
    has_group = nplan.group_id is not None
    group_cost, chunk, window, dram = (nplan.group_cost, nplan.chunk,
                                       nplan.window, nplan.dram)
    k = len(levels)
    ii, rec_ii, depth = pipe.ii, pipe.rec_ii, pipe.depth
    p_reads = any(not m[3] for m in mem)
    p_writes = any(m[3] for m in mem)
    prb = sum(m[2] for m in mem if not m[3])
    pwb = sum(m[2] for m in mem if m[3])
    t_reads = any(not m[3] for tr in trails for m in tr.mems)
    t_writes = any(m[3] for tr in trails for m in tr.mems)
    used_r = p_reads or t_reads
    used_w = p_writes or t_writes
    any_mem = bool(mem) or t_reads or t_writes
    any_crit = any(tr.lock is not None for tr in trails)
    any_tmem = any(tr.mems for tr in trails)
    locks: list = []
    for tr in trails:
        if tr.lock is not None and tr.lock not in locks:
            locks.append(tr.lock)
    lock_ix = {lock: j for j, lock in enumerate(locks)}
    p_parts = attr and p_reads  # per-trip DRAM splits can be non-zero
    drain = max(0, depth - rec_ii)
    p_reg = loop_region(pipe.uid)
    # a body that touches neither external memory nor a BRAM port group,
    # and whose recurrence spacing covers its II, issues every trip after
    # a chunk's first one exactly rec_ii after the previous: the trips
    # in between are summed in closed form (π's series loop)
    closed = not mem and not has_group and rec_ii >= ii
    rmp = dram.row_miss_penalty
    base = dram.base_latency
    row_span = dram.row_bytes * dram.banks_per_channel * dram.channels

    lines = ["def _ndrive(rt, tid, ctx, state, group, T, ns, "
             "brow, brdy, bus_busy, hist_r, hist_w, fins, tins, "
             "slab, span, tbufs, acct):"]

    def w(indent: int, text: str) -> None:
        lines.append("    " * indent + text)

    w(1, "engine = rt.engine")
    w(1, "rec = rt.recorder")
    if events:
        w(1, "_lx = rec._log.extend")
    for li in range(k):
        w(1, f"n{li} = ns[{li}]")
    if p_reads:
        w(1, "inflight = _deque()")
        w(1, "ipop = inflight.popleft")
        w(1, "ipush = inflight.append")
        w(1, "iclear = inflight.clear")
    if attr:
        w(1, "_ad = acct.deposit")
        w(1, '_ab = getattr(acct, "bins", None)')
        w(1, "_P = rec.config.sampling_period")
        w(1, "_cset = rec.attribution.cells.setdefault")
        # one cached table cell per region (the `_cR` locals), declared
        # here once the body has named its regions
        attr_at = len(lines)
        attr_cells: dict[int, str] = {}
    if p_parts:
        w(1, "parts = _deque()")
        w(1, "ppop = parts.popleft")
        w(1, "ppush = parts.append")
        w(1, "pclear = parts.clear")
    w(1, "gap = state._GAP")
    if closed and rec_ii > ii:
        w(1, f"_cp = gap // {rec_ii - ii} + 1")
    if any_mem:
        w(1, "lc = rt.ports._last_completion")
    if used_r:
        w(1, "_KR = (tid, False)")
        w(1, "last_r = lc.get(_KR, 0)")
        w(1, "_hr = _deque(hist_r)")
        w(1, "_hra = _hr.append")
        w(1, "_hrp = _hr.popleft")
        w(1, "hlr = len(_hr)")
    if used_w:
        w(1, "_KW = (tid, True)")
        w(1, "last_w = lc.get(_KW, 0)")
        w(1, "_hw = _deque(hist_w)")
        w(1, "_hwa = _hw.append")
        w(1, "_hwp = _hw.popleft")
        w(1, "hlw = len(_hw)")
    if trails:
        w(1, "_values = ctx.values")
        w(1, "_vars = ctx.vars")
        w(1, "_mem = ctx.mem")
    if any_tmem:
        w(1, "_trace = _mem.trace")
        w(1, "_trc = _trace.clear")
    if any_crit:
        w(1, "_ss = rec.set_state")
        w(1, "sem = rt.semaphore")
        w(1, "_hold = sem._holders")
        w(1, "_hget = _hold.get")
        for j in range(len(locks)):
            w(1, f"_lq{j} = sem._queues.setdefault(_LK{j}, _deque())")
            w(1, f"_lqa{j} = _lq{j}.append")
            w(1, f"_lqp{j} = _lq{j}.popleft")
            w(1, f'_en{j} = "lock%s->t%s" % (_LK{j}, tid)')
            w(1, f"_an{j} = 0")
            w(1, f"_cn{j} = 0")
    fins_used = sorted({slot for tr in trails for _vid, kind, slot
                        in tr.restores if kind == "fin"})
    for slot in fins_used:
        w(1, f"fin{slot} = fins[{slot}]")
    tpos = 0
    for u, tr in enumerate(trails):
        if tr.snap_ids or tr.snap_var_ids:
            w(1, f"tin{u} = tins[{u}]")
        for q in range(len(tr.mems)):
            w(1, f"tb{u}_{q} = tbufs[{tpos}]")
            w(1, f"te{u}_{q} = tbufs[{tpos + 1}]")
            tpos += 2
    w(1, "now = engine.now")
    w(1, "p = 0")
    if mem:
        w(1, "_sb = 0")
        w(1, "_sn = 0")
    w(1, "_e = 0")
    if any_mem:
        w(1, "rm = 0")
        w(1, "arb = 0")
    w(1, "stall_acc = 0")
    for li in range(k - 1):
        if levels[li].trailing:
            w(1, f"_q{li} = 0")

    def transfer_of(nbytes: int) -> int:
        return dram.request_overhead + max(1, -(-nbytes // dram.width_bytes))

    def emit_booking(ind: int, is_write: bool, transfer: int,
                     track: bool = False) -> None:
        # PortSet.request + ExternalMemory.access_time, inlined over the
        # hoisted deque/clamp locals; expects `at`, `bi`, `row`, `ch`.
        # `track` keeps this request's row penalty and arbitration wait
        # in `_pen` / `_av` for the binding-read peel
        h = "w" if is_write else "r"
        last = "last_w" if is_write else "last_r"
        w(ind, f"if hl{h} >= {limit}:")
        w(ind + 1, f"h0 = _h{h}p()")
        w(ind + 1, "if h0 > at: at = h0")
        w(ind, "else:")
        w(ind + 1, f"hl{h} += 1")
        w(ind, "begin = brdy[bi]")
        w(ind, "if at > begin: begin = at")
        w(ind, "busy = bus_busy[ch]")
        w(ind, "if brow[bi] != row:")
        w(ind + 1, f"begin += {rmp}")
        w(ind + 1, "rm += 1")
        w(ind + 1, "if busy > begin: begin = busy")
        if track:
            w(ind + 1, f"_pen = {rmp}")
            w(ind + 1, f"_av = begin - at - {rmp}")
            w(ind + 1, "arb += _av")
        else:
            w(ind + 1, f"arb += begin - at - {rmp}")
        w(ind, "else:")
        w(ind + 1, "if busy > begin: begin = busy")
        if track:
            w(ind + 1, "_pen = 0")
            w(ind + 1, "_av = begin - at")
            w(ind + 1, "arb += _av")
        else:
            w(ind + 1, "arb += begin - at")
        w(ind, f"done = begin + {transfer}")
        w(ind, "bus_busy[ch] = done")
        w(ind, "brow[bi] = row")
        w(ind, "brdy[bi] = done")
        w(ind, f"completion = done + {base}")
        w(ind, f"if completion < {last}: completion = {last}")
        w(ind, f"else: {last} = completion")
        w(ind, f"_h{h}a(completion)")

    def emit_p_memop(ind: int, i: int, start: int, off: int, nbytes: int,
                     is_write: bool, pidx: str) -> None:
        w(ind, f"at = issue + {start}" if start else "at = issue")
        w(ind, f"bi = bk{i}[{pidx}]")
        w(ind, f"row = rw{i}[{pidx}]")
        w(ind, f"ch = cn{i}[{pidx}]")
        emit_booking(ind, is_write, transfer_of(nbytes),
                     attr and not is_write)
        if not is_write:
            w(ind, f"late = completion - issue - {off}")
            emit_bind(ind)

    def emit_t_memop(ind: int, u: int, q: int, start: int, slat: int,
                     nbytes: int, is_write: bool) -> None:
        w(ind, f"at = now + {start}" if start else "at = now")
        w(ind, f"addr = tb{u}_{q} + _trace[{q}][0] * te{u}_{q}")
        w(ind, f"ch = addr // {dram.interleave_bytes} % {dram.channels}")
        w(ind, f"bi = ch * {dram.banks_per_channel} + "
               f"addr // {dram.row_bytes} % {dram.banks_per_channel}")
        w(ind, f"row = addr // {row_span}")
        emit_booking(ind, is_write, transfer_of(nbytes),
                     attr and not is_write)
        if not is_write:
            w(ind, f"late = completion - now - {start + slat}")
            emit_bind(ind)

    def emit_bind(ind: int) -> None:
        # the latest response binds `extra` (first maximum wins)
        if attr:
            w(ind, "if late > extra:")
            w(ind + 1, "extra = late; e_pen = _pen; e_arb = _av")
        else:
            w(ind, "if late > extra: extra = late")

    def emit_extra_init(ind: int) -> None:
        w(ind, "extra = 0; e_pen = 0; e_arb = 0" if attr else "extra = 0")

    def emit_peel(ind: int, amount: str, pen: str, arbv: str) -> None:
        # executor._peel: (row, arb, latency) priority split of `amount`
        w(ind, f"_r = {pen} if {pen} < {amount} else {amount}")
        w(ind, f"_rest = {amount} - _r")
        w(ind, f"_a = {arbv} if {arbv} < _rest else _rest")
        w(ind, "_l = _rest - _a")

    def emit_bucket(ind: int) -> None:
        # leaky-bucket issue recurrence, strength-reduced: e_next tracks
        # first + count * ii so the earliest-issue slot is one add
        w(ind, "if s_first < 0 or cursor > e_next + gap:")
        w(ind + 1, f"s_first = cursor; e_next = cursor + {ii}; "
                   "issue = cursor")
        w(ind, "else:")
        w(ind + 1, "issue = cursor if cursor > e_next else e_next")
        w(ind + 1, f"e_next += {ii}")
        if attr:
            w(ind + 1, "c_ii += issue - cursor")
        if has_group:
            w(ind, "if g_first < 0 or issue > ge_next + gap:")
            w(ind + 1, f"g_first = issue; ge_next = issue + {group_cost}")
            w(ind, "else:")
            if attr:
                w(ind + 1, "if ge_next > issue:")
                w(ind + 2, "c_port += ge_next - issue; issue = ge_next")
            else:
                w(ind + 1, "if ge_next > issue: issue = ge_next")
            w(ind + 1, f"ge_next += {group_cost}")

    def emit_deposit(ind, start_expr, end_expr, amounts) -> None:
        # one row (tid, start, end, *amounts in LOG_KINDS order) in the
        # recorder's deposit log, which finalize bins
        if events and any(a != "0" for a in amounts):
            w(ind, f"_lx((tid, {start_expr}, {end_expr}, "
                   f"{', '.join(amounts)}))")

    def emit_attr(ind, start, end, region, amounts) -> None:
        # one cycle-accounting deposit of `amounts` (N_SLOTS expressions)
        # to (region, tid) over [start, end): inside one window whose row
        # the thread's array already holds, added straight into the
        # table cell and that row; otherwise through the accounting sink
        cell = attr_cells.setdefault(region, f"_cR{len(attr_cells)}")
        w(ind, f"if _ab is not None and {end} > {start} and "
               f"(_o := {start} // _P) == ({end} - 1) // _P and "
               f"(_o := _o * {N_SLOTS}) < len(_ab):")
        b = ind + 1
        w(b, f"if {cell} is None:")
        w(b + 1, f"{cell} = _cset(({region}, tid), [0] * {N_SLOTS})")
        for slot, amount in enumerate(amounts):
            if amount == "0":
                continue
            if not (amount.isidentifier() or amount.isdigit()):
                w(b, f"_v = {amount}")
                amount = "_v"
            w(b, f"{cell}[{slot}] += {amount}")
            w(b, f"_ab[_o + {slot}] += {amount}" if slot
                 else f"_ab[_o] += {amount}")
        w(ind, "else:")
        w(b, f"_ad({start}, {end}, {region}, ({', '.join(amounts)}))")

    def emit_set_state(ind, state_name) -> None:
        w(ind, f"_ss(now, tid, {state_name})")

    def emit_trip_loop(b: int) -> None:
        # without pipelined reads every retire is issue + depth and issue
        # never decreases, so the window cannot stall: the in-flight queue
        # is not kept and the last trip's retire is the latest
        emit_bucket(b)
        if not p_reads:
            for i, (start, off, nbytes, is_write, _name) in enumerate(mem):
                emit_p_memop(b, i, start, off, nbytes, is_write, "p")
            w(b, f"cursor = issue + {rec_ii}")
            w(b, "p += 1")
            return
        w(b, f"if len(inflight) >= {window}:")
        w(b + 1, f"head = ipop() - {depth}")
        if p_parts:
            w(b + 1, "_op = ppop()")
        w(b + 1, "if head > issue:")
        if p_parts:
            # backpressure, peeled against the popped iteration's split
            w(b + 2, "_bp = head - issue")
            emit_peel(b + 2, "_bp", "_op[0]", "_op[1]")
            w(b + 2, "c_row += _r; c_arb += _a; c_lat += _l")
        w(b + 2, "stall += head - issue; issue = head")
        emit_extra_init(b)
        for i, (start, off, nbytes, is_write, _name) in enumerate(mem):
            emit_p_memop(b, i, start, off, nbytes, is_write, "p")
        w(b, f"retire = issue + {depth} + extra")
        w(b, "stall += extra")
        if p_parts:
            w(b, "if extra:")
            emit_peel(b + 1, "extra", "e_pen", "e_arb")
            w(b + 1, "_ip = (_r, _a, _l)")
            w(b, "else:")
            w(b + 1, "_ip = _Z")
            w(b, "ppush(_ip)")
        w(b, "ipush(retire)")
        w(b, f"cursor = issue + {rec_ii}")
        if p_parts:
            w(b, "if retire > last_retire:")
            w(b + 1, "last_retire = retire; lp = _ip")
        else:
            w(b, "if retire > last_retire: last_retire = retire")
        w(b, "p += 1")

    def emit_closed_trips(ind: int) -> None:
        # trip 0 books the bucket; each later trip finds the bucket's
        # next slot at or behind its cursor, so issues it on time and
        # only advances e_next by ii -- unless the cursor has drifted
        # past e_next + gap (drift grows by rec_ii - ii per trip), which
        # restarts the epoch; after a restart the drift starts again
        # from rec_ii - ii, so restarts recur every `_cp` trips
        emit_bucket(ind)
        w(ind, f"cursor = issue + {rec_ii}")
        w(ind, "_cm = batch - 1")
        w(ind, "if _cm:")
        b = ind + 1
        w(b, "_cd = cursor - e_next")
        if rec_ii == ii:
            w(b, "if _cd > gap:")
            w(b + 1, f"s_first = cursor; e_next = cursor + {ii} * _cm")
            w(b, "else:")
            w(b + 1, f"e_next += {ii} * _cm")
        else:
            w(b, f"_cj = 1 if _cd > gap else (gap - _cd) // {rec_ii - ii} + 2")
            w(b, "if _cj > _cm:")
            w(b + 1, f"e_next += {ii} * _cm")
            w(b, "else:")
            w(b + 1, "_cj += (_cm - _cj) // _cp * _cp")
            w(b + 1, f"s_first = cursor + (_cj - 1) * {rec_ii}")
            w(b + 1, f"e_next = s_first + {ii} * (_cm - _cj + 1)")
        w(b, f"cursor += {rec_ii} * _cm")
        w(ind, "p += batch")
        w(ind, f"last_retire = cursor + {depth - rec_ii}")

    def emit_slab_fetch(ind: int) -> None:
        # the next slab starts at this chunk and holds whole chunks: the
        # rest of this entry, whole later entries, then whole chunks of
        # the entry the span ends in
        w(ind, "if p + batch > _sn:")
        b = ind + 1
        w(b, "_sb += p")
        w(b, "p = 0")
        w(b, "if remaining >= span:")
        w(b + 1, f"_sn = span // {chunk} * {chunk}")
        w(b, "else:")
        w(b + 1, "_sx = span - remaining")
        w(b + 1, f"_sn = remaining + _sx // T * T "
                 f"+ _sx % T // {chunk} * {chunk}")
        names = ", ".join(f"bk{i}, rw{i}, cn{i}" for i in range(len(mem)))
        w(b, f"{names} = slab(_sb, _sb + _sn)")

    def emit_pipe(ind: int) -> None:
        # one pipelined entry: T trips, issued in chunks of `chunk`
        if p_reads:
            w(ind, "iclear()")
        if attr:
            w(ind, "lp = _Z")
        if p_parts:
            w(ind, "pclear()")
        w(ind, "cursor = now")
        w(ind, "last_retire = cursor")
        w(ind, "remaining = T")
        w(ind, "while remaining > 0:")
        c = ind + 1
        w(c, f"batch = {chunk} if remaining > {chunk} else remaining")
        if mem:
            emit_slab_fetch(c)
        w(c, "cs = cursor")
        # the issue buckets live in locals for the chunk
        w(c, "s_first = state.first")
        w(c, f"e_next = s_first + state.count * {ii}")
        if has_group:
            w(c, "g_first = group.first")
            w(c, f"ge_next = g_first + group.count * {group_cost}")
        w(c, "stall = 0")
        if attr:
            w(c, "c_ii = 0; c_port = 0; c_row = 0; c_arb = 0; c_lat = 0")
        if closed:
            emit_closed_trips(c)
        else:
            w(c, "_pe = p + batch")
            w(c, "while p < _pe:")
            emit_trip_loop(c + 1)
            if not p_reads:
                w(c, f"last_retire = issue + {depth}")
        w(c, "state.first = s_first")
        w(c, f"state.count = (e_next - s_first) // {ii}")
        if has_group:
            w(c, "group.first = g_first")
            w(c, f"group.count = (ge_next - g_first) // {group_cost}")
        w(c, "remaining -= batch")
        emit_deposit(c, "cs", "last_retire",
                     [f"{v} * batch" if v else "0"
                      for v in (pseg.flops, pseg.intops, prb, pwb)]
                     + ["stall"])
        if attr:
            peeled = ["c_lat", "c_arb", "c_row"] if p_parts else ["0"] * 3
            emit_attr(c, "cs", "last_retire", p_reg,
                      [f"{rec_ii} * batch", "c_ii",
                       "c_port" if has_group else "0", *peeled,
                       "0", "0", "0"])
        w(c, "if stall:")
        w(c + 1, "stall_acc += stall")
        w(c, "advance = cursor - now")
        w(c, "if advance > 0:")
        w(c + 1, "yield advance")
        w(c + 1, "now = cursor")
        w(ind, "tail = last_retire - now")
        w(ind, "if tail > 0:")
        if attr:
            # pipeline drain after the last issue; the excess is the
            # binding iteration's late response, peeled into its split
            if drain:
                w(ind + 1, f"_dr = {drain} if {drain} < tail else tail")
                emit_peel(ind + 1, "tail - _dr", "lp[0]", "lp[1]")
            else:
                w(ind + 1, "_dr = 0")
                emit_peel(ind + 1, "tail", "lp[0]", "lp[1]")
            emit_attr(ind + 1, "now", "last_retire", p_reg,
                      ["0", "0", "0", "_l", "_a", "_r", "0", "_dr", "0"])
        w(ind + 1, "yield tail")
        w(ind + 1, "now = last_retire")

    def emit_seg_acct(ind: int, seg) -> None:
        # a segment whose duration is its constant depth
        if attr:
            emit_attr(ind, "now", f"now + {seg.depth}",
                      segment_region(seg.uid),
                      [str(seg.depth)] + ["0"] * (N_SLOTS - 1))

    def emit_trail(u: int, tr, ind: int, idx: str, fin_idx: str) -> None:
        seg = tr.segment
        s_reg = segment_region(seg.uid)
        if tr.lock is not None:
            # HardwareSemaphore.acquire inlined: same yield sequence,
            # same shared holder/queue mutations at the same times
            j = lock_ix[tr.lock]
            emit_set_state(ind, "_SPIN")
            if attr:
                w(ind, "_as = now")
            w(ind, f"_an{j} += 1")
            w(ind, f"yield {grant}")
            w(ind, f"now += {grant}")
            w(ind, f"if _hget(_LK{j}) is None and not _lq{j}:")
            w(ind + 1, f"_hold[_LK{j}] = tid")
            w(ind, "else:")
            w(ind + 1, f"_cn{j} += 1")
            w(ind + 1, f"_ev = _Event(_en{j})")
            w(ind + 1, f"_lqa{j}((tid, _ev))")
            w(ind + 1, "yield _ev")
            w(ind + 1, "now = engine.now")
            if attr:
                w(ind, "if now > _as:")
                emit_attr(ind + 1, "_as", "now", REGION_SYNC,
                          ["0", "0", "0", "0", "0", "0", "now - _as", "0",
                           "0"])
            emit_set_state(ind, "_CRIT")
        if tr.snap_ids or tr.snap_var_ids:
            w(ind, f"_t = tin{u}[{idx}]")
        nsnap = len(tr.snap_ids)
        for vid, kind, slot in tr.restores:
            if kind == "fin":
                w(ind, f"_vars[{vid}] = fin{slot}[{fin_idx}]")
            else:
                w(ind, f"_vars[{vid}] = _t[{nsnap + slot}]")
        args = "".join(
            f", _t[{slot}]" if src == "s" else f", _values[{slot}]"
            for src, slot in tr.argsrc)
        call = f"_tf{u}(ctx, _vars, _mem{args})"
        if tr.mems:
            w(ind, "_trc()")
        if tr.compiled.outputs:
            w(ind, f"outs = {call}")
        else:
            w(ind, call)
        for j2, vid in enumerate(tr.compiled.outputs):
            w(ind, f"_values[{vid}] = outs[{j2}]")
        any_tread = any(not m[3] for m in tr.mems)
        if any_tread:
            emit_extra_init(ind)
        trb = twb = 0
        for q, (start, slat, nbytes, is_write, _name) in enumerate(tr.mems):
            emit_t_memop(ind, u, q, start, slat, nbytes, is_write)
            if is_write:
                twb += nbytes
            else:
                trb += nbytes
        if any_tread:
            w(ind, f"duration = {seg.depth} + extra")
            emit_deposit(ind, "now", "now + duration",
                         [str(seg.flops), str(seg.intops), str(trb),
                          str(twb), "extra"])
            if attr:
                emit_peel(ind, "extra", "e_pen", "e_arb")
                emit_attr(ind, "now", "now + duration", s_reg,
                          [str(seg.depth), "0", "0", "_l", "_a", "_r",
                           "0", "0", "0"])
            w(ind, "if extra:")
            w(ind + 1, "stall_acc += extra")
            w(ind, "yield duration")
            w(ind, "now += duration")
        else:
            # no reads (posted writes at most) never stall the segment:
            # constant timing
            if seg.depth > 0:
                emit_deposit(ind, "now", f"now + {seg.depth}",
                             [str(seg.flops), str(seg.intops), "0",
                              str(twb), "0"])
            emit_seg_acct(ind, seg)
            w(ind, f"yield {seg.depth}")
            w(ind, f"now += {seg.depth}")
        if tr.lock is not None:
            # HardwareSemaphore.release inlined (holder check elided:
            # this thread provably holds the lock here)
            j = lock_ix[tr.lock]
            w(ind, f"if _lq{j}:")
            w(ind + 1, f"_nt, _gv = _lqp{j}()")
            w(ind + 1, f"_hold[_LK{j}] = _nt")
            w(ind + 1, "_gv.set(engine)")
            w(ind, "else:")
            w(ind + 1, f"_hold[_LK{j}] = None")
            emit_set_state(ind, "_RUN")

    def emit_level(li: int, ind: int) -> None:
        lvl = levels[li]
        if attr:
            w(ind, f"_ls{li} = now")
        w(ind, f"for _x{li} in range(n{li}):")
        b = ind + 1
        w(b, "yield 1")  # loop-control bubble between iterations
        w(b, "now += 1")
        for si, (seg, _compiled) in enumerate(lvl.leading):
            d = seg.depth
            if d > 0:
                emit_deposit(b, "now", f"now + {d}",
                             [str(seg.flops), str(seg.intops),
                              "0", "0", "0"])
            emit_seg_acct(b, seg)
            w(b, f"yield {d}")
            w(b, f"now += {d}")
        if li == k - 1:
            emit_pipe(b)
        else:
            emit_level(li + 1, b)
        idx = "_e" if li == k - 1 else f"_q{li}"
        fin_idx = "_e" if li == k - 1 else "_e - 1"
        for u in lvl.trailing:
            emit_trail(u, trails[u], b, idx, fin_idx)
        if li == k - 1:
            w(b, "_e += 1")
        elif lvl.trailing:
            w(b, f"_q{li} += 1")
        if attr:
            # the level's per-trip control bubbles, as one deposit
            emit_attr(ind, f"_ls{li}", "now", loop_region(lvl.uid),
                      ["0"] * (N_SLOTS - 1) + [f"n{li}"])

    if k:
        emit_level(0, 1)
    else:
        emit_pipe(1)
    w(1, "if stall_acc:")
    w(2, "rt.stalls[tid] += stall_acc")
    if used_r:
        w(1, "lc[_KR] = last_r")
        w(1, "hist_r[:] = _hr")
    if used_w:
        w(1, "lc[_KW] = last_w")
        w(1, "hist_w[:] = _hw")
    if mem:
        w(1, "p += _sb")
    if any_mem:
        req_terms: list = []
        rb_terms: list = []
        wb_terms: list = []
        if mem:
            req_terms.append(f"{len(mem)} * p")
            if prb:
                rb_terms.append(f"{prb} * p")
            if pwb:
                wb_terms.append(f"{pwb} * p")
        for u, tr in enumerate(trails):
            if not tr.mems:
                continue
            cnt = "_e" if tr.level == k - 1 else f"_q{tr.level}"
            req_terms.append(f"{len(tr.mems)} * {cnt}")
            trb = sum(m[2] for m in tr.mems if not m[3])
            twb = sum(m[2] for m in tr.mems if m[3])
            if trb:
                rb_terms.append(f"{trb} * {cnt}")
            if twb:
                wb_terms.append(f"{twb} * {cnt}")
        w(1, "memory = rt.memory")
        w(1, f"memory.requests += {' + '.join(req_terms)}")
        if rb_terms:
            w(1, f"memory.bytes_read += {' + '.join(rb_terms)}")
        if wb_terms:
            w(1, f"memory.bytes_written += {' + '.join(wb_terms)}")
        w(1, "memory.row_misses += rm")
        w(1, "memory.arbitration_wait_cycles += arb")
    if any_crit:
        w(1, "_A = sem.acquisitions")
        for j in range(len(locks)):
            w(1, f"_A[_LK{j}] = _A.get(_LK{j}, 0) + _an{j}")
            w(1, f"if _cn{j}:")
            w(2, "_C = sem.contended")
            w(2, f"_C[_LK{j}] = _C.get(_LK{j}, 0) + _cn{j}")

    if attr:
        lines[attr_at:attr_at] = [f"    {cell} = None"
                                  for cell in attr_cells.values()]
    namespace = {"_deque": deque, "_Z": (0, 0, 0)}
    if any_crit:
        namespace["_Event"] = Event
        namespace["_SPIN"] = ThreadState.SPINNING
        namespace["_CRIT"] = ThreadState.CRITICAL
        namespace["_RUN"] = ThreadState.RUNNING
        for j, lock in enumerate(locks):
            namespace[f"_LK{j}"] = lock
    for u, tr in enumerate(trails):
        namespace[f"_tf{u}"] = tr.compiled.fn
    source = "\n".join(lines)
    code = compile(source, f"<ndrive:{nplan.uid}>", "exec")
    exec(code, namespace)
    driver = namespace["_ndrive"]
    driver.__source__ = source
    return driver


def _address_slabs(cfg, cols):
    """``slab(lo, hi)``: the flat (bank, row, channel) list triples of
    nest trips ``[lo, hi)``, one triple per ``(buffer, index column)``."""

    bpc = cfg.banks_per_channel
    row_span = cfg.row_bytes * bpc * cfg.channels

    def slab(lo: int, hi: int) -> list:
        lists: list = []
        for buf, idx in cols:
            addr = buf.base_addr + idx[lo:hi].astype(np.int64) * buf.elem_bytes
            channel = (addr // cfg.interleave_bytes) % cfg.channels
            bank = (addr // cfg.row_bytes) % bpc
            lists.append((channel * bpc + bank).tolist())
            lists.append((addr // row_span).tolist())
            lists.append(channel.tolist())
        return lists

    return slab


def prepare_nest(runtime, nplan: NestPlan, tid: int, ctx, state, group,
                 acct):
    """Functional pre-pass + mega-batch; returns the nest's timing driver.

    Walks the nest's sequential skeleton once, running leading segments
    in exact reference order to resolve loop bounds, collect per-entry
    accumulator seeds, entry-varying kernel inputs and trailing-segment
    snapshots; then evaluates all ``entries x trips`` pipelined
    iterations in one vector call.  Returns ``None`` to fall back to the
    reference path — the pre-pass only re-executes leading segments,
    which the reference then repeats identically, so bailing at any
    point (empty loops, :class:`VectorFallback`) is side-effect free.
    ``acct`` is the caller's cycle-accounting sink (``None`` with
    attribution off).
    """

    values = ctx.values
    vars_ = ctx.vars
    levels = nplan.levels
    k = len(levels)
    bounds_resolved: list = [None] * k
    entry_vars = nplan.entry_vars
    seeds: list[list] = [[] for _ in entry_vars]
    einp: dict[int, list] = {vid: [] for vid, is_entry in nplan.input_plan
                             if is_entry}
    tins: list[list] = [[] for _ in nplan.trails]
    trails = nplan.trails
    pb: list = []
    mem_view = ctx.mem
    lead_fns = [[(compiled.fn, compiled.inputs, compiled.outputs)
                 for _seg, compiled in lvl.leading]
                for lvl in levels]

    def resolve_pipe() -> bool:
        bp = nplan.pipe_bounds
        plo, pup, pst = values[bp[0]], values[bp[1]], values[bp[2]]
        if pup <= plo:
            return False
        pb.append((plo, pst, len(range(plo, pup, pst))))
        return True

    def walk(li: int) -> bool:
        lo, st, n = bounds_resolved[li]
        lvl = levels[li]
        iv_id = lvl.iv_id
        iv = lo
        for _ in range(n):
            values[iv_id] = iv
            for fn, inputs, outputs in lead_fns[li]:
                outs = fn(ctx, vars_, mem_view,
                          *[values[vid] for vid in inputs])
                for vid, value in zip(outputs, outs):
                    values[vid] = value
            if li == k - 1:
                if not pb and not resolve_pipe():
                    return False
                for slot, vid in enumerate(entry_vars):
                    seeds[slot].append(vars_[vid])
                for vid, lst in einp.items():
                    lst.append(values[vid])
            else:
                nli = li + 1
                if bounds_resolved[nli] is None:
                    b = levels[nli].bounds
                    bn = len(range(values[b[0]], values[b[1]],
                                   values[b[2]]))
                    if bn <= 0:
                        return False
                    bounds_resolved[nli] = (values[b[0]], values[b[2]], bn)
                if not walk(nli):
                    return False
            # snapshot exactly at this unit's reference execution point
            for u in lvl.trailing:
                tr = trails[u]
                tins[u].append(
                    tuple([values[vid] for vid in tr.snap_ids]
                          + [vars_[vid] for vid in tr.snap_var_ids]))
            iv += st
        return True

    if not k:
        if not resolve_pipe():
            return None
    else:
        b0 = levels[0].bounds
        n0 = len(range(values[b0[0]], values[b0[1]], values[b0[2]]))
        if n0 <= 0:
            return None
        bounds_resolved[0] = (values[b0[0]], values[b0[2]], n0)
        if not walk(0):
            return None
    plo, pst, trips = pb[0]
    entries = 1
    for _lo, _st, n in bounds_resolved:
        entries *= n
    total = entries * trips
    ivs = np.tile(plo + pst * _iota(trips), entries)
    vseg = nplan.vseg
    args = []
    for vid, is_entry in nplan.input_plan:
        if is_entry:
            args.append(np.repeat(np.asarray(einp[vid]), trips))
        else:
            args.append(values[vid])
    seed_arrs = [
        np.asarray(lst, dtype=np.float64 if is_float else np.int64)
        for lst, is_float in zip(seeds, nplan.entry_var_float)]
    try:
        outs, idxs, fin_arrs = vseg.fn(ctx, vars_, ctx.mem, ivs, total,
                                       entries, *args, *seed_arrs)
    except VectorFallback:
        if k:
            runtime.nest_fallbacks += 1
        return None
    for vid, value in zip(vseg.outputs, outs):
        values[vid] = value
    values[nplan.p_iv] = int(ivs[-1])
    fins = [arr.tolist() for arr in fin_arrs]

    memory = runtime.memory
    buffers = runtime.buffers
    cols = [(buffers[name], _index_column(idx))
            for (_start, _off, _nbytes, _is_write, name), idx
            in zip(nplan.mem, idxs)]
    del ivs, idxs
    tbufs: list = []
    for tr in trails:
        for _s, _sl, _nb, _iw, name in tr.mems:
            buf = buffers[name]
            tbufs.append(buf.base_addr)
            tbufs.append(buf.elem_bytes)

    if nplan.driver is None:
        nplan.driver = _compile_nest_driver(
            nplan, runtime.ports.outstanding_limit,
            runtime.semaphore.grant_latency,
            bool(runtime.recorder.config.events), runtime.attribution)
    history = runtime.ports._history
    gen = nplan.driver(runtime, tid, ctx, state, group, trips,
                       tuple(n for _lo, _st, n in bounds_resolved),
                       memory._bank_row, memory._bank_ready,
                       memory._bus_busy, history[(tid, False)],
                       history[(tid, True)], fins, tins,
                       _address_slabs(memory.config, cols),
                       max(SLAB_TRIPS, nplan.chunk), tuple(tbufs), acct)
    if k:
        runtime.nests_flattened += 1
        runtime.entries_batched += entries
    runtime.fp_iters += total
    runtime.fp_batches += entries * ((trips + nplan.chunk - 1)
                                     // nplan.chunk)
    return gen
