"""Memory access collection and dependence testing.

A lightweight abstract interpreter walks the kernel in program order and
computes, for every ``load``/``store``, a symbolic :class:`Affine` index
expression (see :mod:`repro.hls.symexpr`).  The scheduler then asks
whether two program regions may touch the same memory through
:func:`conflicts`.

Aliasing assumptions match the OpenMP offloading model the paper uses:
distinct mapped pointers refer to distinct device buffers, and local
(BRAM) arrays are distinct storage by construction.  Within one array,
accesses conflict unless the affine difference of their index windows
provably excludes overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..ir.graph import Block, Kernel, Operation, Value
from ..ir.ops import Opcode
from ..ir.types import VectorType
from .symexpr import Affine, Interval, Sym, difference_excludes, fresh_opaque

__all__ = ["Access", "AccessMap", "collect_accesses", "conflicts",
           "ops_conflict"]


@dataclass(frozen=True)
class Access:
    """One memory access with its symbolic index.

    ``width`` is the number of consecutive elements touched (vector
    accesses move ``lanes`` elements).
    """

    base: int  # Value.id of the base pointer
    base_name: str
    index: Affine
    width: int
    is_write: bool

    def overlaps(self, other: "Access") -> bool:
        """May the two element windows intersect?  (Same base assumed.)

        Windows ``[a, a+wa-1]`` and ``[b, b+wb-1]`` intersect iff
        ``-(wa-1) <= a-b <= wb-1``.
        """

        window = Interval(-(self.width - 1), other.width - 1)
        return not difference_excludes(self.index, other.index, window)


#: Mapping from ``id(op)`` of each memory op to its Access records
#: (loads/stores have one; preloads have a local write + external read).
AccessMap = dict[int, tuple[Access, ...]]


def collect_accesses(kernel: Kernel) -> AccessMap:
    """Run the abstract interpreter over ``kernel`` and index every access."""

    interp = _AbstractInterp(kernel)
    interp.run_block(kernel.body)
    return interp.accesses


class _AbstractInterp:
    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.values: dict[int, Affine] = {}   # Value.id -> Affine
        self.vars: dict[int, Affine] = {}     # var handle id -> Affine
        self.var_versions: dict[int, int] = {}
        self.accesses: AccessMap = {}
        self.tid_sym = Sym("tid", ("tid",), Interval(0, kernel.num_threads - 1))

    # ------------------------------------------------------------------
    def value_of(self, value: Value) -> Affine:
        affine = self.values.get(value.id)
        if affine is None:
            affine = Affine.symbol(Sym("opaque", ("value", value.id)))
            self.values[value.id] = affine
        return affine

    def _var_symbol(self, var_id: int) -> Affine:
        version = self.var_versions.get(var_id, 0)
        return Affine.symbol(Sym("var", ("var", var_id, version)))

    def invalidate_var(self, var_id: int) -> None:
        self.var_versions[var_id] = self.var_versions.get(var_id, 0) + 1
        self.vars[var_id] = self._var_symbol(var_id)

    # ------------------------------------------------------------------
    def run_block(self, block: Block) -> None:
        for op in block.ops:
            self.run_op(op)

    def run_op(self, op: Operation) -> None:
        code = op.opcode
        if code is Opcode.CONST:
            value = op.attrs["value"]
            if isinstance(value, int):
                self._set(op, Affine.constant(value))
            else:
                self._set(op, Affine.symbol(fresh_opaque()))
        elif code is Opcode.THREAD_ID:
            self._set(op, Affine.symbol(self.tid_sym))
        elif code is Opcode.NUM_THREADS:
            self._set(op, Affine.constant(self.kernel.num_threads))
        elif code in (Opcode.ADD, Opcode.SUB):
            a = self.value_of(op.operands[0])
            b = self.value_of(op.operands[1])
            self._set(op, a + b if code is Opcode.ADD else a - b)
        elif code is Opcode.MUL:
            a = self.value_of(op.operands[0])
            b = self.value_of(op.operands[1])
            if b.is_constant:
                self._set(op, a.scale(b.const))
            elif a.is_constant:
                self._set(op, b.scale(a.const))
            else:
                self._set(op, Affine.symbol(fresh_opaque()))
        elif code is Opcode.DIV:
            a = self.value_of(op.operands[0])
            b = self.value_of(op.operands[1])
            self._set(op, a.div(b.const) if b.is_constant
                      else Affine.symbol(fresh_opaque()))
        elif code is Opcode.REM:
            a = self.value_of(op.operands[0])
            b = self.value_of(op.operands[1])
            self._set(op, a.mod(b.const) if b.is_constant
                      else Affine.symbol(fresh_opaque()))
        elif code is Opcode.SHL:
            a = self.value_of(op.operands[0])
            b = self.value_of(op.operands[1])
            self._set(op, a.scale(2 ** b.const)
                      if b.is_constant and 0 <= b.const < 31
                      else Affine.symbol(fresh_opaque()))
        elif code is Opcode.CAST:
            self._set(op, self.value_of(op.operands[0]))
        elif code is Opcode.READ_VAR:
            var_id = op.operands[0].id
            affine = self.vars.get(var_id)
            if affine is None:
                affine = self._var_symbol(var_id)
                self.vars[var_id] = affine
            self._set(op, affine)
        elif code is Opcode.WRITE_VAR:
            var_id = op.operands[0].id
            self.var_versions[var_id] = self.var_versions.get(var_id, 0) + 1
            self.vars[var_id] = self.value_of(op.operands[1])
        elif code in (Opcode.LOAD, Opcode.STORE):
            self._record_access(op)
        elif code is Opcode.PRELOAD:
            self._record_preload(op)
        elif code is Opcode.FOR:
            self._run_for(op)
        elif code is Opcode.IF:
            self._run_if(op)
        elif code is Opcode.CRITICAL:
            written = _written_vars(op.regions[0])
            self.run_block(op.regions[0])
            for var_id in written:
                self.invalidate_var(var_id)
        elif op.result is not None:
            self._set(op, Affine.symbol(fresh_opaque()))

    def _set(self, op: Operation, affine: Affine) -> None:
        if op.result is not None:
            self.values[op.result.id] = affine

    def _record_access(self, op: Operation) -> None:
        base = op.operands[0]
        index = self.value_of(op.operands[1])
        if op.opcode is Opcode.LOAD:
            ty = op.result.type if op.result is not None else None
            is_write = False
        else:
            ty = op.operands[2].type
            is_write = True
        width = ty.lanes if isinstance(ty, VectorType) else 1
        self.accesses[id(op)] = (Access(base.id, base.name, index, width,
                                        is_write),)

    def _record_preload(self, op: Operation) -> None:
        dst, src = op.operands[0], op.operands[2]
        dst_off = self.value_of(op.operands[1])
        src_off = self.value_of(op.operands[3])
        count = self.value_of(op.operands[4])
        # conservative width: the constant count, else "anything"
        width = count.const if count.is_constant else (1 << 30)
        self.accesses[id(op)] = (
            Access(dst.id, dst.name, dst_off, max(1, width), True),
            Access(src.id, src.name, src_off, max(1, width), False),
        )

    def _run_for(self, op: Operation) -> None:
        lower = self.value_of(op.operands[0])
        upper = self.value_of(op.operands[1])
        step = self.value_of(op.operands[2])
        iv_range = Interval()
        if lower.is_constant and upper.is_constant:
            hi = max(lower.const, upper.const - 1)
            if step.is_constant and step.const > 0 and upper.const > lower.const:
                # last value actually taken, given the step
                trips = (upper.const - 1 - lower.const) // step.const
                hi = lower.const + trips * step.const
            iv_range = Interval(lower.const, hi)
        iv_sym = Sym("iv", ("iv", id(op)), iv_range)
        iv = op.defined[0]
        self.values[iv.id] = Affine.symbol(iv_sym)
        # Loop-carried register values are unknown inside and after the body.
        written = _written_vars(op.regions[0])
        for var_id in written:
            self.invalidate_var(var_id)
        self.run_block(op.regions[0])
        for var_id in written:
            self.invalidate_var(var_id)
        _ = step  # step only matters for range refinement, kept conservative

    def _run_if(self, op: Operation) -> None:
        written: set[int] = set()
        for region in op.regions:
            written |= _written_vars(region)
            snapshot = dict(self.vars)
            self.run_block(region)
            self.vars = snapshot
        for var_id in written:
            self.invalidate_var(var_id)


def _written_vars(block: Block) -> set[int]:
    return {op.operands[0].id for op in block.walk()
            if op.opcode is Opcode.WRITE_VAR}


# ----------------------------------------------------------------------
# conflict tests
# ----------------------------------------------------------------------
def _accesses_of(ops: Iterable[Operation], amap: AccessMap) -> list[Access]:
    out: list[Access] = []
    for op in ops:
        for inner in op.walk():
            accesses = amap.get(id(inner))
            if accesses:
                out.extend(accesses)
    return out


def ops_conflict(a: Operation, b: Operation, amap: AccessMap) -> bool:
    """May regions ``a`` and ``b`` (including nested ops) touch common memory
    with at least one write?"""

    return conflicts(_accesses_of([a], amap), _accesses_of([b], amap))


def conflicts(left: list[Access], right: list[Access]) -> bool:
    """Pairwise conflict test between two access sets."""

    for la in left:
        for ra in right:
            if la.base != ra.base:
                continue
            if not (la.is_write or ra.is_write):
                continue
            if la.overlaps(ra):
                return True
    return False


def may_share_storage(left: list[Access], right: list[Access]) -> bool:
    """May the two sets touch the same memory words at all (ignoring
    read/write direction)?  Used for BRAM port-partitioning decisions:
    provably disjoint regions (ping-pong buffer halves) map to separate
    banks and do not contend for ports."""

    for la in left:
        for ra in right:
            if la.base == ra.base and la.overlaps(ra):
                return True
    return False
