"""Functional execution of scheduled segments via Python code generation.

For every :class:`~repro.hls.schedule.Segment` we generate (once, then
cache) a plain Python function that evaluates the segment's operations.
This keeps the per-iteration interpretation cost low enough to simulate
hundreds of thousands of pipeline iterations while remaining a faithful
implementation of the IR semantics:

* scalars are Python ``int``/``float`` (f32 values are rounded at the
  external-memory boundary, where the hardware's precision manifests);
* short vectors are tuples;
* external loads/stores go through the thread's memory view, which both
  performs the data movement on the mapped numpy buffers and appends a
  timing record consumed by the executor;
* local (BRAM) arrays are per-thread numpy arrays (thread-private, as
  OpenMP scoping requires; scalar reads return Python numbers so both
  execution modes see identical value types).

The generated function's inputs are the values defined outside the
segment (kernel parameters, loop induction variables, results of other
items); its return value is a tuple of results other items consume.

:func:`compile_segment_vectorized` additionally compiles suitable
segments to a *trip-batched* numpy form used by the simulator's
pipelined-loop fast path (:mod:`repro.sim.fastpath`): the induction
variable becomes an int64 vector, element-wise ops map to numpy array
ops, and loop-carried ``+=`` accumulators become strict left-fold
``np.add.accumulate`` scans, keeping results bit-identical to the
scalar interpreter.  Segments with unsupported shapes (data-dependent
lanes, multiplicative recurrences, preloader DMA, overlapping
scatter/gather) raise :class:`VectorizeError` at compile time; runtime
aliasing guards raise :class:`VectorFallback` *before any side effect*
so the executor can redo the loop through the scalar oracle.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..ir.graph import Kernel, Operation, Value
from ..ir.ops import Opcode
from ..ir.types import (
    BOOL, MemorySpace, PointerType, ScalarType, Type, VectorType,
)
from ..hls.schedule import Segment

__all__ = ["ThreadMemView", "CompiledSegment", "compile_segment",
           "KernelFunctionalContext", "VectorizedSegment", "VectorizeError",
           "VectorFallback", "compile_segment_vectorized"]


class VectorizeError(Exception):
    """The segment cannot be compiled to the trip-batched numpy form."""


class VectorFallback(Exception):
    """A runtime guard failed before any side effect; run the loop scalar."""


class ThreadMemView:
    """Functional memory access for one hardware thread.

    Wraps the global device buffers (numpy arrays mapped by parameter
    name) and the thread's private local arrays.  External accesses
    append ``(elem_index, nbytes, is_write, base_name)`` records to
    :attr:`trace` so the executor can replay their timing.
    """

    __slots__ = ("buffers", "locals", "trace", "f32_names")

    def __init__(self, buffers: dict[str, np.ndarray]):
        self.buffers = buffers
        self.locals: dict[int, np.ndarray] = {}
        self.trace: list[tuple[int, int, bool, str]] = []
        self.f32_names = {name for name, arr in buffers.items()
                          if arr.dtype == np.float32}

    def alloc_local(self, key: int, size: int, is_float: bool = True) -> None:
        if key not in self.locals:
            self.locals[key] = np.zeros(
                size, dtype=np.float64 if is_float else np.int64)

    # -- external accesses ----------------------------------------------
    def read(self, name: str, index: int, lanes: int, elem_bytes: int):
        self.trace.append((index, lanes * elem_bytes, False, name))
        arr = self.buffers[name]
        if lanes == 1:
            return arr[index].item()
        return tuple(arr[index:index + lanes].tolist())

    def write(self, name: str, index: int, value, lanes: int,
              elem_bytes: int) -> None:
        self.trace.append((index, lanes * elem_bytes, True, name))
        arr = self.buffers[name]
        if lanes == 1:
            arr[index] = value
        else:
            arr[index:index + lanes] = value

    def preload(self, dst_key: int, dst_off: int, name: str, src_off: int,
                count: int, elem_bytes: int) -> None:
        """Preloader DMA: bulk external -> local copy (one burst)."""

        self.trace.append((src_off, count * elem_bytes, False, name))
        arr = self.buffers[name]
        self.locals[dst_key][dst_off:dst_off + count] = \
            arr[src_off:src_off + count]

    # -- local (BRAM) accesses --------------------------------------------
    def lread(self, key: int, index: int, lanes: int):
        buf = self.locals[key]
        if lanes == 1:
            return buf[index].item()
        return tuple(buf[index:index + lanes].tolist())

    def lwrite(self, key: int, index: int, value, lanes: int) -> None:
        buf = self.locals[key]
        if lanes == 1:
            buf[index] = value
        else:
            buf[index:index + lanes] = value


@dataclass
class CompiledSegment:
    """A segment compiled to a Python function."""

    segment: Segment
    fn: Callable
    #: ids of values the function needs from the enclosing context
    inputs: list[int]
    #: ids of values the function returns (used by other items)
    outputs: list[int]
    source: str = ""


def _vname(value: Value) -> str:
    return f"v{value.id}"


def _lanes(ty: Type) -> int:
    return ty.lanes if isinstance(ty, VectorType) else 1


def _elem_bytes(ty: Type) -> int:
    elem = ty.elem if isinstance(ty, VectorType) else ty
    return max(1, elem.bits() // 8)


def _elem_is_float(ty: Type) -> bool:
    elem = ty.elem if isinstance(ty, VectorType) else ty
    return bool(elem.is_float)


def compile_segment(segment: Segment, external_uses: set[int],
                    kernel: Kernel) -> CompiledSegment:
    """Generate the Python function for ``segment``.

    ``external_uses`` is the set of value ids consumed anywhere outside
    this segment (used to decide the return tuple).
    """

    defined: set[int] = set()
    inputs: list[int] = []
    seen_inputs: set[int] = set()
    lines: list[str] = []

    def operand(value: Value) -> str:
        if value.id not in defined and value.id not in seen_inputs:
            seen_inputs.add(value.id)
            inputs.append(value.id)
        return _vname(value)

    for op in segment.ops:
        line = _emit_op(op, operand)
        if op.result is not None:
            defined.add(op.result.id)
        if line:
            lines.append(line)

    outputs = [vid for vid in sorted(defined) if vid in external_uses]

    body = "\n    ".join(lines) if lines else "pass"
    args = ", ".join(f"v{vid}" for vid in inputs)
    ret = ", ".join(f"v{vid}" for vid in outputs)
    source = (f"def _segment(ctx, vars, mem{', ' if args else ''}{args}):\n"
              f"    {body}\n"
              f"    return ({ret}{',' if len(outputs) == 1 else ''})\n")
    namespace: dict[str, Any] = {}
    exec(compile(source, f"<segment:{id(segment)}>", "exec"), namespace)
    return CompiledSegment(segment, namespace["_segment"], inputs, outputs,
                           source)


def _binary(op: Operation, operand, symbol: str) -> str:
    a, b = operand(op.operands[0]), operand(op.operands[1])
    r = _vname(op.result)
    ty = op.result.type
    if isinstance(ty, VectorType):
        return (f"{r} = tuple(_a {symbol} _b for _a, _b in zip({a}, {b}))")
    return f"{r} = {a} {symbol} {b}"


def _emit_op(op: Operation, operand) -> str:
    code = op.opcode
    r = _vname(op.result) if op.result is not None else None

    if code is Opcode.CONST:
        value = op.attrs["value"]
        return f"{r} = {value!r}"
    if code is Opcode.THREAD_ID:
        return f"{r} = ctx.tid"
    if code is Opcode.NUM_THREADS:
        return f"{r} = ctx.nthreads"

    if code in (Opcode.ADD, Opcode.SUB, Opcode.MUL):
        return _binary(op, operand, {"add": "+", "sub": "-", "mul": "*"}[code.value])
    if code is Opcode.DIV:
        a, b = operand(op.operands[0]), operand(op.operands[1])
        ty = op.result.type
        if isinstance(ty, VectorType):
            if ty.elem.is_float:
                return f"{r} = tuple(_a / _b for _a, _b in zip({a}, {b}))"
            return f"{r} = tuple(int(_a / _b) for _a, _b in zip({a}, {b}))"
        if isinstance(ty, ScalarType) and ty.is_float:
            return f"{r} = {a} / {b}"
        return f"{r} = int({a} / {b})"
    if code is Opcode.REM:
        a, b = operand(op.operands[0]), operand(op.operands[1])
        return f"{r} = {a} - int({a} / {b}) * {b}"
    if code is Opcode.NEG:
        a = operand(op.operands[0])
        if isinstance(op.result.type, VectorType):
            return f"{r} = tuple(-_a for _a in {a})"
        return f"{r} = -{a}"

    if code in (Opcode.AND, Opcode.OR, Opcode.XOR):
        a, b = operand(op.operands[0]), operand(op.operands[1])
        ty = op.result.type
        if ty == BOOL:
            sym = {"and": "and", "or": "or", "xor": "!="}[code.value]
            return f"{r} = bool({a} {sym} {b})"
        sym = {"and": "&", "or": "|", "xor": "^"}[code.value]
        return f"{r} = {a} {sym} {b}"
    if code is Opcode.NOT:
        a = operand(op.operands[0])
        if op.result.type == BOOL:
            return f"{r} = not {a}"
        return f"{r} = ~{a}"
    if code is Opcode.SHL:
        a, b = operand(op.operands[0]), operand(op.operands[1])
        return f"{r} = {a} << {b}"
    if code is Opcode.SHR:
        a, b = operand(op.operands[0]), operand(op.operands[1])
        return f"{r} = {a} >> {b}"

    if code in (Opcode.EQ, Opcode.NE, Opcode.LT, Opcode.LE, Opcode.GT,
                Opcode.GE):
        sym = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=",
               "gt": ">", "ge": ">="}[code.value]
        a, b = operand(op.operands[0]), operand(op.operands[1])
        return f"{r} = {a} {sym} {b}"

    if code is Opcode.CAST:
        a = operand(op.operands[0])
        src, dst = op.operands[0].type, op.result.type
        if isinstance(dst, VectorType):
            if dst.elem.is_float:
                return f"{r} = tuple(float(_a) for _a in {a})"
            return f"{r} = tuple(int(_a) for _a in {a})"
        if isinstance(dst, ScalarType) and dst.is_float:
            return f"{r} = float({a})"
        if dst == BOOL:
            return f"{r} = bool({a})"
        return f"{r} = int({a})"
    if code is Opcode.SELECT:
        c, a, b = (operand(v) for v in op.operands)
        return f"{r} = {a} if {c} else {b}"
    if code is Opcode.BROADCAST:
        a = operand(op.operands[0])
        lanes = _lanes(op.result.type)
        return f"{r} = ({a},) * {lanes}"
    if code is Opcode.EXTRACT:
        a, lane = operand(op.operands[0]), operand(op.operands[1])
        return f"{r} = {a}[{lane}]"
    if code is Opcode.INSERT:
        a, lane, x = (operand(v) for v in op.operands)
        return (f"{r} = {a}[:{lane}] + ({x},) + {a}[{lane} + 1:]")

    if code is Opcode.DECL_VAR:
        handle = op.attrs["var"]
        init = "(0.0,) * %d" % _lanes(handle.type) \
            if isinstance(handle.type, VectorType) else \
            ("0.0" if handle.type.is_float else "0")
        return f"vars[{handle.id}] = {init}"
    if code is Opcode.READ_VAR:
        return f"{r} = vars[{op.operands[0].id}]"
    if code is Opcode.WRITE_VAR:
        value = operand(op.operands[1])
        return f"vars[{op.operands[0].id}] = {value}"

    if code is Opcode.ALLOC_LOCAL:
        array = op.attrs["array"]
        size = array.size * _lanes(array.elem)
        return f"mem.alloc_local({op.result.id}, {size}, " \
               f"{_elem_is_float(array.elem)})\n    " \
               f"{r} = {op.result.id}"
    if code is Opcode.LOAD:
        base = op.operands[0]
        idx = operand(op.operands[1])
        lanes = _lanes(op.result.type)
        assert isinstance(base.type, PointerType)
        if base.type.space is MemorySpace.LOCAL:
            operand(base)  # local array handle flows as its integer key
            return f"{r} = mem.lread(v{base.id}, {idx}, {lanes})"
        ebytes = _elem_bytes(base.type.elem)
        return (f"{r} = mem.read({base.name!r}, {idx}, {lanes}, {ebytes})")
    if code is Opcode.STORE:
        base = op.operands[0]
        idx = operand(op.operands[1])
        value = operand(op.operands[2])
        lanes = _lanes(op.operands[2].type)
        assert isinstance(base.type, PointerType)
        if base.type.space is MemorySpace.LOCAL:
            operand(base)
            return f"mem.lwrite(v{base.id}, {idx}, {value}, {lanes})"
        ebytes = _elem_bytes(base.type.elem)
        return (f"mem.write({base.name!r}, {idx}, {value}, {lanes}, {ebytes})")

    if code is Opcode.PRELOAD:
        dst, src = op.operands[0], op.operands[2]
        operand(dst)
        dst_off = operand(op.operands[1])
        src_off = operand(op.operands[3])
        count = operand(op.operands[4])
        ebytes = _elem_bytes(src.type.elem)
        return (f"mem.preload(v{dst.id}, {dst_off}, {src.name!r}, "
                f"{src_off}, {count}, {ebytes})")

    raise NotImplementedError(f"cannot generate code for {code}")


# ----------------------------------------------------------------------
# trip-batched (vectorized) segment compilation
# ----------------------------------------------------------------------
@dataclass
class VectorizedSegment:
    """A segment compiled to a batched numpy function.

    ``fn(ctx, vars, mem, ivs, n, e, *inputs, *seeds)`` evaluates ``n``
    loop trips at once (``ivs`` is the int64 induction-variable vector)
    as ``e`` entries (see :func:`compile_segment_vectorized`) and returns
    ``(outputs, mem_indices, entry_finals)``: the per-id output values
    as seen after the *last* trip (plain Python numbers/tuples, exactly
    like the scalar interpreter would leave them) and one int64
    element-index array per entry of ``segment.mem_ops`` for the timing
    model.
    Functional side effects (buffer/local stores, ``vars`` updates) are
    committed only after every aliasing guard has passed, so a
    :class:`VectorFallback` leaves all state untouched.
    """

    segment: Segment
    fn: Callable
    inputs: list[int]
    outputs: list[int]
    source: str = ""
    #: carried vars reset at every entry boundary, in the order their
    #: per-entry finals are returned (third element of the fn result);
    #: empty for a lone loop
    entry_vars: tuple = ()


_F64 = np.float64
_I64 = np.int64
#: a value name in generated source (``v<id>``)
_VREF = re.compile(r"\bv(\d+)\b")


def _vinsert(a, lane, x, n):
    """Batched INSERT: copy-on-write a lane into a (possibly 2-D) vector."""

    if isinstance(a, np.ndarray):
        r = np.array(a)
    else:
        dt = np.result_type(np.asarray(a), x)
        r = np.empty((n, len(a)), dtype=dt)
        r[:] = np.asarray(a)
    r[:, lane] = x
    return r


def _chk_store(idx, lanes, loads, n):
    """Scatter guard: distinct per-trip targets, loads match the store.

    Raised *before* any functional side effect, so the executor can
    redo the whole loop through the scalar interpreter.
    """

    if n <= 1:
        return
    if isinstance(idx, np.ndarray):
        s = np.sort(idx)
        if int((s[1:] - s[:-1]).min()) < lanes:
            raise VectorFallback("overlapping store targets")
        for li in loads:
            if not (isinstance(li, np.ndarray) and np.array_equal(li, idx)):
                raise VectorFallback("load does not match store pattern")
    elif loads:
        raise VectorFallback("single-cell read-modify-write recurrence")


def _chk_store_multi(idxs, lanes, n):
    """Several stores to one base: every target cell must be distinct.

    With disjoint targets the commit order across stores cannot matter;
    any overlap (within a store across trips, or between stores) falls
    back to the scalar interpreter's exact program order.
    """

    if n <= 1:
        return  # a single trip commits in program order exactly
    parts = [idx if isinstance(idx, np.ndarray) else np.array([idx])
             for idx in idxs]
    s = np.sort(np.concatenate(parts))
    if s.size > 1 and int((s[1:] - s[:-1]).min()) < lanes:
        raise VectorFallback("overlapping store targets")


def _as_idx(idx, n):
    if isinstance(idx, np.ndarray):
        return idx
    return np.full(n, idx, dtype=np.int64)


class _VectorCodegen:
    """Generates the batched numpy source for one segment."""

    def __init__(self, segment: Segment, external_uses: set[int],
                 iv_id: int, entry_inputs=(), entry_vars=()):
        self.segment = segment
        self.ops = segment.ops
        self.external_uses = external_uses
        self.iv_id = iv_id
        self.entry_inputs = frozenset(entry_inputs)
        self.entry_vars = tuple(entry_vars)
        self.defidx: dict[int, int] = {}
        self.uses: dict[int, list[int]] = {}
        for index, op in enumerate(self.ops):
            if op.result is not None:
                self.defidx[op.result.id] = index
            for operand in op.operands:
                self.uses.setdefault(operand.id, []).append(index)
        self.defined: set[int] = {iv_id}
        self.arrays: set[int] = {iv_id} | set(self.entry_inputs)
        self.val_type: dict[int, Any] = {}
        self.inputs: list[int] = []
        self._seen_inputs: set[int] = set()
        self.compute: list[str] = []
        self.checks: list[str] = []
        self.commits: list[str] = []
        self.consumed: set[int] = set()
        #: base key -> [(idx expr, idx is array, lanes)]
        self.base_loads: dict[Any, list[tuple[str, bool, int]]] = {}
        #: base key -> [(idx expr, idx is array, lanes)]
        self.base_store: dict[Any, list[tuple[str, bool, int]]] = {}
        self.mem_idx: dict[int, str] = {}  # mem_ops position -> idx expr
        self.memop_pos = {id(m.op): p for p, m in enumerate(segment.mem_ops)}
        #: var id -> 'carried' | 'invariant' | 'local'
        self.var_kind: dict[int, str] = {}
        #: var id -> (expr, is_array, value type) for 'local' vars
        self.cur_var: dict[int, tuple[str, bool, Any]] = {}
        self.carried: dict[int, dict] = {}
        #: batched value name -> line taking its last trip's scalar
        self.lasts: dict[str, str] = {}

    # -- helpers -------------------------------------------------------
    def ref(self, value) -> str:
        if value.id not in self.defined and \
                value.id not in self._seen_inputs:
            self._seen_inputs.add(value.id)
            self.inputs.append(value.id)
        return _vname(value)

    def arr(self, value) -> bool:
        return value.id in self.arrays

    def _use_count(self, vid: int) -> int:
        return len(self.uses.get(vid, ()))

    def emit(self, op, line: str, is_array: bool) -> None:
        self.compute.append(line)
        if op.result is not None:
            self.defined.add(op.result.id)
            self.val_type[op.result.id] = op.result.type
            if is_array:
                self.arrays.add(op.result.id)

    def _vec_operand(self, value, any_array: bool) -> str:
        """Operand expression for a vector-typed op."""

        name = self.ref(value)
        if any_array and not self.arr(value):
            return f"_np.asarray({name})"
        return name

    def _const_int(self, value) -> int:
        index = self.defidx.get(value.id)
        if index is None or self.ops[index].opcode is not Opcode.CONST:
            raise VectorizeError("lane index is not a segment constant")
        return int(self.ops[index].attrs["value"])

    @staticmethod
    def _final_expr(expr: str, is_array: bool, ty) -> str:
        """Convert a batched value to the scalar interpreter's Python type."""

        if not is_array:
            return expr
        if isinstance(ty, VectorType):
            conv = "float" if ty.elem.is_float else "int"
            return f"tuple({conv}(_x) for _x in ({expr})[-1])"
        if ty == BOOL:
            return f"bool(({expr})[-1])"
        if isinstance(ty, ScalarType) and ty.is_float:
            return f"float(({expr})[-1])"
        return f"int(({expr})[-1])"

    # -- loop-carried accumulator chains -------------------------------
    def _classify_vars(self) -> None:
        first: dict[int, str] = {}
        written: set[int] = set()
        for op in self.ops:
            code = op.opcode
            if code is Opcode.DECL_VAR:
                first.setdefault(op.attrs["var"].id, "w")
                written.add(op.attrs["var"].id)
            elif code is Opcode.READ_VAR:
                first.setdefault(op.operands[0].id, "r")
            elif code is Opcode.WRITE_VAR:
                first.setdefault(op.operands[0].id, "w")
                written.add(op.operands[0].id)
        for vid, touch in first.items():
            if vid not in written:
                self.var_kind[vid] = "invariant"
            elif touch == "r":
                self.var_kind[vid] = "carried"
            else:
                self.var_kind[vid] = "local"

    def _analyze_carried(self, vid: int) -> None:
        reads = [i for i, op in enumerate(self.ops)
                 if op.opcode is Opcode.READ_VAR
                 and op.operands[0].id == vid]
        writes = [i for i, op in enumerate(self.ops)
                  if op.opcode is Opcode.WRITE_VAR
                  and op.operands[0].id == vid]
        if len(reads) != 1 or not writes or reads[0] > writes[0]:
            raise VectorizeError("unsupported carried-variable shape")
        read_op, write_op = self.ops[reads[0]], self.ops[writes[-1]]
        rres = read_op.result
        if rres.id in self.external_uses:
            raise VectorizeError("carried value escapes the segment")

        memo: dict[int, bool] = {}

        def reaches(value) -> bool:
            if value.id == rres.id:
                return True
            hit = memo.get(value.id)
            if hit is not None:
                return hit
            memo[value.id] = False  # cycle guard (vars break SSA)
            index = self.defidx.get(value.id)
            result = index is not None and any(
                reaches(operand) for operand in self.ops[index].operands)
            memo[value.id] = result
            return result

        # the read, every chain op and all but the final write are
        # consumed by the scan; the final write op stays live — emit_op
        # dispatches it to _emit_scan.  Intermediate writes (an unrolled
        # reduction re-writes the var once per step) are dead: the last
        # trip's final value subsumes them and mid-segment var state is
        # unobservable.
        consumed = set(reads) | set(writes[:-1])
        info: dict = {"read": reads[0], "write": writes[-1], "rres": rres}
        if isinstance(rres.type, VectorType):
            # an unrolled per-lane accumulator (`sum[j] += ...` under
            # `#pragma unroll`) re-writes the var after every lane's
            # insert; those writes are the only other use a link may have
            lane_deltas: dict[int, Value] = {}
            write_set = set(writes)
            cur = write_op.operands[1]
            consumer = writes[-1]
            while cur.id != rres.id:
                index = self.defidx.get(cur.id)
                if index is None or cur.id in self.external_uses or any(
                        u != consumer and u not in write_set
                        for u in self.uses.get(cur.id, ())):
                    raise VectorizeError("carried chain escapes")
                ins = self.ops[index]
                if ins.opcode is not Opcode.INSERT:
                    raise VectorizeError("vector recurrence is not "
                                         "lane-wise insert")
                lane = self._const_int(ins.operands[1])
                if lane in lane_deltas:
                    raise VectorizeError("lane updated twice per trip")
                upd = ins.operands[2]
                uidx = self.defidx.get(upd.id)
                if uidx is None or self._use_count(upd.id) != 1:
                    raise VectorizeError("carried chain escapes")
                uop = self.ops[uidx]
                if uop.opcode is not Opcode.ADD:
                    raise VectorizeError("non-additive lane recurrence")
                a, b = uop.operands
                ea = self._lane_extract(a, lane, reaches)
                eb = self._lane_extract(b, lane, reaches)
                if (ea is None) == (eb is None):
                    raise VectorizeError("ambiguous lane recurrence")
                eidx, delta = (ea, b) if ea is not None else (eb, a)
                if reaches(delta):
                    raise VectorizeError("delta depends on accumulator")
                lane_deltas[lane] = delta
                consumed.update((index, uidx, eidx))
                consumer = index
                cur = ins.operands[0]
            info["lane_deltas"] = lane_deltas
        else:
            deltas: list[Value] = []
            write_set = set(writes)
            cur = write_op.operands[1]
            consumer = writes[-1]
            while cur.id != rres.id:
                index = self.defidx.get(cur.id)
                allowed = write_set | {consumer}
                if index is None or cur.id in self.external_uses or \
                        any(u not in allowed
                            for u in self.uses.get(cur.id, ())):
                    raise VectorizeError("carried chain escapes")
                link = self.ops[index]
                if link.opcode is not Opcode.ADD:
                    raise VectorizeError("non-additive recurrence "
                                         f"({link.opcode.value})")
                a, b = link.operands
                ra, rb = reaches(a), reaches(b)
                if ra == rb:
                    raise VectorizeError("ambiguous recurrence")
                nxt, delta = (a, b) if ra else (b, a)
                if reaches(delta):
                    raise VectorizeError("delta depends on accumulator")
                deltas.append(delta)
                consumed.add(index)
                consumer = index
                cur = nxt
            deltas.reverse()
            info["deltas"] = deltas
        if any(u not in consumed for u in self.uses.get(rres.id, ())):
            raise VectorizeError("accumulator prefix value is used")
        self.consumed |= consumed
        self.carried[vid] = info

    def _lane_extract(self, value, lane: int, reaches):
        index = self.defidx.get(value.id)
        if index is None:
            return None
        op = self.ops[index]
        if op.opcode is not Opcode.EXTRACT or self._use_count(value.id) != 1:
            return None
        if not reaches(op.operands[0]):
            return None
        try:
            if self._const_int(op.operands[1]) != lane:
                return None
        except VectorizeError:
            return None
        return index

    def _emit_scan(self, vid: int) -> None:
        if vid in self.entry_vars:
            self._emit_entry_scan(vid)
            return
        info = self.carried[vid]
        rres = info["rres"]
        if isinstance(rres.type, VectorType):
            lanes = rres.type.lanes
            is_float = rres.type.elem.is_float
            dt = "_np.float64" if is_float else "_np.int64"
            conv = "float" if is_float else "int"
            self.compute.append(f"_sd{vid} = vars[{vid}]")
            parts = []
            for lane in range(lanes):
                delta = info["lane_deltas"].get(lane)
                if delta is None:
                    parts.append(f"_sd{vid}[{lane}]")
                    continue
                expr = self.ref(delta)
                self.compute.append(
                    f"_fl{vid} = _np.empty(_n + 1, dtype={dt})")
                self.compute.append(f"_fl{vid}[0] = _sd{vid}[{lane}]")
                self.compute.append(f"_fl{vid}[1:] = {expr}")
                self.compute.append(
                    f"_fj{vid}_{lane} = {conv}("
                    f"_np.add.accumulate(_fl{vid})[-1])")
                parts.append(f"_fj{vid}_{lane}")
            self.commits.append(f"vars[{vid}] = ({', '.join(parts)},)")
            return
        is_float = rres.type.is_float
        dt = "_np.float64" if is_float else "_np.int64"
        conv = "float" if is_float else "int"
        deltas = info["deltas"]
        m = len(deltas)
        if m == 1:
            self.compute.append(f"_fl{vid} = _np.empty(_n + 1, dtype={dt})")
            self.compute.append(f"_fl{vid}[0] = vars[{vid}]")
            self.compute.append(
                f"_fl{vid}[1:] = {self.ref(deltas[0])}")
        else:
            self.compute.append(
                f"_dl{vid} = _np.empty((_n, {m}), dtype={dt})")
            for pos, delta in enumerate(deltas):
                self.compute.append(
                    f"_dl{vid}[:, {pos}] = {self.ref(delta)}")
            self.compute.append(
                f"_fl{vid} = _np.empty(_n * {m} + 1, dtype={dt})")
            self.compute.append(f"_fl{vid}[0] = vars[{vid}]")
            self.compute.append(f"_fl{vid}[1:] = _dl{vid}.ravel()")
        self.compute.append(
            f"_fin{vid} = {conv}(_np.add.accumulate(_fl{vid})[-1])")
        self.commits.append(f"vars[{vid}] = _fin{vid}")

    def _emit_entry_scan(self, vid: int) -> None:
        """Segmented accumulator scan: the var resets at entry boundaries.

        The seed array ``_es<vid>`` holds the per-entry reset values
        (one per entry, captured right after the nest's leading segment
        ran); the scan folds each entry's ``_T`` trips independently and
        returns the per-entry finals.  ``np.add.accumulate`` along
        ``axis=1`` is a strict left fold per row, so every row matches
        the single-entry scan bit for bit.
        """

        info = self.carried[vid]
        rres = info["rres"]
        if isinstance(rres.type, VectorType):
            raise VectorizeError("entry-reset vector accumulator")
        is_float = rres.type.is_float
        dt = "_np.float64" if is_float else "_np.int64"
        conv = "float" if is_float else "int"
        deltas = info["deltas"]
        m = len(deltas)
        if m == 1:
            expr = self.ref(deltas[0])
            self.compute.append(
                f"_fl{vid} = _np.empty((_E, _T + 1), dtype={dt})")
            self.compute.append(f"_fl{vid}[:, 0] = _es{vid}")
            if self.arr(deltas[0]):
                self.compute.append(
                    f"_fl{vid}[:, 1:] = ({expr}).reshape(_E, _T)")
            else:
                self.compute.append(f"_fl{vid}[:, 1:] = {expr}")
        else:
            self.compute.append(
                f"_dl{vid} = _np.empty((_n, {m}), dtype={dt})")
            for pos, delta in enumerate(deltas):
                self.compute.append(
                    f"_dl{vid}[:, {pos}] = {self.ref(delta)}")
            self.compute.append(
                f"_fl{vid} = _np.empty((_E, _T * {m} + 1), dtype={dt})")
            self.compute.append(f"_fl{vid}[:, 0] = _es{vid}")
            self.compute.append(
                f"_fl{vid}[:, 1:] = _dl{vid}.reshape(_E, _T * {m})")
        self.compute.append(
            f"_fn{vid} = _np.add.accumulate(_fl{vid}, axis=1)[:, -1]")
        self.commits.append(f"vars[{vid}] = {conv}(_fn{vid}[-1])")

    # -- memory --------------------------------------------------------
    def _base_key(self, base):
        if base.type.space is MemorySpace.LOCAL:
            return ("loc", base.id)
        return ("ext", base.name)

    def _base_expr(self, base) -> str:
        if base.type.space is MemorySpace.LOCAL:
            return f"mem.locals[{self.ref(base)}]"
        return f"_bufs[{base.name!r}]"

    def _emit_load(self, op) -> None:
        base, idxv = op.operands[0], op.operands[1]
        key = self._base_key(base)
        if key in self.base_store:
            raise VectorizeError("load after store to the same base")
        idx = self.ref(idxv)
        is_arr = self.arr(idxv)
        lanes = _lanes(op.result.type)
        arrx = self._base_expr(base)
        pos = self.memop_pos.get(id(op))
        if pos is not None:
            self.mem_idx[pos] = idx
        cast = ""
        if base.type.space is not MemorySpace.LOCAL:
            cast = ".astype(_np.float64)" if base.type.elem.is_float \
                else ".astype(_np.int64)"
        r = _vname(op.result)
        if is_arr:
            if lanes == 1:
                line = f"{r} = {arrx}[{idx}]{cast}"
            else:
                line = (f"{r} = {arrx}[({idx})[:, None] + "
                        f"_np.arange({lanes})]{cast}")
        elif lanes == 1:
            line = f"{r} = {arrx}[{idx}].item()"
        else:
            line = f"{r} = tuple({arrx}[{idx}:{idx} + {lanes}].tolist())"
        self.base_loads.setdefault(key, []).append((idx, is_arr, lanes))
        self.emit(op, line, is_arr)

    def _emit_store(self, op) -> None:
        base, idxv, valv = op.operands
        key = self._base_key(base)
        stores = self.base_store.setdefault(key, [])
        if stores and self.base_loads.get(key):
            raise VectorizeError("multiple stores to a base with loads")
        idx = self.ref(idxv)
        is_arr = self.arr(idxv)
        val = self.ref(valv)
        val_arr = self.arr(valv)
        lanes = _lanes(valv.type)
        for _, _, llanes in self.base_loads.get(key, ()):
            if llanes != lanes:
                raise VectorizeError("mixed-width access to stored base")
        if stores and stores[0][2] != lanes:
            raise VectorizeError("mixed-width stores to one base")
        arrx = self._base_expr(base)
        pos = self.memop_pos.get(id(op))
        if pos is not None:
            self.mem_idx[pos] = idx
        stores.append((idx, is_arr, lanes))
        if is_arr:
            if lanes == 1:
                self.commits.append(f"{arrx}[{idx}] = {val}")
            else:
                self.commits.append(
                    f"{arrx}[({idx})[:, None] + _np.arange({lanes})] "
                    f"= {val}")
        else:
            last = f"{val}[-1]" if val_arr else val
            if lanes == 1:
                self.commits.append(f"{arrx}[{idx}] = {last}")
            else:
                self.commits.append(f"{arrx}[{idx}:{idx} + {lanes}] = {last}")

    # -- op dispatch ---------------------------------------------------
    def emit_op(self, index: int, op) -> None:
        code = op.opcode
        r = _vname(op.result) if op.result is not None else None

        if code is Opcode.DECL_VAR:
            handle = op.attrs["var"]
            if self.var_kind.get(handle.id) == "local":
                init = "(0.0,) * %d" % _lanes(handle.type) \
                    if isinstance(handle.type, VectorType) else \
                    ("0.0" if handle.type.is_float else "0")
                self.cur_var[handle.id] = (init, False, handle.type)
            return
        if code is Opcode.READ_VAR:
            vid = op.operands[0].id
            kind = self.var_kind.get(vid, "invariant")
            if kind == "carried":  # consumed by the scan
                return
            if kind == "local":
                expr, is_arr, _ty = self.cur_var[vid]
                self.emit(op, f"{r} = {expr}", is_arr)
            else:
                self.emit(op, f"{r} = vars[{vid}]", False)
            return
        if code is Opcode.WRITE_VAR:
            vid = op.operands[0].id
            if self.var_kind.get(vid) == "carried":
                self._emit_scan(vid)
                return
            value = op.operands[1]
            self.cur_var[vid] = (self.ref(value), self.arr(value),
                                 value.type)
            return

        if code is Opcode.CONST:
            self.emit(op, f"{r} = {op.attrs['value']!r}", False)
            return
        if code is Opcode.THREAD_ID:
            self.emit(op, f"{r} = ctx.tid", False)
            return
        if code is Opcode.NUM_THREADS:
            self.emit(op, f"{r} = ctx.nthreads", False)
            return

        if code is Opcode.ALLOC_LOCAL:
            array = op.attrs["array"]
            size = array.size * _lanes(array.elem)
            self.compute.append(f"mem.alloc_local({op.result.id}, {size}, "
                                f"{_elem_is_float(array.elem)})")
            self.emit(op, f"{r} = {op.result.id}", False)
            return
        if code is Opcode.LOAD:
            self._emit_load(op)
            return
        if code is Opcode.STORE:
            self._emit_store(op)
            return
        if code is Opcode.PRELOAD:
            raise VectorizeError("preloader DMA")

        any_arr = any(self.arr(v) for v in op.operands)
        vec = isinstance(op.result.type, VectorType) \
            if op.result is not None else False

        def oper(value):
            if vec and any_arr:
                return self._vec_operand(value, True)
            return self.ref(value)

        if code in (Opcode.ADD, Opcode.SUB, Opcode.MUL):
            sym = {"add": "+", "sub": "-", "mul": "*"}[code.value]
            a, b = oper(op.operands[0]), oper(op.operands[1])
            if vec and not any_arr:
                line = (f"{r} = tuple(_a {sym} _b for _a, _b in "
                        f"zip({a}, {b}))")
            else:
                line = f"{r} = {a} {sym} {b}"
            self.emit(op, line, any_arr)
            return
        if code is Opcode.DIV:
            a, b = oper(op.operands[0]), oper(op.operands[1])
            ty = op.result.type
            if vec and not any_arr:
                if ty.elem.is_float:
                    line = f"{r} = tuple(_a / _b for _a, _b in zip({a}, {b}))"
                else:
                    line = (f"{r} = tuple(int(_a / _b) for _a, _b in "
                            f"zip({a}, {b}))")
            elif (vec and ty.elem.is_float) or \
                    (isinstance(ty, ScalarType) and ty.is_float):
                line = f"{r} = {a} / {b}"
            elif any_arr:
                line = f"{r} = ({a} / {b}).astype(_np.int64)"
            else:
                line = f"{r} = int({a} / {b})"
            self.emit(op, line, any_arr)
            return
        if code is Opcode.REM:
            a, b = oper(op.operands[0]), oper(op.operands[1])
            if any_arr:
                line = f"{r} = {a} - ({a} / {b}).astype(_np.int64) * {b}"
            else:
                line = f"{r} = {a} - int({a} / {b}) * {b}"
            self.emit(op, line, any_arr)
            return
        if code is Opcode.NEG:
            a = oper(op.operands[0])
            if vec and not any_arr:
                line = f"{r} = tuple(-_a for _a in {a})"
            else:
                line = f"{r} = -{a}"
            self.emit(op, line, any_arr)
            return

        if code in (Opcode.AND, Opcode.OR, Opcode.XOR):
            a, b = oper(op.operands[0]), oper(op.operands[1])
            if op.result.type == BOOL:
                if any_arr:
                    fn = {"and": "_np.logical_and({}, {})",
                          "or": "_np.logical_or({}, {})",
                          "xor": "_np.not_equal({}, {})"}[code.value]
                    line = f"{r} = {fn.format(a, b)}"
                else:
                    sym = {"and": "and", "or": "or", "xor": "!="}[code.value]
                    line = f"{r} = bool({a} {sym} {b})"
            else:
                sym = {"and": "&", "or": "|", "xor": "^"}[code.value]
                line = f"{r} = {a} {sym} {b}"
            self.emit(op, line, any_arr)
            return
        if code is Opcode.NOT:
            a = oper(op.operands[0])
            if op.result.type == BOOL:
                line = f"{r} = _np.logical_not({a})" if any_arr \
                    else f"{r} = not {a}"
            else:
                line = f"{r} = ~{a}"
            self.emit(op, line, any_arr)
            return
        if code in (Opcode.SHL, Opcode.SHR):
            sym = "<<" if code is Opcode.SHL else ">>"
            a, b = oper(op.operands[0]), oper(op.operands[1])
            self.emit(op, f"{r} = {a} {sym} {b}", any_arr)
            return

        if code in (Opcode.EQ, Opcode.NE, Opcode.LT, Opcode.LE, Opcode.GT,
                    Opcode.GE):
            if any(isinstance(v.type, VectorType) for v in op.operands):
                raise VectorizeError("vector comparison")
            sym = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=",
                   "gt": ">", "ge": ">="}[code.value]
            a, b = oper(op.operands[0]), oper(op.operands[1])
            self.emit(op, f"{r} = {a} {sym} {b}", any_arr)
            return

        if code is Opcode.CAST:
            a = oper(op.operands[0])
            dst = op.result.type
            if isinstance(dst, VectorType):
                if any_arr:
                    dt = "_np.float64" if dst.elem.is_float else "_np.int64"
                    line = f"{r} = {a}.astype({dt})"
                elif dst.elem.is_float:
                    line = f"{r} = tuple(float(_a) for _a in {a})"
                else:
                    line = f"{r} = tuple(int(_a) for _a in {a})"
            elif any_arr:
                if dst == BOOL:
                    line = f"{r} = {a}.astype(bool)"
                elif isinstance(dst, ScalarType) and dst.is_float:
                    line = f"{r} = {a}.astype(_np.float64)"
                else:
                    line = f"{r} = {a}.astype(_np.int64)"
            elif isinstance(dst, ScalarType) and dst.is_float:
                line = f"{r} = float({a})"
            elif dst == BOOL:
                line = f"{r} = bool({a})"
            else:
                line = f"{r} = int({a})"
            self.emit(op, line, any_arr)
            return
        if code is Opcode.SELECT:
            if vec and any_arr:
                raise VectorizeError("vector select")
            c, a, b = (oper(v) for v in op.operands)
            if any_arr:
                line = f"{r} = _np.where({c}, {a}, {b})"
            else:
                line = f"{r} = {a} if {c} else {b}"
            self.emit(op, line, any_arr)
            return
        if code is Opcode.BROADCAST:
            a = oper(op.operands[0])
            lanes = _lanes(op.result.type)
            if any_arr:
                line = (f"{r} = _np.broadcast_to(({a})[:, None], "
                        f"(_n, {lanes}))")
            else:
                line = f"{r} = ({a},) * {lanes}"
            self.emit(op, line, any_arr)
            return
        if code is Opcode.EXTRACT:
            a, lane = op.operands
            if self.arr(lane):
                raise VectorizeError("data-dependent lane index")
            lx = self.ref(lane)
            if self.arr(a):
                line = f"{r} = {self.ref(a)}[:, {lx}]"
            else:
                line = f"{r} = {self.ref(a)}[{lx}]"
            self.emit(op, line, any_arr)
            return
        if code is Opcode.INSERT:
            a, lane, x = op.operands
            if self.arr(lane):
                raise VectorizeError("data-dependent lane index")
            lx = self.ref(lane)
            if any_arr:
                line = (f"{r} = _vinsert({self.ref(a)}, {lx}, "
                        f"{self.ref(x)}, _n)")
            else:
                ax = self.ref(a)
                line = (f"{r} = {ax}[:{lx}] + ({self.ref(x)},) + "
                        f"{ax}[{lx} + 1:]")
            self.emit(op, line, any_arr)
            return

        raise VectorizeError(f"cannot vectorize {code}")

    # -- driver --------------------------------------------------------
    def _last(self, expr: str, is_array: bool, ty) -> str:
        """The last trip's scalar of ``expr``, for a commit or the return.

        A batched value's scalar is taken right after the value is
        defined (see :meth:`_release_dead`), so the array itself need not
        outlive the compute phase.
        """

        if not is_array:
            return expr
        name = "_l" + expr
        self.lasts[expr] = f"{name} = {self._final_expr(expr, True, ty)}"
        return name

    def _release_dead(self, tail: str) -> list[str]:
        """``compute`` with each batched value deleted after its last use.

        Every op allocates a fresh ``_n``-element array.  Left alive until
        the return, a wide unrolled body (π's eight lanes) holds dozens of
        them at once, and the allocator page-faults that working set back
        in on every call.  Values the checks or return still read stay;
        last-trip scalars (:meth:`_last`) are taken at the definition.
        """

        keep = {int(m) for m in _VREF.findall(tail)}
        live = self.defined | self._seen_inputs
        last: dict[int, int] = {}
        for pos, line in enumerate(self.compute):
            for m in _VREF.findall(line):
                last[int(m)] = pos
        after: dict[int, list[str]] = {}
        for name, line in self.lasts.items():
            vid = int(name[1:])
            # a parameter has no defining line: take it up front
            pos = next((i for i, text in enumerate(self.compute)
                        if text.startswith(name + " = ")), -1)
            after.setdefault(pos, []).append(line)
            last[vid] = max(last.get(vid, pos), pos)
        for vid, pos in last.items():
            if vid in self.arrays and vid in live and vid not in keep:
                after.setdefault(pos, []).append(f"del v{vid}")
        compute = list(after.get(-1, ()))
        for pos, line in enumerate(self.compute):
            compute.append(line)
            compute.extend(after.get(pos, ()))
        return compute

    def generate(self) -> tuple[str, list[int], list[int]]:
        self._classify_vars()
        for vid in self.entry_vars:
            if self.var_kind.get(vid) != "carried":
                raise VectorizeError("entry-reset var is not carried")
        for vid, kind in list(self.var_kind.items()):
            if kind == "carried":
                self._analyze_carried(vid)
        if self.entry_vars:
            self.compute.append("_T = _n // _E")
        self.compute.append(f"v{self.iv_id} = _ivs")
        for index, op in enumerate(self.ops):
            if index in self.consumed:
                continue
            self.emit_op(index, op)
        for pos in range(len(self.segment.mem_ops)):
            if pos not in self.mem_idx:
                raise VectorizeError("untracked external access")
        for key, stores in self.base_store.items():
            lanes = stores[0][2]
            if len(stores) == 1:
                loads = ", ".join(l for l, _, _
                                  in self.base_loads.get(key, ()))
                self.checks.append(
                    f"_chk_store({stores[0][0]}, {lanes}, [{loads}], _n)")
            else:
                idxs = ", ".join(s[0] for s in stores)
                self.checks.append(
                    f"_chk_store_multi([{idxs}], {lanes}, _n)")
        for vid, (expr, is_arr, ty) in self.cur_var.items():
            self.commits.append(
                f"vars[{vid}] = {self._last(expr, is_arr, ty)}")
        outputs = [vid for vid in sorted(self.defined)
                   if vid in self.external_uses and vid != self.iv_id]
        outs = ", ".join(
            self._last(f"v{vid}", vid in self.arrays, self.val_type.get(vid))
            for vid in outputs)
        idxs = ", ".join(f"_as_idx({self.mem_idx[p]}, _n)"
                         for p in range(len(self.segment.mem_ops)))
        args = "".join(f", v{vid}" for vid in self.inputs)
        nmem = len(self.segment.mem_ops)
        ret = (f"return ({outs}{',' if len(outputs) == 1 else ''}), "
               f"({idxs}{',' if nmem == 1 else ''})")
        seeds = "".join(f", _es{vid}" for vid in self.entry_vars)
        fins = ", ".join(f"_fn{vid}" for vid in self.entry_vars)
        ret += f", ({fins}{',' if len(self.entry_vars) == 1 else ''})"
        compute = self._release_dead("\n".join(self.checks + self.commits
                                                + [ret]))
        lines = (compute + self.checks + self.commits) or ["pass"]
        body = "\n    ".join(lines)
        head = f"def _vsegment(ctx, vars, mem, _ivs, _n, _E{args}{seeds}):"
        source = (f"{head}\n"
                  f"    _bufs = mem.buffers\n"
                  f"    {body}\n"
                  f"    {ret}\n")
        return source, self.inputs, outputs


def compile_segment_vectorized(segment: Segment, external_uses: set[int],
                               iv_id: int, entry_inputs=(),
                               entry_vars=()) -> VectorizedSegment:
    """Compile ``segment`` to the trip-batched numpy form.

    Raises :class:`VectorizeError` when the segment's shape is not
    supported; the caller then keeps the scalar interpreter for the
    whole loop.

    The generated function evaluates a flattened loop *nest*:
    ``fn(ctx, vars, mem, ivs, n, e, *inputs, *seeds)`` runs ``e``
    entries of ``n // e`` trips each (a lone loop is one entry).
    ``entry_inputs`` are value ids whose per-trip values vary across
    entries (the caller passes length-``n`` arrays for those inputs);
    ``entry_vars`` are carried vars reset at every entry boundary,
    seeded from the matching per-entry ``seeds`` array.  The third
    element of the result holds each entry var's per-entry final values.
    """

    codegen = _VectorCodegen(segment, external_uses, iv_id,
                             entry_inputs=entry_inputs,
                             entry_vars=entry_vars)
    source, inputs, outputs = codegen.generate()
    namespace: dict[str, Any] = {
        "_np": np, "_vinsert": _vinsert, "_chk_store": _chk_store,
        "_chk_store_multi": _chk_store_multi, "_as_idx": _as_idx,
        "VectorFallback": VectorFallback,
    }
    exec(compile(source, f"<vsegment:{segment.uid}>", "exec"), namespace)
    return VectorizedSegment(segment, namespace["_vsegment"], inputs,
                             outputs, source,
                             entry_vars=tuple(entry_vars))


@dataclass
class KernelFunctionalContext:
    """Per-thread runtime context shared with generated code."""

    tid: int
    nthreads: int
    mem: ThreadMemView
    vars: dict[int, Any] = field(default_factory=dict)
    values: dict[int, Any] = field(default_factory=dict)
