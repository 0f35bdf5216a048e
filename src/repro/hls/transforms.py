"""IR-level HLS transformations.

Three passes run before scheduling, mirroring what Nymble (and HLS tools
generally) do to the dataflow graph:

* :func:`unroll_loops` — honor ``#pragma unroll N``: replicate the loop
  body N times spatially (the trip count shrinks by N).  Loops whose
  static trip count equals the unroll factor are fully dissolved into
  the parent block.
* :func:`simplify` — constant folding, ``read_var`` forwarding within
  straight-line code, and vector ``extract(insert(...))`` forwarding.
  After full unrolling this turns per-lane accumulator updates into
  independent dependence chains (one per lane), which is what lets the
  π kernel's unrolled loop reach a small initiation interval instead of
  serializing through the vector register.
* :func:`eliminate_dead_ops` — drop unused pure operations.

All passes mutate the kernel in place and are idempotent.
"""

from __future__ import annotations

from typing import Optional

from ..ir.graph import Block, Kernel, Operation, Value
from ..ir.ops import Opcode

__all__ = ["unroll_loops", "simplify", "eliminate_dead_ops", "run_pipeline",
           "clone_block", "static_trip_count"]


# ----------------------------------------------------------------------
# cloning
# ----------------------------------------------------------------------
def clone_block(block: Block, value_map: dict[int, Value]) -> Block:
    """Deep-copy ``block``, rewriting operand references through ``value_map``.

    ``value_map`` maps old ``Value.id`` to replacement values; values not
    in the map (defined outside the block) are shared.  Variable handles
    (``decl_var``) declared *inside* the block are cloned so replicas get
    distinct registers; handles declared outside stay shared, preserving
    accumulator semantics across replicas.
    """

    return Block([_clone_op(op, value_map) for op in block.ops],
                 label=block.label)


def _clone_op(op: Operation, value_map: dict[int, Value]) -> Operation:
    operands = [value_map.get(v.id, v) for v in op.operands]
    result: Optional[Value] = None
    if op.result is not None:
        result = Value(op.result.type, name=op.result.name)
        value_map[op.result.id] = result
    attrs = dict(op.attrs)
    defined: list[Value] = []
    for value in op.defined:
        new_value = Value(value.type, name=value.name)
        value_map[value.id] = new_value
        defined.append(new_value)
    var = attrs.get("var")
    if isinstance(var, Value):
        attrs["var"] = value_map.get(var.id, var)
    new_op = Operation(op.opcode, operands, result, attrs,
                       regions=[clone_block(r, value_map) for r in op.regions],
                       defined=defined)
    return new_op


# ----------------------------------------------------------------------
# unrolling
# ----------------------------------------------------------------------
def static_trip_count(op: Operation) -> Optional[int]:
    """Trip count of a ``for`` if all bounds are compile-time constants."""

    bounds = []
    for operand in op.operands:
        producer = operand.producer
        if producer is None or producer.opcode is not Opcode.CONST:
            return None
        bounds.append(int(producer.attrs["value"]))
    lower, upper, step = bounds
    if step <= 0 or upper <= lower:
        return 0
    return (upper - lower + step - 1) // step


def unroll_loops(kernel: Kernel) -> int:
    """Apply ``unroll`` attributes throughout ``kernel``; returns #loops changed."""

    changed = _unroll_in_block(kernel.body)
    _hoist_widened_steps(kernel.body)
    return changed


def _unroll_in_block(block: Block) -> int:
    changed = 0
    new_ops: list[Operation] = []
    for op in block.ops:
        for region in op.regions:
            changed += _unroll_in_block(region)
        if op.opcode is Opcode.FOR and op.attrs.get("unroll", 1) > 1:
            factor = op.attrs["unroll"]
            trips = static_trip_count(op)
            if trips is not None and factor >= trips and trips > 0:
                new_ops.extend(_fully_unroll(op, trips))
                changed += 1
                continue
            if trips is None or (trips % factor == 0 and factor > 1):
                _partially_unroll(op, factor)
                changed += 1
                new_ops.append(op)
                continue
            # Trip count not divisible: keep the rolled loop (safe fallback).
            op.attrs["unroll"] = 1
        new_ops.append(op)
    block.ops = new_ops
    return changed


def _bound_const(op: Operation, idx: int) -> int:
    producer = op.operands[idx].producer
    assert producer is not None and producer.opcode is Opcode.CONST
    return int(producer.attrs["value"])


def _fully_unroll(op: Operation, trips: int) -> list[Operation]:
    """Replace a constant-trip loop by ``trips`` copies of its body."""

    lower = _bound_const(op, 0)
    step = _bound_const(op, 2)
    iv = op.defined[0]
    out: list[Operation] = []
    for r in range(trips):
        const = Value(iv.type, name=f"{iv.name}_{r}")
        const_op = Operation(Opcode.CONST, [], const, {"value": lower + r * step})
        out.append(const_op)
        value_map = {iv.id: const}
        replica = clone_block(op.regions[0], value_map)
        out.extend(replica.ops)
    return out


def _partially_unroll(op: Operation, factor: int) -> None:
    """Replicate the body ``factor`` times; the step grows by ``factor``.

    Replica ``r`` sees the induction value ``iv + r*step``.  The caller
    must guarantee the trip count is a multiple of ``factor`` (checked
    for static trip counts; runtime trip counts keep the kernel's own
    responsibility, as with real HLS unroll pragmas).
    """

    iv = op.defined[0]
    step_value = op.operands[2]
    body = op.regions[0]
    new_body = Block(label=body.label)
    for r in range(factor):
        if r == 0:
            value_map: dict[int, Value] = {}
            replica = clone_block(body, value_map)
            new_body.ops.extend(replica.ops)
            continue
        offset = Value(iv.type, name=f"{iv.name}_off{r}")
        mul_c = Value(iv.type)
        new_body.append(Operation(Opcode.CONST, [], mul_c, {"value": r}))
        scaled = Value(iv.type)
        new_body.append(Operation(Opcode.MUL, [mul_c, step_value], scaled))
        new_body.append(Operation(Opcode.ADD, [iv, scaled], offset))
        value_map = {iv.id: offset}
        replica = clone_block(body, value_map)
        new_body.ops.extend(replica.ops)
    # step *= factor: synthesize the widened step as a new constant if the
    # original was constant, else an explicit multiply in the parent block
    # is needed — we require constant steps for partial unroll.
    producer = step_value.producer
    if producer is not None and producer.opcode is Opcode.CONST:
        widened = Value(step_value.type)
        const_op = Operation(Opcode.CONST, [], widened,
                             {"value": int(producer.attrs["value"]) * factor})
        new_body_ops = [const_op]
        op.operands[2] = widened
        # the constant must dominate the loop: prepend to the loop's body's
        # parent is unavailable here, so keep it as the first op of the loop
        # operands' producer block — instead we re-point after insertion:
        op.attrs["_widened_step_op"] = const_op
        _ = new_body_ops
    else:
        raise ValueError("partial unroll requires a constant loop step")
    op.attrs["unroll"] = 1
    op.attrs["unrolled_by"] = factor
    op.regions[0] = new_body


def _hoist_widened_steps(block: Block) -> None:
    """Insert widened-step constants created by partial unrolling."""

    new_ops: list[Operation] = []
    for op in block.ops:
        for region in op.regions:
            _hoist_widened_steps(region)
        pending = op.attrs.pop("_widened_step_op", None)
        if pending is not None:
            new_ops.append(pending)
        new_ops.append(op)
    block.ops = new_ops


# ----------------------------------------------------------------------
# simplification
# ----------------------------------------------------------------------
_FOLDABLE = {
    Opcode.ADD: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.MUL: lambda a, b: a * b,
}


#: passes :func:`simplify` and :func:`eliminate_dead_ops` make at most
#: while looking for a fixpoint
MAX_ROUNDS = 8


def simplify(kernel: Kernel) -> int:
    """Run local simplifications to fixpoint; returns #rewrites applied."""

    total = 0
    for _ in range(MAX_ROUNDS):
        changed = _simplify_block(kernel.body, {})
        total += changed
        if not changed:
            break
    return total


def _const_of(value: Value) -> Optional[object]:
    producer = value.producer
    if producer is not None and producer.opcode is Opcode.CONST:
        return producer.attrs["value"]
    return None


def _simplify_block(block: Block, replacements: dict[int, Value]) -> int:
    changed = 0
    #: var handle id -> Value last written in this straight-line stretch
    forward: dict[int, Value] = {}

    def resolve(value: Value) -> Value:
        seen = set()
        while value.id in replacements and value.id not in seen:
            seen.add(value.id)
            value = replacements[value.id]
        return value

    for op in block.ops:
        operands = op.operands
        for index, value in enumerate(operands):
            if value.id in replacements:
                new = resolve(value)
                if new is not value:
                    operands[index] = new
                    changed += 1
        code = op.opcode
        if op.regions:
            for region in op.regions:
                changed += _simplify_block(region, replacements)
            # Regions may write any var: stop forwarding across them.
            forward.clear()
            continue
        if code is Opcode.WRITE_VAR:
            forward[op.operands[0].id] = op.operands[1]
        elif code is Opcode.READ_VAR:
            known = forward.get(op.operands[0].id)
            if known is not None and op.result is not None \
                    and known.type == op.result.type:
                # rewrites of later uses are counted where they happen
                replacements[op.result.id] = known
        elif code in _FOLDABLE and op.result is not None:  # noqa: SIM114
            a, b = _const_of(op.operands[0]), _const_of(op.operands[1])
            if isinstance(a, int) and isinstance(b, int):
                op.opcode = Opcode.CONST
                op.attrs = {"value": _FOLDABLE[code](a, b)}
                op.operands = []
                changed += 1
        elif code is Opcode.EXTRACT and op.result is not None:
            changed += _forward_extract(op, replacements)
    return changed


def _forward_extract(op: Operation, replacements: dict[int, Value]) -> int:
    """Rewrite ``extract(insert(v, i, x), j)`` with constant lanes."""

    lane = _const_of(op.operands[1])
    if not isinstance(lane, int):
        return 0
    source = op.operands[0]
    hops = 0
    while True:
        producer = source.producer
        if producer is None:
            break
        if producer.opcode is Opcode.INSERT:
            ins_lane = _const_of(producer.operands[1])
            if not isinstance(ins_lane, int):
                break
            if ins_lane == lane:
                assert op.result is not None
                replacements[op.result.id] = producer.operands[2]
                return 0
            source = producer.operands[0]
            hops += 1
            continue
        if producer.opcode is Opcode.BROADCAST:
            assert op.result is not None
            replacements[op.result.id] = producer.operands[0]
            return 0
        break
    if hops:
        # Passed through inserts to other lanes: shorten the dependence
        # chain so independent lanes stay independent in the schedule.
        op.operands[0] = source
        return 1
    return 0


# ----------------------------------------------------------------------
# dead code elimination
# ----------------------------------------------------------------------
_SIDE_EFFECT_OPS = {Opcode.STORE, Opcode.WRITE_VAR, Opcode.BARRIER,
                    Opcode.CRITICAL, Opcode.FOR, Opcode.IF, Opcode.DECL_VAR,
                    Opcode.ALLOC_LOCAL}


def eliminate_dead_ops(kernel: Kernel) -> int:
    """Remove pure operations whose results are never used."""

    removed_total = 0
    for _ in range(MAX_ROUNDS):
        uses: set[int] = set()
        for op in kernel.walk():
            for operand in op.operands:
                uses.add(operand.id)
        removed = _dce_block(kernel.body, uses)
        removed_total += removed
        if not removed:
            break
    return removed_total


def _dce_block(block: Block, uses: set[int]) -> int:
    removed = 0
    kept: list[Operation] = []
    for op in block.ops:
        for region in op.regions:
            removed += _dce_block(region, uses)
        if op.opcode in _SIDE_EFFECT_OPS or op.opcode is Opcode.LOAD:
            # Loads may fault / have timing significance: keep external
            # semantics simple by retaining them only if used — BRAM/DRAM
            # reads without users are safe to drop, matching HLS pruning.
            if op.opcode is Opcode.LOAD and op.result is not None \
                    and op.result.id not in uses:
                removed += 1
                continue
            kept.append(op)
            continue
        if op.result is not None and op.result.id not in uses:
            removed += 1
            continue
        kept.append(op)
    block.ops = kept
    return removed


def run_pipeline(kernel: Kernel) -> dict[str, int]:
    """Run the standard pass pipeline; returns per-pass change counts."""

    from .. import telemetry

    stats = {}
    with telemetry.span("hls.transforms.unroll", category="hls"):
        stats["unrolled"] = unroll_loops(kernel)
    with telemetry.span("hls.transforms.simplify", category="hls"):
        stats["simplified"] = simplify(kernel)
    with telemetry.span("hls.transforms.dce", category="hls"):
        stats["dce"] = eliminate_dead_ops(kernel)
    return stats
