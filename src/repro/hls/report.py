"""Human-readable compile reports for accelerators.

Mirrors the reporting a developer gets from an HLS tool: per-loop
initiation intervals and depths, stage counts, variable-latency
operation inventory, the area breakdown and the profiling unit's
footprint — the compile-time half of the paper's methodology (§IV/§V-B).
"""

from __future__ import annotations

from io import StringIO

from ..ir.ops import Opcode
from .compiler import Accelerator
from .schedule import (
    BarrierNode, BodySchedule, CriticalNode, IfNode, Item, LoopNode, Segment,
)

__all__ = ["compile_report", "schedule_tree"]


def compile_report(acc: Accelerator) -> str:
    """Render the full compile report for ``acc``."""

    out = StringIO()
    kernel = acc.kernel
    out.write(f"=== HLS compile report: {kernel.name} ===\n")
    out.write(f"hardware threads : {kernel.num_threads}\n")
    params = ", ".join(
        f"{p.name}({p.map_kind or 'value'}"
        f"{':' + str(p.map_size) if p.map_size is not None else ''})"
        for p in kernel.params)
    out.write(f"parameters       : {params}\n")
    if acc.transform_stats:
        out.write(f"transforms       : {acc.transform_stats}\n")

    schedule = acc.schedule
    out.write(f"pipeline stages  : {schedule.total_stages} total, "
              f"{schedule.reordering_stages} reordering (thread contexts "
              "buffered)\n")

    loops = list(schedule.body.walk_loops())
    if loops:
        out.write("\nloops:\n")
        out.write(f"  {'name':10s} {'kind':10s} {'II':>4s} {'rec-II':>7s} "
                  f"{'depth':>6s}\n")
        for loop in loops:
            kind = "pipelined" if loop.pipelined else "sequential"
            out.write(f"  {loop.op.attrs.get('name', '?'):10s} {kind:10s} "
                      f"{loop.ii:4d} {loop.rec_ii:7d} {loop.depth:6d}\n")

    vlos = _count_vlos(schedule.body)
    out.write("\nvariable-latency operations:\n")
    for name, count in sorted(vlos.items()):
        out.write(f"  {name:18s} {count:4d}\n")

    groups: dict[int, int] = {}
    for group in schedule.local_groups.values():
        groups[group] = groups.get(group, 0) + 1
    if groups:
        out.write(f"\nlocal-memory conflict groups: {len(groups)} "
                  f"({', '.join(str(n) + ' segs' for n in groups.values())})\n")

    breakdown = acc.area.breakdown
    out.write("\narea estimate (post-P&R model):\n")
    out.write(f"  registers: {acc.area.registers:8d}   "
              f"(operators {breakdown.operator_registers}, pipeline "
              f"{breakdown.pipeline_registers}, contexts "
              f"{breakdown.context_registers}, infra "
              f"{breakdown.infra_registers}, profiling "
              f"{breakdown.profiling_registers})\n")
    out.write(f"  ALMs:      {acc.area.alms:8d}   "
              f"(operators {breakdown.operator_alms}, infra "
              f"{breakdown.infra_alms}, profiling "
              f"{breakdown.profiling_alms})\n")
    out.write(f"  Fmax:      {acc.area.fmax_mhz:8.1f} MHz\n")

    if acc.options.profiling.enabled:
        overhead = acc.profiling_overhead()
        out.write("\nprofiling unit (vs profiling-free baseline):\n")
        out.write(f"  +{overhead['registers_pct']:.2f}% registers, "
                  f"+{overhead['alms_pct']:.2f}% ALMs, "
                  f"-{overhead['fmax_delta_mhz']:.1f} MHz\n")
    else:
        out.write("\nprofiling unit: disabled\n")

    out.write("\nschedule tree:\n")
    out.write(schedule_tree(schedule.body, indent=1))
    return out.getvalue()


def schedule_tree(body: BodySchedule, indent: int = 0) -> str:
    """Indented rendering of the item tree with dependences."""

    out = StringIO()
    pad = "  " * indent
    for index, item in enumerate(body.items):
        deps = body.deps[index] if index < len(body.deps) else []
        dep_str = f" after {deps}" if deps else ""
        out.write(pad + f"[{index}] {_item_label(item)}{dep_str}\n")
        for child in _children(item):
            out.write(schedule_tree(child, indent + 1))
    return out.getvalue()


def _item_label(item: Item) -> str:
    if isinstance(item, Segment):
        mems = len(item.mem_ops)
        return (f"segment depth={item.depth} flops={item.flops} "
                f"intops={item.intops} ext-mem={mems}")
    if isinstance(item, LoopNode):
        kind = "pipelined" if item.pipelined else "sequential"
        return (f"for {item.op.attrs.get('name', '?')} ({kind}, "
                f"II={item.ii}, rec-II={item.rec_ii}, depth={item.depth})")
    if isinstance(item, IfNode):
        return f"if ({len(item.branches)} branch(es))"
    if isinstance(item, CriticalNode):
        return f"critical lock={item.lock}"
    if isinstance(item, BarrierNode):
        return "barrier"
    return type(item).__name__  # pragma: no cover


def _children(item: Item) -> list[BodySchedule]:
    if isinstance(item, LoopNode):
        return [item.body]
    if isinstance(item, IfNode):
        return item.branches
    if isinstance(item, CriticalNode):
        return [item.body]
    return []


def _count_vlos(body: BodySchedule) -> dict[str, int]:
    counts: dict[str, int] = {}

    def bump(name: str) -> None:
        counts[name] = counts.get(name, 0) + 1

    for segment in body.walk_segments():
        for sched in segment.sched_ops:
            op = sched.op
            if op.opcode in (Opcode.LOAD, Opcode.STORE) and op.is_vlo:
                bump("external " + op.opcode.value)
    for loop in body.walk_loops():
        bump("inner loop" if loop.pipelined else "outer loop")
    counts.pop("outer loop", None)
    return counts
