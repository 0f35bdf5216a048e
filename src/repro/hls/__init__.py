"""Nymble-like HLS core: transforms, scheduling, dependence analysis,
area/timing modeling and the compiler driver.  See DESIGN.md §3."""

from .area import AreaBreakdown, AreaReport, estimate_areas
from .compiler import Accelerator, HLSCompiler, HLSOptions, compile_source
from .report import compile_report, schedule_tree
from .depanalysis import Access, AccessMap, collect_accesses, conflicts
from .schedule import (
    BarrierNode, BodySchedule, CriticalNode, IfNode, Item, KernelSchedule,
    LoopNode, MemOp, ScheduledOp, Segment, schedule_kernel,
)
from .symexpr import Affine, Interval, Sym, difference_excludes
from .transforms import (
    clone_block, eliminate_dead_ops, run_pipeline, simplify, static_trip_count,
    unroll_loops,
)

__all__ = [
    "AreaBreakdown", "AreaReport", "estimate_areas",
    "Accelerator", "HLSCompiler", "HLSOptions", "compile_source",
    "compile_report", "schedule_tree",
    "Access", "AccessMap", "collect_accesses", "conflicts",
    "BarrierNode", "BodySchedule", "CriticalNode", "IfNode", "Item",
    "KernelSchedule", "LoopNode", "MemOp", "ScheduledOp",
    "Segment", "schedule_kernel",
    "Affine", "Interval", "Sym", "difference_excludes",
    "clone_block", "eliminate_dead_ops", "run_pipeline", "simplify",
    "static_trip_count", "unroll_loops",
]
