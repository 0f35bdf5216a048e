"""Report model: everything the paper reads off Paraver, as one object.

:func:`build_report` distills a run (live ``SimResult`` or a
reconstructed trace) into a :class:`TraceReport`: state attribution,
a POP-style multiplicative efficiency hierarchy, phase statistics,
bandwidth / GFLOP/s against configured platform peaks, and the
automatic bottleneck diagnosis.  Exporters (text / JSON / HTML) render
the same model, so every output format agrees on the numbers.

The efficiency hierarchy follows the POP methodology's shape (parallel
efficiency factored into independent multiplicative terms), adapted to
the quantities the profiling unit records.  With ``T`` the run length
in cycles, ``useful_t`` thread *t*'s Running + Critical cycles and
``active_t = useful_t + spinning_t``:

* ``parallel  = Σ useful / (N · T)``     — share of thread-time doing work;
* ``balance   = mean(useful) / max(useful)``   — load balance;
* ``sync      = max(useful) / max(active)``    — loss to lock spinning;
* ``transfer  = max(active) / T``   — loss to idling (staggered starts,
  waiting on data delivery).

These satisfy ``parallel = balance × sync × transfer`` exactly.
``pipeline`` (``Σ useful / (Σ useful + Σ stalls)``) reports the
datapath-stall exposure the paper attributes to memory latency;
in-flight iterations overlap, so stall cycles are booked per iteration
and can exceed wall time — the ratio annotates rather than factors the
hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..analysis.bottlenecks import Diagnosis, classify
from ..paraver.analysis import (
    PhaseStats, bandwidth_series_gbs, gflops_series, phase_overlap,
    temporal_overlap,
)
from ..profiling.attribution import AttributionTable, Cause
from ..profiling.config import EventKind, ThreadState
from ..profiling.recorder import RunTrace, state_fractions

__all__ = ["PlatformPeaks", "EfficiencyHierarchy", "AttributionSummary",
           "TraceReport", "build_report", "report_from_prv",
           "comparison_rows"]


@dataclass(frozen=True)
class PlatformPeaks:
    """Configured platform roofline values to report achieved rates against.

    Defaults approximate the paper's Intel D5005 PAC: four DDR4-2400
    banks (~76.8 GB/s aggregate) and no FLOP peak (it depends on the
    synthesized datapath, so it is opt-in).
    """

    bandwidth_gbs: Optional[float] = 76.8
    gflops: Optional[float] = None


@dataclass(frozen=True)
class EfficiencyHierarchy:
    """POP-style multiplicative decomposition of parallel efficiency."""

    parallel: float
    balance: float
    sync: float
    transfer: float
    #: useful / (useful + stalls) — stall exposure (annotation, not a factor)
    pipeline: float

    def as_dict(self) -> dict[str, float]:
        return {"parallel": self.parallel, "balance": self.balance,
                "sync": self.sync, "transfer": self.transfer,
                "pipeline": self.pipeline}


@dataclass
class AttributionSummary:
    """Cycle accounting rolled up for the exporters (see DESIGN.md §11).

    ``causes`` maps every :class:`~repro.profiling.attribution.Cause`
    name (lower-cased, ``useful`` included) to its whole-run cycle
    total; ``regions`` is the ranked per-region breakdown of
    :meth:`AttributionTable.region_rows`; ``invariant_ok`` records
    whether ``useful + Σ causes == cycles`` held for every thread.
    """

    causes: dict[str, int]
    regions: list[dict]
    per_thread: list[list[int]]
    total_thread_cycles: int
    invariant_ok: bool
    violations: list[tuple[int, int, int]]

    @property
    def lost_cycles(self) -> int:
        return sum(v for k, v in self.causes.items() if k != "useful")

    @staticmethod
    def from_table(table: AttributionTable,
                   end_cycle: int) -> "AttributionSummary":
        totals = table.slot_totals()
        violations = table.check(end_cycle)
        return AttributionSummary(
            causes={cause.name.lower(): totals[cause] for cause in Cause},
            regions=table.region_rows(),
            per_thread=table.thread_totals(),
            total_thread_cycles=end_cycle * table.num_threads,
            invariant_ok=not violations,
            violations=violations)


@dataclass
class TraceReport:
    """One run's complete analysis, ready for any exporter."""

    label: str
    source: str
    cycles: int
    clock_mhz: float
    num_threads: int
    sampling_period: int
    state_fractions: dict[ThreadState, float]
    #: per-thread cycles per state
    thread_states: list[dict[ThreadState, int]]
    efficiency: EfficiencyHierarchy
    stall_fraction: float
    phases: Optional[PhaseStats]
    missing_counters: list[str]
    bandwidth_gbs: float
    peak_window_bandwidth_gbs: float
    gflops: float
    peak_window_gflops: float
    peaks: PlatformPeaks
    diagnosis: Diagnosis
    thread_names: list[str]
    #: per-window series for the exporters' panels (may be empty)
    bandwidth_series: np.ndarray = field(
        default_factory=lambda: np.zeros(0))
    gflops_series: np.ndarray = field(default_factory=lambda: np.zeros(0))
    #: kept so the HTML exporter can draw the per-thread state timeline
    trace: Optional[RunTrace] = None
    #: cycle accounting (present when the run had SimConfig.attribution)
    attribution: Optional[AttributionSummary] = None

    @property
    def seconds(self) -> float:
        return self.cycles / (self.clock_mhz * 1e6) if self.clock_mhz else 0.0

    @property
    def bandwidth_peak_fraction(self) -> Optional[float]:
        if not self.peaks.bandwidth_gbs:
            return None
        return self.bandwidth_gbs / self.peaks.bandwidth_gbs

    @property
    def gflops_peak_fraction(self) -> Optional[float]:
        if not self.peaks.gflops:
            return None
        return self.gflops / self.peaks.gflops


def _efficiency(totals: np.ndarray, end_cycle: int,
                stall_total: float) -> EfficiencyHierarchy:
    """The hierarchy from [threads, states] cycle totals."""

    if not len(totals):
        # a degenerate trace (no threads) has no efficiency to speak of
        return EfficiencyHierarchy(0.0, 1.0, 1.0, 0.0, 1.0)
    end = max(1, end_cycle)
    useful = (totals[:, ThreadState.RUNNING]
              + totals[:, ThreadState.CRITICAL]).astype(float)
    active = useful + totals[:, ThreadState.SPINNING]
    max_useful = useful.max()
    max_active = active.max()
    balance = float(useful.mean() / max_useful) if max_useful else 1.0
    sync = float(max_useful / max_active) if max_active else 1.0
    transfer = float(max_active / end)
    parallel = balance * sync * transfer
    total_useful = float(useful.sum())
    exposed = total_useful + stall_total
    pipeline = total_useful / exposed if exposed else 1.0
    return EfficiencyHierarchy(parallel, balance, sync, transfer, pipeline)


def build_report(result, label: str = "run", source: str = "",
                 peaks: Optional[PlatformPeaks] = None,
                 thread_names: Optional[list[str]] = None) -> TraceReport:
    """Analyze a ``SimResult``-like object into a :class:`TraceReport`.

    ``result`` needs ``trace``, ``clock_mhz``, ``stalls``, ``gflops``
    and ``bandwidth_gbs()`` — a live
    :class:`~repro.sim.executor.SimResult` or the ``result`` of
    :func:`repro.paraver.reconstruct_run` both qualify.  Each whole-run
    figure is computed here once; the diagnosis classifies those same
    numbers.
    """

    trace: RunTrace = result.trace
    clock = result.clock_mhz
    peaks = peaks or PlatformPeaks()
    missing = [kind.value for kind in
               (EventKind.MEM_READ_BYTES, EventKind.FLOPS)
               if kind not in trace.events]

    bw_series = bandwidth_series_gbs(trace, clock) \
        if EventKind.MEM_READ_BYTES in trace.events else np.zeros(0)
    fl_series = gflops_series(trace, clock) \
        if EventKind.FLOPS in trace.events else np.zeros(0)
    phases = None if missing else phase_overlap(trace)

    totals = trace.state_totals()
    fractions = state_fractions(totals)
    stall_total = float(sum(result.stalls))
    efficiency = _efficiency(totals, trace.end_cycle, stall_total)
    thread_cycles = trace.end_cycle * trace.num_threads
    # a zero-duration or thread-less trace ran nothing, so nothing stalled
    stall_fraction = stall_total / thread_cycles if thread_cycles > 0 \
        else 0.0
    bandwidth = result.bandwidth_gbs()
    gflops = result.gflops
    attribution = None
    if trace.attribution is not None:
        attribution = AttributionSummary.from_table(trace.attribution,
                                                    trace.end_cycle)
    diagnosis = classify(
        fractions=fractions, stall_fraction=stall_fraction,
        balance=efficiency.balance,
        temporal_overlap=temporal_overlap(trace),
        bandwidth_gbs=bandwidth, gflops=gflops, missing=missing,
        phases=phases,
        causes=attribution.causes if attribution else None,
        thread_cycles=thread_cycles,
        peak_bandwidth_gbs=peaks.bandwidth_gbs)

    names = thread_names or [f"HW thread {t}"
                             for t in range(trace.num_threads)]
    return TraceReport(
        label=label, source=source, cycles=trace.end_cycle,
        clock_mhz=clock, num_threads=trace.num_threads,
        sampling_period=trace.sampling_period,
        state_fractions=fractions,
        thread_states=[dict(zip(ThreadState, row))
                       for row in totals.tolist()],
        efficiency=efficiency,
        stall_fraction=stall_fraction,
        phases=phases, missing_counters=missing,
        bandwidth_gbs=bandwidth,
        peak_window_bandwidth_gbs=float(bw_series.max())
        if bw_series.size else 0.0,
        gflops=gflops,
        peak_window_gflops=float(fl_series.max()) if fl_series.size else 0.0,
        peaks=peaks, diagnosis=diagnosis, thread_names=names,
        bandwidth_series=bw_series, gflops_series=fl_series,
        trace=trace, attribution=attribution)


def report_from_prv(path: str, label: Optional[str] = None,
                    clock_mhz: Optional[float] = None,
                    peaks: Optional[PlatformPeaks] = None) -> TraceReport:
    """Build a report straight from a saved ``.prv`` trace."""

    import os

    from ..paraver.reconstruct import reconstruct_run

    run = reconstruct_run(path, clock_mhz=clock_mhz)
    if label is None:
        label = os.path.splitext(os.path.basename(path))[0]
    return build_report(run.result, label=label, source=path, peaks=peaks,
                        thread_names=run.thread_names)


def comparison_rows(reports: Sequence[TraceReport]) -> list[dict]:
    """Delta rows against the first report (the baseline).

    One dict per report with the headline metrics plus ``speedup``
    relative to the baseline — the five-GEMM journey's 1x → 19x chain
    as data instead of a figure.
    """

    if not reports:
        return []
    base = reports[0]
    rows = []
    for report in reports:
        rows.append({
            "label": report.label,
            "cycles": report.cycles,
            "speedup": base.cycles / report.cycles if report.cycles else 0.0,
            "parallel_efficiency": report.efficiency.parallel,
            "balance": report.efficiency.balance,
            "sync": report.efficiency.sync,
            "transfer": report.efficiency.transfer,
            "bandwidth_gbs": report.bandwidth_gbs,
            "gflops": report.gflops,
            "overlap_fraction": report.phases.overlap_fraction
            if report.phases else None,
            "primary_bottleneck": str(report.diagnosis.primary),
        })
    return rows
