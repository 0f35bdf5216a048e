"""JSON serialization of trace reports (machine-readable exporter).

``report_to_dict`` flattens a :class:`~repro.report.model.TraceReport`
into plain JSON-safe types; ``reports_to_json`` wraps one-or-many
reports plus the comparison rows into a single document, the payload
the benchmarks attach next to their text tables and the CLI's
``--json`` flag writes.
"""

from __future__ import annotations

import json
from typing import Sequence

from .model import AttributionSummary, TraceReport, comparison_rows

__all__ = ["REPORT_SCHEMA", "report_to_dict", "reports_to_json",
           "write_json", "attribution_to_dict", "attribution_from_dict"]

REPORT_SCHEMA = "repro.report/1"


def attribution_to_dict(summary: AttributionSummary) -> dict:
    """The ``attribution`` object of a ``repro.report/1`` report."""

    return {
        "causes": dict(summary.causes),
        "regions": [dict(row, causes=dict(row["causes"]))
                    for row in summary.regions],
        "per_thread": [list(row) for row in summary.per_thread],
        "total_thread_cycles": summary.total_thread_cycles,
        "invariant_ok": summary.invariant_ok,
        "violations": [list(v) for v in summary.violations],
    }


def attribution_from_dict(data: dict) -> AttributionSummary:
    """Inverse of :func:`attribution_to_dict` (also for parsed JSON)."""

    return AttributionSummary(
        causes={str(k): int(v) for k, v in data["causes"].items()},
        regions=list(data.get("regions", [])),
        per_thread=[list(row) for row in data.get("per_thread", [])],
        total_thread_cycles=int(data["total_thread_cycles"]),
        invariant_ok=bool(data["invariant_ok"]),
        violations=[tuple(v) for v in data.get("violations", [])])


def report_to_dict(report: TraceReport) -> dict:
    phases = None
    if report.phases is not None:
        phases = {
            "load_windows": report.phases.load_windows,
            "compute_windows": report.phases.compute_windows,
            "overlap_windows": report.phases.overlap_windows,
            "idle_windows": report.phases.idle_windows,
            "overlap_fraction": report.phases.overlap_fraction,
        }
    return {
        "label": report.label,
        "source": report.source,
        "cycles": report.cycles,
        "clock_mhz": report.clock_mhz,
        "seconds": report.seconds,
        "num_threads": report.num_threads,
        "sampling_period": report.sampling_period,
        "state_fractions": {state.name.lower(): value for state, value
                            in report.state_fractions.items()},
        "thread_states": [
            {state.name.lower(): cycles for state, cycles in totals.items()}
            for totals in report.thread_states],
        "efficiency": report.efficiency.as_dict(),
        "stall_fraction": report.stall_fraction,
        "phases": phases,
        "missing_counters": report.missing_counters,
        "bandwidth": {
            "average_gbs": report.bandwidth_gbs,
            "peak_window_gbs": report.peak_window_bandwidth_gbs,
            "platform_peak_gbs": report.peaks.bandwidth_gbs,
            "peak_fraction": report.bandwidth_peak_fraction,
            "series_gbs": [float(v) for v in report.bandwidth_series],
        },
        "compute": {
            "average_gflops": report.gflops,
            "peak_window_gflops": report.peak_window_gflops,
            "platform_peak_gflops": report.peaks.gflops,
            "peak_fraction": report.gflops_peak_fraction,
            "series_gflops": [float(v) for v in report.gflops_series],
        },
        "diagnosis": {
            "primary": str(report.diagnosis.primary),
            "findings": list(report.diagnosis.findings),
            "metrics": {k: float(v) for k, v
                        in report.diagnosis.metrics.items()},
        },
        "thread_names": list(report.thread_names),
        "attribution": None if report.attribution is None
        else attribution_to_dict(report.attribution),
    }


def reports_to_json(reports: Sequence[TraceReport], indent: int = 2) -> str:
    payload = {
        "schema": REPORT_SCHEMA,
        "reports": [report_to_dict(r) for r in reports],
        "comparison": comparison_rows(reports) if len(reports) > 1 else [],
    }
    return json.dumps(payload, indent=indent)


def write_json(reports: Sequence[TraceReport], path: str) -> None:
    with open(path, "w") as out:
        out.write(reports_to_json(reports) + "\n")
