"""Automatic bottleneck classification from profiling traces.

The paper's case studies walk through the reasoning "high spinning →
serialization", "low bandwidth + stalls → memory-bound", "phased
bandwidth/compute → load/compute alternation" by eye.  This module
encodes the same reasoning so a run can be classified programmatically —
the paper's §VII future-work direction of feeding profiles back into
the compiler starts exactly here.

:func:`classify` only reads numbers: :func:`repro.report.build_report`
measures each of them once and hands them over, and :func:`diagnose`
is the report's verdict for one run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from ..paraver.analysis import PhaseStats
from ..profiling.config import ThreadState

__all__ = ["Bottleneck", "Diagnosis", "classify", "diagnose"]

#: spinning + critical share of thread time above which the run serializes
SYNC_THRESHOLD = 0.10
#: stall cycles per thread cycle above which the run is memory bound
STALL_THRESHOLD = 0.20
#: load balance below which (or temporal overlap below this minus 0.25)
#: threads idle while others work
BALANCE_THRESHOLD = 0.75
#: phase overlap below which distinct load/compute phases alternate
OVERLAP_LOW = 0.15


class Bottleneck(enum.Enum):
    SYNCHRONIZATION = "synchronization"   # spinning/critical dominate
    MEMORY_LATENCY = "memory-latency"     # stalls high, bandwidth low
    MEMORY_BANDWIDTH = "memory-bandwidth"  # stalls high, bandwidth near peak
    LOAD_IMBALANCE = "load-imbalance"     # threads idle while others work
    PHASED_EXECUTION = "phased-execution"  # alternating load/compute phases
    COMPUTE_BOUND = "compute-bound"       # none of the above

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass
class Diagnosis:
    """Classification plus the evidence behind it."""

    primary: Bottleneck
    findings: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)

    def __str__(self) -> str:
        lines = [f"primary bottleneck: {self.primary}"]
        lines += [f"  - {finding}" for finding in self.findings]
        return "\n".join(lines)


def classify(*, fractions: dict[ThreadState, float], stall_fraction: float,
             balance: float, temporal_overlap: float, bandwidth_gbs: float,
             gflops: float, missing: list[str], phases: Optional[PhaseStats],
             causes: Optional[dict[str, int]], thread_cycles: int,
             peak_bandwidth_gbs: Optional[float]) -> Diagnosis:
    """Classify a run from its whole-run figures.

    ``phases`` is ``None`` when a counter in ``missing`` was not
    recorded; ``causes`` is the cycle-accounting total per cause name
    (``None`` without attribution) over ``thread_cycles`` =
    run length × threads.
    """

    findings: list[str] = []
    sync = fractions[ThreadState.SPINNING] + fractions[ThreadState.CRITICAL]
    metrics: dict[str, float] = {
        "sync_fraction": sync,
        "spin_fraction": fractions[ThreadState.SPINNING],
        "stall_fraction": stall_fraction,
        "load_balance": balance,
        "temporal_overlap": temporal_overlap,
        "bandwidth_gbs": bandwidth_gbs,
        "gflops": gflops,
        # a missing counter leaves no window both loading and computing
        "phase_overlap": phases.overlap_fraction if phases else 0.0,
    }

    # The profiling config may omit counters (§IV-B.2 event selection);
    # degrade to the findings the remaining data supports.
    if missing:
        findings.append(
            f"counters not recorded: {', '.join(missing)} — phase and "
            "bandwidth findings skipped")

    # When the run carried cycle accounting (SimConfig.attribution), use
    # the measured per-cause totals as direct evidence instead of
    # leaving the classifier to infer causes from aggregate counters.
    if causes is not None:
        per_cycle = max(1, thread_cycles)
        lost = {name: value for name, value in causes.items()
                if name != "useful" and value > 0}
        for name, value in lost.items():
            metrics[f"attr_{name}"] = value / per_cycle
        if lost:
            ranked = sorted(lost.items(), key=lambda kv: -kv[1])
            top = ", ".join(f"{name} ({100 * value / per_cycle:.1f}%)"
                            for name, value in ranked[:3])
            findings.append(f"cycle accounting: lost cycles led by {top}")

    if sync > SYNC_THRESHOLD:
        findings.append(
            f"{100 * sync:.1f}% of thread time in critical sections or "
            f"spinning on locks — the code serializes (Amdahl)")
        return Diagnosis(Bottleneck.SYNCHRONIZATION, findings, metrics)

    if balance < BALANCE_THRESHOLD \
            or temporal_overlap < BALANCE_THRESHOLD - 0.25:
        findings.append(
            f"load balance {balance:.2f} / temporal overlap "
            f"{temporal_overlap:.2f}: threads idle while others work "
            "(e.g. staggered thread starts on a small workload)")
        return Diagnosis(Bottleneck.LOAD_IMBALANCE, findings, metrics)

    if stall_fraction > STALL_THRESHOLD:
        if peak_bandwidth_gbs and bandwidth_gbs > 0.5 * peak_bandwidth_gbs:
            findings.append(
                f"stall fraction {100 * stall_fraction:.1f}% with bandwidth "
                f"{bandwidth_gbs:.2f} GB/s near the platform peak — "
                "bandwidth bound")
            return Diagnosis(Bottleneck.MEMORY_BANDWIDTH, findings, metrics)
        findings.append(
            f"stall fraction {100 * stall_fraction:.1f}% with bandwidth "
            f"{bandwidth_gbs:.2f} GB/s well below peak — latency bound; "
            "consider wider (vector) accesses or preloading into local "
            "memory")
        return Diagnosis(Bottleneck.MEMORY_LATENCY, findings, metrics)

    if phases is not None and phases.load_windows > 0 \
            and phases.compute_windows > 0 \
            and phases.overlap_fraction < OVERLAP_LOW:
        findings.append(
            "distinct load and compute phases with almost no overlap — "
            "double buffering would overlap prefetch with compute")
        return Diagnosis(Bottleneck.PHASED_EXECUTION, findings, metrics)

    findings.append("no dominant stall/sync/imbalance signal: compute bound")
    return Diagnosis(Bottleneck.COMPUTE_BOUND, findings, metrics)


def diagnose(result, peak_bandwidth_gbs: Optional[float] = None
             ) -> Diagnosis:
    """Classify the dominant bottleneck of a simulated run.

    ``result`` is anything :func:`~repro.report.build_report` takes (a
    live or reconstructed :class:`~repro.sim.executor.SimResult`); the
    verdict is the one its report carries.
    """

    from ..report.model import PlatformPeaks, build_report

    peaks = PlatformPeaks(bandwidth_gbs=peak_bandwidth_gbs)
    return build_report(result, peaks=peaks).diagnosis
