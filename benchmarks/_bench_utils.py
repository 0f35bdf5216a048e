"""Shared helpers for the experiment-reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper's
evaluation (see DESIGN.md §4 for the index).  Heavy simulations are
cached at session scope so the figure benches that share workloads
(Figs. 6-9 all use the GEMM runs) don't recompute them; each bench
still times its own characteristic computation through
``benchmark.pedantic``.

Each bench also appends its paper-vs-measured table to
``results/<experiment>.txt`` next to this file, which EXPERIMENTS.md
indexes.
"""

from __future__ import annotations

import os

from repro.apps import GemmRun, PiRun
from repro.apps.gemm import GEMM_VERSIONS
from repro.hls.cache import CompileCache
from repro.sweep import JobSpec, execute_job
from repro.sweep.spec import PI_DEFAULT_START_INTERVAL, PI_DEFAULT_STEPS

#: DIM used for the GEMM experiments (the paper uses 512; DESIGN.md §2
#: explains the scaling and the matching DRAM geometry).
GEMM_DIM = 64
#: the paper's 1M/4M/10M-iteration π runs and their GFLOP/s
PI_SWEEP = PI_DEFAULT_STEPS
PI_PAPER_POINTS = {1_000_000: ("1M", 0.146), 4_000_000: ("4M", 0.556),
                   10_000_000: ("10M", 1.507)}
PI_START_INTERVAL = PI_DEFAULT_START_INTERVAL

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

_GEMM_CACHE: dict[str, GemmRun] = {}
_PI_CACHE: dict[int, PiRun] = {}

#: shared compile cache for all bench runs (memory + the default
#: on-disk directory, so repeated bench sessions skip the HLS flow)
_COMPILE_CACHE = CompileCache()

#: run key -> per-job ``repro.telemetry/1`` snapshot captured around
#: the run (per-phase wall ms + counters); report() attaches these so
#: the benchmark trajectory gains per-phase toolchain breakdowns.
TELEMETRY_SNAPSHOTS: dict[str, dict] = {}


def _execute_instrumented(key: str, spec: JobSpec):
    """Run one sweep job with telemetry captured; raise on failure.

    Telemetry measures wall time of the compile→simulate pipeline only —
    simulated cycle counts are bit-identical with it on or off, so the
    cached runs every bench table is built from are unperturbed.  The
    job runs inside an isolated registry (``Telemetry.capture``), so
    the per-run snapshot on ``result.telemetry`` holds exactly this
    run's spans and counters, not the session's accumulation.
    """

    result = execute_job(spec, cache=_COMPILE_CACHE, keep_run=True,
                         capture_telemetry=True)
    if result.status != "ok":
        raise RuntimeError(f"bench job {result.job_id} failed: "
                           f"{result.error}\n{result.traceback or ''}")
    snap = dict(result.telemetry or {})
    snap["job"] = key
    TELEMETRY_SNAPSHOTS[key] = snap
    return result.run


def gemm_run_cached(version: str) -> GemmRun:
    run = _GEMM_CACHE.get(version)
    if run is None:
        spec = JobSpec(app="gemm", version=version, dim=GEMM_DIM)
        run = _execute_instrumented(f"gemm:{version}", spec)
        _GEMM_CACHE[version] = run
    return run


def pi_run_cached(steps: int) -> PiRun:
    run = _PI_CACHE.get(steps)
    if run is None:
        spec = JobSpec(app="pi", steps=steps,
                       start_interval=PI_START_INTERVAL)
        run = _execute_instrumented(f"pi:{steps}", spec)
        _PI_CACHE[steps] = run
    return run


#: filled by :func:`measure_attribution_overhead`; report() appends it
ATTRIBUTION_OVERHEAD_PCT: list[float] = []


def measure_attribution_overhead(version: str = "blocked",
                                 dim: int = GEMM_DIM,
                                 repeats: int = 3) -> float:
    """Wall-time overhead (%) of cycle accounting on one GEMM run.

    Times the identical simulation with ``SimConfig.attribution`` off
    and on (best of ``repeats``, compile served from the shared cache so
    only the simulate+record phase differs) and publishes the delta as
    the ``sim.attribution.overhead_pct`` telemetry gauge — the software
    analogue of the paper's §V-B hardware-overhead numbers.
    """

    import time

    from repro import telemetry
    from repro.apps import run_gemm

    def best_wall(attribution: bool) -> float:
        best = float("inf")
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            run_gemm(version, dim=dim, compile_cache=_COMPILE_CACHE,
                     attribution=attribution)
            best = min(best, time.perf_counter() - start)
        return best

    run_gemm(version, dim=dim, compile_cache=_COMPILE_CACHE)  # warm cache
    base = best_wall(False)
    with_attr = best_wall(True)
    overhead = 0.0 if base <= 0 else 100.0 * (with_attr - base) / base
    telemetry.set_gauge("sim.attribution.overhead_pct", overhead)
    ATTRIBUTION_OVERHEAD_PCT.clear()
    ATTRIBUTION_OVERHEAD_PCT.append(overhead)
    return overhead


def telemetry_lines() -> list[str]:
    """Per-phase toolchain breakdown lines for all instrumented runs."""

    if not TELEMETRY_SNAPSHOTS and not ATTRIBUTION_OVERHEAD_PCT:
        return []
    if not TELEMETRY_SNAPSHOTS:
        return ["", "sim.attribution.overhead_pct = "
                    f"{ATTRIBUTION_OVERHEAD_PCT[0]:.1f}%"]
    lines = ["", "toolchain telemetry (wall ms per phase, from --telemetry "
                 "instrumentation)"]
    for key in sorted(TELEMETRY_SNAPSHOTS):
        snapshot = TELEMETRY_SNAPSHOTS[key]
        phases = snapshot.get("phases_ms", {})
        breakdown = "  ".join(f"{name}={ms:.1f}"
                              for name, ms in sorted(phases.items()))
        cps = snapshot.get("gauges", {}).get("sim.cycles_per_sec")
        throughput = f"  sim-throughput={cps:,.0f} cyc/s" if cps else ""
        lines.append(f"  {key:18s} {breakdown}{throughput}")
    if ATTRIBUTION_OVERHEAD_PCT:
        lines.append("  sim.attribution.overhead_pct = "
                     f"{ATTRIBUTION_OVERHEAD_PCT[0]:.1f}%")
    return lines


def report(experiment: str, lines: list[str]) -> None:
    """Print the experiment table and persist it under results/.

    Appends the toolchain-telemetry per-phase breakdown of every run
    instrumented so far, so each results file records not only what the
    simulated hardware did but what the toolchain spent producing it.
    Next to the text table it writes ``<experiment>.report.json`` — the
    full :mod:`repro.report` analysis (efficiency hierarchy, state and
    phase attribution, diagnosis) of every cached run the experiment
    drew from, so the benchmark trajectory carries machine-readable
    performance reports.
    """

    text = "\n".join(list(lines) + telemetry_lines())
    print(f"\n{text}")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{experiment}.txt"), "w") as out:
        out.write(text + "\n")
    _write_report_json(experiment)
    _write_trace_json(experiment)


def _write_trace_json(experiment: str) -> None:
    """Merged Chrome-trace timeline of every instrumented run so far."""

    from repro.telemetry import write_merged_trace

    if not TELEMETRY_SNAPSHOTS:
        return
    path = os.path.join(RESULTS_DIR, f"{experiment}.trace.json")
    write_merged_trace(path,
                       [TELEMETRY_SNAPSHOTS[key]
                        for key in sorted(TELEMETRY_SNAPSHOTS)],
                       name=experiment)


def _write_report_json(experiment: str) -> None:
    from repro.report import reports_to_json

    reports = [run.report() for _, run in sorted(_GEMM_CACHE.items())]
    reports += [run.report() for _, run in sorted(_PI_CACHE.items())]
    if not reports:
        return
    path = os.path.join(RESULTS_DIR, f"{experiment}.report.json")
    with open(path, "w") as out:
        out.write(reports_to_json(reports) + "\n")
