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

    result = execute_job(spec, keep_run=True, capture_telemetry=True)
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


#: GEMM DIM of the attribution-cost measurement
ATTRIBUTION_DIM = 32
#: filled by :func:`measure_attribution_overhead`; report() appends it
ATTRIBUTION_OVERHEAD_PCT: list[float] = []
#: filled by :func:`measure_attribution_overhead`: GEMM version ->
#: best simulation CPU seconds with attribution (off, on)
ATTRIBUTION_CPU_S: dict[str, tuple[float, float]] = {}


def measure_attribution_overhead(dim: int = ATTRIBUTION_DIM,
                                 repeats: int = 7) -> float:
    """CPU-time overhead (%) of cycle accounting over the five GEMMs.

    Simulates each GEMM version at ``dim`` with ``SimConfig.attribution``
    off and on.  Compile stays outside the timed region: one untimed run
    per setting compiles the design and generates its segment kernels and nest drivers.  Each timed run is
    the simulation alone, measured in process CPU time, alternating off
    and on so host drift hits both; the best of ``repeats`` counts.
    The per-version pairs land in :data:`ATTRIBUTION_CPU_S`, and the
    five-version total's overhead is published as the
    ``sim.attribution.overhead_pct`` telemetry gauge — the software
    analogue of the paper's §V-B hardware-overhead numbers.
    """

    import gc
    import time

    import numpy as np

    from repro import telemetry
    from repro.apps.gemm import GEMM_VERSIONS, gemm_defines, gemm_source
    from repro.core.program import Program
    from repro.sim.config import SimConfig

    rng = np.random.default_rng(42)
    A = rng.random(dim * dim, dtype=np.float32)
    B = rng.random(dim * dim, dtype=np.float32)

    def simulate(program: Program) -> float:
        a, b = A.copy(), B.copy()
        c = np.zeros(dim * dim, dtype=np.float32)
        gc.collect()
        start = time.process_time()
        program.run(A=a, B=b, C=c, DIM=dim)
        return time.process_time() - start

    ATTRIBUTION_CPU_S.clear()
    for version in GEMM_VERSIONS:
        programs = [
            Program(gemm_source(version), defines=gemm_defines(version),
                    sim_config=SimConfig(thread_start_interval=50,
                                         attribution=attribution))
            for attribution in (False, True)]
        for program in programs:
            simulate(program)  # compile and generate code, untimed
        best = [float("inf")] * 2
        for _ in range(max(1, repeats)):
            for side, program in enumerate(programs):
                best[side] = min(best[side], simulate(program))
        ATTRIBUTION_CPU_S[version] = (best[0], best[1])
    base = sum(off for off, _on in ATTRIBUTION_CPU_S.values())
    with_attr = sum(on for _off, on in ATTRIBUTION_CPU_S.values())
    overhead = 0.0 if base <= 0 else 100.0 * (with_attr - base) / base
    telemetry.set_gauge("sim.attribution.overhead_pct", overhead)
    ATTRIBUTION_OVERHEAD_PCT.clear()
    ATTRIBUTION_OVERHEAD_PCT.append(overhead)
    return overhead


def attribution_cost_lines() -> list[str]:
    """The per-version on/off table of :data:`ATTRIBUTION_CPU_S`."""

    lines = [f"{'version':16s} {'off ms':>8s} {'on ms':>8s} {'on/off':>7s}"]
    rows = list(ATTRIBUTION_CPU_S.items())
    rows.append(("total", (sum(off for _v, (off, _on) in rows),
                           sum(on for _v, (_off, on) in rows))))
    for version, (off, on) in rows:
        ratio = on / off if off > 0 else float("nan")
        lines.append(f"{version:16s} {off * 1e3:8.1f} {on * 1e3:8.1f} "
                     f"{ratio:7.3f}")
    return lines


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
