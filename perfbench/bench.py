#!/usr/bin/env python3
"""Benchmark of the mini-C source -> simulation -> Paraver trace -> report toolchain.

One invocation measures one workload for a fixed time.  The load is a
closed loop with one client: every repetition ("rep") runs in a fresh
single-threaded child process, and the next rep starts only after the
previous child has exited.  Every job's output is checked — numpy
oracles, the attribution invariant, and simulated cycles and ``.prv``
SHA-256 digests pinned in ``pins.json`` — in traced reps too, which
shows the layer hooks do not change what the program computes.

    python3 perfbench/bench.py --workload gemm_journey --seed 0 --seconds 30 --trace 0
    python3 perfbench/bench.py --compare BASE CHANGE

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced reps and reports the per-layer ledger: self time of
each toolchain layer, measured by wrapping the layer's public callables
from this file (never by editing the program), plus the program's own
telemetry counters.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; every run also writes a ``repro.bench/1`` document to
``--out``.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import functools
import glob
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PINS_PATH = os.path.join(HERE, "pins.json")
RESULTS_DIR = os.path.join(HERE, "results")
SCHEMA = "repro.bench/1"

#: one invocation, input traces and reps included, starts no rep that
#: would end later than this many seconds, and kills one that does
DEADLINE_S = 170.0

#: seconds the reference work (two calls of :func:`reference_work`)
#: takes on the quiet 2-vCPU development host; times are reported scaled
#: to this speed (see :func:`scale_to_reference`)
REFERENCE_S = 0.09

GEMM_VERSIONS = ("naive", "no_critical", "vectorized", "blocked",
                 "double_buffered")
GEMM_THREADS = 8
PI_THREADS = 8
PI_TOLERANCE = 1e-5

#: problem size per workload, (full, --smoke): GEMM DIM, or π iterations
SIZES = {
    "gemm_journey": (48, 16),
    "gemm_attribution": (32, 16),
    "pi_paper": (1_000_000, 6_400),
    "trace_analysis": (64, 16),
}

#: job ids per workload, in the order a rep runs them
JOBS = {
    "gemm_journey": GEMM_VERSIONS + ("report",),
    "gemm_attribution": GEMM_VERSIONS,
    "pi_paper": ("pi",),
    "trace_analysis": GEMM_VERSIONS + ("compare",),
}

#: end-to-end metric -> unit; measured on untraced reps only.  Both
#: times are host seconds scaled to the reference speed.
END_TO_END = {
    "wall_s": "s",          # one rep's jobs, checks excluded
    "setup_s": "s",         # child start to ready: interpreter, imports, inputs
    "peak_rss_mb": "MB",    # child ru_maxrss
}

#: layer self-time metrics (ms per traced rep): metric -> (end-to-end
#: metrics it should move, workloads it does most work on, workloads it
#: should do little or nothing on) — the prediction a change to that
#: layer is checked against.
_SIM = ("gemm_journey", "gemm_attribution", "pi_paper")
LAYERS = {
    "frontend.ms": (("wall_s",), _SIM, ("trace_analysis",)),
    "hls.ms": (("wall_s",), _SIM, ("trace_analysis",)),
    "sim.nest_driver.ms": (("wall_s",), ("gemm_journey",),
                           ("pi_paper", "gemm_attribution", "trace_analysis")),
    "sim.nest_prepass.ms": (("wall_s",), ("gemm_journey",),
                            ("pi_paper", "gemm_attribution",
                             "trace_analysis")),
    "sim.chunk.ms": (("wall_s",), ("gemm_attribution",),
                     ("gemm_journey", "pi_paper", "trace_analysis")),
    "sim.value_kernel.ms": (("wall_s",), ("gemm_attribution", "gemm_journey"),
                            ("pi_paper", "trace_analysis")),
    "sim.interp.ms": (("wall_s",), ("pi_paper",),
                      ("gemm_journey", "trace_analysis")),
    "sim.engine.ms": (("wall_s",), ("pi_paper", "gemm_attribution"),
                      ("trace_analysis",)),
    "sim.codegen.ms": (("wall_s",), _SIM, ("trace_analysis",)),
    "profiling.finalize.ms": (("wall_s", "peak_rss_mb"), ("gemm_journey",),
                              ("pi_paper", "trace_analysis")),
    "paraver.write.ms": (("wall_s",), ("gemm_journey", "gemm_attribution"),
                         ("trace_analysis",)),
    "paraver.reconstruct.ms": (("wall_s", "peak_rss_mb"),
                               ("trace_analysis", "gemm_attribution"),
                               ("gemm_journey", "pi_paper")),
    "report.build.ms": (("wall_s",), ("trace_analysis", "gemm_journey"),
                        ("pi_paper",)),
    "report.render.ms": (("wall_s",), ("trace_analysis", "gemm_journey"),
                         ("pi_paper",)),
    "bench.harness.ms": ((), (), ()),
}

#: how each layer is hooked: (layer, "module:attribute", how).  "span"
#: times every call and keeps a span (callables hit at most once per
#: job); "sum" only accumulates self time and a count; "fn:<layer>" also
#: times every later call of the returned object's ``.fn``;
#: "resumes:<layer>" also times every resume of the returned generator.
HOOKS = (
    ("frontend", "repro.core.program:parse_source", "span"),
    ("frontend", "repro.core.program:analyze_function", "span"),
    ("frontend", "repro.core.program:lower_to_kernel", "span"),
    ("hls", "repro.hls.compiler:HLSCompiler.compile", "span"),
    ("sim.engine", "repro.sim.executor:Simulation.run", "span"),
    ("sim.codegen", "repro.sim.executor:compile_segment", "fn:sim.interp"),
    ("sim.codegen", "repro.sim.executor:build_plan", "sum"),
    ("sim.codegen", "repro.sim.executor:build_nest_plan", "sum"),
    ("sim.codegen", "repro.sim.fastpath:compile_segment_vectorized",
     "fn:sim.value_kernel"),
    ("sim.nest_prepass", "repro.sim.executor:prepare_nest",
     "resumes:sim.nest_driver"),
    ("sim.chunk", "repro.sim.executor:run_fast_chunk", "sum"),
    ("profiling.finalize",
     "repro.profiling.recorder:ProfilingRecorder.finalize", "span"),
    ("paraver.write", "repro.paraver.format:write_trace", "span"),
    ("paraver.reconstruct", "repro.paraver.reconstruct:reconstruct_run",
     "span"),
    ("report.build", "repro.report.model:build_report", "span"),
    ("report.build", "repro.report.model:comparison_rows", "span"),
    ("report.render", "repro.report.html:render_html", "span"),
    ("report.render", "repro.report.serialize:reports_to_json", "span"),
)

#: telemetry counters the program keeps, reported as exact counts
COUNTERS = (
    "sim.cycles", "sim.events_fired", "sim.fastpath.batches",
    "sim.fastpath.fallbacks", "sim.fastpath.iters_vectorized",
    "sim.fastpath.nests_flattened", "sim.fastpath.entries_batched",
    "sim.fastpath.nest_fallbacks", "sim.dram.requests",
    "profiling.trace_bits", "paraver.records", "paraver.bytes",
)

#: per-layer metric -> unit; measured on traced reps only
PER_LAYER = {
    **{name: "ms" for name in LAYERS},
    **{name: "count" for name in COUNTERS},
    "sim.interp.calls": "count",
    "sim.nest_driver.resumes": "count",
    "sim.fastpath.chunk_hit_frac": "fraction",
    "sim.host_ns_per_cycle": "ns/cycle",
    "paraver.reconstruct.mb_per_s": "MB/s",
    "trace.overhead_pct": "%",
    "trace.coverage_pct": "%",
}


# ----------------------------------------------------------------------
# the layer ledger (traced reps)
# ----------------------------------------------------------------------
class Ledger:
    """Self time per layer, measured from outside the program.

    Layers nest: a layer's self time is its wall time minus the time of
    the hooked calls made inside it.  Calls hooked as "span" also keep a
    span tagged with the current job id; the others only accumulate.
    """

    def __init__(self) -> None:
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.spans: list[dict] = []
        self.job = ""
        self._stack: list[list] = []

    def enter(self, layer: str) -> None:
        self._stack.append([layer, time.perf_counter_ns(), 0])

    def leave(self, span: bool = False) -> None:
        end = time.perf_counter_ns()
        layer, start, inner = self._stack.pop()
        took = end - start
        self.self_ns[layer] = self.self_ns.get(layer, 0) + took - inner
        self.calls[layer] = self.calls.get(layer, 0) + 1
        if self._stack:
            self._stack[-1][2] += took
        if span:
            self.spans.append({
                "name": layer, "job": self.job, "start_ns": start,
                "end_ns": end,
                "parent": self._stack[-1][0] if self._stack else ""})

    def ms(self, layer: str) -> float:
        return self.self_ns.get(layer, 0) / 1e6


def _timed(ledger: Ledger, layer: str, fn, how: str):
    enter, leave = ledger.enter, ledger.leave
    span = how == "span"
    kind, _, inner = how.partition(":")

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            leave(span)
        if result is not None and kind == "fn":
            result.fn = _timed(ledger, inner, result.fn, "sum")
        elif result is not None and kind == "resumes":
            result = _resumes(ledger, inner, result)
        return result

    return timed


def _resumes(ledger: Ledger, layer: str, generator):
    """Re-yield ``generator``'s commands, timing each resume as ``layer``."""

    enter, leave = ledger.enter, ledger.leave
    while True:
        enter(layer)
        try:
            command = next(generator)
        except StopIteration:
            return
        finally:
            leave()
        yield command


def install_hooks(ledger: Ledger, hooks=HOOKS) -> list[str]:
    """Patch each hooked callable where its callers look it up.

    A hook whose target no longer exists is skipped with a warning: its
    metric reads 0 and its time falls into the caller's self time.
    Returns the targets that were skipped.
    """

    missing = []
    for layer, target, how in hooks:
        module_name, _, path = target.partition(":")
        owner_path, _, attr = path.rpartition(".")
        try:
            owner = importlib.import_module(module_name)
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            print(f"bench: warning: {target} not found; {layer} omits it "
                  "and its time falls into the caller", file=sys.stderr)
            missing.append(target)
            continue
        setattr(owner, attr, _timed(ledger, layer, original, how))
    return missing


# ----------------------------------------------------------------------
# workloads (run inside the child process)
# ----------------------------------------------------------------------
def _toolchain():
    """Import the toolchain from this checkout's ``src``.

    The jobs call every hooked callable through its module attribute
    (``fmt.write_trace``, not a name bound at import), so the hooks see
    each call.
    """

    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported repro from {repro.__file__}, "
                           f"not from {SRC}")
    from types import SimpleNamespace

    import repro.apps.gemm as gemm
    import repro.apps.pi as pi
    import repro.core.program as program
    import repro.paraver.format as fmt
    import repro.report.html as html
    import repro.report.model as model
    import repro.report.serialize as serialize
    from repro import telemetry
    from repro.sim.config import SimConfig
    return SimpleNamespace(gemm=gemm, pi=pi, program=program, fmt=fmt,
                           html=html, model=model, serialize=serialize,
                           telemetry=telemetry, SimConfig=SimConfig)


class CheckError(Exception):
    """A job's output differs from what it must be."""


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _gemm_inputs(seed: int, dim: int):
    import numpy as np
    rng = np.random.default_rng(seed)
    return (rng.random(dim * dim, dtype=np.float32),
            rng.random(dim * dim, dtype=np.float32))


def _run_gemm(tc, version: str, A, B, dim: int, attribution: bool,
              out_base: str):
    """Compile, simulate and write one GEMM version, as ``repro demo`` does."""

    import numpy as np
    C = np.zeros(dim * dim, dtype=np.float32)
    program = tc.program.Program(
        tc.gemm.gemm_source(version),
        defines=tc.gemm.gemm_defines(version, num_threads=GEMM_THREADS),
        sim_config=tc.SimConfig(thread_start_interval=50,
                                attribution=attribution),
        compile_cache=False)
    sim = program.run(A=A, B=B, C=C, DIM=dim).sim
    files = tc.fmt.write_trace(sim.trace, out_base, clock_mhz=sim.clock_mhz)
    return C, sim, files.prv


def _check_gemm(version: str, C, A, B, dim: int) -> None:
    """C against a numpy ``A @ B`` oracle.

    The paper-exact ``naive`` version keeps, per element, the partial
    sum of whichever thread stored last (Fig. 3), so each element must
    equal one thread's k-slice partial sum instead.
    """

    import numpy as np
    A2, B2 = A.reshape(dim, dim), B.reshape(dim, dim)
    if version == "naive":
        partials = np.stack([(A2[:, t::GEMM_THREADS] @ B2[t::GEMM_THREADS, :])
                             .ravel() for t in range(GEMM_THREADS)])
        close = np.abs(C[None, :] - partials) <= 1e-3 + 1e-3 * np.abs(partials)
        ok = bool(np.all(np.any(close, axis=0)))
    else:
        ok = bool(np.allclose(C, (A2 @ B2).ravel(), rtol=1e-3, atol=1e-3))
    if not ok:
        raise CheckError(f"{version}: C differs from the numpy oracle")


def _check_rendered(page: str, text: str) -> None:
    """The HTML page and the report JSON of the five GEMM versions."""

    if "<html" not in page.lower():
        raise CheckError("render_html returned no HTML page")
    got = [entry["label"] for entry in json.loads(text)["reports"]]
    if got != list(GEMM_VERSIONS):
        raise CheckError(f"report JSON holds {got}, expected "
                         f"{list(GEMM_VERSIONS)}")


class Workload:
    """Jobs of one rep: ``run(job)`` is timed, ``check(job, output)`` is not.

    ``check`` raises :class:`CheckError` on a wrong output and returns
    the job's simulated cycles and ``.prv`` digest for the pins.
    ``read`` lists the ``.prv`` files the rep parsed.
    """

    read: tuple | list = ()


class GemmJourney(Workload):
    """The five GEMM versions run as ``repro demo gemm --trace-dir --html``."""

    def __init__(self, tc, seed: int, dim: int, workdir: str):
        self.tc, self.dim, self.workdir = tc, dim, workdir
        self.A, self.B = _gemm_inputs(seed, dim)
        self.reports = []

    def run(self, job: str):
        tc = self.tc
        if job == "report":
            return (tc.html.render_html(self.reports, title="repro demo gemm"),
                    tc.serialize.reports_to_json(self.reports))
        C, sim, prv = _run_gemm(tc, job, self.A, self.B, self.dim, False,
                                os.path.join(self.workdir, job))
        self.reports.append(tc.model.build_report(sim, label=job))
        return C, sim.cycles, prv

    def check(self, job: str, out) -> dict:
        if job == "report":
            _check_rendered(*out)
            return {}
        C, cycles, prv = out
        _check_gemm(job, C, self.A, self.B, self.dim)
        return {"cycles": cycles, "prv_sha256": _sha256(prv)}


class GemmAttribution(Workload):
    """Five GEMM versions with cycle accounting, written and re-read.

    ``repro demo gemm --attribution`` followed by ``repro why --check``.
    """

    def __init__(self, tc, seed: int, dim: int, workdir: str):
        self.tc, self.dim, self.workdir = tc, dim, workdir
        self.A, self.B = _gemm_inputs(seed, dim)
        self.read = []

    def run(self, job: str):
        C, sim, prv = _run_gemm(self.tc, job, self.A, self.B, self.dim, True,
                                os.path.join(self.workdir, job))
        self.read.append(prv)
        return C, sim, prv, self.tc.model.report_from_prv(prv)

    def check(self, job: str, out) -> dict:
        C, sim, prv, report = out
        _check_gemm(job, C, self.A, self.B, self.dim)
        violations = sim.attribution.check(sim.cycles)
        if violations:
            raise CheckError(f"{job}: attribution invariant fails on "
                             f"(thread, accounted, cycles) {violations[:3]}")
        if report.trace.attribution != sim.attribution:
            raise CheckError(f"{job}: attribution read back from .prv "
                             "differs from the live table")
        if report.cycles != sim.cycles:
            raise CheckError(f"{job}: .prv reads {report.cycles} cycles, "
                             f"the run took {sim.cycles}")
        return {"cycles": sim.cycles, "prv_sha256": _sha256(prv)}


class PiPaper(Workload):
    """The π series (§V-D) at the paper's 1M-iteration point, written."""

    def __init__(self, tc, seed: int, steps: int, workdir: str):
        # the series has no input data: the seed changes nothing
        self.tc, self.steps, self.workdir = tc, steps, workdir

    def run(self, job: str):
        tc = self.tc
        program = tc.program.Program(
            tc.pi.PI_SOURCE, defines=tc.pi.pi_defines(),
            const_env={"threads": PI_THREADS}, compile_cache=False)
        outcome = program.run(steps=self.steps, threads=PI_THREADS)
        files = tc.fmt.write_trace(outcome.sim.trace,
                                   os.path.join(self.workdir, job),
                                   clock_mhz=outcome.sim.clock_mhz)
        return float(outcome.value), outcome.sim.cycles, files.prv

    def check(self, job: str, out) -> dict:
        value, cycles, prv = out
        if not abs(value - math.pi) <= PI_TOLERANCE:
            raise CheckError(f"pi({self.steps}) = {value!r}, off by more "
                             f"than {PI_TOLERANCE}")
        return {"cycles": cycles, "prv_sha256": _sha256(prv)}


class TraceAnalysis(Workload):
    """``repro compare``-style analysis of five saved GEMM traces.

    The traces are written once per invocation, before any timed rep,
    by the toolchain under test (:func:`prepare`).
    """

    def __init__(self, tc, seed: int, dim: int, workdir: str):
        self.tc = tc
        self.inputs = os.path.join(os.path.dirname(workdir), "inputs")
        self.reports = []
        self.read = []

    def run(self, job: str):
        model = self.tc.model
        if job == "compare":
            return (model.comparison_rows(self.reports),
                    self.tc.html.render_html(self.reports,
                                             title="Trace comparison"),
                    self.tc.serialize.reports_to_json(self.reports))
        path = os.path.join(self.inputs, job + ".prv")
        self.read.append(path)
        report = model.report_from_prv(path, label=job)
        self.reports.append(report)
        return report

    def check(self, job: str, out) -> dict:
        if job == "compare":
            rows, page, text = out
            if [row["cycles"] for row in rows] != \
                    [report.cycles for report in self.reports]:
                raise CheckError("comparison rows disagree with the reports")
            _check_rendered(page, text)
            return {}
        return {"cycles": out.cycles,
                "prv_sha256": _sha256(os.path.join(self.inputs,
                                                   job + ".prv"))}


WORKLOADS = {
    "gemm_journey": GemmJourney,
    "gemm_attribution": GemmAttribution,
    "pi_paper": PiPaper,
    "trace_analysis": TraceAnalysis,
}


def prepare(spec: dict) -> dict:
    """Untimed start of an invocation: import the toolchain (which also
    byte-compiles it) and write the inputs ``trace_analysis`` reads."""

    tc = _toolchain()
    if spec["workload"] == "trace_analysis":
        inputs = os.path.join(spec["workdir"], "inputs")
        os.makedirs(inputs, exist_ok=True)
        A, B = _gemm_inputs(spec["seed"], spec["size"])
        for version in GEMM_VERSIONS:
            _run_gemm(tc, version, A, B, spec["size"], False,
                      os.path.join(inputs, version))
    return {"ok": True}


def _error(exc: BaseException) -> str:
    traceback.print_exception(exc, file=sys.stderr)
    return f"{type(exc).__name__}: {exc}"


def _count(n: int):
    yield from range(n)


def reference_work() -> float:
    """Seconds a fixed mix of interpreter and numpy work takes right now.

    On a shared host, slow phases lasting seconds to minutes slow every
    job of a rep alike, and this work with them.  Timing it in the rep's
    own process, before and after the jobs, measures the host's speed
    for that rep.  It uses no toolchain code, and runs with the garbage
    collector off so the toolchain's heap cannot slow it.
    """

    import gc

    import numpy as np
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict[int, int] = {}
        for i in _count(250_000):
            key = i & 1023
            table[key] = table.get(key, 0) + (i * 7) % 13
        a = np.arange(4096, dtype=np.float64)
        for _ in range(400):
            a = np.sqrt(a * a + 1.0)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def _layer_metrics(ledger: Ledger, counters: dict, wall_s: float,
                   prv_bytes_read: int) -> dict:
    metrics = {name: ledger.ms(name[:-len(".ms")]) for name in LAYERS}
    metrics.update({name: float(counters.get(name, 0)) for name in COUNTERS})
    metrics["sim.interp.calls"] = float(ledger.calls.get("sim.interp", 0))
    metrics["sim.nest_driver.resumes"] = float(
        ledger.calls.get("sim.nest_driver", 0))
    batches = metrics["sim.fastpath.batches"]
    tried = batches + metrics["sim.fastpath.fallbacks"]
    metrics["sim.fastpath.chunk_hit_frac"] = batches / tried if tried else 0.0
    sim_ms = sum(value for name, value in metrics.items()
                 if name.startswith("sim.") and name.endswith(".ms"))
    cycles = metrics["sim.cycles"]
    metrics["sim.host_ns_per_cycle"] = sim_ms * 1e6 / cycles if cycles else 0.0
    reconstruct_s = metrics["paraver.reconstruct.ms"] / 1e3
    metrics["paraver.reconstruct.mb_per_s"] = (
        prv_bytes_read / 1e6 / reconstruct_s if reconstruct_s else 0.0)
    covered = sum(ledger.ms(name[:-len(".ms")]) for name in LAYERS
                  if name != "bench.harness.ms")
    metrics["trace.coverage_pct"] = 100.0 * covered / (wall_s * 1e3)
    return metrics


def run_rep(spec: dict) -> dict:
    """One rep in this process: set up, run the jobs, then check them.

    Never raises for a failing job: its error is recorded and the rep
    goes on.  Only the jobs are timed; the checks run afterwards.  The
    layer hooks and the toolchain's telemetry are on in traced reps only.
    """

    tc = _toolchain()
    traced = spec["traced"]
    ledger = Ledger()
    ledger.enter("bench.harness")
    workload = WORKLOADS[spec["workload"]](tc, spec["seed"], spec["size"],
                                           spec["workdir"])
    ledger.leave()
    if traced:
        install_hooks(ledger)
    registry = tc.telemetry.get_telemetry()
    ready = time.monotonic()
    reference_s = reference_work()

    outputs: dict[str, object] = {}
    errors: dict[str, str] = {}
    with registry.capture(enabled=traced):
        start = time.perf_counter()
        ledger.enter("bench.rep")
        for job in JOBS[spec["workload"]]:
            ledger.job = job
            try:
                outputs[job] = workload.run(job)
            except Exception as exc:  # a failed job is counted, not fatal
                errors[job] = _error(exc)
        ledger.leave(span=True)
        wall_s = time.perf_counter() - start
        counters = dict(registry.counters)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reference_s += reference_work()

    ledger.job = ""
    ledger.enter("bench.harness")
    jobs = []
    for job in JOBS[spec["workload"]]:
        record = {"id": job, "ok": False, "error": errors.get(job)}
        if job in outputs:
            try:
                record.update(workload.check(job, outputs[job]))
                record["ok"] = True
            except Exception as exc:
                record["error"] = _error(exc)
        jobs.append(record)
    prv_bytes_read = sum(os.path.getsize(path) for path in workload.read)
    ledger.leave()

    rep = {"traced": traced, "ready_monotonic": ready,
           "host_wall_s": wall_s, "reference_s": reference_s,
           "peak_rss_mb": peak_rss_mb, "jobs": jobs}
    if traced:
        rep["layers"] = _layer_metrics(ledger, counters, wall_s,
                                       prv_bytes_read)
        rep["spans"] = ledger.spans
    return rep


def child_main(spec: dict) -> int:
    result = prepare(spec) if spec["mode"] == "prepare" else run_rep(spec)
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# the parent: reps, pins, statistics
# ----------------------------------------------------------------------
def quartiles(values) -> tuple[float, float, float, int]:
    """(median, q1, q3, n) as ``statistics.quantiles(values, n=4)`` cuts."""

    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, len(values)


def load_pins(path: str = PINS_PATH) -> dict:
    with open(path) as handle:
        return json.load(handle)


def apply_pins(reps: list[dict], pins: dict) -> None:
    """Fail every job whose cycles or ``.prv`` digest differs from its pin."""

    for rep in reps:
        for job in rep["jobs"]:
            if not job["ok"] or "cycles" not in job:
                continue
            pin = pins.get(job["id"])
            if pin is None:
                job["ok"] = False
                job["error"] = "no pinned cycles/.prv digest for this job"
                continue
            for key in ("cycles", "prv_sha256"):
                if job[key] != pin[key]:
                    job["ok"] = False
                    job["error"] = (f"{key} {job[key]} differs from the "
                                    f"pinned {pin[key]}")
                    break


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
                # byte-compile once into the checkout, so set-up measures
                # imports, not recompiling every module on every start
                "PYTHONPYCACHEPREFIX": os.path.join(HERE, ".pycache")})
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(spec: dict, timeout: float) -> tuple[dict, float]:
    """Run one child to completion; returns (its result, spawn time).

    A child that crashes or overruns ``timeout`` is killed and waited
    for by ``subprocess.run``, and its result carries ``"error"``.
    """

    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child",
             json.dumps(spec)],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}, spawned
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        return {"error": f"child exited with code {proc.returncode}"}, spawned
    return result, spawned


def scale_to_reference(rep: dict) -> None:
    """Set the rep's ``wall_s``/``setup_s``: host seconds at reference speed.

    Each host time is multiplied by ``REFERENCE_S`` over the reference
    work's time in that rep, so a slow phase of a shared host, which
    slows both alike, cancels out.  The raw host seconds stay in the rep
    as ``host_wall_s``/``host_setup_s``.
    """

    scale = REFERENCE_S / rep["reference_s"]
    rep["wall_s"] = rep["host_wall_s"] * scale
    rep["setup_s"] = rep["host_setup_s"] * scale


def _failed_rep(workload: str, traced: bool, error: str) -> dict:
    return {"traced": traced, "error": error,
            "jobs": [{"id": job, "ok": False, "error": error}
                     for job in JOBS[workload]]}


def run_invocation(workload: str, seed: int, seconds: float, trace: bool,
                   smoke: bool, workdir: str) -> list[dict]:
    """Prepare, then run reps until ``seconds`` are spent.

    With ``trace`` the reps alternate untraced and traced, so the run
    measures the tracing overhead on the same inputs.  A child that
    fails outright becomes a rep whose jobs all failed.
    """

    size = SIZES[workload][1 if smoke else 0]
    spec = {"workload": workload, "seed": seed, "size": size,
            "workdir": workdir, "mode": "prepare", "traced": False}
    start = time.monotonic()
    result, _ = spawn(spec, DEADLINE_S)
    if "error" in result:
        return [_failed_rep(workload, False, f"prepare: {result['error']}")]
    reps: list[dict] = []
    took: list[float] = []
    spec["mode"] = "rep"
    while True:
        spec["traced"] = trace and len(reps) % 2 == 1
        spec["workdir"] = os.path.join(workdir, f"rep{len(reps)}")
        os.makedirs(spec["workdir"])
        remaining = DEADLINE_S - (time.monotonic() - start)
        result, spawned = spawn(spec, remaining)
        shutil.rmtree(spec["workdir"], ignore_errors=True)
        took.append(time.monotonic() - spawned)
        if "error" in result:
            result = _failed_rep(workload, spec["traced"], result["error"])
        else:
            result["host_setup_s"] = result.pop("ready_monotonic") - spawned
            scale_to_reference(result)
        reps.append(result)
        # stop before a rep as long as the last two would overrun
        next_end = time.monotonic() - start + max(took[-2:])
        if next_end > DEADLINE_S or (len(reps) >= (2 if trace else 1)
                                     and next_end > seconds):
            break
    return reps


def summarize(reps: list[dict], trace: bool) -> dict:
    """Metric name -> {value (median), unit, q1, q3, n} over the reps."""

    plain = [rep for rep in reps if not rep["traced"] and "error" not in rep]
    traced = [rep for rep in reps if rep["traced"] and "error" not in rep]
    metrics = {}

    def put(name, unit, values):
        if values:
            median, q1, q3, n = quartiles(values)
            metrics[name] = {"value": median, "unit": unit, "q1": q1,
                             "q3": q3, "n": n}

    if not trace:
        for name, unit in END_TO_END.items():
            put(name, unit, [rep[name] for rep in plain])
        return metrics
    for name, unit in PER_LAYER.items():
        if name != "trace.overhead_pct":
            put(name, unit, [rep["layers"][name] for rep in traced])
    if plain and traced:
        base = quartiles([rep["wall_s"] for rep in plain])[0]
        put("trace.overhead_pct", "%",
            [100.0 * (rep["wall_s"] / base - 1.0) for rep in traced])
    return metrics


def _chrome_trace(reps: list[dict]) -> dict:
    events = []
    for index, rep in enumerate(reps):
        spans = rep.get("spans") or []
        origin = min((span["start_ns"] for span in spans), default=0)
        for span in spans:
            events.append({
                "name": span["name"], "cat": "bench", "ph": "X", "pid": 1,
                "tid": index, "ts": (span["start_ns"] - origin) / 1e3,
                "dur": (span["end_ns"] - span["start_ns"]) / 1e3,
                "args": {"job": span["job"], "parent": span["parent"]}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _print_metrics(metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']:9s} "
              f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n={m['n']}")
    counts = {m["n"] for m in metrics.values()}
    if counts and max(counts) < 20:
        print(f"  (n={max(counts)}: fewer than 10 samples lie beyond any "
              "percentile above the median, so no tail percentile is "
              "reported)")


def measure(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"bench: no toolchain at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    mode = "smoke" if args.smoke else "full"
    workdir = os.path.join(HERE, ".work", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        reps = run_invocation(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.smoke, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another invocation's work dir is still there

    if args.write_pins:
        observed = {job["id"]: {"cycles": job["cycles"],
                                "prv_sha256": job["prv_sha256"]}
                    for rep in reps for job in rep["jobs"]
                    if job["ok"] and "cycles" in job}
        pins = load_pins() if os.path.exists(PINS_PATH) else {}
        pins.setdefault(mode, {})[args.workload] = observed
        with open(PINS_PATH, "w") as handle:
            json.dump(pins, handle, indent=2, sort_keys=True)
            handle.write("\n")
    apply_pins(reps, load_pins().get(mode, {}).get(args.workload, {}))

    jobs = [job for rep in reps for job in rep["jobs"]]
    attempted = len(jobs)
    failed = sum(not job["ok"] for job in jobs)
    metrics = summarize(reps, bool(args.trace))
    wanted = PER_LAYER if args.trace else END_TO_END
    correct = failed == 0 and set(metrics) == set(wanted)
    for job in jobs:
        if not job["ok"]:
            print(f"bench: job {job['id']} failed: {job['error']}",
                  file=sys.stderr)

    out = args.out or os.path.join(
        RESULTS_DIR, f"{args.workload}-trace{args.trace}-seed{args.seed}"
        f"{'-smoke' if args.smoke else ''}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    doc = {"schema": SCHEMA, "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace, "mode": mode,
           "host": {"python": platform.python_version(),
                    "platform": platform.platform(),
                    "cpus": os.cpu_count()},
           "correct": correct, "attempted": attempted, "failed": failed,
           "metrics": metrics,
           "reps": [{key: value for key, value in rep.items()
                     if key != "spans"} for rep in reps]}
    with open(out, "w") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")
    if args.trace:
        with open(os.path.splitext(out)[0] + ".trace.json", "w") as handle:
            json.dump(_chrome_trace(reps), handle)

    print(f"{args.workload} seed={args.seed} {mode} trace={args.trace}: "
          f"{len(reps)} reps, {attempted - failed}/{attempted} jobs ok")
    _print_metrics(metrics)
    measured = [rep for rep in reps if "error" not in rep]
    if measured:
        print("  unscaled host medians: wall "
              f"{quartiles([r['host_wall_s'] for r in measured])[0]:.4g} s, "
              f"setup {quartiles([r['host_setup_s'] for r in measured])[0]:.4g}"
              " s, reference work "
              f"{quartiles([r['reference_s'] for r in measured])[0]:.4g} s "
              f"(reference speed: {REFERENCE_S} s)")
    print(f"wrote {out}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": m["value"],
                                         "unit": m["unit"]}
                                  for name, m in metrics.items()}}))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def _load_side(path: str) -> list[dict]:
    paths = sorted(glob.glob(os.path.join(path, "*.json"))) \
        if os.path.isdir(path) else [path]
    docs = []
    for item in paths:
        with open(item) as handle:
            try:
                doc = json.load(handle)
            except ValueError:
                continue
        if isinstance(doc, dict) and doc.get("schema") == SCHEMA:
            docs.append(doc)
    if not docs:
        raise SystemExit(f"bench: no {SCHEMA} results in {path!r}")
    return docs


def verdict(base: list[float], change: list[float], bound, better: str
            ) -> str:
    """better / worse / unchanged / unresolved for one metric.

    ``worse`` means the change's median is worse than the base's by more
    than ``bound`` (a share of the base median).  ``unresolved`` means
    either side's quartile spread is wider than the bound, unless every
    change value beats every base value.  ``better`` means the median
    improved by more than the base's own quartile spread.  A metric
    without a bound gets ``-``.
    """

    if bound is None:
        return "-"
    sign = 1.0 if better == "lower" else -1.0
    b_med, b_q1, b_q3, _ = quartiles(base)
    c_med, c_q1, c_q3, _ = quartiles(change)
    if all(sign * (c - b) < 0 for c in change for b in base):
        return "better"
    spread = max((b_q3 - b_q1) / b_med if b_med else 0.0,
                 (c_q3 - c_q1) / c_med if c_med else 0.0)
    if spread > bound:
        return "unresolved"
    worse_by = sign * (c_med - b_med) / b_med if b_med else 0.0
    if worse_by > bound:
        return "worse"
    if -worse_by > ((b_q3 - b_q1) / b_med if b_med else 0.0) and worse_by:
        return "better"
    return "unchanged"


def compare(base_path: str, change_path: str, definition: dict) -> int:
    """One row per workload and metric; non-zero exit on a regression."""

    bounds = {m["name"]: (m["bound"], m["better"])
              for m in definition["end_to_end"]}
    sides = [_load_side(base_path), _load_side(change_path)]
    grouped: list[dict] = [{}, {}]
    for docs, groups in zip(sides, grouped):
        for doc in docs:
            entry = groups.setdefault(doc["workload"],
                                      {"values": {}, "attempted": 0,
                                       "failed": 0})
            entry["attempted"] += doc["attempted"]
            entry["failed"] += doc["failed"]
            for name, m in doc["metrics"].items():
                entry["values"].setdefault(name, []).append(m["value"])
    status = 0
    print(f"{'workload':18s} {'metric':30s} {'base median [q1, q3] n':>34s}  "
          f"{'change median [q1, q3] n':>34s} {'delta':>8s}  verdict")
    for workload in sorted(set(grouped[0]) & set(grouped[1])):
        base, change = grouped[0][workload], grouped[1][workload]
        for name in sorted(set(base["values"]) & set(change["values"])):
            b, c = base["values"][name], change["values"][name]
            bound, better = bounds.get(name, (None, "lower"))
            result = verdict(b, c, bound, better)
            b_med, b_q1, b_q3, b_n = quartiles(b)
            c_med, c_q1, c_q3, c_n = quartiles(c)
            delta = f"{100 * (c_med / b_med - 1):+.1f}%" if b_med else "-"
            print(f"{workload:18s} {name:30s} "
                  f"{b_med:10.4g} [{b_q1:.4g}, {b_q3:.4g}] {b_n:3d}  "
                  f"{c_med:10.4g} [{c_q1:.4g}, {c_q3:.4g}] {c_n:3d} "
                  f"{delta:>8s}  {result}")
            if result == "worse":
                status = 1
        b_frac = base["failed"] / max(1, base["attempted"])
        c_frac = change["failed"] / max(1, change["attempted"])
        print(f"{workload:18s} {'failed_frac':30s} {b_frac:10.4g}"
              f"{'':24s}  {c_frac:10.4g}{'':24s} "
              f"{'':>8s}  {'worse' if c_frac > b_frac else 'unchanged'}")
        if c_frac > b_frac:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the generated inputs (default 0)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure for this long; at least one rep, or "
                             "one untraced and one traced with --trace 1")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer ledger instead of the "
                             "end-to-end metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny problem sizes, for tests")
    parser.add_argument("--out", help="repro.bench/1 result path (default "
                                      "perfbench/results/<run>.json)")
    parser.add_argument("--write-pins", action="store_true",
                        help="record this run's cycles and .prv digests as "
                             "the pins in pins.json")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"),
                        help="compare two result files or directories")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(json.loads(args.child))
    if args.compare:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            return compare(args.compare[0], args.compare[1],
                           json.load(handle))
    if not args.workload:
        parser.error("--workload is required unless --compare is given")
    return measure(args)


if __name__ == "__main__":
    raise SystemExit(main())
