"""Command-line interface: ``python -m repro <command>``.

Mirrors how a user of the paper's flow would drive it:

* ``compile``  — run the HLS flow on a mini-C file and print the compile
  report (loops/II, stages, area, profiling overhead);
* ``run``      — compile and simulate with synthetic arguments, print
  the run summary and bottleneck diagnosis;
* ``trace``    — like ``run`` but also write the Paraver .prv/.pcf/.row
  trace for visualization;
* ``inspect``  — summarize an existing .prv trace (state histogram and
  event totals);
* ``analyze``  — full trace-native analysis of a saved .prv: the trace
  is reconstructed into a RunTrace (no simulator run needed) and
  reported with the POP-style efficiency hierarchy, state/phase
  attribution, bandwidth/GFLOP-s against platform peaks and the
  bottleneck diagnosis; ``--html``/``--json`` write report files;
* ``compare``  — the same analysis over several .prv traces with a
  baseline-relative delta table (the paper's five-GEMM journey, §VI);
* ``demo``     — run one of the paper's case studies (gemm / pi);
  ``--trace-dir`` saves each run's Paraver trace, ``--html`` writes the
  comparison report;
* ``sweep``    — batch-run a list of jobs from a JSON spec (or the
  ``gemm``/``pi`` shorthands), optionally fanned out over worker
  processes (``--jobs N``) with per-job timeout and structured
  failure capture; ``--out`` writes the machine-readable
  ``repro.sweep/1`` result document; ``--progress`` renders live
  progress (done/running/failed, job rate, ETA) on stderr;
* ``explore`` — design-space exploration: enumerate candidate
  configurations (GEMM version × dim × threads × exposed knobs, or π
  steps × threads × blocking), score each with the analytic
  performance/area model, prune dominated and over-budget points,
  evaluate the survivors through the sweep machinery and print the
  measured Pareto frontier (cycles vs ALMs / registers) plus the
  optimization journey; ``--out`` writes ``repro.explore/1`` JSON and
  ``--html`` a self-contained Pareto report;
* ``timeline`` — merge the per-job telemetry snapshots embedded in a
  sweep result into one Chrome-trace/Perfetto file, one process track
  per worker and one thread lane per job, plus a per-job breakdown
  table (compile vs simulate vs trace-write time);
* ``stats``    — pretty-print a telemetry JSONL metrics file.

Synthetic arguments: scalar kernel parameters can be set with
``--arg name=value``; pointer parameters get random buffers sized from
their map clauses.

Toolchain telemetry: ``compile``/``run``/``trace``/``demo`` accept a
global ``--telemetry [PATH]`` option (plus ``--telemetry-format
{summary,jsonl,chrome}``) that records spans/counters for the whole
compile→simulate→trace pipeline — the toolchain-side mirror of the
Paraver traces the simulated hardware emits.  ``chrome`` output loads
in Perfetto / ``chrome://tracing``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

import numpy as np

from . import telemetry as _telemetry
from .analysis import diagnose
from .core import Program, SimConfig
from .frontend.errors import FrontendError
from .frontend.pragmas import eval_int_expr
from .hls.report import compile_report
from .ir.types import PointerType
from .paraver import (
    parse_prv, render_series, render_state_timeline, write_trace,
    bandwidth_series_gbs,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Nymble-like HLS + profiling + Paraver toolchain "
                    "(CLUSTER 2020 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("source", help="mini-C source file")
        p.add_argument("-D", "--define", action="append", default=[],
                       metavar="NAME=VALUE",
                       help="object-like macro (repeatable)")
        p.add_argument("--const", action="append", default=[],
                       metavar="NAME=VALUE",
                       help="compile-time value for synthesis clauses "
                            "such as num_threads(expr)")

    def add_telemetry_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--telemetry", nargs="?", const="-", default=None,
                       metavar="PATH",
                       help="record toolchain telemetry (spans/counters); "
                            "write to PATH, or print when PATH is omitted")
        p.add_argument("--telemetry-format",
                       choices=["summary", "jsonl", "chrome"], default=None,
                       help="telemetry output format (default: summary "
                            "when printing, jsonl when writing to PATH)")

    p_compile = sub.add_parser("compile", help="compile and report")
    add_source_args(p_compile)
    add_telemetry_args(p_compile)
    p_compile.add_argument("--no-profiling", action="store_true",
                           help="strip the profiling unit")

    for name, help_text in (("run", "compile and simulate"),
                            ("trace", "simulate and write a Paraver trace")):
        p = sub.add_parser(name, help=help_text)
        add_source_args(p)
        add_telemetry_args(p)
        p.add_argument("--arg", action="append", default=[],
                       metavar="NAME=VALUE", help="scalar kernel argument")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for synthetic buffers")
        p.add_argument("--start-interval", type=int, default=2000,
                       help="cycles between thread starts")
        p.add_argument("--attribution", action="store_true",
                       help="attribute every non-useful cycle to a cause "
                            "(cycle accounting; see 'repro why')")
        if name == "trace":
            p.add_argument("-o", "--output", default="trace",
                           help="trace base name (writes .prv/.pcf/.row)")

    p_inspect = sub.add_parser("inspect", help="summarize a .prv trace")
    p_inspect.add_argument("trace", help="path to a .prv file")

    def add_report_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--html", metavar="PATH",
                       help="write a self-contained HTML report")
        p.add_argument("--json", metavar="PATH",
                       help="write the report as JSON")
        p.add_argument("--peak-bw", type=float, default=76.8,
                       metavar="GBS",
                       help="platform peak bandwidth in GB/s "
                            "(default: 76.8, the D5005's four DDR4 banks)")
        p.add_argument("--peak-gflops", type=float, default=None,
                       help="platform peak GFLOP/s (optional)")
        p.add_argument("--clock-mhz", type=float, default=None,
                       help="accelerator clock for cycle→time conversion "
                            "(default: the trace's .pcf metadata, else 140)")

    p_analyze = sub.add_parser(
        "analyze", help="trace-native analysis of a saved .prv")
    p_analyze.add_argument("trace", help="path to a .prv file")
    p_analyze.add_argument("--label", default=None,
                           help="report label (default: file name)")
    add_report_args(p_analyze)

    p_compare = sub.add_parser(
        "compare", help="compare several saved .prv traces")
    p_compare.add_argument("traces", nargs="+",
                           help=".prv files; the first is the baseline")
    p_compare.add_argument("--labels", default=None,
                           help="comma-separated labels, one per trace")
    add_report_args(p_compare)

    p_demo = sub.add_parser("demo", help="run a paper case study")
    p_demo.add_argument("study", choices=["gemm", "pi"])
    p_demo.add_argument("--dim", type=int, default=64,
                        help="matrix dimension (gemm)")
    p_demo.add_argument("--steps", type=int, default=128000,
                        help="series iterations (pi)")
    p_demo.add_argument("--trace-dir", metavar="DIR", default=None,
                        help="write each run's Paraver trace into DIR")
    p_demo.add_argument("--html", metavar="PATH", default=None,
                        help="write the runs' comparison report as HTML")
    p_demo.add_argument("--attribution", action="store_true",
                        help="run with cycle accounting so the written "
                             "traces carry stall-cause attribution")
    add_telemetry_args(p_demo)

    p_why = sub.add_parser(
        "why", help="explain where a run's cycles went: ranked per-region "
                    "stall-cause table from cycle accounting")
    p_why.add_argument("source",
                       help="a .prv trace written with --attribution, or a "
                            "repro.report/1 JSON with attribution data")
    p_why.add_argument("--top", type=int, default=10, metavar="N",
                       help="regions to show (default: 10; 0 = all)")
    p_why.add_argument("--check", action="store_true",
                       help="exit nonzero unless the accounting invariant "
                            "(useful + causes == cycles per thread) holds "
                            "exactly")
    p_why.add_argument("--clock-mhz", type=float, default=None,
                       help="accelerator clock override for .prv sources")

    p_sweep = sub.add_parser(
        "sweep", help="run a batch of compile+simulate jobs, optionally "
                      "in parallel, and write machine-readable results")
    p_sweep.add_argument("spec",
                         help="a JSON sweep spec file, or the shorthand "
                              "'gemm' (five-version journey) / 'pi' "
                              "(iteration scaling)")
    p_sweep.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="worker processes (1 = run inline; "
                              "default: 1)")
    p_sweep.add_argument("--repeat", type=int, default=None, metavar="K",
                         help="run each job K times (distinct repeat "
                              "indices)")
    p_sweep.add_argument("--out", metavar="PATH", default=None,
                         help="write results as JSON (schema repro.sweep/1),"
                              " e.g. BENCH_gemm.json")
    p_sweep.add_argument("--timeout", type=_positive_seconds, default=None,
                         metavar="SECONDS",
                         help="per-job wall-clock limit, enforced inline "
                              "in the job (timed-out jobs become "
                              "structured 'timeout' records)")
    p_sweep.add_argument("--report-dir", metavar="DIR", default=None,
                         help="write each job's trace report JSON into DIR")
    p_sweep.add_argument("--dim", type=int, default=64,
                         help="matrix dimension for the 'gemm' shorthand")
    p_sweep.add_argument("--threads", type=int, default=8,
                         help="hardware threads for the shorthands")
    p_sweep.add_argument("--progress", action="store_true",
                         help="render live progress on stderr "
                              "(done/running/failed, job rate, ETA)")
    add_telemetry_args(p_sweep)

    p_explore = sub.add_parser(
        "explore", help="design-space exploration: enumerate candidate "
                        "configurations, prune with the analytic "
                        "performance/area model, evaluate survivors for "
                        "real, and report the Pareto frontier")
    p_explore.add_argument("--app", choices=["gemm", "pi"], default="gemm",
                           help="which application's space to explore "
                                "(default: gemm)")
    p_explore.add_argument("--dim", type=int, action="append", default=None,
                           metavar="D",
                           help="gemm matrix dimension (repeatable; "
                                "default: 64)")
    p_explore.add_argument("--threads", type=int, action="append",
                           default=None, metavar="T",
                           help="hardware thread counts (repeatable; "
                                "default: 8)")
    p_explore.add_argument("--steps", type=int, action="append", default=None,
                           metavar="N",
                           help="pi iteration counts (repeatable; default: "
                                "the scaled paper sweep)")
    p_explore.add_argument("--versions", default=None, metavar="CSV",
                           help="comma-separated gemm versions (default: "
                                "all seven)")
    p_explore.add_argument("--vector-len", type=int, action="append",
                           default=None, metavar="VL",
                           help="vector lengths to enumerate where exposed "
                                "(repeatable; default: 2,4)")
    p_explore.add_argument("--block-size", type=int, action="append",
                           default=None, metavar="BS",
                           help="tile sizes to enumerate where exposed "
                                "(repeatable; default: 4,8)")
    p_explore.add_argument("--bs-compute", type=int, action="append",
                           default=None, metavar="BS",
                           help="pi blocking factors (repeatable; "
                                "default: 4,8)")
    p_explore.add_argument("--max-evals", type=int, default=None, metavar="N",
                           help="simulate at most N survivors (predicted-"
                                "fastest kept)")
    p_explore.add_argument("--max-alms", type=int, default=None,
                           help="prune candidates predicted over this ALM "
                                "budget")
    p_explore.add_argument("--max-registers", type=int, default=None,
                           help="prune candidates predicted over this "
                                "register budget")
    p_explore.add_argument("--no-prune", action="store_true",
                           help="disable dominance pruning (budgets still "
                                "apply); measures the whole space and "
                                "reports model error per candidate")
    p_explore.add_argument("--jobs", type=int, default=1, metavar="N",
                           help="worker processes for the evaluation sweep")
    p_explore.add_argument("--timeout", type=_positive_seconds, default=None,
                           metavar="SECONDS", help="per-job wall-clock "
                           "limit for the evaluation sweep")
    p_explore.add_argument("--report-dir", metavar="DIR", default=None,
                           help="write each evaluated job's trace report "
                                "JSON into DIR (linked from --html)")
    p_explore.add_argument("--out", metavar="PATH", default=None,
                           help="write the full result as JSON (schema "
                                "repro.explore/1)")
    p_explore.add_argument("--html", metavar="PATH", default=None,
                           help="write the self-contained HTML Pareto "
                                "report")
    p_explore.add_argument("--progress", action="store_true",
                           help="render live sweep progress on stderr")
    add_telemetry_args(p_explore)

    p_timeline = sub.add_parser(
        "timeline", help="merge a sweep result's per-job telemetry into "
                         "one Chrome-trace/Perfetto timeline")
    p_timeline.add_argument("results",
                            help="a repro.sweep/1 result JSON written by "
                                 "'repro sweep --out'")
    p_timeline.add_argument("-o", "--output", metavar="PATH", default=None,
                            help="merged Chrome-trace JSON path (default: "
                                 "<results stem>.trace.json)")

    p_stats = sub.add_parser(
        "stats", help="pretty-print a telemetry JSONL metrics file")
    p_stats.add_argument("metrics", help="path to a metrics .jsonl file "
                                         "written by --telemetry")
    return parser


def _positive_seconds(text: str) -> float:
    """argparse type of ``--timeout``: a positive number of seconds."""

    try:
        seconds = float(text)
    except ValueError:
        seconds = float("nan")
    if not seconds > 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive number of seconds, got {text!r}")
    return seconds


def _parse_kv(pairs: list[str], what: str) -> dict[str, object]:
    out: dict[str, object] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"malformed {what} {pair!r} (expected NAME=VALUE)")
        name, _, value = pair.partition("=")
        try:
            out[name] = int(value)
        except ValueError:
            try:
                out[name] = float(value)
            except ValueError:
                out[name] = value
    return out


def _load_program(args: argparse.Namespace, profiling_off: bool = False,
                  sim_config: Optional[SimConfig] = None) -> Program:
    """Compile ``args.source``; unreadable or invalid source exits cleanly."""

    try:
        with open(args.source) as handle:
            source = handle.read()
    except OSError as exc:
        raise SystemExit(f"cannot read source {args.source!r}: "
                         f"{exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise SystemExit(f"{args.source!r} is not a text file: {exc}") \
            from exc
    defines = _parse_kv(args.define, "--define")
    const_env: dict[str, int] = {}
    for name, value in _parse_kv(args.const, "--const").items():
        if not isinstance(value, int):
            raise SystemExit(f"error: --const {name}={value} is not an "
                             "integer")
        const_env[name] = value
    options = None
    if profiling_off:
        from .hls import HLSOptions
        from .profiling import ProfilingConfig
        options = HLSOptions(profiling=ProfilingConfig.disabled())
    try:
        return Program(source, defines=defines, const_env=const_env,
                       options=options, filename=args.source,
                       sim_config=sim_config)
    except FrontendError as exc:
        raise SystemExit(f"error: {exc}") from exc


def _synthesize_args(program: Program, scalars: dict[str, object],
                     seed: int) -> dict[str, object]:
    """Random buffers for pointer params; user values for scalars."""

    rng = np.random.default_rng(seed)
    call_args: dict[str, object] = {}
    int_env: dict[str, int] = {}
    for param in program.function.params:
        if param.name in scalars:
            call_args[param.name] = scalars[param.name]
            try:
                int_env[param.name] = int(scalars[param.name])  # type: ignore[arg-type]
            except (TypeError, ValueError):
                pass
    kernel = program.accelerator.kernel
    for kparam in kernel.params:
        if not isinstance(kparam.type, PointerType) \
                or kparam.attrs.get("scalar_cell"):
            continue
        size = kparam.map_size
        if isinstance(size, str):
            try:
                size = eval_int_expr(size, int_env)
            except Exception:
                raise SystemExit(
                    f"cannot size buffer {kparam.name!r} from map clause "
                    f"[{size}]; pass the referenced scalars via --arg")
        if size is None:
            raise SystemExit(f"buffer {kparam.name!r} has no sized map clause")
        elem = kparam.type.elem
        dtype = np.dtype(getattr(elem, "np_dtype_name", "float32"))
        if dtype.kind == "f":
            call_args[kparam.name] = rng.random(int(size)).astype(dtype)
        else:
            call_args[kparam.name] = rng.integers(
                0, 100, int(size)).astype(dtype)
    missing = [p.name for p in program.function.params
               if p.name not in call_args]
    if missing:
        raise SystemExit(f"missing scalar arguments: {missing} "
                         "(pass them with --arg name=value)")
    return call_args


def _print_run_summary(result) -> None:
    print(f"cycles     : {result.cycles}")
    print(f"wall time  : {result.seconds * 1e6:.1f} us at "
          f"{result.clock_mhz} MHz")
    print(f"bandwidth  : {result.bandwidth_gbs():.3f} GB/s")
    print(f"compute    : {result.gflops:.3f} GFLOP/s")
    print(f"stalls     : {sum(result.stalls)} cycles across threads")
    print()
    print(render_state_timeline(result.trace, width=72))
    bw = bandwidth_series_gbs(result.trace, result.clock_mhz)
    print()
    print(render_series(bw, width=72, height=4, label="bandwidth GB/s"))
    table = result.attribution
    if table is not None:
        from .report.model import AttributionSummary
        from .report.text import render_why_text
        summary = AttributionSummary.from_table(table, result.cycles)
        print()
        print(render_why_text(summary, result.cycles), end="")
    print()
    print(diagnose(result))


def _write_demo_trace(result, trace_dir: str, name: str) -> None:
    import os

    os.makedirs(trace_dir, exist_ok=True)
    files = write_trace(result.trace, os.path.join(trace_dir, name),
                        clock_mhz=result.clock_mhz)
    print(f"  trace written: {files.prv}")


def _load_report(path: str, label, clock_mhz, peaks):
    """report_from_prv with the CLI's error style."""

    from .paraver.parser import ParaverParseError
    from .report import report_from_prv
    try:
        return report_from_prv(path, label=label, clock_mhz=clock_mhz,
                               peaks=peaks)
    except OSError as exc:
        raise SystemExit(f"cannot read trace {path!r}: "
                         f"{exc.strerror or exc}") from exc
    except (ParaverParseError, ValueError) as exc:
        raise SystemExit(
            f"{path!r} is not a valid Paraver trace: {exc}") from exc


def _report_command(args: argparse.Namespace) -> int:
    from .report import (
        PlatformPeaks, render_comparison_text, render_report_text,
        write_html, write_json,
    )
    peaks = PlatformPeaks(bandwidth_gbs=args.peak_bw,
                          gflops=args.peak_gflops)
    if args.command == "analyze":
        paths, labels = [args.trace], [args.label]
    else:
        paths = args.traces
        labels = [None] * len(paths)
        if args.labels:
            named = [lab.strip() for lab in args.labels.split(",")]
            if len(named) != len(paths):
                raise SystemExit(
                    f"--labels names {len(named)} traces but "
                    f"{len(paths)} were given")
            labels = named
    reports = [_load_report(path, label, args.clock_mhz, peaks)
               for path, label in zip(paths, labels)]
    if len(reports) == 1:
        print(render_report_text(reports[0]), end="")
    else:
        print(render_comparison_text(reports), end="")
    if args.html:
        title = "Trace comparison" if len(reports) > 1 \
            else f"Trace analysis: {reports[0].label}"
        write_html(reports, args.html, title=title)
        print(f"\nHTML report written: {args.html}")
    if args.json:
        write_json(reports, args.json)
        print(f"JSON report written: {args.json}")
    return 0


def _why_command(args: argparse.Namespace) -> int:
    from .report.model import AttributionSummary
    from .report.serialize import REPORT_SCHEMA, attribution_from_dict
    from .report.text import render_why_text

    path = args.source
    if path.endswith(".json"):
        import json as _json
        import os
        try:
            with open(path) as handle:
                doc = _json.load(handle)
        except OSError as exc:
            raise SystemExit(f"cannot read {path!r}: "
                             f"{exc.strerror or exc}") from exc
        except ValueError as exc:
            raise SystemExit(f"{path!r} is not valid JSON: {exc}") from exc
        schema = doc.get("schema") if isinstance(doc, dict) else None
        if schema == "repro.sweep/1":
            raise SystemExit(
                f"{path!r} is a sweep result (repro.sweep/1), not a "
                "report; run 'repro why' on one of its per-job report "
                "JSONs (--report-dir) or on a .prv trace")
        if schema != REPORT_SCHEMA:
            raise SystemExit(
                f"{path!r} is not a repro.report/1 document "
                f"(schema: {schema!r})")
        status = 0
        shown = 0
        for report in doc.get("reports", []):
            data = report.get("attribution")
            if data is None:
                continue
            summary = attribution_from_dict(data)
            print(render_why_text(summary, int(report.get("cycles", 0)),
                                  label=report.get("label",
                                                   os.path.basename(path)),
                                  top=args.top), end="")
            shown += 1
            if args.check and not summary.invariant_ok:
                status = 1
        if not shown:
            raise SystemExit(
                f"{path!r} has no attribution data; rebuild the report "
                "from a run with --attribution (SimConfig.attribution)")
        return status

    from .paraver.parser import ParaverParseError
    from .paraver.reconstruct import reconstruct_run
    try:
        run = reconstruct_run(path, clock_mhz=args.clock_mhz)
    except OSError as exc:
        raise SystemExit(f"cannot read trace {path!r}: "
                         f"{exc.strerror or exc}") from exc
    except (ParaverParseError, ValueError) as exc:
        raise SystemExit(
            f"{path!r} is not a valid Paraver trace: {exc}") from exc
    table = run.result.attribution
    if table is None:
        raise SystemExit(
            f"{path!r} carries no cycle-accounting events; re-run with "
            "--attribution (e.g. 'repro trace --attribution' or "
            "'repro demo --attribution --trace-dir ...')")
    import os
    summary = AttributionSummary.from_table(table, run.result.cycles)
    label = os.path.splitext(os.path.basename(path))[0]
    print(render_why_text(summary, run.result.cycles, label=label,
                          top=args.top), end="")
    if args.check and not summary.invariant_ok:
        for thread, accounted, expected in summary.violations:
            print(f"invariant violated: thread {thread} accounts for "
                  f"{accounted} of {expected} cycles", file=sys.stderr)
        return 1
    return 0


def _demo_command(args: argparse.Namespace) -> int:
    from .apps import run_gemm, run_pi
    from .apps.gemm import GEMM_VERSIONS
    from .report import build_report, write_html
    reports = []
    if args.study == "gemm":
        base = None
        for version in GEMM_VERSIONS:
            try:
                run = run_gemm(version, dim=args.dim,
                               attribution=args.attribution)
            except ValueError as exc:
                raise SystemExit(str(exc)) from exc
            base = base or run.cycles
            print(f"{version:18s} {run.cycles:10d} cycles  "
                  f"{base / run.cycles:6.2f}x  correct={run.correct}")
            if args.trace_dir or args.html:
                reports.append(build_report(run.result, label=version))
            if args.trace_dir:
                _write_demo_trace(run.result, args.trace_dir, version)
    else:
        try:
            run = run_pi(args.steps, attribution=args.attribution)
        except ValueError as exc:
            raise SystemExit(str(exc)) from exc
        print(f"pi({args.steps}) = {run.value:.7f} "
              f"(error {run.error:.2e}) in {run.cycles} cycles, "
              f"{run.gflops:.3f} GFLOP/s")
        if args.trace_dir or args.html:
            reports.append(build_report(run.result, label="pi"))
        if args.trace_dir:
            _write_demo_trace(run.result, args.trace_dir, "pi")
    if args.html:
        write_html(reports, args.html, title=f"repro demo {args.study}")
        print(f"HTML report written: {args.html}")
    return 0


def _sweep_command(args: argparse.Namespace) -> int:
    from .sweep import TTYProgress, load_spec, run_sweep
    try:
        spec = load_spec(args.spec, dim=args.dim, threads=args.threads)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    progress = TTYProgress() if args.progress else None
    # always capture per-job telemetry so a written --out document can
    # be merged by `repro timeline` later (snapshots are a few KB/job)
    result = run_sweep(spec, jobs=args.jobs, repeat=args.repeat,
                       timeout=args.timeout,
                       report_dir=args.report_dir,
                       progress=progress, capture_telemetry=True)

    header = (f"{'job':34s} {'status':8s} {'cycles':>10s} {'GFLOP/s':>8s} "
              f"{'wall':>7s}")
    print(header)
    print("-" * len(header))
    for job in result.jobs:
        cycles = f"{job.cycles}" if job.cycles is not None else "-"
        gflops = f"{job.gflops:.3f}" if job.gflops is not None else "-"
        print(f"{job.job_id:34s} {job.status:8s} {cycles:>10s} {gflops:>8s} "
              f"{job.wall_s:6.2f}s")
        if job.status != "ok" and job.error:
            print(f"  ! {job.error}")
    totals = result.totals()
    print(f"\n{totals['jobs']} jobs: {totals['ok']} ok, "
          f"{totals['failed']} failed, {totals['timeout']} timeout, "
          f"{totals['crashed']} crashed; "
          f"{result.wall_s:.2f}s wall at --jobs {result.parallel_jobs}")
    if args.out:
        result.to_json(args.out)
        print(f"results written: {args.out}")
    return 0 if not result.failed else 1


def _explore_command(args: argparse.Namespace) -> int:
    import os

    from .explore import (
        Budget, explore, gemm_space, pi_space, write_explore_html,
    )
    from .sweep import TTYProgress

    try:
        if args.app == "gemm":
            space = gemm_space(
                dims=tuple(args.dim or (64,)),
                threads=tuple(args.threads or (8,)),
                versions=[v.strip() for v in args.versions.split(",")]
                if args.versions else None,
                vector_lens=tuple(args.vector_len or (2, 4)),
                block_sizes=tuple(args.block_size or (4, 8)))
        else:
            kwargs = {"threads": tuple(args.threads or (8,)),
                      "bs_compute": tuple(args.bs_compute or (4, 8))}
            if args.steps:
                kwargs["steps"] = tuple(args.steps)
            space = pi_space(**kwargs)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    if not len(space):
        raise SystemExit("explore space is empty — every enumerated "
                         "combination was filtered out (check divisibility "
                         "constraints: dim % threads, dim % block size, "
                         "steps % (threads * bs))")

    budget = None
    if args.max_evals is not None or args.max_alms is not None \
            or args.max_registers is not None:
        budget = Budget(max_evals=args.max_evals, max_alms=args.max_alms,
                        max_registers=args.max_registers)

    print(f"design space '{space.name}': {len(space)} candidates "
          f"({args.app})")
    progress = TTYProgress() if args.progress else None
    result = explore(space, budget=budget, dominance=not args.no_prune,
                     jobs=args.jobs, timeout=args.timeout,
                     report_dir=args.report_dir, progress=progress,
                     capture_telemetry=True)

    pruned = len(result.pruned)
    print(f"analytic model scored {len(result.outcomes)} candidates in "
          f"{result.model_wall_s:.2f}s; pruning eliminated {pruned} "
          f"({100.0 * result.pruned_fraction:.0f}%) before simulation")

    header = (f"{'candidate':34s} {'status':18s} {'predicted':>10s} "
              f"{'measured':>10s} {'Δ':>5s} {'ALMs':>7s} {'regs':>7s}  "
              "bound")
    print()
    print(header)
    print("-" * len(header))
    for outcome in sorted(result.outcomes, key=lambda o: o.cycles):
        prediction = outcome.prediction
        measured = outcome.measured_cycles
        if outcome.pruned is not None:
            status = f"pruned: {outcome.pruned.reason}"
        elif outcome.result is None:
            status = "not evaluated"
        elif outcome.result.status != "ok":
            status = outcome.result.status
        elif outcome.on_frontier:
            status = "frontier"
        else:
            status = "measured"
        delta = "-"
        if measured is not None and prediction.cycles:
            delta = f"{100.0 * (prediction.cycles - measured) / measured:+.0f}%"
        print(f"{outcome.id:34s} {status:18s} {prediction.cycles:>10d} "
              f"{measured if measured is not None else '-':>10} "
              f"{delta:>5s} {prediction.alms:>7d} {prediction.registers:>7d}"
              f"  {prediction.bound}")
        if outcome.result is not None and outcome.result.status != "ok" \
                and outcome.result.error:
            print(f"  ! {outcome.result.error}")

    for axis, unit in (("alms", "ALMs"), ("registers", "registers")):
        front = result.frontier(axis)
        if front:
            points = ", ".join(
                f"{o.id} ({o.cycles} cyc, "
                f"{getattr(o.prediction, axis)} {unit})" for o in front)
            print(f"\nPareto frontier (cycles vs {unit}): {points}")

    journey = result.journey()
    if journey:
        print("\noptimization journey (slowest to fastest):")
        slowest = journey[0]["cycles"] or 1
        for row in journey:
            note = "measured" if row["source"] == "measured" \
                else f"predicted, pruned: {row['pruned']}"
            print(f"  {row['group']:16s} {row['id']:34s} "
                  f"{row['cycles']:>10d}  {slowest / row['cycles']:5.2f}x"
                  f"  ({note})")

    failed = [o for o in result.evaluated
              if o.result is not None and o.result.status != "ok"]
    print(f"\n{len(result.outcomes)} candidates: {pruned} pruned, "
          f"{len(result.measured)} measured, {len(failed)} failed; "
          f"model {result.model_wall_s:.2f}s + sweep "
          f"{result.sweep.wall_s if result.sweep else 0.0:.2f}s = "
          f"{result.wall_s:.2f}s wall")
    if args.out:
        result.to_json(args.out)
        print(f"results written: {args.out} (repro.explore/1)")
    if args.html:
        links = {}
        base = os.path.dirname(os.path.abspath(args.html))
        for outcome in result.evaluated:
            job = outcome.result
            if job is not None and job.report_path:
                links[outcome.id] = os.path.relpath(
                    os.path.abspath(job.report_path), base)
        write_explore_html(result, args.html, report_links=links or None)
        print(f"HTML report written: {args.html}")
    return 0 if not failed else 1


def _timeline_command(args: argparse.Namespace) -> int:
    import json as _json
    import os

    from .sweep import validate_sweep_file
    from .telemetry import merge_sweep_doc, render_job_breakdown, \
        snapshots_from_sweep_doc
    try:
        doc = validate_sweep_file(args.results)
        snapshots, _parent = snapshots_from_sweep_doc(doc)
        payload = merge_sweep_doc(doc)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    output = args.output
    if output is None:
        stem, _ext = os.path.splitext(args.results)
        output = stem + ".trace.json"
    with open(output, "w") as handle:
        handle.write(_json.dumps(payload, indent=1, sort_keys=True,
                                 default=str) + "\n")
    print(render_job_breakdown(snapshots), end="")
    pids = payload["otherData"]["worker_pids"]
    print(f"\nmerged {len(snapshots)} job timelines from "
          f"{len(pids)} worker process(es) (pids: "
          f"{', '.join(str(p) for p in pids)})")
    print(f"Chrome trace written: {output} "
          "(load in Perfetto or chrome://tracing)")
    return 0


def _export_telemetry(args: argparse.Namespace) -> None:
    """Write/print the session's telemetry per the --telemetry flags."""

    session = _telemetry.get_telemetry()
    path = args.telemetry
    fmt = args.telemetry_format or ("summary" if path == "-" else "jsonl")
    if path == "-":
        print()
        print(_telemetry.export(session, fmt), end="")
        return
    _telemetry.export(session, fmt, path)
    print(f"\ntelemetry written: {path} ({fmt})")


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "telemetry", None) is None:
        return _dispatch(args)
    _telemetry.configure(enabled=True)
    try:
        status = _dispatch(args)
    finally:
        _telemetry.get_telemetry().enabled = False
    _export_telemetry(args)
    return status


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "compile":
        program = _load_program(args, profiling_off=args.no_profiling)
        print(compile_report(program.accelerator), end="")
        return 0

    if args.command in ("run", "trace"):
        program = _load_program(args, sim_config=SimConfig(
            thread_start_interval=args.start_interval,
            attribution=args.attribution))
        scalars = _parse_kv(args.arg, "--arg")
        call_args = _synthesize_args(program, scalars, args.seed)
        outcome = program.run(**call_args)
        if outcome.value is not None:
            print(f"return value: {outcome.value}")
        _print_run_summary(outcome.sim)
        if args.command == "trace":
            files = write_trace(outcome.sim.trace, args.output,
                                clock_mhz=outcome.sim.clock_mhz)
            print(f"\nParaver trace written: {files.prv} / {files.pcf} / "
                  f"{files.row}")
        return 0

    if args.command == "inspect":
        from .paraver.parser import EVENT, ParaverParseError
        try:
            parsed = parse_prv(args.trace)
        except OSError as exc:
            raise SystemExit(
                f"cannot read trace {args.trace!r}: "
                f"{exc.strerror or exc}") from exc
        except (ParaverParseError, ValueError) as exc:
            raise SystemExit(
                f"{args.trace!r} is not a valid Paraver trace: {exc}"
            ) from exc
        print(f"trace      : {args.trace}")
        print(f"duration   : {parsed.end_time} cycles")
        print(f"threads    : {parsed.num_tasks}")
        durations = parsed.state_durations()
        total = sum(durations.values()) or 1
        names = {0: "Idle", 1: "Running", 2: "Critical", 3: "Spinning"}
        print("states     :")
        for state, duration in sorted(durations.items()):
            print(f"  {names.get(state, state):9} {duration:10d} cycles "
                  f"({100 * duration / total:5.1f}%)")
        records = parsed.records
        events = records.kind == EVENT
        types, slot = np.unique(records.type[events], return_inverse=True)
        sums = np.zeros(types.size, dtype=np.int64)
        np.add.at(sums, slot, records.value[events])
        if types.size:
            print("event totals:")
            for type_id, value in zip(types.tolist(), sums.tolist()):
                print(f"  {type_id}: {value}")
        return 0

    if args.command in ("analyze", "compare"):
        return _report_command(args)

    if args.command == "why":
        return _why_command(args)

    if args.command == "demo":
        return _demo_command(args)

    if args.command == "sweep":
        return _sweep_command(args)

    if args.command == "explore":
        return _explore_command(args)

    if args.command == "timeline":
        return _timeline_command(args)

    if args.command == "stats":
        try:
            records = _telemetry.read_jsonl(args.metrics)
        except OSError as exc:
            raise SystemExit(
                f"cannot read metrics {args.metrics!r}: "
                f"{exc.strerror or exc}") from exc
        except ValueError as exc:
            raise SystemExit(
                f"{args.metrics!r} is not a telemetry metrics file: {exc}"
            ) from exc
        print(_telemetry.summarize_records(records), end="")
        return 0

    raise AssertionError(args.command)  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
