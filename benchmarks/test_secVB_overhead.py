"""§V-B: hardware footprint and Fmax impact of the profiling unit.

Paper (case study 1, GEMM): registers +<=5.4 % (geo-mean 2.41 %), ALMs
+<=4 % (geo-mean 3.42 %), Fmax degradation <=8 MHz at ~140 MHz.
Paper (case study 2, π): registers +1.3 %, ALMs +1.5 %, Fmax -1 MHz at
148 MHz.

The bench compiles every kernel with and without the profiling unit and
reports the same relative quantities.
"""

import math

from repro.apps.gemm import GEMM_VERSIONS, gemm_defines
from repro.apps.pi import PI_SOURCE, pi_defines
from repro.hls import compile_source

from _bench_utils import (
    ATTRIBUTION_DIM, attribution_cost_lines, measure_attribution_overhead,
    report,
)


def _compile_all_gemm():
    return {name: compile_source(GEMM_VERSIONS[name],
                                 defines=gemm_defines(name))
            for name in GEMM_VERSIONS}


def test_overhead_gemm(benchmark):
    accs = benchmark.pedantic(_compile_all_gemm, rounds=1, iterations=1)
    lines = ["== SecV-B case study 1: profiling overhead, GEMM versions ==",
             f"{'version':18s} {'+regs%':>8s} {'+ALMs%':>8s} {'-Fmax MHz':>10s}"]
    reg_pcts, alm_pcts, fmax_deltas = [], [], []
    for name, acc in accs.items():
        ov = acc.profiling_overhead()
        reg_pcts.append(ov["registers_pct"])
        alm_pcts.append(ov["alms_pct"])
        fmax_deltas.append(ov["fmax_delta_mhz"])
        lines.append(f"{name:18s} {ov['registers_pct']:7.2f}% "
                     f"{ov['alms_pct']:7.2f}% {ov['fmax_delta_mhz']:9.1f}")
    geo = lambda xs: math.exp(sum(math.log(x) for x in xs) / len(xs))
    lines += [
        f"{'max':18s} {max(reg_pcts):7.2f}% {max(alm_pcts):7.2f}% "
        f"{max(fmax_deltas):9.1f}",
        f"{'geo-mean':18s} {geo(reg_pcts):7.2f}% {geo(alm_pcts):7.2f}%",
        "paper: max 5.4% / 4.0% / 8 MHz; geo-mean 2.41% / 3.42%",
    ]
    report("secVB_overhead_gemm", lines)

    # shape assertions: same bands as the paper
    assert max(reg_pcts) < 8.0
    assert max(alm_pcts) < 6.0
    assert 1.0 < geo(reg_pcts) < 5.0
    assert 1.0 < geo(alm_pcts) < 5.0
    assert all(0.0 < d <= 8.0 for d in fmax_deltas)


def test_overhead_pi(benchmark):
    def compile_pi():
        return compile_source(PI_SOURCE, defines=pi_defines(16),
                              const_env={"threads": 8})

    acc = benchmark.pedantic(compile_pi, rounds=1, iterations=1)
    ov = acc.profiling_overhead()
    lines = [
        "== SecV-B case study 2: profiling overhead, pi kernel ==",
        f"registers +{ov['registers_pct']:.2f}%   (paper: +1.3%)",
        f"ALMs      +{ov['alms_pct']:.2f}%   (paper: +1.5%)",
        f"Fmax      -{ov['fmax_delta_mhz']:.1f} MHz at "
        f"{acc.baseline_area.fmax_mhz:.0f} MHz   (paper: -1 MHz at 148 MHz)",
    ]
    report("secVB_overhead_pi", lines)
    assert ov["registers_pct"] < 3.0
    assert ov["alms_pct"] < 3.0
    assert ov["fmax_delta_mhz"] < 4.0


def test_counter_cost_balance(benchmark):
    """Paper: 'each of the counters contributes similarly to the hardware
    overhead, none ... remarkably expensive'."""

    from repro.hls import HLSOptions
    from repro.profiling import EventKind, ProfilingConfig

    def compile_variants():
        out = {}
        for kind in EventKind:
            config = ProfilingConfig(events=(kind,), record_states=False)
            out[kind] = compile_source(
                GEMM_VERSIONS["naive"], defines=gemm_defines("naive"),
                options=HLSOptions(profiling=config))
        return out

    accs = benchmark.pedantic(compile_variants, rounds=1, iterations=1)
    costs = {kind: acc.area.breakdown.profiling_registers
             for kind, acc in accs.items()}
    lines = ["== SecV-B: per-counter cost balance ==",
             f"{'counter':18s} {'profiling registers':>20s}"]
    for kind, cost in costs.items():
        lines.append(f"{str(kind):18s} {cost:20d}")
    report("secVB_counter_balance", lines)
    values = list(costs.values())
    assert max(values) < 4 * min(values)  # "none remarkably expensive"


def test_attribution_overhead(benchmark):
    """Simulator-side cost of cycle accounting (SimConfig.attribution).

    The hardware profiling unit costs registers and Fmax (above); the
    software cycle-accounting layer costs simulator CPU time.  This
    bench prints that cost per GEMM version and publishes the
    five-version total as the ``sim.attribution.overhead_pct`` gauge so
    results files track it run over run.  Simulated cycle counts are
    asserted bit-identical elsewhere (tests/test_attribution) — only
    host time may move.
    """

    overhead = benchmark.pedantic(measure_attribution_overhead,
                                  rounds=1, iterations=1)
    report("secVB_attribution_overhead", [
        "== SecV-B follow-on: simulator cycle-accounting overhead ==",
        f"five GEMMs at DIM={ATTRIBUTION_DIM}: simulation CPU time, "
        "best of 7, compile excluded",
        *attribution_cost_lines(),
        f"sim.attribution.overhead_pct = {overhead:.1f}%  "
        "(five-version total, attribution on vs off)",
    ])
    # Generous band: timing noise on shared CI boxes; the guard is
    # against pathological slowdowns, not a perf SLO.
    assert overhead < 200.0
