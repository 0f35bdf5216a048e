"""Fig. 7: relative memory bandwidth of the five GEMM versions.

Paper observations encoded here:
  * ``no_critical`` has slightly better throughput than ``naive``;
  * ``vectorized`` clearly improves achieved bandwidth (wider accesses);
  * ``blocked`` shows *lower external* bandwidth than ``vectorized`` —
    it trades external for local (BRAM) bandwidth;
  * ``double_buffered`` achieves the best bandwidth of the tiled
    versions (prefetch keeps the memory system busy).
"""

from repro.apps.gemm import GEMM_VERSIONS
from repro.paraver import bandwidth_series_gbs, render_series
from repro.profiling import EventKind

from _bench_utils import GEMM_DIM, gemm_run_cached, report


def test_fig7_bandwidth_comparison(benchmark):
    def run_all():
        return {name: gemm_run_cached(name) for name in GEMM_VERSIONS}

    runs = benchmark.pedantic(run_all, rounds=1, iterations=1)
    lines = [f"== Fig 7: memory bandwidth over execution (DIM={GEMM_DIM}) ==",
             f"{'version':18s} {'avg GB/s':>9s} {'peak GB/s':>10s} "
             f"{'ext bytes':>12s}"]
    avg = {}
    series = {}
    for name, run in runs.items():
        result = run.result
        bw = bandwidth_series_gbs(result.trace, result.clock_mhz)
        series[name] = bw
        avg[name] = result.bandwidth_gbs()
        moved = (result.total_events(EventKind.MEM_READ_BYTES)
                 + result.total_events(EventKind.MEM_WRITE_BYTES))
        lines.append(f"{name:18s} {avg[name]:9.3f} {bw.max():10.3f} "
                     f"{int(moved):12d}")
    lines.append("")
    for name in GEMM_VERSIONS:
        lines.append(render_series(series[name], width=72, height=3,
                                   label=name))
        lines.append("")
    report("fig7_bandwidth", lines)

    # paper-shape assertions
    assert avg["no_critical"] >= avg["naive"] * 0.95
    assert avg["vectorized"] > avg["no_critical"] * 1.5
    assert avg["blocked"] < avg["vectorized"]          # BW traded for BRAM
    assert avg["double_buffered"] >= avg["blocked"]     # best of the tiled

    # blocking moves ~DIM/BLOCK fewer external bytes
    blocked_bytes = runs["blocked"].result.total_events(
        EventKind.MEM_READ_BYTES)
    naive_bytes = runs["naive"].result.total_events(EventKind.MEM_READ_BYTES)
    assert blocked_bytes < naive_bytes / 4
