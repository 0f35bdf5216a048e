"""Self-contained HTML report with embedded SVG panels.

One file, zero scripts, zero network fetches: styles are inlined and
every figure is inline SVG, so the report opens anywhere a browser does
and archives alongside the ``.prv`` it describes.  The panels are
regenerable equivalents of the paper's Paraver screenshots:

* a per-thread state Gantt (Fig. 6 / 11-13) in the paper's state
  palette — Running green, Critical blue, Spinning red — with Idle as
  the neutral track, rasterized to screen buckets by
  :func:`~repro.paraver.render.state_occupancy` (which also draws the
  ASCII view) so even million-interval traces stay a few hundred
  kilobytes;
* bandwidth and GFLOP/s over time (Figs. 7-9) with the configured
  platform peak drawn as a reference line;
* the efficiency hierarchy and state attribution as labeled bars, and
  the multi-trace comparison as a delta table (§VI's five-GEMM journey).

Native ``<title>`` tooltips carry the exact interval/window values, and
each figure is paired with a value table, so nothing is color-only.
"""

from __future__ import annotations

import html as _html
from typing import Optional, Sequence

import numpy as np

from ..paraver.render import bucket_means, state_occupancy
from ..profiling.config import ThreadState
from ..profiling.recorder import RunTrace
from .model import TraceReport, comparison_rows

__all__ = ["render_html", "render_page", "write_html"]

# Paper-palette hues re-stepped for a light surface and validated for
# CVD separation and >=3:1 surface contrast (green/blue/red trio).
_STATE_FILL = {
    ThreadState.RUNNING: "var(--state-running)",
    ThreadState.CRITICAL: "var(--state-critical)",
    ThreadState.SPINNING: "var(--state-spinning)",
}

_CSS = """
:root { color-scheme: light; }
body.viz-root {
  --surface-1: #fcfcfb;
  --surface-2: #f1efe9;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --grid: #e4e2db;
  --series-1: #2a78d6;   /* bandwidth + efficiency bars */
  --series-2: #eb6834;   /* compute */
  --state-running: #008300;
  --state-critical: #2a78d6;
  --state-spinning: #e34948;
  --state-idle: #e9e7e0;
  margin: 0 auto; padding: 24px 32px 48px; max-width: 1020px;
  background: var(--surface-1); color: var(--text-primary);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 22px; margin: 0 0 4px; }
h2 { font-size: 17px; margin: 32px 0 8px; }
h3 { font-size: 14px; margin: 18px 0 6px; color: var(--text-secondary);
     font-weight: 600; }
p.meta { color: var(--text-secondary); margin: 0 0 16px; }
section.run { border-top: 1px solid var(--grid); padding-top: 8px;
              margin-top: 24px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 12px 0; }
.tile { background: var(--surface-2); border-radius: 8px;
        padding: 10px 14px; min-width: 118px; }
.tile .v { font-size: 19px; font-weight: 650; }
.tile .k { font-size: 11.5px; color: var(--text-secondary);
           text-transform: uppercase; letter-spacing: .04em; }
table { border-collapse: collapse; margin: 8px 0 16px; }
th, td { text-align: right; padding: 4px 10px; font-variant-numeric:
         tabular-nums; border-bottom: 1px solid var(--grid); }
th { color: var(--text-secondary); font-weight: 600; font-size: 12.5px; }
th:first-child, td:first-child { text-align: left; }
.swatch { display: inline-block; width: 10px; height: 10px;
          border-radius: 2px; margin-right: 6px; vertical-align: baseline; }
.bar-track { background: var(--surface-2); border-radius: 4px;
             height: 12px; width: 220px; display: inline-block;
             vertical-align: middle; }
.bar-fill { background: var(--series-1); border-radius: 4px;
            height: 12px; display: block; }
figure { margin: 12px 0 20px; }
figcaption { color: var(--text-secondary); font-size: 12.5px;
             margin-bottom: 4px; }
svg { display: block; }
svg text { font: 11px system-ui, sans-serif; fill: var(--text-secondary); }
svg text.v { fill: var(--text-primary); font-weight: 600; }
ul.findings { margin: 4px 0 0 18px; padding: 0; }
.legend { color: var(--text-secondary); font-size: 12.5px;
          margin: 4px 0 0; }
"""


def _esc(text: str) -> str:
    return _html.escape(str(text), quote=True)


def _fmt(value: float, digits: int = 0) -> str:
    return f"{value:,.{digits}f}"


def _nice_ceiling(value: float) -> float:
    """Round up to a clean axis maximum (1/2/2.5/5 x 10^k)."""

    if value <= 0:
        return 1.0
    exp = np.floor(np.log10(value))
    base = value / 10 ** exp
    for step in (1.0, 2.0, 2.5, 5.0, 10.0):
        if base <= step:
            return float(step * 10 ** exp)
    return float(10 ** (exp + 1))


#: points a series panel draws at most (longer series are averaged down)
SERIES_POINTS = 320


# ----------------------------------------------------------------------
# state Gantt
# ----------------------------------------------------------------------
def _state_runs(trace: RunTrace, thread: int,
                buckets: int) -> list[tuple[int, int, ThreadState]]:
    """Merged (first_bucket, last_bucket_exclusive, state) non-idle runs.

    Each bucket takes the non-idle state occupying most of its cycles
    (:func:`~repro.paraver.render.state_occupancy` with the Idle column
    zeroed), then adjacent equal-state buckets merge into one rect,
    which bounds the SVG size regardless of how many raw intervals the
    trace holds.
    """

    occupancy = state_occupancy(trace, thread, 0, max(1, trace.end_cycle),
                                buckets)
    occupancy[:, ThreadState.IDLE] = 0
    code = np.where(occupancy.any(axis=1), occupancy.argmax(axis=1), -1)
    firsts = np.flatnonzero(np.diff(code, prepend=-2))
    lasts = np.append(firsts[1:], buckets)
    return [(first, last, ThreadState(state)) for first, last, state
            in zip(firsts.tolist(), lasts.tolist(), code[firsts].tolist())
            if state >= 0]


def _gantt_svg(report: TraceReport) -> str:
    trace = report.trace
    assert trace is not None
    width, buckets = 960, 840
    gutter, row_h, gap, top = 110, 16, 6, 8
    plot_w = width - gutter - 10
    height = top + trace.num_threads * (row_h + gap) + 22
    parts = [f'<svg viewBox="0 0 {width} {height}" width="100%" '
             f'role="img" aria-label="Per-thread state timeline">']
    scale = plot_w / buckets
    span = max(1, trace.end_cycle)
    for thread in range(trace.num_threads):
        y = top + thread * (row_h + gap)
        name = report.thread_names[thread] \
            if thread < len(report.thread_names) else f"t{thread}"
        parts.append(f'<text x="{gutter - 8}" y="{y + row_h - 4}" '
                     f'text-anchor="end">{_esc(name)}</text>')
        parts.append(f'<rect x="{gutter}" y="{y}" width="{plot_w}" '
                     f'height="{row_h}" rx="3" fill="var(--state-idle)"/>')
        for first, last, state in _state_runs(trace, thread, buckets):
            x = gutter + first * scale
            w = max(1.0, (last - first) * scale)
            c_lo = first * span // buckets
            c_hi = last * span // buckets
            parts.append(
                f'<rect x="{x:.1f}" y="{y}" width="{w:.1f}" '
                f'height="{row_h}" rx="3" fill="{_STATE_FILL[state]}">'
                f'<title>{_esc(name)}: {state.name.title()} '
                f'~cycles {_fmt(c_lo)}-{_fmt(c_hi)}</title></rect>')
    axis_y = top + trace.num_threads * (row_h + gap) + 12
    parts.append(f'<text x="{gutter}" y="{axis_y}">0</text>')
    parts.append(f'<text x="{gutter + plot_w}" y="{axis_y}" '
                 f'text-anchor="end">{_fmt(trace.end_cycle)} cycles</text>')
    parts.append("</svg>")
    return "".join(parts)


def _state_legend() -> str:
    entries = [("Running", "var(--state-running)"),
               ("Critical", "var(--state-critical)"),
               ("Spinning", "var(--state-spinning)"),
               ("Idle", "var(--state-idle)")]
    spans = "".join(
        f'<span style="margin-right:14px">'
        f'<span class="swatch" style="background:{color}"></span>'
        f'{name}</span>' for name, color in entries)
    return f'<p class="legend">{spans}</p>'


# ----------------------------------------------------------------------
# series panels
# ----------------------------------------------------------------------
def _series_svg(values: np.ndarray, unit: str, color_var: str,
                end_cycle: int, peak: Optional[float] = None,
                width: int = 960, height: int = 150) -> str:
    data = bucket_means(np.asarray(values, dtype=float), SERIES_POINTS)
    gutter, top, bottom = 64, 10, 20
    plot_w, plot_h = width - gutter - 12, height - top - bottom
    y_max = _nice_ceiling(max(float(data.max()), peak or 0.0))
    n = data.size

    def x_of(i: float) -> float:
        return gutter + (i / max(1, n)) * plot_w

    def y_of(v: float) -> float:
        return top + plot_h * (1 - v / y_max)

    parts = [f'<svg viewBox="0 0 {width} {height}" width="100%" '
             f'role="img" aria-label="{_esc(unit)} over time">']
    # hairline gridlines + clean tick labels
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        gy = y_of(y_max * frac)
        parts.append(f'<line x1="{gutter}" y1="{gy:.1f}" '
                     f'x2="{gutter + plot_w}" y2="{gy:.1f}" '
                     f'stroke="var(--grid)" stroke-width="1"/>')
        label = f"{y_max * frac:g}"
        parts.append(f'<text x="{gutter - 6}" y="{gy + 4:.1f}" '
                     f'text-anchor="end">{label}</text>')
    # area wash + 2px line
    pts = [f"{x_of(i + 0.5):.1f},{y_of(v):.1f}" for i, v in enumerate(data)]
    if pts:
        base_y = y_of(0.0)
        area = (f"{x_of(0.5):.1f},{base_y:.1f} " + " ".join(pts)
                + f" {x_of(n - 0.5):.1f},{base_y:.1f}")
        parts.append(f'<polygon points="{area}" fill="{color_var}" '
                     f'opacity="0.1"/>')
        parts.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                     f'stroke="{color_var}" stroke-width="2" '
                     f'stroke-linejoin="round" stroke-linecap="round"/>')
        # direct-label the series maximum (selective, not every point)
        peak_i = int(data.argmax())
        px, py = x_of(peak_i + 0.5), y_of(data[peak_i])
        parts.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="4" '
                     f'fill="{color_var}" stroke="var(--surface-1)" '
                     f'stroke-width="2"/>')
        anchor = "end" if peak_i > n * 0.8 else "start"
        dx = -8 if anchor == "end" else 8
        parts.append(f'<text class="v" x="{px + dx:.1f}" y="{py - 6:.1f}" '
                     f'text-anchor="{anchor}">{data[peak_i]:.2f} '
                     f'{_esc(unit)}</text>')
    # configured platform peak as a labeled reference line
    if peak:
        ry = y_of(peak)
        parts.append(f'<line x1="{gutter}" y1="{ry:.1f}" '
                     f'x2="{gutter + plot_w}" y2="{ry:.1f}" '
                     f'stroke="var(--text-secondary)" stroke-width="1"/>')
        parts.append(f'<text x="{gutter + plot_w}" y="{ry - 4:.1f}" '
                     f'text-anchor="end">platform peak {peak:g} '
                     f'{_esc(unit)}</text>')
    axis_y = height - 5
    parts.append(f'<text x="{gutter}" y="{axis_y}">0</text>')
    parts.append(f'<text x="{gutter + plot_w}" y="{axis_y}" '
                 f'text-anchor="end">{_fmt(end_cycle)} cycles</text>')
    parts.append("</svg>")
    return "".join(parts)


# ----------------------------------------------------------------------
# tables & tiles
# ----------------------------------------------------------------------
def _tiles(report: TraceReport) -> str:
    tiles = [
        (_fmt(report.cycles), "cycles"),
        (f"{report.seconds * 1e6:,.1f} µs",
         f"wall @ {report.clock_mhz:g} MHz"),
        (f"{report.bandwidth_gbs:.2f} GB/s", "avg bandwidth"),
        (f"{report.gflops:.3f}", "avg GFLOP/s"),
        (f"{100 * report.efficiency.parallel:.1f}%", "parallel efficiency"),
        (_esc(str(report.diagnosis.primary)), "primary bottleneck"),
    ]
    cells = "".join(f'<div class="tile"><div class="v">{value}</div>'
                    f'<div class="k">{key}</div></div>'
                    for value, key in tiles)
    return f'<div class="tiles">{cells}</div>'


def _bar_row(name: str, value: float, extra: str = "") -> str:
    pct = max(0.0, min(1.0, value))
    return (f"<tr><td>{_esc(name)}</td>"
            f'<td><span class="bar-track"><span class="bar-fill" '
            f'style="width:{100 * pct:.1f}%"></span></span></td>'
            f"<td>{100 * value:.2f}%</td><td>{extra}</td></tr>")


def _efficiency_table(report: TraceReport) -> str:
    eff = report.efficiency
    rows = [
        _bar_row("parallel", eff.parallel, "= balance × sync × transfer"),
        _bar_row("balance", eff.balance, "load balance across threads"),
        _bar_row("sync", eff.sync, "loss to lock spinning"),
        _bar_row("transfer", eff.transfer,
                 "loss to idle/staggered starts"),
        _bar_row("pipeline", eff.pipeline,
                 "useful / (useful + stalls) (annotation)"),
    ]
    return ('<table><tr><th>efficiency</th><th></th><th>value</th>'
            '<th>meaning</th></tr>' + "".join(rows) + "</table>")


def _state_table(report: TraceReport) -> str:
    order = (ThreadState.RUNNING, ThreadState.CRITICAL,
             ThreadState.SPINNING, ThreadState.IDLE)
    colors = {ThreadState.RUNNING: "var(--state-running)",
              ThreadState.CRITICAL: "var(--state-critical)",
              ThreadState.SPINNING: "var(--state-spinning)",
              ThreadState.IDLE: "var(--state-idle)"}
    rows = []
    for state in order:
        fraction = report.state_fractions.get(state, 0.0)
        cycles = sum(t.get(state, 0) for t in report.thread_states)
        rows.append(
            f'<tr><td><span class="swatch" '
            f'style="background:{colors[state]}"></span>'
            f"{state.name.title()}</td><td>{_fmt(cycles)}</td>"
            f"<td>{100 * fraction:.2f}%</td></tr>")
    return ('<table><tr><th>state</th><th>thread-cycles</th>'
            '<th>share</th></tr>' + "".join(rows) + "</table>")


# stall-cause palette: useful stays the state green, the DRAM family
# shares warm hues, scheduling losses go cool/neutral
_CAUSE_COLORS = {
    "useful": "var(--state-running)",
    "ii_limit": "#8d6cc7",
    "local_port_conflict": "#2a78d6",
    "dram_latency": "#eb6834",
    "dram_arbitration": "#c9a227",
    "dram_row_miss": "#e34948",
    "sync_wait": "#14857c",
    "drain": "#9b9890",
    "control": "#52514e",
}


def _attribution_panel(report: TraceReport, top: int = 8) -> str:
    """Per-region stacked attribution bars + whole-run cause table."""

    summary = report.attribution
    assert summary is not None
    parts = ["<h3>Cycle accounting (stall-cause attribution)</h3>"]
    if not summary.invariant_ok:
        parts.append('<p class="meta"><strong>accounting invariant '
                     'violated</strong> — useful + Σ causes != cycles for '
                     f'{len(summary.violations)} thread(s)</p>')
    total = summary.total_thread_cycles or 1
    rows = []
    for name, value in summary.causes.items():
        if value == 0 and name != "useful":
            continue
        color = _CAUSE_COLORS.get(name, "var(--grid)")
        rows.append(
            f'<tr><td><span class="swatch" style="background:{color}">'
            f"</span>{_esc(name)}</td><td>{_fmt(value)}</td>"
            f"<td>{100 * value / total:.2f}%</td></tr>")
    parts.append('<table><tr><th>cause</th><th>thread-cycles</th>'
                 '<th>share</th></tr>' + "".join(rows) + "</table>")

    regions = [row for row in summary.regions
               if row["lost"] > 0 or row["useful"] > 0][:top]
    if regions:
        widest = max(row["useful"] + row["lost"] for row in regions) or 1
        cells = []
        for row in regions:
            segs = [("useful", row["useful"])]
            segs += sorted(row["causes"].items(), key=lambda kv: -kv[1])
            stacked = []
            for name, value in segs:
                if value <= 0:
                    continue
                width = 100 * value / widest
                color = _CAUSE_COLORS.get(name, "var(--grid)")
                stacked.append(
                    f'<span class="bar-fill" style="display:inline-block;'
                    f'width:{width:.2f}%;background:{color}" '
                    f'title="{_esc(name)}: {_fmt(value)} cycles"></span>')
            bar = (f'<span class="bar-track" style="width:340px;'
                   f'white-space:nowrap">{"".join(stacked)}</span>')
            dominant = max(row["causes"].items(), key=lambda kv: kv[1])[0] \
                if row["causes"] else "–"
            cells.append(
                f"<tr><td>{_esc(row['label'])}</td><td>{bar}</td>"
                f"<td>{_fmt(row['lost'])}</td>"
                f"<td>{_esc(dominant)}</td></tr>")
        parts.append('<table><tr><th>region</th>'
                     '<th>useful + losses (stacked)</th>'
                     '<th>lost</th><th>dominant cause</th></tr>'
                     + "".join(cells) + "</table>")
        legend = "".join(
            f'<span style="margin-right:14px">'
            f'<span class="swatch" style="background:{color}"></span>'
            f"{_esc(name)}</span>"
            for name, color in _CAUSE_COLORS.items())
        parts.append(f'<p class="legend">{legend}</p>')
    return "".join(parts)


def _comparison_table(reports: Sequence[TraceReport]) -> str:
    rows = comparison_rows(reports)
    cells = []
    for row in rows:
        overlap = f"{row['overlap_fraction']:.2f}" \
            if row["overlap_fraction"] is not None else "–"
        cells.append(
            f"<tr><td>{_esc(row['label'])}</td>"
            f"<td>{_fmt(row['cycles'])}</td>"
            f"<td>{row['speedup']:.2f}×</td>"
            f"<td>{100 * row['parallel_efficiency']:.1f}%</td>"
            f"<td>{100 * row['balance']:.1f}%</td>"
            f"<td>{100 * row['sync']:.1f}%</td>"
            f"<td>{100 * row['transfer']:.1f}%</td>"
            f"<td>{row['bandwidth_gbs']:.2f}</td>"
            f"<td>{row['gflops']:.3f}</td>"
            f"<td>{overlap}</td>"
            f"<td>{_esc(row['primary_bottleneck'])}</td></tr>")
    return ('<table><tr><th>trace</th><th>cycles</th><th>speedup</th>'
            '<th>par.eff</th><th>balance</th><th>sync</th>'
            '<th>transfer</th><th>GB/s</th><th>GFLOP/s</th>'
            '<th>overlap</th><th>bottleneck</th></tr>'
            + "".join(cells) + "</table>")


def _run_section(report: TraceReport) -> str:
    parts = [f'<section class="run"><h2>{_esc(report.label)}</h2>']
    if report.source:
        parts.append(f'<p class="meta">{_esc(report.source)}</p>')
    parts.append(_tiles(report))
    parts.append("<h3>Efficiency hierarchy (POP-style)</h3>")
    parts.append(_efficiency_table(report))
    if report.missing_counters:
        parts.append(f'<p class="meta">counters not recorded: '
                     f'{_esc(", ".join(report.missing_counters))} — '
                     f'phase/bandwidth panels limited.</p>')
    if report.trace is not None:
        parts.append("<h3>Per-thread state timeline</h3>")
        parts.append("<figure>" + _gantt_svg(report) + "</figure>")
        parts.append(_state_legend())
    parts.append("<h3>State attribution</h3>")
    parts.append(_state_table(report))
    if report.attribution is not None:
        parts.append(_attribution_panel(report))
    if report.bandwidth_series.size:
        parts.append("<figure><figcaption>External-memory bandwidth "
                     "(GB/s) per sampling window</figcaption>"
                     + _series_svg(report.bandwidth_series, "GB/s",
                                   "var(--series-1)", report.cycles,
                                   peak=report.peaks.bandwidth_gbs)
                     + "</figure>")
    if report.gflops_series.size:
        parts.append("<figure><figcaption>Floating-point rate (GFLOP/s) "
                     "per sampling window</figcaption>"
                     + _series_svg(report.gflops_series, "GFLOP/s",
                                   "var(--series-2)", report.cycles,
                                   peak=report.peaks.gflops)
                     + "</figure>")
    if report.phases is not None:
        phases = report.phases
        parts.append(
            f'<p class="meta">phases: {phases.load_windows} load-only, '
            f'{phases.compute_windows} compute-only, '
            f'{phases.overlap_windows} overlapping, '
            f'{phases.idle_windows} idle windows — overlap fraction '
            f'{phases.overlap_fraction:.2f}</p>')
    parts.append("<h3>Automatic diagnosis</h3>")
    parts.append(f"<p><strong>{_esc(str(report.diagnosis.primary))}"
                 "</strong></p>")
    findings = "".join(f"<li>{_esc(finding)}</li>"
                       for finding in report.diagnosis.findings)
    parts.append(f'<ul class="findings">{findings}</ul>')
    parts.append("</section>")
    return "".join(parts)


def render_html(reports: Sequence[TraceReport],
                title: str = "Trace analysis report") -> str:
    """Render one-or-many reports as a single self-contained HTML page."""

    body = [f"<h1>{_esc(title)}</h1>",
            f'<p class="meta">repro trace-native analysis · '
            f'{len(reports)} trace{"s" if len(reports) != 1 else ""} · '
            f'no external resources</p>']
    if len(reports) > 1:
        body.append("<h2>Comparison (baseline = first trace)</h2>")
        body.append(_comparison_table(reports))
    for report in reports:
        body.append(_run_section(report))
    return render_page(title, "".join(body))


def render_page(title: str, body_html: str) -> str:
    """Wrap pre-built body HTML in the report page chrome.

    Shared by the trace reports here and by the ``repro.explore`` Pareto
    report so every generated page has the same stylesheet and the same
    guarantees: one file, no scripts, no network fetches.  ``body_html``
    is trusted markup — escape any interpolated values with
    ``html.escape`` before building it.
    """

    return ("<!DOCTYPE html>\n"
            '<html lang="en"><head><meta charset="utf-8">\n'
            f"<title>{_esc(title)}</title>\n"
            f"<style>{_CSS}</style></head>\n"
            f'<body class="viz-root">{body_html}</body></html>\n')


def write_html(reports: Sequence[TraceReport], path: str,
               title: str = "Trace analysis report") -> None:
    with open(path, "w") as out:
        out.write(render_html(reports, title=title))
