"""Exporters for the toolchain telemetry registry.

Three output shapes, pleasingly symmetric with the Paraver pipeline the
toolchain emits for the *simulated hardware*:

* :func:`render_summary` — human-readable table (span tree, counters,
  gauges) for terminal use;
* :func:`write_jsonl` — one JSON object per line (a ``meta`` record,
  then ``span``/``counter``/``gauge`` records), the storage format the
  ``repro stats`` subcommand reads back;
* :func:`write_chrome_trace` — Chrome trace-event JSON loadable in
  Perfetto or ``chrome://tracing`` (``ph:"X"`` complete events with
  microsecond timestamps, ordered monotonically by ``ts``).
"""

from __future__ import annotations

import json
import os
from typing import Any, Optional

from .core import SpanRecord, Telemetry

__all__ = [
    "render_summary", "chrome_trace_events", "render_chrome_trace",
    "write_chrome_trace", "write_jsonl", "read_jsonl",
    "summarize_records", "export",
]

_SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# human-readable summary
# ----------------------------------------------------------------------
def render_summary(telemetry: Telemetry) -> str:
    """Render the span tree + counters + gauges as an aligned table."""

    lines = ["toolchain telemetry summary",
             "===========================", ""]
    if telemetry.spans:
        lines.append(f"{'span':44} {'total ms':>10} {'calls':>6}")
        lines.append("-" * 62)
        lines.extend(_tree_lines(telemetry.spans))
    else:
        lines.append("(no spans recorded)")
    if telemetry.counters:
        lines += ["", f"{'counter':44} {'value':>16}", "-" * 62]
        for name in sorted(telemetry.counters):
            lines.append(f"{name:44} {_fmt_num(telemetry.counters[name]):>16}")
    if telemetry.gauges:
        lines += ["", f"{'gauge':44} {'value':>16}", "-" * 62]
        for name in sorted(telemetry.gauges):
            lines.append(f"{name:44} {_fmt_num(telemetry.gauges[name]):>16}")
    snapshots = getattr(telemetry, "job_snapshots", None)
    if snapshots:
        from .merge import render_job_breakdown
        lines += ["", render_job_breakdown(snapshots).rstrip("\n")]
    return "\n".join(lines) + "\n"


def _fmt_num(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return f"{int(value):,}"
    return f"{value:,.3f}"


def _tree_lines(spans: list[SpanRecord]) -> list[str]:
    """Aggregate spans by (parent-name-path) and render indented rows."""

    # Path of each span id -> tuple of names from root
    by_id = {record.id: record for record in spans}
    paths: dict[int, tuple[str, ...]] = {}

    def path_of(record: SpanRecord) -> tuple[str, ...]:
        cached = paths.get(record.id)
        if cached is not None:
            return cached
        if record.parent == -1 or record.parent not in by_id:
            path: tuple[str, ...] = (record.name,)
        else:
            path = path_of(by_id[record.parent]) + (record.name,)
        paths[record.id] = path
        return path

    totals: dict[tuple[str, ...], tuple[float, int]] = {}
    order: list[tuple[str, ...]] = []
    for record in sorted(spans, key=lambda r: r.start_ns):
        path = path_of(record)
        if path not in totals:
            totals[path] = (0.0, 0)
            order.append(path)
        ms, calls = totals[path]
        totals[path] = (ms + record.duration_ms, calls + 1)

    # Render parents before children, preserving first-seen order.
    first_seen = {path: index for index, path in enumerate(order)}
    ordered = sorted(order, key=lambda p: tuple(
        first_seen.get(p[:i + 1], len(order)) for i in range(len(p))))
    lines = []
    for path in ordered:
        ms, calls = totals[path]
        label = "  " * (len(path) - 1) + path[-1]
        lines.append(f"{label:44} {ms:10.3f} {calls:6d}")
    return lines


# ----------------------------------------------------------------------
# JSON-lines metrics file
# ----------------------------------------------------------------------
def jsonl_records(telemetry: Telemetry) -> list[dict[str, Any]]:
    """The registry as a list of plain-dict records (jsonl lines)."""

    records: list[dict[str, Any]] = [{
        "kind": "meta", "schema": _SCHEMA_VERSION,
        "tool": "repro-telemetry", "wall_start": telemetry.wall_start,
    }]
    for record in sorted(telemetry.spans, key=lambda r: r.start_ns):
        entry: dict[str, Any] = {
            "kind": "span", "id": record.id, "parent": record.parent,
            "name": record.name, "cat": record.category,
            "ts_us": round(record.start_us, 3),
            "dur_us": round(record.duration_us, 3),
            "depth": record.depth,
        }
        if record.args:
            entry["args"] = record.args
        records.append(entry)
    for name in sorted(telemetry.counters):
        records.append({"kind": "counter", "name": name,
                        "value": telemetry.counters[name]})
    for name in sorted(telemetry.gauges):
        records.append({"kind": "gauge", "name": name,
                        "value": telemetry.gauges[name]})
    return records


def write_jsonl(telemetry: Telemetry, path: str) -> None:
    """Write the registry as a JSON-lines metrics file."""

    with open(path, "w") as out:
        for record in jsonl_records(telemetry):
            out.write(json.dumps(record, sort_keys=True) + "\n")


def read_jsonl(path: str) -> list[dict[str, Any]]:
    """Read a metrics file back; raises ``ValueError`` on garbled input."""

    records: list[dict[str, Any]] = []
    with open(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: not JSON: {exc}") from exc
            if not isinstance(record, dict) or "kind" not in record:
                raise ValueError(f"{path}:{line_no}: not a telemetry record")
            records.append(record)
    if not records:
        raise ValueError(f"{path}: empty metrics file")
    return records


def summarize_records(records: list[dict[str, Any]]) -> str:
    """Per-phase summary of a metrics file (the ``repro stats`` view)."""

    spans = [r for r in records if r.get("kind") == "span"]
    counters = [r for r in records if r.get("kind") == "counter"]
    gauges = [r for r in records if r.get("kind") == "gauge"]

    lines = ["telemetry metrics", "================="]
    if spans:
        phase_ms: dict[str, float] = {}
        phase_calls: dict[str, int] = {}
        order: list[str] = []
        for record in spans:
            if record.get("parent", -1) != -1:
                continue
            name = record["name"]
            if name not in phase_ms:
                phase_ms[name] = 0.0
                phase_calls[name] = 0
                order.append(name)
            phase_ms[name] += record.get("dur_us", 0.0) / 1e3
            phase_calls[name] += 1
        total = sum(phase_ms.values()) or 1.0
        lines += ["", f"{'phase':24} {'total ms':>10} {'share':>7} {'calls':>6}",
                  "-" * 50]
        for name in order:
            lines.append(f"{name:24} {phase_ms[name]:10.3f} "
                         f"{100 * phase_ms[name] / total:6.1f}% "
                         f"{phase_calls[name]:6d}")
        nested: dict[str, tuple[float, int]] = {}
        nested_order: list[tuple[int, str]] = []
        for record in spans:
            if record.get("parent", -1) == -1:
                continue
            key = (record.get("depth", 1), record["name"])
            if record["name"] not in nested:
                nested[record["name"]] = (0.0, 0)
                nested_order.append(key)
            ms, calls = nested[record["name"]]
            nested[record["name"]] = (ms + record.get("dur_us", 0.0) / 1e3,
                                      calls + 1)
        if nested:
            lines += ["", f"{'nested span':24} {'total ms':>10} {'calls':>6}",
                      "-" * 50]
            for depth, name in nested_order:
                ms, calls = nested[name]
                label = "  " * max(0, depth - 1) + name
                lines.append(f"{label:24} {ms:10.3f} {calls:6d}")
    else:
        lines.append("(no spans)")
    if counters:
        lines += ["", f"{'counter':40} {'value':>16}", "-" * 58]
        for record in counters:
            lines.append(f"{record['name']:40} "
                         f"{_fmt_num(record['value']):>16}")
    if gauges:
        lines += ["", f"{'gauge':40} {'value':>16}", "-" * 58]
        for record in gauges:
            lines.append(f"{record['name']:40} "
                         f"{_fmt_num(record['value']):>16}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Chrome trace-event JSON (Perfetto / chrome://tracing)
# ----------------------------------------------------------------------
def chrome_trace_events(telemetry: Telemetry, *,
                        pid: Optional[int] = None,
                        tid: Optional[int] = None) -> list[dict[str, Any]]:
    """Trace events ordered monotonically by ``ts`` (microseconds).

    Events carry the *real* pid/tid of the recording process (captured
    on the registry at creation) so traces from several processes can
    be concatenated and still render as distinct process tracks in
    Perfetto; ``pid``/``tid`` override that mapping.
    """

    pid = int(pid if pid is not None
              else getattr(telemetry, "pid", 0) or os.getpid())
    tid = int(tid if tid is not None
              else getattr(telemetry, "tid", 0) or pid)
    events: list[dict[str, Any]] = [
        {"ph": "M", "name": "process_name", "pid": pid, "tid": tid, "ts": 0,
         "args": {"name": "repro toolchain"}},
        {"ph": "M", "name": "thread_name", "pid": pid, "tid": tid, "ts": 0,
         "args": {"name": "compile→simulate→trace"}},
    ]
    last_ts = 0.0
    for record in sorted(telemetry.spans, key=lambda r: r.start_ns):
        ts = round(record.start_us, 3)
        event: dict[str, Any] = {
            "ph": "X", "name": record.name, "cat": record.category,
            "ts": ts, "dur": round(record.duration_us, 3),
            "pid": pid, "tid": tid,
        }
        if record.args:
            event["args"] = record.args
        events.append(event)
        if ts > last_ts:
            last_ts = ts
    # Counter samples at the end of the timeline, one track per counter.
    for name in sorted(telemetry.counters):
        events.append({"ph": "C", "name": name, "pid": pid, "ts": last_ts,
                       "args": {"value": telemetry.counters[name]}})
    return events


def render_chrome_trace(telemetry: Telemetry) -> str:
    payload = {
        "traceEvents": chrome_trace_events(telemetry),
        "displayTimeUnit": "ms",
        "otherData": {
            "tool": "repro-telemetry",
            "wall_start": telemetry.wall_start,
            "gauges": dict(sorted(telemetry.gauges.items())),
        },
    }
    return json.dumps(payload, indent=1, sort_keys=True)


def write_chrome_trace(telemetry: Telemetry, path: str) -> None:
    """Write a Chrome trace-event JSON file."""

    with open(path, "w") as out:
        out.write(render_chrome_trace(telemetry) + "\n")


# ----------------------------------------------------------------------
def export(telemetry: Telemetry, fmt: str,
           path: Optional[str] = None) -> Optional[str]:
    """Export in ``fmt`` (``summary``/``jsonl``/``chrome``).

    With ``path`` the output is written there and ``None`` is returned;
    without, the rendered text is returned for printing.
    """

    if fmt == "summary":
        text = render_summary(telemetry)
    elif fmt == "jsonl":
        if path is not None:
            write_jsonl(telemetry, path)
            return None
        text = "\n".join(json.dumps(r, sort_keys=True)
                         for r in jsonl_records(telemetry)) + "\n"
    elif fmt == "chrome":
        text = render_chrome_trace(telemetry) + "\n"
    else:
        raise ValueError(f"unknown telemetry format {fmt!r}")
    if path is None:
        return text
    with open(path, "w") as out:
        out.write(text)
    return None
