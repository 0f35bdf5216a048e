"""Merging per-worker telemetry snapshots into one unified timeline.

A parallel sweep runs every job in its own process; each worker
captures its spans/counters/gauges into an isolated registry
(:meth:`Telemetry.capture`), snapshots it losslessly
(:meth:`Telemetry.snapshot`, schema ``repro.telemetry/1``) and ships
the snapshot back through the ``repro.sweep/1`` result envelope tagged
with the job id and worker pid.  This module folds those snapshots —
plus the parent session's own spans — into one Chrome-trace/Perfetto
file:

* each worker **process** becomes a Perfetto process track (real pid);
* each **job** becomes a thread track inside its worker's process
  (sequential jobs in one worker get distinct tids, so inline
  ``--jobs 1`` sweeps render one lane per job too);
* timelines are aligned on the shared wall clock: every snapshot
  records its ``wall_start`` (``time.time()`` at capture), so a span's
  merged timestamp is ``(wall_start - base) * 1e6 + start_us``.

The CLI front door is ``repro timeline <results.json>``; the per-job
phase breakdown table (:func:`render_job_breakdown`) also rides along
in ``render_summary`` output whenever a session holds job snapshots.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Optional

from .core import SNAPSHOT_SCHEMA

__all__ = [
    "merged_chrome_events", "merged_chrome_payload", "render_merged_trace",
    "write_merged_trace", "snapshots_from_sweep_doc", "merge_sweep_doc",
    "job_phase_breakdown", "render_job_breakdown",
]


# ----------------------------------------------------------------------
# merging
# ----------------------------------------------------------------------
def _check_snapshot(snap: Any, where: str) -> dict:
    if not isinstance(snap, dict):
        raise ValueError(f"{where}: telemetry snapshot must be a dict, "
                         f"got {type(snap).__name__}")
    if snap.get("schema") != SNAPSHOT_SCHEMA:
        raise ValueError(f"{where}: snapshot schema is "
                         f"{snap.get('schema')!r}, expected "
                         f"{SNAPSHOT_SCHEMA!r}")
    return snap


def merged_chrome_events(snapshots: Iterable[dict],
                         parent: Optional[dict] = None) -> list[dict]:
    """Chrome trace events for N worker snapshots (+ parent session).

    ``snapshots`` are :meth:`Telemetry.snapshot` dicts, each optionally
    tagged with ``job`` (job id) and ``status`` by the sweep runner.  ``parent`` is the dispatching session's own snapshot; its
    spans (the ``sweep`` umbrella, spec loading, result writing) land
    on a dedicated thread track.  Chrome ``pid`` is the snapshot's real
    OS pid; jobs that shared one process get consecutive ``tid``s.
    """

    jobs = [_check_snapshot(s, f"snapshot #{i}")
            for i, s in enumerate(snapshots)]
    if parent is not None:
        parent = _check_snapshot(parent, "parent snapshot")
    if not jobs and parent is None:
        raise ValueError("nothing to merge: no telemetry snapshots given")

    walls = [s["wall_start"] for s in jobs]
    if parent is not None:
        walls.append(parent["wall_start"])
    base_wall = min(walls)

    events: list[dict] = []
    next_tid: dict[int, int] = {}  # pid -> next free thread track

    def emit(snap: dict, tid: int, process_name: str,
             thread_name: str, umbrella: Optional[str]) -> None:
        pid = int(snap.get("pid", 0))
        offset_us = (snap["wall_start"] - base_wall) * 1e6
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": tid, "ts": 0, "args": {"name": process_name}})
        events.append({"ph": "M", "name": "thread_name", "pid": pid,
                       "tid": tid, "ts": 0, "args": {"name": thread_name}})
        spans = sorted(snap.get("spans", []), key=lambda s: s["start_ns"])
        if umbrella is not None and spans:
            start = min(s["start_ns"] for s in spans)
            end = max(s["end_ns"] for s in spans)
            args = {"job": umbrella, "pid": pid}
            for key in ("status", "wall_s"):
                if snap.get(key) is not None:
                    args[key] = snap[key]
            events.append({"ph": "X", "name": umbrella, "cat": "sweep.job",
                           "ts": round(offset_us + start / 1e3, 3),
                           "dur": round((end - start) / 1e3, 3),
                           "pid": pid, "tid": tid, "args": args})
        for record in spans:
            event = {"ph": "X", "name": record["name"],
                     "cat": record.get("cat", "toolchain"),
                     "ts": round(offset_us + record["start_ns"] / 1e3, 3),
                     "dur": round((record["end_ns"]
                                   - record["start_ns"]) / 1e3, 3),
                     "pid": pid, "tid": tid}
            if record.get("args"):
                event["args"] = record["args"]
            events.append(event)

    if parent is not None:
        pid = int(parent.get("pid", 0))
        next_tid[pid] = 1
        emit(parent, 0, f"repro sweep (pid {pid})", "dispatcher", None)
    for index, snap in enumerate(jobs):
        pid = int(snap.get("pid", 0))
        tid = next_tid.get(pid, 1)
        next_tid[pid] = tid + 1
        job_id = str(snap.get("job") or f"job-{index}")
        emit(snap, tid, f"repro worker (pid {pid})", job_id, job_id)
    # Perfetto wants metadata first, then a monotone-ish event stream.
    meta = [e for e in events if e["ph"] == "M"]
    rest = sorted((e for e in events if e["ph"] != "M"),
                  key=lambda e: e["ts"])
    return meta + rest


def merged_chrome_payload(snapshots: Iterable[dict],
                          parent: Optional[dict] = None,
                          name: str = "sweep") -> dict:
    """The full Chrome-trace JSON document for a merged timeline."""

    snapshots = list(snapshots)
    pids = sorted({int(s.get("pid", 0)) for s in snapshots})
    return {
        "traceEvents": merged_chrome_events(snapshots, parent),
        "displayTimeUnit": "ms",
        "otherData": {
            "tool": "repro-telemetry-merge",
            "sweep": name,
            "jobs": len(snapshots),
            "worker_pids": pids,
        },
    }


def render_merged_trace(snapshots: Iterable[dict],
                        parent: Optional[dict] = None,
                        name: str = "sweep") -> str:
    return json.dumps(merged_chrome_payload(snapshots, parent, name),
                      indent=1, sort_keys=True, default=str)


def write_merged_trace(path: str, snapshots: Iterable[dict],
                       parent: Optional[dict] = None,
                       name: str = "sweep") -> None:
    with open(path, "w") as out:
        out.write(render_merged_trace(snapshots, parent, name) + "\n")


# ----------------------------------------------------------------------
# sweep result documents
# ----------------------------------------------------------------------
def snapshots_from_sweep_doc(doc: dict) -> tuple[list[dict],
                                                 Optional[dict]]:
    """(per-job snapshots, parent snapshot) from a ``repro.sweep/1`` doc.

    Raises ``ValueError`` when no job carries telemetry — the sweep was
    run by an older version or with capture explicitly disabled.
    """

    if not isinstance(doc, dict) or not isinstance(doc.get("jobs"), list):
        raise ValueError("expected a repro.sweep/1 result document with "
                         "a 'jobs' list")
    snapshots = []
    for index, job in enumerate(doc["jobs"]):
        snap = job.get("telemetry")
        if snap is None:
            continue
        snap = _check_snapshot(snap, f"jobs[{index}].telemetry")
        snap.setdefault("job", job.get("id", f"job-{index}"))
        snap.setdefault("status", job.get("status"))
        snapshots.append(snap)
    if not snapshots:
        raise ValueError(
            "no per-job telemetry in this sweep result; re-run the sweep "
            "with a repro version that captures worker telemetry "
            "(repro sweep ... --out results.json)")
    parent = doc.get("telemetry")
    if parent is not None:
        parent = _check_snapshot(parent, "telemetry")
    return snapshots, parent


def merge_sweep_doc(doc: dict) -> dict:
    """Merged Chrome-trace payload for a ``repro.sweep/1`` document."""

    snapshots, parent = snapshots_from_sweep_doc(doc)
    return merged_chrome_payload(snapshots, parent,
                                 name=str(doc.get("name", "sweep")))


# ----------------------------------------------------------------------
# per-job breakdown table
# ----------------------------------------------------------------------
def job_phase_breakdown(snap: dict) -> dict[str, float]:
    """Wall-ms attribution of one job snapshot to toolchain phases."""

    phases = snap.get("phases_ms", {})
    compile_ms = phases.get("frontend", 0.0) + phases.get("hls", 0.0)
    sim_ms = phases.get("sim", 0.0)
    trace_ms = phases.get("paraver", 0.0)
    total_ms = float(snap.get("wall_s", 0.0)) * 1e3
    if not total_ms:
        total_ms = sum(phases.values())
    other_ms = max(0.0, total_ms - compile_ms - sim_ms - trace_ms)
    return {"total_ms": total_ms, "compile_ms": compile_ms,
            "sim_ms": sim_ms, "trace_ms": trace_ms, "other_ms": other_ms}


def render_job_breakdown(snapshots: Iterable[dict]) -> str:
    """Per-job toolchain breakdown table + the five slowest jobs.

    Columns separate compile time (frontend + HLS) from simulate and trace-write time, so one look
    answers "where did this sweep's wall clock go, per job".
    """

    snapshots = list(snapshots)
    lines = ["per-job toolchain breakdown (wall ms)",
             f"{'job':34} {'status':>7} {'total':>9} "
             f"{'compile':>9} {'sim':>9} {'trace':>7}",
             "-" * 80]
    if not snapshots:
        # A sweep where every job failed still renders a stable table:
        # downstream log scrapers key on this line, not on its absence.
        lines.append("(no jobs)")
        return "\n".join(lines) + "\n"
    for snap in snapshots:
        parts = job_phase_breakdown(snap)
        job = str(snap.get("job", "?"))
        status = str(snap.get("status") or "?")
        lines.append(
            f"{job:34} {status:>7} {parts['total_ms']:9.1f} "
            f"{parts['compile_ms']:9.1f} {parts['sim_ms']:9.1f} "
            f"{parts['trace_ms']:7.1f}")
    ranked = sorted(snapshots,
                    key=lambda s: job_phase_breakdown(s)["total_ms"],
                    reverse=True)[:5]
    if len(snapshots) > 1 and ranked:
        slowest_bits = ", ".join(
            f"{s.get('job', '?')} "
            f"({job_phase_breakdown(s)['total_ms'] / 1e3:.2f}s)"
            for s in ranked)
        lines += ["", f"slowest jobs: {slowest_bits}"]
    return "\n".join(lines) + "\n"
