"""Machine-readable sweep results: the repo's benchmark trajectory.

``repro sweep --out BENCH_<name>.json`` writes one of these documents
(schema ``repro.sweep/1``); :func:`validate_sweep_dict` /
:func:`validate_sweep_file` check them structurally so CI can assert a
sweep artifact is well-formed before archiving it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["JobResult", "SweepResult", "validate_sweep_dict",
           "validate_sweep_file", "SWEEP_SCHEMA"]

SWEEP_SCHEMA = "repro.sweep/1"

#: every terminal state one job can end in
JOB_STATUSES = ("ok", "failed", "timeout", "crashed")


@dataclass
class JobResult:
    """Outcome of one sweep job (picklable across worker processes)."""

    job_id: str
    spec: dict                       # the JobSpec, as plain values
    status: str = "ok"               # one of JOB_STATUSES
    cycles: Optional[int] = None
    gflops: Optional[float] = None
    bandwidth_gbs: Optional[float] = None
    correct: Optional[bool] = None   # gemm result check
    value: Optional[float] = None    # pi return value
    value_error: Optional[float] = None  # |pi - value|
    wall_s: float = 0.0              # worker wall-clock for this job
    attempts: int = 1
    error: Optional[str] = None      # failure summary ("Type: message")
    traceback: Optional[str] = None  # full traceback for failures
    report_path: Optional[str] = None  # per-job report.json, if requested
    #: lossless ``repro.telemetry/1`` snapshot captured around the job,
    #: tagged with job id / worker pid (see ``repro timeline``)
    telemetry: Optional[dict] = field(default=None, repr=False)
    #: the full in-memory run object (GemmRun/PiRun) when keep_runs was
    #: requested; excluded from to_dict()/JSON
    run: Any = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        doc = {
            "id": self.job_id,
            "spec": dict(self.spec),
            "status": self.status,
            "wall_s": round(self.wall_s, 6),
            "attempts": self.attempts,
        }
        for key in ("cycles", "gflops", "bandwidth_gbs", "correct", "value",
                    "value_error", "error", "traceback", "report_path",
                    "telemetry"):
            val = getattr(self, key)
            if val is not None:
                doc[key] = val
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "JobResult":
        return cls(job_id=doc["id"], spec=doc.get("spec", {}),
                   status=doc.get("status", "ok"),
                   cycles=doc.get("cycles"), gflops=doc.get("gflops"),
                   bandwidth_gbs=doc.get("bandwidth_gbs"),
                   correct=doc.get("correct"), value=doc.get("value"),
                   value_error=doc.get("value_error"),
                   wall_s=doc.get("wall_s", 0.0),
                   attempts=doc.get("attempts", 1),
                   error=doc.get("error"), traceback=doc.get("traceback"),
                   report_path=doc.get("report_path"),
                   telemetry=doc.get("telemetry"))


@dataclass
class SweepResult:
    """All jobs of one sweep, in spec order, plus aggregate totals."""

    name: str
    jobs: list[JobResult]
    wall_s: float = 0.0
    parallel_jobs: int = 1
    #: the dispatching session's own telemetry snapshot, when enabled
    telemetry: Optional[dict] = field(default=None, repr=False)

    @property
    def ok(self) -> list[JobResult]:
        return [job for job in self.jobs if job.status == "ok"]

    @property
    def failed(self) -> list[JobResult]:
        return [job for job in self.jobs if job.status != "ok"]

    def totals(self) -> dict:
        by_status = {status: 0 for status in JOB_STATUSES}
        for job in self.jobs:
            by_status[job.status] = by_status.get(job.status, 0) + 1
        return {
            "jobs": len(self.jobs),
            **by_status,
            "wall_s": round(self.wall_s or 0.0, 6),
            "parallel_jobs": self.parallel_jobs,
        }

    def to_dict(self) -> dict:
        import os
        doc = {
            "schema": SWEEP_SCHEMA,
            "name": self.name,
            # wall-clock speedup from --jobs N is bounded by the host's
            # cores; record them so benchmark numbers stay interpretable
            "host": {"cpus": os.cpu_count() or 1},
            "totals": self.totals(),
            "jobs": [job.to_dict() for job in self.jobs],
        }
        if self.telemetry is not None:
            doc["telemetry"] = self.telemetry
        return doc

    def to_json(self, path: Optional[str] = None) -> str:
        text = json.dumps(self.to_dict(), indent=2, sort_keys=False,
                          default=str)
        if path is not None:
            with open(path, "w") as handle:
                handle.write(text + "\n")
        return text


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def _fail(message: str) -> None:
    raise ValueError(f"invalid sweep result: {message}")


def validate_sweep_dict(doc: Any) -> dict:
    """Structurally validate a sweep result document; returns it."""

    if not isinstance(doc, dict):
        _fail(f"expected an object, got {type(doc).__name__}")
    if doc.get("schema") != SWEEP_SCHEMA:
        _fail(f"schema is {doc.get('schema')!r}, expected {SWEEP_SCHEMA!r}")
    jobs = doc.get("jobs")
    if not isinstance(jobs, list) or not jobs:
        _fail("'jobs' must be a non-empty list")
    for index, job in enumerate(jobs):
        where = f"jobs[{index}]"
        if not isinstance(job, dict):
            _fail(f"{where} must be an object")
        if not isinstance(job.get("id"), str) or not job["id"]:
            _fail(f"{where} needs a non-empty string 'id'")
        status = job.get("status")
        if status not in JOB_STATUSES:
            _fail(f"{where} status {status!r} not in {JOB_STATUSES}")
        if status == "ok":
            cycles = job.get("cycles")
            if not isinstance(cycles, int) or cycles <= 0:
                _fail(f"{where} is ok but has no positive integer 'cycles'")
        elif not job.get("error"):
            _fail(f"{where} is {status} but carries no 'error'")
        if not isinstance(job.get("wall_s"), (int, float)):
            _fail(f"{where} needs a numeric 'wall_s'")
    totals = doc.get("totals")
    if not isinstance(totals, dict):
        _fail("'totals' must be an object")
    if totals.get("jobs") != len(jobs):
        _fail(f"totals.jobs is {totals.get('jobs')!r} but {len(jobs)} jobs "
              "are listed")
    counted = sum(totals.get(status, 0) for status in JOB_STATUSES)
    if counted != len(jobs):
        _fail(f"totals status counts sum to {counted}, expected {len(jobs)}")
    return doc


def validate_sweep_file(path: str) -> dict:
    """Validate a sweep result JSON file; returns the parsed document."""

    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read sweep result {path!r}: "
                         f"{exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path!r} is not valid JSON: {exc}") from exc
    return validate_sweep_dict(doc)
