"""Batch sweep execution: specs, parallel runner, results, validation.

``repro sweep`` (and :func:`run_sweep` programmatically) executes a
list of compile→simulate jobs — serially or fanned out over a process
pool — with per-job timeout, retry-once-on-crash, a shared
content-addressed compile cache, and a machine-readable result document
(schema ``repro.sweep/1``).  See DESIGN.md §8.

Live observability (DESIGN.md §10): pass ``progress=`` a
:class:`TTYProgress` for a live progress line; per-job telemetry
snapshots ride back on each :class:`JobResult` for ``repro timeline``.
"""

from .progress import TTYProgress
from .results import (JOB_STATUSES, SWEEP_SCHEMA, JobResult, SweepResult,
                      validate_sweep_dict, validate_sweep_file)
from .runner import JobTimeout, execute_job, run_sweep
from .spec import (JobSpec, SweepSpec, expand_jobs, gemm_sweep, load_spec,
                   pi_sweep)

__all__ = [
    "JobSpec", "SweepSpec", "expand_jobs", "gemm_sweep", "pi_sweep",
    "load_spec", "execute_job", "run_sweep", "JobTimeout", "JobResult",
    "SweepResult", "validate_sweep_dict", "validate_sweep_file",
    "SWEEP_SCHEMA", "JOB_STATUSES", "TTYProgress",
]
