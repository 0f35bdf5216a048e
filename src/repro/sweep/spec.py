"""Sweep job specifications: what one batch run consists of.

A sweep is a list of :class:`JobSpec` — fully value-typed descriptions
of one compile→simulate job (app, version, problem size, thread count,
seeds and knobs).  Workers receive *specs*, never compiled objects:
each worker re-derives source + macro set from its spec and compiles
it, which keeps the executor's pickles tiny and sidesteps shipping
`Accelerator` object graphs across process boundaries, where object
identity does not survive (see DESIGN.md §8).

Specs come from three places:

* a JSON spec file (``{"jobs": [{...}, ...], "defaults": {...},
  "repeat": K}``),
* the ``gemm`` shorthand — the paper's five-version optimization
  journey at one (dim, threads) point,
* the ``pi`` shorthand — the π iteration-count scaling sweep.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from typing import Optional, Sequence

from ..apps.gemm import EXTRA_VERSIONS, GEMM_VERSIONS
from ..apps.runners import check_problem_size

__all__ = ["JobSpec", "SweepSpec", "expand_jobs", "gemm_sweep", "pi_sweep",
           "load_spec"]

#: the paper's 1M/4M/10M-iteration π runs (Figs. 11-13)
PI_DEFAULT_STEPS = (1_000_000, 4_000_000, 10_000_000)
#: thread-start stagger used by the π case study (§V-D): calibrated so
#: the sweep reproduces the paper's staggering and GFLOP/s growth
PI_DEFAULT_START_INTERVAL = 375_000


@dataclass(frozen=True)
class JobSpec:
    """One compile→simulate job, fully described by plain values."""

    app: str                          # "gemm" | "pi"
    version: Optional[str] = None     # gemm kernel version
    dim: int = 64                     # gemm matrix dimension
    steps: int = 32_000               # pi iteration count
    threads: int = 8
    seed: int = 42                    # gemm input matrices
    vector_len: int = 4
    block_size: int = 8
    bs_compute: int = 8               # pi blocking factor
    #: cycles between host thread starts; None = the app's default
    start_interval: Optional[int] = None
    repeat_index: int = 0
    label: Optional[str] = None

    def __post_init__(self):
        if self.app not in ("gemm", "pi"):
            raise ValueError(f"unknown app {self.app!r} (expected 'gemm' "
                             "or 'pi')")
        if self.app == "gemm":
            known = set(GEMM_VERSIONS) | set(EXTRA_VERSIONS)
            if self.version is not None and self.version not in known:
                raise ValueError(f"unknown GEMM version {self.version!r}; "
                                 f"choose from {sorted(known)}")
            check_problem_size("DIM", self.dim)
        else:
            check_problem_size("steps", self.steps)
        for name in ("threads", "vector_len", "block_size", "bs_compute"):
            check_problem_size(name, getattr(self, name))
        if self.start_interval is not None and self.start_interval < 0:
            raise ValueError(f"start_interval={self.start_interval} must "
                             "not be negative")

    @property
    def job_id(self) -> str:
        base = self.label
        if base is None:
            if self.app == "gemm":
                base = f"gemm-{self.version}-d{self.dim}-t{self.threads}"
            else:
                base = f"pi-{self.steps}-t{self.threads}"
        return f"{base}-r{self.repeat_index}"

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown job spec fields {sorted(unknown)}; "
                             f"known: {sorted(cls.__dataclass_fields__)}")
        if "app" not in data:
            raise ValueError("job spec needs an 'app' field ('gemm' or 'pi')")
        if data["app"] == "gemm" and data.get("version") is None:
            raise ValueError("gemm job spec needs a 'version' field")
        return cls(**data)


@dataclass
class SweepSpec:
    """A parsed sweep: jobs plus where they came from."""

    jobs: list[JobSpec]
    name: str = "sweep"
    repeat: int = 1

    def expanded(self, repeat: Optional[int] = None) -> list[JobSpec]:
        """Jobs replicated ``repeat`` times with distinct repeat_index."""

        return expand_jobs(self.jobs, repeat if repeat is not None
                           else self.repeat)


def expand_jobs(jobs: Sequence[JobSpec], repeat: int = 1) -> list[JobSpec]:
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    out = []
    for job in jobs:
        for index in range(repeat):
            out.append(replace(job, repeat_index=index))
    seen: dict[str, int] = {}
    duplicates: dict[str, int] = {}
    for job in out:
        job_id = job.job_id
        if job_id in seen:
            duplicates[job_id] = duplicates.get(job_id, 1) + 1
        seen[job_id] = seen.get(job_id, 0) + 1
    if duplicates:
        listed = ", ".join(f"{job_id!r} x{count}"
                           for job_id, count in sorted(duplicates.items()))
        raise ValueError(
            f"duplicate job ids in sweep: {listed}; results are keyed by "
            "job id, so jobs sharing a 'label' (or identical spec fields) "
            "would clobber each other — give each job a distinct label")
    return out


# ----------------------------------------------------------------------
# shorthands
# ----------------------------------------------------------------------
def gemm_sweep(dim: int = 64, threads: int = 8,
               versions: Optional[Sequence[str]] = None,
               seed: int = 42) -> SweepSpec:
    """The paper's five-version GEMM journey at one problem size."""

    versions = list(versions) if versions is not None else list(GEMM_VERSIONS)
    jobs = [JobSpec(app="gemm", version=version, dim=dim, threads=threads,
                    seed=seed) for version in versions]
    return SweepSpec(jobs, name=f"gemm-d{dim}-t{threads}")


def pi_sweep(steps: Sequence[int] = PI_DEFAULT_STEPS, threads: int = 8,
             start_interval: int = PI_DEFAULT_START_INTERVAL) -> SweepSpec:
    """The π iteration-count scaling sweep (paper Figs. 11-13)."""

    jobs = [JobSpec(app="pi", steps=count, threads=threads,
                    start_interval=start_interval) for count in steps]
    return SweepSpec(jobs, name=f"pi-t{threads}")


# ----------------------------------------------------------------------
# spec files
# ----------------------------------------------------------------------
#: every top-level key a sweep spec document may carry
SPEC_DOC_KEYS = ("jobs", "defaults", "repeat", "name")


def parse_spec_dict(doc: dict, name: str = "sweep") -> SweepSpec:
    if not isinstance(doc, dict) or "jobs" not in doc:
        raise ValueError("sweep spec must be an object with a 'jobs' list")
    unknown = set(doc) - set(SPEC_DOC_KEYS)
    if unknown:
        raise ValueError(f"unknown sweep spec fields {sorted(unknown)}; "
                         f"known: {sorted(SPEC_DOC_KEYS)}")
    raw_jobs = doc["jobs"]
    if not isinstance(raw_jobs, list) or not raw_jobs:
        raise ValueError("sweep spec 'jobs' must be a non-empty list")
    defaults = doc.get("defaults", {})
    if not isinstance(defaults, dict):
        raise ValueError("sweep spec 'defaults' must be an object")
    jobs = []
    for index, raw in enumerate(raw_jobs):
        if not isinstance(raw, dict):
            raise ValueError(f"job #{index} must be an object, got "
                             f"{type(raw).__name__}")
        try:
            jobs.append(JobSpec.from_dict({**defaults, **raw}))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"job #{index}: {exc}") from exc
    repeat = doc.get("repeat", 1)
    if not isinstance(repeat, int) or repeat < 1:
        raise ValueError(f"sweep spec 'repeat' must be a positive integer, "
                         f"got {repeat!r}")
    return SweepSpec(jobs, name=str(doc.get("name", name)), repeat=repeat)


def load_spec(target: str, dim: int = 64, threads: int = 8) -> SweepSpec:
    """Resolve a CLI spec argument: shorthand name or JSON file path."""

    if target == "gemm":
        return gemm_sweep(dim=dim, threads=threads)
    if target == "pi":
        return pi_sweep(threads=threads)
    try:
        with open(target) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ValueError(
            f"cannot read sweep spec {target!r}: {exc.strerror or exc} "
            "(expected a JSON spec file, or the shorthand 'gemm'/'pi')"
        ) from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{target!r} is not valid JSON: {exc}") from exc
    import os
    name = os.path.splitext(os.path.basename(target))[0]
    return parse_spec_dict(doc, name=name)
