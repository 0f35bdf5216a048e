"""Design-space definition: which configurations explore considers.

A :class:`Candidate` is one point of the space — a fully value-typed
:class:`~repro.sweep.spec.JobSpec` (so survivors drop straight into
``run_sweep``) plus the knob values that distinguish it.  Knobs are
only enumerated where the kernel actually exposes them (de Fine Licht
et al.'s transformation catalog, PAPERS.md): the scalar GEMM versions
take no knobs, ``vectorized`` exposes the vector length, and the tiled
versions expose vector length × block size.  Invalid combinations
(``block_size % vector_len``, ``dim % block_size``, ``dim % threads``,
π's ``steps % (threads * bs)``) are filtered out at enumeration time,
so every candidate is runnable by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..apps.gemm import EXTRA_VERSIONS, GEMM_VERSIONS
from ..sweep.spec import (
    PI_DEFAULT_START_INTERVAL, PI_DEFAULT_STEPS, JobSpec,
)

__all__ = ["Candidate", "ExploreSpace", "GEMM_KNOBS", "gemm_space",
           "pi_space"]

#: which tuning knobs each GEMM version actually reads (the others are
#: macro-defined but dead, so enumerating them would only duplicate
#: identical hardware)
GEMM_KNOBS: dict[str, tuple[str, ...]] = {
    "naive": (),
    "naive_sum": (),
    "no_critical": (),
    "vectorized": ("vector_len",),
    "blocked": ("vector_len", "block_size"),
    "double_buffered": ("vector_len", "block_size"),
    "preloaded": ("vector_len", "block_size"),
}


@dataclass(frozen=True)
class Candidate:
    """One point of the design space."""

    spec: JobSpec
    #: exposed knob name -> value (only knobs this kernel reads)
    knobs: tuple[tuple[str, int], ...] = ()

    @property
    def id(self) -> str:
        # the enumerators always set a label, so this is stable and
        # human-readable ("gemm-blocked-d64-t8-vl4-bs8")
        return self.spec.label or self.spec.job_id

    def knob_dict(self) -> dict[str, int]:
        return dict(self.knobs)


@dataclass
class ExploreSpace:
    """An enumerated design space ready for scoring and pruning."""

    app: str
    candidates: list[Candidate] = field(default_factory=list)
    name: str = "explore"

    def __post_init__(self):
        seen: set[str] = set()
        for candidate in self.candidates:
            if candidate.id in seen:
                raise ValueError(f"duplicate candidate id {candidate.id!r} "
                                 "in explore space")
            seen.add(candidate.id)

    def __len__(self) -> int:
        return len(self.candidates)


def gemm_space(dims: Sequence[int] = (64,), threads: Sequence[int] = (8,),
               versions: Optional[Sequence[str]] = None,
               vector_lens: Sequence[int] = (2, 4),
               block_sizes: Sequence[int] = (4, 8),
               seed: int = 42) -> ExploreSpace:
    """Enumerate GEMM version × dim × threads × exposed-knob combos.

    The default space covers all seven kernel versions (the paper's
    five plus the ``naive_sum``/``preloaded`` extras) with the knob
    grid applied only where a version reads the knob — 17 candidates at
    one (dim, threads) point.
    """

    if versions is None:
        versions = list(GEMM_VERSIONS) + list(EXTRA_VERSIONS)
    unknown = set(versions) - set(GEMM_KNOBS)
    if unknown:
        raise ValueError(f"unknown GEMM versions {sorted(unknown)}; "
                         f"choose from {sorted(GEMM_KNOBS)}")
    candidates: list[Candidate] = []
    for dim in dims:
        for nthreads in threads:
            if dim % nthreads:
                continue
            for version in versions:
                exposed = GEMM_KNOBS[version]
                for vl, bs in _gemm_knob_grid(exposed, vector_lens,
                                              block_sizes):
                    if dim % bs:
                        continue
                    label = f"gemm-{version}-d{dim}-t{nthreads}"
                    knobs: list[tuple[str, int]] = []
                    if "vector_len" in exposed:
                        label += f"-vl{vl}"
                        knobs.append(("vector_len", vl))
                    if "block_size" in exposed:
                        label += f"-bs{bs}"
                        knobs.append(("block_size", bs))
                    spec = JobSpec(app="gemm", version=version, dim=dim,
                                   threads=nthreads, seed=seed,
                                   vector_len=vl, block_size=bs,
                                   label=label)
                    candidates.append(Candidate(spec, tuple(knobs)))
    name = "gemm-explore-d" + "x".join(str(d) for d in dims)
    return ExploreSpace("gemm", candidates, name=name)


def _gemm_knob_grid(exposed: tuple[str, ...], vector_lens: Sequence[int],
                    block_sizes: Sequence[int]):
    """Valid (vector_len, block_size) pairs for one version."""

    if "block_size" in exposed:
        for vl in vector_lens:
            for bs in block_sizes:
                if bs % vl == 0:
                    yield vl, bs
    elif "vector_len" in exposed:
        for vl in vector_lens:
            # block size is dead here but still macro-checked: pick any
            # legal value so gemm_defines accepts the combination
            bs = 8 if 8 % vl == 0 else vl
            yield vl, bs
    else:
        yield 4, 8  # both knobs dead; one canonical compile


def pi_space(steps: Sequence[int] = PI_DEFAULT_STEPS,
             threads: Sequence[int] = (8,),
             bs_compute: Sequence[int] = (4, 8),
             start_interval: int = PI_DEFAULT_START_INTERVAL) -> ExploreSpace:
    """Enumerate π iteration-count × threads × blocking-factor combos."""

    candidates: list[Candidate] = []
    for count in steps:
        for nthreads in threads:
            for bs in bs_compute:
                if count % (nthreads * bs):
                    continue
                label = f"pi-{count}-t{nthreads}-bs{bs}"
                spec = JobSpec(app="pi", steps=count, threads=nthreads,
                               bs_compute=bs, start_interval=start_interval,
                               label=label)
                candidates.append(Candidate(
                    spec, (("bs_compute", bs),)))
    return ExploreSpace("pi", candidates, name="pi-explore")
