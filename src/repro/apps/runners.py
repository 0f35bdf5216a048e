"""Convenience runners for the case-study applications.

These wrap the full flow (frontend -> HLS -> simulation -> trace) with
the right macro sets and reference checks, so examples, tests and
benchmarks all exercise exactly the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ..core.program import Program, ProgramResult
from ..hls.cache import CompileCache
from ..hls.compiler import Accelerator, HLSOptions
from ..sim.config import SimConfig
from ..sim.executor import SimResult
from .gemm import gemm_defines, gemm_source
from .pi import PI_SOURCE, pi_defines

__all__ = ["GemmRun", "PiRun", "compile_gemm", "compile_pi", "run_gemm",
           "run_pi"]


def compile_gemm(version: str, num_threads: int = 8, vector_len: int = 4,
                 block_size: int = 8, options: Optional[HLSOptions] = None,
                 compile_cache: Optional[CompileCache] = None) -> Accelerator:
    """Compile one GEMM version without simulating it.

    Builds the exact same :class:`~repro.core.program.Program` as
    :func:`run_gemm` (DIM is a runtime argument, so the compile does not
    depend on it), which means the compile-cache key is identical: an
    accelerator compiled here for analytic scoring is a guaranteed cache
    hit when the same configuration is later simulated for real.
    """

    defines = gemm_defines(version, num_threads=num_threads,
                           vector_len=vector_len, block_size=block_size)
    program = Program(gemm_source(version), defines=defines,
                      options=options, compile_cache=compile_cache)
    return program.accelerator


def compile_pi(num_threads: int = 8, bs_compute: int = 8,
               options: Optional[HLSOptions] = None,
               compile_cache: Optional[CompileCache] = None) -> Accelerator:
    """Compile the π kernel without simulating it (cache-key-identical
    to :func:`run_pi` for the same thread count and blocking factor)."""

    program = Program(PI_SOURCE, defines=pi_defines(bs_compute),
                      const_env={"threads": num_threads},
                      options=options, compile_cache=compile_cache)
    return program.accelerator


@dataclass
class GemmRun:
    """Result of one GEMM version's simulation.

    ``A``/``B`` are required: the ``partials``/``correct`` checks need
    the inputs, so every constructor must populate them (they used to
    default to ``None``, which crashed callers that skipped them).
    """

    version: str
    dim: int
    result: SimResult
    C: np.ndarray
    reference: np.ndarray
    accelerator: Accelerator
    A: np.ndarray
    B: np.ndarray
    num_threads: int = 8

    @property
    def cycles(self) -> int:
        return self.result.cycles

    def report(self, label: Optional[str] = None, peaks=None):
        """Trace report of this run (see :mod:`repro.report`)."""

        from ..report import build_report
        return build_report(self.result, label=label or
                            f"gemm-{self.version}", peaks=peaks)

    @property
    def correct(self) -> bool:
        """Does C match its expected value?

        The paper-exact ``naive`` version keeps, per element, the partial
        sum of whichever thread wrote last (its critical section protects
        a plain store, Fig. 3) — so each element must match *one* of the
        per-thread k-slice partial sums.  Every other version computes
        the full product.
        """

        if self.version == "naive":
            return bool(np.all(
                np.any(np.abs(self.C[None, :] - self.partials) <= 1e-3
                       + 1e-3 * np.abs(self.partials), axis=0)))
        return bool(np.allclose(self.C, self.reference, rtol=1e-3, atol=1e-3))

    @property
    def partials(self) -> np.ndarray:
        """[threads, DIM*DIM] per-thread k-slice partial sums (naive check)."""

        dim, threads = self.dim, self.num_threads
        A2 = self.A.reshape(dim, dim)
        B2 = self.B.reshape(dim, dim)
        return np.stack([(A2[:, t::threads] @ B2[t::threads, :]).ravel()
                         for t in range(threads)])


def check_problem_size(name: str, value: int) -> None:
    """Refuse a GEMM ``DIM``, a π ``steps`` or a count that is not positive.

    :func:`run_gemm` and :func:`run_pi` apply it to the problem size,
    and every sweep :class:`~repro.sweep.JobSpec` applies it to its size,
    thread count and knobs when it is made, so a bad job fails before
    any job is dispatched.
    """

    if value <= 0:
        raise ValueError(f"{name}={value} must be positive")


def run_gemm(version: str, dim: int = 64, num_threads: int = 8,
             seed: int = 42, options: Optional[HLSOptions] = None,
             sim_config: Optional[SimConfig] = None,
             vector_len: int = 4, block_size: int = 8,
             compile_cache: Optional[CompileCache] = None,
             attribution: bool = False) -> GemmRun:
    """Compile and simulate one GEMM version on random matrices.

    ``attribution=True`` turns on cycle accounting (stall-cause
    attribution) without the caller having to build a ``SimConfig``.
    """

    check_problem_size("DIM", dim)
    if dim % block_size != 0:
        raise ValueError(f"DIM={dim} must be a multiple of "
                         f"BLOCK_SIZE={block_size}")
    if dim % num_threads != 0:
        raise ValueError(f"DIM={dim} must be a multiple of "
                         f"num_threads={num_threads}")
    rng = np.random.default_rng(seed)
    A = rng.random(dim * dim, dtype=np.float32)
    B = rng.random(dim * dim, dtype=np.float32)
    C = np.zeros(dim * dim, dtype=np.float32)
    reference = (A.reshape(dim, dim) @ B.reshape(dim, dim)).ravel()

    defines = gemm_defines(version, num_threads=num_threads,
                           vector_len=vector_len, block_size=block_size)
    cfg = sim_config or SimConfig(thread_start_interval=50)
    if attribution and not cfg.attribution:
        cfg = replace(cfg, attribution=True)
    program = Program(gemm_source(version), defines=defines,
                      options=options, sim_config=cfg,
                      compile_cache=compile_cache)
    outcome: ProgramResult = program.run(A=A, B=B, C=C, DIM=dim)
    return GemmRun(version, dim, outcome.sim, C, reference,
                   program.accelerator, A=A, B=B, num_threads=num_threads)


@dataclass
class PiRun:
    """Result of one π-series simulation."""

    steps: int
    value: float
    result: SimResult
    accelerator: Accelerator

    @property
    def cycles(self) -> int:
        return self.result.cycles

    @property
    def gflops(self) -> float:
        return self.result.gflops

    @property
    def error(self) -> float:
        return abs(self.value - float(np.pi))

    def report(self, label: Optional[str] = None, peaks=None):
        """Trace report of this run (see :mod:`repro.report`)."""

        from ..report import build_report
        return build_report(self.result, label=label or
                            f"pi-{self.steps}", peaks=peaks)


def run_pi(steps: int, num_threads: int = 8, bs_compute: int = 8,
           options: Optional[HLSOptions] = None,
           sim_config: Optional[SimConfig] = None,
           compile_cache: Optional[CompileCache] = None,
           attribution: bool = False) -> PiRun:
    """Compile and simulate the π series for ``steps`` iterations."""

    check_problem_size("steps", steps)
    if steps % (num_threads * bs_compute) != 0:
        raise ValueError(f"steps={steps} must divide evenly over "
                         f"{num_threads} threads x BS_compute={bs_compute}")
    cfg = sim_config
    if attribution:
        cfg = replace(cfg or SimConfig(), attribution=True)
    program = Program(PI_SOURCE, defines=pi_defines(bs_compute),
                      const_env={"threads": num_threads},
                      options=options, sim_config=cfg,
                      compile_cache=compile_cache)
    outcome = program.run(steps=steps, threads=num_threads)
    return PiRun(steps, float(outcome.value), outcome.sim,
                 program.accelerator)
