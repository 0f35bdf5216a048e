"""The top of the HLS flow: source/IR -> scheduled, characterized accelerator.

:class:`HLSCompiler` bundles the pass pipeline (unroll, simplify, DCE),
the static scheduler, the dependence analysis and the area/timing model
into a single entry point, and produces an :class:`Accelerator` object
that the simulator (:mod:`repro.sim`) can execute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

from .. import telemetry
from ..frontend import compile_to_kernel
from ..ir.graph import Kernel
from ..ir.validate import validate_kernel
from ..profiling.config import ProfilingConfig
from .area import AreaReport, estimate_areas
from .schedule import KernelSchedule, schedule_kernel
from .transforms import run_pipeline

__all__ = ["HLSOptions", "Accelerator", "HLSCompiler", "compile_source"]


@dataclass(frozen=True)
class HLSOptions:
    """Knobs of the HLS flow: what the embedded profiling unit records.

    The schedule's latency assumptions are constants of
    :mod:`repro.hls.schedule`, and the transform pipeline always runs.
    """

    profiling: ProfilingConfig = field(default_factory=ProfilingConfig)


@dataclass
class Accelerator:
    """A compiled accelerator: schedule + resource reports.

    ``area`` is the design as built (with the profiling unit if enabled);
    ``baseline_area`` is the same accelerator with the profiling unit
    stripped, so overheads (§V-B) can be reported as
    ``area.overhead_vs(baseline_area)``.
    """

    kernel: Kernel
    schedule: KernelSchedule
    options: HLSOptions
    area: AreaReport
    baseline_area: AreaReport
    transform_stats: dict[str, int] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.kernel.name

    @property
    def num_threads(self) -> int:
        return self.kernel.num_threads

    def profiling_overhead(self) -> dict[str, float]:
        """Registers/ALMs/Fmax overhead of the profiling infrastructure."""

        return self.area.overhead_vs(self.baseline_area)


class HLSCompiler:
    """Compiles IR kernels (or mini-C sources) into accelerators."""

    def __init__(self, options: Optional[HLSOptions] = None):
        self.options = options or HLSOptions()

    def compile(self, kernel: Kernel) -> Accelerator:
        """Compile an IR kernel (mutates it: transforms run in place)."""

        with telemetry.span("hls", category="hls", kernel=kernel.name):
            with telemetry.span("hls.transforms", category="hls"):
                stats = run_pipeline(kernel)
            for pass_name, count in stats.items():
                telemetry.add(f"hls.transform.{pass_name}", count)
            with telemetry.span("hls.validate", category="hls"):
                validate_kernel(kernel)
            with telemetry.span("hls.schedule", category="hls"):
                schedule = schedule_kernel(kernel)
            self._record_schedule_telemetry(schedule)
            with telemetry.span("hls.area", category="hls"):
                area, baseline = estimate_areas(schedule,
                                                self.options.profiling)
            telemetry.set_gauge("hls.fmax_mhz", area.fmax_mhz)
            return Accelerator(kernel, schedule, self.options, area,
                               baseline, stats)

    @staticmethod
    def _record_schedule_telemetry(schedule: KernelSchedule) -> None:
        if not telemetry.telemetry_enabled():
            return
        loops = list(schedule.body.walk_loops())
        pipelined = [loop for loop in loops if loop.pipelined]
        telemetry.add("hls.loops.scheduled", len(loops))
        telemetry.add("hls.loops.pipelined", len(pipelined))
        telemetry.add("hls.stages", schedule.total_stages)
        telemetry.add("hls.stages.reordering", schedule.reordering_stages)
        if pipelined:
            telemetry.set_gauge("hls.ii.best",
                                min(loop.ii for loop in pipelined))
            telemetry.set_gauge("hls.ii.worst",
                                max(loop.ii for loop in pipelined))

    def compile_source(self, source: str,
                       defines: Optional[Mapping[str, Union[int, float, str]]] = None,
                       const_env: Optional[Mapping[str, int]] = None,
                       filename: str = "<source>") -> Accelerator:
        """Frontend + HLS in one call."""

        kernel = compile_to_kernel(source, filename=filename, defines=defines,
                                   const_env=const_env)
        return self.compile(kernel)


def compile_source(source: str,
                   defines: Optional[Mapping[str, Union[int, float, str]]] = None,
                   const_env: Optional[Mapping[str, int]] = None,
                   options: Optional[HLSOptions] = None) -> Accelerator:
    """Convenience wrapper: mini-C source -> accelerator."""

    return HLSCompiler(options).compile_source(source, defines=defines,
                                               const_env=const_env)
