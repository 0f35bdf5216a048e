"""Per-pass compile time of the stock kernels, mini-C source to accelerator.

Times each pass of the flow on its own — lexer, parser, sema, lower,
the transform pipeline, validation, the scheduler and the area estimate
(with and without the profiling unit, from one walk) — and then the
whole :class:`repro.core.program.Program` constructor, as the
end-to-end benchmark builds it.  Each figure is the median over
``--reps`` runs of the sum over the group's kernels: ``pi`` is the π
kernel, ``gemm5`` the paper's five GEMM versions.

Run it from a checkout (opt-in; not part of the test suite)::

    PYTHONPATH=src python benchmarks/compile_time.py
    PYTHONPATH=src python benchmarks/compile_time.py --reps 40
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from repro.apps.gemm import GEMM_VERSIONS, gemm_defines
from repro.apps.pi import PI_SOURCE, pi_defines
from repro.core.program import Program
from repro.frontend import (analyze_function, find_kernel_function,
                            lower_to_kernel, tokenize)
from repro.frontend.parser import Parser
from repro.hls.area import estimate_areas
from repro.hls.schedule import schedule_kernel
from repro.hls.transforms import run_pipeline
from repro.ir.validate import validate_kernel
from repro.profiling.config import ProfilingConfig

PASSES = ("lexer", "parser", "sema", "lower", "transforms", "validate",
          "schedule", "area", "Program()")

GROUPS = {
    "pi": [(PI_SOURCE, pi_defines(), {"threads": 8})],
    "gemm5": [(source, gemm_defines(name), {})
              for name, source in GEMM_VERSIONS.items()],
}


def time_passes(source: str, defines: dict, const_env: dict) -> dict[str, float]:
    """Seconds each pass takes on one kernel, plus the whole ``Program()``."""

    clock = time.perf_counter
    took: dict[str, float] = {}
    start = clock()
    tokens = tokenize(source, defines=defines)
    took["lexer"] = clock() - start
    start = clock()
    unit = Parser(tokens).parse_translation_unit()
    took["parser"] = clock() - start
    start = clock()
    sema = analyze_function(find_kernel_function(unit))
    took["sema"] = clock() - start
    start = clock()
    kernel = lower_to_kernel(sema, const_env=const_env)
    took["lower"] = clock() - start
    start = clock()
    run_pipeline(kernel)
    took["transforms"] = clock() - start
    start = clock()
    validate_kernel(kernel)
    took["validate"] = clock() - start
    start = clock()
    schedule = schedule_kernel(kernel)
    took["schedule"] = clock() - start
    start = clock()
    estimate_areas(schedule, ProfilingConfig())
    took["area"] = clock() - start
    start = clock()
    Program(source, defines=defines, const_env=const_env)
    took["Program()"] = clock() - start
    return took


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=20)
    args = parser.parse_args(argv)

    print(f"{'pass':<12}" + "".join(f"{name:>10}" for name in GROUPS)
          + "   (ms, median of {} reps)".format(args.reps))
    medians: dict[str, dict[str, float]] = {}
    for group, kernels in GROUPS.items():
        for spec in kernels:  # warm imports and caches outside the timing
            time_passes(*spec)
        runs = []
        for _ in range(args.reps):
            total = dict.fromkeys(PASSES, 0.0)
            for spec in kernels:
                for name, seconds in time_passes(*spec).items():
                    total[name] += seconds
            runs.append(total)
        medians[group] = {name: 1e3 * statistics.median(r[name] for r in runs)
                          for name in PASSES}
    for name in PASSES:
        print(f"{name:<12}" + "".join(f"{medians[group][name]:>10.2f}"
                                      for group in GROUPS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
