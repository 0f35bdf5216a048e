"""Micro-benchmark of the simulation engine's scheduling cost.

:class:`repro.sim.engine.Engine` resumes a process in one of two ways.
A process that yields a delay and is still the sole runnable one (its
wake-up comes strictly before every queued event) steps inline; any
other resume is a heap round trip (``heappush`` then ``heappop``).
This script times both against a bare loop that resumes the same kind
of generator with ``next()``, then counts how a naive GEMM run splits
its dispatches between the two, and so bounds what a scheduler that
skips the engine could save on that run.

Run it from a checkout (opt-in; not part of the test suite)::

    PYTHONPATH=src python benchmarks/engine_dispatch.py
    PYTHONPATH=src python benchmarks/engine_dispatch.py --dim 32
"""

from __future__ import annotations

import argparse
import heapq
import statistics
import sys
import time

from repro.sim.engine import Engine

STEPS = 200_000


def ticker(steps: int):
    for _ in range(steps):
        yield 1


def bare(steps: int) -> None:
    step = ticker(steps).__next__
    for _ in range(steps):
        step()


def inline(steps: int) -> None:
    """One process: every resume is an inline sole-runnable step."""

    engine = Engine()
    engine.spawn(ticker(steps))
    engine.run()


def heap(steps: int) -> None:
    """Two processes in lockstep: each wake-up ties with the other's,
    so every resume goes through the heap."""

    engine = Engine()
    engine.spawn(ticker(steps // 2))
    engine.spawn(ticker(steps // 2))
    engine.run()


def per_step_us(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn(STEPS)
        times.append(time.perf_counter() - start)
    return 1e6 * statistics.median(times) / STEPS


def dispatches(dim: int) -> tuple[int, int, float]:
    """(resumes, heap pops, simulate seconds) of naive GEMM at ``dim``."""

    from repro.apps import run_gemm
    from repro.telemetry import get_telemetry

    pops = 0
    real_pop = heapq.heappop

    def counting_pop(items):
        nonlocal pops
        pops += 1
        return real_pop(items)

    heapq.heappop = counting_pop
    try:
        with get_telemetry().capture(enabled=True) as session:
            start = time.perf_counter()
            run_gemm("naive", dim=dim)
            took = time.perf_counter() - start
            resumes = int(session.counters["sim.events_fired"])
    finally:
        heapq.heappop = real_pop
    return resumes, pops, took


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=9)
    parser.add_argument("--dim", type=int, default=48,
                        help="naive GEMM size whose dispatches are counted")
    args = parser.parse_args(argv)

    base = per_step_us(bare, args.reps)
    inline_us = per_step_us(inline, args.reps) - base
    heap_us = per_step_us(heap, args.reps) - base
    print(f"bare generator resume    {base:.3f} us")
    print(f"inline sole-runnable     +{inline_us:.3f} us per resume")
    print(f"heap round trip          +{heap_us:.3f} us per resume")

    resumes, pops, took = dispatches(args.dim)
    cost = ((resumes - pops) * inline_us + pops * heap_us) / 1e6
    print(f"naive DIM={args.dim}: {resumes} resumes, {pops} through the "
          f"heap; scheduling ~{1e3 * cost:.0f} ms of {took:.2f} s "
          f"({100 * cost / took:.1f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
