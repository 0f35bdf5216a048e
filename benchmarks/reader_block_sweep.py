"""Block-size sweep of the ``.prv`` reader: CPU time and peak RSS.

The reader (:mod:`repro.paraver.parser`) reads a trace in blocks of
``BLOCK_BYTES``; per block it makes a fixed number of array
operations, and its temporaries grow with the block.  This script
measures both sides of that trade on traces like those perfbench's
``trace_analysis`` workload compares: the five GEMM versions at DIM=64.

For each block size a fresh process imports the toolchain, notes its
peak RSS, builds a report from each of the five traces ``--reps``
times, and prints the fastest pass over the five, the naive trace's
fastest read rate and the peak RSS growth above imports.  Times are
process CPU seconds and the best of the repetitions, which a busy
shared host disturbs least (the reader is single-threaded and does no
waiting).

Run it from a checkout (opt-in; not part of the test suite)::

    PYTHONPATH=src python benchmarks/reader_block_sweep.py
    PYTHONPATH=src python benchmarks/reader_block_sweep.py --sizes 64,256
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

DIM = 64
DEFAULT_SIZES_KIB = (32, 64, 128, 256, 512, 1024)


def write_traces(directory: str) -> list[str]:
    """The five GEMM versions at DIM=64, each written as a ``.prv``."""

    from repro.apps import run_gemm
    from repro.apps.gemm import GEMM_VERSIONS
    from repro.paraver import write_trace

    paths = []
    for version in GEMM_VERSIONS:
        result = run_gemm(version, dim=DIM).result
        files = write_trace(result.trace, os.path.join(directory, version),
                            clock_mhz=result.clock_mhz)
        paths.append(files.prv)
    return paths


def measure(block_bytes: int, paths: list[str], reps: int) -> dict:
    """One size, in this process: the fastest pass and RSS growth."""

    from repro.paraver import parser
    from repro.report.model import report_from_prv

    parser.BLOCK_BYTES = block_bytes
    base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    passes, naive = [], []
    for _ in range(reps):
        start = time.process_time()
        for path in paths:
            began = time.process_time()
            report_from_prv(path)
            if os.path.basename(path) == "naive.prv":
                naive.append(time.process_time() - began)
        passes.append(time.process_time() - start)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    naive_mb = os.path.getsize(paths[0]) / 1e6
    return {"block_kib": block_bytes // 1024,
            "pass_ms": 1e3 * min(passes),
            "naive_mb_per_s": naive_mb / min(naive),
            "rss_growth_mb": peak - base}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", default=",".join(
        map(str, DEFAULT_SIZES_KIB)), help="block sizes in KiB")
    parser.add_argument("--reps", type=int, default=21)
    parser.add_argument("--write", help=argparse.SUPPRESS)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.write:
        print(json.dumps(write_traces(args.write)))
        return 0
    if args.child:
        spec = json.loads(args.child)
        print(json.dumps(measure(spec["block_bytes"], spec["paths"],
                                 args.reps)))
        return 0

    def child(*flags: str) -> object:
        # every child is a fresh process started from this small one: a
        # process's peak RSS starts at its parent's when it is forked
        out = subprocess.run([sys.executable, os.path.abspath(__file__),
                              "--reps", str(args.reps), *flags],
                             check=True, capture_output=True,
                             text=True).stdout
        return json.loads(out.splitlines()[-1])

    with tempfile.TemporaryDirectory() as directory:
        paths = child("--write", directory)
        print(f"{'block':>8} {'5 reports':>10} {'naive read':>11} "
              f"{'RSS growth':>11}")
        for kib in (int(size) for size in args.sizes.split(",")):
            row = child("--child", json.dumps({"block_bytes": kib * 1024,
                                               "paths": paths}))
            print(f"{row['block_kib']:>5} KiB {row['pass_ms']:>7.1f} ms "
                  f"{row['naive_mb_per_s']:>6.1f} MB/s "
                  f"{row['rss_growth_mb']:>8.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
