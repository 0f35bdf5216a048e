"""Golden digests of the stock kernels' compile: tokens, AST and schedule.

``tests/test_compile_golden.py`` compares the frontend and the HLS
scheduler against ``tests/golden/compile.json``.  The file was written
by this module from a checkout whose output is the reference; rewrite
it only when a change of output is intended::

    PYTHONPATH=src python tests/compile_golden.py > tests/golden/compile.json
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden", "compile.json")


def stock_kernels() -> dict[str, tuple[str, dict, dict]]:
    """name -> (source, defines, const_env) for every stock kernel."""

    from repro.apps.gemm import EXTRA_VERSIONS, GEMM_VERSIONS, gemm_defines
    from repro.apps.pi import PI_SOURCE, pi_defines

    kernels = {name: (source, gemm_defines(name), {})
               for name, source in {**GEMM_VERSIONS, **EXTRA_VERSIONS}.items()}
    kernels["pi"] = (PI_SOURCE, pi_defines(), {"threads": 8})
    return kernels


def token_dump(tokens) -> list[list]:
    return [[t.kind.value, t.text, t.value, t.location.line,
             t.location.column] for t in tokens]


def ast_dump(node):
    """A JSON-able tree: each dataclass becomes ``[class name, *fields]``
    in field order (a location as ``line, column``), a statement's
    pragmas last."""

    if isinstance(node, list):
        return [ast_dump(item) for item in node]
    if dataclasses.is_dataclass(node):
        out = [type(node).__name__]
        for f in dataclasses.fields(node):
            value = getattr(node, f.name)
            if f.name == "location":
                out += [value.line, value.column]
            else:
                out.append(ast_dump(value))
        if hasattr(node, "pragmas"):
            out.append(ast_dump(node.pragmas))
        return out
    if isinstance(node, float):
        return repr(node)
    return node


def schedule_digest(schedule) -> dict:
    """Loops, segments and item DAGs of a kernel schedule, in walk order."""

    from repro.hls.schedule import (BarrierNode, CriticalNode, IfNode,
                                    LoopNode, Segment)

    loops = [[loop.pipelined, loop.ii, loop.rec_ii, loop.depth,
              sum(max(1, seg.depth) for seg in loop.body.walk_segments())]
             for loop in schedule.body.walk_loops()]
    segments = [{"ops": [[s.op.opcode.value, s.start, s.end]
                         for s in seg.sched_ops],
                 "figures": [seg.depth, seg.flops, seg.intops,
                             seg.bram_reads, seg.bram_writes, seg.live_bits,
                             seg.context_bits, seg.vlo_stages],
                 "mem": [[m.start, m.sched_latency, m.is_write, m.bytes]
                         for m in seg.mem_ops]}
                for seg in schedule.body.walk_segments()]
    bodies = []

    def walk(body) -> None:
        kinds = []
        for item in body.items:
            kinds.append(type(item).__name__)
            if isinstance(item, (LoopNode, CriticalNode)):
                walk(item.body)
            elif isinstance(item, IfNode):
                for branch in item.branches:
                    walk(branch)
            else:
                assert isinstance(item, (Segment, BarrierNode))
        bodies.append({"items": kinds, "deps": body.deps})

    walk(schedule.body)
    return {"loops": loops, "segments": segments, "bodies": bodies,
            "local_groups": sorted(schedule.local_groups.items()),
            "local_costs": sorted(schedule.local_costs.items())}


def digest(name: str, source: str, defines: dict, const_env: dict) -> dict:
    from repro.frontend import (analyze_function, find_kernel_function,
                                lower_to_kernel, parse_source, tokenize)
    from repro.hls.compiler import HLSCompiler

    unit = parse_source(source, filename=f"{name}.c", defines=defines)
    kernel = lower_to_kernel(analyze_function(find_kernel_function(unit)),
                             const_env=const_env)
    return {
        "tokens": token_dump(tokenize(source, f"{name}.c", defines)),
        "ast": ast_dump(unit),
        "schedule": schedule_digest(HLSCompiler().compile(kernel).schedule),
    }


def golden() -> dict[str, dict]:
    return {name: digest(name, *spec) for name, spec in stock_kernels().items()}


if __name__ == "__main__":
    # one line per kernel and part, so a diff points at what moved
    lines = [f"{json.dumps(f'{name}/{part}')}:{json.dumps(value, separators=(',', ':'))}"
             for name, parts in sorted(golden().items())
             for part, value in parts.items()]
    sys.stdout.write("{\n" + ",\n".join(lines) + "\n}\n")
