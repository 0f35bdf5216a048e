"""Cheap analytic performance + area model for pruning candidates.

Each candidate is *compiled* (a few milliseconds; the problem size is
a runtime argument, so one compile covers every dim) but **never
simulated**.  From the compiled schedule we read the
facts that govern throughput — initiation intervals, per-iteration
FLOP/memory-op counts, critical sections, and whether the tile-load
and compute phases occupy disjoint BRAM conflict groups (ping-pong
overlap) — and combine them with closed-form traffic counts into a
memory-bound roofline in the style of Dávila-Guzmán et al. (PAPERS.md):

``cycles ≈ launch + combine(memory, compute) + critical + drain``

where ``combine`` is ``max`` for streaming and overlapped-tiled
kernels and ``+`` for tiled kernels whose load and compute phases
serialize on the BRAM ports, ``memory`` charges each DRAM request its
channel-contended transfer time plus an amortized row-activation
share, and ``compute`` is bound both by the shared datapath
(``iterations × II``) and by the per-thread recurrence chain
(``stagger + iterations/threads × rec_II``).

This is a *first-order* model: it reproduces the paper's GEMM v1→v5
ordering at the case-study size (within ~1–10 % per version at
DIM=64) and the π stagger/compute split, which is exactly enough to
rank candidates for pruning.  Survivors are always re-measured by the
simulator, so model error can cost an extra evaluation but never a
wrong frontier point — with the caveat that a point the model wrongly
dominates is never measured (disable pruning to audit the model).

Area comes from :func:`repro.hls.area.estimate_areas` via the compiled
accelerator, so the ALM/register/Fmax axes of the Pareto frontier are
the calibrated §V-B model, not a guess.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hls.compiler import Accelerator
from ..hls.schedule import BodySchedule, CriticalNode, IfNode, LoopNode
from ..sim.config import DramConfig, SimConfig
from ..sim.memory import BASE_LATENCY, ROW_MISS_PENALTY, transfer_cycles
from .space import Candidate

__all__ = ["Prediction", "ScheduleFacts", "extract_facts", "predict"]

#: serialized lock handoff + DRAM read-modify-write per critical entry,
#: calibrated against the naive GEMM's measured critical share
_CRITICAL_COST = 16

#: thread-start stagger run_gemm applies when a spec leaves it unset
_GEMM_DEFAULT_START_INTERVAL = 50


@dataclass(frozen=True)
class Prediction:
    """Analytic score of one candidate (cycles + area)."""

    cycles: int
    memory_cycles: int
    compute_cycles: int
    critical_cycles: int
    overhead_cycles: int
    bound: str                # "memory" | "compute" | "critical" | "overhead"
    alms: int
    registers: int
    fmax_mhz: float

    def to_dict(self) -> dict:
        return {
            "cycles": self.cycles,
            "memory_cycles": self.memory_cycles,
            "compute_cycles": self.compute_cycles,
            "critical_cycles": self.critical_cycles,
            "overhead_cycles": self.overhead_cycles,
            "bound": self.bound,
            "alms": self.alms,
            "registers": self.registers,
            "fmax_mhz": self.fmax_mhz,
        }


@dataclass(frozen=True)
class ScheduleFacts:
    """Throughput-relevant facts read off one compiled schedule."""

    compute_ii: int           # hardware II of the FLOP-carrying leaf
    compute_rec_ii: int       # its per-thread recurrence interval
    compute_flops: int        # FLOPs per iteration of that leaf
    compute_dram_ops: int     # DRAM ops per iteration of that leaf
    compute_op_bytes: tuple[int, ...]  # bytes moved by each such op
    load_op_bytes: int        # bytes per DRAM op of the tile-load leaf
    store_op_bytes: int       # bytes per DRAM op of the store-back leaf
    tiled: bool               # separate load leaf feeding BRAM tiles
    overlapped: bool          # load/compute in disjoint conflict groups
    has_critical: bool


def _walk_criticals(body: BodySchedule):
    for item in body.items:
        if isinstance(item, CriticalNode):
            yield item
            yield from _walk_criticals(item.body)
        elif isinstance(item, LoopNode):
            yield from _walk_criticals(item.body)
        elif isinstance(item, IfNode):
            for branch in item.branches:
                yield from _walk_criticals(branch)


def _leaf_loops(body: BodySchedule):
    """Pipelined loops with no loop nested inside them."""

    for loop in body.walk_loops():
        if loop.pipelined and not any(True for _ in loop.body.walk_loops()):
            yield loop


def extract_facts(accelerator: Accelerator) -> ScheduleFacts:
    schedule = accelerator.schedule
    body = schedule.body
    groups = schedule.local_groups

    compute_leaf = None
    load_leaves: list[LoopNode] = []
    store_leaves: list[LoopNode] = []
    for loop in _leaf_loops(body):
        segments = list(loop.body.walk_segments())
        flops = sum(s.flops for s in segments)
        reads = sum(1 for s in segments for m in s.mem_ops if not m.is_write)
        writes = sum(1 for s in segments for m in s.mem_ops if m.is_write)
        if flops > 0:
            if compute_leaf is None or flops > sum(
                    s.flops for s in compute_leaf.body.walk_segments()):
                compute_leaf = loop
        elif reads > 0:
            load_leaves.append(loop)
        elif writes > 0:
            store_leaves.append(loop)

    if compute_leaf is None:
        # no pipelined FLOP loop at all — degenerate kernel; report
        # neutral facts so predict() falls back to overhead-only cost
        return ScheduleFacts(1, 1, 0, 0, (), 0, 0, False, False,
                             any(True for _ in _walk_criticals(body)))

    compute_segments = list(compute_leaf.body.walk_segments())
    compute_flops = sum(s.flops for s in compute_segments)
    compute_mem = [m for s in compute_segments for m in s.mem_ops]
    compute_groups = {groups[s.uid] for s in compute_segments
                      if s.uid in groups}

    def _op_bytes(leaves: list[LoopNode]) -> int:
        sizes = [m.bytes for loop in leaves
                 for s in loop.body.walk_segments() for m in s.mem_ops]
        return max(sizes) if sizes else 0

    tiled = bool(load_leaves) and not compute_mem
    overlapped = False
    if tiled:
        load_groups = {groups[s.uid] for loop in load_leaves
                       for s in loop.body.walk_segments() if s.uid in groups}
        overlapped = bool(load_groups) and bool(compute_groups) \
            and not (load_groups & compute_groups)

    return ScheduleFacts(
        compute_ii=compute_leaf.ii,
        compute_rec_ii=compute_leaf.rec_ii,
        compute_flops=compute_flops,
        compute_dram_ops=len(compute_mem),
        compute_op_bytes=tuple(m.bytes for m in compute_mem),
        load_op_bytes=_op_bytes(load_leaves),
        store_op_bytes=_op_bytes(store_leaves),
        tiled=tiled,
        overlapped=overlapped,
        has_critical=any(True for _ in _walk_criticals(body)),
    )


def _request_cost(nbytes: int, threads: int, dram: DramConfig) -> float:
    """Average channel-occupancy cycles one request charges the stream."""

    contention = max(1.0, threads / dram.channels)
    activation = ROW_MISS_PENALTY / max(1, dram.banks_per_channel)
    return transfer_cycles(nbytes) * contention + activation


def predict(candidate: Candidate, accelerator: Accelerator) -> Prediction:
    """Score one candidate analytically (no simulation)."""

    spec = candidate.spec
    facts = extract_facts(accelerator)
    sim = SimConfig()
    dram = DramConfig()
    threads = spec.threads

    if spec.app == "gemm":
        total_flops = 2 * spec.dim ** 3
        mem = _gemm_memory_cycles(spec, facts, dram)
        crit = spec.dim * spec.dim * threads * _CRITICAL_COST \
            if facts.has_critical else 0
        start_interval = spec.start_interval \
            if spec.start_interval is not None \
            else _GEMM_DEFAULT_START_INTERVAL
    else:
        from ..apps.pi import pi_flops_per_iteration
        total_flops = spec.steps * pi_flops_per_iteration()
        # π touches DRAM only in its final per-thread reduction
        mem = int(threads * _request_cost(8, threads, dram))
        crit = threads * _CRITICAL_COST if facts.has_critical else 0
        start_interval = spec.start_interval \
            if spec.start_interval is not None \
            else sim.thread_start_interval

    stagger = (threads - 1) * start_interval
    if facts.compute_flops > 0:
        iters = total_flops // facts.compute_flops
        per_thread = -(-iters // threads)
        compute = max(iters * facts.compute_ii,
                      stagger + per_thread * max(facts.compute_ii,
                                                 facts.compute_rec_ii))
    else:
        iters = 0
        compute = stagger

    if facts.tiled and not facts.overlapped:
        core = mem + compute
    else:
        core = max(mem, compute)

    overhead = sim.launch_overhead + BASE_LATENCY
    cycles = core + crit + overhead

    if crit >= max(mem, compute):
        bound = "critical"
    elif overhead > core:
        bound = "overhead"
    elif mem >= compute:
        bound = "memory"
    else:
        bound = "compute"

    area = accelerator.area
    return Prediction(
        cycles=int(cycles),
        memory_cycles=int(mem),
        compute_cycles=int(compute),
        critical_cycles=int(crit),
        overhead_cycles=int(overhead),
        bound=bound,
        alms=area.alms,
        registers=area.registers,
        fmax_mhz=area.fmax_mhz,
    )


def _gemm_memory_cycles(spec, facts: ScheduleFacts,
                        dram: DramConfig) -> int:
    """Closed-form DRAM traffic cost for one GEMM candidate."""

    d, threads = spec.dim, spec.threads
    elem = 4  # float32
    if facts.tiled:
        # each k-tile streams an A block and a B block into BRAM:
        # 2 * d^3 / block_size bytes total, moved load_op_bytes at a
        # time; results stream back once (d^2 elements)
        bs = spec.block_size
        load_bytes = 2 * elem * d ** 3 // max(1, bs)
        # PRELOAD ops carry bytes=0 in the schedule (burst length is
        # runtime); the kernels preload one block row per call
        op_bytes = facts.load_op_bytes or bs * elem
        requests = load_bytes / op_bytes
        cost = requests * _request_cost(op_bytes, threads, dram)
        store_op = facts.store_op_bytes or elem
        cost += (elem * d * d / store_op) \
            * _request_cost(store_op, threads, dram)
        return int(cost)
    # streaming: the compute leaf itself issues its DRAM ops; iteration
    # count follows from FLOPs per iteration
    if facts.compute_flops <= 0:
        return 0
    iters = 2 * d ** 3 // facts.compute_flops
    cost = sum(_request_cost(nbytes, threads, dram)
               for nbytes in facts.compute_op_bytes) * iters
    # result write-back (one store per output element; a critical
    # section multiplies it by the per-thread partial stores)
    writers = threads if facts.has_critical else 1
    cost += d * d * writers * _request_cost(elem, threads, dram)
    return int(cost)
