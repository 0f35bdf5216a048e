"""Cross-cutting property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Program, SimConfig
from repro.frontend import compile_to_kernel
from repro.hls.schedule import schedule_kernel
from repro.hls.transforms import run_pipeline
from repro.sim.config import DramConfig
from repro.sim.memory import BASE_LATENCY, ExternalMemory

FAST = SimConfig(thread_start_interval=5, launch_overhead=10)


# ----------------------------------------------------------------------
# DRAM timing model invariants
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1 << 20),  # address offset
                          st.sampled_from([4, 16, 64]),  # size
                          st.booleans()),  # is_write
                min_size=1, max_size=30))
def test_dram_completion_after_arrival(requests):
    """Every request completes strictly after it arrives, and at least
    BASE_LATENCY later."""

    memory = ExternalMemory(DramConfig())
    at = 0
    for offset, size, is_write in requests:
        done = memory.access_time(at, 0x1000_0000 + offset, size, is_write)
        assert done >= at + BASE_LATENCY + 1
        at += 1


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 8), st.integers(0, 1 << 16))
def test_dram_channel_conservation(burst, base):
    """Total channel occupancy never exceeds what the requests need or
    loses requests (bus bookings are monotone)."""

    memory = ExternalMemory(DramConfig())
    last = [0] * memory.config.channels
    for i in range(burst):
        memory.access_time(i, 0x1000_0000 + base + i * 64, 64, False)
        for c, t in enumerate(memory._bus_busy):
            assert t >= last[c]
            last[c] = t
    assert memory.requests == burst


# ----------------------------------------------------------------------
# scheduler invariants over generated kernels
# ----------------------------------------------------------------------
def _schedule_of(body: str):
    source = f"""
    void f(float* a, float* b, int n) {{
      #pragma omp target parallel map(tofrom:a[0:n], b[0:n]) num_threads(4)
      {{
{body}
      }}
    }}
    """
    kernel = compile_to_kernel(source)
    run_pipeline(kernel)
    return schedule_kernel(kernel)


@pytest.mark.parametrize("body", [
    "a[0] = b[0] * 2.0f;",
    "float s = 0.0f;\nfor (int i = 0; i < n; ++i) { s += b[i]; }\na[0] = s;",
    "for (int i = 0; i < n; ++i) { if (i > 2) { a[i] = b[i]; } }",
    "#pragma omp critical\n{ a[0] += 1.0f; }",
    "float buf[16];\nfor (int i = 0; i < 16; ++i) { buf[i] = b[i]; }\n"
    "for (int i = 0; i < 16; ++i) { a[i] = buf[15 - i]; }",
])
def test_asap_schedule_invariants(body):
    """In every segment: operands finish before consumers start; depth
    covers every op; IIs are positive."""

    schedule = _schedule_of(body)
    for segment in schedule.body.walk_segments():
        producers = {}
        for sched in segment.sched_ops:
            for operand in sched.op.operands:
                producer = producers.get(operand.id)
                if producer is not None:
                    assert sched.start >= producer.start + producer.latency
            if sched.op.result is not None:
                producers[sched.op.result.id] = sched
            assert sched.end <= segment.depth
    for loop in schedule.body.walk_loops():
        assert loop.ii >= 1 and loop.rec_ii >= 1 and loop.depth >= 1


def test_item_dag_is_acyclic():
    schedule = _schedule_of("""
    for (int i = 0; i < n; ++i) { a[i] = 0.0f; }
    for (int j = 0; j < n; ++j) { b[j] = a[j]; }
    a[0] = 5.0f;
    """)
    deps = schedule.body.deps
    for index, dep_list in enumerate(deps):
        assert all(d < index for d in dep_list), "deps must point backwards"


# ----------------------------------------------------------------------
# end-to-end functional property: reductions match numpy
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.integers(1, 6))
def test_reduction_matches_numpy(threads, chunks):
    n = threads * chunks * 4
    source = f"""
    void total(float* data, float* out, int n) {{
      #pragma omp target parallel map(to:data[0:n]) map(tofrom:out[0:1]) \\
          num_threads({threads})
      {{
        int t = omp_get_thread_num();
        int nt = omp_get_num_threads();
        float s = 0.0f;
        for (int i = t; i < n; i += nt) {{
          s += data[i];
        }}
        #pragma omp critical
        {{ out[0] += s; }}
      }}
    }}
    """
    rng = np.random.default_rng(n)
    data = rng.random(n, dtype=np.float32)
    out = np.zeros(1, dtype=np.float32)
    Program(source, sim_config=FAST).run(data=data, out=out, n=n)
    assert out[0] == pytest.approx(float(data.sum()), rel=1e-4)


# ----------------------------------------------------------------------
# trace invariants for arbitrary small workloads
# ----------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(st.integers(2, 6), st.integers(8, 64))
def test_trace_invariants(threads, per_thread):
    n = threads * per_thread
    source = f"""
    void f(float* a, int n) {{
      #pragma omp target parallel map(tofrom:a[0:n]) num_threads({threads})
      {{
        int t = omp_get_thread_num();
        int nt = omp_get_num_threads();
        for (int i = t; i < n; i += nt) {{
          a[i] = a[i] + 1.0f;
        }}
      }}
    }}
    """
    a = np.zeros(n, dtype=np.float32)
    outcome = Program(source, sim_config=FAST).run(a=a, n=n)
    trace = outcome.sim.trace
    assert np.all(a == 1.0)
    # state intervals tile [0, end] per thread, no overlaps or gaps
    for thread in range(threads):
        intervals = trace.states[thread]
        assert intervals[0].start == 0
        assert intervals[-1].end == trace.end_cycle
        for prev, nxt in zip(intervals, intervals[1:]):
            assert prev.end == nxt.start
    # event sums are non-negative and finite
    for series in trace.events.values():
        assert np.isfinite(series).all()
        assert (series >= 0).all()


# ----------------------------------------------------------------------
# frontend robustness: malformed mini-C fails with a structured error
# ----------------------------------------------------------------------
#: characters a typo or a truncated edit puts into C source
_C_ALPHABET = "abxyzNDIM_0189 \t\n#/*+-=<>!&|^%~()[]{},;?:.\\@\"'"


@st.composite
def _mutated_stock_source(draw):
    """A stock kernel with 1-3 characters inserted, deleted or replaced."""

    from .compile_golden import stock_kernels

    kernels = stock_kernels()
    name = draw(st.sampled_from(sorted(kernels)))
    source, defines, const_env = kernels[name]
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(source)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        char = draw(st.sampled_from(_C_ALPHABET))
        keep = at + 1 if edit != "insert" else at
        source = source[:at] + ("" if edit == "delete" else char) \
            + source[keep:]
    return source, defines, const_env


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(_mutated_stock_source())
def test_mutated_source_compiles_or_raises_frontend_error(case):
    """Any edit of a stock kernel either still compiles to an accelerator
    or is reported as a FrontendError (with a location), never as another
    exception such as the ValueError a literal ``08`` once raised."""

    from repro.frontend import FrontendError
    from repro.hls.compiler import HLSCompiler

    source, defines, const_env = case
    try:
        HLSCompiler().compile_source(source, defines=defines,
                                     const_env=const_env, filename="k.c")
    except FrontendError:
        pass
