"""Unit tests for the static scheduler."""

from repro.apps.gemm import BLOCKED, DOUBLE_BUFFERED, NAIVE, gemm_defines
from repro.apps.pi import PI_SOURCE, pi_defines
from repro.frontend import compile_to_kernel
from repro.hls.schedule import (
    BarrierNode, CriticalNode, IfNode, LoopNode, Segment,
    schedule_kernel,
)
from repro.hls.transforms import run_pipeline


def schedule_body(body: str, defines=None, transforms=True):
    source = f"""
    void f(float* a, float* b, int n) {{
      #pragma omp target parallel map(tofrom:a[0:n], b[0:n]) num_threads(8)
      {{
{body}
      }}
    }}
    """
    kernel = compile_to_kernel(source, defines=defines)
    if transforms:
        run_pipeline(kernel)
    return schedule_kernel(kernel)


class TestSegments:
    def test_single_segment(self):
        ks = schedule_body("a[0] = b[0] + 1.0f;")
        assert len(ks.body.items) == 1
        segment = ks.body.items[0]
        assert isinstance(segment, Segment)
        assert segment.depth >= 1
        assert len(segment.mem_ops) == 2

    def test_asap_respects_data_deps(self):
        ks = schedule_body("a[0] = b[0] + 1.0f;")
        segment = ks.body.items[0]
        by_op = {id(s.op): s for s in segment.sched_ops}
        load = [s for s in segment.sched_ops
                if s.op.opcode.value == "load"][0]
        store = [s for s in segment.sched_ops
                 if s.op.opcode.value == "store"][0]
        assert store.start >= load.end

    def test_flop_counting(self):
        ks = schedule_body("a[0] = b[0] * 2.0f + 1.0f;")
        segment = ks.body.items[0]
        assert segment.flops == 2  # mul + add

    def test_intop_counting(self):
        ks = schedule_body("int x = n * 3 + 1;\na[x] = 0.0f;")
        segment = ks.body.items[0]
        assert segment.intops >= 2

    def test_vector_flops_scaled_by_lanes(self):
        ks = schedule_body(
            "float4 v = *((float4*) &b[0]);\n"
            "float4 w = *((float4*) &b[4]);\n"
            "float buf[4];\n"
            "*((float4*) &buf[0]) = v;\n"
            "float x = buf[0] + 1.0f;\n"
            "a[0] = x;", transforms=False)
        segments = list(ks.body.walk_segments())
        total_flops = sum(s.flops for s in segments)
        assert total_flops == 1  # only the scalar add counts FP activations

    def test_memory_order_within_segment(self):
        ks = schedule_body("a[0] = 1.0f;\nfloat x = a[0];\nb[0] = x;")
        segment = ks.body.items[0]
        store0 = [s for s in segment.sched_ops
                  if s.op.opcode.value == "store"][0]
        load = [s for s in segment.sched_ops
                if s.op.opcode.value == "load"][0]
        assert load.start >= store0.end


class TestStructure:
    def test_loop_nodes(self):
        ks = schedule_body("for (int i = 0; i < n; ++i) { a[i] = b[i]; }")
        loops = list(ks.body.walk_loops())
        assert len(loops) == 1
        assert loops[0].pipelined

    def test_structured_loop_not_pipelined(self):
        body = """
        for (int i = 0; i < n; ++i) {
          if (i > 2) { a[i] = 0.0f; }
        }
        """
        ks = schedule_body(body)
        loop = list(ks.body.walk_loops())[0]
        assert not loop.pipelined
        assert isinstance(loop.body.items[1], IfNode)

    def test_critical_node(self):
        body = "#pragma omp critical\n{ a[0] = 1.0f; }"
        ks = schedule_body(body)
        assert isinstance(ks.body.items[0], CriticalNode)

    def test_barrier_node(self):
        body = "a[0] = 1.0f;\n#pragma omp barrier\nb[0] = 2.0f;"
        ks = schedule_body(body)
        kinds = [type(item).__name__ for item in ks.body.items]
        assert "BarrierNode" in kinds


class TestInitiationIntervals:
    def test_ext_read_port_ii(self):
        # two external loads per iteration, one read port -> II=2
        ks = schedule_body("for (int i = 0; i < n; ++i) { a[i] = b[i] + b[i+n]; }")
        loop = list(ks.body.walk_loops())[0]
        assert loop.ii == 2

    def test_single_load_ii_one(self):
        ks = schedule_body("for (int i = 0; i < n; ++i) { a[i] = b[i]; }")
        loop = list(ks.body.walk_loops())[0]
        assert loop.ii == 1

    def test_accumulator_recurrence(self):
        body = """
        float s = 0.0f;
        for (int i = 0; i < n; ++i) { s += b[i]; }
        a[0] = s;
        """
        ks = schedule_body(body)
        loop = list(ks.body.walk_loops())[0]
        assert loop.rec_ii == 3  # the float add's latency

    def test_no_recurrence_when_written_first(self):
        body = """
        for (int i = 0; i < n; ++i) {
          float s = b[i];
          s += 1.0f;
          a[i] = s;
        }
        """
        ks = schedule_body(body)
        loop = list(ks.body.walk_loops())[0]
        assert loop.rec_ii == 1

    def test_bram_port_ii(self):
        body = """
        float buf[64];
        for (int i = 0; i < 32; ++i) {
          float x = buf[i] + buf[i+16] + buf[i+32];
          a[i] = x;
        }
        """
        ks = schedule_body(body)
        loop = list(ks.body.walk_loops())[0]
        assert loop.ii >= 3


class TestItemDeps:
    def test_sequential_chain(self):
        body = """
        float x = b[0];
        #pragma omp critical
        { a[0] = x; }
        """
        ks = schedule_body(body)
        assert ks.body.deps[1] == [0]

    def test_independent_stores_no_dep(self):
        body = """
        for (int i = 0; i < n; ++i) { a[i] = 0.0f; }
        for (int j = 0; j < n; ++j) { b[j] = 1.0f; }
        """
        ks = schedule_body(body)
        loop_indices = [i for i, item in enumerate(ks.body.items)
                        if isinstance(item, LoopNode)]
        second = loop_indices[1]
        first = loop_indices[0]
        assert first not in ks.body.deps[second]

    def test_conflicting_loops_ordered(self):
        body = """
        for (int i = 0; i < n; ++i) { a[i] = 0.0f; }
        for (int j = 0; j < n; ++j) { a[j] = a[j] + 1.0f; }
        """
        ks = schedule_body(body)
        loop_indices = [i for i, item in enumerate(ks.body.items)
                        if isinstance(item, LoopNode)]
        assert loop_indices[0] in ks.body.deps[loop_indices[1]]

    def test_barrier_orders_everything(self):
        body = "a[0] = 1.0f;\n#pragma omp barrier\nb[0] = 2.0f;"
        ks = schedule_body(body)
        barrier_index = [i for i, item in enumerate(ks.body.items)
                         if isinstance(item, BarrierNode)][0]
        assert ks.body.deps[barrier_index]  # depends on prior items
        assert barrier_index in ks.body.deps[barrier_index + 1]

    def test_criticals_same_lock_ordered(self):
        body = """
        #pragma omp critical
        { a[0] = 1.0f; }
        #pragma omp critical
        { b[0] = 2.0f; }
        """
        ks = schedule_body(body)
        assert 0 in ks.body.deps[1]


class TestLocalGroups:
    def test_blocked_load_and_compute_share_group(self):
        kernel = compile_to_kernel(BLOCKED, defines=gemm_defines("blocked"))
        run_pipeline(kernel)
        ks = schedule_kernel(kernel)
        groups = set(ks.local_groups.values())
        # every segment touching A_local/B_local/C_local collapses into
        # one conflict group
        assert len(groups) == 1

    def test_double_buffer_groups_split(self):
        kernel = compile_to_kernel(DOUBLE_BUFFERED,
                                   defines=gemm_defines("double_buffered"))
        run_pipeline(kernel)
        ks = schedule_kernel(kernel)
        groups = set(ks.local_groups.values())
        assert len(groups) >= 2

    def test_costs_positive_for_local_segments(self):
        kernel = compile_to_kernel(BLOCKED, defines=gemm_defines("blocked"))
        run_pipeline(kernel)
        ks = schedule_kernel(kernel)
        for seg_id in ks.local_groups:
            assert ks.local_costs[seg_id] >= 1


class TestAggregates:
    def test_stage_counts(self):
        kernel = compile_to_kernel(NAIVE, defines=gemm_defines("naive"))
        run_pipeline(kernel)
        ks = schedule_kernel(kernel)
        assert ks.total_stages > 0
        assert 0 < ks.reordering_stages <= ks.total_stages

    def test_pi_unrolled_schedule(self):
        kernel = compile_to_kernel(PI_SOURCE, defines=pi_defines(8),
                                   const_env={"threads": 8})
        run_pipeline(kernel)
        ks = schedule_kernel(kernel)
        pipelined = [loop for loop in ks.body.walk_loops() if loop.pipelined]
        assert pipelined
        main = max(pipelined, key=lambda l: l.depth)
        assert main.ii == 1       # no memory in the series body
        assert main.rec_ii == 3   # per-lane accumulator chain
