"""Unit tests for the area/Fmax model and profiling overhead (§V-B)."""

import math

import pytest

from repro.apps.gemm import GEMM_VERSIONS, gemm_defines
from repro.apps.pi import PI_SOURCE, pi_defines
from repro.hls import HLSOptions, compile_source
from repro.profiling.config import EventKind, ProfilingConfig


def compile_gemm(version: str, profiling: ProfilingConfig = None):
    options = HLSOptions(profiling=profiling or ProfilingConfig())
    return compile_source(GEMM_VERSIONS[version],
                          defines=gemm_defines(version), options=options)


class TestBasicProperties:
    def test_area_positive(self):
        acc = compile_gemm("naive")
        assert acc.area.registers > 0
        assert acc.area.alms > 0
        assert acc.area.fmax_mhz > 100

    def test_profiling_adds_area(self):
        acc = compile_gemm("naive")
        assert acc.area.registers > acc.baseline_area.registers
        assert acc.area.alms > acc.baseline_area.alms
        assert acc.area.fmax_mhz < acc.baseline_area.fmax_mhz

    def test_disabled_profiling_equals_baseline(self):
        acc = compile_gemm("naive", ProfilingConfig.disabled())
        assert acc.area.registers == acc.baseline_area.registers
        assert acc.area.alms == acc.baseline_area.alms

    def test_breakdown_sums(self):
        acc = compile_gemm("vectorized")
        b = acc.area.breakdown
        assert b.registers == (b.operator_registers + b.pipeline_registers
                               + b.context_registers + b.infra_registers
                               + b.profiling_registers)
        assert b.alms == b.operator_alms + b.infra_alms + b.profiling_alms

    def test_bigger_kernel_bigger_area(self):
        small = compile_gemm("naive")
        big = compile_gemm("double_buffered")
        assert big.area.registers > small.area.registers
        assert big.area.alms > small.area.alms


class TestPaperBands:
    """§V-B: registers +<=5.4% (geo-mean 2.41%), ALMs +<=4% (geo-mean
    3.42%), Fmax degradation <=8 MHz for the GEMM study; ~1.3%/1.5%/1 MHz
    for π.  We accept the same order of magnitude."""

    @pytest.fixture(scope="class")
    def overheads(self):
        return {name: compile_gemm(name).profiling_overhead()
                for name in GEMM_VERSIONS}

    def test_register_overhead_band(self, overheads):
        values = [ov["registers_pct"] for ov in overheads.values()]
        assert max(values) < 8.0
        geomean = math.exp(sum(math.log(v) for v in values) / len(values))
        assert 1.0 < geomean < 5.0

    def test_alm_overhead_band(self, overheads):
        values = [ov["alms_pct"] for ov in overheads.values()]
        assert max(values) < 6.0
        geomean = math.exp(sum(math.log(v) for v in values) / len(values))
        assert 1.0 < geomean < 5.0

    def test_fmax_degradation_band(self, overheads):
        values = [ov["fmax_delta_mhz"] for ov in overheads.values()]
        assert all(0.0 < v <= 8.0 for v in values)

    def test_larger_designs_have_smaller_relative_overhead(self, overheads):
        assert overheads["double_buffered"]["registers_pct"] < \
            overheads["naive"]["registers_pct"]

    def test_pi_overhead_small(self):
        options = HLSOptions()
        acc = compile_source(PI_SOURCE, defines=pi_defines(16),
                             const_env={"threads": 8}, options=options)
        ov = acc.profiling_overhead()
        assert ov["registers_pct"] < 3.0
        assert ov["alms_pct"] < 3.0
        assert ov["fmax_delta_mhz"] < 4.0


class TestEdgeCases:
    def test_empty_kernel_body_still_has_infrastructure_area(self):
        # the parallel region compiles to zero datapath operators, but
        # the Avalon masters / semaphore / slave interface remain
        acc = compile_source("""
        void empty(int n) {
          #pragma omp target parallel num_threads(4)
          {
          }
        }
        """, options=HLSOptions())
        assert acc.area.registers > 0
        assert acc.area.alms > 0
        assert 100.0 < acc.area.fmax_mhz < 200.0
        assert acc.area.breakdown.operator_registers == 0

    def test_profiling_monotone_across_all_versions(self):
        # profiling on must never *reduce* area or raise Fmax, for every
        # kernel shape in the study (not just naive)
        for version in GEMM_VERSIONS:
            on = compile_gemm(version)
            off = compile_gemm(version, ProfilingConfig.disabled())
            assert on.area.registers >= off.area.registers, version
            assert on.area.alms >= off.area.alms, version
            assert on.area.fmax_mhz <= off.area.fmax_mhz, version

    def test_vector_lane_scaling_is_nondecreasing(self):
        # wider vectors replicate operators per lane: area must be
        # nondecreasing in VECTOR_LEN, strictly increasing somewhere
        areas = []
        for vl in (2, 4, 8):
            options = HLSOptions()
            acc = compile_source(
                GEMM_VERSIONS["vectorized"],
                defines=gemm_defines("vectorized", vector_len=vl,
                                     block_size=8),
                options=options)
            areas.append(acc.area)
        alms = [a.alms for a in areas]
        regs = [a.registers for a in areas]
        assert alms == sorted(alms)
        assert regs == sorted(regs)
        assert alms[-1] > alms[0] and regs[-1] > regs[0]

    def test_area_report_serializes(self):
        doc = compile_gemm("naive").area.to_dict()
        assert doc["registers"] > 0 and doc["alms"] > 0
        breakdown = doc["breakdown"]
        assert breakdown["profiling_registers"] > 0
        assert sum(v for k, v in breakdown.items()
                   if k.endswith("_registers")) == doc["registers"]


class TestProfilingConfigKnobs:
    def test_fewer_events_less_area(self):
        full = compile_gemm("naive")
        lean = compile_gemm("naive", ProfilingConfig(
            events=(EventKind.STALLS,)))
        assert lean.area.registers < full.area.registers

    def test_state_recorder_cost(self):
        no_states = compile_gemm("naive", ProfilingConfig(record_states=False))
        with_states = compile_gemm("naive")
        assert no_states.area.registers < with_states.area.registers

    def test_buffer_width_scales_registers(self):
        narrow = compile_gemm("naive", ProfilingConfig(buffer_width=128))
        wide = compile_gemm("naive", ProfilingConfig(buffer_width=1024))
        assert narrow.area.registers < wide.area.registers

    def test_state_record_bits_formula(self):
        config = ProfilingConfig()
        # 2 bits per thread + 32-bit clock (§IV-B.1)
        assert config.state_record_bits(8) == 2 * 8 + 32
        assert config.state_record_bits(16) == 2 * 16 + 32

    def test_event_record_bits_formula(self):
        config = ProfilingConfig()
        expected = 64 * len(config.events) * 8 + 32
        assert config.event_record_bits(8) == expected


#: kernel -> (area breakdown, area Fmax, baseline breakdown, baseline
#: Fmax, profiling_overhead() as (registers %, ALMs %, Fmax delta)) of
#: the accelerators the apps compile; a breakdown is the tuple of
#: AreaBreakdown fields in declaration order
AREA_PINS = {
    "naive": ((1350, 734, 1957, 256, 35975, 17270, 1901, 622), 143.2,
              (1350, 734, 1957, 256, 35975, 17270, 0, 0), 149.5,
              (4.808032778592747, 3.4547878249277937, 6.300000000000011)),
    "no_critical": ((1286, 686, 1957, 256, 35975, 17270, 1901, 622), 143.2,
                    (1286, 686, 1957, 256, 35975, 17270, 0, 0), 149.5,
                    (4.815828140041546, 3.4640231677433726,
                     6.300000000000011)),
    "vectorized": ((3258, 1744, 7141, 1280, 36805, 17740, 1922, 636), 143.6,
                   (3258, 1744, 7141, 1280, 36805, 17740, 0, 0), 149.2,
                   (3.9641943734015346, 3.26421679326627,
                    5.599999999999994)),
    "blocked": ((11064, 6272, 20907, 512, 38820, 18875, 1964, 664), 144.5,
                (11064, 6272, 20907, 512, 38820, 18875, 0, 0), 148.3,
                (2.754442309580242, 2.640474012804708, 3.8000000000000114)),
    "double_buffered": ((27690, 16914, 178385, 1536, 42835, 21065, 2027, 706),
                        142.5,
                        (27690, 16914, 178385, 1536, 42835, 21065, 0, 0),
                        144.4,
                        (0.8093561087020755, 1.8589220358619236,
                         1.9000000000000057)),
    "pi": ((12260, 7020, 79027, 512, 38230, 18500, 1922, 636), 144.1,
           (12260, 7020, 79027, 512, 38230, 18500, 0, 0), 147.4,
           (1.4781318013673872, 2.4921630094043885, 3.3000000000000114)),
}


@pytest.mark.parametrize("kernel", list(AREA_PINS))
def test_area_pins(kernel):
    from dataclasses import astuple

    from repro.apps.runners import compile_gemm as compile_app_gemm
    from repro.apps.runners import compile_pi

    acc = compile_pi() if kernel == "pi" else compile_app_gemm(kernel)
    area, fmax, baseline, baseline_fmax, overhead = AREA_PINS[kernel]
    assert astuple(acc.area.breakdown) == area
    assert acc.area.fmax_mhz == fmax
    assert astuple(acc.baseline_area.breakdown) == baseline
    assert acc.baseline_area.fmax_mhz == baseline_fmax
    ov = acc.profiling_overhead()
    assert (ov["registers_pct"], ov["alms_pct"], ov["fmax_delta_mhz"]) \
        == overhead
