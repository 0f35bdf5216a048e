"""Integration tests for the GEMM case study (§V-C)."""

import numpy as np
import pytest

from repro.apps import run_gemm
from repro.apps.gemm import GEMM_VERSIONS, gemm_defines
from repro.profiling import EventKind, ThreadState


@pytest.mark.parametrize("version", sorted(GEMM_VERSIONS))
def test_version_correct_small(version):
    run = run_gemm(version, dim=16, block_size=8)
    assert run.correct, f"{version} produced wrong results"


def test_naive_sum_variant_computes_full_product():
    run = run_gemm("naive_sum", dim=16)
    assert np.allclose(run.C, run.reference, rtol=1e-3)


def test_naive_elements_are_partial_sums():
    run = run_gemm("naive", dim=16)
    partials = run.partials
    # every output element equals one of the 8 per-thread partials
    matches = np.isclose(run.C[None, :], partials, rtol=1e-3, atol=1e-3)
    assert matches.any(axis=0).all()
    # ...and is NOT generally the full product
    assert not np.allclose(run.C, run.reference, rtol=1e-3)


def test_defines_validation():
    with pytest.raises(KeyError, match="unknown GEMM version"):
        gemm_defines("fast_gemm")
    with pytest.raises(ValueError, match="multiple"):
        gemm_defines("blocked", vector_len=3, block_size=8)


def test_dim_constraints():
    with pytest.raises(ValueError, match="BLOCK_SIZE"):
        run_gemm("blocked", dim=20, block_size=8)
    with pytest.raises(ValueError, match="num_threads"):
        run_gemm("naive", dim=24, num_threads=16, block_size=8)


class TestOptimizationJourney:
    """The paper's headline result: each version beats the previous."""

    @pytest.fixture(scope="class")
    def runs(self):
        # DIM=64 is the smallest size at which the naive version's
        # redundant-load advantage no longer masks its critical-section
        # cost (the paper runs DIM=512)
        return {name: run_gemm(name, dim=64) for name in GEMM_VERSIONS}

    def test_all_correct(self, runs):
        assert all(run.correct for run in runs.values())

    def test_no_critical_beats_naive(self, runs):
        assert runs["no_critical"].cycles < runs["naive"].cycles

    def test_vectorized_beats_no_critical(self, runs):
        assert runs["vectorized"].cycles < runs["no_critical"].cycles

    def test_blocked_beats_vectorized(self, runs):
        assert runs["blocked"].cycles < runs["vectorized"].cycles

    def test_double_buffered_beats_blocked(self, runs):
        assert runs["double_buffered"].cycles <= runs["blocked"].cycles

    def test_overall_speedup_band(self, runs):
        """Paper: 19x at DIM=512; at the scaled size the total speedup
        must at least be a large single-digit-to-tens factor."""

        speedup = runs["naive"].cycles / runs["double_buffered"].cycles
        assert speedup > 4.0

    def test_naive_spends_time_in_critical_and_spinning(self, runs):
        fractions = runs["naive"].result.trace.state_fractions()
        assert fractions[ThreadState.CRITICAL] > 0
        assert fractions[ThreadState.SPINNING] > 0
        # Fig. 6: these are small fractions — threads mostly run
        assert fractions[ThreadState.RUNNING] > 0.5

    def test_only_naive_has_sync_states(self, runs):
        for name in ("no_critical", "vectorized", "blocked",
                     "double_buffered"):
            fractions = runs[name].result.trace.state_fractions()
            assert fractions[ThreadState.CRITICAL] == 0
            assert fractions[ThreadState.SPINNING] == 0

    def test_blocked_moves_fewer_external_bytes(self, runs):
        """Blocking trades external for local bandwidth (§V-C)."""

        blocked_bytes = runs["blocked"].result.total_events(
            EventKind.MEM_READ_BYTES)
        naive_bytes = runs["naive"].result.total_events(
            EventKind.MEM_READ_BYTES)
        assert blocked_bytes < naive_bytes / 4

    def test_double_buffered_highest_bandwidth_of_tiled(self, runs):
        assert runs["double_buffered"].result.bandwidth_gbs() >= \
            runs["blocked"].result.bandwidth_gbs() * 0.95

    def test_stalls_fall_with_blocking(self, runs):
        assert sum(runs["blocked"].result.stalls) < \
            sum(runs["vectorized"].result.stalls)


class TestScaling:
    def test_cycles_grow_cubically(self):
        small = run_gemm("no_critical", dim=16)
        big = run_gemm("no_critical", dim=32)
        ratio = big.cycles / small.cycles
        assert 4.0 < ratio < 16.0  # ~8x for a 2x dimension bump

    def test_different_thread_counts(self):
        # at this size the kernel is external-memory bound, so the thread
        # count must not change results and only mildly changes timing
        four = run_gemm("no_critical", dim=32, num_threads=4)
        eight = run_gemm("no_critical", dim=32, num_threads=8)
        assert four.correct and eight.correct
        assert eight.cycles <= four.cycles * 1.2

    def test_seed_changes_data_not_timing_shape(self):
        a = run_gemm("no_critical", dim=16, seed=1)
        b = run_gemm("no_critical", dim=16, seed=2)
        assert not np.allclose(a.C, b.C)
        assert abs(a.cycles - b.cycles) < 0.05 * a.cycles
