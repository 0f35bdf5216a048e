"""Integration tests for the π case study (§V-D)."""

import numpy as np
import pytest

from repro.apps import run_pi
from repro.core import SimConfig
from repro.paraver import thread_activity_windows


class TestCorrectness:
    def test_pi_value(self):
        pi = run_pi(64000, sim_config=SimConfig(thread_start_interval=50))
        assert pi.error < 1e-4

    def test_pi_improves_with_steps(self):
        config = SimConfig(thread_start_interval=50)
        coarse = run_pi(6400, sim_config=config)
        fine = run_pi(256000, sim_config=config)
        assert fine.error <= coarse.error

    def test_steps_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divide evenly"):
            run_pi(1001)

    def test_different_unroll_widths_agree(self):
        config = SimConfig(thread_start_interval=50)
        a = run_pi(64000, bs_compute=4, sim_config=config)
        b = run_pi(64000, bs_compute=16, sim_config=config)
        assert a.value == pytest.approx(b.value, abs=1e-5)


class TestScalingShape:
    """Figs. 11-13: thread-start overhead dominates small workloads; the
    achieved GFLOP/s rises steeply with the iteration count."""

    START = 12000  # cycles between thread starts (scaled from the paper)

    @pytest.fixture(scope="class")
    def sweep(self):
        config = SimConfig(thread_start_interval=self.START)
        return {steps: run_pi(steps, sim_config=config)
                for steps in (64000, 256000, 640000)}

    def test_gflops_increase_with_steps(self, sweep):
        values = [sweep[s].gflops for s in sorted(sweep)]
        assert values[0] < values[1] < values[2]

    def test_superlinear_rise(self, sweep):
        """4x the work must yield clearly more than 2x the GFLOP/s while
        startup dominates (the paper sees 0.146 -> 0.556 for 1M -> 4M)."""

        small, medium = sweep[64000], sweep[256000]
        assert medium.gflops / small.gflops > 2.0

    def test_staggered_starts_visible(self, sweep):
        spans = thread_activity_windows(sweep[64000].result.trace)
        starts = spans[:, 0]
        gaps = np.diff(starts)
        assert all(gap >= self.START * 0.9 for gap in gaps)

    def test_earliest_thread_finishes_before_last_starts(self, sweep):
        """Fig. 11's signature behaviour at the smallest size."""

        spans = thread_activity_windows(sweep[64000].result.trace)
        first_end = spans[0, 1]
        last_start = spans[-1, 0]
        assert first_end < last_start

    def test_all_threads_overlap_at_large_size(self):
        # with enough per-thread work, every thread is still running when
        # the last one starts (Fig. 13)
        config = SimConfig(thread_start_interval=self.START)
        run = run_pi(2560000, sim_config=config)
        spans = thread_activity_windows(run.result.trace)
        last_start = spans[-1, 0]
        assert all(end > last_start for end in spans[:-1, 1])

    def test_total_flops_match_series(self, sweep):
        from repro.profiling import EventKind
        from repro.apps.pi import pi_flops_per_iteration
        run = sweep[64000]
        flops = run.result.total_events(EventKind.FLOPS)
        expected = 64000 * pi_flops_per_iteration()
        assert flops == pytest.approx(expected, rel=0.05)
