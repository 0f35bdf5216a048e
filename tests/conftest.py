"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim import SimConfig


@pytest.fixture
def fast_sim_config() -> SimConfig:
    """Simulation config for tiny unit-test runs."""

    return SimConfig(thread_start_interval=10, launch_overhead=20)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def make_vector_add_source(n_name: str = "N") -> str:
    """A minimal kernel used across frontend/HLS/sim tests."""

    return f"""
    #define DTYPE float
    void vadd(DTYPE* a, DTYPE* b, DTYPE* c, int {n_name}) {{
      #pragma omp target parallel map(to:a[0:{n_name}], b[0:{n_name}]) \\
          map(from:c[0:{n_name}]) num_threads(4)
      {{
        int tid = omp_get_thread_num();
        int nth = omp_get_num_threads();
        for (int i = tid; i < {n_name}; i += nth) {{
          c[i] = a[i] + b[i];
        }}
      }}
    }}
    """
