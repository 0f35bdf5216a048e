"""The paper's GEMM case study: five kernel versions (§V-C, Figs. 3-5).

Each version is mini-C source mirroring the paper's figures.  The five
optimization steps are:

1. ``naive`` (Fig. 3) — all threads cooperate on every output element,
   splitting the k-loop; the store to C is protected by an OpenMP
   critical section.  We reproduce the paper's code *exactly*, including
   its quirk: ``C[i*DIM+j] = sum`` keeps only the partial sum of
   whichever thread writes last, so each output element equals one
   thread's k-slice partial sum (the test suite checks exactly that
   membership property).  ``naive_sum`` is a corrected ``+=`` variant
   that produces the true product at a slightly higher critical-section
   cost (it must read-modify-write C under the lock).
2. ``no_critical`` — threads own disjoint rows of C, removing the
   critical section entirely (the paper's "No Critical Sections").
3. ``vectorized`` (Fig. 4) — partial vectorization: rows of A are read
   with 128-bit vector loads; B stays scalar (it would need a transpose).
4. ``blocked`` — classic tiling: sub-matrices are loaded into BRAM
   (vector loads), compute runs on local memory only; load and compute
   form distinct phases (Fig. 8).
5. ``double_buffered`` (Fig. 5) — ping-pong buffering: the next block is
   prefetched into one buffer while compute runs on the other, so
   external-memory reads overlap compute (Fig. 9).

All sources are parameterized by macros so tests/benches can scale the
problem size; :func:`gemm_source` applies the right defaults.
"""

from __future__ import annotations

__all__ = ["GEMM_VERSIONS", "EXTRA_VERSIONS", "gemm_source", "gemm_defines",
           "NAIVE", "NAIVE_SUM", "NO_CRITICAL", "VECTORIZED", "BLOCKED",
           "DOUBLE_BUFFERED", "PRELOADED"]

#: Default vector width in 32-bit lanes (the paper uses 128-bit vectors).
DEFAULT_VECTOR_LEN = 4
#: Default tile edge for the blocked/double-buffered versions.
DEFAULT_BLOCK_SIZE = 8

NAIVE = r"""
#define DTYPE float

void matmul(DTYPE* A, DTYPE* B, DTYPE* C, int DIM) {
  #pragma omp target parallel map(from:C[0:DIM*DIM]) \
      map(to:A[0:DIM*DIM], B[0:DIM*DIM]) num_threads(NUM_THREADS)
  {
    int my_id = omp_get_thread_num();
    int num_threads = omp_get_num_threads();
    for (int i = 0; i < DIM; ++i) {
      for (int j = 0; j < DIM; ++j) {
        DTYPE sum = 0;
        for (int k = my_id; k < DIM; k += num_threads) {
          sum += A[i*DIM+k] * B[k*DIM+j];
        }
        #pragma omp critical
        {
          C[i*DIM + j] = sum;
        }
      }
    }
  }
}
"""

NAIVE_SUM = r"""
#define DTYPE float

void matmul(DTYPE* A, DTYPE* B, DTYPE* C, int DIM) {
  #pragma omp target parallel map(tofrom:C[0:DIM*DIM]) \
      map(to:A[0:DIM*DIM], B[0:DIM*DIM]) num_threads(NUM_THREADS)
  {
    int my_id = omp_get_thread_num();
    int num_threads = omp_get_num_threads();
    for (int i = 0; i < DIM; ++i) {
      for (int j = 0; j < DIM; ++j) {
        DTYPE sum = 0;
        for (int k = my_id; k < DIM; k += num_threads) {
          sum += A[i*DIM+k] * B[k*DIM+j];
        }
        #pragma omp critical
        {
          C[i*DIM + j] += sum;
        }
      }
    }
  }
}
"""

NO_CRITICAL = r"""
#define DTYPE float

void matmul(DTYPE* A, DTYPE* B, DTYPE* C, int DIM) {
  #pragma omp target parallel map(from:C[0:DIM*DIM]) \
      map(to:A[0:DIM*DIM], B[0:DIM*DIM]) num_threads(NUM_THREADS)
  {
    int my_id = omp_get_thread_num();
    int num_threads = omp_get_num_threads();
    for (int i = my_id; i < DIM; i += num_threads) {
      for (int j = 0; j < DIM; ++j) {
        DTYPE sum = 0;
        for (int k = 0; k < DIM; ++k) {
          sum += A[i*DIM+k] * B[k*DIM+j];
        }
        C[i*DIM + j] = sum;
      }
    }
  }
}
"""

VECTORIZED = r"""
#define DTYPE float

void matmul(DTYPE* A, DTYPE* B, DTYPE* C, int DIM) {
  #pragma omp target parallel map(from:C[0:DIM*DIM]) \
      map(to:A[0:DIM*DIM], B[0:DIM*DIM]) num_threads(NUM_THREADS)
  {
    int my_id = omp_get_thread_num();
    int num_threads = omp_get_num_threads();
    for (int i = my_id; i < DIM; i += num_threads) {
      for (int j = 0; j < DIM; ++j) {
        DTYPE sum = 0;
        for (int k = 0; k < DIM; k += VECTOR_LEN) {
          VECTOR vA = *((VECTOR*) &A[i*DIM + k]);
          #pragma unroll VECTOR_LEN
          for (int v = 0; v < VECTOR_LEN; ++v) {
            sum += vA[v] * B[(k+v)*DIM + j];
          }
        }
        C[i*DIM + j] = sum;
      }
    }
  }
}
"""

BLOCKED = r"""
#define DTYPE float

void matmul(DTYPE* A, DTYPE* B, DTYPE* C, int DIM) {
  #pragma omp target parallel map(from:C[0:DIM*DIM]) \
      map(to:A[0:DIM*DIM], B[0:DIM*DIM]) num_threads(NUM_THREADS)
  {
    int my_id = omp_get_thread_num();
    int num_threads = omp_get_num_threads();
    for (int i = my_id*BLOCK_SIZE; i < DIM; i += num_threads*BLOCK_SIZE) {
      for (int j = 0; j < DIM; j += BLOCK_SIZE) {
        DTYPE C_local[BLOCK_SIZE][BLOCK_SIZE];
        for (int x = 0; x < BLOCK_SIZE; ++x) {
          #pragma unroll BLOCK_SIZE
          for (int y = 0; y < BLOCK_SIZE; ++y) {
            C_local[x][y] = 0.0f;
          }
        }
        for (int k = 0; k < DIM; k += BLOCK_SIZE) {
          DTYPE A_local[BLOCK_SIZE][BLOCK_SIZE];
          DTYPE B_local[BLOCK_SIZE][BLOCK_SIZE];
          for (int m = 0; m < BLOCK_SIZE; ++m) {
            for (int v = 0; v < BLOCK_SIZE; v += VECTOR_LEN) {
              *((VECTOR*) &A_local[m][v]) = *((VECTOR*) &A[(i+m)*DIM + k + v]);
              *((VECTOR*) &B_local[m][v]) = *((VECTOR*) &B[(k+m)*DIM + j + v]);
            }
          }
          for (int x = 0; x < BLOCK_SIZE; ++x) {
            for (int y = 0; y < BLOCK_SIZE; ++y) {
              DTYPE sum = C_local[x][y];
              #pragma unroll BLOCK_SIZE
              for (int v = 0; v < BLOCK_SIZE; ++v) {
                sum += A_local[x][v] * B_local[v][y];
              }
              C_local[x][y] = sum;
            }
          }
        }
        for (int x = 0; x < BLOCK_SIZE; ++x) {
          for (int y = 0; y < BLOCK_SIZE; y += VECTOR_LEN) {
            *((VECTOR*) &C[(i+x)*DIM + j + y]) = *((VECTOR*) &C_local[x][y]);
          }
        }
      }
    }
  }
}
"""

DOUBLE_BUFFERED = r"""
#define DTYPE float
#define BUFFER_SIZE 2

void matmul(DTYPE* A, DTYPE* B, DTYPE* C, int DIM) {
  #pragma omp target parallel map(from:C[0:DIM*DIM]) \
      map(to:A[0:DIM*DIM], B[0:DIM*DIM]) num_threads(NUM_THREADS)
  {
    int my_id = omp_get_thread_num();
    int num_threads = omp_get_num_threads();
    for (int i = my_id*BLOCK_SIZE; i < DIM; i += num_threads*BLOCK_SIZE) {
      for (int j = 0; j < DIM; j += BLOCK_SIZE) {
        DTYPE C_local[BLOCK_SIZE][BLOCK_SIZE];
        DTYPE A_local[BUFFER_SIZE][BLOCK_SIZE][BLOCK_SIZE];
        DTYPE B_local[BUFFER_SIZE][BLOCK_SIZE][BLOCK_SIZE];
        for (int x = 0; x < BLOCK_SIZE; ++x) {
          #pragma unroll BLOCK_SIZE
          for (int y = 0; y < BLOCK_SIZE; ++y) {
            C_local[x][y] = 0.0f;
          }
        }
        for (int k = 0; k < DIM + BLOCK_SIZE; k += BLOCK_SIZE) {
          if (k < DIM) {
            for (int m = 0; m < BLOCK_SIZE; ++m) {
              for (int v = 0; v < BLOCK_SIZE; v += VECTOR_LEN) {
                *((VECTOR*) &A_local[(k / BLOCK_SIZE) % BUFFER_SIZE][m][v]) =
                    *((VECTOR*) &A[(i+m)*DIM + k + v]);
                *((VECTOR*) &B_local[(k / BLOCK_SIZE) % BUFFER_SIZE][m][v]) =
                    *((VECTOR*) &B[(k+m)*DIM + j + v]);
              }
            }
          }
          if (k > 0) {
            for (int x = 0; x < BLOCK_SIZE; ++x) {
              for (int y = 0; y < BLOCK_SIZE; ++y) {
                DTYPE sum = C_local[x][y];
                #pragma unroll BLOCK_SIZE
                for (int v = 0; v < BLOCK_SIZE; ++v) {
                  sum += A_local[(k / BLOCK_SIZE + 1) % BUFFER_SIZE][x][v]
                       * B_local[(k / BLOCK_SIZE + 1) % BUFFER_SIZE][v][y];
                }
                C_local[x][y] = sum;
              }
            }
          }
        }
        for (int x = 0; x < BLOCK_SIZE; ++x) {
          for (int y = 0; y < BLOCK_SIZE; y += VECTOR_LEN) {
            *((VECTOR*) &C[(i+x)*DIM + j + y]) = *((VECTOR*) &C_local[x][y]);
          }
        }
      }
    }
  }
}
"""

#: Version name -> source, in the paper's optimization order.
GEMM_VERSIONS: dict[str, str] = {
    "naive": NAIVE,
    "no_critical": NO_CRITICAL,
    "vectorized": VECTORIZED,
    "blocked": BLOCKED,
    "double_buffered": DOUBLE_BUFFERED,
}

PRELOADED = r"""
#define DTYPE float

void matmul(DTYPE* A, DTYPE* B, DTYPE* C, int DIM) {
  #pragma omp target parallel map(from:C[0:DIM*DIM]) \
      map(to:A[0:DIM*DIM], B[0:DIM*DIM]) num_threads(NUM_THREADS)
  {
    int my_id = omp_get_thread_num();
    int num_threads = omp_get_num_threads();
    for (int i = my_id*BLOCK_SIZE; i < DIM; i += num_threads*BLOCK_SIZE) {
      for (int j = 0; j < DIM; j += BLOCK_SIZE) {
        DTYPE C_local[BLOCK_SIZE][BLOCK_SIZE];
        for (int x = 0; x < BLOCK_SIZE; ++x) {
          #pragma unroll BLOCK_SIZE
          for (int y = 0; y < BLOCK_SIZE; ++y) {
            C_local[x][y] = 0.0f;
          }
        }
        for (int k = 0; k < DIM; k += BLOCK_SIZE) {
          DTYPE A_local[BLOCK_SIZE][BLOCK_SIZE];
          DTYPE B_local[BLOCK_SIZE][BLOCK_SIZE];
          for (int m = 0; m < BLOCK_SIZE; ++m) {
            __preload(A_local, m*BLOCK_SIZE, A, (i+m)*DIM + k, BLOCK_SIZE);
            __preload(B_local, m*BLOCK_SIZE, B, (k+m)*DIM + j, BLOCK_SIZE);
          }
          for (int x = 0; x < BLOCK_SIZE; ++x) {
            for (int y = 0; y < BLOCK_SIZE; ++y) {
              DTYPE sum = C_local[x][y];
              #pragma unroll BLOCK_SIZE
              for (int v = 0; v < BLOCK_SIZE; ++v) {
                sum += A_local[x][v] * B_local[v][y];
              }
              C_local[x][y] = sum;
            }
          }
        }
        for (int x = 0; x < BLOCK_SIZE; ++x) {
          for (int y = 0; y < BLOCK_SIZE; y += VECTOR_LEN) {
            *((VECTOR*) &C[(i+x)*DIM + j + y]) = *((VECTOR*) &C_local[x][y]);
          }
        }
      }
    }
  }
}
"""

#: Variants outside the paper's five-step sequence.
EXTRA_VERSIONS: dict[str, str] = {
    "naive_sum": NAIVE_SUM,
    #: the blocked version with tile loads issued through the preloader
    #: DMA of the architecture template (Fig. 1) — an extension the paper
    #: mentions but does not evaluate
    "preloaded": PRELOADED,
}


def gemm_defines(version: str, num_threads: int = 8,
                 vector_len: int = DEFAULT_VECTOR_LEN,
                 block_size: int = DEFAULT_BLOCK_SIZE) -> dict[str, object]:
    """Macro set for compiling a GEMM version."""

    if version not in GEMM_VERSIONS and version not in EXTRA_VERSIONS:
        raise KeyError(f"unknown GEMM version {version!r}; choose from "
                       f"{sorted(GEMM_VERSIONS) + sorted(EXTRA_VERSIONS)}")
    if block_size % vector_len != 0:
        raise ValueError("BLOCK_SIZE must be a multiple of VECTOR_LEN")
    return {
        "NUM_THREADS": num_threads,
        "VECTOR": f"float{vector_len}",
        "VECTOR_LEN": vector_len,
        "BLOCK_SIZE": block_size,
    }


def gemm_source(version: str) -> str:
    """Mini-C source text of a GEMM version."""

    if version in GEMM_VERSIONS:
        return GEMM_VERSIONS[version]
    return EXTRA_VERSIONS[version]
