"""Every IR opcode is one that mini-C lowers to.

Lowers a corpus of mini-C kernels — the stock GEMM versions, π, and the
operator, nest and barrier kernels of the differential tests — and
asserts that each :class:`~repro.ir.Opcode` member appears in at least
one of them.  An opcode no program produces would only keep untested
lowerings alive in the code generators.
"""

from repro.apps import PI_SOURCE, pi_defines
from repro.apps.gemm import (
    EXTRA_VERSIONS, GEMM_VERSIONS, gemm_defines, gemm_source,
)
from repro.frontend import compile_to_kernel
from repro.ir import Opcode

from .test_attribution import PHASES_SRC
from .test_fastpath import OPERATOR_BODIES, operator_source
from .test_nest_fastpath import NEST_SOURCES


def _corpus():
    for version in sorted(GEMM_VERSIONS) + sorted(EXTRA_VERSIONS):
        yield compile_to_kernel(gemm_source(version),
                                defines=gemm_defines(version))
    yield compile_to_kernel(PI_SOURCE, defines=pi_defines(),
                            const_env={"threads": 8})
    for name in sorted(OPERATOR_BODIES):
        yield compile_to_kernel(operator_source(name))
    for source in NEST_SOURCES.values():
        yield compile_to_kernel(source)
    yield compile_to_kernel(PHASES_SRC)


def test_every_opcode_is_lowered_from_mini_c():
    seen = {op.opcode for kernel in _corpus() for op in kernel.walk()}
    assert [opcode.name for opcode in Opcode if opcode not in seen] == []
