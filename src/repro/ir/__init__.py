"""Typed intermediate representation for the repro HLS flow.

The IR sits between the mini-C OpenMP frontend (:mod:`repro.frontend`)
and the HLS scheduler (:mod:`repro.hls`).  See DESIGN.md §3.
"""

from .builder import IRBuilder
from .graph import Block, Kernel, Operation, Param, Value
from .ops import OP_INFO, Opcode, OpInfo
from .types import (
    ArrayType,
    BOOL,
    FLOAT32,
    FLOAT64,
    INT32,
    INT64,
    MemorySpace,
    PointerType,
    ScalarType,
    Type,
    VectorType,
    VOID,
    array,
    common_arith_type,
    pointer,
    vector,
)
from .validate import IRValidationError, validate_kernel

__all__ = [
    "IRBuilder", "Block", "Kernel", "Operation", "Param", "Value",
    "OP_INFO", "Opcode", "OpInfo",
    "ArrayType", "BOOL", "FLOAT32", "FLOAT64", "INT32", "INT64",
    "MemorySpace", "PointerType", "ScalarType", "Type", "VectorType", "VOID",
    "array", "common_arith_type", "pointer", "vector",
    "IRValidationError", "validate_kernel",
]
