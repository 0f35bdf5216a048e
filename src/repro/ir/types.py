"""Type system for the repro HLS intermediate representation.

The IR is statically typed.  Types mirror what the Nymble HLS compiler
supports for OpenMP target regions: scalar integers and floats, short
SIMD vectors (the paper's ``VECTOR`` typedef, §IV/Fig. 4), pointers into
one of the two memory spaces of the architecture template (Fig. 1 of the
paper: fast local BRAM vs. large external DRAM), and fixed-size local
arrays that the HLS maps onto BRAM.

Every type knows its bit width, its numpy dtype (the functional
interpreter executes arithmetic with numpy semantics so that kernel
results can be checked against reference implementations), and whether
it is a floating-point type (used by the profiling unit to classify
compute events into FLOP vs. integer-op counters, §IV-B.2b).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MemorySpace",
    "Type",
    "ScalarType",
    "VectorType",
    "PointerType",
    "ArrayType",
    "VoidType",
    "INT32",
    "INT64",
    "FLOAT32",
    "FLOAT64",
    "BOOL",
    "VOID",
    "vector",
    "pointer",
    "array",
]


class MemorySpace(enum.Enum):
    """Which physical memory a pointer refers to (architecture template, Fig. 1)."""

    #: Large external DRAM shared with the host; accesses are variable-latency.
    EXTERNAL = "external"
    #: Small on-chip BRAM local memories; accesses have a short fixed latency.
    LOCAL = "local"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Type:
    """Base class for all IR types."""

    def bits(self) -> int:
        raise NotImplementedError

    @property
    def is_float(self) -> bool:
        return False

    @property
    def is_integer(self) -> bool:
        return False

    @property
    def is_vector(self) -> bool:
        return False

    @property
    def is_pointer(self) -> bool:
        return False

    @property
    def is_scalar(self) -> bool:
        return False

    @property
    def is_void(self) -> bool:
        return False


@dataclass(frozen=True)
class VoidType(Type):
    """The type of operations that produce no value (stores, barriers...)."""

    def bits(self) -> int:
        return 0

    @property
    def is_void(self) -> bool:
        return True

    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class ScalarType(Type):
    """A scalar machine type.

    Parameters
    ----------
    name:
        Human-readable name (``i32``, ``f32``...).
    width:
        Bit width of the type.
    floating:
        True for IEEE-754 floating-point types.
    np_dtype_name:
        Name of the numpy dtype used for functional evaluation.
    """

    name: str
    width: int
    floating: bool
    np_dtype_name: str

    def bits(self) -> int:
        return self.width

    @property
    def is_float(self) -> bool:
        return self.floating

    @property
    def is_integer(self) -> bool:
        return not self.floating and self.name != "i1"

    @property
    def is_scalar(self) -> bool:
        return True

    @property
    def np_dtype(self) -> np.dtype:
        return np.dtype(self.np_dtype_name)

    def __str__(self) -> str:
        return self.name


INT32 = ScalarType("i32", 32, False, "int32")
INT64 = ScalarType("i64", 64, False, "int64")
FLOAT32 = ScalarType("f32", 32, True, "float32")
FLOAT64 = ScalarType("f64", 64, True, "float64")
BOOL = ScalarType("i1", 1, False, "bool")
VOID = VoidType()


@dataclass(frozen=True)
class VectorType(Type):
    """A short SIMD vector of ``lanes`` elements of scalar type ``elem``.

    The paper's partially-vectorized GEMM (Fig. 4) uses 128-bit vectors;
    a ``VectorType(FLOAT32, 4)`` models exactly that.
    """

    elem: ScalarType
    lanes: int

    def __post_init__(self) -> None:
        if self.lanes < 2:
            raise ValueError(f"vector must have >= 2 lanes, got {self.lanes}")

    def bits(self) -> int:
        return self.elem.bits() * self.lanes

    @property
    def is_float(self) -> bool:
        return self.elem.is_float

    @property
    def is_integer(self) -> bool:
        return self.elem.is_integer

    @property
    def is_vector(self) -> bool:
        return True

    @property
    def np_dtype(self) -> np.dtype:
        return self.elem.np_dtype

    def __str__(self) -> str:
        return f"<{self.lanes} x {self.elem}>"


@dataclass(frozen=True)
class PointerType(Type):
    """A pointer to elements of ``elem`` living in memory space ``space``."""

    elem: Type
    space: MemorySpace = MemorySpace.EXTERNAL

    def bits(self) -> int:
        return 64

    @property
    def is_pointer(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"{self.elem}*{'' if self.space is MemorySpace.EXTERNAL else 'local'}"


@dataclass(frozen=True)
class ArrayType(Type):
    """A fixed-size array (always mapped onto local BRAM by the HLS)."""

    elem: Type
    size: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"array size must be positive, got {self.size}")

    def bits(self) -> int:
        return self.elem.bits() * self.size

    @property
    def is_float(self) -> bool:
        return self.elem.is_float

    def __str__(self) -> str:
        return f"[{self.size} x {self.elem}]"


def vector(elem: ScalarType, lanes: int) -> VectorType:
    """Convenience constructor for :class:`VectorType`."""

    return VectorType(elem, lanes)


def pointer(elem: Type, space: MemorySpace = MemorySpace.EXTERNAL) -> PointerType:
    """Convenience constructor for :class:`PointerType`."""

    return PointerType(elem, space)


def array(elem: Type, size: int) -> ArrayType:
    """Convenience constructor for :class:`ArrayType`."""

    return ArrayType(elem, size)


def element_type(ty: Type) -> Type:
    """Return the element type of a vector/pointer/array, or the type itself."""

    if isinstance(ty, VectorType):
        return ty.elem
    if isinstance(ty, PointerType):
        return ty.elem
    if isinstance(ty, ArrayType):
        return ty.elem
    return ty


def common_arith_type(a: Type, b: Type) -> Type:
    """Usual-arithmetic-conversion result type for a binary operation.

    Mirrors (a simplified version of) C's promotion rules, which is what
    the mini-C frontend needs: float beats int, wider beats narrower,
    vector beats scalar (scalar operands broadcast).
    """

    if isinstance(a, VectorType) and isinstance(b, VectorType):
        if a.lanes != b.lanes:
            raise TypeError(f"vector lane mismatch: {a} vs {b}")
        return VectorType(_scalar_common(a.elem, b.elem), a.lanes)
    if isinstance(a, VectorType):
        return VectorType(_scalar_common(a.elem, _as_scalar(b)), a.lanes)
    if isinstance(b, VectorType):
        return VectorType(_scalar_common(_as_scalar(a), b.elem), b.lanes)
    return _scalar_common(_as_scalar(a), _as_scalar(b))


def _as_scalar(ty: Type) -> ScalarType:
    if not isinstance(ty, ScalarType):
        raise TypeError(f"expected scalar type, got {ty}")
    return ty


def _scalar_common(a: ScalarType, b: ScalarType) -> ScalarType:
    if a == BOOL and b == BOOL:
        return INT32  # i1 promotes to int in arithmetic, as in C
    if a == b:
        return a
    if a.is_float or b.is_float:
        floats = [t for t in (a, b) if t.is_float]
        return max(floats, key=lambda t: t.width)
    # Both integers; a lone i1 operand promotes away.
    candidates = [t for t in (a, b) if t != BOOL]
    return max(candidates, key=lambda t: t.width)
