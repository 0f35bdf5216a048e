"""Core IR data structures: values, operations, blocks and kernels.

The IR is *structured* (in the style of MLIR): straight-line operations
live in :class:`Block` objects, and structured operations (``for``,
``if``, ``critical``) carry nested blocks as regions.  This mirrors the
Nymble execution model of §III-B, where inner loops are embedded into
the dataflow graph of the surrounding loop as single variable-latency
nodes whose execution pauses the outer graph.

A :class:`Kernel` is the unit of HLS compilation and corresponds to one
OpenMP ``target`` region (the paper's flow is "currently limited to one
target region per application", §III-A).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from .ops import Opcode, op_info
from .types import MemorySpace, PointerType, Type

__all__ = ["Value", "Param", "Operation", "Block", "Kernel"]

_value_ids = itertools.count()


@dataclass(eq=False)
class Value:
    """An SSA-like value produced by an operation or a kernel parameter."""

    type: Type
    name: str = ""
    producer: Optional["Operation"] = None

    def __post_init__(self) -> None:
        self.id: int = next(_value_ids)
        if not self.name:
            self.name = f"v{self.id}"

    def __repr__(self) -> str:
        return f"%{self.name}:{self.type}"


@dataclass(eq=False)
class Param:
    """A kernel parameter.

    ``map_kind`` mirrors the OpenMP ``map`` clause ("to", "from",
    "tofrom", or "" for scalars passed by value), and ``map_size`` the
    number of elements transferred between host and FPGA memory — either
    an integer or an expression string resolved at launch time against
    the scalar arguments (e.g. ``"DIM*DIM"``).
    """

    name: str
    type: Type
    map_kind: str = ""
    map_size: Optional[object] = None
    attrs: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.value = Value(self.type, name=self.name)

    def __repr__(self) -> str:
        clause = f" map({self.map_kind}:{self.map_size})" if self.map_kind else ""
        return f"{self.name}: {self.type}{clause}"


@dataclass(eq=False)
class Operation:
    """One IR operation.

    Attributes
    ----------
    opcode:
        The :class:`~repro.ir.ops.Opcode`.
    operands:
        Input values.
    result:
        The produced value (``None`` for void operations).
    attrs:
        Opcode-specific attributes (constant payloads, unroll factors,
        lock ids, variable handles, source locations...).
    regions:
        Nested blocks for structured opcodes (``for``/``if``/``critical``).
    defined:
        Values this operation makes available to its regions (e.g. the
        loop induction variable of a ``for``).
    """

    opcode: Opcode
    operands: list[Value] = field(default_factory=list)
    result: Optional[Value] = None
    attrs: dict[str, Any] = field(default_factory=dict)
    regions: list["Block"] = field(default_factory=list)
    defined: list[Value] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.result is not None:
            self.result.producer = self
        info = op_info(self.opcode)
        if info.has_region and not self.regions:
            raise ValueError(f"{self.opcode} requires at least one region")

    @property
    def info(self):
        return op_info(self.opcode)

    @property
    def is_vlo(self) -> bool:
        """Variable-latency operation?  Local (BRAM) accesses are fixed-latency."""

        if self.opcode in (Opcode.LOAD, Opcode.STORE):
            base = self.operands[0]
            if isinstance(base.type, PointerType) and base.type.space is MemorySpace.LOCAL:
                return False
            return True
        return self.info.is_vlo

    def walk(self) -> Iterator["Operation"]:
        """Yield this operation and all operations in nested regions (pre-order)."""

        yield self
        for region in self.regions:
            for op in region.walk():
                yield op

    def __repr__(self) -> str:
        res = f"{self.result!r} = " if self.result is not None else ""
        args = ", ".join(repr(o) for o in self.operands)
        extra = f" {self.attrs}" if self.attrs else ""
        return f"{res}{self.opcode}({args}){extra}"


@dataclass(eq=False)
class Block:
    """A straight-line sequence of operations."""

    ops: list[Operation] = field(default_factory=list)
    label: str = ""

    def append(self, op: Operation) -> Operation:
        self.ops.append(op)
        return op

    def walk(self) -> Iterator[Operation]:
        """Yield all operations in this block and nested regions (pre-order)."""

        for op in self.ops:
            yield from op.walk()

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.ops)

    def __len__(self) -> int:
        return len(self.ops)


@dataclass(eq=False)
class Kernel:
    """One HLS compilation unit (an OpenMP target region).

    Attributes
    ----------
    name:
        Kernel name (the enclosing C function's name).
    params:
        Kernel parameters, in declaration order.
    body:
        Top-level block executed by *each* hardware thread.
    num_threads:
        Number of simultaneous hardware threads (``num_threads`` clause;
        the paper uses 8 throughout §V).
    attrs:
        Frontend-provided metadata (vector width, source file...).
    """

    name: str
    params: list[Param] = field(default_factory=list)
    body: Block = field(default_factory=Block)
    num_threads: int = 1
    attrs: dict[str, Any] = field(default_factory=dict)

    def param(self, name: str) -> Param:
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(f"kernel {self.name} has no parameter {name!r}")

    def walk(self) -> Iterator[Operation]:
        return self.body.walk()

    def count_ops(self, pred: Optional[Callable[[Operation], bool]] = None) -> int:
        """Count operations (everywhere in the kernel) matching ``pred``."""

        return sum(1 for op in self.walk() if pred is None or pred(op))

    def __repr__(self) -> str:
        return (f"Kernel({self.name}, params={len(self.params)}, "
                f"threads={self.num_threads}, ops={self.count_ops()})")
