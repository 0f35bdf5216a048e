"""Symbolic affine expressions for memory dependence analysis.

The HLS scheduler must decide whether two memory accesses can touch the
same element.  Array indices in the kernels are affine combinations of
loop induction variables, thread ids and simple derived values — plus
the ping-pong pattern ``(x % N)`` that the double-buffered GEMM uses to
alternate buffers.  This module provides:

* :class:`Sym` — an interned symbol with an optional value range;
* :class:`Affine` — ``const + sum(coeff_i * sym_i)`` with helpers to
  add/subtract/scale and to canonicalize ``(affine) % N`` and
  ``(affine) / N`` into structural symbols (so the *same* sub-expression
  appearing in two different accesses becomes the *same* symbol and
  cancels in differences);
* :func:`difference_excludes` — the disjointness test: can
  ``a - b`` ever land inside a forbidden window?  It combines interval
  arithmetic over symbol ranges with the modular-arithmetic lemma
  ``mod(x, N) - mod(x + c, N) ≡ -c (mod N)``, which is what proves the
  double-buffer load and compute phases independent (DESIGN.md §5).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

__all__ = ["Sym", "Affine", "Interval", "difference_excludes"]

_INF = float("inf")


@dataclass(frozen=True)
class Interval:
    """A closed integer interval (possibly unbounded)."""

    lo: float = -_INF
    hi: float = _INF

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def scale(self, factor: int) -> "Interval":
        a, b = self.lo * factor, self.hi * factor
        return Interval(min(a, b), max(a, b))

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi


@dataclass(frozen=True)
class Sym:
    """An interned symbol.

    ``key`` makes symbols *structural*: two ``Sym`` objects with the same
    key are the same symbol (and cancel in differences).  ``kind`` is
    one of ``iv`` (loop induction variable), ``tid``, ``var`` (register
    version), ``mod``, ``div`` or ``opaque``.  ``mod`` symbols remember
    their canonicalized inner affine (``inner``) and modulus so the
    modular lemma can relate two different mod symbols.
    """

    kind: str
    key: tuple
    range: Interval = field(default=Interval(), compare=False)
    inner: Optional["Affine"] = field(default=None, compare=False)
    modulus: Optional[int] = field(default=None, compare=False)

    def __repr__(self) -> str:
        return f"{self.kind}{self.key}"

    @cached_property
    def order(self) -> str:
        """Sort key of the symbol within an :class:`Affine` (its repr,
        built once: a ``mod``/``div`` key nests whole expressions)."""

        return repr(self)


_opaque_counter = itertools.count()


def fresh_opaque() -> Sym:
    """A unique symbol about which nothing is known."""

    return Sym("opaque", ("fresh", next(_opaque_counter)))


@dataclass(frozen=True)
class Affine:
    """``const + sum(coeff * sym)`` with integer coefficients.

    Instances are immutable; ``terms`` is a tuple of (Sym, coeff) sorted
    by symbol key so equal expressions compare (and hash) equal — this
    is what makes :class:`Sym` interning structural.
    """

    const: int = 0
    terms: tuple[tuple[Sym, int], ...] = ()

    # -- constructors ---------------------------------------------------
    @staticmethod
    def constant(value: int) -> "Affine":
        return Affine(const=value)

    @staticmethod
    def symbol(sym: Sym, coeff: int = 1) -> "Affine":
        if coeff == 0:
            return Affine()
        return Affine(0, ((sym, coeff),))

    @staticmethod
    def build(const: int, terms: dict[Sym, int]) -> "Affine":
        cleaned = tuple(sorted(((s, c) for s, c in terms.items() if c != 0),
                               key=lambda item: item[0].order))
        return Affine(const, cleaned)

    # -- algebra ----------------------------------------------------------
    def _as_dict(self) -> dict[Sym, int]:
        return {s: c for s, c in self.terms}

    def __add__(self, other: "Affine") -> "Affine":
        terms = self._as_dict()
        for sym, coeff in other.terms:
            terms[sym] = terms.get(sym, 0) + coeff
        return Affine.build(self.const + other.const, terms)

    def __sub__(self, other: "Affine") -> "Affine":
        return self + other.scale(-1)

    def scale(self, factor: int) -> "Affine":
        if factor == 0:
            return Affine()
        return Affine.build(self.const * factor,
                            {s: c * factor for s, c in self.terms})

    @property
    def is_constant(self) -> bool:
        return not self.terms

    # -- canonical mod/div ---------------------------------------------------
    def mod(self, modulus: int) -> "Affine":
        """Canonical ``self % modulus`` (C semantics for non-negative values).

        The constant part is folded into the canonical inner expression
        so that ``(x) % N`` and ``(x + N) % N`` produce the same symbol,
        and ``(x + c) % N`` symbols with equal inner-``x`` can be related
        by the modular lemma in :func:`difference_excludes`.
        """

        if modulus <= 0:
            return Affine.symbol(fresh_opaque())
        if self.is_constant:
            return Affine.constant(self.const % modulus)
        inner = Affine(self.const % modulus, self.terms)
        sym = Sym("mod", ("mod", inner, modulus), Interval(0, modulus - 1),
                  inner=inner, modulus=modulus)
        return Affine.symbol(sym)

    def div(self, divisor: int) -> "Affine":
        """Structural ``self / divisor`` (opaque but interned by structure)."""

        if divisor <= 0:
            return Affine.symbol(fresh_opaque())
        if self.is_constant:
            return Affine.constant(self.const // divisor)
        sym = Sym("div", ("div", self, divisor))
        return Affine.symbol(sym)

    # -- ranges ---------------------------------------------------------------
    def interval(self) -> Interval:
        """Best-effort value range from symbol ranges."""

        result = Interval(self.const, self.const)
        for sym, coeff in self.terms:
            result = result + sym.range.scale(coeff)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [str(self.const)] if self.const or not self.terms else []
        parts += [f"{c}*{s!r}" for s, c in self.terms]
        return " + ".join(parts)


def difference_excludes(a: Affine, b: Affine, window: Interval) -> bool:
    """Return True if ``a - b`` provably never falls inside ``window``.

    ``window`` is the forbidden interval: for two accesses of widths
    ``wa`` and ``wb`` starting at ``a`` and ``b``, overlap means
    ``-(wb-1) <= a - b <= wa-1``.

    Two reasoning steps:

    1. *Modular pairing*: if the difference contains exactly two mod
       symbols with the same modulus ``N``, inner expressions differing
       by a constant ``c``, and opposite unit coefficients scaled by
       ``f``, then that part contributes ``f * d`` where
       ``d ≡ -c (mod N)`` and ``|d| <= N-1`` — a *set* of values rather
       than a full interval.  (This proves ping-pong buffers disjoint.)
    2. *Interval arithmetic* over the remaining terms' ranges.
    """

    diff = a - b
    base = Interval(diff.const, diff.const)
    candidate_values: Optional[list[int]] = None

    mods = [(s, c) for s, c in diff.terms if s.kind == "mod"]
    others = [(s, c) for s, c in diff.terms if s.kind != "mod"]

    if len(mods) == 2:
        (s1, c1), (s2, c2) = mods
        if (s1.modulus == s2.modulus and s1.modulus is not None
                and c1 == -c2 and s1.inner is not None and s2.inner is not None):
            inner_diff = s1.inner - s2.inner
            if inner_diff.is_constant:
                n = s1.modulus
                delta = inner_diff.const
                # s1.inner = z + delta, s2.inner = z
                #   =>  s1 - s2 = mod(z+delta, N) - mod(z, N) ≡ delta (mod N)
                values = [d for d in range(-(n - 1), n)
                          if (d - delta) % n == 0]
                candidate_values = [c1 * d for d in values]
                mods = []
    for sym, coeff in mods:  # unpaired mod symbols: fall back to their range
        others.append((sym, coeff))

    rest = base
    for sym, coeff in others:
        rest = rest + sym.range.scale(coeff)

    if candidate_values is None:
        return not rest.intersects(window)
    # difference = (paired-mod value) + rest; exclude window only if every
    # candidate shifted interval misses it.
    return all(not Interval(rest.lo + v, rest.hi + v).intersects(window)
               for v in candidate_values)
