"""Unit + property tests for the symbolic affine engine."""

from hypothesis import given, settings, strategies as st

from repro.hls.symexpr import Affine, Interval, Sym, difference_excludes


def iv(name: str, lo: int, hi: int) -> Sym:
    return Sym("iv", ("iv", name), Interval(lo, hi))


class TestInterval:
    def test_add(self):
        assert Interval(0, 3) + Interval(1, 2) == Interval(1, 5)

    def test_scale_negative(self):
        assert Interval(1, 4).scale(-2) == Interval(-8, -2)

    def test_intersects(self):
        assert Interval(0, 3).intersects(Interval(3, 5))
        assert not Interval(0, 2).intersects(Interval(3, 5))

    def test_unbounded(self):
        assert Interval().intersects(Interval(5, 5))


class TestAffineAlgebra:
    def test_constants(self):
        a = Affine.constant(5)
        assert a.is_constant and a.const == 5

    def test_add_collects_terms(self):
        x = iv("x", 0, 7)
        e = Affine.symbol(x, 2) + Affine.symbol(x, 3) + Affine.constant(1)
        assert e.const == 1
        assert e.terms == ((x, 5),)

    def test_cancellation(self):
        x = iv("x", 0, 7)
        e = Affine.symbol(x) - Affine.symbol(x)
        assert e.is_constant and e.const == 0

    def test_scale(self):
        x = iv("x", 0, 7)
        e = (Affine.symbol(x) + Affine.constant(2)).scale(3)
        assert e.const == 6
        assert e.terms[0][1] == 3

    def test_scale_zero(self):
        x = iv("x", 0, 7)
        assert (Affine.symbol(x)).scale(0) == Affine()

    def test_structural_equality(self):
        x = iv("x", 0, 7)
        assert Affine.symbol(x) + Affine.constant(1) == \
            Affine.constant(1) + Affine.symbol(x)

    def test_interval_propagation(self):
        x = iv("x", 0, 7)
        y = iv("y", 1, 3)
        e = Affine.symbol(x, 2) + Affine.symbol(y, -1)
        assert e.interval() == Interval(-3, 13)


class TestModDiv:
    def test_constant_mod(self):
        assert Affine.constant(7).mod(4) == Affine.constant(3)

    def test_constant_div(self):
        assert Affine.constant(7).div(2) == Affine.constant(3)

    def test_mod_canonicalization(self):
        x = iv("x", 0, 100)
        m1 = Affine.symbol(x).mod(4)
        m2 = (Affine.symbol(x) + Affine.constant(4)).mod(4)
        # (x) % 4 and (x + 4) % 4 are the same symbol
        assert m1 == m2

    def test_mod_range(self):
        x = iv("x", 0, 100)
        m = Affine.symbol(x).mod(4)
        assert m.interval() == Interval(0, 3)

    def test_div_structural_sharing(self):
        x = iv("x", 0, 100)
        d1 = Affine.symbol(x).div(8)
        d2 = Affine.symbol(x).div(8)
        assert d1 == d2
        assert Affine.symbol(x).div(4) != d1


class TestDifferenceExcludes:
    def test_disjoint_constants(self):
        a = Affine.constant(10)
        b = Affine.constant(0)
        assert difference_excludes(a, b, Interval(-3, 3))
        assert not difference_excludes(a, b, Interval(0, 10))

    def test_same_symbol_cancels(self):
        x = iv("x", 0, 1000)
        a = Affine.symbol(x) + Affine.constant(8)
        b = Affine.symbol(x)
        assert difference_excludes(a, b, Interval(-3, 3))

    def test_different_symbols_conservative(self):
        x, y = iv("x", 0, 10), iv("y", 0, 10)
        assert not difference_excludes(Affine.symbol(x), Affine.symbol(y),
                                       Interval(0, 0))

    def test_bounded_ranges_prove_disjoint(self):
        x = iv("x", 0, 3)
        a = Affine.symbol(x) + Affine.constant(100)
        b = Affine.symbol(iv("y", 0, 3))
        assert difference_excludes(a, b, Interval(-3, 3))

    def test_ping_pong_lemma(self):
        """The double-buffer pattern: 64*((k/8)%2) vs 64*((k/8+1)%2)."""

        k = iv("k", 0, 1000)
        base = Affine.symbol(k).div(8)
        m_cur = base.mod(2).scale(64)
        m_prev = (base + Affine.constant(1)).mod(2).scale(64)
        off1 = Affine.symbol(iv("m", 0, 60))
        off2 = Affine.symbol(iv("x", 0, 63))
        a = m_cur + off1
        b = m_prev + off2
        # windows of width 4 and 1: overlap iff a-b in [-3, 0]
        assert difference_excludes(a, b, Interval(-3, 0))

    def test_same_buffer_not_disjoint(self):
        k = iv("k", 0, 1000)
        m_cur = Affine.symbol(k).div(8).mod(2).scale(64)
        off1 = Affine.symbol(iv("m", 0, 60))
        off2 = Affine.symbol(iv("x", 0, 63))
        assert not difference_excludes(m_cur + off1, m_cur + off2,
                                       Interval(-3, 0))

    def test_mod_three_phases(self):
        """Triple buffering: phases i and i+1 disjoint, i and i+3 alias."""

        k = iv("k", 0, 1000)
        base = Affine.symbol(k).div(4)
        cur = base.mod(3).scale(16)
        nxt = (base + Affine.constant(1)).mod(3).scale(16)
        wrap = (base + Affine.constant(3)).mod(3).scale(16)
        off = Affine.symbol(iv("o", 0, 15))
        assert difference_excludes(cur + off, nxt + off, Interval(0, 0))
        assert not difference_excludes(cur + off, wrap + off, Interval(0, 0))


# ----------------------------------------------------------------------
# property-based soundness: if difference_excludes says "never overlaps",
# then no concrete assignment of symbol values may produce an overlap.
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(
    c1=st.integers(-8, 8), c2=st.integers(-8, 8),
    lo1=st.integers(0, 4), w1=st.integers(1, 4),
    lo2=st.integers(0, 4), w2=st.integers(1, 4),
    coeff=st.integers(-3, 3),
    values=st.lists(st.integers(0, 6), min_size=2, max_size=2),
)
def test_difference_excludes_is_sound(c1, c2, lo1, w1, lo2, w2, coeff, values):
    x = Sym("iv", ("iv", "px"), Interval(lo1, lo1 + w1))
    y = Sym("iv", ("iv", "py"), Interval(lo2, lo2 + w2))
    a = Affine.symbol(x, coeff) + Affine.constant(c1)
    b = Affine.symbol(y, 2) + Affine.constant(c2)
    window = Interval(-1, 1)
    if difference_excludes(a, b, window):
        # brute-force every in-range assignment
        for vx in range(lo1, lo1 + w1 + 1):
            for vy in range(lo2, lo2 + w2 + 1):
                diff = (coeff * vx + c1) - (2 * vy + c2)
                assert not (window.lo <= diff <= window.hi)


@settings(max_examples=200, deadline=None)
@given(
    delta=st.integers(-5, 5),
    modulus=st.integers(2, 5),
    scale=st.integers(1, 64),
    rest_lo=st.integers(-4, 0),
    rest_hi=st.integers(0, 4),
)
def test_mod_pairing_is_sound(delta, modulus, scale, rest_lo, rest_hi):
    """The modular-pairing rule never claims exclusion that a concrete z
    value can violate."""

    z = Sym("iv", ("iv", "pz"), Interval(0, 1000))
    rest = Sym("iv", ("iv", "prest"), Interval(rest_lo, rest_hi))
    a = Affine.symbol(z).mod(modulus).scale(scale) + Affine.symbol(rest)
    b = (Affine.symbol(z) + Affine.constant(delta)).mod(modulus).scale(scale)
    window = Interval(0, 0)
    if difference_excludes(a, b, window):
        for vz in range(0, 3 * modulus):
            for vrest in range(rest_lo, rest_hi + 1):
                diff = scale * (vz % modulus) \
                    - scale * ((vz + delta) % modulus) + vrest
                assert diff != 0, (vz, vrest, diff)
