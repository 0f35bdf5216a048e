"""Unit tests for the IR type system."""

import numpy as np
import pytest

from repro.ir.types import (
    ArrayType, BOOL, FLOAT32, FLOAT64, INT32, INT64, MemorySpace, VectorType,
    VOID, array, common_arith_type, pointer, vector,
)


class TestScalarTypes:
    def test_widths(self):
        assert INT32.bits() == 32
        assert INT64.bits() == 64
        assert FLOAT32.bits() == 32
        assert FLOAT64.bits() == 64
        assert BOOL.bits() == 1

    def test_float_flags(self):
        assert FLOAT32.is_float and FLOAT64.is_float
        assert not INT32.is_float
        assert INT32.is_integer and INT64.is_integer
        assert not FLOAT32.is_integer
        assert not BOOL.is_integer  # i1 is its own category

    def test_numpy_dtypes(self):
        assert np.dtype(FLOAT32.np_dtype_name) == np.dtype("float32")
        assert np.dtype(INT64.np_dtype_name) == np.dtype("int64")

    def test_str(self):
        assert str(INT32) == "i32"
        assert str(FLOAT32) == "f32"
        assert str(VOID) == "void"

    def test_void(self):
        assert VOID.bits() == 0


class TestVectorTypes:
    def test_basic(self):
        v = vector(FLOAT32, 4)
        assert v.bits() == 128
        assert v.lanes == 4
        assert v.is_float
        assert str(v) == "<4 x f32>"

    def test_int_vector(self):
        v = vector(INT32, 8)
        assert v.is_integer and not v.is_float
        assert v.bits() == 256

    def test_single_lane_rejected(self):
        with pytest.raises(ValueError):
            VectorType(FLOAT32, 1)

    def test_equality_and_hash(self):
        assert vector(FLOAT32, 4) == vector(FLOAT32, 4)
        assert vector(FLOAT32, 4) != vector(FLOAT32, 8)
        assert hash(vector(INT32, 2)) == hash(vector(INT32, 2))


class TestPointerAndArray:
    def test_pointer_defaults_external(self):
        p = pointer(FLOAT32)
        assert p.space is MemorySpace.EXTERNAL
        assert p.is_pointer
        assert p.bits() == 64

    def test_local_pointer(self):
        p = pointer(FLOAT32, MemorySpace.LOCAL)
        assert p.space is MemorySpace.LOCAL
        assert "local" in str(p)

    def test_array(self):
        a = array(FLOAT32, 16)
        assert a.bits() == 16 * 32
        assert str(a) == "[16 x f32]"

    def test_array_requires_positive_size(self):
        with pytest.raises(ValueError):
            ArrayType(FLOAT32, 0)
        with pytest.raises(ValueError):
            ArrayType(FLOAT32, -3)


class TestCommonArithType:
    def test_same_type(self):
        assert common_arith_type(INT32, INT32) == INT32
        assert common_arith_type(FLOAT32, FLOAT32) == FLOAT32

    def test_float_beats_int(self):
        assert common_arith_type(INT32, FLOAT32) == FLOAT32
        assert common_arith_type(FLOAT64, INT64) == FLOAT64

    def test_wider_float_wins(self):
        assert common_arith_type(FLOAT32, FLOAT64) == FLOAT64

    def test_wider_int_wins(self):
        assert common_arith_type(INT32, INT64) == INT64

    def test_bool_promotes(self):
        assert common_arith_type(BOOL, BOOL) == INT32
        assert common_arith_type(BOOL, INT64) == INT64

    def test_vector_scalar_broadcast(self):
        v = vector(FLOAT32, 4)
        assert common_arith_type(v, INT32) == v
        assert common_arith_type(FLOAT64, vector(FLOAT32, 4)) == \
            vector(FLOAT64, 4)

    def test_vector_vector(self):
        assert common_arith_type(vector(INT32, 4), vector(FLOAT32, 4)) == \
            vector(FLOAT32, 4)

    def test_vector_lane_mismatch(self):
        with pytest.raises(TypeError):
            common_arith_type(vector(FLOAT32, 4), vector(FLOAT32, 8))

    def test_pointer_rejected(self):
        with pytest.raises(TypeError):
            common_arith_type(pointer(FLOAT32), INT32)
