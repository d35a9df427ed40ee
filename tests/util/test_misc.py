"""Timer, validation helpers, and constants."""

import numpy as np
import pytest

from repro.util.constants import (
    DTYPE,
    F_ADD,
    F_MUL,
    S_D,
    S_I,
    element_size,
    flops_per_cadd,
    flops_per_cmul,
)
from repro.util.errors import ShapeError
from repro.util.timing import Timer, gflops
from repro.util.validation import (
    check_block_vector,
    check_in_range,
    check_positive,
    check_vector,
)


class TestConstants:
    def test_paper_parameter_values(self):
        # Section III-A: S_d = 16, S_i = 4, F_a = 2, F_m = 6
        assert (S_D, S_I, F_ADD, F_MUL) == (16, 4, 2, 6)

    def test_element_size_matches_dtype(self):
        assert element_size(DTYPE) == 16
        assert element_size(np.float64) == 8

    def test_flop_costs_for_real_dtypes(self):
        assert flops_per_cmul(np.float64) == 1
        assert flops_per_cadd(np.float64) == 1
        assert flops_per_cmul(np.complex128) == 6
        assert flops_per_cadd(np.complex128) == 2


class TestTimer:
    def test_accumulates_laps(self):
        t = Timer()
        for _ in range(3):
            with t:
                pass
        assert len(t.laps) == 3
        assert t.elapsed >= 0
        assert t.best <= t.mean or np.isclose(t.best, t.mean)

    def test_reset(self):
        t = Timer()
        with t:
            pass
        t.reset()
        assert t.elapsed == 0 and t.laps == []

    def test_empty_stats(self):
        t = Timer()
        assert t.mean == 0.0
        assert t.best == float("inf")

    def test_gflops(self):
        assert gflops(2e9, 1.0) == 2.0
        assert gflops(1.0, 0.0) == 0.0


class TestValidation:
    def test_check_positive(self):
        check_positive("x", 1)
        with pytest.raises(ValueError, match="x must be positive"):
            check_positive("x", 0)

    def test_check_in_range(self):
        check_in_range("x", 0.5, 0, 1)
        with pytest.raises(ValueError):
            check_in_range("x", 2, 0, 1)

    def test_check_vector_shape(self):
        v = np.zeros(5)
        assert check_vector("v", v, 5) is not None
        with pytest.raises(ShapeError):
            check_vector("v", v, 6)
        with pytest.raises(ShapeError):
            check_vector("v", np.zeros((5, 1)), 5)

    def test_check_block_vector_contiguity(self):
        ok = np.zeros((4, 3))
        check_block_vector("V", ok, 4)
        check_block_vector("V", ok, 4, 3)
        with pytest.raises(ShapeError, match="C-contiguous"):
            check_block_vector("V", np.asfortranarray(np.zeros((4, 3))), 4)
        with pytest.raises(ShapeError):
            check_block_vector("V", ok, 4, 2)
        with pytest.raises(ShapeError):
            check_block_vector("V", np.zeros(4), 4)
