"""Precision profiles: widths, index compression, storage round-trips.

The uint16/uint32 boundary is tested exhaustively at 65,535 / 65,536 /
65,537 columns (uint16 addresses indices 0..65535, i.e. up to exactly
2^16 columns) and property-based over random index sets via hypothesis.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse.compress import (
    compress_indices,
    decompress_indices,
    narrow_index_dtype,
)
from repro.util.constants import IDTYPE
from repro.util.precision import (
    FP16V,
    FP32,
    FP64,
    PRECISION_CHOICES,
    PRECISIONS,
    UINT16_MAX_COLS,
    get_precision,
    precision_of,
)

SETTINGS = dict(max_examples=60, deadline=None, derandomize=True)


class TestProfiles:
    def test_registry(self):
        assert PRECISION_CHOICES == ("fp64", "fp32", "fp16v")
        assert PRECISIONS["fp64"] is FP64
        # the vocabulary lives import-free in util.knobs, the profiles here
        assert PRECISION_CHOICES == tuple(PRECISIONS)
        assert all(PRECISIONS[name].name == name for name in PRECISIONS)

    def test_widths(self):
        # the paper's S_d = 16 baseline, then the halved/quartered tiers
        assert (FP64.s_value, FP64.s_vector) == (16, 16)
        assert (FP32.s_value, FP32.s_vector) == (8, 8)
        assert (FP16V.s_value, FP16V.s_vector) == (8, 4)

    def test_compute_dtype(self):
        assert FP64.compute_dtype == np.complex128
        assert FP32.compute_dtype == np.complex64
        assert FP16V.compute_dtype == np.complex64
        assert FP16V.half_vectors and not FP32.half_vectors

    def test_get_precision(self):
        assert get_precision(None) is FP64
        assert get_precision("FP32") is FP32
        assert get_precision(FP16V) is FP16V
        with pytest.raises(ValueError, match="unknown precision"):
            get_precision("fp8")

    def test_precision_of(self):
        assert precision_of(np.zeros(3, np.complex128)) is FP64
        assert precision_of(np.zeros(3, np.complex64)) is FP32
        assert precision_of(np.zeros((3, 2), np.float16)) is FP16V
        with pytest.raises(TypeError):
            precision_of(np.zeros(3, np.float64))

    def test_vec_shape_and_logical_shape(self):
        assert FP32.vec_shape(5, 3) == (5, 3)
        assert FP16V.vec_shape(5, 3) == (5, 3, 2)
        arr = FP16V.vec_zeros(5, 3)
        assert arr.shape == (5, 3, 2) and arr.dtype == np.float16
        assert FP16V.logical_shape(arr) == (5, 3)


class TestIndexBoundary:
    """uint16 eligibility flips between 65,536 and 65,537 columns."""

    @pytest.mark.parametrize("n_cols,expect", [
        (1, np.uint16),
        (UINT16_MAX_COLS - 1, np.uint16),   # 65,535
        (UINT16_MAX_COLS, np.uint16),        # 65,536: max index 65,535
        (UINT16_MAX_COLS + 1, IDTYPE),       # 65,537: index 65,536 overflows
    ])
    def test_narrow_index_dtype(self, n_cols, expect):
        assert narrow_index_dtype(n_cols) == np.dtype(expect)

    @pytest.mark.parametrize("n_cols,s_i", [
        (UINT16_MAX_COLS, 2), (UINT16_MAX_COLS + 1, 4),
    ])
    def test_profile_index_bytes(self, n_cols, s_i):
        for prec in (FP32, FP16V):
            assert prec.index_bytes(n_cols) == s_i
            assert prec.index_dtype(n_cols) == narrow_index_dtype(n_cols)
        # fp64 never compresses: the published Table-I S_i = 4 stands
        assert FP64.index_bytes(n_cols) == 4
        assert FP64.index_dtype(n_cols) == np.int32

    def test_boundary_values_survive(self):
        # the two largest uint16-representable indices, at the edge
        idx = np.array([0, 65534, 65535], dtype=IDTYPE)
        comp = compress_indices(idx, UINT16_MAX_COLS)
        assert comp.dtype == np.uint16
        assert np.array_equal(decompress_indices(comp), idx)
        # one column more and compression must decline, not wrap
        wide = compress_indices(np.array([65536], IDTYPE),
                                UINT16_MAX_COLS + 1)
        assert wide.dtype == np.dtype(IDTYPE)

    def test_out_of_range_refused(self):
        with pytest.raises(ValueError, match="out of range"):
            compress_indices(np.array([70000], IDTYPE), UINT16_MAX_COLS)
        with pytest.raises(ValueError, match="out of range"):
            compress_indices(np.array([-1], IDTYPE), UINT16_MAX_COLS)


@given(
    n_cols=st.one_of(
        st.integers(1, 300),
        st.sampled_from([UINT16_MAX_COLS - 1, UINT16_MAX_COLS,
                         UINT16_MAX_COLS + 1, 10 * UINT16_MAX_COLS]),
    ),
    data=st.data(),
)
@settings(**SETTINGS)
def test_index_round_trip_props(n_cols, data):
    """compress -> decompress is the identity for any in-range index set."""
    idx = np.asarray(
        data.draw(st.lists(st.integers(0, n_cols - 1), max_size=64)),
        dtype=IDTYPE,
    )
    comp = compress_indices(idx, n_cols)
    assert comp.dtype == narrow_index_dtype(n_cols)
    back = decompress_indices(comp)
    assert back.dtype == np.dtype(IDTYPE)
    assert np.array_equal(back, idx)
    # compressing an already-narrow array is a no-copy identity
    again = compress_indices(comp, n_cols)
    assert again is comp


@given(
    shape=st.tuples(st.integers(1, 12), st.integers(1, 4)),
    seed=st.integers(0, 2**31 - 1),
)
@settings(**SETTINGS)
def test_encode_decode_round_trip_props(shape, seed):
    """Storage encode/decode round-trips for every profile.

    fp64/fp32 are exact in their own dtype; fp16v is exact for values
    already representable in float16 (here: small integers halved).
    """
    rng = np.random.default_rng(seed)
    base = (rng.integers(-8, 8, shape) + 1j * rng.integers(-8, 8, shape))
    for prec in (FP64, FP32, FP16V):
        src = np.asarray(base, dtype=prec.compute_dtype) / 2
        stored = prec.encode(src)
        assert stored.shape == prec.vec_shape(*shape)
        out = np.empty(shape, dtype=prec.compute_dtype)
        assert np.array_equal(prec.decode(stored, out=out), src)
        assert np.array_equal(prec.decode(stored), src)
