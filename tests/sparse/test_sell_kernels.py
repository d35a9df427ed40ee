"""Layout-faithful SELL chunk kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse.backend import get_backend
from repro.sparse.csr import CSRMatrix
from repro.sparse.sell import SellMatrix
from repro.sparse.sell_kernels import (
    sell_spmmv_chunked,
    sell_spmv_chunked,
    validate_layout,
)
from repro.util.counters import PerfCounters
from repro.util.errors import ShapeError


@pytest.fixture
def sell(small_hermitian):
    m, dense = small_hermitian
    return SellMatrix(m, chunk_height=8, sigma=16), dense


class TestChunkedKernels:
    def test_spmv_matches_dense(self, sell, rng):
        s, dense = sell
        x = rng.normal(size=40) + 1j * rng.normal(size=40)
        assert np.allclose(sell_spmv_chunked(s, x), dense @ x)

    @pytest.mark.parametrize("r", [1, 3, 8])
    def test_spmmv_matches_dense(self, sell, rng, r):
        s, dense = sell
        x = np.ascontiguousarray(
            rng.normal(size=(40, r)) + 1j * rng.normal(size=(40, r))
        )
        assert np.allclose(sell_spmmv_chunked(s, x), dense @ x)

    @pytest.mark.parametrize("c,sigma", [(1, 1), (4, 8), (32, 32)])
    def test_all_chunk_configs(self, small_hermitian, rng, c, sigma):
        m, dense = small_hermitian
        s = SellMatrix(m, chunk_height=c, sigma=sigma)
        x = rng.normal(size=40) + 1j * rng.normal(size=40)
        assert np.allclose(sell_spmv_chunked(s, x), dense @ x)

    def test_counters_charge_padded_slots(self, sell):
        s, _ = sell
        c = PerfCounters()
        sell_spmv_chunked(s, np.zeros(40, dtype=complex), counters=c)
        assert c.flops == s.stored_slots * 8

    def test_matches_fast_path(self, sell, rng):
        s, _ = sell
        x = np.ascontiguousarray(
            rng.normal(size=(40, 4)) + 1j * rng.normal(size=(40, 4))
        )
        ref = get_backend("numpy").spmmv(s, x)
        assert np.allclose(sell_spmmv_chunked(s, x), ref, atol=1e-10)

    def test_out_shape_checked(self, sell):
        s, _ = sell
        with pytest.raises(ShapeError):
            sell_spmv_chunked(s, np.zeros(40, dtype=complex),
                              out=np.empty(39, dtype=complex))
        with pytest.raises(ShapeError):
            sell_spmmv_chunked(s, np.zeros((40, 2), dtype=complex),
                               out=np.empty((40, 3), dtype=complex))


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_reference_follows_the_storage_profile(dtype):
    """The SELL reference computes and charges in the input's profile,
    exactly as the NumPy backend does."""
    from repro.physics import build_topological_insulator

    h, _ = build_topological_insulator(4, 4, 2)
    s = SellMatrix(h, chunk_height=8, sigma=16)
    rng = np.random.default_rng(3)
    X = (rng.normal(size=(h.n_rows, 3))
         + 1j * rng.normal(size=(h.n_rows, 3))).astype(dtype)
    x = X[:, 0].copy()
    bk = get_backend("numpy")
    for ref_fn, bk_fn, arg in ((sell_spmv_chunked, bk.spmv, x),
                               (sell_spmmv_chunked, bk.spmmv, X)):
        c_ref, c_bk = PerfCounters(), PerfCounters()
        ref, got = ref_fn(s, arg, counters=c_ref), bk_fn(s, arg, counters=c_bk)
        assert ref.dtype == got.dtype == dtype
        assert c_ref.bytes_total == c_bk.bytes_total
        assert c_ref.flops == c_bk.flops
        assert np.allclose(ref, got, atol=1e-4)


class TestLayoutValidation:
    def test_valid_layouts_pass(self, sell):
        s, _ = sell
        validate_layout(s)

    def test_ti_layout_passes(self, ti_small):
        h, _ = ti_small
        validate_layout(SellMatrix(h, chunk_height=32, sigma=64))

    def test_corrupted_chunk_ptr_detected(self, sell):
        s, _ = sell
        s.chunk_ptr = s.chunk_ptr.copy()
        s.chunk_ptr[1] += s.chunk_height
        with pytest.raises(ShapeError):
            validate_layout(s)

    def test_corrupted_indices_detected(self, sell):
        s, _ = sell
        s.indices = s.indices.copy()
        s.indices[0] = 1000
        with pytest.raises(ShapeError):
            validate_layout(s)


@given(st.integers(0, 2**31 - 1), st.sampled_from([1, 2, 4, 8]),
       st.sampled_from([1, 2]))
@settings(max_examples=25, deadline=None)
def test_chunked_equals_reference_on_random_matrices(seed, chunk, sig_mult):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    dense = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * (
        rng.random((n, n)) < 0.3
    )
    m = CSRMatrix.from_dense(dense)
    s = SellMatrix(m, chunk_height=chunk, sigma=chunk * sig_mult)
    validate_layout(s)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    assert np.allclose(sell_spmv_chunked(s, x), dense @ x, atol=1e-9)
