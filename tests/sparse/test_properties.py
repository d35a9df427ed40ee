"""Property-based tests (hypothesis) for the sparse substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse.csr import CSRMatrix, segment_sum
from repro.sparse.sell import SellMatrix
from repro.sparse.backend import get_backend

spmv, spmmv = get_backend("numpy").spmv, get_backend("numpy").spmmv


@st.composite
def coo_matrices(draw, max_n=24, max_nnz=80):
    """Random COO triplets (with duplicates) plus the shape."""
    n_rows = draw(st.integers(1, max_n))
    n_cols = draw(st.integers(1, max_n))
    nnz = draw(st.integers(0, max_nnz))
    rows = draw(
        st.lists(st.integers(0, n_rows - 1), min_size=nnz, max_size=nnz)
    )
    cols = draw(
        st.lists(st.integers(0, n_cols - 1), min_size=nnz, max_size=nnz)
    )
    re = draw(
        st.lists(
            st.floats(-10, 10, allow_nan=False), min_size=nnz, max_size=nnz
        )
    )
    im = draw(
        st.lists(
            st.floats(-10, 10, allow_nan=False), min_size=nnz, max_size=nnz
        )
    )
    vals = np.asarray(re) + 1j * np.asarray(im)
    return rows, cols, vals, (n_rows, n_cols)


def dense_from_coo(rows, cols, vals, shape):
    d = np.zeros(shape, dtype=complex)
    for r, c, v in zip(rows, cols, vals):
        d[r, c] += v
    return d


@given(coo_matrices())
@settings(max_examples=60, deadline=None)
def test_from_coo_equals_dense_accumulation(coo):
    rows, cols, vals, shape = coo
    m = CSRMatrix.from_coo(rows, cols, vals, shape)
    assert np.allclose(m.to_dense(), dense_from_coo(rows, cols, vals, shape))


@given(coo_matrices(), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_spmv_matches_dense(coo, seed):
    rows, cols, vals, shape = coo
    m = CSRMatrix.from_coo(rows, cols, vals, shape)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape[1]) + 1j * rng.normal(size=shape[1])
    assert np.allclose(spmv(m, x), m.to_dense() @ x, atol=1e-9)


@given(coo_matrices(), st.integers(1, 6), st.sampled_from([1, 2, 4, 8]),
       st.sampled_from([1, 2, 4, 8]))
@settings(max_examples=40, deadline=None)
def test_sell_roundtrip_and_spmmv(coo, r, chunk, sigma_mult):
    rows, cols, vals, shape = coo
    m = CSRMatrix.from_coo(rows, cols, vals, shape, drop_zeros=True)
    s = SellMatrix(m, chunk_height=chunk, sigma=chunk * sigma_mult)
    assert np.allclose(s.to_dense(), m.to_dense())
    assert 0 < s.beta <= 1.0 or s.nnz == 0
    rng = np.random.default_rng(7)
    x = np.ascontiguousarray(
        rng.normal(size=(shape[1], r)) + 1j * rng.normal(size=(shape[1], r))
    )
    assert np.allclose(spmmv(s, x), m.to_dense() @ x, atol=1e-9)


@given(
    st.lists(st.integers(0, 5), min_size=1, max_size=30),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_segment_sum_matches_loop(lengths, seed):
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    rng = np.random.default_rng(seed)
    v = rng.normal(size=indptr[-1])
    ref = np.array(
        [v[indptr[i] : indptr[i + 1]].sum() for i in range(len(lengths))]
    )
    assert np.allclose(segment_sum(v, indptr), ref)


@given(coo_matrices(max_n=12))
@settings(max_examples=40, deadline=None)
def test_hermitization_is_hermitian(coo):
    """A + A^H must always pass the is_hermitian check."""
    rows, cols, vals, shape = coo
    n = max(shape)
    m = CSRMatrix.from_coo(rows, cols, vals, (n, n) if shape[0] != shape[1] else shape)
    # symmetrize
    h = CSRMatrix.from_dense(m.to_dense() + m.to_dense().conj().T)
    assert h.is_hermitian()


@given(coo_matrices(max_n=12), st.floats(0.1, 5.0), st.floats(-3.0, 3.0))
@settings(max_examples=30, deadline=None)
def test_scale_shift_linearity(coo, a, b):
    rows, cols, vals, shape = coo
    n = max(shape)
    m = CSRMatrix.from_coo(rows, cols, vals, (n, n))
    s = m.scale_shift(a, b)
    assert np.allclose(
        s.to_dense(), a * (m.to_dense() - b * np.eye(n)), atol=1e-9
    )
