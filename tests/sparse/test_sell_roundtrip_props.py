"""Seeded property-based CSR <-> SELL-C-sigma roundtrip tests.

Hypothesis sweeps random sparsity patterns across chunk heights C,
sorting scopes sigma, empty-row patterns, and value edge cases
(real-only, tiny/huge magnitudes), asserting that

* pack/unpack is lossless: ``SellMatrix(csr).to_csr()`` reproduces the
  CSR matrix bit-exactly (padding introduces no arithmetic),
* the layout invariants hold (perm is a permutation, chunk lengths
  dominate their member rows, beta accounting is consistent),
* the NumPy backend's ``spmv``/``aug_spmmv_step`` on the SELL operator
  match the CSR operator on the same data.

``derandomize=True`` pins the example stream to the test id — CI runs
are reproducible, no flaky shrink sessions.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse.backend import get_backend
from repro.sparse.csr import CSRMatrix
from repro.sparse.sell import SellMatrix

NUMPY = get_backend("numpy")
spmv, spmmv, aug_spmmv_step = NUMPY.spmv, NUMPY.spmmv, NUMPY.aug_spmmv_step

SETTINGS = dict(max_examples=50, deadline=None, derandomize=True)

# value pools for the dtype edge cases: exactly representable reals,
# tiny and huge magnitudes, pure-real and pure-imaginary entries
_EDGE_VALUES = [
    1.0, -1.0, 0.5, -2.0, 1e-150, -1e-150, 1e150, -1e150, 1j, -0.25j,
    (1 + 1j) * 1e-30, 3.0,
]


@st.composite
def square_csr(draw, max_n=28, max_nnz=96, edge_values=False):
    """Random square CSR with explicit control over empty rows."""
    n = draw(st.integers(1, max_n))
    nnz = draw(st.integers(0, max_nnz))
    # masking a subset of rows guarantees genuinely empty rows appear
    n_live = draw(st.integers(1, n))
    live_rows = draw(
        st.lists(
            st.integers(0, n - 1), min_size=n_live, max_size=n_live,
            unique=True,
        )
    )
    rows = draw(
        st.lists(st.sampled_from(live_rows), min_size=nnz, max_size=nnz)
    )
    cols = draw(st.lists(st.integers(0, n - 1), min_size=nnz, max_size=nnz))
    if edge_values:
        vals = np.asarray(
            draw(
                st.lists(
                    st.sampled_from(_EDGE_VALUES), min_size=nnz, max_size=nnz
                )
            ),
            dtype=complex,
        )
    else:
        re = draw(
            st.lists(
                st.floats(-10, 10, allow_nan=False), min_size=nnz,
                max_size=nnz,
            )
        )
        im = draw(
            st.lists(
                st.floats(-10, 10, allow_nan=False), min_size=nnz,
                max_size=nnz,
            )
        )
        vals = np.asarray(re) + 1j * np.asarray(im)
    return CSRMatrix.from_coo(rows, cols, vals, (n, n), drop_zeros=True)


sell_params = st.tuples(st.sampled_from([1, 2, 4, 8, 32]),
                        st.sampled_from([1, 2, 4, 8]))


def make_sell(m: CSRMatrix, c: int, sigma_mult: int) -> SellMatrix:
    return SellMatrix(m, chunk_height=c, sigma=1 if sigma_mult == 1
                      else c * sigma_mult)


class TestRoundtrip:
    @given(square_csr(), sell_params)
    @settings(**SETTINGS)
    def test_pack_unpack_bit_exact(self, m, params):
        s = make_sell(m, *params)
        m2 = s.to_csr()
        # no arithmetic happens in pack/unpack: bit-exact, not allclose
        assert np.array_equal(m2.indptr, m.indptr)
        assert np.array_equal(m2.indices, m.indices)
        assert np.array_equal(m2.data, m.data)

    @given(square_csr(edge_values=True), sell_params)
    @settings(**SETTINGS)
    def test_pack_unpack_value_edge_cases(self, m, params):
        s = make_sell(m, *params)
        m2 = s.to_csr()
        assert np.array_equal(m2.indices, m.indices)
        assert np.array_equal(m2.data, m.data)

    @given(square_csr(), sell_params)
    @settings(**SETTINGS)
    def test_double_roundtrip_idempotent(self, m, params):
        s = make_sell(m, *params)
        s2 = make_sell(s.to_csr(), *params)
        assert np.array_equal(s2.data, s.data)
        assert np.array_equal(s2.indices, s.indices)
        assert np.array_equal(s2.perm, s.perm)


class TestLayoutInvariants:
    @given(square_csr(), sell_params)
    @settings(**SETTINGS)
    def test_invariants(self, m, params):
        s = make_sell(m, *params)
        n_padded = s.n_chunks * s.chunk_height
        # perm is a permutation of the padded row range
        assert np.array_equal(np.sort(s.perm), np.arange(n_padded))
        # each chunk is exactly as wide as its longest member row
        lengths = np.zeros(n_padded, dtype=np.int64)
        lengths[:m.n_rows] = m.nnz_per_row
        per_chunk = lengths[s.perm].reshape(s.n_chunks, s.chunk_height)
        assert np.array_equal(s.chunk_len, per_chunk.max(axis=1))
        # accounting: slots dominate nnz, beta consistent
        assert s.stored_slots >= s.nnz
        assert s.stored_slots == int(s.chunk_ptr[-1])
        if s.nnz:
            assert 0 < s.beta <= 1.0
        # sigma sorting never hurts padding vs the unsorted layout
        unsorted = SellMatrix(m, chunk_height=s.chunk_height, sigma=1)
        if s.sigma > 1:
            assert s.stored_slots <= unsorted.stored_slots

    @given(square_csr(max_nnz=0), sell_params)
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_all_rows_empty(self, m, params):
        s = make_sell(m, *params)
        assert s.stored_slots == 0
        assert s.to_csr().nnz == 0


class TestKernelParity:
    @given(square_csr(), sell_params, st.integers(0, 2**31 - 1))
    @settings(**SETTINGS)
    def test_spmv_parity(self, m, params, seed):
        s = make_sell(m, *params)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=m.n_cols) + 1j * rng.normal(size=m.n_cols)
        assert np.allclose(spmv(s, x), spmv(m, x), atol=1e-9)

    @given(square_csr(), sell_params, st.integers(1, 5),
           st.integers(0, 2**31 - 1))
    @settings(**SETTINGS)
    def test_spmmv_parity(self, m, params, r, seed):
        s = make_sell(m, *params)
        rng = np.random.default_rng(seed)
        x = np.ascontiguousarray(
            rng.normal(size=(m.n_cols, r)) + 1j * rng.normal(size=(m.n_cols, r))
        )
        assert np.allclose(spmmv(s, x), spmmv(m, x), atol=1e-9)

    @given(square_csr(), sell_params, st.integers(1, 4),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_aug_spmmv_parity(self, m, params, r, seed):
        s = make_sell(m, *params)
        rng = np.random.default_rng(seed)
        n = m.n_rows
        v = np.ascontiguousarray(
            rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))
        )
        w_csr = np.ascontiguousarray(
            rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))
        )
        w_sell = w_csr.copy()
        a, b = 0.7, -0.3
        ee_c, eo_c = aug_spmmv_step(m, v.copy(), w_csr, a, b)
        ee_s, eo_s = aug_spmmv_step(s, v.copy(), w_sell, a, b)
        assert np.allclose(w_sell, w_csr, atol=1e-9)
        assert np.allclose(ee_s, ee_c, atol=1e-9)
        assert np.allclose(eo_s, eo_c, atol=1e-9)
