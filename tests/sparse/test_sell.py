"""SELL-C-sigma storage: layout, padding, sorting, round trips."""

import numpy as np
import pytest

from repro.physics import build_topological_insulator
from repro.sparse.csr import CSRMatrix
from repro.sparse.sell import SellMatrix
from repro.util.errors import FormatError


def ragged_matrix():
    """Rows with very different lengths to exercise sorting/padding."""
    rows, cols, vals = [], [], []
    n = 20
    for i in range(n):
        k = (i * 7) % 9 + 1
        for j in range(k):
            rows.append(i)
            cols.append((i + j * 3) % n)
            vals.append(float(i + 1) + 1j * j)
    return CSRMatrix.from_coo(rows, cols, vals, (n, n))


def sell_reference(csr, c, sigma):
    """(perm, data, indices) of SELL-c-sigma filled chunk by chunk and
    row by row, padding at the row's own clipped column."""
    n = csr.n_rows
    n_chunks = -(-n // c)
    lengths = np.zeros(n_chunks * c, dtype=np.int64)
    lengths[:n] = np.diff(csr.indptr)
    perm = np.arange(n_chunks * c)
    if sigma > 1:
        for lo in range(0, perm.size, sigma):
            scope = lengths[lo:lo + sigma]
            perm[lo:lo + scope.size] = lo + np.argsort(-scope, kind="stable")
    data, indices = [], []
    for k in range(n_chunks):
        rows = perm[k * c:(k + 1) * c]
        width = lengths[rows].max()
        vals = np.zeros((c, width), dtype=np.complex128)
        cols = np.repeat(np.minimum(rows, csr.n_cols - 1)[:, None], width, 1)
        for lane, row in enumerate(rows):
            if row < n:
                lo, hi = csr.indptr[row], csr.indptr[row + 1]
                vals[lane, :hi - lo] = csr.data[lo:hi]
                cols[lane, :hi - lo] = csr.indices[lo:hi]
        data.append(vals.T.ravel())
        indices.append(cols.T.ravel())
    return perm, np.concatenate(data), np.concatenate(indices).astype(np.int32)


class TestFillReference:
    """The one-scatter fill against the chunk-by-chunk, row-by-row one."""

    @pytest.mark.parametrize("c, sigma", [(32, 1), (8, 1), (32, 128), (4, 8)])
    def test_ti(self, c, sigma):
        h, _ = build_topological_insulator(8, 8, 4)
        self.check(SellMatrix(h, c, sigma), sell_reference(h, c, sigma))

    @pytest.mark.parametrize("c, sigma", [(4, 8), (8, 1)])
    def test_rectangular(self, c, sigma):
        # fewer columns than rows (padding clips), empty rows, a ragged tail
        rng = np.random.default_rng(5)
        rows = np.repeat(np.arange(37), rng.integers(0, 9, 37))
        m = CSRMatrix.from_coo(rows, rng.integers(0, 11, rows.size),
                               rng.normal(size=rows.size) + 1j, (37, 11))
        self.check(SellMatrix(m, c, sigma), sell_reference(m, c, sigma))

    @staticmethod
    def check(s, ref):
        perm, data, indices = ref
        assert np.array_equal(s.perm, perm)
        assert s.data.tobytes() == data.tobytes()
        assert s.indices.tobytes() == indices.tobytes()
        assert np.array_equal(s.inv_perm[s.perm], np.arange(perm.size))


class TestConstruction:
    def test_roundtrip_dense(self, small_hermitian):
        m, dense = small_hermitian
        s = SellMatrix(m, chunk_height=8, sigma=16)
        assert np.allclose(s.to_dense(), dense)

    @pytest.mark.parametrize("c,sigma", [(1, 1), (2, 4), (4, 4), (8, 1), (32, 32)])
    def test_roundtrip_parametrized(self, c, sigma):
        m = ragged_matrix()
        s = SellMatrix(m, chunk_height=c, sigma=sigma)
        assert np.allclose(s.to_dense(), m.to_dense())

    def test_invalid_sigma_rejected(self):
        with pytest.raises(FormatError):
            SellMatrix(ragged_matrix(), chunk_height=4, sigma=6)

    def test_invalid_chunk_rejected(self):
        with pytest.raises(ValueError):
            SellMatrix(ragged_matrix(), chunk_height=0)

    def test_nonsquare(self):
        m = CSRMatrix.from_coo([0, 2], [1, 4], [1.0, 2.0], (3, 5))
        s = SellMatrix(m, chunk_height=2)
        assert np.allclose(s.to_dense(), m.to_dense())


class TestPadding:
    def test_beta_at_most_one(self):
        s = SellMatrix(ragged_matrix(), chunk_height=4, sigma=1)
        assert 0 < s.beta <= 1.0

    def test_sorting_improves_beta(self):
        m = ragged_matrix()
        unsorted = SellMatrix(m, chunk_height=4, sigma=1)
        fully = SellMatrix(m, chunk_height=4, sigma=20)
        assert fully.beta >= unsorted.beta

    def test_sell1_is_crs_no_padding(self):
        s = SellMatrix(ragged_matrix(), chunk_height=1, sigma=1)
        assert s.beta == pytest.approx(1.0)
        assert s.stored_slots == s.nnz

    def test_uniform_rows_no_padding(self, ti_periodic):
        h, _ = ti_periodic
        s = SellMatrix(h, chunk_height=32, sigma=1)
        assert s.beta == pytest.approx(1.0)

    def test_memory_bytes_counts_padding(self):
        s = SellMatrix(ragged_matrix(), chunk_height=4, sigma=1)
        assert s.memory_bytes() == s.stored_slots * 20
        assert s.memory_bytes() >= s.nnz * 20


class TestLayout:
    def test_chunk_count(self):
        s = SellMatrix(ragged_matrix(), chunk_height=8)
        assert s.n_chunks == -(-20 // 8)

    def test_chunk_len_is_chunk_max(self):
        m = ragged_matrix()
        s = SellMatrix(m, chunk_height=4, sigma=1)
        lengths = np.zeros(s.n_chunks * 4, dtype=int)
        lengths[:20] = m.nnz_per_row
        for ci in range(s.n_chunks):
            assert s.chunk_len[ci] == lengths[4 * ci : 4 * ci + 4].max()

    def test_perm_is_permutation(self):
        s = SellMatrix(ragged_matrix(), chunk_height=4, sigma=8)
        assert sorted(s.perm.tolist()) == list(range(len(s.perm)))

    def test_sigma_sorting_descending_within_scope(self):
        m = ragged_matrix()
        s = SellMatrix(m, chunk_height=4, sigma=8)
        lengths = np.zeros(s.n_chunks * 4, dtype=int)
        lengths[:20] = m.nnz_per_row
        sorted_lengths = lengths[s.perm]
        for lo in range(0, len(sorted_lengths), 8):
            scope = sorted_lengths[lo : lo + 8]
            assert np.all(np.diff(scope) <= 0)

    def test_repr_shows_beta(self):
        s = SellMatrix(ragged_matrix(), chunk_height=4)
        assert "beta" in repr(s)

    def test_nnzr_preserved(self):
        m = ragged_matrix()
        s = SellMatrix(m, chunk_height=4)
        assert s.nnzr == pytest.approx(m.nnzr)
