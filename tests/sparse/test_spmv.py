"""The NumPy backend's SpMV / SpMMV against dense references, plus
traffic accounting."""

import numpy as np
import pytest

from repro.sparse.csr import CSRMatrix
from repro.sparse.sell import SellMatrix
from repro.sparse.backend import get_backend
from repro.util.constants import F_ADD, F_MUL, S_D, S_I
from repro.util.counters import PerfCounters
from repro.util.errors import ShapeError

spmv, spmmv = get_backend("numpy").spmv, get_backend("numpy").spmmv


@pytest.fixture
def matrix_pair(small_hermitian):
    m, dense = small_hermitian
    return m, SellMatrix(m, chunk_height=8, sigma=16), dense


class TestSpmv:
    def test_csr_matches_dense(self, matrix_pair, rng):
        m, _, dense = matrix_pair
        x = rng.normal(size=40) + 1j * rng.normal(size=40)
        assert np.allclose(spmv(m, x), dense @ x)

    def test_sell_matches_dense(self, matrix_pair, rng):
        _, s, dense = matrix_pair
        x = rng.normal(size=40) + 1j * rng.normal(size=40)
        assert np.allclose(spmv(s, x), dense @ x)

    def test_out_parameter(self, matrix_pair, rng):
        m, _, dense = matrix_pair
        x = rng.normal(size=40) + 0j
        out = np.empty(40, dtype=complex)
        y = spmv(m, x, out=out)
        assert y is out
        assert np.allclose(out, dense @ x)

    def test_wrong_out_shape(self, matrix_pair):
        m, _, _ = matrix_pair
        with pytest.raises(ShapeError):
            spmv(m, np.zeros(40, dtype=complex), out=np.empty(39, dtype=complex))

    def test_wrong_x_shape(self, matrix_pair):
        m, _, _ = matrix_pair
        with pytest.raises(ShapeError):
            spmv(m, np.zeros(41, dtype=complex))

    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            spmv(np.eye(3), np.zeros(3))

    def test_empty_rows(self):
        m = CSRMatrix.from_coo([2], [0], [3.0], (4, 4))
        y = spmv(m, np.ones(4, dtype=complex))
        assert np.allclose(y, [0, 0, 3, 0])

    def test_rectangular(self):
        m = CSRMatrix.from_coo([0, 1], [4, 2], [2.0, 1.0], (2, 5))
        y = spmv(m, np.arange(5).astype(complex))
        assert np.allclose(y, [8.0, 2.0])


class TestSpmmv:
    @pytest.mark.parametrize("r", [1, 2, 3, 8])
    def test_csr_matches_dense(self, matrix_pair, rng, r):
        m, _, dense = matrix_pair
        x = np.ascontiguousarray(
            rng.normal(size=(40, r)) + 1j * rng.normal(size=(40, r))
        )
        assert np.allclose(spmmv(m, x), dense @ x)

    @pytest.mark.parametrize("r", [1, 4, 7])
    def test_sell_matches_dense(self, matrix_pair, rng, r):
        _, s, dense = matrix_pair
        x = np.ascontiguousarray(
            rng.normal(size=(40, r)) + 1j * rng.normal(size=(40, r))
        )
        assert np.allclose(spmmv(s, x), dense @ x)

    def test_consistent_with_column_spmv(self, matrix_pair, rng):
        m, _, _ = matrix_pair
        x = np.ascontiguousarray(
            rng.normal(size=(40, 5)) + 1j * rng.normal(size=(40, 5))
        )
        y = spmmv(m, x)
        for j in range(5):
            assert np.allclose(y[:, j], spmv(m, x[:, j].copy()))

    def test_requires_row_major(self, matrix_pair):
        m, _, _ = matrix_pair
        x = np.asfortranarray(np.zeros((40, 3), dtype=complex))
        with pytest.raises(ShapeError, match="C-contiguous"):
            spmmv(m, x)

    def test_out_shape_checked(self, matrix_pair):
        m, _, _ = matrix_pair
        x = np.zeros((40, 2), dtype=complex)
        with pytest.raises(ShapeError):
            spmmv(m, x, out=np.empty((40, 3), dtype=complex))


class TestAccounting:
    def test_spmv_table1_bytes(self, matrix_pair):
        m, _, _ = matrix_pair
        c = PerfCounters()
        spmv(m, np.zeros(40, dtype=complex), counters=c)
        n, nnz = 40, m.nnz
        assert c.bytes_loaded == nnz * (S_D + S_I) + n * S_D
        assert c.bytes_stored == n * S_D
        assert c.flops == nnz * (F_ADD + F_MUL)
        assert c.calls == {"spmv": 1}

    def test_spmmv_matrix_read_once(self, matrix_pair):
        """The defining property: matrix bytes independent of R."""
        m, _, _ = matrix_pair
        r = 8
        c = PerfCounters()
        spmmv(m, np.zeros((40, r), dtype=complex), counters=c)
        n, nnz = 40, m.nnz
        assert c.bytes_loaded == nnz * (S_D + S_I) + r * n * S_D
        assert c.bytes_stored == r * n * S_D
        assert c.flops == r * nnz * (F_ADD + F_MUL)

    def test_sell_charges_padded_slots(self):
        rows = [0, 0, 0, 0, 1]
        m = CSRMatrix.from_coo(rows, [0, 1, 2, 3, 0], np.ones(5), (2, 4))
        s = SellMatrix(m, chunk_height=2)
        assert s.stored_slots == 8  # both rows padded to 4
        c = PerfCounters()
        spmv(s, np.zeros(4, dtype=complex), counters=c)
        assert c.flops == 8 * (F_ADD + F_MUL)
        assert c.bytes_loaded == 8 * (S_D + S_I) + 2 * S_D
