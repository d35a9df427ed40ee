"""The NumPy backend's stage kernels: equivalence across optimization
stages and the traffic reduction that is the paper's central claim."""

import numpy as np
import pytest

from repro.sparse.backend import get_backend
from repro.sparse.fused import col_dots
from repro.sparse.sell import SellMatrix
from repro.util.constants import S_D, S_I
from repro.util.counters import PerfCounters

NUMPY = get_backend("numpy")
naive_kpm_step = NUMPY.naive_step
aug_spmv_step = NUMPY.aug_spmv_step
aug_spmmv_step = NUMPY.aug_spmmv_step


@pytest.fixture
def setup(small_hermitian, rng):
    m, dense = small_hermitian
    n = 40
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    w = rng.normal(size=n) + 1j * rng.normal(size=n)
    a, b = 0.37, -0.21
    ref_w = 2 * a * (dense @ v - b * v) - w
    ref_even = float(np.vdot(v, v).real)
    ref_odd = complex(np.vdot(ref_w, v))
    return m, dense, v, w, a, b, ref_w, ref_even, ref_odd


class TestStageEquivalence:
    def test_naive_step(self, setup):
        m, _, v, w, a, b, ref_w, ref_even, ref_odd = setup
        w1 = w.copy()
        ee, eo = naive_kpm_step(m, v.copy(), w1, a, b)
        assert np.allclose(w1, ref_w)
        assert ee == pytest.approx(ref_even)
        assert eo == pytest.approx(ref_odd)

    def test_aug_spmv_step(self, setup):
        m, _, v, w, a, b, ref_w, ref_even, ref_odd = setup
        w1 = w.copy()
        ee, eo = aug_spmv_step(m, v.copy(), w1, a, b)
        assert np.allclose(w1, ref_w)
        assert ee == pytest.approx(ref_even)
        assert eo == pytest.approx(ref_odd)

    def test_aug_spmmv_step_columns_independent(self, setup, rng):
        m, dense, v, w, a, b, *_ = setup
        r = 4
        V = np.ascontiguousarray(
            rng.normal(size=(40, r)) + 1j * rng.normal(size=(40, r))
        )
        W = np.ascontiguousarray(
            rng.normal(size=(40, r)) + 1j * rng.normal(size=(40, r))
        )
        Wref = W.copy()
        ee, eo = aug_spmmv_step(m, V, W, a, b)
        for j in range(r):
            wj = Wref[:, j].copy()
            ee_j, eo_j = aug_spmv_step(m, V[:, j].copy(), wj, a, b)
            assert np.allclose(W[:, j], wj)
            assert ee[j] == pytest.approx(ee_j)
            assert eo[j] == pytest.approx(eo_j)

    def test_sell_backend(self, setup):
        m, _, v, w, a, b, ref_w, ref_even, ref_odd = setup
        s = SellMatrix(m, chunk_height=8, sigma=8)
        w1 = w.copy()
        ee, eo = aug_spmv_step(s, v.copy(), w1, a, b)
        assert np.allclose(w1, ref_w)
        assert ee == pytest.approx(ref_even)

    def test_nodot_plus_separate_dots(self, setup, rng):
        """Dots retaken in a separate pass over the updated block are
        bitwise the ones the fused step returned: one eta reduction."""
        m, _, _, _, a, b, *_ = setup
        V = np.ascontiguousarray(
            rng.normal(size=(40, 3)) + 1j * rng.normal(size=(40, 3))
        )
        W = np.ascontiguousarray(
            rng.normal(size=(40, 3)) + 1j * rng.normal(size=(40, 3))
        )
        ee_f, eo_f = aug_spmmv_step(m, V, W, a, b)
        ee, eo = col_dots(V, W)
        assert np.array_equal(ee, ee_f)
        assert np.array_equal(eo, eo_f)

    def test_scratch_reuse(self, setup):
        m, _, v, w, a, b, ref_w, *_ = setup
        plan = NUMPY.plan(m, 1)
        w1 = w.copy()
        aug_spmv_step(m, v.copy(), w1, a, b, plan=plan)
        assert np.allclose(w1, ref_w)
        w2 = w.copy()
        aug_spmv_step(m, v.copy(), w2, a, b, plan=plan)
        assert np.array_equal(w2, w1)


class TestTrafficReduction:
    """Paper Eq. (4): 13 N S_d -> 3 N S_d -> amortized matrix."""

    def _run(self, m, step, r=1):
        c = PerfCounters()
        n = m.n_rows
        if r == 1:
            v = np.ones(n, dtype=complex)
            w = np.ones(n, dtype=complex)
            step(m, v, w, 0.5, 0.0, counters=c)
        else:
            V = np.ones((n, r), dtype=complex)
            W = np.ones((n, r), dtype=complex)
            step(m, V, W, 0.5, 0.0, counters=c)
        return c

    def test_naive_vector_traffic_13n(self, small_hermitian):
        m, _ = small_hermitian
        c = self._run(m, naive_kpm_step)
        vec_bytes = c.bytes_total - m.nnz * (S_D + S_I)
        assert vec_bytes == 13 * 40 * S_D

    def test_stage1_vector_traffic_3n(self, small_hermitian):
        m, _ = small_hermitian
        c = self._run(m, aug_spmv_step)
        vec_bytes = c.bytes_total - m.nnz * (S_D + S_I)
        assert vec_bytes == 3 * 40 * S_D

    def test_stage2_matrix_amortized(self, small_hermitian):
        m, _ = small_hermitian
        r = 8
        c_blocked = self._run(m, aug_spmmv_step, r=r)
        c_single = self._run(m, aug_spmv_step)
        # R separate stage-1 runs read the matrix R times
        assert c_blocked.bytes_total < r * c_single.bytes_total
        assert c_blocked.bytes_total == m.nnz * (S_D + S_I) + 3 * r * 40 * S_D

    def test_flops_identical_across_stages(self, small_hermitian):
        """The algorithm is untouched: optimizations only move bytes."""
        m, _ = small_hermitian
        f_naive = self._run(m, naive_kpm_step).flops
        f_stage1 = self._run(m, aug_spmv_step).flops
        f_stage2 = self._run(m, aug_spmmv_step, r=4).flops
        assert f_naive == f_stage1
        assert f_stage2 == 4 * f_stage1
