"""Moment engines: stage equivalence and agreement with dense Chebyshev."""

import numpy as np
import pytest

from repro.core.moments import (
    MomentEngine,
    compute_eta,
    eta_to_moments,
)
from repro.core.scaling import SpectralScale, lanczos_scale
from repro.core.stochastic import make_block_vector, unit_block_vector
from repro.sparse.sell import SellMatrix
from repro.util.counters import PerfCounters


@pytest.fixture
def system(ti_small):
    h, _ = ti_small
    return h, lanczos_scale(h, seed=1)


def dense_chebyshev_moments(dense, scale, m_count, start):
    """Reference: mu_m = <v0| T_m(H~) |v0> via the dense recurrence."""
    ht = scale.a * (dense - scale.b * np.eye(dense.shape[0]))
    v0 = start
    v_prev = v0.copy()
    v_cur = ht @ v0
    mus = [np.vdot(v0, v_prev), np.vdot(v0, v_cur)]
    for _ in range(2, m_count):
        v_next = 2 * ht @ v_cur - v_prev
        v_prev, v_cur = v_cur, v_next
        mus.append(np.vdot(v0, v_cur))
    return np.array(mus)


class TestEngineEquivalence:
    @pytest.mark.parametrize("engine", ["naive", "aug_spmv", "aug_spmmv"])
    def test_engines_match(self, system, engine):
        h, scale = system
        blk = make_block_vector(h.n_rows, 3, seed=4)
        ref = compute_eta(h, scale, 32, blk, MomentEngine.NAIVE)
        eta = compute_eta(h, scale, 32, blk, engine)
        assert np.allclose(eta, ref, atol=1e-9)

    def test_sell_matches_csr(self, system):
        h, scale = system
        s = SellMatrix(h, chunk_height=16, sigma=32)
        blk = make_block_vector(h.n_rows, 2, seed=4)
        assert np.allclose(
            compute_eta(h, scale, 16, blk, "aug_spmmv"),
            compute_eta(s, scale, 16, blk, "aug_spmmv"),
            atol=1e-9,
        )

    def test_engine_enum_accepts_strings(self, system):
        h, scale = system
        blk = make_block_vector(h.n_rows, 1, seed=0)
        compute_eta(h, scale, 4, blk, "naive")
        with pytest.raises(ValueError):
            compute_eta(h, scale, 4, blk, "warp_speed")

    def test_start_block_not_modified(self, system):
        h, scale = system
        blk = make_block_vector(h.n_rows, 2, seed=4)
        before = blk.copy()
        compute_eta(h, scale, 8, blk, "aug_spmmv")
        assert np.array_equal(blk, before)


class TestAgainstDense:
    def test_eta_to_moments_vs_dense_recurrence(self, system):
        h, scale = system
        dense = h.to_dense()
        m_count = 24
        blk = make_block_vector(h.n_rows, 1, seed=9)
        eta = compute_eta(h, scale, m_count, blk, "aug_spmmv")
        mu = eta_to_moments(eta)[0]
        ref = dense_chebyshev_moments(dense, scale, m_count, blk[:, 0])
        assert np.allclose(mu, ref, atol=1e-7)

    def test_trace_moments_unbiased(self, system):
        """mu_m averaged over many vectors approaches tr T_m(H~)."""
        h, scale = system
        dense = h.to_dense()
        n = h.n_rows
        m_count = 8
        blk = make_block_vector(n, 128, seed=2)
        mu = eta_to_moments(compute_eta(h, scale, m_count, blk)).mean(axis=0).real
        # dense trace reference
        ht = scale.a * (dense - scale.b * np.eye(n))
        t_prev, t_cur = np.eye(n), ht.copy()
        refs = [n, np.trace(t_cur).real]
        for _ in range(2, m_count):
            t_next = 2 * ht @ t_cur - t_prev
            t_prev, t_cur = t_cur, t_next
            refs.append(np.trace(t_cur).real)
        assert np.allclose(mu, refs, atol=0.12 * n)

    def test_exact_trace_with_unit_vectors(self, system):
        """Using ALL unit vectors makes the 'stochastic' trace exact."""
        h, scale = system
        n = h.n_rows
        blk = unit_block_vector(n, np.arange(n))
        mu = eta_to_moments(compute_eta(h, scale, 8, blk)).sum(axis=0).real
        dense = h.to_dense()
        ht = scale.a * (dense - scale.b * np.eye(n))
        t_prev, t_cur = np.eye(n), ht.copy()
        refs = [n, np.trace(t_cur).real]
        for _ in range(2, 8):
            t_next = 2 * ht @ t_cur - t_prev
            t_prev, t_cur = t_cur, t_next
            refs.append(np.trace(t_cur).real)
        assert np.allclose(mu, refs, atol=1e-6)


class TestInvariants:
    def test_mu0_equals_n_for_phase_vectors(self, system):
        h, scale = system
        blk = make_block_vector(h.n_rows, 4, kind="phase", seed=1)
        eta = compute_eta(h, scale, 8, blk)
        assert np.allclose(eta[:, 0].real, h.n_rows)

    def test_even_moments_real(self, system):
        h, scale = system
        blk = make_block_vector(h.n_rows, 2, seed=5)
        eta = compute_eta(h, scale, 16, blk)
        assert np.allclose(eta[:, 0::2].imag, 0, atol=1e-9)

    def test_even_eta_nonnegative(self, system):
        """eta_2m = <nu_m|nu_m> is a squared norm."""
        h, scale = system
        blk = make_block_vector(h.n_rows, 2, seed=5)
        eta = compute_eta(h, scale, 16, blk)
        assert np.all(eta[:, 0::2].real > 0)

    def test_odd_m_rejected(self, system):
        h, scale = system
        blk = make_block_vector(h.n_rows, 1, seed=0)
        with pytest.raises(ValueError, match="even"):
            compute_eta(h, scale, 7, blk)

    def test_eta_to_moments_identity(self):
        eta = np.array([5.0, 1.0, 2.0, 0.5, 3.0, 0.25])
        mu = eta_to_moments(eta)
        assert mu[0] == 5.0 and mu[1] == 1.0
        assert mu[2] == 2 * 2.0 - 5.0
        assert mu[3] == 2 * 0.5 - 1.0
        assert mu[4] == 2 * 3.0 - 5.0
        assert mu[5] == 2 * 0.25 - 1.0

    def test_counters_charged(self, system):
        h, scale = system
        blk = make_block_vector(h.n_rows, 2, seed=1)
        c = PerfCounters()
        compute_eta(h, scale, 8, blk, "aug_spmmv", counters=c)
        # M/2 - 1 fused iterations plus the nu_1 init spmmv
        assert c.calls.get("aug_spmmv") == 3
        assert c.calls.get("spmmv") == 1
