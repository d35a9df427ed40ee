"""Stochastic estimators: ensembles, trace statistics, LDOS."""

import numpy as np
import pytest

from repro.core.scaling import lanczos_scale
from repro.core.stochastic import (
    ldos_moments,
    make_block_vector,
    unit_block_vector,
)
from repro.util.errors import ShapeError


#: one start vector per ensemble, as a per-column loop draws it
ONE_VECTOR = {
    "phase": lambda rng, n: np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=n)),
    "rademacher": lambda rng, n: (2.0 * rng.integers(0, 2, size=n)
                                  - 1.0).astype(np.complex128),
    "gaussian": lambda rng, n: (rng.normal(size=n) + 1j * rng.normal(size=n))
                               / np.sqrt(2.0),
}


class TestBlockDrawBits:
    """A block draw equals R one-vector draws, bit for bit; at n = 40,001
    the phases come three columns per generator call, the last call short."""

    @pytest.mark.parametrize("kind", sorted(ONE_VECTOR))
    @pytest.mark.parametrize("n", [1, 7, 1025, 40_001])
    @pytest.mark.parametrize("r", [1, 3, 8, 32])
    def test_equals_per_column_loop(self, kind, n, r):
        rng = np.random.default_rng(11)
        ref = np.empty((n, r), dtype=np.complex128)
        for i in range(r):
            ref[:, i] = ONE_VECTOR[kind](rng, n)
        got = make_block_vector(n, r, kind, seed=11)
        assert got.flags.c_contiguous and got.dtype == np.complex128
        assert got.tobytes() == ref.tobytes()


class TestBlockVectors:
    def test_shape_and_layout(self):
        b = make_block_vector(50, 7, seed=0)
        assert b.shape == (50, 7)
        assert b.flags.c_contiguous

    @pytest.mark.parametrize("kind", ["phase", "rademacher", "gaussian"])
    def test_ensembles(self, kind):
        b = make_block_vector(100, 3, kind=kind, seed=0)
        assert b.dtype == np.complex128

    def test_columns_independent(self):
        b = make_block_vector(200, 2, seed=0)
        corr = abs(np.vdot(b[:, 0], b[:, 1])) / 200
        assert corr < 0.2

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="ensemble"):
            make_block_vector(10, 1, kind="sobol")

    def test_reproducible(self):
        assert np.allclose(
            make_block_vector(20, 2, seed=3), make_block_vector(20, 2, seed=3)
        )

    def test_unit_block(self):
        b = unit_block_vector(6, np.array([1, 4]))
        assert b[1, 0] == 1 and b[4, 1] == 1
        assert np.count_nonzero(b) == 2

    def test_unit_block_validation(self):
        with pytest.raises(ValueError):
            unit_block_vector(4, np.array([5]))
        with pytest.raises(ShapeError):
            unit_block_vector(4, np.array([[0]]))


class TestTraceStats:
    def test_stderr_shrinks_with_r(self, ti_small):
        from repro.core.moments import compute_eta, eta_to_moments

        h, _ = ti_small
        scale = lanczos_scale(h, seed=0)
        errs = []
        for r in (8, 64):
            blk = make_block_vector(h.n_rows, r, seed=1)
            mu = eta_to_moments(compute_eta(h, scale, 8, blk)).real
            errs.append(mu[:, 2].std(ddof=1) / np.sqrt(r))
        assert errs[1] < errs[0]


class TestLdos:
    def test_exact_matches_dense_diagonal(self, ti_small):
        h, _ = ti_small
        n = h.n_rows
        scale = lanczos_scale(h, seed=0)
        rows = np.array([0, 17, n - 1])
        mu = ldos_moments(h, scale, 16, unit_block_vector(n, rows), rows)
        dense = h.to_dense()
        ht = scale.a * (dense - scale.b * np.eye(n))
        t_prev, t_cur = np.eye(n), ht.copy()
        for m in range(16):
            if m >= 2:
                t_next = 2 * ht @ t_cur - t_prev
                t_prev, t_cur = t_cur, t_next
            t_m = np.eye(n) if m == 0 else (ht if m == 1 else t_cur)
            assert np.allclose(mu[:, m], np.diag(t_m)[rows].real, atol=1e-8)

    def test_stochastic_converges_to_exact(self, ti_small):
        h, _ = ti_small
        n = h.n_rows
        scale = lanczos_scale(h, seed=0)
        rows = np.array([3, 50])
        exact = ldos_moments(h, scale, 12, unit_block_vector(n, rows), rows)
        est = ldos_moments(
            h, scale, 12, make_block_vector(n, 400, seed=7), rows
        )
        assert np.allclose(est, exact, atol=0.12)

    def test_moment_zero_is_one(self, ti_small):
        """mu_0[i] = <i|1|i> = 1 exactly (unit vectors) or ~1 (stochastic)."""
        h, _ = ti_small
        scale = lanczos_scale(h, seed=0)
        rows = np.array([1, 2])
        mu = ldos_moments(
            h, scale, 4, unit_block_vector(h.n_rows, rows), rows
        )
        assert np.allclose(mu[:, 0], 1.0)

    def test_m_validated(self, ti_small):
        h, _ = ti_small
        scale = lanczos_scale(h, seed=0)
        with pytest.raises(ValueError):
            ldos_moments(h, scale, 1, make_block_vector(h.n_rows, 1), np.array([0]))
