"""Chebyshev reconstruction: DCT fast path, normalization, positivity."""

import numpy as np
import pytest

from repro.core.damping import jackson_kernel
from repro.core.moments import compute_dos_moments
from repro.core.reconstruct import (
    _dct3_twiddle,
    chebyshev_grid,
    dct3,
    integrate_density,
    reconstruct_chebyshev,
    reconstruct_chebyshev_dct,
    reconstruct_dos,
)
from repro.core.scaling import SpectralScale, lanczos_scale
from repro.core.stochastic import make_block_vector


def delta_moments(x0: float, m_count: int) -> np.ndarray:
    """Moments of a single delta at x0: mu_m = T_m(x0)."""
    return np.cos(np.arange(m_count) * np.arccos(x0))


class TestSeriesEvaluation:
    def test_dct_equals_direct(self):
        mu = delta_moments(0.31, 64)
        x, d_dct = reconstruct_chebyshev_dct(mu, 256, kernel="jackson")
        d_dir = reconstruct_chebyshev(mu, chebyshev_grid(256), kernel="jackson")
        assert np.allclose(x, chebyshev_grid(256))
        assert np.allclose(d_dct, d_dir, atol=1e-10)

    def test_batched_moments(self):
        mus = np.stack([delta_moments(0.1, 32), delta_moments(-0.5, 32)])
        x, d = reconstruct_chebyshev_dct(mus, 64)
        assert d.shape == (2, 64)
        # each row peaks near its own delta position
        assert abs(x[np.argmax(d[0])] - 0.1) < 0.1
        assert abs(x[np.argmax(d[1])] + 0.5) < 0.1

    def test_delta_peak_location_and_mass(self):
        mu = delta_moments(-0.4, 128)
        x, d = reconstruct_chebyshev_dct(mu, 512)
        assert abs(x[np.argmax(d)] + 0.4) < 0.02
        assert np.trapezoid(d, x) == pytest.approx(1.0, abs=0.02)

    def test_jackson_positivity(self):
        mu = delta_moments(0.77, 64)
        _, d = reconstruct_chebyshev_dct(mu, 256, kernel="jackson")
        assert np.all(d > -1e-12)

    def test_dirichlet_shows_gibbs(self):
        """Without damping the truncated series oscillates below zero."""
        mu = delta_moments(0.0, 64)
        _, d = reconstruct_chebyshev_dct(mu, 256, kernel="dirichlet")
        assert d.min() < -1e-3

    def test_points_outside_interval_rejected(self):
        with pytest.raises(ValueError):
            reconstruct_chebyshev(np.ones(4), np.array([1.0]))

    def test_dct_needs_enough_points(self):
        with pytest.raises(ValueError):
            reconstruct_chebyshev_dct(np.ones(64), 32)

    def test_grid_ascending(self):
        x = chebyshev_grid(100)
        assert np.all(np.diff(x) > 0)
        assert -1 < x[0] < x[-1] < 1


class TestDct3:
    """The NumPy DCT-III that replaced ``scipy.fft.dct`` (one K-row per
    served request): 1e-13 of the row maximum, whatever the shape."""

    @pytest.mark.parametrize("k", [1, 2, 3, 255, 256, 1024])
    @pytest.mark.parametrize("lead", [(), (1,), (8,), (2, 3)])
    def test_matches_scipy_and_the_cosine_sum(self, k, lead):
        from scipy.fft import dct

        coeff = np.random.default_rng(k).normal(size=(*lead, k))
        got = dct3(coeff)
        assert got.shape == coeff.shape and got.dtype == np.float64
        top = np.abs(got).max(axis=-1, keepdims=True)
        assert np.all(np.abs(got - dct(coeff, type=3, axis=-1)) <= 1e-13 * top)
        # the explicit sum c_0 + 2 sum_m c_m cos(pi m (2j + 1) / 2k), its
        # angles reduced mod 2 pi in integers (reconstruct_chebyshev's
        # arccos round trip is good to 1e-10 only: test_dct_equals_direct)
        steps = np.outer(np.arange(k), 2 * np.arange(k) + 1) % (4 * k)
        table = np.cos(np.pi * steps / (2 * k))
        series = 2.0 * coeff @ table - coeff[..., :1]
        assert np.all(np.abs(got - series) <= 1e-13 * top)

    def test_float32_and_zero_input(self):
        from scipy.fft import dct

        coeff = np.random.default_rng(0).normal(size=(4, 256))
        got = dct3(coeff.astype(np.float32))
        want = dct(coeff.astype(np.float32).astype(float), type=3, axis=-1)
        assert got.dtype == np.float64
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        assert not dct3(np.zeros((3, 64))).any()

    def test_twiddles_are_shared_read_only_and_bounded(self):
        _dct3_twiddle.cache_clear()
        tw = _dct3_twiddle(256)
        assert _dct3_twiddle(256) is tw and not tw.flags.writeable
        with pytest.raises(ValueError):
            tw[0] = 0.0
        for k in range(1, 100):
            _dct3_twiddle(k)
        info = _dct3_twiddle.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize


class TestDosReconstruction:
    def test_integral_equals_dimension(self, ti_small):
        h, _ = ti_small
        scale = lanczos_scale(h, seed=0)
        blk = make_block_vector(h.n_rows, 32, seed=1)
        mu = compute_dos_moments(h, scale, 128, blk)
        e, rho = reconstruct_dos(mu, scale, n_points=512)
        total = integrate_density(e, rho)
        assert total == pytest.approx(h.n_rows, rel=0.03)

    def test_energy_mapping(self):
        scale = SpectralScale.from_bounds(-5.0, 5.0)
        mu = delta_moments(0.0, 64)  # delta at E = 0
        e, rho = reconstruct_dos(mu, scale, n_points=256)
        assert abs(e[np.argmax(rho)]) < 0.2

    def test_explicit_energies(self):
        scale = SpectralScale.from_bounds(-2.0, 2.0)
        mu = delta_moments(0.0, 64)
        energies = np.linspace(-1, 1, 51)
        e, rho = reconstruct_dos(mu, scale, energies=energies)
        assert np.array_equal(e, energies)
        assert rho.shape == energies.shape

    def test_energies_outside_window_zero(self):
        scale = SpectralScale.from_bounds(-1.0, 1.0)
        mu = delta_moments(0.0, 32)
        energies = np.array([-99.0, 0.0, 99.0])
        _, rho = reconstruct_dos(mu, scale, energies=energies)
        assert rho[0] == 0.0 and rho[2] == 0.0 and rho[1] > 0

    def test_use_dct_with_energies_rejected(self):
        scale = SpectralScale.from_bounds(-1.0, 1.0)
        with pytest.raises(ValueError):
            reconstruct_dos(
                np.ones(8), scale, energies=np.array([0.0]), use_dct=True
            )

    def test_direct_path_matches_dct_path(self):
        scale = SpectralScale.from_bounds(-3.0, 1.0)
        mu = delta_moments(0.25, 48)
        e1, r1 = reconstruct_dos(mu, scale, n_points=128, use_dct=True)
        e2, r2 = reconstruct_dos(mu, scale, n_points=128, use_dct=False)
        assert np.allclose(e1, e2)
        assert np.allclose(r1, r2, atol=1e-9)


class TestIntegration:
    def test_integrate_subinterval(self):
        e = np.linspace(0, 1, 101)
        rho = np.ones_like(e)
        assert integrate_density(e, rho, 0.25, 0.75) == pytest.approx(0.5, abs=0.02)

    def test_empty_interval(self):
        e = np.linspace(0, 1, 11)
        assert integrate_density(e, np.ones_like(e), 0.5, 0.5001) == 0.0

    def test_reversed_interval_rejected(self):
        e = np.linspace(0, 1, 11)
        with pytest.raises(ValueError):
            integrate_density(e, np.ones_like(e), 0.8, 0.2)
