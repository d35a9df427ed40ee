"""Physics-level invariants of the full pipeline (property-style)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.moments import compute_eta, eta_to_moments
from repro.core.reconstruct import integrate_density, reconstruct_dos
from repro.core.scaling import SpectralScale, lanczos_scale
from repro.core.stochastic import make_block_vector
from repro.physics import build_topological_insulator
from repro.physics.graphene import build_graphene_dot_lattice
from repro.sparse.csr import CSRMatrix


def _trace_moments(h, scale, n_moments, blk):
    """Stochastic-trace moments: the per-vector moments averaged over R."""
    return eta_to_moments(compute_eta(h, scale, n_moments, blk)).mean(axis=0).real


class TestParticleHoleSymmetry:
    """The clean TI and graphene Hamiltonians anticommute with a local
    operator, so tr T_m(H~) = 0 for odd m when the spectral map is
    centered (b = 0)."""

    def test_ti_odd_trace_moments_vanish(self):
        h, _ = build_topological_insulator(4, 4, 4, pbc=(True, True, True))
        lo, hi = h.gershgorin_bounds()
        bound = max(abs(lo), abs(hi))
        scale = SpectralScale.from_bounds(-bound, bound)  # b = 0 exactly
        assert scale.b == 0.0
        n = h.n_rows
        # exact trace via all unit vectors
        from repro.core.stochastic import unit_block_vector

        blk = unit_block_vector(n, np.arange(n))
        mu = _trace_moments(h, scale, 16, blk) * n
        assert np.allclose(mu[1::2], 0.0, atol=1e-8 * n)
        assert mu[0] == pytest.approx(n)

    def test_graphene_dos_symmetric(self):
        h, model = build_graphene_dot_lattice(12, 12)
        scale = SpectralScale.from_bounds(-3.3, 3.3)
        blk = make_block_vector(h.n_rows, 64, seed=0)
        mu = _trace_moments(h, scale, 128, blk)
        e = np.linspace(-2.8, 2.8, 81)
        _, rho = reconstruct_dos(mu, scale, energies=e)
        # stochastic noise bound: the symmetric part dominates
        asym = np.abs(rho - rho[::-1]).max() / rho.max()
        assert asym < 0.15


class TestSumRules:
    def test_dos_integral_equals_dimension(self):
        for builder in (
            lambda: build_topological_insulator(5, 4, 3)[0],
            lambda: build_graphene_dot_lattice(8, 8)[0],
        ):
            h = builder()
            scale = lanczos_scale(h, seed=0)
            blk = make_block_vector(h.n_rows, 24, seed=1)
            mu = _trace_moments(h, scale, 96, blk)
            e, rho = reconstruct_dos(mu, scale, n_points=512)
            assert integrate_density(e, rho) == pytest.approx(
                h.n_rows, rel=0.04
            )

    def test_first_moment_is_trace_over_n(self):
        """mu_1 = tr(H~)/N-ish: for the traceless clean TI with centered
        map, tr H~ = 0."""
        h, _ = build_topological_insulator(4, 4, 3)
        lo, hi = h.gershgorin_bounds()
        bound = max(abs(lo), abs(hi))
        scale = SpectralScale.from_bounds(-bound, bound)
        from repro.core.stochastic import unit_block_vector

        n = h.n_rows
        mu = _trace_moments(
            h, scale, 4, unit_block_vector(n, np.arange(n))
        ) * n
        assert abs(mu[1]) < 1e-8 * n


class TestInvariances:
    def test_dos_invariant_under_spectral_shift(self):
        """Shifting H by c*Identity shifts the DOS grid, nothing else."""
        h, model = build_topological_insulator(4, 4, 2)
        shift = 0.7
        h_shifted = model.build(np.full(model.lattice.n_sites, shift))
        blk = make_block_vector(h.n_rows, 16, seed=2)

        scale_a = lanczos_scale(h, seed=3)
        scale_b = SpectralScale(
            a=scale_a.a, b=scale_a.b + shift,
            emin=scale_a.emin + shift, emax=scale_a.emax + shift,
        )
        mu_a = _trace_moments(h, scale_a, 32, blk)
        mu_b = _trace_moments(h_shifted, scale_b, 32, blk)
        assert np.allclose(mu_a, mu_b, atol=1e-9 * h.n_rows)

    def test_moments_bounded_by_mu0(self):
        """|mu_m| <= mu_0 for trace moments (|T_m| <= 1 on the spectrum)."""
        h, _ = build_topological_insulator(5, 5, 2)
        scale = lanczos_scale(h, seed=0)
        from repro.core.stochastic import unit_block_vector

        n = h.n_rows
        mu = _trace_moments(
            h, scale, 64, unit_block_vector(n, np.arange(n))
        )
        assert np.all(np.abs(mu[1:]) <= mu[0] + 1e-9)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_moment_engine_invariants_random_hermitian(seed):
    """For arbitrary Hermitian matrices: even eta real-positive, engines
    agree, |mu_m| bounded by mu_0 per vector."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 40))
    d = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    d = (d + d.conj().T) * (rng.random((n, n)) < 0.4)
    d = (d + d.conj().T) / 2
    h = CSRMatrix.from_dense(d)
    lam = np.linalg.eigvalsh(d)
    pad = max(lam.max() - lam.min(), 1.0) * 0.05
    scale = SpectralScale.from_bounds(lam.min() - pad, lam.max() + pad)
    blk = make_block_vector(n, 2, seed=seed % 1000)
    eta1 = compute_eta(h, scale, 8, blk, "naive")
    eta2 = compute_eta(h, scale, 8, blk, "aug_spmmv")
    assert np.allclose(eta1, eta2, atol=1e-8)
    assert np.all(eta1[:, 0::2].real > 0)
    mu = eta_to_moments(eta1)
    assert np.all(
        np.abs(mu[:, 1:]) <= np.abs(mu[:, 0:1]) * (1 + 1e-9)
    )
