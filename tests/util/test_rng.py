"""Random-vector ensembles and generator creation."""

import numpy as np
import pytest

from repro.util.rng import (
    gaussian_vector,
    make_rng,
    rademacher_vector,
    random_phase_vector,
)


class TestMakeRng:
    def test_accepts_none(self):
        assert isinstance(make_rng(None), np.random.Generator)

    def test_seed_reproducible(self):
        assert make_rng(7).integers(1 << 30) == make_rng(7).integers(1 << 30)

    def test_passthrough_generator(self):
        g = np.random.default_rng(0)
        assert make_rng(g) is g


class TestEnsembles:
    def test_phase_unit_modulus(self):
        v = random_phase_vector(make_rng(0), 1000)
        assert np.allclose(np.abs(v), 1.0)

    def test_phase_mean_near_zero(self):
        v = random_phase_vector(make_rng(0), 20000)
        assert abs(v.mean()) < 0.05

    def test_rademacher_values(self):
        v = rademacher_vector(make_rng(0), 1000)
        assert set(np.unique(v.real)) <= {-1.0, 1.0}
        assert np.all(v.imag == 0)

    def test_gaussian_component_variance(self):
        v = gaussian_vector(make_rng(0), 50000)
        # complex with E|v|^2 = 1
        assert abs(np.mean(np.abs(v) ** 2) - 1.0) < 0.05

    def test_gaussian_real_dtype(self):
        v = gaussian_vector(make_rng(0), 100, dtype=np.float64)
        assert v.dtype == np.float64

    @pytest.mark.parametrize(
        "draw", [random_phase_vector, rademacher_vector, gaussian_vector]
    )
    def test_identity_second_moment(self, draw):
        """E[v v^H] = Identity is what makes the trace estimator unbiased."""
        rng = make_rng(3)
        n, samples = 6, 4000
        acc = np.zeros((n, n), dtype=complex)
        for _ in range(samples):
            v = draw(rng, n)
            acc += np.outer(v, np.conj(v))
        acc /= samples
        assert np.allclose(acc, np.eye(n), atol=0.1)
