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


# -- the phase block on the kernel team (DESIGN §13) --------------------

def _numpy_phases(seed, n, r):
    """The phase block as NumPy's complex exp makes it."""
    return random_phase_vector(make_rng(seed), n, r)


def _native():
    from repro.sparse.backend import get_backend
    from repro.sparse.backend.native import native_available

    if not native_available():
        pytest.skip("no C compiler for the native kernels")
    return get_backend("native")


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("n, r", [(1024, 1), (1024, 3), (32768, 8),
                                  (32768, 6)])
def test_native_phases_are_numpys(n, r, threads):
    """``sincos`` on the team writes ``exp(1j·φ)``'s bits, chunk by chunk
    (32,768 × 6: a last chunk of 2 columns where the step is 4)."""
    from functools import partial

    from repro.core.stochastic import make_block_vector
    from repro.util.knobs import ExecConfig

    fill = partial(_native().cis, threads=threads)
    want = _numpy_phases(4, n, r)
    assert random_phase_vector(make_rng(4), n, r, fill=fill).tobytes() == \
        want.tobytes()
    cfg = ExecConfig(backend="native", threads=threads)
    assert make_block_vector(n, r, seed=4, config=cfg).tobytes() == \
        want.tobytes()


@pytest.mark.parametrize("threads", [1, 2])
def test_native_phases_at_the_quadrants(threads):
    """φ = 0, π/2, π, 3π/2 and the largest double below 2π."""
    phases = np.array([[0.0, np.pi / 2, np.pi, 3 * np.pi / 2,
                        np.nextafter(2 * np.pi, 0.0)]])
    want = np.empty((5, 1), dtype=complex)
    got = np.empty((5, 1), dtype=complex)
    np.exp(np.multiply(phases.T, 1j, out=want), out=want)
    _native().cis(phases, got, threads)
    assert got.tobytes() == want.tobytes()


@pytest.mark.slow
def test_native_phases_ten_million_draws():
    from functools import partial

    fill = partial(_native().cis, threads=2)
    n, r = 1 << 20, 10
    assert random_phase_vector(make_rng(9), n, r, fill=fill).tobytes() == \
        _numpy_phases(9, n, r).tobytes()
