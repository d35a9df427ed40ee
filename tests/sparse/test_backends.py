"""The NumPy backend against the dense product and the layout-faithful
SELL reference, and the one product argument check every backend shares."""

import numpy as np
import pytest

from repro.sparse.backend import available_backends, get_backend
from repro.sparse.sell import SellMatrix
from repro.sparse.sell_kernels import sell_spmmv_chunked, sell_spmv_chunked
from repro.util.counters import PerfCounters
from repro.util.errors import ShapeError

NUMPY = get_backend("numpy")
AVAILABLE = sorted(name for name, ok in available_backends().items() if ok)


@pytest.fixture
def matrices(small_hermitian):
    m, dense = small_hermitian
    return m, SellMatrix(m, chunk_height=8, sigma=16), dense


def _block(rng, n, r):
    return np.ascontiguousarray(
        rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))
    )


class TestBackendParity:
    def test_spmv_identical(self, matrices, rng):
        m, s, _ = matrices
        x = rng.normal(size=40) + 1j * rng.normal(size=40)
        ref = sell_spmv_chunked(s, x)
        assert np.allclose(NUMPY.spmv(m, x), ref, atol=1e-12)
        assert np.allclose(NUMPY.spmv(s, x), ref, atol=1e-12)

    @pytest.mark.parametrize("r", [1, 3, 8])
    def test_spmmv_identical(self, matrices, rng, r):
        m, s, _ = matrices
        x = _block(rng, 40, r)
        ref = sell_spmmv_chunked(s, x)
        assert np.allclose(NUMPY.spmmv(m, x), ref, atol=1e-12)
        assert np.allclose(NUMPY.spmmv(s, x), ref, atol=1e-12)

    def test_pure_paths_match_dense(self, matrices, rng):
        """NumPy backend == ``A.to_dense() @ x`` == the chunked SELL
        reference, on the SELL operator itself."""
        _, s, dense = matrices
        x = _block(rng, 40, 5)
        assert np.allclose(NUMPY.spmmv(s, x), s.to_dense() @ x, atol=1e-10)
        assert np.allclose(sell_spmmv_chunked(s, x), dense @ x, atol=1e-10)

    def test_counters_identical_across_backends(self, matrices):
        """Accounting does not depend on the compute path: every backend
        and the SELL reference charge the same bytes and flops."""
        _, s, _ = matrices
        x = np.zeros((40, 4), dtype=complex)
        ref = PerfCounters()
        sell_spmmv_chunked(s, x, counters=ref)
        for name in AVAILABLE:
            c = PerfCounters()
            get_backend(name).spmmv(s, x, counters=c)
            assert c.bytes_total == ref.bytes_total, name
            assert c.flops == ref.flops, name

    def test_solver_results_backend_independent(self):
        """A full KPM solve gives the same DOS on every backend."""
        from repro.core.solver import KPMSolver
        from repro.physics import build_topological_insulator

        h, _ = build_topological_insulator(4, 4, 2)
        rhos = [
            KPMSolver(h, n_moments=32, n_vectors=2, seed=0,
                      backend=name).dos().rho
            for name in AVAILABLE
        ]
        for rho in rhos[1:]:
            assert np.allclose(rho, rhos[0], atol=1e-9)


@pytest.mark.parametrize("backend", AVAILABLE)
@pytest.mark.parametrize("fmt", ["csr", "sell"])
class TestProductOut:
    """``out`` must match the input's storage dtype and the rows — on
    every backend, so none narrows a result silently."""

    @pytest.fixture
    def operator(self, fmt):
        from repro.physics import build_topological_insulator

        h, _ = build_topological_insulator(4, 4, 2)
        return h if fmt == "csr" else SellMatrix(h, chunk_height=8, sigma=16)

    def test_narrower_out_is_refused(self, backend, operator, rng):
        bk, n = get_backend(backend), operator.n_rows
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        with pytest.raises(ShapeError, match="dtype complex128"):
            bk.spmv(operator, x, out=np.empty(n, np.complex64))
        X = _block(rng, n, 3)
        with pytest.raises(ShapeError, match="dtype complex128"):
            bk.spmmv(operator, X, out=np.empty((n, 3), np.complex64))

    def test_matching_out_is_filled(self, backend, operator, rng):
        bk, n = get_backend(backend), operator.n_rows
        x = (rng.normal(size=n) + 1j * rng.normal(size=n)).astype(np.complex64)
        out = np.empty(n, np.complex64)
        assert bk.spmv(operator, x, out=out) is out
        assert np.allclose(out, operator.to_dense() @ x, atol=1e-4)
