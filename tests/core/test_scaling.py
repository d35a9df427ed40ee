"""Spectral bounds and the [-1, 1] rescaling map."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.scaling import (
    SpectralScale,
    gershgorin_scale,
    lanczos_bounds,
    lanczos_scale,
)
from repro.sparse.backend import get_backend
from repro.sparse.backend.native import native_available
from repro.sparse.sell import SellMatrix
from repro.util.errors import BackendError


class TestSpectralScale:
    def test_roundtrip(self):
        s = SpectralScale.from_bounds(-3.0, 5.0)
        e = np.linspace(-3, 5, 17)
        assert np.allclose(s.from_unit(s.to_unit(e)), e)

    def test_bounds_map_inside_unit_interval(self):
        s = SpectralScale.from_bounds(-3.0, 5.0, epsilon=0.05)
        assert s.to_unit(-3.0) == pytest.approx(-0.95)
        assert s.to_unit(5.0) == pytest.approx(0.95)

    def test_center(self):
        s = SpectralScale.from_bounds(-2.0, 6.0)
        assert s.to_unit(2.0) == pytest.approx(0.0)
        assert s.b == pytest.approx(2.0)

    def test_jacobian_is_a(self):
        s = SpectralScale.from_bounds(0.0, 4.0, epsilon=0.0)
        assert s.density_jacobian() == pytest.approx(s.a) == pytest.approx(0.5)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            SpectralScale.from_bounds(1.0, 1.0)
        with pytest.raises(ValueError):
            SpectralScale.from_bounds(2.0, 1.0)

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            SpectralScale.from_bounds(0, 1, epsilon=0.9)


class TestGershgorin:
    def test_spectrum_strictly_inside(self, ti_small):
        h, _ = ti_small
        s = gershgorin_scale(h)
        lam = np.linalg.eigvalsh(h.to_dense())
        x = s.to_unit(lam)
        assert np.all(np.abs(x) < 1.0)


class TestLanczos:
    def test_bounds_enclose_spectrum(self, ti_small):
        h, _ = ti_small
        lam = np.linalg.eigvalsh(h.to_dense())
        lo, hi = lanczos_bounds(h, n_iter=60, seed=0)
        assert lo <= lam.min() + 1e-9
        assert hi >= lam.max() - 1e-9

    def test_tighter_than_gershgorin(self, ti_small):
        h, _ = ti_small
        glo, ghi = h.gershgorin_bounds()
        llo, lhi = lanczos_bounds(h, n_iter=60, seed=0)
        assert (lhi - llo) < (ghi - glo)

    def test_scale_keeps_spectrum_inside(self, ti_small):
        h, _ = ti_small
        s = lanczos_scale(h, seed=3)
        lam = np.linalg.eigvalsh(h.to_dense())
        assert np.all(np.abs(s.to_unit(lam)) < 1.0)

    def test_works_with_sell_matrix(self, ti_small):
        h, _ = ti_small
        s = SellMatrix(h, chunk_height=8)
        lo, hi = lanczos_bounds(s, n_iter=40, seed=0)
        assert hi > lo

    def test_reproducible_with_seed(self, ti_small):
        h, _ = ti_small
        assert lanczos_bounds(h, seed=11) == lanczos_bounds(h, seed=11)

    def test_iter_validated(self, ti_small):
        h, _ = ti_small
        with pytest.raises(ValueError):
            lanczos_bounds(h, n_iter=0)

    def test_small_matrix_early_breakdown(self):
        """Lanczos on a tiny matrix terminates via beta ~ 0 gracefully."""
        from repro.sparse.csr import CSRMatrix

        m = CSRMatrix.from_dense(np.diag([1.0, 2.0]))
        lo, hi = lanczos_bounds(m, n_iter=50, seed=0)
        assert lo <= 1.0 and hi >= 2.0


class TestLanczosBackend:
    """Lanczos runs on the solve's backend, and the bounds cannot tell:
    fp64 ``spmv`` sums a row in storage order on every backend."""

    @pytest.fixture(params=["ti", "graphene", "random", "sell"])
    def matrix(self, request, ti_small, small_hermitian):
        from repro.physics.graphene import build_graphene_dot_lattice

        return {
            "ti": lambda: ti_small[0],
            "graphene": lambda: build_graphene_dot_lattice(6, 6, v_dot=0.3)[0],
            "random": lambda: small_hermitian[0],
            "sell": lambda: SellMatrix(ti_small[0], 32, 1),
        }[request.param]()

    @pytest.mark.skipif(not native_available(), reason="no native kernels")
    @pytest.mark.parametrize("simd", ["simd", "scalar"])
    def test_bounds_are_identical_across_backends(self, matrix, simd,
                                                  monkeypatch):
        if simd == "scalar":
            monkeypatch.setenv("REPRO_SIMD_DISABLE", "1")
        for seed in (0, 7):
            ref = lanczos_scale(matrix, seed=seed, backend="numpy")
            got = lanczos_scale(matrix, seed=seed, backend="native")
            assert (got.a, got.b, got.emin, got.emax) == \
                (ref.a, ref.b, ref.emin, ref.emax)
            assert lanczos_scale(matrix, seed=seed) == ref  # "auto"

    def test_positional_and_seed_only_calls_still_work(self, ti_small):
        h, _ = ti_small
        assert lanczos_scale(h, 50, 0.01, 4) == lanczos_scale(h, seed=4)
        assert lanczos_bounds(h, 50, 4) == lanczos_bounds(h, seed=4)
        with pytest.raises(TypeError):
            lanczos_scale(h, 50, 0.01, 4, "numpy")  # backend is keyword-only

    def test_unavailable_native_falls_back_like_get_backend(
            self, ti_small, monkeypatch):
        from repro.sparse.backend import NativeBackend, NumpyBackend

        h, _ = ti_small
        ref = lanczos_scale(h, seed=2, backend="numpy")
        calls = []
        real = NumpyBackend.spmv
        monkeypatch.setattr(NumpyBackend, "spmv", lambda self, *a, **k: (
            calls.append(1), real(self, *a, **k))[1])
        monkeypatch.setattr(NativeBackend, "available", lambda self: False)
        assert get_backend("auto").name == "numpy"
        assert lanczos_scale(h, seed=2) == ref and len(calls) == 50
        with pytest.raises(BackendError, match="unavailable"):
            lanczos_scale(h, seed=2, backend="native")


_SCALE_BITS = (
    "from repro.core.scaling import lanczos_scale\n"
    "from repro.physics import build_topological_insulator\n"
    "h, _ = build_topological_insulator(32, 32, 8)\n"
    "s = lanczos_scale(h, seed=0)\n"
    "print(s.a.hex(), s.b.hex())\n"
)


def test_scale_does_not_depend_on_the_blas_thread_count():
    """The sweep's dot products and norms are fixed-order NumPy sums, not
    BLAS ``zdotc``/``dznrm2``: on N = 32,768 vectors a threaded BLAS
    sums in another order, and ``a``/``b`` used to follow it."""
    src = str(Path(__file__).parents[2] / "src")
    bits = set()
    for n in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": n,
               "PYTHONPATH": os.pathsep.join(
                   [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        bits.add(subprocess.run(
            [sys.executable, "-c", _SCALE_BITS], env=env, check=True,
            capture_output=True, text=True, timeout=120).stdout)
    assert len(bits) == 1, bits
