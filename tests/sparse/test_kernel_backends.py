"""The kernel-backend registry: native/numpy parity and fallback.

Covers the ``repro.sparse.backend`` dispatch layer — registry semantics,
numerical parity of the compiled C kernels against the NumPy reference
on random Hermitian and TI matrices in both storage formats, identical
counter accounting, graceful fallback when the native kernels are
unavailable, and the no-per-iteration-allocation guarantee of the
workspace plans.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.scaling import SpectralScale
from repro.sparse.backend import (
    BACKEND_CHOICES,
    KernelBackend,
    KernelPlan,
    available_backends,
    get_backend,
)
from repro.sparse.backend.native import load_library, native_available
from repro.sparse.csr import CSRMatrix
from repro.sparse.sell import SellMatrix
from repro.util.constants import DTYPE
from repro.util.counters import PerfCounters
from repro.util.errors import BackendError

needs_native = pytest.mark.skipif(
    not native_available(), reason="no C compiler for the native kernels"
)


def _block(rng, n, r):
    return np.ascontiguousarray(
        rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))
    ).astype(DTYPE)


@pytest.fixture(params=["random", "ti"])
def operator(request, small_hermitian, ti_small):
    """A CSR operator + matching SELL view + a spectral map."""
    if request.param == "random":
        m, _ = small_hermitian
        sell = SellMatrix(m, chunk_height=8, sigma=16)
    else:
        m, _ = ti_small
        sell = SellMatrix(m, chunk_height=16, sigma=64)
    scale = SpectralScale.from_bounds(*m.gershgorin_bounds())
    return m, sell, scale


class TestRegistry:
    def test_choices_cover_registered_backends(self):
        avail = available_backends()
        assert set(avail) == {"numpy", "native"}
        assert set(BACKEND_CHOICES) == {"auto", "numpy", "native"}
        assert avail["numpy"] is True

    def test_unknown_backend_raises(self):
        with pytest.raises(BackendError, match="unknown kernel backend"):
            get_backend("fortran")

    def test_instance_passthrough(self):
        bk = get_backend("numpy")
        assert get_backend(bk) is bk

    def test_none_means_auto(self):
        assert get_backend(None).name in ("numpy", "native")

    def test_plan_shapes(self, small_hermitian):
        m, _ = small_hermitian
        p1 = KernelPlan(m, 1)
        assert p1.u.shape == (m.n_rows,) and p1.work.shape == (m.n_rows,)
        p4 = KernelPlan(m, 4)
        assert p4.u.shape == (m.n_rows, 4)
        assert p4.eta_even.shape == (4,) and p4.eta_odd.shape == (4,)
        assert p4.eta_even.dtype == np.float64 and p4.eta_odd.dtype == DTYPE


@needs_native
class TestNativeParity:
    """Compiled C kernels agree with the NumPy reference."""

    def test_spmv(self, operator, rng):
        m, sell, _ = operator
        npb, nat = get_backend("numpy"), get_backend("native")
        x = _block(rng, m.n_cols, 1)[:, 0].copy()
        for A in (m, sell):
            assert np.allclose(
                nat.spmv(A, x), npb.spmv(A, x), atol=1e-12
            )

    @pytest.mark.parametrize("r", [1, 4, 32])
    def test_spmmv(self, operator, rng, r):
        m, sell, _ = operator
        npb, nat = get_backend("numpy"), get_backend("native")
        X = _block(rng, m.n_cols, r)
        for A in (m, sell):
            assert np.allclose(
                nat.spmmv(A, X), npb.spmmv(A, X), atol=1e-12
            )

    def test_aug_spmv_step(self, operator, rng):
        m, sell, scale = operator
        npb, nat = get_backend("numpy"), get_backend("native")
        v = _block(rng, m.n_cols, 1)[:, 0].copy()
        w0 = _block(rng, m.n_rows, 1)[:, 0].copy()
        for A in (m, sell):
            wa, wb = w0.copy(), w0.copy()
            ee_n, eo_n = npb.aug_spmv_step(A, v, wa, scale.a, scale.b)
            ee_c, eo_c = nat.aug_spmv_step(A, v, wb, scale.a, scale.b)
            assert np.allclose(wa, wb, atol=1e-10)
            assert ee_n == pytest.approx(ee_c, rel=1e-10)
            assert eo_n == pytest.approx(eo_c, rel=1e-10)

    @pytest.mark.parametrize("r", [1, 4, 32])
    def test_aug_spmmv_step(self, operator, rng, r):
        m, sell, scale = operator
        npb, nat = get_backend("numpy"), get_backend("native")
        V = _block(rng, m.n_cols, r)
        W0 = _block(rng, m.n_rows, r)
        for A in (m, sell):
            wa, wb = W0.copy(), W0.copy()
            pa, pb = npb.plan(A, r), nat.plan(A, r)
            ee_n, eo_n = npb.aug_spmmv_step(
                A, V, wa, scale.a, scale.b, plan=pa
            )
            ee_c, eo_c = nat.aug_spmmv_step(
                A, V, wb, scale.a, scale.b, plan=pb
            )
            assert np.allclose(wa, wb, atol=1e-10)
            assert np.allclose(ee_n, ee_c, rtol=1e-10)
            assert np.allclose(eo_n, eo_c, rtol=1e-10, atol=1e-12)

    def test_naive_step(self, operator, rng):
        m, _, scale = operator
        npb, nat = get_backend("numpy"), get_backend("native")
        v = _block(rng, m.n_cols, 1)[:, 0].copy()
        w0 = _block(rng, m.n_rows, 1)[:, 0].copy()
        wa, wb = w0.copy(), w0.copy()
        ee_n, eo_n = npb.naive_step(m, v, wa, scale.a, scale.b)
        ee_c, eo_c = nat.naive_step(m, v, wb, scale.a, scale.b)
        assert np.allclose(wa, wb, atol=1e-10)
        assert ee_n == pytest.approx(ee_c, rel=1e-10)
        assert eo_n == pytest.approx(eo_c, rel=1e-10)

    def test_rectangular_block(self, ti_small, rng):
        """V with halo rows: dots and update run over the first n rows."""
        m, _ = ti_small
        scale = SpectralScale.from_bounds(*m.gershgorin_bounds())
        npb, nat = get_backend("numpy"), get_backend("native")
        # widen the column space to fake a local+halo layout
        wide = CSRMatrix(
            m.indptr, m.indices, m.data, shape=(m.n_rows, m.n_rows + 32)
        )
        V = _block(rng, wide.n_cols, 4)
        W0 = _block(rng, wide.n_rows, 4)
        wa, wb = W0.copy(), W0.copy()
        ee_n, eo_n = npb.aug_spmmv_step(wide, V, wa, scale.a, scale.b)
        ee_c, eo_c = nat.aug_spmmv_step(wide, V, wb, scale.a, scale.b)
        assert np.allclose(wa, wb, atol=1e-10)
        assert np.allclose(ee_n, ee_c, rtol=1e-10)
        assert np.allclose(eo_n, eo_c, rtol=1e-10, atol=1e-12)

    def test_moments_parity(self, ti_small):
        from repro.core.moments import compute_eta
        from repro.core.stochastic import make_block_vector

        m, _ = ti_small
        scale = SpectralScale.from_bounds(*m.gershgorin_bounds())
        block = make_block_vector(m.n_rows, 4, seed=7)
        for engine in ("naive", "aug_spmv", "aug_spmmv"):
            eta_np = compute_eta(
                m, scale, 16, block, engine=engine, backend="numpy"
            )
            eta_c = compute_eta(
                m, scale, 16, block, engine=engine, backend="native"
            )
            assert np.allclose(eta_np, eta_c, atol=1e-9), engine

    def test_counters_identical(self, operator, rng):
        """Table-I accounting is backend-independent."""
        m, sell, scale = operator
        npb, nat = get_backend("numpy"), get_backend("native")
        V = _block(rng, m.n_cols, 4)
        W = _block(rng, m.n_rows, 4)
        for A in (m, sell):
            c_np, c_nat = PerfCounters(), PerfCounters()
            npb.spmv(A, V[:, 0].copy(), counters=c_np)
            npb.spmmv(A, V, counters=c_np)
            npb.aug_spmv_step(
                A, V[:, 0].copy(), W[:, 0].copy(), scale.a, scale.b,
                counters=c_np,
            )
            npb.aug_spmmv_step(A, V, W.copy(), scale.a, scale.b, counters=c_np)
            nat.spmv(A, V[:, 0].copy(), counters=c_nat)
            nat.spmmv(A, V, counters=c_nat)
            nat.aug_spmv_step(
                A, V[:, 0].copy(), W[:, 0].copy(), scale.a, scale.b,
                counters=c_nat,
            )
            nat.aug_spmmv_step(
                A, V, W.copy(), scale.a, scale.b, counters=c_nat
            )
            assert c_np.bytes_total == c_nat.bytes_total
            assert c_np.flops == c_nat.flops


class TestFallback:
    def test_disable_env_forces_numpy(self, monkeypatch):
        """REPRO_NATIVE_DISABLE: auto resolves to numpy, native errors."""
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        assert load_library(force_reload=True) is None
        try:
            auto = get_backend("auto")
            assert auto.name == "numpy"
            with pytest.raises(BackendError, match="REPRO_NATIVE_DISABLE"):
                get_backend("native")
        finally:
            monkeypatch.delenv("REPRO_NATIVE_DISABLE")
            load_library(force_reload=True)

    def test_disabled_results_identical(self, monkeypatch, ti_small):
        """A solve under forced fallback matches the numpy backend exactly."""
        from repro.core.moments import compute_eta
        from repro.core.stochastic import make_block_vector

        m, _ = ti_small
        scale = SpectralScale.from_bounds(*m.gershgorin_bounds())
        block = make_block_vector(m.n_rows, 2, seed=3)
        reference = compute_eta(m, scale, 8, block, backend="numpy")
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        load_library(force_reload=True)
        try:
            fallback = compute_eta(m, scale, 8, block, backend="auto")
        finally:
            monkeypatch.delenv("REPRO_NATIVE_DISABLE")
            load_library(force_reload=True)
        np.testing.assert_array_equal(reference, fallback)

    def test_compile_timeout_env_knob(self, monkeypatch):
        from repro.sparse.backend import native

        assert native._compile_timeout() == native.COMPILE_TIMEOUT
        monkeypatch.setenv("REPRO_NATIVE_COMPILE_TIMEOUT", "7.5")
        assert native._compile_timeout() == 7.5
        # a malformed value must not take the run down with it
        monkeypatch.setenv("REPRO_NATIVE_COMPILE_TIMEOUT", "soon")
        assert native._compile_timeout() == native.COMPILE_TIMEOUT
        # non-positive timeouts would make every compile fail instantly
        # (subprocess treats 0/negative as an immediate expiry): they
        # fall back to the default instead of poisoning the backend
        for bad in ("0", "-3", "0.0"):
            monkeypatch.setenv("REPRO_NATIVE_COMPILE_TIMEOUT", bad)
            assert native._compile_timeout() == native.COMPILE_TIMEOUT

    def test_compile_failure_warns_and_falls_back(self, monkeypatch,
                                                  tmp_path):
        """A broken compiler degrades to numpy with one warning, no crash."""
        from repro.obs import GLOBAL_METRICS

        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))  # no .so cache
        monkeypatch.setenv("CC", "/bin/false")
        before = GLOBAL_METRICS.counters.get(
            "backend.native.compile_failures", 0)
        try:
            with pytest.warns(RuntimeWarning, match="falling back"):
                assert load_library(force_reload=True) is None
            assert get_backend("auto").name == "numpy"
        finally:
            monkeypatch.delenv("CC")
            monkeypatch.delenv("REPRO_NATIVE_CACHE")
            load_library(force_reload=True)
        after = GLOBAL_METRICS.counters.get(
            "backend.native.compile_failures", 0)
        assert after == before + 1


@needs_native
class TestDamagedCache:
    """A cached library is verified before it is called, never trusted.

    Each case plants a bad file under the default unit's name in an
    otherwise empty cache: the loader must replace it by a good build
    and return the bits it always returns.  (The "compiler" here serves
    the session's good build: what is under test is the detection and
    the rebuild, not gcc.)
    """

    @pytest.mark.parametrize("damage", ["zero-byte", "truncated", "wrong-unit"])
    def test_bad_file_is_rebuilt(self, monkeypatch, tmp_path, cc_wrapper,
                                 ti_small, damage):
        from repro.core.moments import compute_eta
        from repro.core.stochastic import make_block_vector
        from repro.sparse.backend import native

        m, _ = ti_small
        scale = SpectralScale.from_bounds(*m.gershgorin_bounds())
        block = make_block_vector(m.n_rows, 3, seed=5)
        want = compute_eta(m, scale, 8, block, backend="native")
        good = native._unit_path()
        other = native.compile_unit("", not native.simd_available())
        assert good.exists() and other != good

        cache = tmp_path / "cache"
        cache.mkdir()
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(cache))
        monkeypatch.setenv("CC", cc_wrapper(cached=True))
        planted = native._unit_path()
        assert planted.name == good.name and planted.parent == cache
        planted.write_bytes({
            "zero-byte": b"",
            # a half file still has a valid ELF header: dlopen would map
            # it and die of SIGBUS on the first page past its end
            "truncated": good.read_bytes()[: good.stat().st_size // 2],
            "wrong-unit": other.read_bytes(),
        }[damage])
        try:
            assert load_library(force_reload=True) is not None
            got = compute_eta(m, scale, 8, block, backend="native")
            assert planted.read_bytes() == good.read_bytes()
            assert len(list(cache.glob("repro_kernels-*.so"))) == 1
        finally:
            monkeypatch.undo()
            load_library(force_reload=True)
        np.testing.assert_array_equal(got, want)

    def test_unfixable_file_is_a_typed_error(self, monkeypatch, tmp_path,
                                             cc_wrapper):
        """Still bad after one rebuild: BackendError, not a crash or a call."""
        log = tmp_path / "cc.log"
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
        monkeypatch.setenv("CC", cc_wrapper(
            f'echo junk > "$out"; echo x >> {log}; exit'))
        try:
            with pytest.warns(RuntimeWarning, match="unusable"):
                assert load_library(force_reload=True) is None
            with pytest.raises(BackendError, match="unusable"):
                get_backend("native")
            assert log.read_text().split() == ["x", "x"]  # one rebuild
            assert not list((tmp_path / "cache").glob("repro_kernels-*.so"))
        finally:
            monkeypatch.undo()
            load_library(force_reload=True)


@pytest.mark.parametrize("backend", ["numpy", "auto"])
class TestNoPerIterationAllocation:
    """The workspace plans make the steady-state iteration allocation-free.

    Small per-call allocations ((R,) eta outputs, ctypes wrappers) are
    fine; what must never appear is an O(N) or O(N, R) temporary — the
    threshold is one column of the block (N * 16 bytes).  Measured as
    the *peak* traced memory during one steady-state call: a temporary
    that is freed before the call returns leaves no snapshot footprint,
    so a snapshot diff would miss exactly the allocations this test
    exists to forbid.
    """

    def _measure(self, fn):
        fn()
        fn()  # warm-ups: lazy imports, caches, plan first-touch
        tracemalloc.start()
        fn()
        current, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        fn()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak - current

    def test_block_step(self, ti_small, rng, backend):
        m, _ = ti_small
        scale = SpectralScale.from_bounds(*m.gershgorin_bounds())
        bk = get_backend(backend)
        r = 8
        V = _block(rng, m.n_rows, r)
        W = _block(rng, m.n_rows, r)
        plan = bk.plan(m, r)
        grew = self._measure(
            lambda: bk.aug_spmmv_step(m, V, W, scale.a, scale.b, plan=plan)
        )
        assert grew < m.n_rows * 16, f"{grew} bytes allocated in the loop"

    def test_single_vector_steps(self, ti_small, rng, backend):
        m, _ = ti_small
        scale = SpectralScale.from_bounds(*m.gershgorin_bounds())
        bk = get_backend(backend)
        v = _block(rng, m.n_rows, 1)[:, 0].copy()
        w = _block(rng, m.n_rows, 1)[:, 0].copy()
        plan = bk.plan(m, 1)

        def steps():
            bk.aug_spmv_step(m, v, w, scale.a, scale.b, plan=plan)
            bk.naive_step(m, v, w, scale.a, scale.b, plan=plan)

        grew = self._measure(steps)
        assert grew < m.n_rows * 16, f"{grew} bytes allocated in the loop"
