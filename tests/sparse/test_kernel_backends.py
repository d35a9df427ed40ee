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
from repro.util.precision import get_precision
from tests.lattice import case_test

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
    # off-centre (b != 0), so the 2ab v term of the recombination rounds
    lo, hi = m.gershgorin_bounds()
    scale = SpectralScale.from_bounds(lo, hi + 1.0)
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
        # the eta reduction's state: (2, 3R) bins, the escape flag, and
        # anchors set by the first step (or Recurrence.load)
        assert p4.bins.shape == (2, 12) and p4.bins.dtype == np.float64
        assert p4.escape.shape == (1,) and p4.anchors is None


def _storage(prec, X):
    """``X`` (complex128) in ``prec``'s vector storage."""
    return prec.encode(X) if prec.half_vectors else X.astype(prec.vector_dtype)


def _sells(m):
    """SELL images of ``m``: C in {8, 32}, sigma in {1, 32, 8192} — the
    last one scope wider than any operator here."""
    return [SellMatrix(m, chunk_height=c, sigma=s)
            for c in (8, 32) for s in (1, 32, 8192)]


def _equal(a, b) -> bool:
    return a.dtype == b.dtype and np.array_equal(a, b)


@needs_native
class TestNativeParity:
    """The NumPy backend rounds as the C kernels do: every kernel writes
    the native bits (DESIGN §19)."""

    def test_spmv(self, operator, rng):
        """Every profile (the u16 units too), CSR, the fixture's SELL and
        SELL with C in {8, 32} and sigma in {1, 32, 8192}: the walk's
        store finisher at r = 1 writes the NumPy bits, and spmv(x) is
        spmmv(x[:, None])."""
        m, sell, _ = operator
        npb, nat = get_backend("numpy"), get_backend("native")
        x = _block(rng, m.n_cols, 1)[:, 0].copy()
        for prec in map(get_precision, ("fp64", "fp32", "fp16v")):
            xs = _storage(prec, x)
            for A in (m, sell, *_sells(m)):
                y = nat.spmv(A, xs)
                assert _equal(y, npb.spmv(A, xs)), (prec.name, A)
                assert _equal(y, nat.spmmv(A, xs[:, None])[:, 0]), \
                    (prec.name, A)

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 8, 32])
    def test_spmmv(self, operator, rng, r):
        m, sell, _ = operator
        npb, nat = get_backend("numpy"), get_backend("native")
        X = _block(rng, m.n_cols, r)
        for prec in map(get_precision, ("fp64", "fp32", "fp16v")):
            Xs = _storage(prec, X)
            for A in (m, sell, *_sells(m)):
                assert _equal(nat.spmmv(A, Xs), npb.spmmv(A, Xs)), \
                    (prec.name, A)

    def test_aug_spmv_step(self, operator, rng):
        m, sell, scale = operator
        npb, nat = get_backend("numpy"), get_backend("native")
        v = _block(rng, m.n_cols, 1)[:, 0].copy()
        w0 = _block(rng, m.n_rows, 1)[:, 0].copy()
        for A in (m, sell):
            wa, wb = w0.copy(), w0.copy()
            eta_n = npb.aug_spmv_step(A, v, wa, scale.a, scale.b)
            eta_c = nat.aug_spmv_step(A, v, wb, scale.a, scale.b)
            assert _equal(wa, wb)
            assert eta_n == eta_c

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
            assert _equal(wa, wb)
            assert _equal(ee_n, ee_c) and _equal(eo_n, eo_c)

    def test_naive_step(self, operator, rng):
        m, _, scale = operator
        npb, nat = get_backend("numpy"), get_backend("native")
        v = _block(rng, m.n_cols, 1)[:, 0].copy()
        w0 = _block(rng, m.n_rows, 1)[:, 0].copy()
        wa, wb = w0.copy(), w0.copy()
        eta_n = npb.naive_step(m, v, wa, scale.a, scale.b)
        eta_c = nat.naive_step(m, v, wb, scale.a, scale.b)
        assert _equal(wa, wb)
        assert eta_n == eta_c

    def test_rectangular_block(self, ti_small, rng):
        """V with halo rows: dots and update run over the first n rows."""
        m, _ = ti_small
        lo, hi = m.gershgorin_bounds()
        scale = SpectralScale.from_bounds(lo, hi + 1.0)
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
        assert _equal(wa, wb)
        assert _equal(ee_n, ee_c) and _equal(eo_n, eo_c)
        v, wa, wb = V[:, 0].copy(), W0[:, 0].copy(), W0[:, 0].copy()
        eta_n = npb.aug_spmv_step(wide, v, wa, scale.a, scale.b)
        eta_c = nat.aug_spmv_step(wide, v, wb, scale.a, scale.b)
        assert _equal(wa, wb) and eta_n == eta_c

    @case_test
    def test_moments_parity(self): ...

    @pytest.mark.parametrize("precision", ["fp64", "fp32", "fp16v"])
    @pytest.mark.parametrize("kernel,r", [
        ("naive", 1), ("aug_spmv", 1), ("aug_spmmv", 1), ("aug_spmmv", 3),
        ("aug_spmmv", 8), ("aug_spmmv", 32)])
    def test_one_bit_pattern_per_precision(self, operator, precision,
                                           kernel, r):
        """Three steps of each kernel at an off-centre scale: on CSR and
        on SELL-C-sigma for seven (C, sigma) pairs (sigma = 8,192: a
        global sort, one r = 1 chunk group wider than the matrix), the
        NumPy backend and the native kernels under every simd x threads
        setting write the W and eta of the NumPy CSR walk, in every
        storage profile — the format moves no bit; and stage 1 on column
        k is column k of the stage-2 R = 3 block, bit for bit (one walk,
        DESIGN §19)."""
        m, _, scale = operator
        prec = get_precision(precision)
        V0, W0 = (_block(np.random.default_rng(seed), m.n_rows, max(r, 3))
                  / np.sqrt(m.n_rows) for seed in (1, 2))

        def run(name, A, kernel, width, col=0, **knobs):
            """Three steps of ``kernel``: on the first ``width`` columns
            (stage 2), else on column ``col``."""
            bk = get_backend(name)
            plan = bk.plan(A, width, precision=prec, **knobs)
            step = getattr(bk, f"{kernel}_step")
            cols = slice(0, width) if kernel == "aug_spmmv" else col
            V, W = (_storage(prec, np.ascontiguousarray(X[:, cols]))
                    for X in (V0, W0))
            etas = []
            for _ in range(3):
                etas.append(np.hstack(step(A, V, W, scale.a, scale.b,
                                           plan=plan)))
                V, W = W, V
            return V, np.stack(etas)

        ref_w, ref_eta = run("numpy", m, kernel, r)
        sells = [SellMatrix(m, chunk_height=c, sigma=s) for c, s in
                 ((8, 1), (8, 16), (8, 32), (16, 64), (32, 128), (4, 20),
                  (8, 8192))]
        for A in (m, *sells):
            runs = [("numpy", {})] + [
                ("native", dict(simd=simd, threads=threads))
                for simd in ("on", "off") for threads in (1, 2)]
            for name, knobs in runs:
                w, eta = run(name, A, kernel, r, **knobs)
                assert _equal(w, ref_w), (A, name, knobs)
                assert _equal(eta, ref_eta), (A, name, knobs)
        if kernel == "aug_spmv":
            for name in ("numpy", "native"):
                w3, eta3 = run(name, m, "aug_spmmv", 3)
                for k in range(3):
                    w, eta = run(name, m, kernel, 1, k)
                    assert _equal(w, w3[:, k]), (name, k)
                    assert _equal(eta, eta3[:, [k, 3 + k]]), (name, k)

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


@pytest.mark.parametrize("n", [40, 1000, 16400])
@pytest.mark.parametrize("precision", ["fp64", "fp32", "fp16v"])
def test_eta_bins_column_is_its_block_column(precision, n):
    """The NumPy eta reduction's one-column layout (r = 1) sums as the
    block layout (r > 1) does: the bins of column k alone are column k's
    of the (N, 3) bins — on a partial last block (N = 1,000), on a pass
    of one block (N = 40) and on a last pass of one block (N = 16,400)."""
    from repro.sparse.fused import eta_anchors, eta_bins

    prec = get_precision(precision)
    rng = np.random.default_rng(4)
    V, W = (_storage(prec, _block(rng, n, 3)) for _ in range(2))
    anchors = eta_anchors(V)
    bins3 = eta_bins(V, W, anchors)
    for k in range(3):
        one = eta_bins(V[:, k], W[:, k], anchors[k:k + 1])
        assert _equal(one, bins3[:, [k, 3 + 2 * k, 4 + 2 * k]]), k


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

        # the disable switch would answer before the broken CC is tried
        monkeypatch.delenv("REPRO_NATIVE_DISABLE", raising=False)
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

    def test_setup(self, backend):
        """``Recurrence.load`` + ``bootstrap`` at R = 8: nothing O(N·R)
        beyond the ν₀ copy — no second block of squares for the anchors,
        no pass scratch of the bootstrap's own eta reduction."""
        from repro.core.recurrence import Recurrence
        from repro.core.stochastic import make_block_vector
        from repro.physics import build_topological_insulator

        m, _ = build_topological_insulator(16, 16, 8)
        scale = SpectralScale.from_bounds(*m.gershgorin_bounds())
        r = 8
        block = make_block_vector(m.n_rows, r, seed=1)
        rec = Recurrence(m, scale.a, scale.b, r, backend=backend)

        def setup():
            rec.load(block)
            rec.bootstrap()

        grew = self._measure(setup)
        assert grew < block.nbytes + m.n_rows * 16, \
            f"{grew - block.nbytes} bytes allocated beyond the ν₀ copy"


# ---------------------------------------------------------------------
# the set-up entries (DESIGN §13): native == the NumPy twins, bit for bit
# ---------------------------------------------------------------------

def _starts(n, r):
    """A random-phase block and a unit-vector (exact LDOS) one."""
    from repro.core.stochastic import make_block_vector, unit_block_vector

    rows = np.arange(r) * (n // r) + 1
    return {"phase": make_block_vector(n, r, seed=5),
            "unit": unit_block_vector(n, rows)}


@needs_native
@pytest.mark.parametrize("precision", ["fp64", "fp32", "fp16v"])
@pytest.mark.parametrize("fmt", ["csr", "sell", "sell_wide"])
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("simd", ["on", "off"])
def test_bootstrap_is_the_numpy_twin(ti_small, precision, fmt, threads, simd):
    """ν₁ and its bins from the native bootstrap — product, NumPy's
    ``a (u - b v)`` and the eta reduction in one team call — equal the
    NumPy twin's bits for random-phase and unit-vector starts, at b = 0
    exactly (signed zeros of ``v·0``) and off centre; blocked and, at
    R = 1, single-vector; on SELL also with one sigma scope wider than
    the matrix (its R = 1 walk is one group)."""
    from repro.core.recurrence import Recurrence

    h, _ = ti_small
    A = h if fmt == "csr" else SellMatrix(
        h, chunk_height=16, sigma=64 if fmt == "sell" else 8192)
    lo, hi = h.gershgorin_bounds()
    for scale in (SpectralScale(2.0 / (hi - lo) * 0.99, 0.0, lo, hi),
                  SpectralScale.from_bounds(lo, hi + 1.0)):
        for kind, block in _starts(h.n_rows, 3).items():
            for r, kernel in ((3, "aug_spmmv"), (1, "aug_spmv")):
                out = []
                for bk in ("numpy", "native"):
                    rec = Recurrence(A, scale.a, scale.b, r, kernel=kernel,
                                     backend=bk, precision=precision,
                                     threads=threads, simd=simd)
                    rec.load(block[:, 0] if r == 1 else block[:, :r])
                    bins = rec.bootstrap().copy()
                    out.append((rec.w.tobytes(), bins.tobytes(),
                                rec._plan.anchors.tobytes()))
                assert out[0] == out[1], (scale.b, kind, r)


@needs_native
@pytest.mark.parametrize("threads", [1, 2])
def test_anchors_are_the_numpy_twin(threads):
    """The native per-column max of ``|x|^2`` gives the NumPy anchors'
    bits for every ensemble, a unit-vector block, a zero column, complex64
    and fp16v pairs."""
    from repro.core.stochastic import make_block_vector, unit_block_vector
    from repro.sparse.fused import eta_anchors
    from repro.util.precision import FP16V

    n = 1000
    blocks = [make_block_vector(n, 5, kind, seed=2)
              for kind in ("phase", "rademacher", "gaussian")]
    blocks.append(unit_block_vector(n, np.array([0, 17, 999])))
    zero = 3.0 * blocks[2]
    zero[:, 1] = 0.0
    blocks += [zero, zero.astype(np.complex64), FP16V.encode(zero),
               FP16V.encode(blocks[0])[:, 0]]
    native, numpy_bk = get_backend("native"), get_backend("numpy")
    for block in blocks:
        want = eta_anchors(block)
        assert numpy_bk.eta_anchors(block).tobytes() == want.tobytes()
        assert native.eta_anchors(block, threads).tobytes() == \
            want.tobytes(), block.dtype
    assert eta_anchors(zero)[1] == 1.0
