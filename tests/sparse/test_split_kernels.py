"""Split (task-mode) kernels: parity, accounting, fallback, allocation.

The two-phase interior/boundary kernels must be drop-in replacements
for the plain fused step *within a backend*: the W update is row-local,
so running the phases in any order produces bitwise the plain result,
and the eta partials sum to the plain dots to reduction-order
tolerance.  Their Table-I charges must sum exactly to the plain charge
(only the per-phase attribution differs), backends without split
kernels must fail with a clear :class:`BackendError`, and the
steady-state iteration must not allocate.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.scaling import SpectralScale
from repro.dist.halo import partition_matrix
from repro.dist.overlap import task_split
from repro.dist.partition import RowPartition
from repro.sparse.backend import (
    KernelBackend,
    SplitKernelPlan,
    available_backends,
    get_backend,
)
from repro.sparse.backend.native import native_available
from repro.sparse.fused import charge_aug, matrix_stream
from repro.sparse.sell import SellMatrix
from repro.util.constants import DTYPE
from repro.util.counters import PerfCounters
from repro.util.errors import BackendError


@pytest.fixture(params=sorted(available_backends()))
def backend(request):
    if not available_backends()[request.param]:
        pytest.skip(f"{request.param} backend unavailable on this host")
    return request.param


@pytest.fixture(scope="module")
def dist():
    from repro.physics import build_topological_insulator

    h, _ = build_topological_insulator(8, 6, 4)
    part = RowPartition.equal(h.n_rows, 3, align=4)
    return h, partition_matrix(h, part)


def _block(rng, n, r):
    return np.ascontiguousarray(
        (rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))).astype(DTYPE)
    )


def _rank_inputs(h, blk, r, rng):
    """The (xbuf, W) pair a distributed rank feeds the fused kernel."""
    x_global = _block(rng, h.n_rows, r)
    xbuf = np.ascontiguousarray(np.vstack([
        x_global[blk.row_start:blk.row_stop], x_global[blk.halo_global],
    ]))
    w = _block(rng, blk.n_local, r)
    return xbuf, w


class TestBlockParity:
    """Split block step vs the plain fused step of the same backend."""

    @pytest.mark.parametrize("r", [1, 4, 8])
    def test_w_bitwise_eta_close(self, dist, backend, r):
        h, d = dist
        bk = get_backend(backend)
        a, b = 0.37, 0.05
        rng = np.random.default_rng(3)
        for blk in d.blocks:
            xbuf, w0 = _rank_inputs(h, blk, r, rng)
            wp, ws = w0.copy(), w0.copy()
            ee_p, eo_p = bk.aug_spmmv_step(blk.matrix, xbuf, wp, a, b)
            plan = bk.split_plan(blk.matrix, task_split(blk), r)
            ee_s, eo_s = bk.aug_spmmv_split_step(
                blk.matrix, xbuf, ws, a, b, plan
            )
            # the phase update touches each row exactly once with the
            # plain per-row arithmetic, so W is bitwise the plain result
            assert np.array_equal(wp, ws)
            # the dots are split into two partial sums — reduction-order
            # tolerance, not bitwise
            assert np.allclose(ee_s, ee_p, rtol=1e-12, atol=1e-10)
            assert np.allclose(eo_s, eo_p, rtol=1e-12, atol=1e-10)

    def test_degenerate_empty_interior(self, dist, backend):
        """The middle rank of a thin slab has every row on the halo."""
        h, d = dist
        splits = [task_split(blk) for blk in d.blocks]
        assert any(s.n_interior == 0 for s in splits)  # the premise
        bk = get_backend(backend)
        rng = np.random.default_rng(5)
        for blk, s in zip(d.blocks, splits):
            if s.n_interior:
                continue
            xbuf, w0 = _rank_inputs(h, blk, 4, rng)
            wp, ws = w0.copy(), w0.copy()
            bk.aug_spmmv_step(blk.matrix, xbuf, wp, 0.37, 0.05)
            plan = bk.split_plan(blk.matrix, s, 4)
            bk.aug_spmmv_split_step(blk.matrix, xbuf, ws, 0.37, 0.05, plan)
            assert np.array_equal(wp, ws)

    def test_degenerate_all_interior(self, backend):
        """A single rank has no halo: boundary empty, split == plain."""
        from repro.physics import build_topological_insulator

        h, _ = build_topological_insulator(4, 4, 2)
        d = partition_matrix(h, RowPartition((0, h.n_rows)))
        blk = d.blocks[0]
        s = task_split(blk)
        assert s.n_boundary == 0 and s.interior_fraction == 1.0
        bk = get_backend(backend)
        rng = np.random.default_rng(6)
        xbuf, w0 = _rank_inputs(h, blk, 2, rng)
        wp, ws = w0.copy(), w0.copy()
        bk.aug_spmmv_step(blk.matrix, xbuf, wp, 0.37, 0.05)
        plan = bk.split_plan(blk.matrix, s, 2)
        bk.aug_spmmv_split_step(blk.matrix, xbuf, ws, 0.37, 0.05, plan)
        assert np.array_equal(wp, ws)

    @pytest.mark.skipif(not native_available(), reason="no C compiler")
    def test_native_matches_numpy(self, dist):
        """Cross-backend parity (tolerance: FMA contraction differs)."""
        h, d = dist
        rng = np.random.default_rng(7)
        for blk in d.blocks:
            xbuf, w0 = _rank_inputs(h, blk, 4, rng)
            results = {}
            for name in ("numpy", "native"):
                bk = get_backend(name)
                w = w0.copy()
                plan = bk.split_plan(blk.matrix, task_split(blk), 4)
                ee, eo = bk.aug_spmmv_split_step(
                    blk.matrix, xbuf, w, 0.37, 0.05, plan
                )
                results[name] = (w, ee, eo)
            wn, een, eon = results["numpy"]
            wc, eec, eoc = results["native"]
            assert np.allclose(wn, wc, atol=1e-10, rtol=1e-10)
            assert np.allclose(een, eec, atol=1e-10, rtol=1e-10)
            assert np.allclose(eon, eoc, atol=1e-10, rtol=1e-10)


class TestVectorParity:
    """The r=1 split step on a square operator with a synthetic split."""

    def test_matches_plain_bitwise(self, backend):
        from repro.physics import build_topological_insulator

        h, _ = build_topological_insulator(6, 5, 4)
        scale = SpectralScale.from_bounds(*h.gershgorin_bounds())
        n = h.n_rows
        row0, row1 = n // 4, 3 * n // 4
        boundary = np.concatenate(
            [np.arange(row0), np.arange(row1, n)]
        ).astype(np.int64)
        split = SimpleNamespace(row0=row0, row1=row1, boundary=boundary)
        bk = get_backend(backend)
        rng = np.random.default_rng(11)
        v = _block(rng, n, 1)[:, 0].copy()
        w0 = _block(rng, n, 1)[:, 0].copy()
        wp, ws = w0.copy(), w0.copy()
        ee_p, eo_p = bk.aug_spmv_step(h, v, wp, scale.a, scale.b)
        plan = bk.split_plan(h, split, 1)
        ee_s, eo_s = bk.aug_spmv_split_step(h, v, ws, scale.a, scale.b, plan)
        assert np.array_equal(wp, ws)
        assert np.isclose(ee_s, ee_p, rtol=1e-12, atol=1e-10)
        assert np.isclose(eo_s, eo_p, rtol=1e-12, atol=1e-10)


class TestAccounting:
    """Phase charges sum exactly to the plain Table-I charge."""

    def test_analytic_exact_sum(self, dist):
        h, d = dist
        for blk in d.blocks:
            s = task_split(blk)
            _, _, s_i = stream = matrix_stream(blk.matrix)
            for r in (1, 8):
                plain, split = PerfCounters(), PerfCounters()
                charge_aug(plain, "aug_spmmv", *stream, r)
                charge_aug(split, "aug_spmmv_int", s.n_interior,
                           s.nnz_interior, s_i, r)
                charge_aug(split, "aug_spmmv_bnd", s.n_boundary,
                           s.nnz_boundary, s_i, r)
                assert split.bytes_loaded == plain.bytes_loaded
                assert split.bytes_stored == plain.bytes_stored
                assert split.flops == plain.flops
            plain, split = PerfCounters(), PerfCounters()
            charge_aug(plain, "aug_spmv", *stream)
            charge_aug(split, "aug_spmv_int", s.n_interior, s.nnz_interior,
                       s_i)
            charge_aug(split, "aug_spmv_bnd", s.n_boundary, s.nnz_boundary,
                       s_i)
            assert split.bytes_total == plain.bytes_total
            assert split.flops == plain.flops

    def test_measured_exact_sum(self, dist, backend):
        h, d = dist
        bk = get_backend(backend)
        rng = np.random.default_rng(13)
        blk = d.blocks[0]
        xbuf, w0 = _rank_inputs(h, blk, 4, rng)
        c_plain, c_split = PerfCounters(), PerfCounters()
        bk.aug_spmmv_step(blk.matrix, xbuf, w0.copy(), 0.37, 0.05,
                          counters=c_plain)
        plan = bk.split_plan(blk.matrix, task_split(blk), 4)
        bk.aug_spmmv_split_step(blk.matrix, xbuf, w0.copy(), 0.37, 0.05,
                                plan, counters=c_split)
        assert c_split.bytes_loaded == c_plain.bytes_loaded
        assert c_split.bytes_stored == c_plain.bytes_stored
        assert c_split.flops == c_plain.flops
        assert c_split.calls == {"aug_spmmv_int": 1, "aug_spmmv_bnd": 1}


class TestFallback:
    def test_sell_rejected(self):
        from repro.physics import build_topological_insulator

        h, _ = build_topological_insulator(4, 4, 2)
        s = SellMatrix(h, chunk_height=8, sigma=16)
        split = SimpleNamespace(
            row0=0, row1=h.n_rows, boundary=np.empty(0, dtype=np.int64))
        with pytest.raises(BackendError, match="CSR"):
            SplitKernelPlan(s, split, 1)

    def test_backend_without_split_kernels(self, dist):
        """The base class fails loudly, naming the backend."""

        class Bare(KernelBackend):
            name = "bare"

            def available(self):
                return True

            def spmv(self, *a, **k):
                raise NotImplementedError

            spmmv = naive_step = aug_spmv_step = aug_spmmv_step = spmv

        h, d = dist
        with pytest.raises(BackendError, match="split kernels"):
            Bare().aug_spmmv_interior(None, None, None, 0.0, 0.0, None)
        with pytest.raises(BackendError, match="split kernels"):
            Bare().aug_spmv_boundary(None, None, None, 0.0, 0.0, None)


class TestNoAllocation:
    """Steady-state split iterations reuse the plan workspaces."""

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

    def test_split_block_step(self, dist, backend):
        h, d = dist
        blk = d.blocks[0]
        bk = get_backend(backend)
        rng = np.random.default_rng(17)
        r = 16
        xbuf, w = _rank_inputs(h, blk, r, rng)
        plan = bk.split_plan(blk.matrix, task_split(blk), r)
        grew = self._measure(
            lambda: bk.aug_spmmv_split_step(
                blk.matrix, xbuf, w, 0.37, 0.05, plan)
        )
        # the two phases cost a constant few KB of ctypes/view wrappers;
        # materializing even the smallest phase buffer (one boundary
        # block) would at least double that, which is what we forbid
        boundary_block = plan.n_boundary * r * np.dtype(DTYPE).itemsize
        assert grew < boundary_block, \
            f"{grew} bytes allocated in the loop"

    def test_halo_pack(self, dist):
        """The mp engine's send-window assembly is allocation-free."""
        from repro.dist.mp import _pack_halo

        h, d = dist
        rng = np.random.default_rng(19)
        vec = _block(rng, d.blocks[0].n_local, 8)
        packs = []
        for (p, _q), rows in d.pattern.send_rows.items():
            if p != 0:
                continue
            win = np.empty((rows.size, 8), dtype=DTYPE)
            packs.append((rows, win))
        assert packs  # rank 0 sends at least one edge

        def loop():
            for rows, win in packs:
                _pack_halo(vec, rows, win)

        grew = self._measure(loop)
        # a few hundred bytes of interpreter churn is fine; a gather
        # temporary would be window-sized (tens of KB)
        assert grew < 2048, f"{grew} bytes allocated packing halos"
