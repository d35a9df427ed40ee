"""Functional GPU simulator: numerical fidelity and transaction counts."""

import numpy as np
import pytest

from repro.hw.gpu import GpuLaunchConfig, KeplerGpu
from repro.physics import build_topological_insulator
from repro.sparse.csr import CSRMatrix
from repro.sparse.backend import get_backend
from repro.util.constants import S_D, S_I
from repro.util.errors import SimulationError


@pytest.fixture(scope="module")
def ti():
    h, _ = build_topological_insulator(4, 4, 3)
    return h


def random_blocks(n, r, seed=0):
    rng = np.random.default_rng(seed)
    V = np.ascontiguousarray(rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r)))
    W = np.ascontiguousarray(rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r)))
    return V, W


aug_spmmv_step = get_backend("numpy").aug_spmmv_step


class TestNumericalFidelity:
    @pytest.mark.parametrize("r", [1, 2, 4, 8, 16, 32])
    def test_matches_numpy_kernel(self, ti, r):
        n = ti.n_rows
        V, W = random_blocks(n, r)
        Wref = W.copy()
        ee_ref, eo_ref = aug_spmmv_step(ti, V.copy(), Wref, 0.2, -0.1)
        ee, eo, _ = KeplerGpu().run_aug_spmmv(ti, V, W, 0.2, -0.1)
        assert np.allclose(W, Wref, atol=1e-10)
        assert np.allclose(ee, ee_ref, atol=1e-8)
        assert np.allclose(eo, eo_ref, atol=1e-8)

    def test_plain_spmmv_mode(self, ti):
        n = ti.n_rows
        V, W = random_blocks(n, 8, seed=3)
        _, _, _ = KeplerGpu().run_aug_spmmv(
            ti, V, W, 0, 0, with_dots=False, fused_update=False
        )
        assert np.allclose(W, ti.to_dense() @ V, atol=1e-10)

    def test_nodot_mode_returns_none(self, ti):
        V, W = random_blocks(ti.n_rows, 4)
        ee, eo, _ = KeplerGpu().run_aug_spmmv(
            ti, V, W, 0.3, 0.0, with_dots=False
        )
        assert ee is None and eo is None

    def test_ragged_rows(self):
        """Predication: rows of very different lengths."""
        rows = [0] * 9 + [1] + [3] * 4
        cols = list(range(9)) + [0] + [2, 5, 8, 9]
        m = CSRMatrix.from_coo(rows, cols, np.arange(1, 15) * (1 + 1j), (10, 10))
        V, W = random_blocks(10, 4, seed=5)
        Wref = W.copy()
        aug_spmmv_step(m, V.copy(), Wref, 0.7, 0.2)
        _, _, stats = KeplerGpu().run_aug_spmmv(m, V, W, 0.7, 0.2)
        assert np.allclose(W, Wref, atol=1e-10)
        assert stats.predicated_lane_steps > 0
        assert stats.sm_efficiency() < 1.0

    def test_r_must_divide_warp(self, ti):
        V, W = random_blocks(ti.n_rows, 3)
        with pytest.raises(SimulationError):
            KeplerGpu().run_aug_spmmv(ti, V, W, 1, 0)

    def test_empty_matrix_rows(self):
        m = CSRMatrix.from_coo([0], [0], [1.0], (40, 40))
        V, W = random_blocks(40, 2)
        Wref = W.copy()
        aug_spmmv_step(m, V.copy(), Wref, 0.5, 0.1)
        KeplerGpu().run_aug_spmmv(m, V, W, 0.5, 0.1)
        assert np.allclose(W, Wref, atol=1e-12)


class TestStats:
    def test_warp_and_block_counts(self, ti):
        n = ti.n_rows  # 192
        r = 8
        V, W = random_blocks(n, r)
        cfg = GpuLaunchConfig(block_dim=128)
        _, _, stats = KeplerGpu(config=cfg).run_aug_spmmv(ti, V, W, 1, 0)
        rows_per_warp = 32 // r
        assert stats.warps == -(-n // rows_per_warp)
        assert stats.blocks == -(-stats.warps // (128 // 32))

    def test_tex_requests_linear_in_r(self, ti):
        """The paper's texture-broadcast observation, counted exactly:
        every active lane requests its row's matrix element."""
        volumes = []
        for r in (2, 4, 8):
            V, W = random_blocks(ti.n_rows, r)
            _, _, s = KeplerGpu().run_aug_spmmv(ti, V, W, 1, 0)
            volumes.append(s.tex_bytes)
            assert s.tex_bytes == ti.nnz * r * S_D
        assert volumes[1] == 2 * volumes[0]
        assert volumes[2] == 4 * volumes[0]

    def test_active_lane_steps_equal_nnz_times_r(self, ti):
        r = 4
        V, W = random_blocks(ti.n_rows, r)
        _, _, s = KeplerGpu().run_aug_spmmv(ti, V, W, 1, 0)
        assert s.active_lane_steps == ti.nnz * r

    def test_dram_at_least_matrix_stream(self, ti):
        V, W = random_blocks(ti.n_rows, 4)
        _, _, s = KeplerGpu().run_aug_spmmv(ti, V, W, 1, 0)
        assert s.dram_bytes >= ti.nnz * (S_D + S_I)

    def test_l2_bytes_include_streams(self, ti):
        r = 8
        V, W = random_blocks(ti.n_rows, r)
        _, _, s = KeplerGpu().run_aug_spmmv(ti, V, W, 1, 0)
        assert s.l2_bytes >= 3 * ti.n_rows * r * S_D

    def test_shuffle_ops_log2(self, ti):
        r = 8  # rows_per_warp = 4 -> 2 shuffle steps per warp per product
        V, W = random_blocks(ti.n_rows, r)
        _, _, s = KeplerGpu().run_aug_spmmv(ti, V, W, 1, 0)
        assert s.shuffle_ops == 2 * s.warps * 32 * 2

    def test_no_shuffles_when_r_equals_warp(self, ti):
        V, W = random_blocks(ti.n_rows, 32)
        _, _, s = KeplerGpu().run_aug_spmmv(ti, V, W, 1, 0)
        assert s.shuffle_ops == 0

    def test_estimate_time_positive(self, ti):
        from repro.perf.arch import K20M

        V, W = random_blocks(ti.n_rows, 8)
        _, _, s = KeplerGpu().run_aug_spmmv(ti, V, W, 1, 0)
        assert s.estimate_time(K20M) > 0

    def test_rejects_cpu_arch(self):
        from repro.perf.arch import IVB

        with pytest.raises(ValueError):
            KeplerGpu(arch=IVB)


class TestModelValidation:
    def test_analytic_tex_matches_simulator(self, ti):
        """The analytic traffic model and the functional simulator must
        agree on the texture request volume (both count per-lane loads)."""
        from repro.perf.arch import K20M
        from repro.perf.traffic import gpu_level_traffic

        r = 8
        V, W = random_blocks(ti.n_rows, r)
        _, _, s = KeplerGpu().run_aug_spmmv(ti, V, W, 1, 0)
        analytic = gpu_level_traffic("aug_spmmv", r, ti.n_rows, ti.nnzr, K20M)
        assert s.tex_bytes == pytest.approx(analytic.tex, rel=1e-6)

    def test_l2_gather_volume_close_to_analytic(self, ti):
        from repro.perf.arch import K20M
        from repro.perf.traffic import gpu_level_traffic

        r = 8
        V, W = random_blocks(ti.n_rows, r)
        _, _, s = KeplerGpu().run_aug_spmmv(ti, V, W, 1, 0)
        analytic = gpu_level_traffic("aug_spmmv", r, ti.n_rows, ti.nnzr, K20M)
        assert s.l2_bytes == pytest.approx(analytic.l2, rel=0.35)
