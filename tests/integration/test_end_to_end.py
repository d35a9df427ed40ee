"""Cross-subsystem integration: physics -> sparse -> core -> dist -> hw."""

import numpy as np
import pytest

from repro.core.moments import MomentEngine, compute_eta, eta_to_moments
from repro.core.reconstruct import integrate_density
from repro.core.scaling import lanczos_scale
from repro.core.solver import KPMSolver
from repro.core.stochastic import make_block_vector
from repro.dist.comm import SimWorld
from repro.dist.kpm_parallel import distributed_eta
from repro.dist.partition import RowPartition, weights_from_performance
from repro.hw.gpu import KeplerGpu
from repro.perf.arch import PIZ_DAINT_NODE
from repro.perf.roofline import node_performance
from repro.physics import build_topological_insulator
from repro.sparse.sell import SellMatrix


@pytest.fixture(scope="module")
def system():
    h, model = build_topological_insulator(8, 8, 4)
    scale = lanczos_scale(h, seed=0)
    return h, model, scale


class TestFullPipelineConsistency:
    """The same moments must come out of every computational path."""

    def test_all_paths_agree(self, system):
        h, _, scale = system
        n = h.n_rows
        r, m = 4, 16
        blk = make_block_vector(n, r, seed=3)

        # 1. serial CSR, three engines
        etas = {
            eng: compute_eta(h, scale, m, blk, eng)
            for eng in MomentEngine
        }
        ref = etas[MomentEngine.NAIVE]
        for eng, eta in etas.items():
            assert np.allclose(eta, ref, atol=1e-9), eng

        # 2. serial SELL
        sell = SellMatrix(h, chunk_height=32, sigma=64)
        assert np.allclose(
            compute_eta(sell, scale, m, blk, "aug_spmmv"), ref, atol=1e-9
        )

        # 3. distributed, heterogeneous weights from the perf model
        perf = node_performance(PIZ_DAINT_NODE, "aug_spmmv", r=32)
        weights = weights_from_performance([perf["cpu"], perf["gpu"]])
        part = RowPartition.from_weights(n, weights, align=64)
        world = SimWorld(2, devices=["cpu", "gpu"])
        assert np.allclose(
            distributed_eta(h, part, scale, m, blk, world), ref, atol=1e-9
        )

        # 4. functional GPU simulator driving the recurrence manually
        a, b = scale.a, scale.b
        v = blk.copy()
        w = np.ascontiguousarray((h.to_dense() @ v - b * v) * a)
        eta_gpu = np.empty((r, m), dtype=complex)
        eta_gpu[:, 0] = np.einsum("nr,nr->r", np.conj(v), v)
        eta_gpu[:, 1] = np.einsum("nr,nr->r", np.conj(w), v)
        gpu = KeplerGpu()
        for mi in range(1, m // 2):
            v, w = w, v
            ee, eo, _ = gpu.run_aug_spmmv(h, v, w, a, b)
            eta_gpu[:, 2 * mi] = ee
            eta_gpu[:, 2 * mi + 1] = eo
        assert np.allclose(eta_gpu, ref, atol=1e-7)


class TestPhysicsAcceptance:
    def test_dos_against_dense_diagonalization(self, system):
        h, _, _ = system
        solver = KPMSolver(h, n_moments=512, n_vectors=32, seed=9)
        dos = solver.dos()
        lam = np.linalg.eigvalsh(h.to_dense())
        # cumulative eigenvalue count at quartile energies
        for q in (0.25, 0.5, 0.75):
            e_cut = np.quantile(lam, q)
            exact = (lam <= e_cut).sum()
            est = integrate_density(
                dos.energies, dos.rho, dos.energies[0], float(e_cut)
            )
            assert est == pytest.approx(exact, abs=0.05 * h.n_rows)

    def test_counters_track_whole_solve(self, system):
        from repro.perf.balance import kpm_flops
        from repro.util.counters import PerfCounters

        h, _, scale = system
        c = PerfCounters()
        r, m = 2, 32
        blk = make_block_vector(h.n_rows, r, seed=0)
        compute_eta(h, scale, m, blk, "aug_spmmv", counters=c)
        expected = (m / 2 - 1) * kpm_flops(h.n_rows, h.nnz, r, 2) \
            + r * h.nnz * 8
        assert c.flops == pytest.approx(expected)
        assert c.code_balance < 3.0  # complex KPM sits below 3 B/F


class TestScalePipeline:
    def test_weights_partition_scaling_consistency(self):
        """Partition weights, the node model, and the cluster model tell
        one coherent story: the weighted node at stage 2 outperforms the
        naive node by the Fig. 11 factor, which carries through to the
        Table III node-hour gap."""
        from repro.dist.scaling_model import ClusterModel

        cm = ClusterModel(r=32)
        s2 = node_performance(PIZ_DAINT_NODE, "aug_spmmv", r=32)
        s1 = node_performance(PIZ_DAINT_NODE, "aug_spmv", r=1)
        node_ratio = s2["heterogeneous"] / s1["heterogeneous"]
        nh_ratio = cm.node_hours((6400, 6400, 40), 1024, 2000,
                                 variant="aug_spmv") / cm.node_hours(
            (6400, 6400, 40), 1024, 2000, variant="aug_spmmv")
        # communication shifts the ratio a little, not qualitatively
        assert nh_ratio == pytest.approx(node_ratio, rel=0.25)
        assert nh_ratio > 1.5
