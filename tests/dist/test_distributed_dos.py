"""The distributed DOS application: ``KPMSolver`` on the sim engine, and
a pre-partitioned operator through ``run_engine``."""

import numpy as np
import pytest

from repro.core.checkpoint import RunContext
from repro.core.solver import KPMSolver
from repro.dist.halo import partition_matrix
from repro.dist.partition import RowPartition
from repro.util.knobs import ExecConfig, run_engine


@pytest.fixture(scope="module")
def ti():
    from repro.physics import build_topological_insulator

    h, _ = build_topological_insulator(6, 6, 4)
    return h


class TestDistributedDos:
    def test_matches_serial_solver(self, ti):
        serial = KPMSolver(ti, n_moments=64, n_vectors=4, seed=5)
        res = KPMSolver(ti, n_moments=64, n_vectors=4, seed=5,
                        scale=serial.scale, dist_engine="sim",
                        workers=3).dos()
        ref = serial.dos()
        assert np.array_equal(res.moments, ref.moments)
        assert np.array_equal(res.rho, ref.rho)

    def test_auto_scale(self, ti):
        res = KPMSolver(ti, n_moments=32, n_vectors=2, seed=0,
                        dist_engine="sim", workers=2).dos()
        from repro.core.reconstruct import integrate_density

        assert integrate_density(res.energies, res.rho) == pytest.approx(
            ti.n_rows, rel=0.05
        )

    def test_prepartitioned_with_scale(self, ti):
        from repro.core.moments import eta_to_moments
        from repro.core.scaling import lanczos_scale
        from repro.core.stochastic import make_block_vector

        scale = lanczos_scale(ti, seed=1)
        part = RowPartition.equal(ti.n_rows, 2, align=64)
        dist = partition_matrix(ti, part)
        block = make_block_vector(ti.n_rows, 2, seed=1)
        eta = run_engine(ExecConfig(engine="sim", workers=2), RunContext(),
                         dist, scale, 32, block)[0]
        mu = eta_to_moments(eta).mean(axis=0).real
        assert mu[0] == pytest.approx(ti.n_rows, rel=1e-9)

    def test_reduction_variant(self, ti):
        from repro.core.scaling import lanczos_scale

        scale = lanczos_scale(ti, seed=2)
        a, b = (KPMSolver(ti, n_moments=32, n_vectors=2, seed=2, scale=scale,
                          dist_engine="sim", workers=4,
                          reduction=reduction).dos()
                for reduction in ("end", "every"))
        assert np.array_equal(a.moments, b.moments)


class TestCommOverlapModel:
    def test_overlap_reduces_iteration_total(self):
        from repro.dist.scaling_model import ClusterModel

        base = ClusterModel(r=32)
        overlapped = ClusterModel(r=32, comm_overlap=True)
        dom = (6400, 6400, 40)
        it_base = base.iteration_times(dom, 1024)
        it_over = overlapped.iteration_times(dom, 1024)
        assert it_over["halo"] < it_base["halo"]
        assert it_over["total"] < it_base["total"]
        assert it_over["compute"] == it_base["compute"]

    def test_overlap_never_hurts_weak_scaling(self):
        from repro.dist.scaling_model import ClusterModel

        base = ClusterModel(r=32)
        overlapped = ClusterModel(r=32, comm_overlap=True)
        for b, o in zip(
            base.weak_scaling("square", [1, 4, 64]),
            overlapped.weak_scaling("square", [1, 4, 64]),
        ):
            assert o["tflops"] >= b["tflops"] - 1e-12
