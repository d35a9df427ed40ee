"""High-level distributed DOS application driver."""

import numpy as np
import pytest

from repro.core.solver import KPMSolver
from repro.dist.comm import SimWorld
from repro.dist.halo import partition_matrix
from repro.dist.kpm_parallel import distributed_dos
from repro.dist.partition import RowPartition


@pytest.fixture(scope="module")
def ti():
    from repro.physics import build_topological_insulator

    h, _ = build_topological_insulator(6, 6, 4)
    return h


class TestDistributedDos:
    def test_matches_serial_solver(self, ti):
        serial = KPMSolver(ti, n_moments=64, n_vectors=4, seed=5)
        part = RowPartition.equal(ti.n_rows, 3, align=64)
        res = distributed_dos(
            ti, part, 64, 4, SimWorld(3), scale=serial.scale, seed=5
        )
        ref = serial.dos()
        assert np.array_equal(res.moments, ref.moments)
        assert np.array_equal(res.rho, ref.rho)

    def test_auto_scale(self, ti):
        part = RowPartition.equal(ti.n_rows, 2, align=64)
        res = distributed_dos(ti, part, 32, 2, SimWorld(2), seed=0)
        from repro.core.reconstruct import integrate_density

        assert integrate_density(res.energies, res.rho) == pytest.approx(
            ti.n_rows, rel=0.05
        )

    def test_prepartitioned_requires_scale(self, ti):
        part = RowPartition.equal(ti.n_rows, 2, align=64)
        dist = partition_matrix(ti, part)
        with pytest.raises(ValueError, match="scale"):
            distributed_dos(dist, None, 16, 1, SimWorld(2), seed=0)

    def test_prepartitioned_with_scale(self, ti):
        from repro.core.scaling import lanczos_scale

        scale = lanczos_scale(ti, seed=1)
        part = RowPartition.equal(ti.n_rows, 2, align=64)
        dist = partition_matrix(ti, part)
        res = distributed_dos(
            dist, None, 32, 2, SimWorld(2), scale=scale, seed=1
        )
        assert res.moments[0] == pytest.approx(ti.n_rows, rel=1e-9)

    def test_reduction_variant(self, ti):
        from repro.core.scaling import lanczos_scale

        scale = lanczos_scale(ti, seed=2)
        part = RowPartition.equal(ti.n_rows, 4, align=64)
        a = distributed_dos(
            ti, part, 32, 2, SimWorld(4), scale=scale, seed=2,
            reduction="end",
        )
        b = distributed_dos(
            ti, part, 32, 2, SimWorld(4), scale=scale, seed=2,
            reduction="every",
        )
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
