"""Distributed KPM equals serial KPM, message accounting included."""

import numpy as np
import pytest

from repro.core.moments import compute_eta, eta_to_moments
from repro.core.scaling import lanczos_scale
from repro.core.stochastic import make_block_vector
from repro.dist.comm import SimWorld
from repro.dist.halo import partition_matrix
from repro.dist.kpm_parallel import distributed_eta
from repro.dist.partition import RowPartition
from repro.sparse.backend.native import native_available
from repro.util.errors import SimulationError

needs_native = pytest.mark.skipif(
    not native_available(), reason="no C compiler for the native kernels"
)


@pytest.fixture(scope="module")
def system():
    from repro.physics import build_topological_insulator

    h, _ = build_topological_insulator(8, 6, 4)
    scale = lanczos_scale(h, seed=1)
    blk = make_block_vector(h.n_rows, 4, seed=2)
    ref = compute_eta(h, scale, 24, blk, "aug_spmmv")
    return h, scale, blk, ref


class TestEquivalence:
    @pytest.mark.parametrize("n_ranks, backend", [
        pytest.param(1, "auto", id="1"),
        pytest.param(2, "auto", id="2"),
        pytest.param(3, "auto", id="3"),
        pytest.param(5, "auto", id="5"),
        pytest.param(1, "numpy", id="1-numpy"),
        pytest.param(1, "native", id="1-native", marks=needs_native),
    ])
    def test_matches_serial_equal_partition(self, system, n_ranks, backend):
        h, scale, blk, ref = system
        if backend != "auto":
            ref = compute_eta(h, scale, 24, blk, "aug_spmmv", backend=backend)
        part = RowPartition.equal(h.n_rows, n_ranks, align=64)
        world = SimWorld(n_ranks)
        eta = distributed_eta(h, part, scale, 24, blk, world, backend=backend)
        # each rank drives the serial engine's Recurrence and the eta bins
        # add exactly: bit for bit at any rank count, not to tolerance
        assert np.array_equal(eta, ref)

    def test_matches_serial_weighted(self, system):
        h, scale, blk, ref = system
        part = RowPartition.from_weights(h.n_rows, [0.55, 0.25, 0.2], align=64)
        eta = distributed_eta(h, part, scale, 24, blk, SimWorld(3))
        assert np.array_equal(eta, ref)

    def test_reduction_every_same_result(self, system):
        h, scale, blk, ref = system
        part = RowPartition.equal(h.n_rows, 4, align=64)
        eta = distributed_eta(
            h, part, scale, 24, blk, SimWorld(4), reduction="every"
        )
        assert np.array_equal(eta, ref)

    def test_prepartitioned_matrix_accepted(self, system):
        h, scale, blk, ref = system
        part = RowPartition.equal(h.n_rows, 2, align=64)
        dist = partition_matrix(h, part)
        eta = distributed_eta(dist, None, scale, 24, blk, SimWorld(2))
        assert np.array_equal(eta, ref)

    def test_dos_moments_match(self, system):
        h, scale, blk, ref = system
        part = RowPartition.equal(h.n_rows, 3, align=64)
        eta = distributed_eta(h, part, scale, 24, blk, SimWorld(3))
        mu = eta_to_moments(eta).mean(axis=0).real
        assert np.array_equal(mu, eta_to_moments(ref).mean(axis=0).real)


class TestCommunication:
    def test_halo_volume_matches_pattern(self, system):
        h, scale, blk, _ = system
        part = RowPartition.equal(h.n_rows, 4, align=64)
        dist = partition_matrix(h, part)
        world = SimWorld(4)
        m = 24
        distributed_eta(dist, None, scale, m, blk, world)
        halo_bytes = world.log.bytes_by_phase()
        per_exchange = dist.pattern.bytes_per_exchange(r=4)
        # one init exchange + (M/2 - 1) iteration exchanges
        assert halo_bytes["halo_init"] == per_exchange
        assert halo_bytes["halo"] == (m // 2 - 1) * per_exchange

    def test_reduction_every_costs_more_messages(self, system):
        h, scale, blk, _ = system
        part = RowPartition.equal(h.n_rows, 4, align=64)
        w_end = SimWorld(4)
        distributed_eta(h, part, scale, 24, blk, w_end, reduction="end")
        w_every = SimWorld(4)
        distributed_eta(h, part, scale, 24, blk, w_every, reduction="every")
        assert w_every.log.n_messages > w_end.log.n_messages

    def test_single_rank_communicates_nothing_but_final(self, system):
        h, scale, blk, _ = system
        part = RowPartition.equal(h.n_rows, 1)
        world = SimWorld(1)
        distributed_eta(h, part, scale, 24, blk, world)
        assert world.log.n_messages == 0


class TestValidation:
    def test_world_size_mismatch(self, system):
        h, scale, blk, _ = system
        part = RowPartition.equal(h.n_rows, 2, align=64)
        with pytest.raises(SimulationError):
            distributed_eta(h, part, scale, 24, blk, SimWorld(3))

    def test_partition_required(self, system):
        h, scale, blk, _ = system
        with pytest.raises(ValueError):
            distributed_eta(h, None, scale, 24, blk, SimWorld(1))

    def test_bad_reduction(self, system):
        h, scale, blk, _ = system
        part = RowPartition.equal(h.n_rows, 1)
        with pytest.raises(ValueError):
            distributed_eta(
                h, part, scale, 24, blk, SimWorld(1), reduction="sometimes"
            )
