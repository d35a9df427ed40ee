"""Distributed KPM equals serial KPM, message accounting included."""

import numpy as np
import pytest

from repro.core.moments import compute_eta
from repro.core.scaling import lanczos_scale
from repro.core.stochastic import make_block_vector
from repro.dist.comm import SimWorld
from repro.dist.halo import partition_matrix
from repro.dist.kpm_parallel import distributed_eta
from repro.dist.partition import RowPartition
from repro.util.errors import SimulationError
from tests.lattice import case_test


@pytest.fixture(scope="module")
def system():
    from repro.physics import build_topological_insulator

    h, _ = build_topological_insulator(8, 6, 4)
    scale = lanczos_scale(h, seed=1)
    blk = make_block_vector(h.n_rows, 4, seed=2)
    ref = compute_eta(h, scale, 24, blk, "aug_spmmv")
    return h, scale, blk, ref


class TestEquivalence:
    @case_test
    def test_matches_serial_equal_partition(self): ...
    @case_test
    def test_matches_serial_weighted(self): ...
    @case_test
    def test_reduction_every_same_result(self): ...

    def test_prepartitioned_matrix_accepted(self, system):
        h, scale, blk, ref = system
        part = RowPartition.equal(h.n_rows, 2, align=64)
        dist = partition_matrix(h, part)
        eta = distributed_eta(dist, None, scale, 24, blk, SimWorld(2))
        assert np.array_equal(eta, ref)

    @case_test
    def test_dos_moments_match(self): ...


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
