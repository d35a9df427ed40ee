"""Halo pattern extraction and local matrix reassembly."""

import numpy as np
import pytest

from repro.dist.halo import partition_matrix
from repro.dist.partition import RowPartition
from repro.sparse.csr import CSRMatrix
from repro.util.errors import PartitionError


@pytest.fixture
def dist_ti(ti_small):
    h, _ = ti_small
    part = RowPartition.from_weights(h.n_rows, [2, 1, 1], align=4)
    return h, part, partition_matrix(h, part)


class TestPartitioning:
    def test_blocks_cover_all_rows(self, dist_ti):
        h, part, dist = dist_ti
        assert sum(b.n_local for b in dist.blocks) == h.n_rows

    def test_local_matrices_reassemble_global(self, dist_ti):
        """Scattering each block's columns back to global indices must
        reproduce the original matrix exactly."""
        h, part, dist = dist_ti
        dense = np.zeros(h.shape, dtype=complex)
        for blk in dist.blocks:
            local_dense = blk.matrix.to_dense()
            col_map = np.concatenate(
                [np.arange(blk.row_start, blk.row_stop), blk.halo_global]
            )
            for j_local, j_global in enumerate(col_map):
                dense[blk.row_start : blk.row_stop, j_global] += local_dense[
                    :, j_local
                ]
        assert np.allclose(dense, h.to_dense())

    def test_halo_excludes_local_columns(self, dist_ti):
        _, part, dist = dist_ti
        for blk in dist.blocks:
            assert np.all(
                (blk.halo_global < blk.row_start)
                | (blk.halo_global >= blk.row_stop)
            )

    def test_halo_grouped_by_source(self, dist_ti):
        _, part, dist = dist_ti
        for blk in dist.blocks:
            if blk.halo_sources.size:
                owners = part.owner_of(blk.halo_global)
                # grouped: owner sequence is sorted
                assert np.all(np.diff(owners) >= 0)
                assert np.array_equal(np.unique(owners), blk.halo_sources)

    def test_send_rows_local_and_valid(self, dist_ti):
        _, part, dist = dist_ti
        for (src, dst), rows in dist.pattern.send_rows.items():
            lo, hi = part.bounds(src)
            assert np.all(rows >= 0) and np.all(rows < hi - lo)

    def test_pattern_counts_match_halo(self, dist_ti):
        _, _, dist = dist_ti
        for blk in dist.blocks:
            total = sum(
                dist.pattern.send_rows[(int(s), blk.rank)].size
                for s in blk.halo_sources
            )
            assert total == blk.n_halo

    def test_neighbors_of(self, dist_ti):
        _, _, dist = dist_ti
        for rank in range(dist.n_ranks):
            for q in dist.pattern.neighbors_of(rank):
                assert (rank, q) in dist.pattern.send_rows

    def test_bytes_per_exchange(self, dist_ti):
        _, _, dist = dist_ti
        total_rows = dist.pattern.total_rows_exchanged()
        assert dist.pattern.bytes_per_exchange(r=4) == total_rows * 4 * 16


class TestMemo:
    """partition_matrix is memoised on the matrix, per partition."""

    def test_equal_partitions_share_one_result(self, ti_small):
        h, _ = ti_small
        a = partition_matrix(h, RowPartition.equal(h.n_rows, 2, align=4))
        b = partition_matrix(h, RowPartition.equal(h.n_rows, 2, align=4))
        assert a is b

    def test_other_weights_or_matrix_build_anew(self, ti_small):
        h, _ = ti_small
        part = RowPartition.equal(h.n_rows, 2, align=4)
        base = partition_matrix(h, part)
        other = RowPartition.from_weights(h.n_rows, [3, 1], align=4)
        assert partition_matrix(h, other) is not base
        twin = CSRMatrix(h.indptr, h.indices, h.data, h.shape)
        assert partition_matrix(twin, part) is not base
        assert partition_matrix(h, part) is base

    def test_shared_arrays_are_read_only(self, ti_small):
        h, _ = ti_small
        dist = partition_matrix(h, RowPartition.equal(h.n_rows, 3, align=4))
        blk = dist.blocks[1]
        for arr in (blk.matrix.indptr, blk.matrix.indices, blk.matrix.data,
                    blk.halo_global, blk.halo_sources, blk.halo_counts,
                    *dist.pattern.send_rows.values()):
            with pytest.raises(ValueError, match="read-only"):
                arr[:1] = 0

    def test_swapped_block_is_rebuilt(self, ti_small):
        """A caller that reformats a block in place (the tuner's per-rank
        SELL) keeps its copy; the next caller gets pristine CSR blocks."""
        from repro.sparse.sell import SellMatrix

        h, _ = ti_small
        part = RowPartition.equal(h.n_rows, 2, align=4)
        mine = partition_matrix(h, part)
        mine.blocks[0].matrix = SellMatrix(mine.blocks[0].matrix,
                                           chunk_height=4, sigma=4)
        fresh = partition_matrix(h, part)
        assert fresh is not mine
        assert all(isinstance(b.matrix, CSRMatrix) for b in fresh.blocks)


class TestValidation:
    def test_nonsquare_rejected(self):
        m = CSRMatrix.from_coo([0], [0], [1.0], (2, 3))
        with pytest.raises(PartitionError):
            partition_matrix(m, RowPartition((0, 1, 2)))

    def test_partition_size_mismatch(self, ti_small):
        h, _ = ti_small
        with pytest.raises(PartitionError):
            partition_matrix(h, RowPartition((0, 10)))

    def test_single_rank_no_halo(self, ti_small):
        h, _ = ti_small
        dist = partition_matrix(h, RowPartition((0, h.n_rows)))
        assert dist.blocks[0].n_halo == 0
        assert dist.pattern.total_rows_exchanged() == 0
