"""Interior/boundary splitting for communication hiding."""

import numpy as np
import pytest

from repro.dist.halo import partition_matrix
from repro.dist.overlap import exposed_communication_time, task_split
from repro.dist.partition import RowPartition
from repro.sparse.backend import get_backend


@pytest.fixture(scope="module")
def dist():
    from repro.physics import build_topological_insulator

    h, _ = build_topological_insulator(8, 6, 4)
    part = RowPartition.equal(h.n_rows, 3, align=4)
    return h, partition_matrix(h, part)


def _touches_halo(blk) -> np.ndarray:
    """Per local row: does it reference a halo column?"""
    m = blk.matrix
    rows = np.repeat(np.arange(m.n_rows), m.nnz_per_row)
    out = np.zeros(m.n_rows, dtype=bool)
    np.logical_or.at(out, rows, m.indices.astype(np.int64) >= blk.n_local)
    return out


class TestSplit:
    def test_rows_partitioned(self, dist):
        _, d = dist
        for blk in d.blocks:
            s = task_split(blk)
            combined = np.sort(
                np.concatenate([np.arange(s.row0, s.row1), s.boundary]))
            assert np.array_equal(combined, np.arange(blk.n_local))

    def test_interior_has_no_halo_columns(self, dist):
        _, d = dist
        for blk in d.blocks:
            s = task_split(blk)
            interior = blk.matrix.extract_rows(s.row0, s.row1)
            if interior.nnz:
                assert int(interior.indices.max()) < blk.n_local

    def test_boundary_rows_touch_halo(self, dist):
        """Every halo-touching row is a boundary row."""
        _, d = dist
        for blk in d.blocks:
            s = task_split(blk)
            halo_rows = np.nonzero(_touches_halo(blk))[0]
            assert np.isin(halo_rows, s.boundary).all()
            assert s.nnz_interior + s.nnz_boundary == blk.matrix.nnz

    def test_interior_fraction_grows_with_slab_thickness(self):
        """Thick stencil slabs are mostly interior: only the two site
        layers adjacent to the cuts reference halo data."""
        from repro.physics import build_topological_insulator

        h, _ = build_topological_insulator(4, 4, 12)
        d = partition_matrix(h, RowPartition.equal(h.n_rows, 3, align=4))
        fractions = [task_split(blk).interior_fraction for blk in d.blocks]
        # each rank owns 4 z-planes; the middle ~2 are interior
        assert all(f >= 0.4 for f in fractions)

    def test_single_rank_all_interior(self):
        from repro.physics import build_topological_insulator

        h, _ = build_topological_insulator(4, 4, 2)
        d = partition_matrix(h, RowPartition((0, h.n_rows)))
        s = task_split(d.blocks[0])
        assert s.boundary.size == 0
        assert s.interior_fraction == 1.0


class TestTwoPhaseProduct:
    def test_equals_single_phase(self, dist):
        """Interior then boundary phase (a = 1/2, b = 0, w = 0 makes the
        augmented step a plain product) equals the global product."""
        h, d = dist
        rng = np.random.default_rng(0)
        r = 3
        x_global = np.ascontiguousarray(
            rng.normal(size=(h.n_rows, r)) + 1j * rng.normal(size=(h.n_rows, r))
        )
        y_ref = h.to_dense() @ x_global
        bk = get_backend("numpy")
        for blk in d.blocks:
            x = np.ascontiguousarray(np.vstack(
                [x_global[blk.row_start:blk.row_stop],
                 x_global[blk.halo_global]]))
            out = np.zeros((blk.n_local, r), dtype=complex)
            plan = bk.split_plan(blk.matrix, task_split(blk), r)
            bk.aug_spmmv_split_step(blk.matrix, x, out, 0.5, 0.0, plan)
            assert np.allclose(out, y_ref[blk.row_start:blk.row_stop],
                               atol=1e-10)


class TestExposedTime:
    def test_fully_hidden(self):
        assert exposed_communication_time(1.0, 3.0, 0.5) == 0.0

    def test_partially_hidden(self):
        assert exposed_communication_time(1.0, 1.0, 0.4) == pytest.approx(0.6)

    def test_no_interior_no_hiding(self):
        assert exposed_communication_time(1.0, 5.0, 0.0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            exposed_communication_time(1.0, 1.0, 1.5)
        with pytest.raises(ValueError):
            exposed_communication_time(-1.0, 1.0, 0.5)
