"""Task-mode (overlapped) execution: split properties and engine parity.

The overlapped schedule computes the interior block while the halo
exchange is in flight, then the boundary block.  Each phase reduces
whole 64-row eta blocks whose bins add exactly, so the result is
schedule-independent: the mp engine under overlap must equal the
sequential simulator, the synchronous path and the serial engine
bitwise.  The split itself is property-tested
over random partitions, and the resilience layer (checkpoints, fault
injection) must behave identically with overlap enabled.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.moments import compute_eta
from repro.core.scaling import lanczos_scale
from repro.core.stochastic import make_block_vector
from repro.dist.comm import SimWorld
from repro.dist.halo import partition_matrix
from repro.dist.kpm_parallel import distributed_eta
from repro.dist.mp import MpWorld
from repro.dist.overlap import OVERLAP_CHOICES, resolve_overlap, task_split
from repro.dist.partition import RowPartition
from repro.dist.shm import segment_exists
from tests.lattice import case_test

M = 24


@pytest.fixture(scope="module")
def system():
    from repro.physics import build_topological_insulator

    h, _ = build_topological_insulator(8, 6, 4)
    scale = lanczos_scale(h, seed=1)
    blk = make_block_vector(h.n_rows, 4, seed=2)
    ref = compute_eta(h, scale, M, blk, "aug_spmmv")
    return h, scale, blk, ref


@pytest.fixture(scope="module")
def lattice():
    from repro.physics import build_topological_insulator

    h, _ = build_topological_insulator(6, 5, 4)
    return h


# ---------------------------------------------------------------------
# the split, property-tested over random partitions
# ---------------------------------------------------------------------

@given(
    weights=st.lists(st.floats(0.05, 10.0), min_size=1, max_size=6),
    align=st.sampled_from([1, 2, 4]),
)
@settings(max_examples=40, deadline=None)
def test_task_split_invariants(lattice, weights, align):
    """Interior and boundary partition the local rows for any cut."""
    part = RowPartition.from_weights(lattice.n_rows, weights, align=align)
    d = partition_matrix(lattice, part)
    for blk in d.blocks:
        s = task_split(blk)
        mat = blk.matrix
        # interior ∪ boundary = all local rows: [0, row0) ∪ [row0, row1)
        # ∪ [row1, n), the interior on whole 64-row eta blocks
        assert 0 <= s.row0 <= s.row1 <= s.n_rows == blk.n_local
        assert s.row0 % 64 == 0 and (s.row1 % 64 == 0 or s.row1 == s.n_rows)
        assert s.n_interior + s.n_boundary == blk.n_local
        # interior rows reference only local columns — the whole point:
        # they can run before the halo arrives
        lo, hi = int(mat.indptr[s.row0]), int(mat.indptr[s.row1])
        if hi > lo:
            assert int(mat.indices[lo:hi].max()) < blk.n_local
        # nnz bookkeeping is consistent with the matrix
        assert s.nnz_interior == hi - lo
        assert s.nnz_interior + s.nnz_boundary == mat.nnz
        assert 0.0 <= s.interior_fraction <= 1.0


@given(
    weights=st.lists(st.floats(0.1, 4.0), min_size=2, max_size=4),
    r=st.sampled_from([1, 2, 5]),
)
@settings(max_examples=20, deadline=None)
def test_two_phase_matches_plain(lattice, weights, r):
    """Split step == plain fused step on every rank of any partition."""
    from repro.sparse.backend import get_backend

    part = RowPartition.from_weights(lattice.n_rows, weights, align=2)
    d = partition_matrix(lattice, part)
    bk = get_backend("numpy")
    a, b = 0.37, 0.05
    rng = np.random.default_rng(23)
    x_global = np.ascontiguousarray(
        rng.normal(size=(lattice.n_rows, r))
        + 1j * rng.normal(size=(lattice.n_rows, r))
    )
    for blk in d.blocks:
        xbuf = np.ascontiguousarray(np.vstack([
            x_global[blk.row_start:blk.row_stop], x_global[blk.halo_global],
        ]))
        w0 = np.ascontiguousarray(
            rng.normal(size=(blk.n_local, r))
            + 1j * rng.normal(size=(blk.n_local, r))
        )
        wp, ws = w0.copy(), w0.copy()
        ee_p, eo_p = bk.aug_spmmv_step(blk.matrix, xbuf, wp, a, b)
        plan = bk.split_plan(blk.matrix, task_split(blk), r)
        ee_s, eo_s = bk.aug_spmmv_split_step(blk.matrix, xbuf, ws, a, b, plan)
        assert np.array_equal(wp, ws)  # row-local update: bitwise
        # whole eta blocks per phase: the phases' bins add exactly
        assert np.array_equal(ee_s, ee_p)
        assert np.array_equal(eo_s, eo_p)


# ---------------------------------------------------------------------
# the knob
# ---------------------------------------------------------------------

class TestResolveOverlap:
    def test_auto_follows_rank_count(self):
        assert resolve_overlap("auto", 1) is False
        assert resolve_overlap(None, 1) is False
        assert resolve_overlap("auto", 2) is True
        assert resolve_overlap(None, 3) is True

    def test_explicit(self):
        assert resolve_overlap("on", 1) is True
        assert resolve_overlap("off", 4) is False
        assert resolve_overlap(True, 1) is True
        assert resolve_overlap(False, 4) is False

    def test_rejects_unknown(self):
        with pytest.raises(ValueError, match="overlap"):
            resolve_overlap("sometimes", 2)
        assert set(OVERLAP_CHOICES) == {"off", "on", "auto"}


# ---------------------------------------------------------------------
# engine parity under overlap
# ---------------------------------------------------------------------

class TestOverlapParity:
    @case_test
    def test_mp_equals_sim_bitwise(self): ...
    @case_test
    def test_on_matches_off(self): ...
    @case_test
    def test_overlap_string_knob(self): ...
    @case_test
    def test_native_backend_bitwise(self): ...
    @case_test
    def test_reduction_every(self): ...
    @case_test
    def test_block_widths(self): ...
    @case_test
    def test_skewed_weights(self): ...


class TestOverlapObservability:
    def test_pack_and_wait_spans(self, system):
        """Overlap splits halo_exchange into halo_pack + halo_wait, and
        the kernel time into the two phase spans."""
        from repro.obs import MetricsRegistry

        h, scale, blk, _ = system
        part = RowPartition.equal(h.n_rows, 2, align=64)
        metrics = MetricsRegistry()
        mw = MpWorld(2)
        distributed_eta(h, part, scale, M, blk, mw, overlap=True,
                        metrics=metrics)
        for p in range(2):
            for span in ("halo_pack", "halo_wait",
                         "aug_spmmv_int", "aug_spmmv_bnd"):
                assert metrics.timers[f"rank{p}.{span}"].count > 0, \
                    f"missing span rank{p}.{span}"
        assert "rank0.halo_exchange" not in metrics.timers

    def test_counters_equal_serial(self, system):
        """Splitting the kernels must not change the traffic totals."""
        from repro.util.counters import PerfCounters

        h, scale, blk, _ = system
        serial = PerfCounters()
        compute_eta(h, scale, M, blk, "aug_spmmv", serial)
        c = PerfCounters()
        part = RowPartition.equal(h.n_rows, 3, align=64)
        distributed_eta(h, part, scale, M, blk, SimWorld(3),
                        overlap=True, counters=c)
        assert c.bytes_loaded == serial.bytes_loaded
        assert c.bytes_stored == serial.bytes_stored
        assert c.flops == serial.flops
        assert set(c.calls) == {"spmmv", "aug_spmmv_int", "aug_spmmv_bnd"}


# ---------------------------------------------------------------------
# resilience under overlap
# ---------------------------------------------------------------------

class TestOverlapResilience:
    def test_worker_crash_surfaces_fast(self, system):
        from repro.resil import FaultPlan
        from repro.util.errors import WorkerFailure

        h, scale, blk, _ = system
        part = RowPartition.equal(h.n_rows, 3, align=64)
        mw = MpWorld(3)
        with pytest.raises(WorkerFailure):
            distributed_eta(h, part, scale, M, blk, mw, overlap=True,
                            fault_plan=FaultPlan.parse("crash:rank=1,m=8"))
        assert not any(segment_exists(nm) for nm in mw.last_segment_names)

    def test_resume_is_bitwise(self, system, tmp_path):
        from repro.core.checkpoint import KpmCheckpoint
        from repro.resil import FaultPlan
        from repro.util.errors import WorkerFailure

        h, scale, blk, _ = system
        part = RowPartition.equal(h.n_rows, 2, align=64)
        ref = distributed_eta(h, part, scale, M, blk, MpWorld(2),
                              overlap=True)
        p = tmp_path / "ck.npz"
        with pytest.raises(WorkerFailure):
            distributed_eta(h, part, scale, M, blk, MpWorld(2), overlap=True,
                            fault_plan=FaultPlan.parse("crash:rank=0,m=8"),
                            checkpoint_every=3, checkpoint_path=p)
        ck = KpmCheckpoint.load(p)
        resumed = distributed_eta(h, part, scale, M, blk, MpWorld(2),
                                  overlap=True, resume_from=ck)
        assert np.array_equal(resumed, ref)

    def test_cross_mode_resume(self, system, tmp_path):
        """A checkpoint written under overlap resumes synchronously —
        the state is engine- and schedule-agnostic."""
        from repro.core.checkpoint import KpmCheckpoint
        from repro.resil import FaultPlan
        from repro.util.errors import WorkerFailure

        h, scale, blk, _ = system
        part = RowPartition.equal(h.n_rows, 2, align=64)
        ref = distributed_eta(h, part, scale, M, blk, SimWorld(2),
                              overlap=False)
        p = tmp_path / "ck.npz"
        with pytest.raises(WorkerFailure):
            distributed_eta(h, part, scale, M, blk, MpWorld(2), overlap=True,
                            fault_plan=FaultPlan.parse("crash:rank=0,m=8"),
                            checkpoint_every=3, checkpoint_path=p)
        ck = KpmCheckpoint.load(p)
        resumed = distributed_eta(h, part, scale, M, blk, SimWorld(2),
                                  overlap=False, resume_from=ck)
        assert np.array_equal(resumed, ref)


# ---------------------------------------------------------------------
# the facade
# ---------------------------------------------------------------------

class TestSolverOverlap:
    @case_test
    def test_solver_overlap_matches_sync(self): ...

    def test_solver_validates_overlap_eagerly(self, system):
        from repro.core.solver import KPMSolver

        h, _, _, _ = system
        with pytest.raises(ValueError, match="overlap"):
            KPMSolver(h, overlap="sometimes")
