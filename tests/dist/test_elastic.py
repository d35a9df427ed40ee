"""Elastic execution: grid-eta invariance, cross-worker resume, policy.

The elastic contract (DESIGN §11): under ``eta_grid=B`` the eta
reduction order depends only on ``(N, B)``, so *any* sequence of
repartitions, worker-count changes, and checkpoint splices returns fp64
moments bitwise identical to an uninterrupted run on any fixed
grid-aligned partition.  These tests pin that contract — plus the
accounting one: every segment's measured Table-I counters equal
:func:`repro.perf.report.expected_segment_counters` exactly, on both
halves of a cross-worker-count resume.
"""

import numpy as np
import pytest

from repro.core.checkpoint import KpmCheckpoint
from repro.core.scaling import lanczos_scale
from repro.core.stochastic import make_block_vector
from repro.dist.comm import SimWorld
from repro.dist.elastic import (
    ElasticReport,
    MembershipPlan,
    RebalanceMonitor,
    RebalancePolicy,
    elastic_eta,
    resolve_rebalance,
)
from repro.dist.kpm_parallel import distributed_eta
from repro.dist.mp import MpWorld
from repro.dist.partition import RowPartition
from repro.perf.report import expected_segment_counters
from repro.util.counters import PerfCounters
from repro.util.errors import CheckpointError, SimulationError

M = 24  # half = 12 inner iterations
G = 32  # eta grid (rows per block)
R = 4
STOP = 7  # interrupt boundary for the resume tests


@pytest.fixture(scope="module")
def system():
    from repro.physics import build_topological_insulator

    h, _ = build_topological_insulator(8, 6, 4)  # 768 rows = 24 grid blocks
    scale = lanczos_scale(h, seed=1)
    blk = make_block_vector(h.n_rows, R, seed=2)
    part1 = RowPartition.equal(h.n_rows, 1, align=G)
    ref = distributed_eta(h, part1, scale, M, blk, SimWorld(1), eta_grid=G)
    return h, scale, blk, ref


class TestGridInvariance:
    """eta is a pure function of (problem, N, B) — not of the partition."""

    @pytest.mark.parametrize("weights", [
        None,  # equal split over 2 ranks
        [0.5, 0.5, 0.0001, 0.4999],  # extreme skew over 4
        [0.6, 0.1, 0.3],
    ])
    def test_sim_partition_independent(self, system, weights):
        h, scale, blk, ref = system
        if weights is None:
            part = RowPartition.equal(h.n_rows, 2, align=G)
        else:
            part = RowPartition.from_weights(h.n_rows, weights, align=G)
        eta = distributed_eta(
            h, part, scale, M, blk, SimWorld(part.n_ranks), eta_grid=G
        )
        assert np.array_equal(eta, ref)

    def test_mp_matches_sim_bitwise(self, system):
        h, scale, blk, ref = system
        part = RowPartition.equal(h.n_rows, 3, align=G)
        mw = MpWorld(3)
        eta = distributed_eta(h, part, scale, M, blk, mw, eta_grid=G)
        assert np.array_equal(eta, ref)

    def test_grid_requires_aligned_partition(self, system):
        h, scale, blk, _ = system
        part = RowPartition.from_weights(h.n_rows, [0.55, 0.45], align=4)
        assert any(o % G for o in part.offsets[1:-1])  # genuinely unaligned
        with pytest.raises(SimulationError, match="aligned"):
            distributed_eta(
                h, part, scale, M, blk, SimWorld(2), eta_grid=G
            )


def run_segmented(h, scale, blk, ref, tmp_path, world_cls,
                  resume_workers, weights):
    """Interrupt a 4-worker run at STOP, resume on ``resume_workers``.

    Returns (eta, first-half counters, second-half counters, worlds).
    """
    path = tmp_path / "boundary.npz"
    part4 = RowPartition.equal(h.n_rows, 4, align=G)
    c1 = PerfCounters()
    w1 = world_cls(4)
    distributed_eta(
        h, part4, scale, M, blk, w1, counters=c1, eta_grid=G,
        stop_m=STOP, checkpoint_every=STOP - 1, checkpoint_path=path,
    )
    ck = KpmCheckpoint.load(path)
    assert ck.next_m == STOP and ck.eta_grid == G

    if weights is None:
        part = RowPartition.equal(h.n_rows, resume_workers, align=G)
    else:
        part = RowPartition.from_weights(h.n_rows, weights, align=G)
    c2 = PerfCounters()
    w2 = world_cls(resume_workers)
    eta = distributed_eta(
        h, part, scale, M, blk, w2, counters=c2, eta_grid=G,
        resume_from=ck, stop_m=M // 2,
    )
    return eta, c1, c2, (w1, w2)


class TestCrossWorkerResume:
    """Interrupt at 4 workers, resume at 2 or 3 — bitwise, exact traffic."""

    @pytest.mark.parametrize("resume_workers,weights", [
        (2, None),
        (3, None),
        (2, [0.7, 0.3]),
        (3, [0.5, 0.125, 0.375]),
    ])
    def test_sim_resume(self, system, tmp_path, resume_workers, weights):
        h, scale, blk, ref = system
        eta, c1, c2, _ = run_segmented(
            h, scale, blk, ref, tmp_path, SimWorld, resume_workers, weights
        )
        assert np.array_equal(eta, ref)
        # both halves' measured counters equal the Eq. 5-7 analytic
        # charge of their segment, exactly
        e1 = expected_segment_counters(h, M, R, first_m=1, stop_m=STOP,
                                       eta_grid=G)
        e2 = expected_segment_counters(h, M, R, first_m=STOP, stop_m=M // 2,
                                       eta_grid=G)
        assert (c1.bytes_loaded, c1.bytes_stored, c1.flops) == \
            (e1.bytes_loaded, e1.bytes_stored, e1.flops)
        assert (c2.bytes_loaded, c2.bytes_stored, c2.flops) == \
            (e2.bytes_loaded, e2.bytes_stored, e2.flops)

    def test_mp_resume_matches_sim(self, system, tmp_path):
        h, scale, blk, ref = system
        eta_mp, m1, m2, (w1, w2) = run_segmented(
            h, scale, blk, ref, tmp_path, MpWorld, 2, None
        )
        assert np.array_equal(eta_mp, ref)
        eta_sim, s1, s2, (v1, v2) = run_segmented(
            h, scale, blk, ref, tmp_path, SimWorld, 2, None
        )
        # per-half counters and message logs agree engine-for-engine
        assert (m1.bytes_total, m1.flops) == (s1.bytes_total, s1.flops)
        assert (m2.bytes_total, m2.flops) == (s2.bytes_total, s2.flops)
        assert w1.log.records == v1.log.records
        assert w2.log.records == v2.log.records

    def test_constant_worker_segments_sum_to_full_run(self, system,
                                                      tmp_path):
        """With P fixed, the halves' logs sum to the uninterrupted log."""
        h, scale, blk, ref = system
        eta, c1, c2, (w1, w2) = run_segmented(
            h, scale, blk, ref, tmp_path, SimWorld, 4, None
        )
        assert np.array_equal(eta, ref)
        full = SimWorld(4)
        part4 = RowPartition.equal(h.n_rows, 4, align=G)
        distributed_eta(h, part4, scale, M, blk, full, eta_grid=G)
        assert (w1.log.total_bytes + w2.log.total_bytes
                == full.log.total_bytes)

    def test_cross_grid_resume_refused(self, system, tmp_path):
        h, scale, blk, _ = system
        path = tmp_path / "boundary.npz"
        part = RowPartition.equal(h.n_rows, 2, align=G)
        distributed_eta(
            h, part, scale, M, blk, SimWorld(2), eta_grid=G,
            stop_m=STOP, checkpoint_every=STOP - 1, checkpoint_path=path,
        )
        with pytest.raises(CheckpointError, match="eta_grid"):
            distributed_eta(
                h, part, scale, M, blk, SimWorld(2), eta_grid=16,
                resume_from=path, stop_m=M // 2,
            )


class TestElasticDriver:
    def test_plain_sim_run_bitwise(self, system):
        h, scale, blk, ref = system
        pol = RebalancePolicy(grid=G, interval=5)
        eta, rep = elastic_eta(
            h, scale, M, blk, n_workers=3, policy=pol, engine="sim"
        )
        assert np.array_equal(eta, ref)
        assert isinstance(rep, ElasticReport)
        assert [s.first_m for s in rep.segments] == [1, 6, 11]
        assert rep.final_n_workers == 3 and rep.rebalances == 0

    def test_join_and_leave_plan(self, system):
        h, scale, blk, ref = system
        pol = RebalancePolicy(grid=G, interval=4)
        eta, rep = elastic_eta(
            h, scale, M, blk, n_workers=2, policy=pol, engine="sim",
            membership="join:m=5,ranks=2;leave:m=9,rank=0",
        )
        assert np.array_equal(eta, ref)
        assert rep.joins == 2 and rep.leaves == 1
        assert rep.final_n_workers == 3
        # boundaries land exactly on the planned iterations
        assert {s.stop_m for s in rep.segments} >= {5, 9}

    def test_timer_driven_rebalance(self, system):
        h, scale, blk, ref = system
        pol = RebalancePolicy(grid=G, interval=4, windows=2)
        slow = lambda p, nn: nn * (4.0 if p == 0 else 1.0)  # noqa: E731
        eta, rep = elastic_eta(
            h, scale, M, blk, n_workers=3, policy=pol, engine="sim",
            timer=slow,
        )
        assert np.array_equal(eta, ref)
        assert rep.rebalances >= 1
        first, last = rep.segments[0], rep.segments[-1]
        rows0_before = first.offsets[1] - first.offsets[0]
        rows0_after = last.offsets[1] - last.offsets[0]
        assert rows0_after < rows0_before
        assert last.imbalance < first.imbalance

    def test_counters_match_segment_model(self, system):
        h, scale, blk, _ = system
        pol = RebalancePolicy(grid=G, interval=5)
        c = PerfCounters()
        _eta, rep = elastic_eta(
            h, scale, M, blk, n_workers=2, policy=pol, engine="sim",
            counters=c,
        )
        exp = PerfCounters()
        for seg in rep.segments:
            exp.merge(expected_segment_counters(
                h, M, R, first_m=seg.first_m, stop_m=seg.stop_m, eta_grid=G,
            ))
        assert (c.bytes_loaded, c.bytes_stored, c.flops) == \
            (exp.bytes_loaded, exp.bytes_stored, exp.flops)

    def test_resume_from_boundary_checkpoint(self, system, tmp_path):
        """An elastic run interrupted at a boundary resumes bitwise."""
        h, scale, blk, ref = system
        pol = RebalancePolicy(grid=G, interval=5)
        path = tmp_path / "boundary.npz"
        part = RowPartition.equal(h.n_rows, 2, align=G)
        distributed_eta(
            h, part, scale, M, blk, SimWorld(2), eta_grid=G,
            stop_m=6, checkpoint_every=5, checkpoint_path=path,
        )
        eta, rep = elastic_eta(
            h, scale, M, blk, n_workers=3, policy=pol, engine="sim",
            resume_from=path,
        )
        assert np.array_equal(eta, ref)
        assert rep.segments[0].first_m == 6

    @pytest.mark.parametrize("engine", ["sim", "mp"])
    def test_resume_of_another_runs_file_is_refused(self, system, tmp_path,
                                                   engine):
        """An elastic resume runs the run check every engine runs: a
        boundary file another solve left is refused, not resumed."""
        h, scale, blk, _ = system
        other = make_block_vector(h.n_rows, R, seed=99)
        path = tmp_path / "boundary.npz"
        distributed_eta(
            h, RowPartition.equal(h.n_rows, 2, align=G), scale, M, other,
            SimWorld(2), eta_grid=G, stop_m=6, checkpoint_every=5,
            checkpoint_path=path,
        )
        with pytest.raises(CheckpointError, match="different run"):
            elastic_eta(h, scale, M, blk, n_workers=2, engine=engine,
                        policy=RebalancePolicy(grid=G, interval=5),
                        resume_from=path)

    def test_bad_inputs(self, system):
        h, scale, blk, _ = system
        with pytest.raises(ValueError, match="engine"):
            elastic_eta(h, scale, M, blk, n_workers=2, engine="serial")
        with pytest.raises(ValueError, match="n_workers"):
            elastic_eta(h, scale, M, blk, n_workers=0)
        with pytest.raises(ValueError, match="weights"):
            elastic_eta(h, scale, M, blk, n_workers=2, weights=[1.0],
                        engine="sim")
        with pytest.raises(SimulationError, match="retires"):
            elastic_eta(
                h, scale, M, blk, n_workers=1, engine="sim",
                policy=RebalancePolicy(grid=G, interval=4),
                membership="leave:m=5,rank=0",
            )


class TestPolicyAndPlan:
    def test_resolve_rebalance(self):
        assert resolve_rebalance(None) is None
        assert resolve_rebalance(False) is None
        assert resolve_rebalance("off") is None
        assert resolve_rebalance("") is None
        assert resolve_rebalance(True) == RebalancePolicy()
        assert resolve_rebalance("auto") == RebalancePolicy()
        assert resolve_rebalance(0.4).threshold == 0.4
        assert resolve_rebalance("0.4").threshold == 0.4
        pol = RebalancePolicy(grid=16)
        assert resolve_rebalance(pol) is pol
        with pytest.raises(ValueError):
            resolve_rebalance("sideways")
        with pytest.raises(TypeError):
            resolve_rebalance([1, 2])

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RebalancePolicy(grid=0)
        with pytest.raises(ValueError):
            RebalancePolicy(threshold=-1)
        with pytest.raises(ValueError):
            RebalancePolicy(windows=0)
        with pytest.raises(ValueError):
            RebalancePolicy(damping=0)

    def test_plan_parse_roundtrip(self):
        plan = MembershipPlan.parse("leave:m=16,rank=0; join:m=8,ranks=2")
        assert plan.boundaries() == [8, 16]
        assert [s.kind for s in plan.specs] == ["join", "leave"]  # sorted
        assert plan.at(8)[0].ranks == 2
        assert str(plan) == "join:m=8,ranks=2;leave:m=16,rank=0"
        assert MembershipPlan.parse(str(plan)) == plan
        assert not MembershipPlan.parse("")

    def test_plan_parse_errors(self):
        with pytest.raises(ValueError, match="m="):
            MembershipPlan.parse("join:ranks=2")
        with pytest.raises(ValueError, match="malformed"):
            MembershipPlan.parse("join:m=8,delay=2")
        with pytest.raises(ValueError, match="kind"):
            MembershipPlan.parse("resize:m=8")

    def test_monitor_debounce_and_retune(self):
        pol = RebalancePolicy(grid=16, threshold=0.5, windows=2)
        mon = RebalanceMonitor(pol)
        counts = [64, 64]
        assert mon.observe(counts, [1.0, 4.0]) == pytest.approx(1.2)
        assert not mon.should_rebalance  # one window is not enough
        mon.observe(counts, [1.0, 1.1])  # calm segment resets the streak
        mon.observe(counts, [1.0, 4.0])
        assert not mon.should_rebalance
        mon.observe(counts, [1.0, 4.0])
        assert mon.should_rebalance
        result = mon.retune(128, [0.5, 0.5])
        # rank 1 measured 4x slower -> it gets fewer rows
        assert result.weights[1] < result.weights[0]
        assert sum(result.weights) == pytest.approx(1.0)
        assert not mon.should_rebalance  # retune resets the streak

    def test_monitor_ignores_zero_busy(self):
        mon = RebalanceMonitor(RebalancePolicy(windows=1))
        mon.observe([64, 64], [0.0, 1.0])  # dead clock: not a skew signal
        assert not mon.should_rebalance
